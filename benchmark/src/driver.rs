//! The repo benchmark. One process measures one pass of one workload:
//!
//! ```text
//! sssp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit, then one JSON object as the
//! last line of stdout, and exits non-zero on a wrong answer. `--all` runs
//! every workload through both passes, each in a process of its own so
//! `peak_rss_mib` is per workload, and writes a results document;
//! `--compare A.json B.json` sets two such documents against the bounds of
//! `BENCHMARK.json`; `--smoke` is `--all` at sizes that finish in seconds.
//! See `benchmark/README.md`.

mod alloc;
mod compare;
mod inputs;
mod json;
mod layers;
mod ledger;
mod metrics;
mod serve;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::{obj, Value};
use metrics::{median, quartiles};
use workload::{Run, Sizes, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's definition, compiled in so the program checks its own
/// output against it wherever it runs.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage:
  sssp-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  sssp-benchmark --all [--seed N] [--seconds S] [--runs N] [--out PATH] [--smoke]
  sssp-benchmark --smoke
  sssp-benchmark --compare BASE.json NEW.json
workloads: rmat_volume grid_latency serve_repeat serve_churn";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    all: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        all: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read '{text}'"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => {
                let s: f64 = number(value(&mut it, flag)?, flag)?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                args.runs = number(value(&mut it, flag)?, flag)?;
                if !(1..=100).contains(&args.runs) {
                    return Err(format!("--runs {} is outside 1..=100", args.runs));
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => {
                let base = PathBuf::from(value(&mut it, flag)?);
                let new = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The rayon stand-in sizes its pool from this; pin it so the simulated
    // driver and the generators use the two cores the benchmark is sized for.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let definition = Value::parse(DEFINITION).expect("BENCHMARK.json is valid JSON");
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let seconds = args.seconds.unwrap_or_else(|| {
        if args.smoke {
            0.0
        } else {
            definition
                .get("run_seconds")
                .and_then(Value::num)
                .unwrap_or(10.0)
        }
    });
    let result = if let Some((base, new)) = &args.compare {
        compare::run(&definition, base, new)
    } else if args.all || (args.smoke && args.workload.is_none()) {
        run_all(&definition, &args, seconds, sizes)
    } else if let Some(name) = &args.workload {
        match Workload::from_name(name) {
            Some(workload) => run_one(Run {
                workload,
                seed: args.seed,
                seconds,
                trace: args.trace,
                sizes,
            }),
            None => Err(format!("unknown workload '{name}'\n{USAGE}")),
        }
    } else {
        Err(USAGE.to_string())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// One pass of one workload in this process. `Ok(false)` = a wrong answer.
fn run_one(run: Run) -> Result<bool, String> {
    let outcome = if run.trace {
        ledger::traced(&run)
    } else {
        workload::untraced(&run)
    };
    println!(
        "{} seed {} {} pass: {} attempted, {} failed",
        run.workload.name(),
        run.seed,
        if run.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json().render());
    Ok(outcome.failed == 0)
}

/// Names and units `BENCHMARK.json` lists under `key`.
fn defined(definition: &Value, key: &str) -> Vec<(String, String)> {
    definition
        .get(key)
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.str()?.to_string(),
                m.get("unit")?.str()?.to_string(),
            ))
        })
        .collect()
}

/// Run one pass in a child process and return its result object.
fn child(run: &Run, smoke: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", run.workload.name()])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = last
        .ok_or_else(|| format!("{}: child printed nothing", run.workload.name()))
        .and_then(|l| Value::parse(l).map_err(|e| format!("child result: {e}")))?;
    if !output.status.success() && result.get("correct") != Some(&Value::Bool(false)) {
        return Err(format!(
            "{}: child exited with {}",
            run.workload.name(),
            output.status
        ));
    }
    Ok(result)
}

/// Check a child's metric names and units against the definition.
fn check_names(result: &Value, want: &[(String, String)], what: &str) -> Result<(), String> {
    let got: Vec<(String, String)> = result
        .get("metrics")
        .map(Value::fields)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::str).unwrap_or("");
            (name.clone(), unit.to_string())
        })
        .collect();
    let mut missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
    missing.extend(got.iter().filter(|g| !want.contains(g)));
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: output and BENCHMARK.json disagree on {missing:?}"
        ))
    }
}

/// `--all`: every workload, `--runs` untraced passes on consecutive seeds
/// and one traced pass, each in its own process. Writes the results
/// document `--compare` reads. `Ok(false)` = some answer was wrong.
fn run_all(definition: &Value, args: &Args, seconds: f64, sizes: Sizes) -> Result<bool, String> {
    let end_to_end = defined(definition, "end_to_end");
    let per_layer = defined(definition, "per_layer");
    let listed: Vec<String> = defined_workloads(definition);
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if listed != ours {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the program has {ours:?}"
        ));
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut run = Run {
            workload,
            seed: args.seed,
            seconds,
            trace: false,
            sizes,
        };
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); end_to_end.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for i in 0..args.runs {
            run.seed = args.seed + i as u64;
            let result = child(&run, args.smoke)?;
            check_names(&result, &end_to_end, workload.name())?;
            attempted += result.get("attempted").and_then(Value::num).unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::num).unwrap_or(0.0);
            for ((name, _), column) in end_to_end.iter().zip(&mut values) {
                let v = result.get("metrics").and_then(|m| m.get(name));
                column.extend(v.and_then(|m| m.get("value")).and_then(Value::num));
            }
        }
        run.seed = args.seed;
        run.trace = true;
        let traced = child(&run, args.smoke)?;
        check_names(&traced, &per_layer, workload.name())?;
        attempted += traced.get("attempted").and_then(Value::num).unwrap_or(0.0);
        failed += traced.get("failed").and_then(Value::num).unwrap_or(0.0);
        all_correct &= failed == 0.0;

        println!(
            "\n{} — {attempted} attempted, {failed} failed, {} untraced run(s)",
            workload.name(),
            args.runs
        );
        let mut e2e_rows = Vec::new();
        for ((name, unit), column) in end_to_end.iter().zip(&values) {
            let (q1, q3) = quartiles(column);
            let mid = median(column);
            println!(
                "  {name:<32} {mid:>16.6} {unit:<9} spread {:.4}",
                (q3 - q1) / mid
            );
            e2e_rows.push((
                name.clone(),
                obj([
                    ("median", Value::Num(mid)),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("unit", Value::Str(unit.clone())),
                    (
                        "values",
                        Value::Arr(column.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        let layer_rows = traced.get("metrics").cloned().unwrap_or(Value::Null);
        for (name, m) in layer_rows.fields() {
            let value = m.get("value").and_then(Value::num).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::str).unwrap_or("");
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        workloads.push((
            workload.name(),
            obj([
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("end_to_end", Value::Obj(e2e_rows)),
                ("per_layer", layer_rows),
            ]),
        ));
    }
    let doc = obj([
        ("seed", Value::Num(args.seed as f64)),
        ("runs", Value::Num(args.runs as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("workloads", obj(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| workload::out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(all_correct)
}

fn defined_workloads(definition: &Value) -> Vec<String> {
    definition
        .get("workloads")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some(w.get("name")?.str()?.to_string()))
        .collect()
}
