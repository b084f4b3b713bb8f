//! Serving-layer baseline: queries/sec of the concurrent scheduler over a
//! resident graph, plus the structural gates the serving story depends on
//! — bit-identical distances under concurrency, a saturated admission
//! bound, and a point-to-point cutoff that actually terminates early.
//!
//! Usage:
//!   cargo run -p sssp-bench --bin serve_bench [--release] --
//!       [--scale N] [--ranks N] [--threads N] [--inflight N]
//!       [--batch-roots N] [--out PATH] [--check PATH]
//!
//! Writes the `"serving"` block of `BENCH_sssp.json` (preserving every
//! `"scale_N"` block verbatim — see `sssp_bench::baseline`). `--check
//! PATH` additionally gates the committed serving block's structural
//! fields and this run's own record — including the crash-isolation
//! counters: `panicked` and `timed_out` must be present and zero in a
//! clean run. Wall-clock throughput is recorded but never gated, it
//! varies with the machine.
//!
//! The batch is three queries per root — a fresh single-source, a
//! point-to-point to the root's nearest vertex, and a repeat of the
//! single-source — all submitted before the first completion, so the
//! scheduler runs at its admission bound and the cache sees both
//! landmark and repeat-root traffic.

use std::sync::Arc;
use std::time::Instant;

use sssp_bench::baseline::{extract_number, serving_block, upsert_serving_block, ServingRecord};
use sssp_bench::{build_family, pick_roots, print_table, Family};
use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_core::threaded_delta_stepping;
use sssp_dist::DistGraph;
use sssp_graph::VertexId;
use sssp_serve::{QueryOutput, QuerySpec, ServeConfig, SsspServer};

/// The vertex nearest to `root` (smallest nonzero finite distance): the
/// point-to-point probe target, chosen so the cutoff has the most epochs
/// to save.
fn nearest_vertex(distances: &[u64], root: VertexId) -> VertexId {
    distances
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != 0 && d != u64::MAX)
        .min_by_key(|&(_, &d)| d)
        .map(|(v, _)| v as VertexId)
        .unwrap_or(root)
}

/// Measure the point-to-point epoch savings on a cache-less single-worker
/// server: the full field's epoch count vs the early-terminated count for
/// the nearest target.
fn measure_epoch_savings(
    dg: &Arc<DistGraph>,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> (u64, u64) {
    let probe = SsspServer::new(
        Arc::clone(dg),
        cfg.clone(),
        *model,
        ServeConfig {
            max_inflight: 1,
            cache_capacity: 0,
            deadline: None,
        },
    );
    let full = probe
        .run(QuerySpec::SingleSource { root })
        .expect("probe single-source");
    let target = nearest_vertex(full.output.distances().expect("distances"), root);
    let p2p = probe
        .run(QuerySpec::PointToPoint { root, target })
        .expect("probe point-to-point");
    assert!(!p2p.cache_hit, "cache-less probe must run the engine");
    (p2p.epochs, full.epochs)
}

/// Gate the committed serving block and the freshly measured record.
fn check_against(committed_block: &str, current: &ServingRecord) -> Result<(), String> {
    let mut problems = current.problems();
    let mut missing: Vec<String> = Vec::new();
    let mut field = |name: &str| -> f64 {
        match extract_number(committed_block, "", name) {
            Some(v) => v,
            None => {
                missing.push(format!("committed serving block is missing {name}"));
                f64::NAN
            }
        }
    };
    // Config drift: a committed baseline recorded at other parameters
    // gates nothing — fail loudly instead of comparing unlike runs.
    for (name, now) in [
        ("scale", current.scale as f64),
        ("ranks", current.ranks as f64),
        ("threads", current.threads as f64),
        ("max_inflight", current.max_inflight as f64),
        ("queries", current.queries as f64),
    ] {
        let base = field(name);
        if !base.is_nan() && base != now {
            problems.push(format!(
                "committed serving block was recorded with {name} = {base}, \
                 this run uses {now} — re-record the baseline"
            ));
        }
    }
    // Structural gates on the committed block itself: the committed
    // baseline must describe a healthy serving layer.
    let committed_match = field("distances_match");
    if committed_match == 0.0 {
        problems.push("committed serving block records diverging distances".to_string());
    }
    let (peak, bound) = (field("peak_inflight"), field("max_inflight"));
    if peak < bound {
        problems.push(format!(
            "committed serving block never saturated its admission bound \
             ({peak} < {bound})"
        ));
    }
    let (p2p, full) = (field("p2p_epochs"), field("full_epochs"));
    if p2p >= full {
        problems.push(format!(
            "committed serving block records no point-to-point epoch \
             savings ({p2p} vs {full})"
        ));
    }
    // Crash-isolation gate: the failure counters must be present in the
    // committed block (a block without them predates the unwind-safety
    // work) and must both be zero — a clean benchmark run neither
    // panics nor times out.
    for name in ["panicked", "timed_out"] {
        let v = field(name);
        if !v.is_nan() && v != 0.0 {
            problems.push(format!(
                "committed serving block records {name} = {v} — the clean \
                 benchmark run must not trip the failure paths"
            ));
        }
    }
    problems.extend(missing);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() {
    // Pin the worker count unless the caller chose one, matching
    // perf_baseline: recorded numbers must not depend on the machine.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }

    let mut scale = 10u32;
    let mut ranks = 4usize;
    let mut threads = 4usize;
    let mut max_inflight = 4usize;
    let mut batch_roots = 8usize;
    let mut out_path = "BENCH_sssp.json".to_string();
    let mut check_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{what} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--scale" => scale = take("--scale").parse().unwrap_or(scale),
            "--ranks" => ranks = take("--ranks").parse().unwrap_or(ranks),
            "--threads" => threads = take("--threads").parse().unwrap_or(threads),
            "--inflight" => max_inflight = take("--inflight").parse().unwrap_or(max_inflight),
            "--batch-roots" => batch_roots = take("--batch-roots").parse().unwrap_or(batch_roots),
            "--out" => out_path = take("--out"),
            "--check" => check_path = Some(take("--check")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let family = Family::Rmat2;
    let model = MachineModel::bgq_like();
    let g = build_family(family, scale, 1);
    let dg = Arc::new(DistGraph::build(&g, ranks, threads));
    let roots = pick_roots(&g, batch_roots, 23);
    // Non-hybrid finite Δ: the hybrid τ-tail can finish small graphs in a
    // couple of epochs, leaving the point-to-point cutoff nothing to save
    // and the epoch gate nothing to measure.
    let cfg = SsspConfig::del(25);

    let (p2p_epochs, full_epochs) = measure_epoch_savings(&dg, roots[0], &cfg, &model);

    // Fresh one-shot oracles, one per distinct root, computed before the
    // batch so oracle time never pollutes the throughput window.
    let oracles: Vec<Vec<u64>> = roots
        .iter()
        .map(|&r| threaded_delta_stepping(&dg, r, &cfg, &model).distances)
        .collect();
    let targets: Vec<VertexId> = roots
        .iter()
        .zip(&oracles)
        .map(|(&r, o)| nearest_vertex(o, r))
        .collect();

    let server = SsspServer::new(
        Arc::clone(&dg),
        cfg.clone(),
        model,
        ServeConfig {
            max_inflight,
            cache_capacity: 2 * batch_roots,
            deadline: None,
        },
    );

    // Submit the whole batch before waiting on anything: fresh roots
    // first (engine work that saturates the workers), then the landmark
    // point-to-points and the repeat roots (cache traffic).
    let t0 = Instant::now();
    let submit = |spec: QuerySpec| server.submit(spec).expect("benchmark spec is valid");
    let mut tickets = Vec::new();
    for &r in &roots {
        tickets.push((submit(QuerySpec::SingleSource { root: r }), r, None));
    }
    for (&r, &t) in roots.iter().zip(&targets) {
        tickets.push((
            submit(QuerySpec::PointToPoint { root: r, target: t }),
            r,
            Some(t),
        ));
    }
    for &r in &roots {
        tickets.push((submit(QuerySpec::SingleSource { root: r }), r, None));
    }
    let queries = tickets.len();

    let mut distances_match = true;
    for (ticket, root, target) in tickets {
        let res = server.wait(ticket).expect("benchmark query outcome");
        let oracle = &oracles[roots.iter().position(|&r| r == root).expect("batch root")];
        let ok = match (&res.output, target) {
            (QueryOutput::Distances(d), None) => d.as_ref() == oracle,
            (QueryOutput::TargetDistance(td), Some(t)) => *td == oracle[t as usize],
            _ => false,
        };
        if !ok {
            eprintln!("served query for root {root} diverged from the fresh oracle");
            distances_match = false;
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (cache_hits, cache_misses) = server.cache_stats();
    let peak_inflight = server.peak_inflight();
    let (panicked, timed_out) = server.failure_stats();

    let record = ServingRecord {
        family: family.name().to_string(),
        scale,
        ranks,
        threads,
        max_inflight,
        queries,
        peak_inflight,
        distances_match: u8::from(distances_match),
        cache_hits,
        cache_misses,
        p2p_epochs,
        full_epochs,
        panicked,
        timed_out,
        wall_ms,
        queries_per_sec: queries as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE),
    };

    print_table(
        &format!(
            "serving baseline — {} scale {scale}, p={ranks}×{threads}, {max_inflight} workers",
            family.name()
        ),
        &[
            "queries",
            "peak inflight",
            "wall ms",
            "queries/s",
            "cache hit/miss",
            "p2p epochs",
            "full epochs",
            "panic/timeout",
            "distances",
        ],
        &[vec![
            record.queries.to_string(),
            record.peak_inflight.to_string(),
            format!("{:.2}", record.wall_ms),
            format!("{:.1}", record.queries_per_sec),
            format!("{}/{}", record.cache_hits, record.cache_misses),
            record.p2p_epochs.to_string(),
            record.full_epochs.to_string(),
            format!("{}/{}", record.panicked, record.timed_out),
            if distances_match { "match" } else { "DIVERGED" }.to_string(),
        ]],
    );
    println!(
        "point-to-point cutoff: {} of {} epochs ({:.0}% saved)",
        record.p2p_epochs,
        record.full_epochs,
        100.0 * (1.0 - record.p2p_epochs as f64 / record.full_epochs.max(1) as f64),
    );

    // Re-record only the serving block; every scale block in an existing
    // document survives verbatim.
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let json = upsert_serving_block(&existing, &record.to_json());
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} (serving block)");

    if let Some(path) = check_path {
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read committed baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let Some(block) = serving_block(&committed) else {
            eprintln!("committed baseline {path} has no serving block");
            std::process::exit(1);
        };
        match check_against(&block, &record) {
            Ok(()) => println!("serving check against {path}: OK"),
            Err(msg) => {
                eprintln!("serving check against {path} FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
