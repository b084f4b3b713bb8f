//! Compare two run-telemetry traces bucket-by-bucket, or prove to CI that
//! both backends emit the same trace on the bench workload.
//!
//! Usage:
//!   cargo run -p sssp-bench --bin trace_diff -- A.json B.json
//!       Diff two exported trace files (see `sssp_bench::trace`; any JSON
//!       layout of the schema reads). Exits nonzero and lists every
//!       differing field when the traces disagree (timing fields and
//!       backend names are ignored by design).
//!
//!   cargo run -p sssp-bench --bin trace_diff -- --self-check
//!       Run the simulated and threaded engines over the bench graph
//!       across a config sweep (heuristic, both Always policies, a Forced
//!       sequence, Δ = ∞, and p = 8, where lockstep ranks take turns on
//!       shared coalescing tables) and over a grid long enough for the
//!       hybrid tail to run many windowed epochs, push each trace through
//!       the JSON exporter and back, and diff the pair. This is the CI
//!       smoke for the unified telemetry layer.

use std::sync::Arc;

use sssp_bench::{build_family, pick_roots, trace, Family};
use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, LongPhaseMode, SsspConfig};
use sssp_core::engine::run_sssp;
use sssp_core::{threaded_delta_stepping_traced, RunTrace};
use sssp_dist::DistGraph;
use sssp_graph::{gen, CsrBuilder};

fn load(path: &str) -> RunTrace {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    trace::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a run trace: {e}");
        std::process::exit(2);
    })
}

fn self_check() -> i32 {
    let scale = 10;
    let ranks = 4;
    let g = build_family(Family::Rmat2, scale, 1);
    let dg = Arc::new(DistGraph::build(&g, ranks, 4));
    let root = pick_roots(&g, 1, 23)[0];
    let dg8 = Arc::new(DistGraph::build(&g, 8, 2));
    let grid = Arc::new(DistGraph::build(
        &CsrBuilder::new().build(&gen::grid(64, 255, 1)),
        2,
        2,
    ));
    let model = MachineModel::bgq_like();

    let sweep: Vec<(&str, &Arc<DistGraph>, u32, SsspConfig)> = vec![
        ("OPT-25 (heuristic)", &dg, root, SsspConfig::opt(25)),
        (
            "Del-15 push",
            &dg,
            root,
            SsspConfig::del(15).with_direction(DirectionPolicy::AlwaysPush),
        ),
        (
            "Prune-15 pull",
            &dg,
            root,
            SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull),
        ),
        (
            "Prune-20 forced",
            &dg,
            root,
            SsspConfig::prune(20).with_direction(DirectionPolicy::Forced(vec![
                LongPhaseMode::Push,
                LongPhaseMode::Pull,
                LongPhaseMode::Push,
            ])),
        ),
        (
            "Bellman-Ford (Δ = ∞)",
            &dg,
            root,
            SsspConfig::bellman_ford(),
        ),
        (
            "OPT-25 p = 8 (shared tables)",
            &dg8,
            root,
            SsspConfig::opt(25),
        ),
        (
            "LB-OPT-25 grid (hybrid tail)",
            &grid,
            0,
            SsspConfig::lb_opt(25),
        ),
    ];

    let mut failures = 0;
    for (name, dg, root, cfg) in &sweep {
        let simulated = run_sssp(dg, *root, cfg, &model);
        let (threaded, trace_thr) = threaded_delta_stepping_traced(dg, *root, cfg, &model);
        if threaded.distances != simulated.distances {
            eprintln!("{name}: DISTANCES diverged between backends");
            failures += 1;
            continue;
        }
        let trace_sim = RunTrace::from_run_stats(&simulated.stats, "simulated");
        // Round both traces through the JSON exporter so the smoke also
        // covers the export/import path CI consumers rely on.
        let sim =
            trace::from_json(&trace::to_json(&trace_sim).render()).expect("simulated trace JSON");
        let thr =
            trace::from_json(&trace::to_json(&trace_thr).render()).expect("threaded trace JSON");
        let diffs = sim.diff(&thr);
        if diffs.is_empty() {
            println!(
                "{name}: OK ({} buckets, {} supersteps, {} remote msgs)",
                thr.buckets.len(),
                thr.supersteps,
                thr.remote_msgs
            );
        } else {
            eprintln!("{name}: traces diverged:");
            for d in &diffs {
                eprintln!("  {d}");
            }
            failures += 1;
        }
    }
    if failures == 0 {
        println!("trace self-check: all {} configs agree", sweep.len());
        0
    } else {
        eprintln!(
            "trace self-check: {failures} of {} configs diverged",
            sweep.len()
        );
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.as_slice() {
        [flag] if flag == "--self-check" => self_check(),
        [a, b] => {
            let ta = load(a);
            let tb = load(b);
            let diffs = ta.diff(&tb);
            if diffs.is_empty() {
                println!("traces agree ({} vs {})", ta.backend, tb.backend);
                0
            } else {
                eprintln!("traces differ ({} vs {}):", ta.backend, tb.backend);
                for d in &diffs {
                    eprintln!("  {d}");
                }
                1
            }
        }
        _ => {
            eprintln!("usage: trace_diff A.json B.json | trace_diff --self-check");
            2
        }
    };
    std::process::exit(code);
}
