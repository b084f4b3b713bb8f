//! Prove that both transports emit the same run trace, bucket by bucket.
//!
//! Usage:
//!   cargo run -p sssp-bench --bin trace_diff -- --self-check
//!       Run the simulated and threaded engines over the bench graph
//!       across a config sweep (heuristic, both Always policies, a Forced
//!       sequence, Δ = ∞, and p = 8, where lockstep ranks take turns on
//!       shared coalescing tables) and over a grid long enough for the
//!       hybrid tail to run many windowed epochs, and diff the two
//!       in-memory traces of each config (`RunTrace::diff`: timing fields
//!       are ignored by design). Exits 1 and lists every differing field
//!       when a pair disagrees. This is the CI smoke for the unified
//!       telemetry layer; any other invocation prints the usage line and
//!       exits 2.

use std::sync::Arc;

use sssp_bench::{build_family, pick_roots, Family};
use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, LongPhaseMode, SsspConfig};
use sssp_core::engine::run_sssp;
use sssp_core::{threaded_delta_stepping_traced, RunTrace};
use sssp_dist::DistGraph;
use sssp_graph::{gen, CsrBuilder};

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
        let (threaded, thr) = threaded_delta_stepping_traced(dg, *root, cfg, &model);
        if threaded.distances != simulated.distances {
            eprintln!("{name}: DISTANCES diverged between backends");
            failures += 1;
            continue;
        }
        let sim = RunTrace::from_run_stats(&simulated.stats);
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
        _ => {
            eprintln!("usage: trace_diff --self-check");
            2
        }
    };
    std::process::exit(code);
}
