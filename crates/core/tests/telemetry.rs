//! Differential telemetry tests: the merged per-rank trace of a threaded
//! run must be *identical* to the simulated engine's trace — bucket by
//! bucket (mode chosen, est_push/est_pull, settled, per-epoch supersteps
//! and message splits), phase by phase, and in every global counter —
//! modulo the timing fields, which the trace deliberately omits.
//!
//! This is the acceptance gate for the unified run-telemetry layer: both
//! backends observe their traffic through the same [`Recorder`] hooks, so
//! any divergence here is a real accounting bug in one of them.

use std::sync::Arc;

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, LongPhaseMode, SsspConfig};
use sssp_core::engine::run_sssp;
use sssp_core::{
    merged_trace, run, threaded_delta_stepping, threaded_delta_stepping_traced, EngineScratch,
    Lockstep, Query, RunStats, RunTrace, Threaded,
};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};

fn bench_graph() -> Csr {
    CsrBuilder::new().build(&gen::uniform(200, 1200, 40, 9))
}

/// The trace-equality sweep: Δ-stepping with the heuristic, both Always
/// policies, a Forced sequence and the hybrid tail. Every entry must
/// produce an empty trace diff on every partition count.
fn trace_matrix() -> Vec<SsspConfig> {
    vec![
        SsspConfig::opt(25),
        SsspConfig::del(15).with_direction(DirectionPolicy::AlwaysPush),
        SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull),
        SsspConfig::prune(20).with_direction(DirectionPolicy::Forced(vec![
            LongPhaseMode::Push,
            LongPhaseMode::Pull,
            LongPhaseMode::Push,
        ])),
        SsspConfig::bellman_ford(),
        SsspConfig::opt(20).with_coalescing(false),
    ]
}

fn traces_for(g: &Csr, p: usize, cfg: &SsspConfig) -> (RunTrace, RunTrace) {
    let dg = Arc::new(DistGraph::build(g, p, 2));
    let model = MachineModel::bgq_like();
    let simulated = run_sssp(&dg, 0, cfg, &model);
    let (threaded, trace_thr) = threaded_delta_stepping_traced(&dg, 0, cfg, &model);
    assert_eq!(
        threaded.distances, simulated.distances,
        "distances diverged before telemetry was even compared (p {p}, cfg {cfg:?})"
    );
    let trace_sim = RunTrace::from_run_stats(&simulated.stats, "simulated");
    (trace_sim, trace_thr)
}

#[test]
fn traced_backends_agree_bucket_by_bucket() {
    let g = bench_graph();
    for p in [1usize, 4, 6] {
        for cfg in trace_matrix() {
            let (sim, thr) = traces_for(&g, p, &cfg);
            let diffs = sim.diff(&thr);
            assert!(
                diffs.is_empty(),
                "telemetry diverged (p {p}, cfg {cfg:?}):\n{}",
                diffs.join("\n")
            );
        }
    }
}

#[test]
fn fused_decision_reduce_reproduces_the_five_reduction_decisions() {
    // What §III-C decided per bucket — (est_push, est_pull, mode) — on the
    // sweep's configs at p = 4, recorded while `Driver::decide` still
    // issued two sum- and three max-allreduces. The fused collective must
    // feed the heuristic the same five totals on both transports.
    use LongPhaseMode::{Pull, Push};
    let recorded: [&[(u64, u64, LongPhaseMode)]; 6] = [
        &[(1684, 128, Push)],
        &[(0, 0, Push); 3],
        &[(0, 0, Pull); 3],
        &[(1482, 704, Push), (386, 0, Pull)],
        &[(0, 0, Push)],
        &[(1482, 704, Push)],
    ];
    let g = bench_graph();
    for (cfg, want) in trace_matrix().iter().zip(recorded) {
        let (sim, thr) = traces_for(&g, 4, cfg);
        for trace in [sim, thr] {
            let got: Vec<_> = trace
                .buckets
                .iter()
                .map(|b| (b.est_push, b.est_pull, b.mode))
                .collect();
            assert_eq!(got, want, "{} transport, cfg {cfg:?}", trace.backend);
        }
    }
}

#[test]
fn forced_runs_record_heuristic_estimates() {
    // Satellite 3: under a Forced direction the simulated engine records
    // the estimates the heuristic *would* have produced; the traced
    // threaded backend must do the same (equality is pinned by the diff
    // sweep above — here we pin that the estimates are real, not zeros,
    // and that the forced sequence was actually honored).
    let g = bench_graph();
    let cfg = SsspConfig::prune(8).with_direction(DirectionPolicy::Forced(vec![
        LongPhaseMode::Push,
        LongPhaseMode::Pull,
        LongPhaseMode::Push,
    ]));
    let dg = Arc::new(DistGraph::build(&g, 4, 2));
    let (_, trace) = threaded_delta_stepping_traced(&dg, 0, &cfg, &MachineModel::bgq_like());
    assert!(trace.buckets.len() >= 3, "graph too small for the sequence");
    assert_eq!(trace.buckets[0].mode, LongPhaseMode::Push);
    assert_eq!(trace.buckets[1].mode, LongPhaseMode::Pull);
    assert_eq!(trace.buckets[2].mode, LongPhaseMode::Push);
    assert!(
        trace
            .buckets
            .iter()
            .take(3)
            .any(|b| b.est_push > 0 || b.est_pull > 0),
        "forced buckets recorded no heuristic estimates"
    );
}

#[test]
fn pull_buckets_expose_request_supersteps_and_byte_maxima() {
    // Satellite 4: on a pull-forced multi-rank run the per-step byte
    // maxima and the request supersteps must surface in the trace.
    let g = bench_graph();
    let cfg = SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull);
    let dg = Arc::new(DistGraph::build(&g, 4, 2));
    let (_, trace) = threaded_delta_stepping_traced(&dg, 0, &cfg, &MachineModel::bgq_like());
    assert!(trace.max_step_send_bytes > 0, "no send bytes recorded");
    assert!(trace.max_step_recv_bytes > 0, "no recv bytes recorded");
    let pulls: Vec<_> = trace
        .buckets
        .iter()
        .filter(|b| b.mode == LongPhaseMode::Pull)
        .collect();
    assert!(!pulls.is_empty(), "AlwaysPull produced no pull buckets");
    assert!(
        pulls.iter().any(|b| b.requests > 0 && b.responses > 0),
        "no pull bucket carried requests and responses"
    );
    // Each pull bucket's epoch holds at least the request + response
    // supersteps (plus the IOS outer sub-step when enabled).
    for b in &pulls {
        let floor = if cfg.ios { 3 } else { 2 };
        assert!(
            b.supersteps >= floor,
            "pull bucket {} recorded only {} supersteps",
            b.bucket,
            b.supersteps
        );
    }
}

#[test]
fn degenerate_graphs_trace_cleanly() {
    let model = MachineModel::bgq_like();
    let cfg = SsspConfig::opt(10);

    // Single vertex, no edges.
    let g = CsrBuilder::new().build(&gen::path(1, 1));
    let dg = Arc::new(DistGraph::build(&g, 2, 1));
    let (out, trace) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
    assert_eq!(out.distances, vec![0]);
    assert_eq!(trace.local_msgs + trace.remote_msgs, 0);
    let (sim, thr) = (
        RunTrace::from_run_stats(&run_sssp(&dg, 0, &cfg, &model).stats, "simulated"),
        trace,
    );
    assert!(sim.diff(&thr).is_empty(), "{:?}", sim.diff(&thr));

    // Edgeless multi-vertex graph: everything except the root unreached.
    let mut el = gen::path(1, 1);
    el.n = 4;
    let g = CsrBuilder::new().build(&el);
    let dg = Arc::new(DistGraph::build(&g, 3, 1));
    let (out, thr) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
    assert_eq!(out.distances[0], 0);
    assert!(out.distances[1..].iter().all(|&d| d == u64::MAX));
    let sim = RunTrace::from_run_stats(&run_sssp(&dg, 0, &cfg, &model).stats, "simulated");
    assert!(sim.diff(&thr).is_empty(), "{:?}", sim.diff(&thr));

    // Disconnected pair: the far component stays unreached but the trace
    // still matches the simulated run.
    let mut el = gen::path(2, 5);
    el.n = 4;
    el.push(2, 3, 1);
    let g = CsrBuilder::new().build(&el);
    let dg = Arc::new(DistGraph::build(&g, 3, 1));
    let cfg = SsspConfig::del(4);
    let (out, thr) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
    assert_eq!(out.distances, vec![0, 5, u64::MAX, u64::MAX]);
    let sim = RunTrace::from_run_stats(&run_sssp(&dg, 0, &cfg, &model).stats, "simulated");
    assert!(sim.diff(&thr).is_empty(), "{:?}", sim.diff(&thr));
}

#[test]
fn tracing_is_invisible_to_results() {
    // The recorder only observes; traced and untraced threaded runs must
    // agree on distances and transport counters exactly.
    let g = bench_graph();
    let dg = Arc::new(DistGraph::build(&g, 4, 2));
    let model = MachineModel::bgq_like();
    for cfg in trace_matrix() {
        let plain = threaded_delta_stepping(&dg, 0, &cfg, &model);
        let (traced, trace) = threaded_delta_stepping_traced(&dg, 0, &cfg, &model);
        assert_eq!(plain.distances, traced.distances, "cfg {cfg:?}");
        assert_eq!(
            plain.relax_local_msgs, traced.relax_local_msgs,
            "cfg {cfg:?}"
        );
        assert_eq!(
            plain.relax_remote_msgs, traced.relax_remote_msgs,
            "cfg {cfg:?}"
        );
        assert_eq!(plain.coalesced_msgs, traced.coalesced_msgs, "cfg {cfg:?}");
        assert_eq!(
            trace.local_msgs + trace.remote_msgs,
            traced.relax_msgs_total() + trace_request_msgs(&trace),
            "trace totals must cover relax traffic plus pull requests (cfg {cfg:?})"
        );
    }
}

/// Request messages are part of the trace totals but not of the output's
/// relax counters; recover them from the per-bucket request counts.
fn trace_request_msgs(trace: &RunTrace) -> u64 {
    trace.buckets.iter().map(|b| b.requests).sum()
}

#[test]
fn empty_seeds_and_empty_graphs_trace_empty_on_both_transports() {
    // A query with nothing to settle must come back all-INF with an empty
    // trace on either transport — the per-process trace merge has a trace
    // per process even when no epoch ever ran.
    let model = MachineModel::bgq_like();
    let cfg = SsspConfig::opt(25);
    let empty = CsrBuilder::new().build(&sssp_graph::EdgeList::new(0));
    for (g, p) in [(bench_graph(), 1usize), (bench_graph(), 4), (empty, 3)] {
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let stats = RunStats::for_run(&dg, Some(&model));
        let query = Query::default();
        let (sim, sim_rec) = run(dg.as_ref(), &query, &cfg, &model, Lockstep, stats.clone());
        let mut scratch = EngineScratch::new(p);
        let (thr, thr_rec) = run(&dg, &query, &cfg, &model, Threaded(&mut scratch), stats);
        assert_eq!((sim_rec.len(), thr_rec.len()), (1, p));
        let traces = [
            (sim, merged_trace(&sim_rec, "simulated")),
            (thr, merged_trace(&thr_rec, "threaded")),
        ];
        for (out, trace) in traces {
            let backend = &trace.backend;
            assert_eq!(out.distances.len(), g.num_vertices(), "{backend} p {p}");
            assert!(
                out.distances.iter().all(|&d| d == u64::MAX),
                "{backend} p {p}"
            );
            assert!(
                trace.phases.is_empty() && trace.buckets.is_empty(),
                "{backend} p {p}"
            );
            assert_eq!((trace.supersteps, trace.tail), (0, None), "{backend} p {p}");
        }
    }
}

#[test]
fn sub_phase_spans_attribute_the_wall_clock_per_rank() {
    use sssp_core::SubPhase;
    let g = bench_graph();
    // `pack` times the `(target, nd)` sort of the lane path only; with
    // coalescing on, the tables emit inside the send fan-out (`scan`).
    for coalescing in [true, false] {
        let cfg = SsspConfig::opt(25).with_coalescing(coalescing);
        let (sim, thr) = traces_for(&g, 4, &cfg);
        for sub in SubPhase::ALL {
            let (s, one) = (thr.spans.get(sub), sim.spans.get(sub));
            if coalescing && sub == SubPhase::Pack {
                assert_eq!(
                    (s, one),
                    Default::default(),
                    "{sub:?} timed under coalescing"
                );
                continue;
            }
            assert!(
                s.min_ns <= s.median_ns && s.median_ns <= s.max_ns,
                "{sub:?}: {s:?}"
            );
            assert!(s.min_ns > 0, "{sub:?} never timed on some rank: {s:?}");
            // One lockstep process drives every rank: nothing to spread over.
            assert!(
                one.min_ns > 0 && one.min_ns == one.max_ns,
                "{sub:?}: {one:?}"
            );
        }
    }
}
