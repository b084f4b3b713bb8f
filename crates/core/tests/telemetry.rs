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
use sssp_core::instrument::{BucketRecord, PhaseKind, PhaseRecord};
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
    let trace_sim = RunTrace::from_run_stats(&simulated.stats);
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

/// A bucket record from `bucket`, `mode` and its twelve counters in
/// declaration order: settled, est_push, est_pull, self / backward /
/// forward edges, requests, responses, supersteps, then local, remote and
/// coalesced messages.
fn bucket_record(bucket: u64, mode: LongPhaseMode, counts: [u64; 12]) -> BucketRecord {
    let [settled, est_push, est_pull, self_edges, backward_edges, forward_edges, requests, responses, supersteps, local_msgs, remote_msgs, coalesced_msgs] =
        counts;
    BucketRecord {
        bucket,
        settled,
        mode,
        est_push,
        est_pull,
        self_edges,
        backward_edges,
        forward_edges,
        requests,
        responses,
        supersteps,
        local_msgs,
        remote_msgs,
        coalesced_msgs,
    }
}

/// Run `cfg` threaded on the bench graph at p = 4, two threads per rank,
/// from root 0, and compare every non-timing field of its trace: the
/// global counters (ranks, supersteps, local, remote, remote bytes,
/// coalesced, per-step send and receive maxima), the hybrid switch, each
/// phase record `(bucket, kind, relaxations, remote_msgs)` and each bucket
/// and tail record.
fn check_captured(
    cfg: SsspConfig,
    globals: [u64; 8],
    switch: Option<u64>,
    phases: &[(u64, PhaseKind, u64, u64)],
    buckets: &[BucketRecord],
    tail: Option<BucketRecord>,
) {
    let dg = Arc::new(DistGraph::build(&bench_graph(), 4, 2));
    let (_, t) = threaded_delta_stepping_traced(&dg, 0, &cfg, &MachineModel::bgq_like());
    let got = [
        t.ranks as u64,
        t.supersteps,
        t.local_msgs,
        t.remote_msgs,
        t.remote_bytes,
        t.coalesced_msgs,
        t.max_step_send_bytes,
        t.max_step_recv_bytes,
    ];
    assert_eq!(got, globals, "cfg {cfg:?}: global counters");
    assert_eq!(t.hybrid_switch_at, switch, "cfg {cfg:?}");
    let phases: Vec<PhaseRecord> = phases
        .iter()
        .map(|&(bucket, kind, relaxations, remote_msgs)| PhaseRecord {
            bucket,
            kind,
            relaxations,
            remote_msgs,
        })
        .collect();
    assert_eq!(t.phases, phases, "cfg {cfg:?}");
    assert_eq!(t.buckets, buckets, "cfg {cfg:?}");
    assert_eq!(t.tail, tail, "cfg {cfg:?}");
}

#[test]
fn threaded_runs_reproduce_the_captured_trace_counts() {
    // Two threaded traces as first captured from the engine. Any change
    // to what a run does or counts moves them.
    use LongPhaseMode::{Pull, Push};
    use PhaseKind::{LongPull, LongPush, Short};
    const TAIL: u64 = u64::MAX;
    check_captured(
        SsspConfig::opt(25),
        [4, 14, 385, 1102, 17632, 1085, 2112, 2160],
        Some(0),
        &[
            (0, Short, 10, 9),
            (0, Short, 47, 32),
            (0, Short, 122, 81),
            (0, Short, 177, 113),
            (0, Short, 155, 102),
            (0, Short, 129, 78),
            (0, Short, 69, 46),
            (0, Short, 23, 18),
            (0, Short, 3, 3),
            (0, Short, 2, 1),
            (0, LongPush, 1684, 518),
            (TAIL, Short, 130, 89),
            (TAIL, Short, 21, 12),
            (TAIL, LongPush, 0, 0),
        ],
        &[bucket_record(
            0,
            Push,
            [186, 1684, 128, 639, 0, 51, 0, 0, 11, 344, 1001, 1076],
        )],
        Some(bucket_record(
            TAIL,
            Push,
            [14, 0, 0, 0, 0, 0, 0, 0, 3, 41, 101, 9],
        )),
    );
    check_captured(
        SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull),
        [4, 21, 313, 858, 13728, 148, 1200, 1040],
        None,
        &[
            (0, Short, 9, 8),
            (0, Short, 22, 17),
            (0, Short, 38, 21),
            (0, Short, 40, 29),
            (0, Short, 38, 25),
            (0, Short, 32, 17),
            (0, Short, 13, 6),
            (0, Short, 1, 0),
            (0, LongPull, 706, 459),
            (1, Short, 233, 155),
            (1, Short, 49, 36),
            (1, Short, 10, 3),
            (1, LongPull, 124, 78),
            (2, Short, 4, 4),
            (2, LongPull, 0, 0),
        ],
        &[
            bucket_record(0, Pull, [96, 0, 0, 0, 0, 0, 295, 136, 11, 222, 582, 95]),
            bucket_record(1, Pull, [101, 0, 0, 0, 0, 0, 0, 0, 6, 91, 272, 53]),
            bucket_record(2, Pull, [3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 4, 0]),
        ],
        None,
    );
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
        for (transport, trace) in [("lockstep", sim), ("threaded", thr)] {
            let got: Vec<_> = trace
                .buckets
                .iter()
                .map(|b| (b.est_push, b.est_pull, b.mode))
                .collect();
            assert_eq!(got, want, "{transport} transport, cfg {cfg:?}");
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
        RunTrace::from_run_stats(&run_sssp(&dg, 0, &cfg, &model).stats),
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
    let sim = RunTrace::from_run_stats(&run_sssp(&dg, 0, &cfg, &model).stats);
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
    let sim = RunTrace::from_run_stats(&run_sssp(&dg, 0, &cfg, &model).stats);
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
            ("lockstep", sim, merged_trace(&sim_rec)),
            ("threaded", thr, merged_trace(&thr_rec)),
        ];
        for (backend, out, trace) in traces {
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
