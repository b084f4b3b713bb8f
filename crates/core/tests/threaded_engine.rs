//! Differential property tests pinning the real-thread engine to the
//! simulated one: over random graphs, partitions and roots, every
//! configuration must produce bit-identical distances on both backends.
//! This is the evidence that the shared rank-local kernels plus the
//! source-ordered channel delivery reproduce the simulator's semantics
//! exactly — and that sender-side coalescing is invisible to results.

use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, LongPhaseMode, SsspConfig};
use sssp_core::{
    run, seq, threaded_delta_stepping, EngineScratch, Lockstep, NoopRecorder, Query, RunOutput,
    RunStats, Threaded,
};
use sssp_dist::DistGraph;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{gen, Csr, CsrBuilder};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..60, 0usize..250, 1u32..60, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

/// Case count: the proptest default here is 32, but the nightly
/// ThreadSanitizer job dials it down via `PROPTEST_CASES` (TSan
/// instrumentation costs ~10x); `with_cases` would otherwise ignore the
/// environment.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

/// The configuration matrix the differential runs sweep: Δ at both
/// extremes and in between, each direction policy (including a forced
/// sequence), the hybrid tail on and off, and coalescing off.
fn config_matrix() -> Vec<SsspConfig> {
    vec![
        SsspConfig::dijkstra(),
        SsspConfig::prune(20),
        SsspConfig::bellman_ford(),
        SsspConfig::del(15).with_direction(DirectionPolicy::AlwaysPush),
        SsspConfig::prune(15).with_direction(DirectionPolicy::AlwaysPull),
        SsspConfig::opt(20),
        SsspConfig::prune(20).with_direction(DirectionPolicy::Forced(vec![
            LongPhaseMode::Push,
            LongPhaseMode::Pull,
            LongPhaseMode::Push,
        ])),
        SsspConfig::opt(20).with_coalescing(false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn threaded_distances_match_simulated(
        g in arb_graph(),
        p in 1usize..7,
        root_pick in any::<prop::sample::Index>(),
    ) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        for cfg in config_matrix() {
            let (simulated, _) = traced_lockstep(&dg, root, &cfg, &model);
            let threaded = threaded_delta_stepping(&dg, root, &cfg, &model);
            let at = format!("p = {p}, cfg = {cfg:?}");
            prop_assert_eq!(&threaded.distances, &simulated.distances, "{}", &at);
            // The untraced decision may stop at its push bound; the traced
            // one always reduces the exact estimate. Same choices, so the
            // same epochs and the same messages.
            prop_assert_eq!(threaded.epochs, simulated.epochs, "{}", &at);
            prop_assert_eq!(relax_counters(&threaded), relax_counters(&simulated), "{}", &at);
        }
    }

    #[test]
    fn threaded_coalescing_is_invisible_to_distances(
        g in arb_graph(),
        delta in 1u32..60,
        p in 1usize..7,
        root_pick in any::<prop::sample::Index>(),
    ) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        let cfg = SsspConfig::opt(delta);
        let on = threaded_delta_stepping(&dg, root, &cfg, &model);
        let off = threaded_delta_stepping(&dg, root, &cfg.clone().with_coalescing(false), &model);
        prop_assert_eq!(&on.distances, &off.distances);
        prop_assert_eq!(off.coalesced_msgs, 0);
        // Message conservation: dropped + delivered under coalescing equals
        // delivered without it, with rank-local and wire messages counted
        // separately on both sides.
        prop_assert_eq!(
            on.relax_local_msgs + on.relax_remote_msgs + on.coalesced_msgs,
            off.relax_local_msgs + off.relax_remote_msgs
        );
    }

    #[test]
    fn threaded_runs_are_deterministic(
        g in arb_graph(),
        root_pick in any::<prop::sample::Index>(),
    ) {
        // True concurrency must not leak into results: with six racing
        // rank threads, repeat runs agree on distances and wire counts.
        let root = root_pick.index(g.num_vertices()) as u32;
        let dg = Arc::new(DistGraph::build(&g, 6, 1));
        let model = MachineModel::bgq_like();
        let a = threaded_delta_stepping(&dg, root, &SsspConfig::opt(25), &model);
        for _ in 0..3 {
            let b = threaded_delta_stepping(&dg, root, &SsspConfig::opt(25), &model);
            prop_assert_eq!(&b.distances, &a.distances);
            prop_assert_eq!(b.relax_local_msgs, a.relax_local_msgs);
            prop_assert_eq!(b.relax_remote_msgs, a.relax_remote_msgs);
            prop_assert_eq!(b.coalesced_msgs, a.coalesced_msgs);
        }
    }
}

/// A traced lockstep run, whose every §III-C decision reduces the exact
/// estimate, and the long-phase mode of each of its recorded buckets.
fn traced_lockstep(
    dg: &DistGraph,
    root: u32,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> (RunOutput, Vec<LongPhaseMode>) {
    let stats = RunStats::for_run(dg, Some(model));
    let (out, recorded) = run(dg, &Query::root(root), cfg, model, Lockstep, stats);
    let modes = recorded[0].bucket_records.iter().map(|b| b.mode).collect();
    (out, modes)
}

#[test]
fn untraced_threaded_decisions_match_traced_lockstep_on_rmat() {
    // Untraced, a decision whose unreached-mass bound already picks push
    // skips the exact pull estimate. On RMAT-2 the heuristic picks pull in
    // some buckets and push in others, so a bound that took push where the
    // full estimate takes pull would move the epochs or the relax counters.
    let rmat = RmatGenerator::new(RmatParams::RMAT2, 12, 16)
        .seed(1)
        .generate_weighted(255);
    let g = CsrBuilder::new().build(&rmat);
    let dg = Arc::new(DistGraph::build(&g, 2, 2));
    let model = MachineModel::bgq_like();
    let (mut pulls, mut pushes) = (0, 0);
    for cfg in config_matrix() {
        let (traced, modes) = traced_lockstep(&dg, 0, &cfg, &model);
        let threaded = threaded_delta_stepping(&dg, 0, &cfg, &model);
        assert_eq!(threaded.distances, traced.distances, "{cfg:?}");
        assert_eq!(threaded.epochs, traced.epochs, "{cfg:?}");
        assert_eq!(
            relax_counters(&threaded),
            relax_counters(&traced),
            "{cfg:?}"
        );
        if cfg.direction == DirectionPolicy::Heuristic {
            pulls += modes.iter().filter(|&&m| m == LongPhaseMode::Pull).count();
            pushes += modes.iter().filter(|&&m| m == LongPhaseMode::Push).count();
        }
    }
    assert!(
        pulls > 0 && pushes > 0,
        "pull buckets {pulls}, push buckets {pushes}"
    );
}

/// The three relax counters of a run.
fn relax_counters(out: &RunOutput) -> [u64; 3] {
    [
        out.relax_local_msgs,
        out.relax_remote_msgs,
        out.coalesced_msgs,
    ]
}

#[test]
fn fold_and_lane_paths_agree_message_for_message() {
    // Coalescing folds every proposal into a per-destination table at the
    // send site; the lane path ships every proposal whole. At 64 lockstep
    // ranks several ranks share one table set in turn.
    let rmat = RmatGenerator::new(RmatParams::RMAT2, 10, 16)
        .seed(1)
        .generate_weighted(255);
    let graphs = [
        ("RMAT-2 scale 10", CsrBuilder::new().build(&rmat)),
        ("32² grid", CsrBuilder::new().build(&gen::grid(32, 255, 7))),
    ];
    let configs = [
        SsspConfig::opt(25),
        SsspConfig::prune(25).with_direction(DirectionPolicy::AlwaysPull),
        SsspConfig::del(25).with_direction(DirectionPolicy::AlwaysPush),
    ];
    let model = MachineModel::bgq_like();
    for (name, g) in &graphs {
        let expect = seq::dijkstra_radix(g, 0);
        for p in [3usize, 8, 64] {
            let dg = Arc::new(DistGraph::build(g, p, 2));
            for cfg in &configs {
                let at = format!("{name}, p {p}, cfg {cfg:?}");
                let lockstep = |cfg: &SsspConfig| {
                    run(
                        dg.as_ref(),
                        &Query::root(0),
                        cfg,
                        &model,
                        Lockstep,
                        NoopRecorder,
                    )
                    .0
                };
                let fold = lockstep(cfg);
                let lanes = lockstep(&cfg.clone().with_coalescing(false));
                assert_eq!(fold.distances, expect, "fold, {at}");
                assert_eq!(lanes.distances, expect, "lanes, {at}");
                assert_eq!(lanes.coalesced_msgs, 0, "{at}");
                assert_eq!(
                    relax_counters(&fold).iter().sum::<u64>(),
                    lanes.relax_msgs_total(),
                    "{at}"
                );
                if p == 3 {
                    let mut scratch = EngineScratch::new(p);
                    let query = Query::root(0);
                    let threaded = run(
                        &dg,
                        &query,
                        cfg,
                        &model,
                        Threaded(&mut scratch),
                        NoopRecorder,
                    )
                    .0;
                    assert_eq!(threaded.distances, expect, "threaded, {at}");
                    assert_eq!(relax_counters(&threaded), relax_counters(&fold), "{at}");
                }
            }
        }
    }
}
