//! Differential suite for the pluggable stepping-policy engine: the
//! Δ-stepping, ρ-stepping and radius-stepping policies must all produce
//! distances bit-identical to sequential Dijkstra (radix variant) on
//! BOTH backends — including unreachable vertices, single-vertex
//! graphs, multi-seed starts with duplicates, empty seed lists, and the
//! Δ = 1 / maximal-weight epoch-sentinel edge case.

use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, PullEstimator, SsspConfig};
use sssp_core::engine::run_sssp;
use sssp_core::seq;
use sssp_core::state::INF;
use sssp_core::{
    run, threaded_delta_stepping, threaded_sssp_query, EngineScratch, Lockstep, NoopRecorder,
    Query, RunOutput,
};
use sssp_dist::DistGraph;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{gen, Csr, CsrBuilder, EdgeList};

/// A seeded run on the lockstep transport.
fn run_sssp_seeded(
    dg: &DistGraph,
    seeds: &[(u32, u64)],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> RunOutput {
    run(
        dg,
        &Query::seeded(seeds),
        cfg,
        model,
        Lockstep,
        NoopRecorder,
    )
    .0
}

/// The same run on the threaded transport, fresh scratch.
fn threaded_sssp_seeded(
    dg: &Arc<DistGraph>,
    seeds: &[(u32, u64)],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> RunOutput {
    let mut scratch = EngineScratch::new(dg.num_ranks());
    threaded_sssp_query(dg, seeds, None, cfg, model, &mut scratch)
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..60, 0usize..250, 1u32..60, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

/// Nightly TSan runs dial proptest down via `PROPTEST_CASES`; honor it
/// like the other threaded differential suites do.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One configuration per stepping policy, with parameters small enough
/// that the window policies actually split the tiny proptest graphs
/// into several epochs instead of swallowing them whole.
fn policy_matrix() -> Vec<SsspConfig> {
    vec![
        SsspConfig::del(13),
        SsspConfig::opt(20),
        SsspConfig::rho(8),
        SsspConfig::rho(64),
        SsspConfig::radius(1),
        SsspConfig::radius(4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    #[test]
    fn every_policy_matches_dijkstra_radix_on_both_backends(
        g in arb_graph(),
        p in 1usize..7,
        root_pick in any::<prop::sample::Index>(),
    ) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let expect = seq::dijkstra_radix(&g, root);
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        for cfg in policy_matrix() {
            let simulated = run_sssp(&dg, root, &cfg, &model);
            prop_assert_eq!(
                &simulated.distances, &expect,
                "simulated backend, p = {}, cfg = {:?}", p, &cfg
            );
            let threaded = threaded_delta_stepping(&dg, root, &cfg, &model);
            prop_assert_eq!(
                &threaded.distances, &expect,
                "threaded backend, p = {}, cfg = {:?}", p, &cfg
            );
        }
    }

    #[test]
    fn multi_seed_runs_agree_across_backends(
        g in arb_graph(),
        p in 1usize..6,
        seeds in proptest::collection::vec((any::<prop::sample::Index>(), 0u64..500), 1..5),
    ) {
        let seed_list: Vec<(u32, u64)> = seeds
            .into_iter()
            .map(|(ix, d)| (ix.index(g.num_vertices()) as u32, d))
            .collect();
        // A duplicate of the first seed at a strictly larger distance
        // must be invisible: per-vertex min wins on both backends.
        let mut with_dup = seed_list.clone();
        with_dup.push((seed_list[0].0, seed_list[0].1 + 7));
        let dg = Arc::new(DistGraph::build(&g, p, 2));
        let model = MachineModel::bgq_like();
        for cfg in policy_matrix() {
            let simulated = run_sssp_seeded(&dg, &seed_list, &cfg, &model);
            let threaded = threaded_sssp_seeded(&dg, &seed_list, &cfg, &model);
            prop_assert_eq!(
                &threaded.distances, &simulated.distances,
                "p = {}, cfg = {:?}", p, &cfg
            );
            let sim_dup = run_sssp_seeded(&dg, &with_dup, &cfg, &model);
            let thr_dup = threaded_sssp_seeded(&dg, &with_dup, &cfg, &model);
            prop_assert_eq!(&sim_dup.distances, &simulated.distances);
            prop_assert_eq!(&thr_dup.distances, &simulated.distances);
        }
    }
}

#[test]
fn empty_seed_list_yields_all_inf_on_both_backends() {
    let g = CsrBuilder::new().build(&gen::uniform(20, 60, 30, 7));
    let dg = Arc::new(DistGraph::build(&g, 3, 2));
    let model = MachineModel::bgq_like();
    for cfg in policy_matrix() {
        let simulated = run_sssp_seeded(&dg, &[], &cfg, &model);
        assert!(
            simulated.distances.iter().all(|&d| d == INF),
            "simulated, cfg = {cfg:?}"
        );
        let threaded = threaded_sssp_seeded(&dg, &[], &cfg, &model);
        assert_eq!(threaded.distances, simulated.distances, "cfg = {cfg:?}");
    }
}

#[test]
fn single_vertex_graph_settles_its_root_under_every_policy() {
    let g = CsrBuilder::new().build(&gen::uniform(1, 0, 1, 0));
    let dg = Arc::new(DistGraph::build(&g, 2, 1));
    let model = MachineModel::bgq_like();
    for cfg in policy_matrix() {
        let simulated = run_sssp(&dg, 0, &cfg, &model);
        assert_eq!(simulated.distances, vec![0], "simulated, cfg = {cfg:?}");
        let threaded = threaded_delta_stepping(&dg, 0, &cfg, &model);
        assert_eq!(threaded.distances, vec![0], "threaded, cfg = {cfg:?}");
    }
}

#[test]
fn unreachable_vertices_stay_inf_under_every_policy() {
    // Two components: {0, 1} and {2, 3}; root 0 never reaches the second.
    let mut el = EdgeList::new(4);
    el.push(0, 1, 3);
    el.push(2, 3, 5);
    let g = CsrBuilder::new().build(&el);
    let expect = seq::dijkstra_radix(&g, 0);
    assert_eq!(expect[2], INF);
    assert_eq!(expect[3], INF);
    let dg = Arc::new(DistGraph::build(&g, 3, 1));
    let model = MachineModel::bgq_like();
    for cfg in policy_matrix() {
        let simulated = run_sssp(&dg, 0, &cfg, &model);
        assert_eq!(simulated.distances, expect, "simulated, cfg = {cfg:?}");
        let threaded = threaded_delta_stepping(&dg, 0, &cfg, &model);
        assert_eq!(threaded.distances, expect, "threaded, cfg = {cfg:?}");
    }
}

#[test]
fn delta_one_with_maximal_weights_terminates_past_the_epoch_sentinel() {
    // Regression for the `bucket_of` epoch-sentinel fix: under Δ = 1 the
    // bucket index IS the distance, so a seed at `u64::MAX - 1` lands in
    // the last representable bucket, one below the `u64::MAX` "no bucket
    // left" sentinel of the epoch-selection collective. Before the cap,
    // such a bucket index could collide with the sentinel and the run
    // would terminate early, leaving the vertex unsettled. Maximal
    // `u32::MAX` edge weights stress the same arithmetic on the reachable
    // component, and the prune/opt configurations run the §III-C push/pull
    // heuristic on them with both pull estimators. Vertex 3 is isolated so
    // no `d + w` is ever computed from the near-maximal seed distance.
    let mut el = EdgeList::new(4);
    el.push(0, 1, u32::MAX);
    el.push(1, 2, u32::MAX);
    let g = CsrBuilder::new().build(&el);
    let seeds: &[(u32, u64)] = &[(0, 0), (3, u64::MAX - 1)];
    let expect = vec![0, u32::MAX as u64, 2 * (u32::MAX as u64), u64::MAX - 1];
    let model = MachineModel::bgq_like();
    for p in [1usize, 2, 4] {
        let dg = Arc::new(DistGraph::build(&g, p, 1));
        for cfg in [
            SsspConfig::del(1),
            SsspConfig::rho(2),
            SsspConfig::radius(1),
            SsspConfig::prune(1),
            SsspConfig::prune(1).with_pull_estimator(PullEstimator::Expectation),
            SsspConfig::opt(1).with_pull_estimator(PullEstimator::Expectation),
        ] {
            let simulated = run_sssp_seeded(&dg, seeds, &cfg, &model);
            assert_eq!(
                simulated.distances, expect,
                "simulated, p = {p}, cfg = {cfg:?}"
            );
            let threaded = threaded_sssp_seeded(&dg, seeds, &cfg, &model);
            assert_eq!(
                threaded.distances, expect,
                "threaded, p = {p}, cfg = {cfg:?}"
            );
        }
    }
}

#[test]
fn maximal_weights_from_the_largest_seed_offset_do_not_wrap() {
    // The headroom `max_seed_offset` promises: a path of `u32::MAX` edges
    // seeded at the bound reaches `u64::MAX − u32::MAX` at its far end, and
    // every `d + w` along the way — pushed or answered to a pull — stays
    // in range (debug builds assert it at both kernel sites).
    let n = 6;
    let g = CsrBuilder::new().build(&gen::path(n, u32::MAX));
    let offset = sssp_core::max_seed_offset(n);
    let expect: Vec<u64> = (0..n as u64)
        .map(|i| offset + i * u64::from(u32::MAX))
        .collect();
    assert_eq!(expect[n - 1], u64::MAX - u64::from(u32::MAX));
    let model = MachineModel::bgq_like();
    for p in [1usize, 2, 3] {
        let dg = Arc::new(DistGraph::build(&g, p, 1));
        for cfg in [
            SsspConfig::opt(25),
            SsspConfig::prune(25).with_direction(DirectionPolicy::AlwaysPull),
            SsspConfig::del(1),
            SsspConfig::radius(1),
        ] {
            let seeds = &[(0, offset)];
            let simulated = run_sssp_seeded(&dg, seeds, &cfg, &model);
            assert_eq!(
                simulated.distances, expect,
                "simulated, p = {p}, cfg = {cfg:?}"
            );
            let threaded = threaded_sssp_seeded(&dg, seeds, &cfg, &model);
            assert_eq!(
                threaded.distances, expect,
                "threaded, p = {p}, cfg = {cfg:?}"
            );
        }
    }
}

#[test]
fn hybrid_tail_windows_match_dijkstra_radix_on_both_backends() {
    // τ from "switch after the first epoch" to "never", on a grid, on
    // RMAT-2 and on a graph whose every weight lies in [Δ, 2Δ): no edge is
    // short at the policy's Δ, but every edge is short in a tail window of
    // two or more buckets, so the tail must not skip its short stage.
    const DELTA: u32 = 25;
    let rmat = RmatGenerator::new(RmatParams::RMAT2, 10, 16)
        .seed(1)
        .generate_weighted(255);
    let mut banded = gen::uniform(400, 1600, DELTA, 5);
    for e in &mut banded.edges {
        e.w += DELTA - 1;
    }
    let graphs = [
        ("32² grid", gen::grid(32, 255, 1)),
        ("RMAT-2", rmat),
        ("weights in [Δ, 2Δ)", banded),
    ];
    let model = MachineModel::bgq_like();
    for (name, el) in graphs {
        let g = CsrBuilder::new().build(&el);
        let root = g.vertices().find(|&v| g.degree(v) > 0).expect("an edge");
        let expect = seq::dijkstra_radix(&g, root);
        let dg = Arc::new(DistGraph::build(&g, 3, 2));
        for tau in [0.0, 0.2, 0.4, 1.0] {
            for cfg in [SsspConfig::lb_opt(DELTA), SsspConfig::rho(16)] {
                let cfg = cfg.with_hybrid(Some(tau));
                let what = format!("{name}, τ = {tau}, {:?}", cfg.policy);
                let simulated = run_sssp(&dg, root, &cfg, &model);
                assert_eq!(simulated.distances, expect, "simulated, {what}");
                let switched = simulated.stats.hybrid_switch_at.is_some();
                assert!(tau > 0.0 || switched, "tail never engaged, {what}");
                assert!(tau < 1.0 || !switched, "τ = 1 engaged, {what}");
                let threaded = threaded_delta_stepping(&dg, root, &cfg, &model);
                assert_eq!(threaded.distances, expect, "threaded, {what}");
            }
        }
    }
}

#[test]
fn rho_stepping_phases_move_with_rho_and_stay_below_bellman_ford() {
    // RMAT-2 scale 14 on 2 ranks × 2 threads: before the window end was
    // bounded by the last reached bucket, every ρ below ran as one
    // unbounded epoch — Bellman-Ford's 24 phases and 2.6 M relaxations.
    let el = RmatGenerator::new(RmatParams::RMAT2, 14, 16)
        .seed(1)
        .generate_weighted(255);
    let g = CsrBuilder::new().build(&el);
    let dg = DistGraph::build(&g, 2, 2);
    let root = sssp_graph::pick_roots(&g, 1, 1)[0];
    let model = MachineModel::bgq_like();
    let runs: Vec<_> = [16, 256, 2048, 65536]
        .into_iter()
        .map(|rho| run_sssp(&dg, root, &SsspConfig::rho(rho), &model).stats)
        .collect();
    let phases: Vec<u64> = runs.iter().map(|s| s.phases).collect();
    assert!(phases.windows(2).all(|w| w[0] >= w[1]), "{phases:?}");
    assert!(
        phases[0] > phases[3],
        "phases do not move with ρ: {phases:?}"
    );
    let bf = run_sssp(&dg, root, &SsspConfig::bellman_ford(), &model).stats;
    assert!(
        runs[0].relaxations_total() < bf.relaxations_total(),
        "ρ = 16: {} relaxations, Bellman-Ford {}",
        runs[0].relaxations_total(),
        bf.relaxations_total()
    );
}
