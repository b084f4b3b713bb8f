//! Property-based correctness of the distributed engine: every
//! configuration, over random graphs, partitions and roots, must agree with
//! sequential Dijkstra and satisfy the SSSP certificate (triangle
//! inequality over every edge).

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, IntraBalance, LongPhaseMode, SsspConfig};
use sssp_core::engine::run_sssp;
use sssp_core::seq;
use sssp_core::state::INF;
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..60, 0usize..250, 1u32..60, 0u64..1000)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

fn check_matches(g: &Csr, root: u32, cfg: &SsspConfig, p: usize) -> Result<(), TestCaseError> {
    let dg = DistGraph::build(g, p, 2);
    let out = run_sssp(&dg, root, cfg, &MachineModel::bgq_like());
    let expect = seq::dijkstra(g, root);
    prop_assert_eq!(&out.distances, &expect);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn del_matches_dijkstra(g in arb_graph(), delta in 1u32..80, p in 1usize..7, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        check_matches(&g, root, &SsspConfig::del(delta), p)?;
    }

    #[test]
    fn opt_matches_dijkstra(g in arb_graph(), delta in 1u32..80, p in 1usize..7, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        check_matches(&g, root, &SsspConfig::opt(delta), p)?;
    }

    #[test]
    fn lb_opt_matches_dijkstra(g in arb_graph(), delta in 1u32..40, p in 1usize..7, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        check_matches(&g, root, &SsspConfig::lb_opt(delta).with_intra_balance(IntraBalance::Threshold(4)), p)?;
    }

    #[test]
    fn bellman_ford_matches_dijkstra(g in arb_graph(), p in 1usize..7, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        check_matches(&g, root, &SsspConfig::bellman_ford(), p)?;
    }

    #[test]
    fn forced_decision_sequences_match(
        g in arb_graph(),
        delta in 2u32..50,
        p in 1usize..5,
        decisions in proptest::collection::vec(any::<bool>(), 0..20),
    ) {
        let seq_modes: Vec<LongPhaseMode> = decisions
            .into_iter()
            .map(|pull| if pull { LongPhaseMode::Pull } else { LongPhaseMode::Push })
            .collect();
        let cfg = SsspConfig::prune(delta).with_direction(DirectionPolicy::Forced(seq_modes));
        check_matches(&g, 0, &cfg, p)?;
    }

    #[test]
    fn certificate_holds_on_every_edge(g in arb_graph(), delta in 1u32..60, p in 1usize..6) {
        // SSSP certificate: d(root) = 0; for every edge {u, v},
        // d(v) ≤ d(u) + w; and every finite-distance vertex other than the
        // root has a tight incoming edge.
        let dg = DistGraph::build(&g, p, 2);
        let out = run_sssp(&dg, 0, &SsspConfig::opt(delta), &MachineModel::bgq_like());
        prop_assert_eq!(out.distances[0], 0);
        for (u, v, w) in g.undirected_edges() {
            let du = out.distances[u as usize];
            let dv = out.distances[v as usize];
            if du != INF {
                prop_assert!(dv <= du.saturating_add(w as u64));
            }
            if dv != INF {
                prop_assert!(du <= dv.saturating_add(w as u64));
            }
        }
        for v in g.vertices().skip_while(|&v| v == 0) {
            let dv = out.distances[v as usize];
            if v != 0 && dv != INF && dv != 0 {
                let tight = g
                    .row(v)
                    .any(|(u, w)| out.distances[u as usize].saturating_add(w as u64) == dv);
                prop_assert!(tight, "vertex {} has no tight predecessor", v);
            }
        }
    }

    #[test]
    fn split_then_solve_preserves_distances(
        g in arb_graph(),
        thr in 3usize..20,
        p in 1usize..6,
    ) {
        let (split, part, _) = sssp_dist::split_heavy_vertices(&g, p, thr);
        let dg = DistGraph::build_with_partition(&split, part, 2, g.num_undirected_edges() as u64);
        let out = run_sssp(&dg, 0, &SsspConfig::opt(20), &MachineModel::bgq_like());
        let expect = seq::dijkstra(&g, 0);
        prop_assert_eq!(&out.distances[..g.num_vertices()], &expect[..]);
    }

    #[test]
    fn runs_are_deterministic(g in arb_graph(), p in 1usize..6) {
        let dg = DistGraph::build(&g, p, 2);
        let model = MachineModel::bgq_like();
        let a = run_sssp(&dg, 0, &SsspConfig::opt(25), &model);
        let b = run_sssp(&dg, 0, &SsspConfig::opt(25), &model);
        prop_assert_eq!(a.distances, b.distances);
        prop_assert_eq!(a.stats.relaxations_total(), b.stats.relaxations_total());
        prop_assert_eq!(a.stats.phases, b.stats.phases);
        prop_assert_eq!(a.stats.comm.total_msgs(), b.stats.comm.total_msgs());
    }

    #[test]
    fn rank_count_does_not_change_results(g in arb_graph(), delta in 1u32..60) {
        let model = MachineModel::bgq_like();
        let reference = {
            let dg = DistGraph::build(&g, 1, 1);
            run_sssp(&dg, 0, &SsspConfig::prune(delta), &model).distances
        };
        for p in [2usize, 3, 8] {
            let dg = DistGraph::build(&g, p, 2);
            let out = run_sssp(&dg, 0, &SsspConfig::prune(delta), &model);
            prop_assert_eq!(&out.distances, &reference, "p = {}", p);
        }
    }

    #[test]
    fn seq_delta_stepping_matches_dijkstra(g in arb_graph(), delta in 1u32..80, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let (d, _) = seq::delta_stepping(&g, root, delta);
        prop_assert_eq!(d, seq::dijkstra(&g, root));
    }

    #[test]
    fn seq_bellman_ford_matches_dijkstra(g in arb_graph(), root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let (d, rounds) = seq::bellman_ford(&g, root);
        prop_assert_eq!(d, seq::dijkstra(&g, root));
        prop_assert!(rounds <= g.num_vertices() as u64 + 1);
    }

    #[test]
    fn coalescing_never_changes_results(g in arb_graph(), delta in 1u32..60, p in 1usize..6) {
        // Sender-side coalescing keeps only the minimum proposal per
        // (target, distance) key ahead of each exchange. Relaxation is an
        // idempotent min-reduction, so distances, phase structure and
        // superstep counts are all unaffected — only delivered-message
        // totals shrink, by exactly the recorded saving.
        let dg = DistGraph::build(&g, p, 2);
        let model = MachineModel::bgq_like();
        let on = run_sssp(&dg, 0, &SsspConfig::opt(delta), &model);
        let off = run_sssp(&dg, 0, &SsspConfig::opt(delta).with_coalescing(false), &model);
        prop_assert_eq!(&on.distances, &off.distances);
        prop_assert_eq!(on.stats.phases, off.stats.phases);
        prop_assert_eq!(on.stats.comm.num_supersteps(), off.stats.comm.num_supersteps());
        prop_assert_eq!(off.stats.comm.total_coalesced_msgs(), 0);
        prop_assert_eq!(
            on.stats.comm.total_msgs() + on.stats.comm.total_coalesced_msgs(),
            off.stats.comm.total_msgs()
        );
    }
}
