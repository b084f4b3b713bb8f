//! Property-based tests of the auxiliary kernels (BFS, PageRank, connected
//! components), multi-source SSSP, radius stepping at ρ = 1 (Crauser et
//! al.'s OUT criterion), and Bellman-Ford and CC on rank threads. The full
//! transport differential is `kernel_transports.rs`.

use std::sync::Arc;

use proptest::prelude::*;

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::{run_bfs, seq_bfs};
use sssp_core::cc::{cc_on, run_cc};
use sssp_core::config::SsspConfig;
use sssp_core::engine::run_sssp;
use sssp_core::pagerank::{run_pagerank, seq_pagerank, PageRankConfig};
use sssp_core::{
    run, threaded_delta_stepping, EngineScratch, Lockstep, NoopRecorder, Query, Threaded,
};
use sssp_core::{seq, validate};
use sssp_dist::DistGraph;
use sssp_graph::{gen, Csr, CsrBuilder};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..50, 0usize..200, 1u32..50, 0u64..500)
        .prop_map(|(n, m, w_max, seed)| CsrBuilder::new().build(&gen::uniform(n, m, w_max, seed)))
}

fn model() -> MachineModel {
    MachineModel::bgq_like()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_matches_sequential(g in arb_graph(), p in 1usize..6, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let dg = DistGraph::build(&g, p, 2);
        let out = run_bfs(&dg, root, &model());
        prop_assert_eq!(out.depth, seq_bfs(&g, root));
    }

    #[test]
    fn radius_one_matches_dijkstra(g in arb_graph(), p in 1usize..6, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let dg = DistGraph::build(&g, p, 2);
        let out = run_sssp(&dg, root, &SsspConfig::radius(1), &model());
        prop_assert_eq!(out.distances, seq::dijkstra(&g, root));
    }

    #[test]
    fn radius_one_work_bound(g in arb_graph(), p in 1usize..5) {
        // Every settled vertex relaxes its edges once: Dijkstra's 2m.
        let dg = DistGraph::build(&g, p, 2);
        let out = run_sssp(&dg, 0, &SsspConfig::radius(1), &model());
        prop_assert!(out.stats.relaxations_total() <= g.num_directed_edges() as u64);
    }

    #[test]
    fn pagerank_mass_conserved(g in arb_graph(), p in 1usize..5) {
        let dg = DistGraph::build(&g, p, 2);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        let total: f64 = out.scores.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum = {}", total);
        prop_assert!(out.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn pagerank_rank_count_invariant(g in arb_graph()) {
        let expect = seq_pagerank(&g, &PageRankConfig::default());
        for p in [1usize, 4] {
            let dg = DistGraph::build(&g, p, 2);
            let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
            for (a, b) in out.scores.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn cc_is_a_valid_component_labeling(g in arb_graph(), p in 1usize..6) {
        let dg = DistGraph::build(&g, p, 2);
        let out = run_cc(&dg, &model());
        // Labels constant along edges, and every label is the component's
        // minimum member id (hence a fixed point).
        for (u, v, _) in g.undirected_edges() {
            prop_assert_eq!(out.labels[u as usize], out.labels[v as usize]);
        }
        for v in g.vertices() {
            prop_assert!(out.labels[v as usize] <= v);
        }
    }

    #[test]
    fn multi_source_equals_min_of_singles(
        g in arb_graph(),
        p in 1usize..5,
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let mut sources: Vec<u32> =
            picks.iter().map(|ix| ix.index(g.num_vertices()) as u32).collect();
        sources.sort_unstable();
        sources.dedup();
        let dg = DistGraph::build(&g, p, 2);
        let cfg = SsspConfig::opt(20);
        let query = Query::sources(&sources);
        let (multi, _) = run(&dg, &query, &cfg, &model(), Lockstep, NoopRecorder);
        for (v, &got) in multi.distances.iter().enumerate() {
            let expect = sources
                .iter()
                .map(|&s| seq::dijkstra(&g, s)[v])
                .min()
                .unwrap();
            prop_assert_eq!(got, expect, "vertex {}", v);
        }
    }

    #[test]
    fn parent_tree_always_derivable(g in arb_graph(), p in 1usize..5) {
        let dg = DistGraph::build(&g, p, 2);
        let out = run_sssp(&dg, 0, &SsspConfig::opt(25), &model());
        let parent = validate::build_parent_tree(&g, 0, &out.distances);
        // Every reachable vertex has a path whose length equals its distance.
        for v in g.vertices() {
            if out.distances[v as usize] == u64::MAX {
                prop_assert!(validate::shortest_path(&parent, 0, v).is_none());
            } else {
                let path = validate::shortest_path(&parent, 0, v).unwrap();
                prop_assert_eq!(path[0], 0);
                prop_assert_eq!(*path.last().unwrap(), v);
            }
        }
    }

    #[test]
    fn threaded_bf_agrees_with_reference(g in arb_graph(), p in 1usize..5, root_pick in any::<prop::sample::Index>()) {
        let root = root_pick.index(g.num_vertices()) as u32;
        let dg = Arc::new(DistGraph::build(&g, p, 1));
        let out = threaded_delta_stepping(&dg, root, &SsspConfig::bellman_ford(), &model());
        prop_assert_eq!(out.distances, seq::dijkstra(&g, root));
    }

    #[test]
    fn threaded_cc_agrees_with_simulated(g in arb_graph(), p in 1usize..5) {
        let dg = Arc::new(DistGraph::build(&g, p, 1));
        let sim = run_cc(&dg, &model());
        let mut scratch = EngineScratch::new(p);
        let thr = cc_on(&dg, &model(), None, Threaded(&mut scratch));
        prop_assert_eq!(thr.labels, sim.labels);
    }
}
