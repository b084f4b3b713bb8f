//! Validation-layer tests: mismatch reporting on split graphs (proxy
//! distances ignored, original ids preserved) and a differential check of
//! the real-thread Bellman-Ford kernel against the simulated engine.

use std::sync::Arc;

use sssp_comm::cost::MachineModel;
use sssp_core::seq;
use sssp_core::validate::{check_against_dijkstra, Mismatch};
use sssp_core::{run_sssp, threaded_delta_stepping, SsspConfig};
use sssp_dist::{split_heavy_vertices, DistGraph};
use sssp_graph::{gen, CsrBuilder};

fn model() -> MachineModel {
    MachineModel::bgq_like()
}

#[test]
fn split_run_validates_clean_against_original_graph() {
    let el = gen::uniform(150, 3000, 40, 13);
    let g = CsrBuilder::new().build(&el);
    let (split_csr, part, rep) = split_heavy_vertices(&g, 4, 24);
    assert!(
        rep.proxies_created > 0,
        "test graph should trigger splitting"
    );
    let dg = DistGraph::build_with_partition(&split_csr, part, 4, g.num_undirected_edges() as u64);
    let out = run_sssp(&dg, 0, &SsspConfig::lb_opt(25), &model());

    // The output covers base + proxy vertices; validation only ever looks at
    // the original id range.
    assert_eq!(out.distances.len(), g.num_vertices() + rep.proxies_created);
    assert!(check_against_dijkstra(&g, 0, &out).is_empty());
}

#[test]
fn proxy_distances_are_ignored_by_mismatch_reporting() {
    let el = gen::uniform(120, 2400, 30, 7);
    let g = CsrBuilder::new().build(&el);
    let (split_csr, part, rep) = split_heavy_vertices(&g, 4, 20);
    assert!(rep.proxies_created > 0);
    let dg = DistGraph::build_with_partition(&split_csr, part, 4, g.num_undirected_edges() as u64);
    let mut out = run_sssp(&dg, 0, &SsspConfig::opt(20), &model());

    // Corrupting every proxy distance must not produce a mismatch: proxies
    // are artifacts of the transform, not part of the answer.
    for d in &mut out.distances[g.num_vertices()..] {
        *d = 0xDEAD_BEEF;
    }
    assert!(check_against_dijkstra(&g, 0, &out).is_empty());
}

#[test]
fn mismatches_on_split_graphs_carry_original_ids() {
    let el = gen::uniform(120, 2400, 30, 7);
    let g = CsrBuilder::new().build(&el);
    let (split_csr, part, rep) = split_heavy_vertices(&g, 4, 20);
    assert!(rep.proxies_created > 0);
    let dg = DistGraph::build_with_partition(&split_csr, part, 4, g.num_undirected_edges() as u64);
    let mut out = run_sssp(&dg, 0, &SsspConfig::opt(20), &model());

    // Corrupt one original vertex: the report must name exactly that id
    // (splitting preserves original ids in 0..n) with the right distances.
    let victim = 57u32;
    let expected = seq::dijkstra(&g, 0)[victim as usize];
    out.distances[victim as usize] = expected + 1;
    let mismatches = check_against_dijkstra(&g, 0, &out);
    assert_eq!(
        mismatches,
        vec![Mismatch {
            vertex: victim,
            expected,
            actual: expected + 1
        }]
    );
}

#[test]
fn threaded_bellman_ford_matches_simulated_engine() {
    // Differential test: Bellman-Ford on the rank-thread transport and on
    // the simulated one runs the same BSP program; their answers must be
    // identical on random graphs, including ones with unreachable vertices.
    for seed in [1u64, 2, 3, 11, 42] {
        let n = 60 + (seed as usize % 3) * 17;
        let m = n * 6;
        let el = gen::uniform(n, m, 25, seed);
        let g = CsrBuilder::new().build(&el);
        let dg = Arc::new(DistGraph::build(&g, 4, 2));

        let cfg = SsspConfig::bellman_ford();
        let threaded = threaded_delta_stepping(&dg, 0, &cfg, &model());
        let simulated = run_sssp(&dg, 0, &cfg, &model());
        assert_eq!(threaded.distances, simulated.distances, "seed {seed}");

        // Both must also agree with the sequential reference.
        assert!(
            check_against_dijkstra(&g, 0, &simulated).is_empty(),
            "seed {seed}"
        );
    }
}
