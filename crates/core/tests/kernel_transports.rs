//! One differential over the two transports for the SPMD analytics
//! kernels: BFS, connected components and PageRank run on the lockstep
//! simulator and on rank threads at several rank counts, over graphs of
//! different shape, and must agree bit for bit — with each other and with
//! the sequential references.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::{bfs_on, seq_bfs, BfsDirection};
use sssp_core::cc::cc_on;
use sssp_core::pagerank::{pagerank_on, seq_pagerank, PageRankConfig};
use sssp_core::{EngineScratch, Lockstep, Threaded};
use sssp_dist::DistGraph;
use sssp_graph::components::components_union_find;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{gen, CsrBuilder, EdgeList};

/// A scale-free graph whose BFS goes bottom-up, a grid with a long
/// diameter, a graph of several components and isolated vertices, and the
/// empty graph.
fn graphs() -> Vec<(&'static str, EdgeList)> {
    let rmat = RmatGenerator::new(RmatParams::RMAT2, 10, 16)
        .seed(1)
        .generate_weighted(255);
    let mut parts = gen::path(40, 3);
    parts.n = 70;
    for e in gen::clique(8, 2).edges {
        parts.push(e.u + 50, e.v + 50, e.w);
    }
    vec![
        ("rmat2-10", rmat),
        ("grid-32", gen::grid(32, 9, 7)),
        ("disconnected", parts),
        ("empty", EdgeList::new(0)),
    ]
}

/// Labels renumbered by first appearance in vertex order — the form
/// `components_union_find` reports.
fn first_seen(labels: &[u32]) -> Vec<u32> {
    let mut ids = HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = ids.len() as u32;
            *ids.entry(l).or_insert(next)
        })
        .collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn kernels_agree_across_transports() {
    let model = MachineModel::bgq_like();
    let pr = PageRankConfig::default();
    for (name, el) in graphs() {
        let g = CsrBuilder::new().build(&el);
        let n = g.num_vertices();
        let root = g.vertices().find(|&v| g.degree(v) > 0).unwrap_or(0);
        let components = components_union_find(&el);
        let ranks = seq_pagerank(&g, &pr);
        for p in [1usize, 2, 3, 5] {
            let at = format!("{name} p {p}");
            let dg = Arc::new(DistGraph::build(&g, p, 2));
            let mut scratch = EngineScratch::new(p);

            let lock = bfs_on(&*dg, root, &model, None, Lockstep);
            let thr = bfs_on(&dg, root, &model, None, Threaded(&mut scratch));
            assert_eq!(lock.depth, thr.depth, "{at}");
            assert_eq!(lock.stats.levels, thr.stats.levels, "{at}");
            assert!(!lock.timed_out && !thr.timed_out, "{at}");
            if n > 0 {
                assert_eq!(lock.depth, seq_bfs(&g, root), "{at}");
            }
            if name == "rmat2-10" {
                let dirs = lock.stats.levels.iter().map(|l| l.direction);
                assert!(dirs.clone().any(|d| d == BfsDirection::BottomUp), "{at}");
                assert!(dirs.clone().any(|d| d == BfsDirection::TopDown), "{at}");
            }

            let lock = cc_on(&*dg, &model, None, Lockstep);
            let thr = cc_on(&dg, &model, None, Threaded(&mut scratch));
            assert_eq!(lock.labels, thr.labels, "{at}");
            assert_eq!(lock.rounds, thr.rounds, "{at}");
            assert_eq!(first_seen(&lock.labels), components, "{at}");

            let lock = pagerank_on(&*dg, &pr, &model, None, Lockstep);
            let thr = pagerank_on(&dg, &pr, &model, None, Threaded(&mut scratch));
            assert_eq!(bits(&lock.scores), bits(&thr.scores), "{at}");
            assert_eq!(lock.iterations, thr.iterations, "{at}");
            assert_eq!(lock.converged, thr.converged, "{at}");
            for (v, (a, b)) in lock.scores.iter().zip(&ranks).enumerate() {
                assert!((a - b).abs() <= 1e-8, "{at} v {v}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn an_expired_deadline_stops_every_kernel_on_both_transports() {
    let g = CsrBuilder::new().build(&gen::grid(16, 5, 3));
    let model = MachineModel::bgq_like();
    let pr = PageRankConfig::default();
    let dg = Arc::new(DistGraph::build(&g, 3, 2));
    let mut scratch = EngineScratch::new(3);
    let past = Some(Instant::now());
    let bfs = [
        bfs_on(&*dg, 0, &model, past, Lockstep),
        bfs_on(&dg, 0, &model, past, Threaded(&mut scratch)),
    ];
    for out in bfs {
        assert!(out.timed_out && out.stats.levels.is_empty());
    }
    assert!(cc_on(&*dg, &model, past, Lockstep).timed_out);
    assert!(cc_on(&dg, &model, past, Threaded(&mut scratch)).timed_out);
    assert!(pagerank_on(&*dg, &pr, &model, past, Lockstep).timed_out);
    assert!(pagerank_on(&dg, &pr, &model, past, Threaded(&mut scratch)).timed_out);
}
