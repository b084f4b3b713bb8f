//! External ids at every API boundary. `DistGraph` stores each rank's
//! vertices hub-first under internal ids; queries, seeds, targets, roots,
//! degrees and every per-vertex output must still speak the input graph's
//! ids. Each check runs on a graph whose stored order is not the identity,
//! at several rank and thread counts, on both transports.

use std::sync::Arc;
use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::{bfs_on, seq_bfs};
use sssp_core::cc::cc_on;
use sssp_core::seq::dijkstra_radix;
use sssp_core::{
    run, EngineScratch, Lockstep, NoopRecorder, Query, RunOutput, SsspConfig, Threaded,
};
use sssp_dist::DistGraph;
use sssp_graph::components::components_union_find;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{Csr, CsrBuilder, EdgeList, VertexId};

const INF: u64 = u64::MAX;

/// A permuted R-MAT-2 graph: skewed degrees scattered over the ids, two
/// components with edges and 25 isolated vertices.
fn input() -> EdgeList {
    RmatGenerator::new(RmatParams::RMAT2, 9, 3)
        .seed(5)
        .generate_weighted(255)
}

/// Every `(p, T)` layout the boundary tests run on, each asserted to move
/// at least one vertex away from its identity slot.
fn layouts(g: &Csr) -> Vec<(String, Arc<DistGraph>)> {
    let mut out = Vec::new();
    for p in [2, 3] {
        for t in [1, 2, 3] {
            let dg = DistGraph::build(g, p, t);
            let moved = g
                .vertices()
                .filter(|&v| dg.locate(v) != (dg.part.owner(v), dg.part.to_local(v)))
                .count();
            assert!(moved > 0, "p {p} T {t}: the stored order is the identity");
            out.push((format!("p {p} T {t}"), Arc::new(dg)));
        }
    }
    out
}

/// The query on the lockstep transport and on rank threads; both answers.
fn both(dg: &Arc<DistGraph>, query: &Query) -> [RunOutput; 2] {
    let (cfg, model) = (SsspConfig::lb_opt(25), MachineModel::bgq_like());
    let mut scratch = EngineScratch::new(dg.num_ranks());
    let threaded = Threaded(&mut scratch);
    [
        run(&**dg, query, &cfg, &model, Lockstep, NoopRecorder).0,
        run(dg, query, &cfg, &model, threaded, NoopRecorder).0,
    ]
}

/// The highest-degree vertex: the first slot of its rank after the layout.
fn hub(g: &Csr) -> VertexId {
    g.vertices().max_by_key(|&v| g.degree(v)).unwrap()
}

#[test]
fn degrees_are_reported_by_external_id() {
    let g = CsrBuilder::new().build(&input());
    for (at, dg) in layouts(&g) {
        for v in g.vertices() {
            assert_eq!(dg.degree(v), g.degree(v), "{at} v {v}");
        }
    }
}

#[test]
fn multi_seed_queries_match_dijkstra() {
    let g = CsrBuilder::new().build(&input());
    let seeds = [(hub(&g), 40), (3, 0), (200, 7), (3, 9)];
    let mut want = vec![INF; g.num_vertices()];
    for &(s, d) in &seeds {
        for (w, x) in want.iter_mut().zip(dijkstra_radix(&g, s)) {
            *w = (*w).min(x.saturating_add(d));
        }
    }
    for (at, dg) in layouts(&g) {
        for out in both(&dg, &Query::seeded(&seeds)) {
            assert_eq!(out.distances, want, "{at}");
        }
    }
}

#[test]
fn point_to_point_queries_settle_the_target() {
    let g = CsrBuilder::new().build(&input());
    let root = hub(&g);
    let want = dijkstra_radix(&g, root);
    let far = (0..g.num_vertices() as VertexId)
        .filter(|&v| want[v as usize] != INF)
        .max_by_key(|&v| want[v as usize])
        .unwrap();
    let targets = [far, root, g.vertices().find(|&v| g.degree(v) == 1).unwrap()];
    for (at, dg) in layouts(&g) {
        for t in targets {
            for out in both(&dg, &Query::root(root).with_target(Some(t))) {
                let (got, exact) = (out.distances[t as usize], want[t as usize]);
                assert_eq!(got, exact, "{at} target {t}");
            }
        }
    }
}

#[test]
fn an_expired_query_keeps_its_seeds_at_their_external_ids() {
    let g = CsrBuilder::new().build(&input());
    let sources = [hub(&g), 17];
    let want: Vec<Vec<u64>> = sources.iter().map(|&s| dijkstra_radix(&g, s)).collect();
    let query = Query::sources(&sources).with_deadline(Some(Instant::now()));
    for (at, dg) in layouts(&g) {
        for out in both(&dg, &query) {
            assert!(out.timed_out, "{at}");
            for s in sources {
                assert_eq!(out.distances[s as usize], 0, "{at} seed {s}");
            }
            for (v, &d) in out.distances.iter().enumerate() {
                let exact = want.iter().map(|w| w[v]).min().unwrap();
                assert!(d >= exact, "{at} v {v}: {d} below {exact}");
            }
        }
    }
}

#[test]
fn bfs_depths_match_the_sequential_search() {
    let g = CsrBuilder::new().build(&input());
    let model = MachineModel::bgq_like();
    for root in [hub(&g), 11] {
        let want = seq_bfs(&g, root);
        for (at, dg) in layouts(&g) {
            let mut scratch = EngineScratch::new(dg.num_ranks());
            let lock = bfs_on(&*dg, root, &model, None, Lockstep);
            let thr = bfs_on(&dg, root, &model, None, Threaded(&mut scratch));
            assert_eq!(lock.depth, want, "{at} root {root}");
            assert_eq!(thr.depth, want, "{at} root {root}");
        }
    }
}

#[test]
fn cc_labels_are_the_minimum_external_id_of_each_component() {
    let el = input();
    let g = CsrBuilder::new().build(&el);
    let component = components_union_find(&el);
    let mut smallest = vec![VertexId::MAX; g.num_vertices()];
    for (v, &c) in component.iter().enumerate() {
        smallest[c as usize] = smallest[c as usize].min(v as VertexId);
    }
    let want: Vec<VertexId> = component.iter().map(|&c| smallest[c as usize]).collect();
    // Isolated vertices plus at least two components with edges.
    let isolated = g.vertices().filter(|&v| g.degree(v) == 0).count();
    let components = *component.iter().max().unwrap() as usize + 1;
    assert!(isolated > 0 && components >= isolated + 2);
    let model = MachineModel::bgq_like();
    for (at, dg) in layouts(&g) {
        let mut scratch = EngineScratch::new(dg.num_ranks());
        assert_eq!(cc_on(&*dg, &model, None, Lockstep).labels, want, "{at}");
        let thr = cc_on(&dg, &model, None, Threaded(&mut scratch));
        assert_eq!(thr.labels, want, "{at}");
    }
}
