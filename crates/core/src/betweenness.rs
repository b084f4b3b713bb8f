//! Betweenness centrality on top of the SSSP engine.
//!
//! The paper motivates SSSP with complex-network analysis — Brandes'
//! betweenness algorithm \[1\] and Freeman's centrality \[2\] are its first two
//! citations. This module provides that downstream application: Brandes'
//! dependency accumulation driven by the distributed SSSP engine, with
//! source sampling for the approximate variant used on large graphs.
//!
//! For each source `s`, the shortest-path DAG is derived from the distance
//! array (edge `(u, v)` is a DAG edge iff `d(u) + w = d(v)`), path counts
//! `σ` accumulate in increasing-distance order, and dependencies
//!
//! ```text
//!   δ(v) = Σ_{w : v ∈ pred(w)} σ(v)/σ(w) · (1 + δ(w))
//! ```
//!
//! accumulate in decreasing-distance order. Exact betweenness uses every
//! vertex as a source; sampling `k` sources scales each contribution by
//! `n/k` (Brandes–Pich estimation).

use sssp_comm::cost::MachineModel;
use sssp_dist::DistGraph;
use sssp_graph::{Csr, VertexId};

use crate::config::SsspConfig;
use crate::engine::run_sssp;
use crate::state::INF;

/// Accumulate one source's dependencies into `centrality`, scaled by
/// `scale`. Returns the number of reachable vertices.
fn accumulate_source(
    g: &Csr,
    source: VertexId,
    dist: &[u64],
    centrality: &mut [f64],
    scale: f64,
) -> usize {
    let n = g.num_vertices();
    // Vertices in increasing distance order (unreachable excluded).
    let mut order: Vec<VertexId> = g.vertices().filter(|&v| dist[v as usize] != INF).collect();
    order.sort_unstable_by_key(|&v| dist[v as usize]);

    // σ: number of shortest s→v paths.
    let mut sigma = vec![0.0f64; n];
    sigma[source as usize] = 1.0;
    for &v in &order {
        if v == source {
            continue;
        }
        let dv = dist[v as usize];
        let mut s = 0.0;
        for (u, w) in g.row(v) {
            if dist[u as usize].saturating_add(w as u64) == dv {
                s += sigma[u as usize];
            }
        }
        sigma[v as usize] = s;
    }

    // δ: dependency accumulation in reverse order.
    let mut delta = vec![0.0f64; n];
    for &w_v in order.iter().rev() {
        let dw = dist[w_v as usize];
        if sigma[w_v as usize] == 0.0 {
            continue;
        }
        for (u, wt) in g.row(w_v) {
            if dist[u as usize].saturating_add(wt as u64) == dw && sigma[u as usize] > 0.0 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[w_v as usize] * (1.0 + delta[w_v as usize]);
            }
        }
        if w_v != source {
            centrality[w_v as usize] += scale * delta[w_v as usize];
        }
    }
    order.len()
}

/// Approximate betweenness from `sources`, computing each SSSP on the
/// distributed engine. Contributions are scaled by `n / |sources|`.
pub fn betweenness_sampled(
    g: &Csr,
    dg: &DistGraph,
    sources: &[VertexId],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> Vec<f64> {
    assert!(!sources.is_empty(), "need at least one source");
    let n = g.num_vertices();
    let scale = n as f64 / sources.len() as f64;
    let mut centrality = vec![0.0; n];
    for &s in sources {
        let out = run_sssp(dg, s, cfg, model);
        accumulate_source(g, s, &out.distances, &mut centrality, scale);
    }
    centrality
}

/// Exact betweenness (every vertex a source), using sequential Dijkstra for
/// the distance arrays. Reference implementation for tests and small
/// graphs; undirected convention (each pair counted from both endpoints, so
/// values are 2× the "divide by two" convention).
pub fn betweenness_exact(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    let mut centrality = vec![0.0; n];
    for s in g.vertices() {
        let dist = crate::seq::dijkstra(g, s);
        accumulate_source(g, s, &dist, &mut centrality, 1.0);
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder, EdgeList};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn path_graph_centrality() {
        // Path 0-1-2-3-4: vertex 2 lies on the most shortest paths.
        let g = CsrBuilder::new().build(&gen::path(5, 1));
        let c = betweenness_exact(&g);
        // Endpoints have zero centrality.
        assert!(close(c[0], 0.0) && close(c[4], 0.0));
        // v1 is interior to s-t pairs: (0,2),(0,3),(0,4) and reversed = 6.
        assert!(close(c[1], 6.0), "c[1] = {}", c[1]);
        assert!(close(c[2], 8.0), "c[2] = {}", c[2]);
        assert!(close(c[3], 6.0), "c[3] = {}", c[3]);
    }

    #[test]
    fn star_center_dominates() {
        let g = CsrBuilder::new().build(&gen::star(7, 2));
        let c = betweenness_exact(&g);
        // Center mediates every leaf pair: 6·5 = 30 ordered pairs.
        assert!(close(c[0], 30.0), "center = {}", c[0]);
        for &leaf_c in &c[1..7] {
            assert!(close(leaf_c, 0.0));
        }
    }

    #[test]
    fn equal_weight_paths_split_credit() {
        // A diamond: 0-1-3 and 0-2-3 with equal weights; 1 and 2 each carry
        // half of the (0,3) pairs.
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1);
        el.push(0, 2, 1);
        el.push(1, 3, 1);
        el.push(2, 3, 1);
        let g = CsrBuilder::new().build(&el);
        let c = betweenness_exact(&g);
        assert!(close(c[1], 1.0), "c[1] = {}", c[1]);
        assert!(close(c[2], 1.0), "c[2] = {}", c[2]);
        assert!(close(c[0], 1.0) && close(c[3], 1.0));
    }

    #[test]
    fn weights_shift_shortest_paths() {
        // Same diamond but the 0-1-3 route is cheaper: vertex 1 takes all
        // the credit.
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1);
        el.push(0, 2, 5);
        el.push(1, 3, 1);
        el.push(2, 3, 5);
        let g = CsrBuilder::new().build(&el);
        let c = betweenness_exact(&g);
        assert!(close(c[1], 2.0), "c[1] = {}", c[1]);
        assert!(close(c[2], 0.0), "c[2] = {}", c[2]);
    }

    #[test]
    fn sampled_with_all_sources_equals_exact() {
        let g = CsrBuilder::new().build(&gen::uniform(40, 160, 10, 5));
        let dg = DistGraph::build(&g, 3, 2);
        let sources: Vec<u32> = g.vertices().collect();
        let sampled = betweenness_sampled(
            &g,
            &dg,
            &sources,
            &SsspConfig::opt(25),
            &MachineModel::bgq_like(),
        );
        let exact = betweenness_exact(&g);
        for v in 0..40 {
            assert!(
                (sampled[v] - exact[v]).abs() < 1e-6,
                "v{v}: {} vs {}",
                sampled[v],
                exact[v]
            );
        }
    }

    #[test]
    fn sampling_scales_contributions() {
        let g = CsrBuilder::new().build(&gen::path(6, 1));
        let dg = DistGraph::build(&g, 2, 1);
        // One source out of six: scale factor 6.
        let c = betweenness_sampled(
            &g,
            &dg,
            &[0],
            &SsspConfig::opt(25),
            &MachineModel::bgq_like(),
        );
        // From source 0 alone, δ(1) = 4 (it precedes 2,3,4,5), scaled by 6.
        assert!(close(c[1], 24.0), "c[1] = {}", c[1]);
    }

    #[test]
    fn disconnected_components_are_independent() {
        let mut el = gen::path(3, 1); // 0-1-2
        el.n = 6;
        el.push(3, 4, 1);
        el.push(4, 5, 1); // 3-4-5
        let g = CsrBuilder::new().build(&el);
        let c = betweenness_exact(&g);
        assert!(close(c[1], 2.0));
        assert!(close(c[4], 2.0));
        assert!(close(c[0], 0.0) && close(c[3], 0.0));
    }
}
