//! Deterministic structured generators for tests, examples and the paper's
//! worked examples.

use crate::prng::SplitMix;
use crate::{EdgeList, VertexId, Weight};

/// Uniform random graph: `m` edges with independently uniform endpoints
/// (self-loops possible; the builder drops them). G(n, m) style.
pub fn uniform(n: usize, m: usize, w_max: u32, seed: u64) -> EdgeList {
    assert!(n > 0);
    let mut el = EdgeList::new(n);
    for i in 0..m {
        let mut rng = SplitMix::derive(seed, i as u64);
        let u = rng.next_below(n as u64) as VertexId;
        let v = rng.next_below(n as u64) as VertexId;
        let w = 1 + rng.next_below(w_max.max(1) as u64) as Weight;
        el.push(u, v, w);
    }
    el
}

/// 4-neighbour `side × side` grid (vertex `r·side + c`) with independently
/// uniform weights in `[1, w_max]`: the high-diameter, latency-bound shape
/// of a road network.
pub fn grid(side: usize, w_max: u32, seed: u64) -> EdgeList {
    let mut el = EdgeList::new(side * side);
    let mut rng = SplitMix::new(seed);
    let mut weight = || 1 + rng.next_below(w_max.max(1) as u64) as Weight;
    for r in 0..side {
        for c in 0..side {
            let v = (r * side + c) as VertexId;
            if c + 1 < side {
                el.push(v, v + 1, weight());
            }
            if r + 1 < side {
                el.push(v, v + side as VertexId, weight());
            }
        }
    }
    el
}

/// Path 0 — 1 — 2 — … — (n−1) with the given per-hop weight.
pub fn path(n: usize, w: Weight) -> EdgeList {
    let mut el = EdgeList::new(n);
    for i in 1..n {
        el.push((i - 1) as VertexId, i as VertexId, w);
    }
    el
}

/// Star: center 0 connected to 1..n−1.
pub fn star(n: usize, w: Weight) -> EdgeList {
    let mut el = EdgeList::new(n);
    for i in 1..n {
        el.push(0, i as VertexId, w);
    }
    el
}

/// Complete graph on `n` vertices.
pub fn clique(n: usize, w: Weight) -> EdgeList {
    let mut el = EdgeList::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            el.push(u as VertexId, v as VertexId, w);
        }
    }
    el
}

/// The illustrative graph of the paper's Fig. 6 (generalized): a root vertex
/// connected to a `clique_size`-clique by weight-`w_root` edges; the clique is
/// internally connected with weight-`w_clique` edges; each clique vertex is
/// further connected to `fanout` private "isolated" leaf vertices by
/// weight-`w_leaf` edges.
///
/// With `Δ = 5`, `w_root = 10`, `w_clique = 6`, `w_leaf = 10` and the paper's
/// sizes this reproduces Fig. 6's counts exactly: the push model spends 40
/// relaxations (5 root edges + 30 for the clique epoch + 5 leaf edges), while
/// switching the clique epoch to pull drops its cost from 30 (1 backward +
/// 4 self + 1 forward edge per clique vertex) to 10 (one request + one
/// response per leaf).
pub struct PullExample {
    /// Number of vertices in the central clique.
    pub clique_size: usize,
    /// Leaves attached to each clique vertex.
    pub fanout: usize,
    /// Weight of root-to-clique edges.
    pub w_root: Weight,
    /// Weight of clique-internal edges.
    pub w_clique: Weight,
    /// Weight of clique-to-leaf edges.
    pub w_leaf: Weight,
}

impl Default for PullExample {
    fn default() -> Self {
        // Sized so the counts match the paper's illustration (total push
        // cost 40 relaxation messages across three long phases, 30 of them
        // in the clique epoch).
        PullExample {
            clique_size: 5,
            fanout: 1,
            w_root: 10,
            w_clique: 6,
            w_leaf: 10,
        }
    }
}

impl PullExample {
    /// Vertex layout: 0 = root, `1..=clique_size` = clique,
    /// rest = leaves (clique vertex `i` owns leaves
    /// `1 + clique_size + (i-1)*fanout ..`).
    pub fn build(&self) -> EdgeList {
        let n = 1 + self.clique_size + self.clique_size * self.fanout;
        let mut el = EdgeList::new(n);
        for c in 1..=self.clique_size {
            el.push(0, c as VertexId, self.w_root);
        }
        for a in 1..=self.clique_size {
            for b in (a + 1)..=self.clique_size {
                el.push(a as VertexId, b as VertexId, self.w_clique);
            }
        }
        let mut leaf = (1 + self.clique_size) as VertexId;
        for c in 1..=self.clique_size {
            for _ in 0..self.fanout {
                el.push(c as VertexId, leaf, self.w_leaf);
                leaf += 1;
            }
        }
        el
    }

    /// Total vertex count of the example graph.
    pub fn num_vertices(&self) -> usize {
        1 + self.clique_size + self.clique_size * self.fanout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    #[test]
    fn path_has_n_minus_one_edges() {
        let el = path(10, 3);
        assert_eq!(el.len(), 9);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
    }

    #[test]
    fn grid_is_a_weighted_four_neighbour_lattice() {
        let el = grid(5, 9, 3);
        assert_eq!((el.n, el.len()), (25, 2 * 5 * 4));
        assert_eq!(el.edges, grid(5, 9, 3).edges);
        assert!(el.edges.iter().all(|e| (1..=9).contains(&e.w)));
        let g = CsrBuilder::new().build(&el);
        assert_eq!((g.degree(0), g.degree(2), g.degree(12)), (2, 3, 4));
    }

    #[test]
    fn star_degrees() {
        let g = CsrBuilder::new().build(&star(6, 1));
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn clique_edge_count() {
        let el = clique(6, 2);
        assert_eq!(el.len(), 15);
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let a = uniform(100, 500, 255, 42);
        let b = uniform(100, 500, 255, 42);
        assert_eq!(a.edges, b.edges);
        for e in &a.edges {
            assert!((e.u as usize) < 100 && (e.v as usize) < 100);
            assert!((1..=255).contains(&e.w));
        }
    }

    #[test]
    fn pull_example_shape() {
        let ex = PullExample::default();
        let el = ex.build();
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_vertices(), ex.num_vertices());
        // Root degree = clique size.
        assert_eq!(g.degree(0), ex.clique_size);
        // Each clique vertex: root + (clique-1) + fanout.
        assert_eq!(g.degree(1), 1 + (ex.clique_size - 1) + ex.fanout);
        // Leaves have degree 1.
        assert_eq!(g.degree((1 + ex.clique_size) as VertexId), 1);
    }
}
