//! Degree statistics: the inputs to Fig. 8 (max degree vs scale) and to the
//! load-balancing thresholds of §III-E.

use crate::prng::SplitMix;
use crate::{Csr, VertexId};

/// Pick up to `count` distinct non-isolated vertices, deterministically in
/// `seed` — the run roots of every figure binary and of `sssp-cli`. The
/// random probe is bounded, so a graph with fewer than `count`
/// non-isolated vertices (an edgeless one included) yields a shorter
/// list instead of spinning; callers decide whether that is an error.
pub fn pick_roots(g: &Csr, count: usize, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices() as u64;
    let mut rng = SplitMix::new(seed ^ 0xB00F);
    let mut roots = Vec::with_capacity(count.min(g.num_vertices()));
    let mut probes = 0;
    while n > 0 && roots.len() < count && probes < 100 * count + 1000 {
        probes += 1;
        let v = rng.next_below(n) as VertexId;
        if g.degree(v) > 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// Summary of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_undirected_edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub avg_degree: f64,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Fraction of directed edge slots owned by the top 1% of vertices —
    /// the skew metric that predicts whether load balancing matters.
    pub top1pct_edge_share: f64,
}

/// Compute [`DegreeStats`] for a CSR graph.
pub fn degree_stats(g: &Csr) -> DegreeStats {
    let n = g.num_vertices();
    let mut degrees: Vec<usize> = (0..n).map(|v| g.degree(v as VertexId)).collect();
    let isolated = degrees.iter().filter(|&&d| d == 0).count();
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    let total: usize = degrees.iter().sum();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let top = (n / 100).max(1).min(n.max(1));
    let top_sum: usize = degrees.iter().take(top).sum();
    DegreeStats {
        num_vertices: n,
        num_undirected_edges: g.num_undirected_edges(),
        max_degree,
        avg_degree: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        isolated,
        top1pct_edge_share: if total == 0 {
            0.0
        } else {
            top_sum as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, CsrBuilder};

    #[test]
    fn stats_of_star() {
        let g = CsrBuilder::new().build(&gen::star(11, 1));
        let s = degree_stats(&g);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.num_undirected_edges, 10);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 20.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_counted() {
        let mut el = gen::path(3, 1);
        el.n = 6; // add three isolated vertices
        let g = CsrBuilder::new().build(&el);
        assert_eq!(degree_stats(&g).isolated, 3);
    }

    #[test]
    fn pick_roots_is_bounded_distinct_and_deterministic() {
        let mut el = gen::path(3, 1);
        el.n = 6; // three isolated vertices
        let g = CsrBuilder::new().build(&el);
        let roots = pick_roots(&g, 2, 7);
        assert_eq!(roots.len(), 2);
        assert!(roots[0] != roots[1] && roots.iter().all(|&v| g.degree(v) > 0));
        assert_eq!(pick_roots(&g, 2, 7), roots);
        // More roots than non-isolated vertices: a shorter list, not a hang.
        assert_eq!(pick_roots(&g, 5, 7).len(), 3);
        // Edgeless and empty graphs have no root at all.
        let edgeless = CsrBuilder::new().build(&crate::EdgeList::new(4));
        assert!(pick_roots(&edgeless, 1, 7).is_empty());
        let empty = CsrBuilder::new().build(&crate::EdgeList::new(0));
        assert!(pick_roots(&empty, 1, 7).is_empty());
    }

    #[test]
    fn skew_metric_orders_families() {
        use crate::rmat::{RmatGenerator, RmatParams};
        let build = |p| {
            let el = RmatGenerator::new(p, 11, 16).seed(2).generate_weighted(255);
            CsrBuilder::new().build(&el)
        };
        let s1 = degree_stats(&build(RmatParams::RMAT1));
        let s2 = degree_stats(&build(RmatParams::RMAT2));
        assert!(s1.top1pct_edge_share > s2.top1pct_edge_share);
    }
}
