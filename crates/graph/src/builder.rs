//! Edge list → CSR construction.
//!
//! Follows the Graph 500 reference kernel-1 conventions: the input edge list
//! may contain self-loops and duplicate edges; self-loops are dropped
//! (they can never improve a shortest path with non-negative weights) and
//! duplicates are either kept (the default, matching the benchmark) or
//! deduplicated keeping the minimum weight.

use rayon::prelude::*;

use crate::{Csr, Edge, EdgeList, VertexId, Weight};

/// Configurable CSR builder.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    drop_self_loops: bool,
    dedup_min_weight: bool,
}

impl Default for CsrBuilder {
    fn default() -> Self {
        CsrBuilder {
            drop_self_loops: true,
            dedup_min_weight: false,
        }
    }
}

impl CsrBuilder {
    /// Builder with default options (rows weight-sorted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep self-loops in the CSR (they are dropped by default).
    pub fn keep_self_loops(mut self) -> Self {
        self.drop_self_loops = false;
        self
    }

    /// Collapse parallel edges, keeping the minimum weight per vertex pair.
    pub fn dedup_min_weight(mut self) -> Self {
        self.dedup_min_weight = true;
        self
    }

    /// Build an undirected CSR: every retained edge `{u, v}` contributes a
    /// slot to both rows. Rows come out sorted by `(weight, target)`.
    ///
    /// The default path reads `el` in place; only `dedup_min_weight` works
    /// on a (canonicalised, sorted) copy.
    pub fn build(&self, el: &EdgeList) -> Csr {
        let n = el.n;
        let deduped;
        let edges: &[Edge] = if self.dedup_min_weight {
            deduped = self.dedup(&el.edges);
            &deduped
        } else {
            &el.edges
        };
        let kept = || {
            edges
                .iter()
                .filter(move |e| !(self.drop_self_loops && e.u == e.v))
        };

        // Counting sort into rows. A kept self-loop occupies two slots of
        // its row, the usual CSR convention for undirected graphs.
        let mut offsets = vec![0usize; n + 1];
        for e in kept() {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let total = offsets[n];
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; total];
        let mut weights = vec![0 as Weight; total];
        for e in kept() {
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                let slot = &mut cursor[from as usize];
                targets[*slot] = to;
                weights[*slot] = e.w;
                *slot += 1;
            }
        }
        sort_rows(&offsets, &mut targets, &mut weights);
        Csr::from_parts(offsets, targets, weights)
    }

    /// The retained edges canonicalised to `u <= v`, keeping the
    /// minimum-weight representative of each vertex pair.
    fn dedup(&self, edges: &[Edge]) -> Vec<Edge> {
        let mut out: Vec<Edge> = edges
            .iter()
            .filter(|e| !(self.drop_self_loops && e.u == e.v))
            .map(|e| Edge::new(e.u.min(e.v), e.u.max(e.v), e.w))
            .collect();
        out.sort_unstable_by_key(|e| (e.u, e.v, e.w));
        out.dedup_by_key(|e| (e.u, e.v));
        out
    }
}

/// Sort every row by `(weight, target)`, in parallel: the rows are cut into
/// one run of about equal edge count per worker, and each worker sorts its
/// rows on packed `(w << 32) | t` keys in one reused buffer.
fn sort_rows(offsets: &[usize], targets: &mut [VertexId], weights: &mut [Weight]) {
    let n = offsets.len() - 1;
    let runs = rayon::current_num_threads().clamp(1, n.max(1));
    let per_run = offsets[n].div_ceil(runs).max(1);
    let mut work = Vec::with_capacity(runs);
    let (mut targets, mut weights) = (targets, weights);
    let mut first = 0;
    while first < n {
        // The run ends at the first row boundary holding its share of edges.
        let goal = offsets[first] + per_run;
        let last = first + 1 + offsets[first + 1..n].partition_point(|&o| o < goal);
        let len = offsets[last] - offsets[first];
        let (t, t_rest) = std::mem::take(&mut targets).split_at_mut(len);
        let (w, w_rest) = std::mem::take(&mut weights).split_at_mut(len);
        (targets, weights) = (t_rest, w_rest);
        work.push((&offsets[first..=last], t, w));
        first = last;
    }
    work.into_par_iter()
        .for_each(|(offsets, targets, weights)| {
            let base = offsets[0];
            let mut keys: Vec<u64> = Vec::new();
            for row in offsets.windows(2) {
                let (lo, hi) = (row[0] - base, row[1] - base);
                if hi - lo < 2 {
                    continue;
                }
                keys.clear();
                keys.extend(
                    weights[lo..hi]
                        .iter()
                        .zip(&targets[lo..hi])
                        .map(|(&w, &t)| (u64::from(w) << 32) | u64::from(t)),
                );
                keys.sort_unstable();
                for ((key, t), w) in keys
                    .iter()
                    .zip(&mut targets[lo..hi])
                    .zip(&mut weights[lo..hi])
                {
                    *t = *key as VertexId;
                    *w = (*key >> 32) as Weight;
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loops_dropped_by_default() {
        let mut el = EdgeList::new(2);
        el.push(0, 0, 9);
        el.push(0, 1, 1);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_undirected_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loops_kept_on_request() {
        let mut el = EdgeList::new(1);
        el.push(0, 0, 4);
        let g = CsrBuilder::new().keep_self_loops().build(&el);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn duplicates_kept_by_default() {
        let mut el = EdgeList::new(2);
        el.push(0, 1, 3);
        el.push(0, 1, 8);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_undirected_edges(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut el = EdgeList::new(2);
        el.push(0, 1, 8);
        el.push(1, 0, 3);
        el.push(0, 1, 5);
        let g = CsrBuilder::new().dedup_min_weight().build(&el);
        assert_eq!(g.num_undirected_edges(), 1);
        assert_eq!(g.row(0).next(), Some((1, 3)));
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let mut el = EdgeList::new(5);
        el.push(0, 1, 1);
        let g = CsrBuilder::new().build(&el);
        assert_eq!(g.num_vertices(), 5);
        for v in 2..5 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn degrees_sum_to_directed_edge_count() {
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1);
        el.push(1, 2, 2);
        el.push(2, 3, 3);
        el.push(3, 0, 4);
        el.push(0, 2, 5);
        let g = CsrBuilder::new().build(&el);
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degsum, g.num_directed_edges());
        assert_eq!(degsum, 10);
    }
}
