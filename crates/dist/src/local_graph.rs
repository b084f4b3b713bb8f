//! Per-rank CSR slices and the assembled distributed graph.

use rayon::prelude::*;
use sssp_graph::{Csr, VertexId, Weight};

use crate::partition::Partition;

/// The adjacency of one rank's vertices. Rows are indexed by *local* vertex
/// id and keep the weight-sorted order inherited from the global CSR, so the
/// short/long split, the IOS inner bound and the pull-request count are all
/// binary searches here too.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>, // internal ids (see `DistGraph`)
    weights: Vec<Weight>,
    /// Per-vertex power-of-two weight histograms (`hist_buckets` counters
    /// per row) — the approximate range-count structure §III-C suggests as
    /// an alternative to binary search on sorted rows.
    hist: Vec<u32>,
    hist_buckets: usize,
}

/// Histogram bucket of a weight: 0 for `w = 0`, otherwise `1 + ⌊log₂ w⌋`
/// (bucket `b ≥ 1` covers `[2^{b−1}, 2^b)`).
#[inline]
pub fn weight_bucket(w: Weight) -> usize {
    if w == 0 {
        0
    } else {
        1 + (31 - w.leading_zeros()) as usize
    }
}

impl LocalGraph {
    /// Assemble a local graph directly from per-vertex `(targets, weights)`
    /// rows (each row already weight-sorted). The distribution layer goes
    /// through [`DistGraph`]; this constructor exists for
    /// unit tests of row-consuming code.
    pub fn from_rows<I>(rows: I) -> Self
    where
        I: IntoIterator<Item = (Vec<VertexId>, Vec<Weight>)>,
    {
        let rows: Vec<(Vec<VertexId>, Vec<Weight>)> = rows.into_iter().collect();
        let edges = rows.iter().map(|(t, _)| t.len()).sum();
        let max_w = rows
            .iter()
            .flat_map(|(_, w)| w.iter().copied())
            .max()
            .unwrap_or(0);
        let mut lg = Self::zeroed(rows.len(), edges, max_w);
        let slotted = rows.iter().enumerate();
        lg.fill(slotted.map(|(i, (t, w))| (i, &t[..], &w[..])), |t| t);
        lg
    }

    /// Zeroed arrays for `rows` rows and `edges` edge slots, with histogram
    /// buckets up to `max_w`. [`DistGraph`] sizes every rank's arrays this
    /// way on the calling thread before any worker fills them.
    fn zeroed(rows: usize, edges: usize, max_w: Weight) -> Self {
        let hist_buckets = weight_bucket(max_w) + 1;
        LocalGraph {
            offsets: vec![0; rows + 1],
            targets: vec![0; edges],
            weights: vec![0; edges],
            hist: vec![0; rows * hist_buckets],
            hist_buckets,
        }
    }

    /// Copy every `(slot, targets, weights)` of `rows` into row `slot` of
    /// the arrays [`Self::zeroed`] sized, each target through `id`, then
    /// count each row's weight histogram. `rows` names every slot once and
    /// is walked twice: for the row lengths, then to copy.
    fn fill<'a>(
        &mut self,
        rows: impl Iterator<Item = (usize, &'a [VertexId], &'a [Weight])> + Clone,
        id: impl Fn(VertexId) -> VertexId,
    ) {
        for (slot, t, _) in rows.clone() {
            self.offsets[slot + 1] = t.len();
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        for (slot, t, w) in rows {
            let at = self.offsets[slot];
            for (dst, &v) in self.targets[at..at + t.len()].iter_mut().zip(t) {
                *dst = id(v);
            }
            self.weights[at..at + w.len()].copy_from_slice(w);
        }
        let counts = self.hist.chunks_exact_mut(self.hist_buckets);
        for (row, counts) in self.offsets.windows(2).zip(counts) {
            for &w in &self.weights[row[0]..row[1]] {
                counts[weight_bucket(w)] += 1;
            }
        }
    }

    /// Approximate number of edges of `local` with weight `< bound`, from
    /// the power-of-two histogram: whole buckets below `bound` count fully,
    /// the straddled bucket contributes linearly. `O(log w_max)` regardless
    /// of degree, and within a factor of 2 of the exact count.
    pub fn estimate_weight_below(&self, local: usize, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let row = self.weight_histogram(local);
        let mut est = 0.0f64;
        for (b, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = if b == 0 {
                (0u64, 1u64)
            } else {
                (1u64 << (b - 1), 1u64 << b)
            };
            if bound >= hi {
                est += c as f64;
            } else if bound > lo {
                est += c as f64 * (bound - lo) as f64 / (hi - lo) as f64;
            }
        }
        est.round() as u64
    }

    /// The power-of-two weight histogram of `local`'s row: one counter per
    /// [`weight_bucket`], as many buckets as the rank's heaviest edge needs.
    pub fn weight_histogram(&self, local: usize) -> &[u32] {
        &self.hist[local * self.hist_buckets..(local + 1) * self.hist_buckets]
    }

    #[inline]
    /// Number of vertices this rank owns.
    pub fn num_local(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    /// Degree of the local vertex `local`.
    pub fn degree(&self, local: usize) -> usize {
        self.offsets[local + 1] - self.offsets[local]
    }

    /// `(targets, weights)` of the row, sorted by weight.
    #[inline]
    pub fn row(&self, local: usize) -> (&[VertexId], &[Weight]) {
        let lo = self.offsets[local];
        let hi = self.offsets[local + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Number of edges of `local` with weight `< bound` (binary search).
    #[inline]
    pub fn count_weight_below(&self, local: usize, bound: Weight) -> usize {
        let (_, ws) = self.row(local);
        ws.partition_point(|&w| w < bound)
    }

    /// First row position with weight `>= bound`; the suffix from here is
    /// the "long edge" range for `bound = Δ`.
    #[inline]
    pub fn weight_lower_bound(&self, local: usize, bound: Weight) -> usize {
        self.count_weight_below(local, bound)
    }

    /// Directed edge count of this rank’s slice.
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }
}

/// A graph distributed over `P` simulated ranks.
///
/// Vertices have two ids. The *external* id is the input CSR's; every API
/// takes and returns external ids. Each rank stores its base vertices
/// hub-first (see [`DistGraph::build_with_partition`]); a vertex's
/// *internal* id is `part.to_global(owner, position)`, and [`LocalGraph`]
/// targets and every message carry internal ids. The owner of both ids is
/// the same rank, and [`DistGraph::locate`] / [`DistGraph::vertex`]
/// translate between them.
#[derive(Debug, Clone)]
pub struct DistGraph {
    /// The vertex partition shared by all ranks.
    pub part: Partition,
    /// Per-rank adjacency slices, indexed by rank.
    pub locals: Vec<LocalGraph>,
    /// Logical threads per rank (for the intra-node load model).
    pub threads_per_rank: usize,
    /// Directed edge slots over all ranks (2× undirected count).
    pub m_directed: u64,
    /// Undirected edge count of the *input* graph (pre-splitting); this is
    /// the `m` in the benchmark's `TEPS = m / t`.
    pub m_input_undirected: u64,
    /// Internal id of each external id.
    internal: Vec<VertexId>,
    /// External id of each internal id.
    external: Vec<VertexId>,
}

impl DistGraph {
    /// Distribute `csr` over `p` ranks with `threads_per_rank` logical
    /// threads each (block distribution, the paper's layout).
    pub fn build(csr: &Csr, p: usize, threads_per_rank: usize) -> Self {
        let part = Partition::new(csr.num_vertices(), p);
        Self::build_with_partition(
            csr,
            part,
            threads_per_rank,
            csr.num_undirected_edges() as u64,
        )
    }

    /// Distribute `csr` over `p` ranks with the §III-E degree-threshold
    /// vertex-splitting trigger armed: when the maximum degree exceeds the
    /// π′ threshold ([`crate::split::auto_threshold`]), heavy vertices are
    /// replaced by round-robin-distributed proxies before slicing, and the
    /// split report is returned alongside the graph. Shortest distances of
    /// the original ids `0..n` are preserved (zero-weight star edges), so
    /// this is the entry point for SSSP-style runs; hop- or mass-based
    /// algorithms (BFS, PageRank) must keep using [`DistGraph::build`],
    /// whose layout never rewrites the graph.
    pub fn build_auto_split(
        csr: &Csr,
        p: usize,
        threads_per_rank: usize,
    ) -> (Self, Option<crate::split::SplitReport>) {
        let threshold = crate::split::auto_threshold(csr, p);
        if p > 1 && csr.max_degree() > threshold {
            let (split, part, report) = crate::split::split_heavy_vertices(csr, p, threshold);
            let dg = Self::build_with_partition(
                &split,
                part,
                threads_per_rank,
                csr.num_undirected_edges() as u64,
            );
            (dg, Some(report))
        } else {
            (Self::build(csr, p, threads_per_rank), None)
        }
    }

    /// Distribute with a cyclic layout (`owner(v) = v mod P`) — useful when
    /// vertex ids correlate with degree.
    pub fn build_cyclic(csr: &Csr, p: usize, threads_per_rank: usize) -> Self {
        let part = Partition::cyclic(csr.num_vertices(), p);
        Self::build_with_partition(
            csr,
            part,
            threads_per_rank,
            csr.num_undirected_edges() as u64,
        )
    }

    /// Distribute a split graph (see [`crate::split`]): `part` carries the
    /// proxy region, `m_input_undirected` should be the pre-split edge count.
    ///
    /// Each rank stores its base vertices hub-first: a stable sort by
    /// descending degree within each residue class `local % threads_per_rank`,
    /// so every vertex keeps its owner rank and its logical thread, and the
    /// high-degree vertices most relaxations land on share a few cache
    /// lines. Proxies keep their slots, and each row keeps the CSR's edge
    /// order with its targets translated to internal ids.
    pub fn build_with_partition(
        csr: &Csr,
        part: Partition,
        threads_per_rank: usize,
        m_input_undirected: u64,
    ) -> Self {
        assert_eq!(csr.num_vertices(), part.num_vertices());
        let threads_per_rank = threads_per_rank.max(1);
        let slots: Vec<Vec<u32>> = (0..part.num_ranks())
            .map(|rank| hub_first(csr, &part, rank, threads_per_rank))
            .collect();
        let n = part.num_vertices();
        let (mut internal, mut external) = (vec![0; n], vec![0; n]);
        for (rank, slots) in slots.iter().enumerate() {
            for (l, &at) in slots.iter().enumerate() {
                let (x, i) = (part.to_global(rank, l), part.to_global(rank, at as usize));
                internal[x as usize] = i;
                external[i as usize] = x;
            }
        }
        let locals = Self::slice(csr, &part, &slots, &internal);
        DistGraph {
            part,
            locals,
            threads_per_rank,
            m_directed: csr.num_directed_edges() as u64,
            m_input_undirected,
            internal,
            external,
        }
    }

    /// Cut `csr` into one [`LocalGraph`] per rank, the row of rank `r`'s
    /// local `l` in slot `slots[r][l]`, with targets mapped through
    /// `internal`. Every rank's arrays are sized and allocated here, on the
    /// calling thread, from the row lengths and each row's last (heaviest)
    /// weight; the workers then only copy rows into the arrays they are
    /// handed, one rank each, reading the CSR in order.
    fn slice(
        csr: &Csr,
        part: &Partition,
        slots: &[Vec<u32>],
        internal: &[VertexId],
    ) -> Vec<LocalGraph> {
        let mut locals: Vec<LocalGraph> = (0..part.num_ranks())
            .map(|rank| {
                let (mut edges, mut max_w) = (0, 0);
                for l in 0..part.local_count(rank) {
                    let (_, w) = csr.row_slices(part.to_global(rank, l));
                    edges += w.len();
                    max_w = max_w.max(w.last().copied().unwrap_or(0));
                }
                LocalGraph::zeroed(part.local_count(rank), edges, max_w)
            })
            .collect();
        locals
            .par_iter_mut()
            .zip(slots)
            .enumerate()
            .for_each(|(rank, (lg, slots))| {
                let rows = slots.iter().enumerate().map(|(l, &at)| {
                    let (t, w) = csr.row_slices(part.to_global(rank, l));
                    (at as usize, t, w)
                });
                lg.fill(rows, |t| internal[t as usize]);
            });
        locals
    }

    /// Owner rank and local index of the external vertex `v`.
    #[inline]
    pub fn locate(&self, v: VertexId) -> (usize, usize) {
        let i = self.internal[v as usize];
        (self.part.owner(i), self.part.to_local(i))
    }

    /// External id of the vertex stored at `local` on `rank`.
    #[inline]
    pub fn vertex(&self, rank: usize, local: usize) -> VertexId {
        self.external[self.part.to_global(rank, local) as usize]
    }

    #[inline]
    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.part.num_ranks()
    }

    #[inline]
    /// Total vertex count (base + proxies).
    pub fn num_vertices(&self) -> usize {
        self.part.num_vertices()
    }

    /// Degree of the external vertex `v` (routed through its owner's local
    /// graph).
    pub fn degree(&self, v: VertexId) -> usize {
        let (rank, local) = self.locate(v);
        self.locals[rank].degree(local)
    }
}

/// `rank`'s hub-first slots: entry `l` is the position that stores the
/// vertex at [`Partition::to_local`] index `l`. Base vertices are
/// counting-sorted by descending degree, stably, then dealt in that order
/// to the next free slot of their residue class `l % threads` — the
/// class's slots fill hub-first and no vertex changes thread. Proxies keep
/// their slots.
fn hub_first(csr: &Csr, part: &Partition, rank: usize, threads: usize) -> Vec<u32> {
    let base = part.base_count(rank);
    let degree: Vec<usize> = (0..base)
        .map(|l| csr.degree(part.to_global(rank, l)))
        .collect();
    let max = degree.iter().copied().max().unwrap_or(0);
    // `start[max − d]`: the first sorted position of degree `d`.
    let mut start = vec![0usize; max + 2];
    for &d in &degree {
        start[max - d + 1] += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut sorted = vec![0u32; base];
    for (l, &d) in degree.iter().enumerate() {
        sorted[start[max - d]] = sssp_graph::checked_u32(l);
        start[max - d] += 1;
    }
    let mut next: Vec<usize> = (0..threads).collect();
    let mut slots: Vec<u32> = (0..part.local_count(rank))
        .map(sssp_graph::checked_u32)
        .collect();
    for l in sorted {
        let slot = &mut next[l as usize % threads];
        slots[l as usize] = sssp_graph::checked_u32(*slot);
        *slot += threads;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    fn small() -> Csr {
        CsrBuilder::new().build(&gen::uniform(64, 400, 50, 3))
    }

    #[test]
    fn slicing_preserves_rows() {
        let csr = small();
        let dg = DistGraph::build(&csr, 5, 2);
        for v in csr.vertices() {
            let (r, l) = dg.locate(v);
            assert_eq!(r, dg.part.owner(v));
            let (t, w) = dg.locals[r].row(l);
            let t: Vec<_> = t
                .iter()
                .map(|&i| dg.vertex(dg.part.owner(i), dg.part.to_local(i)))
                .collect();
            let (gt, gw) = csr.row_slices(v);
            assert_eq!(t, gt);
            assert_eq!(w, gw);
        }
    }

    #[test]
    fn edge_totals_match() {
        let csr = small();
        let dg = DistGraph::build(&csr, 7, 1);
        let total: usize = dg.locals.iter().map(|l| l.num_directed_edges()).sum();
        assert_eq!(total, csr.num_directed_edges());
        assert_eq!(dg.m_directed, csr.num_directed_edges() as u64);
        assert_eq!(dg.m_input_undirected, csr.num_undirected_edges() as u64);
    }

    #[test]
    fn count_weight_below_matches_global() {
        let csr = small();
        let dg = DistGraph::build(&csr, 3, 1);
        for v in csr.vertices() {
            let (r, l) = dg.locate(v);
            for bound in [0, 1, 10, 25, 51] {
                assert_eq!(
                    dg.locals[r].count_weight_below(l, bound),
                    csr.count_weight_below(v, bound)
                );
            }
        }
    }

    #[test]
    fn degree_route_matches() {
        let csr = small();
        let dg = DistGraph::build(&csr, 4, 1);
        for v in csr.vertices() {
            assert_eq!(dg.degree(v), csr.degree(v));
        }
    }

    #[test]
    fn single_rank_holds_whole_graph() {
        let csr = small();
        let dg = DistGraph::build(&csr, 1, 4);
        assert_eq!(dg.locals[0].num_local(), csr.num_vertices());
        assert_eq!(dg.locals[0].num_directed_edges(), csr.num_directed_edges());
    }

    #[test]
    fn threads_clamped_to_one() {
        let csr = small();
        let dg = DistGraph::build(&csr, 2, 0);
        assert_eq!(dg.threads_per_rank, 1);
    }

    #[test]
    fn auto_split_triggers_on_extreme_degree() {
        // A 400-leaf star: center degree 400 far exceeds the π′ threshold
        // (max(m_directed/p/4, 64)), so the trigger must engage and scatter
        // the hub's neighborhood over proxies on distinct ranks.
        let csr = CsrBuilder::new().build(&gen::star(401, 5));
        for p in [2, 4, 6] {
            let (dg, report) = DistGraph::build_auto_split(&csr, p, 2);
            let report = report.expect("trigger should engage");
            assert!(report.proxies_created > 0);
            assert!(report.max_degree_after < report.max_degree_before);
            assert_eq!(dg.part.num_proxies(), report.proxies_created);
            assert_eq!(dg.part.num_base(), 401);
            // TEPS accounting still refers to the input graph.
            assert_eq!(dg.m_input_undirected, csr.num_undirected_edges() as u64);
        }
    }

    #[test]
    fn auto_split_leaves_mild_graphs_alone() {
        let csr = small(); // max degree well under the 64-edge floor
        let (dg, report) = DistGraph::build_auto_split(&csr, 4, 2);
        assert!(report.is_none());
        assert_eq!(dg.part.num_proxies(), 0);
        assert_eq!(dg.num_vertices(), csr.num_vertices());
    }

    #[test]
    fn auto_split_never_engages_on_one_rank() {
        // On a single rank there is no inter-node imbalance to fix.
        let csr = CsrBuilder::new().build(&gen::star(401, 5));
        let (dg, report) = DistGraph::build_auto_split(&csr, 1, 2);
        assert!(report.is_none());
        assert_eq!(dg.num_vertices(), csr.num_vertices());
    }

    #[test]
    fn weight_bucket_boundaries() {
        assert_eq!(weight_bucket(0), 0);
        assert_eq!(weight_bucket(1), 1);
        assert_eq!(weight_bucket(2), 2);
        assert_eq!(weight_bucket(3), 2);
        assert_eq!(weight_bucket(4), 3);
        assert_eq!(weight_bucket(255), 8);
        assert_eq!(weight_bucket(256), 9);
    }

    #[test]
    fn histogram_estimate_brackets_exact_count() {
        let csr = small();
        let dg = DistGraph::build(&csr, 3, 1);
        for r in 0..3 {
            let lg = &dg.locals[r];
            for v in 0..lg.num_local() {
                let deg = lg.degree(v) as u64;
                for bound in [1u64, 2, 5, 17, 33, 64, 100] {
                    let exact = lg.count_weight_below(v, bound as u32) as u64;
                    let est = lg.estimate_weight_below(v, bound);
                    // Linear interpolation within a power-of-two bucket is
                    // off by at most that bucket's population.
                    assert!(est <= deg);
                    let err = est.abs_diff(exact);
                    assert!(
                        err <= (exact / 2).max(4),
                        "rank {r} v {v} bound {bound}: est {est} exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn histogram_estimate_exact_at_bucket_edges() {
        // At power-of-two boundaries the estimate equals the exact count.
        let csr = small();
        let dg = DistGraph::build(&csr, 1, 1);
        let lg = &dg.locals[0];
        for v in 0..lg.num_local() {
            for bound in [1u64, 2, 4, 8, 16, 32, 64] {
                assert_eq!(
                    lg.estimate_weight_below(v, bound),
                    lg.count_weight_below(v, bound as u32) as u64
                );
            }
        }
    }

    #[test]
    fn histogram_estimate_full_range() {
        let csr = small();
        let dg = DistGraph::build(&csr, 1, 1);
        let lg = &dg.locals[0];
        for v in 0..lg.num_local() {
            assert_eq!(lg.estimate_weight_below(v, u64::MAX), lg.degree(v) as u64);
            assert_eq!(lg.estimate_weight_below(v, 0), 0);
        }
    }
}
