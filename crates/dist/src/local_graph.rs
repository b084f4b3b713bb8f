//! Per-rank CSR slices and the assembled distributed graph.

use rayon::prelude::*;
use sssp_graph::{Csr, VertexId, Weight};

use crate::addr::Addr;
use crate::partition::Partition;

/// The adjacency of one rank's vertices. Rows are indexed by *local* vertex
/// id and keep the weight-sorted order inherited from the global CSR, so the
/// short/long split, the IOS inner bound and the pull-request count are all
/// binary searches here too.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>, // rank addresses (see `DistGraph`)
    weights: Vec<Weight>,
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
        let mut lg = Self::zeroed(rows.len(), edges);
        let slotted = rows.iter().enumerate();
        lg.fill(slotted.map(|(i, (t, w))| (i, &t[..], &w[..])), |t| t);
        lg
    }

    /// Zeroed arrays for `rows` rows and `edges` edge slots. [`DistGraph`]
    /// sizes every rank's arrays this way on the calling thread before any
    /// worker fills them.
    fn zeroed(rows: usize, edges: usize) -> Self {
        LocalGraph {
            offsets: vec![0; rows + 1],
            targets: vec![0; edges],
            weights: vec![0; edges],
        }
    }

    /// Copy every `(slot, targets, weights)` of `rows` into row `slot` of
    /// the arrays [`Self::zeroed`] sized, each target through `id`. `rows`
    /// names every slot once and is walked twice: for the row lengths, then
    /// to copy.
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
/// *internal* id is its rank address `addr.encode(owner, position)`
/// ([`Addr`]), and [`LocalGraph`] targets and every message carry
/// addresses. [`DistGraph::locate`] / [`DistGraph::vertex`] translate
/// between the two; [`Partition`] decides ownership and is consulted only
/// while building and at that boundary.
#[derive(Debug, Clone)]
pub struct DistGraph {
    /// The vertex partition shared by all ranks.
    pub part: Partition,
    /// The rank-address encoding of the internal ids.
    pub addr: Addr,
    /// Per-rank adjacency slices, indexed by rank.
    pub locals: Vec<LocalGraph>,
    /// Logical threads per rank (for the intra-node load model).
    pub threads_per_rank: usize,
    /// Directed edge slots over all ranks (2× undirected count).
    pub m_directed: u64,
    /// Undirected edge count of the *input* graph (pre-splitting); this is
    /// the `m` in the benchmark's `TEPS = m / t`.
    pub m_input_undirected: u64,
    /// Rank address of each external id.
    internal: Vec<VertexId>,
    /// External id of the vertex stored at `local` on `rank`, at index
    /// `part.to_global(rank, local)`.
    external: Vec<VertexId>,
    /// Smallest and largest edge weight, `(u64::MAX, 0)` when edgeless.
    weight_range: (u64, u64),
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
    /// order with its targets translated to rank addresses: the owner and
    /// slot of every edge's target are resolved here, once.
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
        let p = part.num_ranks();
        let addr = Addr::new(p, (0..p).map(|r| part.local_count(r)).max().unwrap_or(0));
        let (mut internal, mut external) = (vec![0; n], vec![0; n]);
        for (rank, slots) in slots.iter().enumerate() {
            for (l, &at) in slots.iter().enumerate() {
                let x = part.to_global(rank, l);
                internal[x as usize] = addr.encode(rank, at as usize);
                external[part.to_global(rank, at as usize) as usize] = x;
            }
        }
        let (locals, weight_range) = Self::slice(csr, &part, &slots, &internal);
        DistGraph {
            part,
            addr,
            locals,
            threads_per_rank,
            m_directed: csr.num_directed_edges() as u64,
            m_input_undirected,
            internal,
            external,
            weight_range,
        }
    }

    /// Cut `csr` into one [`LocalGraph`] per rank, the row of rank `r`'s
    /// local `l` in slot `slots[r][l]`, with targets mapped through
    /// `internal` to their rank addresses, and return the graph's weight
    /// range with them. Every rank's arrays are sized and allocated here, on
    /// the calling thread, from the row lengths, which is also where the
    /// weight range is read (rows are weight-sorted, so each row's first
    /// and last weight suffice); the workers then only copy rows into the
    /// arrays they are handed, one rank each, reading the CSR in order.
    fn slice(
        csr: &Csr,
        part: &Partition,
        slots: &[Vec<u32>],
        internal: &[VertexId],
    ) -> (Vec<LocalGraph>, (u64, u64)) {
        let (mut lo, mut hi) = (u64::MAX, 0);
        let mut locals: Vec<LocalGraph> = (0..part.num_ranks())
            .map(|rank| {
                let mut edges = 0;
                for l in 0..part.local_count(rank) {
                    let (_, w) = csr.row_slices(part.to_global(rank, l));
                    if let (Some(&first), Some(&last)) = (w.first(), w.last()) {
                        lo = lo.min(u64::from(first));
                        hi = hi.max(u64::from(last));
                    }
                    edges += w.len();
                }
                LocalGraph::zeroed(part.local_count(rank), edges)
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
        (locals, (lo, hi))
    }

    /// Owner rank and local index of the external vertex `v`.
    #[inline]
    pub fn locate(&self, v: VertexId) -> (usize, usize) {
        let a = self.internal[v as usize];
        (self.addr.owner(a), self.addr.local(a) as usize)
    }

    /// External id of the vertex stored at `local` on `rank`.
    #[inline]
    pub fn vertex(&self, rank: usize, local: usize) -> VertexId {
        self.external[self.part.to_global(rank, local) as usize]
    }

    /// External ids of every vertex stored on `rank`, in local order:
    /// [`DistGraph::vertex`] of each local index, read run by run
    /// ([`Partition::runs`]) instead of one division per vertex.
    pub fn vertices(&self, rank: usize) -> impl Iterator<Item = VertexId> + '_ {
        let runs = self.part.runs(rank);
        runs.flat_map(|(locals, first)| self.external[first..first + locals.len()].iter().copied())
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

    /// Smallest and largest edge weight of the graph, `(u64::MAX, 0)` when
    /// it has no edge. Recorded while slicing.
    #[inline]
    pub fn weight_range(&self) -> (u64, u64) {
        self.weight_range
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
                .map(|&a| dg.vertex(dg.addr.owner(a), dg.addr.local(a) as usize))
                .collect();
            let (gt, gw) = csr.row_slices(v);
            assert_eq!(t, gt);
            assert_eq!(w, gw);
        }
    }

    #[test]
    fn weight_range_spans_every_row() {
        let csr = small();
        let ws = csr.vertices().flat_map(|v| csr.row_slices(v).1.to_vec());
        let (lo, hi) = ws.fold((u64::MAX, 0), |(lo, hi), w| {
            (lo.min(u64::from(w)), hi.max(u64::from(w)))
        });
        for p in [1, 3, 7] {
            assert_eq!(DistGraph::build(&csr, p, 2).weight_range(), (lo, hi));
        }
        let edgeless = CsrBuilder::new().build(&gen::uniform(5, 0, 9, 1));
        assert_eq!(
            DistGraph::build(&edgeless, 2, 1).weight_range(),
            (u64::MAX, 0)
        );
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
}
