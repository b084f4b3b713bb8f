//! Vertex → rank ownership.
//!
//! Every vertex range is laid out **block-cyclically**: blocks of `b`
//! consecutive ids are dealt to the ranks in turn, so
//! `owner(v) = (v / b) mod P` and `v` sits at local index
//! `(v / (b·P))·b + v mod b` on its owner. The two layouts in use are the
//! ends of that formula. **Block** (`b = ⌈n/P⌉`, the default) is the
//! paper's contiguous layout. **Cyclic** (`b = 1`) is the standard
//! Graph 500 counter-measure when vertex ids correlate with degree
//! (un-scrambled R-MAT generators place all hubs at low ids, which block
//! distribution would pile onto rank 0). Proxy vertices created by the
//! splitting load balancer occupy the id range `[n_base, n_base + n_proxy)`
//! and are laid out cyclically over that range, which is what scatters a
//! split hub's shards across distinct ranks.
//!
//! A `DistGraph` consults its partition only while it is built and where
//! the input's ids cross its API (`DistGraph::locate` /
//! `DistGraph::vertex`): the partition decides each vertex's owner, the
//! rank stores its vertices hub-first, and everything inside the graph
//! names a vertex by its rank address (`sssp_dist::Addr`).

use sssp_graph::VertexId;

/// Block-cyclic partition of `n_base` base vertices plus a cyclic proxy
/// region of `n_proxy` vertices over `p` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    n_base: usize,
    n_proxy: usize,
    p: usize,
    /// Base vertices per block: `⌈n_base/p⌉` (block) or 1 (cyclic).
    block: usize,
}

impl Partition {
    /// Block-partition `n_base` vertices (no proxies) over `p` ranks.
    pub fn new(n_base: usize, p: usize) -> Self {
        Self::with_proxies(n_base, 0, p)
    }

    /// Block partition with an additional proxy region.
    pub fn with_proxies(n_base: usize, n_proxy: usize, p: usize) -> Self {
        Self::with_layout(n_base, n_proxy, p, false)
    }

    /// Cyclic-partition `n_base` vertices (no proxies) over `p` ranks.
    pub fn cyclic(n_base: usize, p: usize) -> Self {
        Self::with_layout(n_base, 0, p, true)
    }

    fn with_layout(n_base: usize, n_proxy: usize, p: usize, cyclic: bool) -> Self {
        assert!(p > 0, "at least one rank required");
        let block = if cyclic { 1 } else { n_base.div_ceil(p).max(1) };
        Partition {
            n_base,
            n_proxy,
            p,
            block,
        }
    }

    #[inline]
    /// Number of ranks `P`.
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    #[inline]
    /// Total vertex count (base + proxies).
    pub fn num_vertices(&self) -> usize {
        self.n_base + self.n_proxy
    }

    #[inline]
    /// Number of original (non-proxy) vertices.
    pub fn num_base(&self) -> usize {
        self.n_base
    }

    #[inline]
    /// Number of proxy vertices appended by splitting.
    pub fn num_proxies(&self) -> usize {
        self.n_proxy
    }

    #[inline]
    /// Is `v` a proxy introduced by vertex splitting?
    pub fn is_proxy(&self, v: VertexId) -> bool {
        (v as usize) >= self.n_base
    }

    /// Owning rank of global vertex `v`. Here and below, the `i`-th proxy
    /// is placed by the module's formula at `b = 1`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        let v = v as usize;
        debug_assert!(v < self.num_vertices());
        match v.checked_sub(self.n_base) {
            None => v / self.block % self.p,
            Some(i) => i % self.p,
        }
    }

    /// Number of ids of a block-cyclic range of `n` (blocks of `b`) that
    /// `rank` owns: the full rounds, plus its share of the last one.
    fn count_in(&self, n: usize, b: usize, rank: usize) -> usize {
        let round = b * self.p;
        n / round * b + (n % round).saturating_sub(rank * b).min(b)
    }

    /// Number of base vertices owned by `rank`.
    pub fn base_count(&self, rank: usize) -> usize {
        self.count_in(self.n_base, self.block, rank)
    }

    /// Number of proxy vertices owned by `rank`.
    pub fn proxy_count(&self, rank: usize) -> usize {
        self.count_in(self.n_proxy, 1, rank)
    }

    /// Total vertices owned by `rank`.
    pub fn local_count(&self, rank: usize) -> usize {
        self.base_count(rank) + self.proxy_count(rank)
    }

    /// Local index of global vertex `v` on its owning rank. Base vertices
    /// come first (in ascending global-id order), then the rank's proxies.
    #[inline]
    pub fn to_local(&self, v: VertexId) -> usize {
        let v = v as usize;
        let b = self.block;
        match v.checked_sub(self.n_base) {
            None => v / (b * self.p) * b + v % b,
            Some(i) => self.base_count(i % self.p) + i / self.p,
        }
    }

    /// Global id of `local` on `rank` (inverse of [`Self::to_local`]).
    #[inline]
    pub fn to_global(&self, rank: usize, local: usize) -> VertexId {
        let b = self.block;
        let v = match local.checked_sub(self.base_count(rank)) {
            None => local / b * b * self.p + rank * b + local % b,
            Some(i) => self.n_base + i * self.p + rank,
        };
        sssp_graph::checked_u32(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_base_only() {
        let part = Partition::new(100, 7);
        for v in 0..100u32 {
            let r = part.owner(v);
            let l = part.to_local(v);
            assert!(l < part.local_count(r));
            assert_eq!(part.to_global(r, l), v);
        }
    }

    #[test]
    fn roundtrip_with_proxies() {
        let part = Partition::with_proxies(50, 23, 4);
        for v in 0..73u32 {
            let r = part.owner(v);
            let l = part.to_local(v);
            assert!(l < part.local_count(r), "v={v} r={r} l={l}");
            assert_eq!(part.to_global(r, l), v, "v={v}");
        }
    }

    #[test]
    fn counts_sum_to_n() {
        for (n, np, p) in [(100, 0, 7), (64, 13, 4), (5, 100, 8), (0, 3, 2)] {
            let part = Partition::with_proxies(n, np, p);
            let total: usize = (0..p).map(|r| part.local_count(r)).sum();
            assert_eq!(total, n + np);
        }
    }

    #[test]
    fn proxies_are_round_robin() {
        let part = Partition::with_proxies(10, 8, 4);
        // Proxy i (global 10 + i) should land on rank i % 4.
        for i in 0..8u32 {
            assert_eq!(part.owner(10 + i), (i % 4) as usize);
        }
    }

    #[test]
    fn block_distribution_is_contiguous() {
        let part = Partition::new(16, 4);
        for v in 0..16u32 {
            assert_eq!(part.owner(v), (v / 4) as usize);
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        let part = Partition::with_proxies(10, 5, 1);
        for v in 0..15u32 {
            assert_eq!(part.owner(v), 0);
            assert_eq!(part.to_global(0, part.to_local(v)), v);
        }
    }

    #[test]
    fn more_ranks_than_vertices() {
        let part = Partition::new(3, 8);
        let total: usize = (0..8).map(|r| part.local_count(r)).sum();
        assert_eq!(total, 3);
        for v in 0..3u32 {
            let r = part.owner(v);
            assert_eq!(part.to_global(r, part.to_local(v)), v);
        }
    }

    #[test]
    fn is_proxy_boundary() {
        let part = Partition::with_proxies(5, 2, 2);
        assert!(!part.is_proxy(4));
        assert!(part.is_proxy(5));
        assert!(part.is_proxy(6));
    }

    #[test]
    fn cyclic_roundtrip() {
        let part = Partition::cyclic(101, 7);
        for v in 0..101u32 {
            assert_eq!(part.owner(v), (v % 7) as usize);
            let r = part.owner(v);
            let l = part.to_local(v);
            assert!(l < part.local_count(r));
            assert_eq!(part.to_global(r, l), v);
        }
        let total: usize = (0..7).map(|r| part.local_count(r)).sum();
        assert_eq!(total, 101);
    }

    #[test]
    fn cyclic_balances_clustered_ids() {
        // First 10 ids (the "hubs" in an unscrambled R-MAT) spread evenly
        // under cyclic but pile onto rank 0 under block.
        let block = Partition::new(100, 10);
        let cyclic = Partition::cyclic(100, 10);
        let block_r0 = (0..10u32).filter(|&v| block.owner(v) == 0).count();
        let cyclic_r0 = (0..10u32).filter(|&v| cyclic.owner(v) == 0).count();
        assert_eq!(block_r0, 10);
        assert_eq!(cyclic_r0, 1);
    }
}
