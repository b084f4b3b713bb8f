//! Vertex → rank ownership.
//!
//! Original ("base") vertices use the paper's **block** distribution by
//! default: `owner(v) = v / ⌈n/P⌉`. A **cyclic** distribution
//! (`owner(v) = v mod P`) is also provided — the standard Graph 500
//! counter-measure when vertex ids correlate with degree (un-scrambled
//! R-MAT generators place all hubs at low ids, which block distribution
//! would pile onto rank 0). Proxy vertices created by the splitting load
//! balancer occupy the id range `[n_base, n_base + n_proxy)` and are
//! always round-robin distributed, which is what scatters a split hub's
//! shards across distinct ranks.
//!
//! A `DistGraph` consults its partition only while it is built and where
//! the input's ids cross its API (`DistGraph::locate` /
//! `DistGraph::vertex`): the partition decides each vertex's owner, the
//! rank stores its vertices hub-first, and everything inside the graph
//! names a vertex by its rank address (`sssp_dist::Addr`).

use sssp_graph::VertexId;

/// How base vertices map to ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Contiguous blocks of `⌈n/P⌉` vertices per rank (the paper's layout).
    Block,
    /// Round-robin: vertex `v` on rank `v mod P`.
    Cyclic,
}

/// Block-or-cyclic + proxy-region partition of `n_base + n_proxy` vertices
/// over `p` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    kind: PartitionKind,
    n_base: usize,
    n_proxy: usize,
    p: usize,
    block: usize,
}

impl Partition {
    /// Block-partition `n_base` vertices (no proxies) over `p` ranks.
    pub fn new(n_base: usize, p: usize) -> Self {
        Self::with_proxies(n_base, 0, p)
    }

    /// Block partition with an additional proxy region.
    pub fn with_proxies(n_base: usize, n_proxy: usize, p: usize) -> Self {
        Self::with_kind(PartitionKind::Block, n_base, n_proxy, p)
    }

    /// Cyclic-partition `n_base` vertices (no proxies) over `p` ranks.
    pub fn cyclic(n_base: usize, p: usize) -> Self {
        Self::with_kind(PartitionKind::Cyclic, n_base, 0, p)
    }

    /// Fully general constructor.
    pub fn with_kind(kind: PartitionKind, n_base: usize, n_proxy: usize, p: usize) -> Self {
        assert!(p > 0, "at least one rank required");
        let block = n_base.div_ceil(p).max(1);
        Partition {
            kind,
            n_base,
            n_proxy,
            p,
            block,
        }
    }

    /// Which distribution scheme this partition uses.
    pub fn kind(&self) -> PartitionKind {
        self.kind
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

    /// Owning rank of global vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        let v = v as usize;
        debug_assert!(v < self.num_vertices());
        if v < self.n_base {
            match self.kind {
                PartitionKind::Block => (v / self.block).min(self.p - 1),
                PartitionKind::Cyclic => v % self.p,
            }
        } else {
            (v - self.n_base) % self.p
        }
    }

    /// Number of base vertices owned by `rank`.
    pub fn base_count(&self, rank: usize) -> usize {
        match self.kind {
            PartitionKind::Block => {
                let lo = (rank * self.block).min(self.n_base);
                let hi = ((rank + 1) * self.block).min(self.n_base);
                hi - lo
            }
            PartitionKind::Cyclic => {
                if self.n_base == 0 {
                    0
                } else {
                    (self.n_base + self.p - 1 - rank) / self.p
                }
            }
        }
    }

    /// Number of proxy vertices owned by `rank`.
    pub fn proxy_count(&self, rank: usize) -> usize {
        if self.n_proxy == 0 {
            return 0;
        }
        // Count of i in [0, n_proxy) with i % p == rank.
        (self.n_proxy + self.p - 1 - rank) / self.p
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
        if v < self.n_base {
            match self.kind {
                PartitionKind::Block => v - self.owner(sssp_graph::checked_u32(v)) * self.block,
                PartitionKind::Cyclic => v / self.p,
            }
        } else {
            let pi = v - self.n_base;
            let rank = pi % self.p;
            self.base_count(rank) + pi / self.p
        }
    }

    /// Global id of `local` on `rank` (inverse of [`Self::to_local`]).
    #[inline]
    pub fn to_global(&self, rank: usize, local: usize) -> VertexId {
        let base = self.base_count(rank);
        if local < base {
            match self.kind {
                PartitionKind::Block => sssp_graph::checked_u32(rank * self.block + local),
                PartitionKind::Cyclic => sssp_graph::checked_u32(local * self.p + rank),
            }
        } else {
            sssp_graph::checked_u32(self.n_base + (local - base) * self.p + rank)
        }
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
    fn cyclic_with_proxies_roundtrip() {
        let part = Partition::with_kind(PartitionKind::Cyclic, 20, 9, 4);
        for v in 0..29u32 {
            let r = part.owner(v);
            let l = part.to_local(v);
            assert_eq!(part.to_global(r, l), v, "v={v}");
        }
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
