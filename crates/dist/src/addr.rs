//! Rank addresses: the internal vertex ids of a [`DistGraph`].
//!
//! An internal id names where a vertex is stored, `owner << shift | local`,
//! so the rank that owns it and its slot there are one shift and one mask
//! away. [`DistGraph::build_with_partition`] fixes the encoding once from
//! the largest per-rank vertex count; [`LocalGraph`] targets and every
//! engine message carry addresses, and the per-edge loops never consult
//! the [`Partition`] again.
//!
//! [`DistGraph`]: crate::DistGraph
//! [`DistGraph::build_with_partition`]: crate::DistGraph::build_with_partition
//! [`LocalGraph`]: crate::LocalGraph
//! [`Partition`]: crate::Partition

use sssp_graph::VertexId;

/// The rank-address encoding of one distributed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Addr {
    /// Bit width of the largest local index.
    shift: u32,
    /// `2^shift − 1`: the local-index bits.
    mask: u32,
    /// One past the largest address of the last rank, `p << shift`.
    end: usize,
}

impl Addr {
    /// The encoding for `p` ranks storing at most `max_local` vertices
    /// each: `shift` is the bit width of the largest local index
    /// (`max_local − 1`).
    ///
    /// # Panics
    ///
    /// When `p` is zero, or when the addresses do not fit in a
    /// [`VertexId`] (`p << shift > 2^32`): an address is never wrapped.
    pub fn new(p: usize, max_local: usize) -> Self {
        assert!(p > 0, "at least one rank required");
        let shift = usize::BITS - max_local.saturating_sub(1).leading_zeros();
        let end = (p as u128) << shift;
        assert!(
            end <= 1 << VertexId::BITS,
            "rank addresses overflow u32: {p} ranks of up to {max_local} vertices \
             need {shift} local bits"
        );
        Addr {
            shift,
            mask: u32::MAX.checked_shr(VertexId::BITS - shift).unwrap_or(0),
            end: end as usize,
        }
    }

    /// Owning rank of the address `a`.
    #[inline]
    pub fn owner(self, a: VertexId) -> usize {
        (u64::from(a) >> self.shift) as usize
    }

    /// Local index of the address `a` on its owning rank.
    #[inline]
    pub fn local(self, a: VertexId) -> u32 {
        a & self.mask
    }

    /// The address of slot `local` on `rank`.
    #[inline]
    pub fn encode(self, rank: usize, local: usize) -> VertexId {
        debug_assert!(
            local <= self.mask as usize,
            "local {local} exceeds the mask"
        );
        sssp_graph::checked_u32(rank << self.shift | local)
    }

    /// One past the largest address: the extent of a table indexed by
    /// address.
    #[inline]
    pub fn end(self) -> usize {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_packing() {
        for (p, max_local) in [(1, 0), (1, 1), (2, 1), (3, 5), (4, 8), (5, 9), (8, 1000)] {
            let addr = Addr::new(p, max_local);
            assert!(addr.end() >= p * max_local);
            assert!(addr.end() < 2 * p * max_local.max(1));
            for rank in 0..p {
                for local in 0..max_local {
                    let a = addr.encode(rank, local);
                    assert!((a as usize) < addr.end());
                    assert_eq!((addr.owner(a), addr.local(a) as usize), (rank, local));
                }
            }
        }
    }

    #[test]
    fn width_check_holds_at_the_u32_boundary() {
        // One rank of 2^32 slots: 32 local bits, no owner bits.
        let addr = Addr::new(1, 1 << 32);
        assert_eq!(addr.end(), 1 << 32);
        assert_eq!((addr.owner(u32::MAX), addr.local(u32::MAX)), (0, u32::MAX));
        // Two ranks of 2^31 slots: the top bit names the owner.
        let addr = Addr::new(2, 1 << 31);
        assert_eq!(addr.encode(1, (1 << 31) - 1), u32::MAX);
        assert_eq!(
            (addr.owner(u32::MAX), addr.local(u32::MAX)),
            (1, (1 << 31) - 1)
        );
        // Past the boundary every case fails loudly instead of wrapping.
        for (p, max_local) in [(1, (1 << 32) + 1), (2, (1 << 31) + 1), (3, 1 << 31)] {
            let caught = std::panic::catch_unwind(|| Addr::new(p, max_local));
            let msg = caught.expect_err("an oversized encoding must panic");
            let msg = msg.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("rank addresses overflow u32"), "{msg}");
        }
    }
}
