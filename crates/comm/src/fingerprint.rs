//! Collective-schedule fingerprints.
//!
//! Every collective a transport issues — an allreduce or a bulk exchange —
//! folds a kind code and the current epoch into a rolling 64-bit hash. Two
//! ranks (or two transports) that execute the same sequence of collectives
//! hold the same fingerprint; a rank that skips or adds a collective
//! diverges immediately and stays diverged, because the mix is
//! avalanche-quality rather than additive. The threaded runtime asserts
//! fingerprint uniformity across ranks in debug builds
//! ([`crate::threaded::RankCtx::assert_schedule_uniform`]); the static
//! counterpart is the `sssp-lint --protocol` schedule table.
//!
//! An allreduce's kind is its lane count followed by one op code per lane
//! ([`fp_reduce`](crate::fingerprint::fp_reduce)), so min, max, sum, any,
//! the window proposal and every multi-lane shape are kinds of their own,
//! and a five-lane reduce never matches the same lanes issued one by one.
//! Codes identify the operation, not the call site, so the two transports
//! can fingerprint through different plumbing while still exposing
//! per-kind divergence.

/// Min lane.
pub const FP_REDUCE_MIN: u64 = 0x12;
/// Max lane.
pub const FP_REDUCE_MAX: u64 = 0x13;
/// Sum lane.
pub const FP_REDUCE_SUM: u64 = 0x14;
/// Logical-or lane (the "any rank active?" check).
pub const FP_REDUCE_ANY: u64 = 0x15;
/// Bulk-synchronous message exchange (one superstep).
pub const FP_EXCHANGE: u64 = 0x18;
/// Epoch-window proposal lane (a min; stepping-policy window selection).
/// Its own code so a policy that adds or drops the window collective
/// diverges from one that does not, even at identical epochs.
pub const FP_WINDOW: u64 = 0x19;

/// Kind code of one allreduce whose lanes carry the op codes `ops`, in
/// lane order: the lane count, then one byte per lane. Injective for up to
/// seven lanes, and never a single-byte code like [`FP_EXCHANGE`].
#[must_use]
pub fn fp_reduce(ops: impl ExactSizeIterator<Item = u64>) -> u64 {
    let lanes = ops.len() as u64;
    ops.fold(lanes, |kind, op| kind << 8 | op)
}

/// Fold one collective of `kind` issued during `epoch` into the rolling
/// fingerprint `fp`. A splitmix64-style finalizer: order-sensitive,
/// avalanche on every input bit, and cheap enough to run unconditionally
/// (the debug gate is on the cross-rank *assertion*, not the hash).
#[inline]
#[must_use]
pub fn fp_mix(fp: u64, kind: u64, epoch: u64) -> u64 {
    let mut x =
        fp ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kind code of a reduce over the lane ops `ops`.
    fn reduce(ops: &[u64]) -> u64 {
        fp_reduce(ops.iter().copied())
    }

    #[test]
    fn mix_is_order_sensitive() {
        let min = reduce(&[FP_REDUCE_MIN]);
        let a = fp_mix(fp_mix(0, min, 1), FP_EXCHANGE, 1);
        let b = fp_mix(fp_mix(0, FP_EXCHANGE, 1), min, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_distinguishes_kind_and_epoch() {
        let base = fp_mix(0, reduce(&[FP_REDUCE_SUM]), 3);
        assert_ne!(base, fp_mix(0, reduce(&[FP_REDUCE_MAX]), 3));
        assert_ne!(base, fp_mix(0, reduce(&[FP_REDUCE_SUM]), 4));
    }

    #[test]
    fn identical_sequences_agree() {
        let run = |seed: u64| {
            let mut fp = seed;
            for epoch in 0..5 {
                fp = fp_mix(fp, reduce(&[FP_REDUCE_MIN]), epoch);
                fp = fp_mix(fp, FP_EXCHANGE, epoch);
                fp = fp_mix(fp, reduce(&[FP_REDUCE_SUM]), epoch);
            }
            fp
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1));
    }

    /// The §III-C decision's shape: two sums, three maxima.
    const FUSED: [u64; 5] = [
        FP_REDUCE_SUM,
        FP_REDUCE_SUM,
        FP_REDUCE_MAX,
        FP_REDUCE_MAX,
        FP_REDUCE_MAX,
    ];

    #[test]
    fn every_collective_kind_is_distinct() {
        // The seven kinds the transports have always told apart.
        let kinds = [
            reduce(&[FP_REDUCE_MIN]),
            reduce(&[FP_REDUCE_MAX]),
            reduce(&[FP_REDUCE_SUM]),
            reduce(&[FP_REDUCE_ANY]),
            FP_EXCHANGE,
            reduce(&[FP_WINDOW]),
            reduce(&FUSED),
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(fp_mix(0, *a, 1), fp_mix(0, *b, 1));
            }
        }
    }

    #[test]
    fn a_fused_reduce_differs_from_its_lanes_one_by_one() {
        let fused = fp_mix(0, reduce(&FUSED), 1);
        let one_by_one = FUSED.iter().fold(0, |fp, &op| fp_mix(fp, reduce(&[op]), 1));
        assert_ne!(fused, one_by_one);
        // Lane order is part of the kind.
        let mut swapped = FUSED;
        swapped.swap(1, 2);
        assert_ne!(reduce(&FUSED), reduce(&swapped));
    }
}
