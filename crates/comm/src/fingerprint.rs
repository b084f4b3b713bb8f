//! Collective-schedule fingerprints.
//!
//! Every collective a backend issues — reductions, allgathers, bulk
//! exchanges — folds a kind code and the current epoch into a rolling
//! 64-bit hash. Two ranks (or two backends) that execute the same
//! sequence of collectives hold the same fingerprint; a rank that skips
//! or adds a collective diverges immediately and stays diverged, because
//! the mix is avalanche-quality rather than additive. The threaded
//! runtime asserts fingerprint uniformity across ranks in debug builds
//! ([`crate::threaded::RankCtx::assert_schedule_uniform`]); the static
//! counterpart is the `sssp-lint --protocol` schedule table.
//!
//! Kind codes are deliberately coarse: they identify the *operation
//! family* (min-reduce vs exchange), not the call site, so the two
//! backends can fingerprint through different internal plumbing while
//! still exposing per-kind divergence.

/// Min-reduction.
pub const FP_REDUCE_MIN: u64 = 0x12;
/// Max-reduction.
pub const FP_REDUCE_MAX: u64 = 0x13;
/// Sum-reduction.
pub const FP_REDUCE_SUM: u64 = 0x14;
/// Logical-or reduction (the "any rank active?" check).
pub const FP_REDUCE_ANY: u64 = 0x15;
/// Bulk-synchronous message exchange (one superstep).
pub const FP_EXCHANGE: u64 = 0x18;
/// Epoch-window min-reduction (stepping-policy window selection). Its own
/// kind so a policy that adds or drops the window collective diverges
/// from one that does not, even at identical epochs.
pub const FP_WINDOW: u64 = 0x19;
/// Fused reduction: several sums and maxima in one collective episode (the
/// push/pull decision's inputs).
pub const FP_REDUCE_FUSED: u64 = 0x1A;

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

    #[test]
    fn mix_is_order_sensitive() {
        let a = fp_mix(fp_mix(0, FP_REDUCE_MIN, 1), FP_EXCHANGE, 1);
        let b = fp_mix(fp_mix(0, FP_EXCHANGE, 1), FP_REDUCE_MIN, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_distinguishes_kind_and_epoch() {
        let base = fp_mix(0, FP_REDUCE_SUM, 3);
        assert_ne!(base, fp_mix(0, FP_REDUCE_MAX, 3));
        assert_ne!(base, fp_mix(0, FP_REDUCE_SUM, 4));
    }

    #[test]
    fn identical_sequences_agree() {
        let run = |seed: u64| {
            let mut fp = seed;
            for epoch in 0..5 {
                fp = fp_mix(fp, FP_REDUCE_MIN, epoch);
                fp = fp_mix(fp, FP_EXCHANGE, epoch);
                fp = fp_mix(fp, FP_REDUCE_SUM, epoch);
            }
            fp
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1));
    }
}
