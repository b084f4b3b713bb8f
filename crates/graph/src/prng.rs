//! Small deterministic PRNG utilities.
//!
//! Graph generation must be reproducible across runs, thread counts and rank
//! counts, so the generators never share mutable PRNG state: every edge is
//! derived from a stateless hash of `(seed, edge_index)`. SplitMix64 is the
//! standard choice for this kind of counter-based generation — it passes
//! BigCrush and costs a handful of arithmetic ops.

use rayon::prelude::*;

/// Items per work unit of [`par_for_each_indexed`]: a chunk handle is noise
/// next to this much work, and a graph of a few thousand edges already
/// spreads over every worker.
const CHUNK: usize = 1 << 12;

/// Run `f(i, &mut out[i])` for every index, in parallel over disjoint
/// chunks of `out`. Each worker writes only the chunks it is handed, so with
/// draws keyed by `(seed, i)` the result is independent of the worker count.
pub(crate) fn par_for_each_indexed<T: Send>(out: &mut [T], f: impl Fn(u64, &mut T) + Sync) {
    out.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(c, chunk)| {
            for (i, slot) in ((c * CHUNK) as u64..).zip(chunk) {
                f(i, slot);
            }
        });
}

/// One SplitMix64 scrambling round.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny stateful SplitMix64 stream, seeded from a key.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeded generator (same seed, same sequence, forever).
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Derive an independent stream for a sub-object (e.g. one edge).
    pub fn derive(seed: u64, index: u64) -> Self {
        // Mix the index in twice so that adjacent indices diverge fully.
        SplitMix {
            state: splitmix64(seed ^ splitmix64(index)),
        }
    }

    #[inline]
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` via 128-bit multiply (Lemire's method).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_streams_differ() {
        let mut a = SplitMix::derive(7, 0);
        let mut b = SplitMix::derive(7, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix::new(123);
        for _ in 0..10_000 {
            let x = rng.next_below(17);
            assert!(x < 17);
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = SplitMix::new(99);
        let mut counts = [0usize; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[rng.next_below(8) as usize] += 1;
        }
        let expected = draws / 8;
        for &c in &counts {
            // 10% tolerance is ~13 sigma for a binomial with p=1/8.
            assert!((c as i64 - expected as i64).unsigned_abs() < expected as u64 / 10);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
