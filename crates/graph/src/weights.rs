//! Edge weight assignment.
//!
//! The Graph 500 SSSP proposal assigns each edge an independent uniform
//! integer weight; the paper uses the range `[0, 255]`. The SSSP problem
//! statement in §II requires `w(e) > 0`, so the default here draws from
//! `[1, w_max]` — the shift is immaterial to every experiment (it changes no
//! ordering of weights and keeps the same short/long split statistics for any
//! `Δ > 1`). Zero-weight edges remain fully supported by the engine because
//! the vertex-splitting load balancer introduces them deliberately.

use crate::prng::{par_for_each_indexed, SplitMix};
use crate::{EdgeList, Weight};

/// Weight of edge `index` under `seed`: uniform in `[1, w_max]` and a
/// function of `(seed, index)` alone, so an assignment is deterministic and
/// parallel.
#[inline]
pub(crate) fn uniform_weight(seed: u64, index: u64, w_max: u32) -> Weight {
    1 + SplitMix::derive(seed, index).next_below(u64::from(w_max)) as Weight
}

/// Re-weight an existing edge list in place with uniform weights in
/// `[1, w_max]`.
pub fn assign_uniform_weights(el: &mut EdgeList, w_max: u32, seed: u64) {
    assert!(w_max >= 1, "w_max must be at least 1");
    par_for_each_indexed(&mut el.edges, |i, e| e.w = uniform_weight(seed, i, w_max));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::{RmatGenerator, RmatParams};

    fn weighted(edges_log2: u32, w_max: u32, seed: u64) -> EdgeList {
        RmatGenerator::new(RmatParams::RMAT2, edges_log2 - 3, 8)
            .seed(seed)
            .generate_weighted(w_max)
    }

    #[test]
    fn weights_in_range() {
        let el = weighted(7, 255, 9);
        for e in &el.edges {
            assert!((1..=255).contains(&e.w));
        }
    }

    #[test]
    fn weights_deterministic() {
        let a = weighted(6, 255, 3);
        let b = weighted(6, 255, 3);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn weights_roughly_uniform() {
        let el = weighted(15, 4, 17);
        let mut counts = [0usize; 5];
        for e in &el.edges {
            counts[e.w as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        for &c in &counts[1..=4] {
            assert!(c > 7_000, "weight bucket too small: {c}");
        }
    }

    #[test]
    fn reweight_in_place_changes_only_weights() {
        let mut el = weighted(4, 255, 1);
        let before: Vec<_> = el.edges.iter().map(|e| (e.u, e.v)).collect();
        assign_uniform_weights(&mut el, 10, 2);
        let after: Vec<_> = el.edges.iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(before, after);
        assert!(el.edges.iter().all(|e| (1..=10).contains(&e.w)));
    }

    #[test]
    fn w_max_one_gives_unit_weights() {
        let el = weighted(4, 1, 5);
        assert!(el.edges.iter().all(|e| e.w == 1));
    }
}
