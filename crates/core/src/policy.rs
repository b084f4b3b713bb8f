//! Stepping policies: a bucket width Δ plus a window rule.
//!
//! Dong et al.'s stepping-algorithm framework shows Dijkstra, Δ-stepping,
//! Bellman-Ford, ρ-stepping and Blelloch et al.'s radius stepping are one
//! lazy-batched priority structure that differs only in its step rule.
//! Here that is literal: a [`Policy`] buckets tentative distances at width
//! Δ ([`DeltaParam::bucket_of`]), and its rule ([`SteppingPolicyKind`])
//! decides how far past the globally smallest non-empty bucket one epoch
//! may reach — the [`EpochWindow`], which also fixes the short/long weight
//! boundary the IOS split and the push/pull machinery use.
//!
//! The engine's correctness does not depend on *which* window a rule
//! picks, only on the window being a contiguous bucket range starting at
//! the globally smallest non-empty bucket: the in-window relaxation
//! fixpoint plus the settled prefix below the window make any such window
//! a generalized Δ-stepping bucket. Rules therefore only trade off phase
//! counts against redundant relaxations — exactly the Δ sweep of Fig. 9,
//! generalized.
//!
//! Three rules ship:
//!
//! * `Delta` — the paper's Δ-stepping (the default). One bucket per epoch;
//!   no window collective.
//! * `Rho(ρ)` — ρ-stepping at Δ = 1: each epoch extends the window until
//!   ≈ρ vertices (cap ⌈ρ/p⌉ per rank) are inside, found with one
//!   min-reduce (the `Lane::Window` lane) over per-rank prefix proposals.
//! * `Radius(ρ)` — radius stepping at Δ = 1: the window reaches to the
//!   frontier minimum of `d(v) + r(v)`, where `r(v)` is the ρ-th smallest
//!   incident edge weight, again via one window min-reduce.
//!
//! After the hybrid switch every rule's window also reaches at least the
//! tail's floor: 2, 4, 8, … buckets, capped at the one-hop horizon
//! ⌊w_max/Δ⌋ + 1 (DESIGN.md §6g).

use sssp_dist::LocalGraph;

use crate::config::{DeltaParam, SsspConfig, SteppingPolicyKind};
use crate::state::RankState;

/// The "no constraint" window proposal a rank feeds into the window
/// collective when its local state does not bound the epoch window. One
/// below the epoch-selection sentinel (`u64::MAX`), so a window can never
/// collide with "no bucket left".
pub const NO_PROPOSAL: u64 = u64::MAX - 1;

/// The contiguous bucket range one epoch processes, plus the distance
/// bounds the kernels cut edges against. For Δ-stepping this degenerates
/// to the classic single bucket `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWindow {
    /// First bucket of the window (the globally smallest non-empty one).
    pub lo: u64,
    /// Last bucket of the window (inclusive).
    pub hi: u64,
    /// Smallest tentative distance any window member can have — the pull
    /// threshold base of eq. 1 (`kΔ` under Δ-stepping).
    pub start_dist: u64,
    /// Largest tentative distance belonging to the window (inclusive) —
    /// the IOS inner-edge bound.
    pub end_dist: u64,
    /// The short/long weight boundary: an edge is short iff
    /// `w < short_bound`. Carried here so the kernels need no policy
    /// reference on their hot paths.
    pub short_bound: u64,
}

impl EpochWindow {
    /// Whether bucket `b` lies inside the window.
    #[inline]
    pub fn contains(&self, b: u64) -> bool {
        self.lo <= b && b <= self.hi
    }
}

/// A run's stepping policy: the bucket width and the window rule, resolved
/// once from the config. DESIGN.md §6g spells out what a rule may and may
/// not do between collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Bucket width Δ: distances map to bucket ⌊d/Δ⌋ under every rule.
    pub delta: DeltaParam,
    /// How far past the selected bucket an epoch's window reaches.
    pub rule: SteppingPolicyKind,
    /// Ranks sharing the ρ rule's vertex budget.
    ranks: u64,
    /// The one-hop horizon ⌊w_max/Δ⌋ + 1: how many buckets one edge can
    /// span from the bucket its tail sits in, and so the widest hybrid-tail
    /// floor. `u64::MAX` at Δ = ∞.
    horizon: u64,
}

impl Policy {
    /// The run's policy for `cfg` on `ranks` ranks over a graph whose
    /// largest edge weight is `max_weight` (0 when it has no edge).
    pub fn new(cfg: &SsspConfig, ranks: usize, max_weight: u64) -> Policy {
        let horizon = match cfg.delta {
            DeltaParam::Finite(delta) => (max_weight / u64::from(delta.max(1))).saturating_add(1),
            DeltaParam::Infinite => u64::MAX,
        };
        Policy {
            delta: cfg.delta,
            rule: cfg.policy,
            ranks: ranks.max(1) as u64,
            horizon,
        }
    }

    /// Whether the rule widens windows past the selected bucket, i.e. runs
    /// the window collective.
    pub fn multi_bucket(&self) -> bool {
        self.rule != SteppingPolicyKind::Delta
    }

    /// The short/long weight boundary of a one-bucket window: an edge is
    /// short iff `w < short_bound()`.
    pub fn short_bound(&self) -> u64 {
        self.window(0, 0, None).short_bound
    }

    /// The epoch window from the selected bucket `k` and the globally
    /// reduced window end `hi` (`k` itself under the `Delta` rule; an `hi`
    /// below `k` clamps to `k`). `tail` is the number of epochs since the
    /// hybrid switch: the j-th tail epoch reaches at least
    /// min(2^(j+1), H) buckets, H the one-hop horizon — a bounded step where
    /// the paper merges every remaining bucket into Bellman-Ford rounds.
    /// Every vertex reached when the epoch opens lies within H buckets of
    /// `k`; a wider floor only adds buckets its own fixpoint must discover.
    pub fn window(&self, k: u64, hi: u64, tail: Option<u32>) -> EpochWindow {
        let floor = tail.map_or(k, |j| {
            let width = 2u64.saturating_pow(j + 1).min(self.horizon);
            k.saturating_add(width - 1)
        });
        let hi = hi.max(floor).min(NO_PROPOSAL);
        let start_dist = match self.delta {
            DeltaParam::Finite(delta) => k.saturating_mul(delta as u64),
            DeltaParam::Infinite => 0,
        };
        // A bucket or tail window's short bound is its width in distance,
        // so the short-phase fixpoint still covers every edge that can land
        // inside it; ρ and radius windows call every edge short.
        let short_bound = match (self.rule, self.delta) {
            (SteppingPolicyKind::Delta, DeltaParam::Finite(delta)) => {
                (hi - k + 1).saturating_mul(delta as u64)
            }
            _ => u64::MAX,
        };
        EpochWindow {
            lo: k,
            hi,
            start_dist,
            end_dist: self.delta.bucket_end(hi),
            short_bound,
        }
    }

    /// This rank's proposal for the window end, fed into the window lane.
    /// Depends only on rank-local state that is itself a deterministic
    /// function of the (deterministic) message history — never on rank id
    /// or timing. [`NO_PROPOSAL`] when the local state imposes no bound.
    pub fn proposal(&self, st: &RankState, lg: &LocalGraph, k: u64) -> u64 {
        match self.rule {
            SteppingPolicyKind::Delta => NO_PROPOSAL,
            SteppingPolicyKind::Rho(rho) => st.prefix_window_end(k, self.rho_cap(rho)),
            SteppingPolicyKind::Radius(rho) => {
                // The ball bound is min d(v) + r(v) over the whole
                // unsettled frontier — every reached vertex in bucket ≥ k,
                // not bucket k alone: a later member with a light edge can
                // bound it tighter. At Δ = 1 d(v) is the bucket index b, so
                // walking the buckets in order may stop once b reaches the
                // best ball: no member from there on can beat it.
                let mut best = NO_PROPOSAL;
                let mut next = st.next_nonempty_after(k.checked_sub(1));
                while let Some(b) = next.filter(|&b| b < best) {
                    for ul in st.bucket_members(b) {
                        best = best.min(b.saturating_add(radius(lg, ul, rho)));
                    }
                    next = st.next_nonempty_after(Some(b));
                }
                best.min(NO_PROPOSAL)
            }
        }
    }

    /// The ρ rule's per-rank window cap `⌈ρ/p⌉` (at least 1).
    fn rho_cap(&self, rho: u32) -> u64 {
        u64::from(rho).div_ceil(self.ranks).max(1)
    }
}

/// The radius of local vertex `ul`: its ρ-th smallest incident edge weight
/// (the last one when the row is shorter, 0 when isolated). Rows are
/// weight-sorted, so this is one index.
fn radius(lg: &LocalGraph, ul: u32, rho: u32) -> u64 {
    let (_, ws) = lg.row(ul as usize);
    if ws.is_empty() {
        0
    } else {
        ws[(rho as usize).min(ws.len()) - 1] as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{FLAT_LANES, INF_BUCKET};

    /// A policy over a graph holding the largest possible weight, so the
    /// horizon does not cap the tests' tail floors.
    fn policy(cfg: SsspConfig, ranks: usize) -> Policy {
        Policy::new(&cfg, ranks, u64::from(u32::MAX))
    }

    #[test]
    fn delta_window_degenerates_to_the_classic_bucket() {
        let d = policy(SsspConfig::del(5), 1);
        let w = d.window(3, 3, None);
        assert_eq!((w.lo, w.hi), (3, 3));
        assert_eq!(w.start_dist, 15);
        assert_eq!(w.end_dist, 19);
        assert_eq!(w.short_bound, 5);
        assert!(w.contains(3) && !w.contains(2) && !w.contains(4));
        assert!(!d.multi_bucket());
        // A hybrid-tail window spans buckets 3..=6, and its short bound is
        // the window's width in distance.
        let tail = d.window(3, 6, None);
        assert_eq!((tail.lo, tail.hi), (3, 6));
        assert_eq!((tail.start_dist, tail.end_dist), (15, 34));
        assert_eq!(tail.short_bound, 20);
        // The second tail epoch reaches 2^2 buckets whatever `hi` says.
        assert_eq!(d.window(3, 3, Some(1)), tail);
        assert_eq!(d.window(3, 9, Some(1)).hi, 9);
        // Near the bucket cap the distance bounds saturate, not overflow,
        // and an end below `k` clamps to `k`.
        let top = d.window(u64::MAX - 1, 0, Some(40));
        assert_eq!((top.hi, top.end_dist), (u64::MAX - 1, u64::MAX - 1));
        assert_eq!(d.window(0, u64::MAX, None).short_bound, u64::MAX);
    }

    #[test]
    fn tail_floor_stops_at_the_one_hop_horizon() {
        // Δ = 25, w_max = 255: H = ⌊255/25⌋ + 1 = 11 buckets.
        let floors = |p: Policy| -> Vec<u64> {
            (0..5).map(|j| p.window(7, 7, Some(j)).hi - 7 + 1).collect()
        };
        let grid = Policy::new(&SsspConfig::opt(25), 2, 255);
        assert_eq!(floors(grid), [2, 4, 8, 11, 11]);
        // One bucket when no edge spans one (Δ > w_max) or there is no edge
        // at all (`weight_range` reads 0 as the largest weight).
        assert_eq!(floors(Policy::new(&SsspConfig::opt(300), 2, 255)), [1; 5]);
        assert_eq!(floors(Policy::new(&SsspConfig::opt(25), 2, 0)), [1; 5]);
        // A wider reduced end is still honoured, and Δ = ∞ has no cap.
        assert_eq!(grid.window(7, 40, Some(4)).hi, 40);
        let bf = Policy::new(&SsspConfig::bellman_ford(), 2, 255);
        assert_eq!(bf.window(0, 0, Some(9)).hi, 1023);
    }

    #[test]
    fn infinite_delta_window_spans_everything() {
        let w = policy(SsspConfig::bellman_ford(), 1).window(0, 0, None);
        assert_eq!((w.lo, w.hi), (0, 0));
        assert_eq!(w.start_dist, 0);
        assert_eq!(w.end_dist, u64::MAX - 1);
        assert_eq!(w.short_bound, u64::MAX);
    }

    #[test]
    fn rho_policy_caps_per_rank() {
        assert_eq!(policy(SsspConfig::rho(64), 4).rho_cap(64), 16);
        assert_eq!(policy(SsspConfig::rho(5), 4).rho_cap(5), 2);
        assert_eq!(policy(SsspConfig::rho(1), 16).rho_cap(1), 1);
        let p = policy(SsspConfig::rho(8), 2);
        assert_eq!(p.delta.bucket_of(42), 42);
        assert_eq!(p.delta.bucket_of(u64::MAX - 1), u64::MAX - 1);
        assert_eq!(p.short_bound(), u64::MAX);
        let w = p.window(10, 25, None);
        assert_eq!((w.lo, w.hi), (10, 25));
        assert_eq!((w.start_dist, w.end_dist), (10, 25));
        assert_eq!(w.short_bound, u64::MAX);
        // The reduced end clamps to at least the selected bucket.
        assert_eq!(p.window(10, 3, None).hi, 10);
    }

    #[test]
    fn rho_proposal_counts_a_bucket_prefix() {
        let p = policy(SsspConfig::rho(4), 2); // cap 2 per rank
        let mut st = RankState::new(0, 8, 1);
        st.begin_phase();
        st.relax(0, 3, &p.delta);
        st.relax(1, 5, &p.delta);
        st.relax(2, 9, &p.delta);
        // Buckets {3: 1, 5: 1, 9: 1}; cap 2 admits buckets 3 and 5.
        assert_eq!(p.proposal(&st, &empty_lg(8), 3), 5);
        // Cap 1 stops at the first bucket.
        let tight = policy(SsspConfig::rho(1), 2);
        assert_eq!(tight.proposal(&st, &empty_lg(8), 3), 3);
        // A cap nothing exceeds ends the window at the last reached bucket
        // (Dong et al.: the largest tentative distance when fewer than ρ
        // vertices are reached), never at an unbounded one.
        let loose = policy(SsspConfig::rho(100), 1);
        assert_eq!(loose.proposal(&st, &empty_lg(8), 3), 9);
        // Only a rank with no member at or above `k` imposes no bound.
        assert_eq!(loose.proposal(&st, &empty_lg(8), 10), NO_PROPOSAL);
    }

    fn empty_lg(n: usize) -> LocalGraph {
        LocalGraph::from_rows((0..n).map(|_| (Vec::new(), Vec::new())))
    }

    #[test]
    fn radius_proposal_is_the_frontier_ball_minimum() {
        let p = policy(SsspConfig::radius(2), 1);
        // Vertex 0: weights [1, 4, 9] → r = 4. Vertex 1: [7] → r = 7.
        let lg = LocalGraph::from_rows(vec![
            (vec![1, 2, 3], vec![1, 4, 9]),
            (vec![0], vec![7]),
            (Vec::new(), Vec::new()),
        ]);
        let mut st = RankState::new(0, 3, 1);
        st.begin_phase();
        st.relax(0, 10, &p.delta);
        st.relax(1, 10, &p.delta);
        // Frontier bucket 10: min(10 + 4, 10 + 7) = 14.
        assert_eq!(p.proposal(&st, &lg, 10), 14);
        // An isolated frontier vertex has radius 0 (window = its bucket).
        st.relax(2, 4, &p.delta);
        assert_eq!(p.proposal(&st, &lg, 4), 4);
        // No member in bucket 7, but the frontier beyond it still bounds.
        assert_eq!(p.proposal(&st, &lg, 7), 14);
        // No local members at or above `k` → no bound.
        assert_eq!(p.proposal(&st, &lg, 11), NO_PROPOSAL);
    }

    #[test]
    fn radius_proposal_sees_past_the_selected_bucket() {
        let p = policy(SsspConfig::radius(1), 1);
        // Vertex 0 (bucket 10): r = 6. Vertex 1 (bucket 11): r = 1.
        let lg = LocalGraph::from_rows(vec![(vec![1], vec![6]), (vec![0], vec![1])]);
        let mut st = RankState::new(0, 2, 1);
        st.begin_phase();
        st.relax(0, 10, &p.delta);
        st.relax(1, 11, &p.delta);
        // Bucket 10 alone would give 16; the member at d = 11 gives 12.
        assert_eq!(p.proposal(&st, &lg, 10), 12);
    }

    proptest::proptest! {
        #[test]
        fn radius_proposal_is_the_brute_force_frontier_minimum(
            rows in proptest::collection::vec(
                proptest::collection::vec(1u32..300, 0..4),
                1..40,
            ),
            // Distances ≥ 1500 stand for "never reached".
            dists in proptest::collection::vec(0u64..2000, 1..40),
            rho in 1u32..4,
            k in 0u64..1500,
        ) {
            // Distances reach past the flat ring (FLAT_LANES), so spill
            // buckets are covered too.
            let n = rows.len().min(dists.len());
            let lg = LocalGraph::from_rows(rows[..n].iter().map(|ws| {
                let mut ws = ws.clone();
                ws.sort_unstable();
                (vec![0; ws.len()], ws)
            }));
            let p = policy(SsspConfig::radius(rho), 1);
            let mut st = RankState::new(0, n, 1);
            st.begin_phase();
            for (v, &d) in (0u32..).zip(&dists[..n]).filter(|(_, &d)| d < 1500) {
                st.relax(v, d, &p.delta);
            }
            let brute = (0..n as u32)
                .filter(|&v| st.bucket_of[v as usize] != INF_BUCKET)
                .filter(|&v| st.bucket_of[v as usize] >= k)
                .map(|v| st.dist[v as usize] + radius(&lg, v, rho))
                .min()
                .unwrap_or(NO_PROPOSAL);
            proptest::prop_assert_eq!(p.proposal(&st, &lg, k), brute);
        }

        // The ρ rule's step bound at window open: a rank's own proposal
        // never admits more than max(cap, |bucket k|) of its reached
        // vertices, so neither does the global window (the minimum of the
        // proposals). Distances on a coarse lattice make buckets share
        // members and reach past the ring into the spill list.
        #[test]
        fn rho_window_holds_at_most_the_cap_or_the_selected_bucket(
            steps in proptest::collection::vec(0u64..40, 1..60),
            rho in 1u32..24,
            ranks in 1usize..5,
            k_step in 0u64..40,
        ) {
            let p = policy(SsspConfig::rho(rho), ranks);
            let cap = p.rho_cap(rho);
            let mut st = RankState::new(0, steps.len(), 1);
            st.begin_phase();
            for (v, &step) in (0u32..).zip(&steps) {
                st.relax(v, step * FLAT_LANES / 8, &p.delta);
            }
            let k = k_step * FLAT_LANES / 8;
            st.advance_frontier(k);
            let hi = p.proposal(&st, &empty_lg(steps.len()), k);
            if hi == NO_PROPOSAL {
                proptest::prop_assert_eq!(st.window_count(k, NO_PROPOSAL), 0);
            } else {
                let held = st.window_count(k, hi);
                let bound = cap.max(st.window_count(k, k));
                proptest::prop_assert!(held <= bound, "[{}, {}] holds {} > {}", k, hi, held, bound);
            }
        }
    }

    #[test]
    fn dispatch_matches_config() {
        let d = policy(SsspConfig::del(25), 4);
        assert!(!d.multi_bucket());
        assert_eq!(d.delta.bucket_of(49), 1);
        let r = policy(SsspConfig::rho(64), 4);
        assert!(r.multi_bucket());
        assert_eq!(r.delta.bucket_of(49), 49);
        let b = policy(SsspConfig::radius(8), 4);
        assert!(b.multi_bucket());
        assert_eq!(b.short_bound(), u64::MAX);
        // Selecting ρ on a Δ preset runs it at Δ = 1: `delta` is never
        // ignored, and OPT's tail windows count unit-width buckets.
        let opt_rho = policy(
            SsspConfig::opt(10).with_policy(SteppingPolicyKind::Rho(64)),
            4,
        );
        assert_eq!(opt_rho, r);
    }
}
