//! Pluggable stepping policies: the abstraction that owns bucket
//! assignment, epoch-window selection and the short/long edge split.
//!
//! Dong et al.'s stepping-algorithm framework shows Dijkstra, Δ-stepping
//! and Bellman-Ford are all instances of one lazy-batched priority
//! structure with an abstract "step" rule, and Blelloch et al.'s radius
//! stepping is another instance. This module factors that rule out of the
//! engine: a [`SteppingPolicy`] maps tentative distances to bucket
//! indices, decides how far past the globally smallest non-empty bucket
//! one epoch may reach (the [`EpochWindow`]), and fixes the short/long
//! weight boundary the IOS split and the push/pull machinery use.
//!
//! The engine's correctness does not depend on *which* window a policy
//! picks, only on the window being a contiguous bucket range starting at
//! the globally smallest non-empty bucket: the in-window relaxation
//! fixpoint plus the settled prefix below the window make any such window
//! a generalized Δ-stepping bucket. Policies therefore only trade off
//! phase counts against redundant relaxations — exactly the Δ sweep of
//! Fig. 9, generalized.
//!
//! Three policies ship:
//!
//! * [`DeltaParam`] — the paper's Δ-stepping (the default). One bucket of
//!   width Δ per epoch; no window collective.
//! * [`RhoPolicy`] — ρ-stepping: Dial-granularity buckets; each epoch
//!   extends the window until ≈ρ vertices (cap ⌈ρ/p⌉ per rank) are
//!   inside, found with one extra `allreduce_min` over per-rank prefix
//!   proposals.
//! * [`RadiusPolicy`] — radius stepping: Dial-granularity buckets; the
//!   window reaches to the frontier minimum of `d(v) + r(v)` where
//!   `r(v)` is the ρ-th smallest incident edge weight, again via one
//!   `allreduce_min`.

use sssp_dist::LocalGraph;

use crate::config::{DeltaParam, SsspConfig, SteppingPolicyKind};
use crate::state::{RankState, INF};

/// The "no constraint" window proposal a rank feeds into the window
/// collective when its local state does not bound the epoch window. One
/// below the epoch-selection sentinel (`u64::MAX`), so a window can never
/// collide with "no bucket left".
pub const NO_PROPOSAL: u64 = u64::MAX - 1;

/// How the engine derives each epoch's window from the policy — the
/// discriminant the driver's window selection `match`es on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRule {
    /// The window is exactly the selected bucket; no extra collective.
    SingleBucket,
    /// Extend the window over a count-bounded bucket prefix (ρ-stepping):
    /// one `allreduce_min` over per-rank [`RankState::prefix_window_end`]
    /// proposals.
    RhoPrefix,
    /// Extend the window to the frontier's `min d(v) + r(v)` ball (radius
    /// stepping): one `allreduce_min` over per-rank frontier proposals.
    RadiusBall,
}

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
    /// The policy's short/long weight boundary: an edge is short iff
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

/// A stepping policy: bucket assignment + epoch-window selection + the
/// short/long edge split. See the module docs for the contract; DESIGN.md
/// §6g spells out what an implementation may and may not do between
/// collectives.
pub trait SteppingPolicy {
    /// Bucket index of a finite tentative distance. Must be monotone
    /// non-decreasing in `d` and must never return `u64::MAX` (the epoch
    /// collective's "no bucket left" sentinel).
    fn bucket_of(&self, d: u64) -> u64;

    /// The short/long weight boundary: an edge is short iff
    /// `w < short_bound()`. Policies without a meaningful split return
    /// `u64::MAX` (every edge short; the window's `end_dist` then carries
    /// the whole inner/outer split).
    fn short_bound(&self) -> u64;

    /// Which window-selection collective (if any) the engine runs after
    /// the epoch-selection collective.
    fn window_rule(&self) -> WindowRule;

    /// Build the epoch window from the selected bucket `k` and the
    /// globally reduced window end `hi` (`k` itself under
    /// [`WindowRule::SingleBucket`], widened in the hybrid tail). An `hi`
    /// below `k` clamps to `k`.
    fn window_for(&self, k: u64, hi: u64) -> EpochWindow;

    /// This rank's proposal for the window end, fed into
    /// `allreduce_min`. Must depend only on rank-local state that is
    /// itself a deterministic function of the (deterministic) message
    /// history — never on rank id or timing. Return [`NO_PROPOSAL`] when
    /// the local state imposes no bound.
    fn window_proposal(&self, st: &RankState, lg: &LocalGraph, k: u64) -> u64;
}

impl SteppingPolicy for DeltaParam {
    #[inline]
    fn bucket_of(&self, d: u64) -> u64 {
        DeltaParam::bucket_of(self, d)
    }

    #[inline]
    fn short_bound(&self) -> u64 {
        DeltaParam::short_bound(self)
    }

    fn window_rule(&self) -> WindowRule {
        WindowRule::SingleBucket
    }

    /// `[k, hi]` in Δ-buckets; the driver asks for more than `[k, k]` only
    /// in the hybrid tail. The short bound widens to the window's width in
    /// distance, so the short-phase fixpoint still covers every edge that
    /// can land inside the window.
    fn window_for(&self, k: u64, hi: u64) -> EpochWindow {
        let hi = hi.max(k).min(NO_PROPOSAL);
        let (start_dist, short_bound) = match *self {
            DeltaParam::Finite(delta) => (
                k.saturating_mul(delta as u64),
                (hi - k + 1).saturating_mul(delta as u64),
            ),
            DeltaParam::Infinite => (0, u64::MAX),
        };
        EpochWindow {
            lo: k,
            hi,
            start_dist,
            end_dist: self.bucket_end(hi),
            short_bound,
        }
    }

    fn window_proposal(&self, _st: &RankState, _lg: &LocalGraph, _k: u64) -> u64 {
        NO_PROPOSAL
    }
}

/// ρ-stepping (Dong et al.): lazy batched extraction of (about) the ρ
/// globally closest unsettled vertices per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RhoPolicy {
    /// Per-rank member cap `⌈ρ/p⌉` (at least 1) applied to the window.
    cap: u64,
}

impl RhoPolicy {
    /// Policy extracting ≈`rho` vertices per epoch across `ranks` ranks.
    pub fn new(rho: u32, ranks: usize) -> Self {
        assert!(rho >= 1, "ρ must be at least 1");
        let p = ranks.max(1) as u64;
        RhoPolicy {
            cap: (rho as u64).div_ceil(p).max(1),
        }
    }

    /// The per-rank window cap (visible for tests).
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

/// Dial-granularity bucket index shared by the non-Δ policies: the bucket
/// IS the distance, capped one below the epoch sentinel.
#[inline]
fn dial_bucket(d: u64) -> u64 {
    debug_assert!(d != INF, "bucket_of called on an INF distance");
    d.min(u64::MAX - 1)
}

impl SteppingPolicy for RhoPolicy {
    #[inline]
    fn bucket_of(&self, d: u64) -> u64 {
        dial_bucket(d)
    }

    #[inline]
    fn short_bound(&self) -> u64 {
        u64::MAX
    }

    fn window_rule(&self) -> WindowRule {
        WindowRule::RhoPrefix
    }

    fn window_for(&self, k: u64, hi: u64) -> EpochWindow {
        let hi = hi.max(k).min(NO_PROPOSAL);
        EpochWindow {
            lo: k,
            hi,
            start_dist: k,
            end_dist: hi,
            short_bound: u64::MAX,
        }
    }

    fn window_proposal(&self, st: &RankState, _lg: &LocalGraph, k: u64) -> u64 {
        st.prefix_window_end(k, self.cap)
    }
}

/// Radius stepping (Blelloch et al.): per-vertex radii replace the global
/// Δ — each epoch's window reaches to the minimum of `d(v) + r(v)` over
/// every unsettled reached vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadiusPolicy {
    /// `r(v)` is the weight of `v`'s ρ-th smallest incident edge.
    rho: u32,
}

impl RadiusPolicy {
    /// Policy with radii taken at the `rho`-th smallest incident weight.
    pub fn new(rho: u32) -> Self {
        assert!(rho >= 1, "ρ must be at least 1");
        RadiusPolicy { rho }
    }

    /// The radius of local vertex `ul`: its ρ-th smallest incident edge
    /// weight (the last one when the row is shorter, 0 when isolated).
    /// Rows are weight-sorted, so this is one index.
    fn radius(&self, lg: &LocalGraph, ul: u32) -> u64 {
        let (_, ws) = lg.row(ul as usize);
        if ws.is_empty() {
            0
        } else {
            ws[(self.rho as usize).min(ws.len()) - 1] as u64
        }
    }
}

impl SteppingPolicy for RadiusPolicy {
    #[inline]
    fn bucket_of(&self, d: u64) -> u64 {
        dial_bucket(d)
    }

    #[inline]
    fn short_bound(&self) -> u64 {
        u64::MAX
    }

    fn window_rule(&self) -> WindowRule {
        WindowRule::RadiusBall
    }

    fn window_for(&self, k: u64, hi: u64) -> EpochWindow {
        let hi = hi.max(k).min(NO_PROPOSAL);
        EpochWindow {
            lo: k,
            hi,
            start_dist: k,
            end_dist: hi,
            short_bound: u64::MAX,
        }
    }

    fn window_proposal(&self, st: &RankState, lg: &LocalGraph, k: u64) -> u64 {
        // The ball bound is min d(v) + r(v) over the whole unsettled
        // frontier — every reached vertex in bucket ≥ k, not bucket k
        // alone: a later member with a light edge can bound it tighter.
        // Under Dial granularity d(v) is the bucket index b, so walking
        // the buckets in order may stop once b reaches the best ball: no
        // member from there on can beat it.
        let mut best = NO_PROPOSAL;
        let mut next = st.next_nonempty_after(k.checked_sub(1));
        while let Some(b) = next.filter(|&b| b < best) {
            for ul in st.bucket_members(b) {
                best = best.min(b.saturating_add(self.radius(lg, ul)));
            }
            next = st.next_nonempty_after(Some(b));
        }
        best.min(NO_PROPOSAL)
    }
}

/// Concrete dispatch over the shipped policies, so the engine stays
/// non-generic (one instantiation of every kernel) while the trait keeps
/// the contract explicit. Constructed once per run from the config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDispatch {
    /// Classic Δ-stepping (the default).
    Delta(DeltaParam),
    /// ρ-stepping.
    Rho(RhoPolicy),
    /// Radius stepping.
    Radius(RadiusPolicy),
}

impl PolicyDispatch {
    /// Build the run's policy from its configuration. `ranks` sizes the
    /// per-rank ρ cap.
    pub fn from_config(cfg: &SsspConfig, ranks: usize) -> PolicyDispatch {
        match cfg.policy {
            SteppingPolicyKind::Delta => PolicyDispatch::Delta(cfg.delta),
            SteppingPolicyKind::Rho(rho) => PolicyDispatch::Rho(RhoPolicy::new(rho, ranks)),
            SteppingPolicyKind::Radius(rho) => PolicyDispatch::Radius(RadiusPolicy::new(rho)),
        }
    }
}

impl SteppingPolicy for PolicyDispatch {
    #[inline]
    fn bucket_of(&self, d: u64) -> u64 {
        match self {
            PolicyDispatch::Delta(p) => SteppingPolicy::bucket_of(p, d),
            PolicyDispatch::Rho(p) => p.bucket_of(d),
            PolicyDispatch::Radius(p) => p.bucket_of(d),
        }
    }

    #[inline]
    fn short_bound(&self) -> u64 {
        match self {
            PolicyDispatch::Delta(p) => SteppingPolicy::short_bound(p),
            PolicyDispatch::Rho(p) => p.short_bound(),
            PolicyDispatch::Radius(p) => p.short_bound(),
        }
    }

    fn window_rule(&self) -> WindowRule {
        match self {
            PolicyDispatch::Delta(p) => p.window_rule(),
            PolicyDispatch::Rho(p) => p.window_rule(),
            PolicyDispatch::Radius(p) => p.window_rule(),
        }
    }

    fn window_for(&self, k: u64, hi: u64) -> EpochWindow {
        match self {
            PolicyDispatch::Delta(p) => p.window_for(k, hi),
            PolicyDispatch::Rho(p) => p.window_for(k, hi),
            PolicyDispatch::Radius(p) => p.window_for(k, hi),
        }
    }

    fn window_proposal(&self, st: &RankState, lg: &LocalGraph, k: u64) -> u64 {
        match self {
            PolicyDispatch::Delta(p) => p.window_proposal(st, lg, k),
            PolicyDispatch::Rho(p) => p.window_proposal(st, lg, k),
            PolicyDispatch::Radius(p) => p.window_proposal(st, lg, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsspConfig;

    #[test]
    fn delta_window_degenerates_to_the_classic_bucket() {
        let d = DeltaParam::Finite(5);
        let w = d.window_for(3, 3);
        assert_eq!((w.lo, w.hi), (3, 3));
        assert_eq!(w.start_dist, 15);
        assert_eq!(w.end_dist, 19);
        assert_eq!(w.short_bound, 5);
        assert!(w.contains(3) && !w.contains(2) && !w.contains(4));
        assert_eq!(d.window_rule(), WindowRule::SingleBucket);
        // A hybrid-tail window spans buckets 3..=6, and its short bound is
        // the window's width in distance.
        let tail = d.window_for(3, 6);
        assert_eq!((tail.lo, tail.hi), (3, 6));
        assert_eq!((tail.start_dist, tail.end_dist), (15, 34));
        assert_eq!(tail.short_bound, 20);
        // Near the bucket cap the distance bounds saturate, not overflow,
        // and an end below `k` clamps to `k`.
        let top = d.window_for(u64::MAX - 1, 0);
        assert_eq!((top.hi, top.end_dist), (u64::MAX - 1, u64::MAX - 1));
        assert_eq!(d.window_for(0, u64::MAX).short_bound, u64::MAX);
    }

    #[test]
    fn infinite_delta_window_spans_everything() {
        let w = DeltaParam::Infinite.window_for(0, 0);
        assert_eq!((w.lo, w.hi), (0, 0));
        assert_eq!(w.start_dist, 0);
        assert_eq!(w.end_dist, u64::MAX - 1);
        assert_eq!(w.short_bound, u64::MAX);
    }

    #[test]
    fn rho_policy_caps_per_rank() {
        assert_eq!(RhoPolicy::new(64, 4).cap(), 16);
        assert_eq!(RhoPolicy::new(5, 4).cap(), 2);
        assert_eq!(RhoPolicy::new(1, 16).cap(), 1);
        let p = RhoPolicy::new(8, 2);
        assert_eq!(p.bucket_of(42), 42);
        assert_eq!(p.bucket_of(u64::MAX - 1), u64::MAX - 1);
        assert_eq!(p.short_bound(), u64::MAX);
        let w = p.window_for(10, 25);
        assert_eq!((w.lo, w.hi), (10, 25));
        assert_eq!((w.start_dist, w.end_dist), (10, 25));
        // The reduced end clamps to at least the selected bucket.
        assert_eq!(p.window_for(10, 3).hi, 10);
    }

    #[test]
    fn rho_proposal_counts_a_bucket_prefix() {
        let p = RhoPolicy::new(4, 2); // cap 2 per rank
        let mut st = RankState::new(0, 8, 1);
        st.begin_phase();
        st.relax(0, 3, &p);
        st.relax(1, 5, &p);
        st.relax(2, 9, &p);
        // Buckets {3: 1, 5: 1, 9: 1}; cap 2 admits buckets 3 and 5.
        assert_eq!(p.window_proposal(&st, &empty_lg(8), 3), 5);
        // Cap 1 stops at the first bucket.
        let tight = RhoPolicy::new(1, 2);
        assert_eq!(tight.window_proposal(&st, &empty_lg(8), 3), 3);
        // A cap nothing exceeds ends the window at the last reached bucket
        // (Dong et al.: the largest tentative distance when fewer than ρ
        // vertices are reached), never at an unbounded one.
        let loose = RhoPolicy::new(100, 1);
        assert_eq!(loose.window_proposal(&st, &empty_lg(8), 3), 9);
        // Only a rank with no member at or above `k` imposes no bound.
        assert_eq!(loose.window_proposal(&st, &empty_lg(8), 10), NO_PROPOSAL);
    }

    fn empty_lg(n: usize) -> LocalGraph {
        LocalGraph::from_rows((0..n).map(|_| (Vec::new(), Vec::new())))
    }

    #[test]
    fn radius_proposal_is_the_frontier_ball_minimum() {
        let p = RadiusPolicy::new(2);
        // Vertex 0: weights [1, 4, 9] → r = 4. Vertex 1: [7] → r = 7.
        let lg = LocalGraph::from_rows(vec![
            (vec![1, 2, 3], vec![1, 4, 9]),
            (vec![0], vec![7]),
            (Vec::new(), Vec::new()),
        ]);
        let mut st = RankState::new(0, 3, 1);
        st.begin_phase();
        st.relax(0, 10, &p);
        st.relax(1, 10, &p);
        // Frontier bucket 10: min(10 + 4, 10 + 7) = 14.
        assert_eq!(p.window_proposal(&st, &lg, 10), 14);
        // An isolated frontier vertex has radius 0 (window = its bucket).
        st.relax(2, 4, &p);
        assert_eq!(p.window_proposal(&st, &lg, 4), 4);
        // No member in bucket 7, but the frontier beyond it still bounds.
        assert_eq!(p.window_proposal(&st, &lg, 7), 14);
        // No local members at or above `k` → no bound.
        assert_eq!(p.window_proposal(&st, &lg, 11), NO_PROPOSAL);
    }

    #[test]
    fn radius_proposal_sees_past_the_selected_bucket() {
        let p = RadiusPolicy::new(1);
        // Vertex 0 (bucket 10): r = 6. Vertex 1 (bucket 11): r = 1.
        let lg = LocalGraph::from_rows(vec![(vec![1], vec![6]), (vec![0], vec![1])]);
        let mut st = RankState::new(0, 2, 1);
        st.begin_phase();
        st.relax(0, 10, &p);
        st.relax(1, 11, &p);
        // Bucket 10 alone would give 16; the member at d = 11 gives 12.
        assert_eq!(p.window_proposal(&st, &lg, 10), 12);
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
            let p = RadiusPolicy::new(rho);
            let mut st = RankState::new(0, n, 1);
            st.begin_phase();
            for (v, &d) in (0u32..).zip(&dists[..n]).filter(|(_, &d)| d < 1500) {
                st.relax(v, d, &p);
            }
            let brute = (0..n as u32)
                .filter(|&v| st.bucket_of[v as usize] != crate::state::INF_BUCKET)
                .filter(|&v| st.bucket_of[v as usize] >= k)
                .map(|v| st.dist[v as usize] + p.radius(&lg, v))
                .min()
                .unwrap_or(NO_PROPOSAL);
            proptest::prop_assert_eq!(p.window_proposal(&st, &lg, k), brute);
        }
    }

    #[test]
    fn dispatch_matches_config() {
        let d = PolicyDispatch::from_config(&SsspConfig::del(25), 4);
        assert_eq!(d.window_rule(), WindowRule::SingleBucket);
        assert_eq!(d.bucket_of(49), 1);
        let r = PolicyDispatch::from_config(&SsspConfig::rho(64), 4);
        assert_eq!(r.window_rule(), WindowRule::RhoPrefix);
        assert_eq!(r.bucket_of(49), 49);
        let b = PolicyDispatch::from_config(&SsspConfig::radius(8), 4);
        assert_eq!(b.window_rule(), WindowRule::RadiusBall);
        assert_eq!(b.short_bound(), u64::MAX);
    }
}
