//! Per-rank mutable state of the distributed Δ-stepping engine.
//!
//! Each rank owns the tentative distances and bucket structure of its local
//! vertices. Buckets use the classic lazy-deletion representation: member
//! containers plus an authoritative `bucket_of` array; entries whose
//! `bucket_of` no longer matches are skipped at iteration time. A vertex
//! only ever moves to a strictly lower bucket, so it appears at most once
//! in any bucket container. Exact per-bucket counts are kept alongside for
//! the next-bucket collective.
//!
//! The member layout is `FlatBuckets`: a lazy cyclic ring of
//! [`FLAT_LANES`] flat `Vec<u32>` lanes indexed by `bucket % FLAT_LANES`,
//! with an overflow spill list for buckets beyond the ring. The engine
//! calls [`RankState::advance_frontier`] once per epoch; lanes the
//! frontier passed are recycled in O(passed) and spill entries whose
//! bucket entered the ring migrate in. All hot-path operations are
//! array indexing instead of `BTreeMap` node chasing.
//!
//! State is reusable across runs: the serving layer keeps one
//! [`RankState`] per rank resident and calls [`RankState::reset`] between
//! queries, which restores the all-unreached initial state while keeping
//! every allocation (lanes, spill, bitsets, distance arrays) warm.
//!
//! The `changed` / `active` frontier sets are two-level bitsets
//! ([`SparseBitset`]): duplicate-free insertion by construction, and
//! iteration and clearing that visit only the live words (plus one summary
//! bit per 64 words), so a superstep costs its frontier, not `n_local`.
//!
//! The unreached vertices (the paper's B∞) sit in no container. What the
//! engine needs of them every epoch — how many there are, and what they add
//! to the §III-C pull estimate — is a per-run constant per vertex, so the
//! state keeps both as running totals, decremented at the one place a
//! vertex leaves B∞ ([`RankState::relax`]).
//!
//! [`FLAT_LANES`]: crate::state::FLAT_LANES
//! [`RankState::advance_frontier`]: crate::state::RankState::advance_frontier
//! [`RankState::relax`]: crate::state::RankState::relax
//! [`RankState::reset`]: crate::state::RankState::reset
//! [`RankState`]: crate::state::RankState
//! [`SparseBitset`]: sssp_comm::exchange::SparseBitset

use std::collections::BTreeMap;

use sssp_comm::exchange::SparseBitset;
use sssp_dist::ThreadLoads;

use crate::config::DeltaParam;
use crate::policy::NO_PROPOSAL;

/// "Infinite" tentative distance.
pub const INF: u64 = u64::MAX;

/// Bucket index of unreached vertices (the paper's B∞).
pub const INF_BUCKET: u64 = u64::MAX;

/// Width of the flat bucket ring: how many consecutive bucket indices the
/// lane array covers before pushes overflow into the spill list. Sized so
/// Δ-stepping (small bucket indices) and Dial-granularity policies with
/// Graph 500-scale weights (≤ 255) stay in the ring almost always.
pub const FLAT_LANES: u64 = 512;

/// The lazy cyclic flat bucket queue: a ring of [`FLAT_LANES`] member
/// lanes covering buckets `[base, base + FLAT_LANES)`, exact live counts
/// per in-ring bucket, and a spill list for pushes beyond the ring.
///
/// Invariants (all relative to the monotone epoch sequence the engine
/// drives through [`RankState::advance_frontier`]):
///
/// * lane `b % FLAT_LANES` holds only entries pushed for the unique
///   in-ring bucket `b` (plus lazy-deletion stale entries for that `b`);
/// * every spill entry's bucket is `≥ base + FLAT_LANES`;
/// * counts track *live* vertices (`bucket_of` matches) exactly;
/// * queries below `base` are answered as empty — the engine only ever
///   queries at or above the current epoch's bucket.
#[derive(Debug)]
struct FlatBuckets {
    /// First bucket the ring covers (the current epoch's bucket).
    base: u64,
    lanes: Vec<Vec<u32>>,
    lane_counts: Vec<u64>,
    /// Overflow entries `(vertex, bucket)` for buckets beyond the ring.
    spill: Vec<(u32, u64)>,
    /// Exact live counts of the spill buckets.
    spill_counts: BTreeMap<u64, u64>,
}

impl FlatBuckets {
    fn new() -> Self {
        FlatBuckets {
            base: 0,
            lanes: (0..FLAT_LANES).map(|_| Vec::new()).collect(),
            lane_counts: vec![0; FLAT_LANES as usize],
            spill: Vec::new(),
            spill_counts: BTreeMap::new(),
        }
    }

    /// One past the last bucket the ring covers (saturating near the
    /// bucket-index cap).
    #[inline]
    fn ring_end(&self) -> u64 {
        self.base.saturating_add(FLAT_LANES)
    }

    /// Restore the empty initial state (base 0, no members anywhere) while
    /// keeping lane and spill allocations warm. Without the base rewind a
    /// reused ring would silently answer every query below the previous
    /// run's final bucket as empty — including the new query's bucket 0
    /// roots — and the engine would terminate immediately with INF
    /// distances.
    fn reset(&mut self) {
        self.base = 0;
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.lane_counts.fill(0);
        self.spill.clear();
        self.spill_counts.clear();
    }

    #[inline]
    fn slot(b: u64) -> usize {
        (b % FLAT_LANES) as usize
    }

    #[inline]
    fn push(&mut self, v: u32, b: u64) {
        debug_assert!(
            b >= self.base,
            "push below the ring base ({b} < {})",
            self.base
        );
        if b < self.ring_end() {
            self.lanes[Self::slot(b)].push(v);
            self.lane_counts[Self::slot(b)] += 1;
        } else {
            self.spill.push((v, b));
            *self.spill_counts.entry(b).or_insert(0) += 1;
        }
    }

    #[inline]
    fn dec(&mut self, b: u64) {
        if b < self.base {
            // A live vertex below the ring base would be a settled vertex
            // improving — impossible under the epoch invariant; its count
            // was recycled with the lane.
            debug_assert!(false, "count decrement below the ring base");
        } else if b < self.ring_end() {
            let c = &mut self.lane_counts[Self::slot(b)];
            // sssp-lint: allow(no-panic-hot-path): count exists whenever
            // bucket_of is finite; a miss means corrupted bucket state and
            // continuing would return wrong distances.
            *c = c.checked_sub(1).expect("bucket count missing");
        } else {
            // sssp-lint: allow(no-panic-hot-path): same contract as above.
            let c = self.spill_counts.get_mut(&b).expect("bucket count missing");
            *c -= 1;
            if *c == 0 {
                self.spill_counts.remove(&b);
            }
        }
    }

    fn window_count(&self, lo: u64, hi: u64) -> u64 {
        let mut sum = 0u64;
        let mut b = lo.max(self.base);
        let ring_hi = hi.min(self.ring_end() - 1);
        while b <= ring_hi {
            sum += self.lane_counts[Self::slot(b)];
            b += 1;
        }
        if hi >= self.ring_end() {
            sum += self
                .spill_counts
                .range(self.ring_end()..=hi)
                .map(|(_, &c)| c)
                .sum::<u64>();
        }
        sum
    }

    fn window_scan_len(&self, lo: u64, hi: u64) -> usize {
        let mut sum = 0usize;
        let mut b = lo.max(self.base);
        let ring_hi = hi.min(self.ring_end() - 1);
        while b <= ring_hi {
            sum += self.lanes[Self::slot(b)].len();
            b += 1;
        }
        if hi >= self.ring_end() {
            // A window reaching past the ring scans the whole spill list.
            sum += self.spill.len();
        }
        sum
    }

    fn next_nonempty_from(&self, start: u64) -> Option<u64> {
        let end = self.ring_end();
        let mut b = start.max(self.base);
        while b < end {
            if self.lane_counts[Self::slot(b)] > 0 {
                return Some(b);
            }
            b += 1;
        }
        self.spill_counts
            .range(start.max(end)..)
            .find(|&(_, &c)| c > 0)
            .map(|(&b, _)| b)
    }

    fn prefix_window_end(&self, k: u64, cap: u64) -> u64 {
        let mut cum = 0u64;
        let mut last = k;
        let end = self.ring_end();
        let mut b = k.max(self.base);
        while b < end {
            let c = self.lane_counts[Self::slot(b)];
            if c > 0 {
                cum += c;
                if cum > cap {
                    return if b == k { k } else { last };
                }
                last = b;
            }
            b += 1;
        }
        for (&b, &c) in self.spill_counts.range(k.max(end)..) {
            cum += c;
            if cum > cap {
                return if b == k { k } else { last };
            }
            last = b;
        }
        if cum == 0 {
            NO_PROPOSAL
        } else {
            last
        }
    }

    fn count_after(&self, k: u64) -> u64 {
        let start = k.saturating_add(1);
        let end = self.ring_end();
        let mut sum = 0u64;
        let mut b = start.max(self.base);
        while b < end {
            sum += self.lane_counts[Self::slot(b)];
            b += 1;
        }
        sum + self
            .spill_counts
            .range(start.max(end)..)
            .map(|(_, &c)| c)
            .sum::<u64>()
    }

    /// Slide the ring base up to bucket `k` (the new epoch's bucket):
    /// recycle the lanes the frontier passed, then migrate spill entries
    /// whose bucket entered the ring (dropping lazily deleted ones).
    fn advance(&mut self, k: u64, bucket_of: &[u64]) {
        if k <= self.base {
            return;
        }
        if k.saturating_sub(self.base) >= FLAT_LANES {
            for lane in &mut self.lanes {
                lane.clear();
            }
            self.lane_counts.fill(0);
        } else {
            let mut b = self.base;
            while b < k {
                self.lanes[Self::slot(b)].clear();
                self.lane_counts[Self::slot(b)] = 0;
                b += 1;
            }
        }
        self.base = k;
        let end = self.ring_end();
        if self.spill.is_empty() && self.spill_counts.is_empty() {
            return;
        }
        let (lane_counts, lanes) = (&mut self.lane_counts, &mut self.lanes);
        self.spill_counts.retain(|&b, c| {
            if b < end {
                if b >= k {
                    lane_counts[Self::slot(b)] += *c;
                }
                false
            } else {
                true
            }
        });
        let mut i = 0;
        while i < self.spill.len() {
            let (v, b) = self.spill[i];
            if b < end {
                self.spill.swap_remove(i);
                // Migrate only live entries; stale (lazily deleted) and
                // already-passed ones are dropped here instead of being
                // rescanned every epoch.
                if b >= k && bucket_of[v as usize] == b {
                    lanes[Self::slot(b)].push(v);
                }
            } else {
                i += 1;
            }
        }
    }
}

/// State of one simulated rank.
#[derive(Debug)]
pub struct RankState {
    /// Rank id (for diagnostics).
    pub rank: usize,
    /// Tentative distance per local vertex.
    pub dist: Vec<u64>,
    /// Current bucket per local vertex ([`INF_BUCKET`] = unreached).
    pub bucket_of: Vec<u64>,
    store: FlatBuckets,
    /// Vertices whose distance changed in the current phase.
    pub changed: SparseBitset,
    /// Active vertices for the next phase.
    pub active: SparseBitset,
    /// Per-thread operation ledger for the current superstep.
    pub loads: ThreadLoads,
    /// What each vertex adds to the §III-C pull estimate while it is
    /// unreached (see [`RankState::install_unreached_terms`]); all zero
    /// until a run installs its own.
    unreached_term: Vec<u32>,
    /// `Σ unreached_term` over every local vertex — what [`Self::reset`]
    /// restores the running mass to.
    total_pull_mass: u64,
    /// Vertices still in [`INF_BUCKET`].
    unreached: u64,
    /// `Σ unreached_term` over the vertices still in [`INF_BUCKET`].
    unreached_pull_mass: u64,
}

impl RankState {
    /// Fresh state for a rank owning `n_local` vertices, all unreached.
    pub fn new(rank: usize, n_local: usize, threads: usize) -> Self {
        RankState {
            rank,
            dist: vec![INF; n_local],
            bucket_of: vec![INF_BUCKET; n_local],
            store: FlatBuckets::new(),
            changed: SparseBitset::new(n_local),
            active: SparseBitset::new(n_local),
            loads: ThreadLoads::new(threads),
            unreached_term: vec![0; n_local],
            total_pull_mass: 0,
            unreached: n_local as u64,
            unreached_pull_mass: 0,
        }
    }

    /// Restore the all-unreached initial state while keeping every
    /// allocation warm — the serving layer's between-queries reset. This
    /// must undo *all* per-run state: distances and `bucket_of`, the
    /// bucket ring (including its base and the spill list — a stale base
    /// would answer the next query's bucket-0 pushes as empty), both
    /// frontier bitsets (so no previous query's frontier leaks into the
    /// next run), the thread loads, and
    /// the unreached totals (every vertex is back in B∞, so the running
    /// mass is the installed total again).
    pub fn reset(&mut self) {
        self.dist.fill(INF);
        self.bucket_of.fill(INF_BUCKET);
        self.store.reset();
        self.changed.clear();
        self.active.clear();
        self.loads.reset();
        self.unreached = self.n_local() as u64;
        self.unreached_pull_mass = self.total_pull_mass;
    }

    /// Install the run's per-vertex pull terms: `term(v)` is what vertex
    /// `v` contributes to the §III-C pull estimate for as long as it is
    /// unreached — a constant of the run, since an unreached vertex's
    /// eq. 1 threshold is unbounded. Call on an all-unreached state (right
    /// after [`RankState::new`] / [`RankState::reset`]), once per run.
    pub fn install_unreached_terms(&mut self, term: impl Fn(usize) -> u64) {
        debug_assert_eq!(self.unreached, self.n_local() as u64);
        let mut total = 0u64;
        for (v, slot) in self.unreached_term.iter_mut().enumerate() {
            // Both estimators bound a term by the vertex's degree (`Exact`
            // counts part of the row, `Expectation` scales the degree by a
            // fraction ≤ 1), so this fails only on a row of more than
            // `u32::MAX` edges.
            *slot = sssp_graph::checked_u32(term(v) as usize);
            total += u64::from(*slot);
        }
        self.total_pull_mass = total;
        self.unreached_pull_mass = total;
    }

    /// Vertices still unreached (in [`INF_BUCKET`]).
    #[inline]
    pub fn unreached(&self) -> u64 {
        self.unreached
    }

    /// The unreached vertices' share of the §III-C pull estimate: the sum
    /// of their installed terms.
    #[inline]
    pub fn unreached_pull_mass(&self) -> u64 {
        self.unreached_pull_mass
    }

    /// Vertex `li` is leaving [`INF_BUCKET`] — the only transition that
    /// touches the unreached totals.
    #[inline]
    fn leave_unreached(&mut self, li: usize) {
        self.unreached -= 1;
        self.unreached_pull_mass -= u64::from(self.unreached_term[li]);
    }

    /// Number of vertices this rank owns.
    pub fn n_local(&self) -> usize {
        self.dist.len()
    }

    /// Begin a new phase: clear the changed set (its live words only).
    pub fn begin_phase(&mut self) {
        self.changed.clear();
    }

    /// Slide the flat bucket ring's base up to the new epoch's bucket
    /// `k`, recycling the lanes the frontier passed and migrating spill
    /// entries whose bucket entered the ring. The engines call this once
    /// per epoch, right after the epoch-selection collective; every later
    /// bucket query of the epoch is at or above `k`.
    pub fn advance_frontier(&mut self, k: u64) {
        self.store.advance(k, &self.bucket_of);
    }

    /// Apply `Relax`: `d(v) ← min(d(v), nd)`, moving buckets as required
    /// (Fig. 2 of the paper). Returns whether the distance decreased. The
    /// vertex lands in bucket ⌊nd/Δ⌋ under every stepping policy.
    #[inline]
    pub fn relax(&mut self, local: u32, nd: u64, delta: &DeltaParam) -> bool {
        let li = local as usize;
        if nd >= self.dist[li] {
            return false;
        }
        let old_b = self.bucket_of[li];
        let new_b = delta.bucket_of(nd);
        debug_assert!(
            new_b <= old_b,
            "bucket monotonicity violated: relax(local {local}, d = {nd}) would move \
             bucket {old_b} -> {new_b}"
        );
        self.dist[li] = nd;
        if new_b < old_b {
            if old_b == INF_BUCKET {
                self.leave_unreached(li);
            } else {
                self.store.dec(old_b);
            }
            self.store.push(local, new_b);
            self.bucket_of[li] = new_b;
        }
        self.changed.insert(local);
        true
    }

    /// Live members of bucket `k` (lazy deletion filtered).
    pub fn bucket_members(&self, k: u64) -> impl Iterator<Item = u32> + '_ {
        self.window_members(k, k)
    }

    /// Live members of every bucket in `[lo, hi]` (lazy deletion
    /// filtered). In-ring buckets come in bucket order; spill members (a
    /// window reaching past the ring) follow in no particular order —
    /// every consumer is order-independent (min/sum folds and the bitset
    /// active-set collector).
    pub fn window_members(&self, lo: u64, hi: u64) -> impl Iterator<Item = u32> + '_ {
        let bucket_of = &self.bucket_of;
        let fb = &self.store;
        let ring_lo = lo.max(fb.base);
        let ring_hi = hi.min(fb.ring_end() - 1);
        let spill_take = if hi >= fb.ring_end() { usize::MAX } else { 0 };
        (ring_lo..=ring_hi)
            .flat_map(move |b| {
                fb.lanes[FlatBuckets::slot(b)]
                    .iter()
                    .copied()
                    .filter(move |&v| bucket_of[v as usize] == b)
            })
            .chain(
                fb.spill
                    .iter()
                    .take(spill_take)
                    .filter(move |&&(v, b)| lo <= b && b <= hi && bucket_of[v as usize] == b)
                    .map(|&(v, _)| v),
            )
    }

    /// Raw (unfiltered) scan length over the bucket range `[lo, hi]` — the
    /// cost of collecting the window's members. On the flat layout a
    /// window reaching past the ring charges the whole spill list (that is
    /// what the collector scans).
    pub fn window_scan_len(&self, lo: u64, hi: u64) -> usize {
        self.store.window_scan_len(lo, hi)
    }

    /// Exact number of vertices currently in buckets `[lo, hi]`.
    pub fn window_count(&self, lo: u64, hi: u64) -> u64 {
        self.store.window_count(lo, hi)
    }

    /// ρ-stepping's per-rank window proposal: the largest bucket `H ≥ k`
    /// such that at most `cap` local vertices sit in buckets `[k, H]` —
    /// but at least `k` itself, since the globally selected bucket must be
    /// inside the window. When the whole suffix fits under the cap that is
    /// its last non-empty bucket; only a rank with no member at or above
    /// `k` returns [`NO_PROPOSAL`].
    pub fn prefix_window_end(&self, k: u64, cap: u64) -> u64 {
        self.store.prefix_window_end(k, cap)
    }

    /// Smallest non-empty bucket index `> k`, if any. Pass `None` to search
    /// from the beginning.
    pub fn next_nonempty_after(&self, k: Option<u64>) -> Option<u64> {
        let start = match k {
            Some(k) => k + 1,
            None => 0,
        };
        self.store.next_nonempty_from(start)
    }

    /// Live members of every finite bucket `> k`: the reached-but-unsettled
    /// vertices of an epoch whose window ends at `k`. Each appears exactly
    /// once (a vertex enters a bucket at most once and lazy deletion drops
    /// the entries it left behind), in no particular order.
    pub fn members_after(&self, k: u64) -> impl Iterator<Item = u32> + '_ {
        self.window_members(k.saturating_add(1), INF_BUCKET - 1)
    }

    /// Number of unsettled vertices (bucket index > `k`, unreached ones
    /// included), i.e. the scan extent of a pull phase for current bucket
    /// `k`.
    pub fn count_unsettled_after(&self, k: u64) -> u64 {
        self.store.count_after(k) + self.unreached
    }

    /// Collect the live members of every bucket in `[lo, hi]` into
    /// `active` (both `collect_active_*` methods refill the bitset in place
    /// — a clear of its live words plus member insertion, no reallocation).
    pub fn collect_active_from_window(&mut self, lo: u64, hi: u64) {
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        for v in self.window_members(lo, hi) {
            active.insert(v);
        }
        self.active = active;
    }

    /// Refill `active` with the changed vertices currently in buckets
    /// `[lo, hi]` (the next short phase's frontier of a window epoch).
    pub fn collect_active_changed_in_window(&mut self, lo: u64, hi: u64) {
        self.active.clear();
        let (changed, bucket_of, active) = (&self.changed, &self.bucket_of, &mut self.active);
        for v in changed.iter() {
            let b = bucket_of[v as usize];
            if lo <= b && b <= hi {
                active.insert(v);
            }
        }
    }

    /// Charge the receive-side processing of one message to the thread
    /// owning the target vertex. Receive work is O(1) per message, so it is
    /// never spread (spreading would hide exactly the per-thread imbalance
    /// the decision heuristic's cost model is supposed to see).
    #[inline]
    pub fn charge_recv(&mut self, target: u32) {
        self.loads.charge(target as usize, 1, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeltaParam;

    fn delta5() -> DeltaParam {
        DeltaParam::Finite(5)
    }

    /// Bucket-structure tests run on a fresh state and once more on a
    /// reset one: a reused state must be indistinguishable from fresh.
    fn both_lifecycles(f: impl Fn(RankState)) {
        f(RankState::new(0, 64, 1));
        let mut reused = RankState::new(0, 64, 1);
        reused.begin_phase();
        let d1 = DeltaParam::Finite(1);
        for v in 0..32 {
            reused.relax(v, u64::from(v) * 40 + 1, &d1);
        }
        reused.advance_frontier(FLAT_LANES + 7);
        reused.reset();
        f(reused);
    }

    #[test]
    fn window_helpers_cover_bucket_ranges() {
        both_lifecycles(|mut s| {
            s.begin_phase();
            s.relax(0, 3, &delta5()); // bucket 0
            s.relax(1, 7, &delta5()); // bucket 1
            s.relax(2, 12, &delta5()); // bucket 2
            s.relax(3, 13, &delta5()); // bucket 2
            assert_eq!(s.window_count(0, 1), 2);
            assert_eq!(s.window_count(1, 2), 3);
            assert_eq!(s.window_members(0, 2).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
            s.collect_active_from_window(1, 2);
            assert_eq!(s.active.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
            s.collect_active_changed_in_window(2, 2);
            assert_eq!(s.active.iter().collect::<Vec<_>>(), vec![2, 3]);
            // A vertex that moved below the window drops out everywhere.
            s.relax(2, 1, &delta5());
            assert_eq!(s.window_members(2, 2).collect::<Vec<_>>(), vec![3]);
            assert_eq!(s.window_scan_len(2, 2), 2); // stale entry still scanned
            assert_eq!(s.window_count(2, 2), 1);
        });
    }

    #[test]
    fn prefix_window_end_respects_the_cap() {
        both_lifecycles(|mut s| {
            s.begin_phase();
            s.relax(0, 3, &delta5()); // bucket 0
            s.relax(1, 7, &delta5()); // bucket 1
            s.relax(2, 12, &delta5()); // bucket 2
            s.relax(3, 13, &delta5()); // bucket 2
                                       // cap 1: only bucket 0 fits.
            assert_eq!(s.prefix_window_end(0, 1), 0);
            // cap 2: buckets 0..=1 fit, bucket 2 would exceed.
            assert_eq!(s.prefix_window_end(0, 2), 1);
            // cap 4: everything fits — the window ends at the last
            // reached bucket.
            assert_eq!(s.prefix_window_end(0, 4), 2);
            // No member at or above k: no bound.
            assert_eq!(s.prefix_window_end(3, 4), NO_PROPOSAL);
            // Even a cap the selected bucket alone exceeds proposes k itself.
            assert_eq!(s.prefix_window_end(2, 1), 2);
        });
    }

    #[test]
    fn root_goes_to_bucket_zero() {
        both_lifecycles(|mut s| {
            s.relax(3, 0, &delta5());
            assert_eq!(s.dist[3], 0);
            assert_eq!(s.window_count(0, 0), 1);
            assert_eq!(s.bucket_members(0).collect::<Vec<_>>(), vec![3]);
        });
    }

    #[test]
    fn relax_improves_and_moves_buckets() {
        both_lifecycles(|mut s| {
            s.begin_phase();
            assert!(s.relax(1, 12, &delta5())); // bucket 2
            assert_eq!(s.bucket_of[1], 2);
            assert!(s.relax(1, 3, &delta5())); // bucket 0
            assert_eq!(s.bucket_of[1], 0);
            assert_eq!(s.window_count(2, 2), 0);
            assert_eq!(s.window_count(0, 0), 1);
            assert!(!s.relax(1, 3, &delta5())); // equal: no change
            assert!(!s.relax(1, 7, &delta5())); // worse: no change
        });
    }

    #[test]
    fn changed_is_deduplicated() {
        let mut s = RankState::new(0, 4, 1);
        s.begin_phase();
        s.relax(2, 100, &delta5());
        s.relax(2, 50, &delta5());
        s.relax(2, 20, &delta5());
        assert_eq!(s.changed.iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.changed.len(), 1);
        s.begin_phase();
        assert!(s.changed.is_empty());
        s.relax(2, 10, &delta5());
        assert_eq!(s.changed.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn lazy_deletion_filters_members() {
        both_lifecycles(|mut s| {
            s.begin_phase();
            s.relax(1, 12, &delta5()); // bucket 2
            s.relax(2, 13, &delta5()); // bucket 2
            s.relax(1, 2, &delta5()); // moves to bucket 0; stale entry remains in 2
            let members: Vec<u32> = s.bucket_members(2).collect();
            assert_eq!(members, vec![2]);
            assert_eq!(s.window_scan_len(2, 2), 2); // stale entry still scanned
            assert_eq!(s.window_count(2, 2), 1);
        });
    }

    #[test]
    fn next_nonempty_after_skips_empties() {
        both_lifecycles(|mut s| {
            s.begin_phase();
            s.relax(0, 3, &delta5()); // bucket 0
            s.relax(1, 26, &delta5()); // bucket 5
            assert_eq!(s.next_nonempty_after(None), Some(0));
            assert_eq!(s.next_nonempty_after(Some(0)), Some(5));
            assert_eq!(s.next_nonempty_after(Some(5)), None);
        });
    }

    #[test]
    fn unsettled_counts_include_infinite() {
        let mut s = RankState::new(0, 6, 1);
        s.begin_phase();
        s.relax(0, 3, &delta5()); // bucket 0
        s.relax(1, 26, &delta5()); // bucket 5
                                   // 4 INF vertices + 1 in bucket 5.
        assert_eq!(s.count_unsettled_after(0), 5);
        assert_eq!(s.count_unsettled_after(5), 4);
    }

    #[test]
    fn unreached_totals_follow_the_single_inf_transition() {
        let mut s = RankState::new(0, 6, 1);
        assert_eq!((s.unreached(), s.unreached_pull_mass()), (6, 0));
        s.install_unreached_terms(|v| 10 * (v as u64 + 1));
        assert_eq!((s.unreached(), s.unreached_pull_mass()), (6, 210));
        s.begin_phase();
        s.relax(1, 26, &delta5()); // leaves B∞: −20
        assert_eq!((s.unreached(), s.unreached_pull_mass()), (5, 190));
        s.relax(1, 3, &delta5()); // already reached: totals untouched
        assert!(!s.relax(1, 9, &delta5()));
        assert_eq!((s.unreached(), s.unreached_pull_mass()), (5, 190));
        s.relax(5, 0, &delta5()); // −60
        assert_eq!((s.unreached(), s.unreached_pull_mass()), (4, 130));
        assert_eq!(s.members_after(0).count(), 0);
        s.relax(2, 7, &delta5());
        s.relax(3, FLAT_LANES * 9, &delta5()); // a spill member
        let mut later: Vec<u32> = s.members_after(0).collect();
        later.sort_unstable();
        assert_eq!(later, vec![2, 3]);
        // `reset` puts every vertex back and keeps the installed terms.
        s.reset();
        assert_eq!((s.unreached(), s.unreached_pull_mass()), (6, 210));
    }

    #[test]
    fn collect_active_refills_in_place() {
        // The bitset frontier never reallocates across refills: its word
        // arrays are sized once at construction and every collect is a
        // clear of the live words plus insertions.
        let mut s = RankState::new(0, 16, 2);
        s.begin_phase();
        for v in 0..8 {
            s.relax(v, 3, &delta5()); // all in bucket 0
        }
        s.collect_active_from_window(0, 0);
        assert_eq!(s.active.len(), 8);
        s.begin_phase();
        s.relax(9, 2, &delta5());
        s.collect_active_changed_in_window(0, 0);
        assert_eq!(s.active.iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn collect_active_changed_in_bucket_filters_moved_vertices() {
        let mut s = RankState::new(0, 8, 1);
        s.begin_phase();
        s.relax(1, 3, &delta5()); // bucket 0
        s.relax(2, 12, &delta5()); // bucket 2 — not in bucket 0
        s.collect_active_changed_in_window(0, 0);
        assert_eq!(s.active.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn charge_recv_lands_on_target_owner_thread() {
        let mut s = RankState::new(0, 8, 4);
        // Locals 0 and 4 are both owned by thread 0 (cyclic ownership).
        s.charge_recv(0);
        s.charge_recv(4);
        s.charge_recv(1);
        assert_eq!(s.loads.max(), 2);
        assert_eq!(s.loads.total(), 3);
    }

    #[test]
    fn infinite_delta_single_bucket() {
        let mut s = RankState::new(0, 4, 1);
        s.begin_phase();
        s.relax(0, 1_000_000, &DeltaParam::Infinite);
        s.relax(1, 5, &DeltaParam::Infinite);
        assert_eq!(s.bucket_of[0], 0);
        assert_eq!(s.bucket_of[1], 0);
        assert_eq!(s.window_count(0, 0), 2);
    }

    #[test]
    fn spill_covers_buckets_beyond_the_ring() {
        // Dial granularity (Δ = 1): the bucket IS the distance, so a far
        // relax lands beyond the FLAT_LANES ring and must spill.
        let d1 = DeltaParam::Finite(1);
        let far = FLAT_LANES + 100;
        let mut s = RankState::new(0, 8, 1);
        s.begin_phase();
        s.relax(0, 2, &d1);
        s.relax(1, far, &d1);
        s.relax(2, far, &d1);
        assert_eq!(s.window_count(far, far), 2);
        assert_eq!(s.window_count(0, far), 3);
        assert_eq!(s.next_nonempty_after(Some(2)), Some(far));
        let mut members: Vec<u32> = s.bucket_members(far).collect();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2]);
        // A spill entry going stale before migration is dropped by it.
        s.relax(2, 3, &d1);
        assert_eq!(s.window_count(far, far), 1);
        // Advance past the small buckets: the far bucket enters the ring.
        s.advance_frontier(far - 10);
        assert_eq!(s.window_count(far, far), 1);
        assert_eq!(s.window_scan_len(far, far), 1, "stale spill entry migrated");
        assert_eq!(s.bucket_members(far).collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.next_nonempty_after(None), Some(far));
    }

    #[test]
    fn advance_recycles_passed_lanes() {
        let d1 = DeltaParam::Finite(1);
        let mut s = RankState::new(0, 8, 1);
        s.begin_phase();
        s.relax(0, 0, &d1);
        s.relax(1, 3, &d1);
        s.advance_frontier(3);
        // Settled bucket 0 was recycled; the epoch only queries ≥ 3.
        assert_eq!(s.window_count(3, 3), 1);
        assert_eq!(s.next_nonempty_after(Some(2)), Some(3));
        // The recycled lane serves its ring successor (bucket 0 + lanes).
        s.relax(2, FLAT_LANES, &d1);
        assert_eq!(s.window_count(FLAT_LANES, FLAT_LANES), 1);
        assert_eq!(s.bucket_members(FLAT_LANES).collect::<Vec<_>>(), vec![2]);
        // A jump past the whole ring recycles every lane.
        let mut far = RankState::new(0, 8, 1);
        far.begin_phase();
        far.relax(0, 1, &d1);
        far.advance_frontier(10 * FLAT_LANES);
        assert_eq!(far.next_nonempty_after(None), None);
    }

    #[test]
    fn reset_restores_the_fresh_initial_state() {
        // A reused state must be indistinguishable from a fresh one even
        // after a run that advanced the ring base past FLAT_LANES and left
        // spill entries behind — the two bug shapes a stale reuse leaks:
        // a base > 0 answering bucket-0 pushes as empty, and spill
        // entries from the previous query reappearing as live members.
        let d1 = DeltaParam::Finite(1);
        let mut s = RankState::new(0, 16, 2);
        s.begin_phase();
        s.relax(0, 2, &d1);
        s.relax(1, FLAT_LANES + 9, &d1); // spill entry
        s.relax(2, 3 * FLAT_LANES, &d1); // deep spill entry
        s.advance_frontier(FLAT_LANES + 9); // base well past 0
        s.charge_recv(0);
        assert!(
            s.window_count(0, 0) == 0,
            "bucket 0 recycled by the advance"
        );
        s.reset();
        assert!(s.dist.iter().all(|&d| d == INF));
        assert!(s.bucket_of.iter().all(|&b| b == INF_BUCKET));
        assert!(s.changed.is_empty() && s.active.is_empty());
        assert_eq!(s.loads.total(), 0);
        assert_eq!(s.next_nonempty_after(None), None, "no survivors anywhere");
        assert_eq!(s.window_count(0, 10 * FLAT_LANES), 0);
        // Bucket 0 must accept pushes again (the base rewound).
        s.relax(5, 0, &d1);
        assert_eq!(s.window_count(0, 0), 1);
        assert_eq!(s.bucket_members(0).collect::<Vec<_>>(), vec![5]);
        // And the spill list must not resurrect the old entries.
        assert_eq!(s.window_count(FLAT_LANES + 9, FLAT_LANES + 9), 0);
        assert_eq!(s.window_count(3 * FLAT_LANES, 3 * FLAT_LANES), 0);
    }
}
