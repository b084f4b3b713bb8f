//! Bulk-synchronous message exchange between ranks.
//!
//! A superstep produces, for every source rank, one outbox per destination
//! rank (`outboxes[src][dst]`). [`exchange_pooled`] transposes these into
//! one inbox per destination, concatenating in source-rank order so
//! delivery is deterministic, and records the traffic in a [`StepStats`].
//! It recycles both outbox lanes and inboxes across supersteps, so a
//! steady-state superstep performs no heap allocation — the transpose the
//! lockstep transport ([`crate::transport::LockstepComm`]) runs.
//! [`ExchangeBuffers`] bundles one such recycled buffer set.
//!
//! [`ExchangeBuffers`]: crate::exchange::ExchangeBuffers
//! [`StepStats`]: crate::stats::StepStats
//! [`exchange_pooled`]: crate::exchange::exchange_pooled

use crate::stats::StepStats;
use crate::Rank;

/// Per-source outboxes: `out[dst]` holds the messages this rank sends to
/// `dst`. Construct with [`Outbox::new`] and fill during the compute step.
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    /// One message lane per destination rank.
    pub out: Vec<Vec<M>>,
}

impl<M> Outbox<M> {
    /// Empty outbox with one lane per destination rank.
    pub fn new(p: usize) -> Self {
        Outbox {
            out: (0..p).map(|_| Vec::new()).collect(),
        }
    }

    #[inline]
    /// Queue `msg` for delivery to `dst` at the next superstep boundary.
    pub fn send(&mut self, dst: Rank, msg: M) {
        self.out[dst].push(msg);
    }

    /// Number of queued messages across all destinations.
    pub fn total_msgs(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Empty every lane, retaining its capacity for reuse.
    pub fn clear(&mut self) {
        for lane in &mut self.out {
            lane.clear();
        }
    }
}

/// Deliver all outboxes into the given inboxes: `inboxes[dst]` receives
/// the messages from source 0 first, then source 1, … Inboxes are cleared
/// first; after the call every outbox lane is empty *with its capacity
/// retained*, so a caller that keeps both sides alive across supersteps
/// reaches a steady state where the exchange allocates nothing. Returns the
/// step's traffic statistics.
///
/// `msg_bytes` is the on-wire size charged per message; a
/// [`PacketConfig`](crate::packet::PacketConfig) frames each per-(src, dst)
/// stream into packets and adds the header overhead to the byte counts.
/// Every transport passes `None`; the framed path stays only for callers
/// of this simulated exchange ([`ExchangeBuffers::exchange`] included)
/// until it is folded into the transports' exchange.
pub fn exchange_pooled<M>(
    outboxes: &mut [Outbox<M>],
    inboxes: &mut [Vec<M>],
    msg_bytes: usize,
    packet: Option<&crate::packet::PacketConfig>,
) -> StepStats {
    let p = outboxes.len();
    assert_eq!(inboxes.len(), p, "inbox fan-out mismatch");
    let mut stats = StepStats::default();
    let wire = |count: u64| -> u64 {
        match packet {
            Some(cfg) => cfg.wire_bytes(count, msg_bytes),
            None => count * msg_bytes as u64,
        }
    };

    // Per-rank send accounting (before the moves).
    for (src, ob) in outboxes.iter().enumerate() {
        assert_eq!(ob.out.len(), p, "outbox of rank {src} has wrong fan-out");
        let mut sent_bytes = 0u64;
        for (dst, msgs) in ob.out.iter().enumerate() {
            let k = msgs.len() as u64;
            if dst == src {
                stats.local_msgs += k;
            } else {
                stats.remote_msgs += k;
                let b = wire(k);
                sent_bytes += b;
                stats.remote_bytes += b;
            }
        }
        stats.max_rank_send_bytes = stats.max_rank_send_bytes.max(sent_bytes);
    }
    // Per-rank receive accounting: a second pass over the lane lengths
    // instead of a scratch vector keeps the pooled path allocation-free.
    for dst in 0..p {
        let mut recv = 0u64;
        for (src, ob) in outboxes.iter().enumerate() {
            if src != dst {
                recv += wire(ob.out[dst].len() as u64);
            }
        }
        stats.max_rank_recv_bytes = stats.max_rank_recv_bytes.max(recv);
    }

    // Transpose: inbox[dst] = concat over src of outboxes[src].out[dst].
    // `append` moves the messages and leaves each lane empty with its
    // capacity intact — the core of the recycling scheme.
    for ib in inboxes.iter_mut() {
        ib.clear();
    }
    for ob in outboxes.iter_mut() {
        for (dst, lane) in ob.out.iter_mut().enumerate() {
            inboxes[dst].append(lane);
        }
    }
    stats
}

/// Sender-side sorted-run packing of one outbox lane: sort the lane by
/// `(key, val)` so it ships as a single key-sorted run the receiver can
/// apply as a sequential min-merge over its distance array instead of
/// random-access writes. With `dedup` enabled (relaxation coalescing) the
/// sorted order additionally lets every dominated duplicate collapse for
/// free: for each distinct `key(m)` only the message with the smallest
/// `val(m)` survives. Relaxation traffic is an idempotent min-reduction
/// per destination vertex, so neither the reordering nor the dropping
/// changes final distances — and sorting makes the delivery order a pure
/// function of the lane's message *set* rather than its fill order.
///
/// Returns the number of messages removed (always 0 without `dedup`).
pub fn pack_sorted_run<M, K, V>(
    lane: &mut Vec<M>,
    key: impl Fn(&M) -> K,
    val: impl Fn(&M) -> V,
    dedup: bool,
) -> u64
where
    K: Ord,
    V: Ord,
{
    if lane.len() < 2 {
        return 0;
    }
    let before = lane.len();
    lane.sort_unstable_by(|a, b| key(a).cmp(&key(b)).then_with(|| val(a).cmp(&val(b))));
    if dedup {
        // `dedup_by` drops the *later* element of each equal-key pair, so
        // the survivor of every key run is its first — smallest — message.
        lane.dedup_by(|a, b| key(a) == key(b));
    }
    (before - lane.len()) as u64
}

/// A two-level bitset over the ids `0..n`: one `u64` word per 64 ids, plus
/// a summary with one bit per non-zero word. Insertion is idempotent and
/// sets the summary bit; iteration walks the summary's set bits, then each
/// live word, so members come out in ascending id and a walk costs
/// O(live words + n / 4 096), never O(n / 64). [`SparseBitset::clear`]
/// zeroes exactly the live words, found through the summary.
#[derive(Debug, Default)]
pub struct SparseBitset {
    words: Vec<u64>,
    /// Bit `wi` is set exactly when `words[wi]` is non-zero.
    summary: Vec<u64>,
}

/// The set bits of `word`, ascending.
#[inline]
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

impl SparseBitset {
    /// Empty set over the ids `0..n`.
    pub fn new(n: usize) -> Self {
        let nw = n.div_ceil(64);
        SparseBitset {
            words: vec![0; nw],
            summary: vec![0; nw.div_ceil(64)],
        }
    }

    /// Insert `v`; returns whether it was newly inserted. The only branch
    /// is on the word being empty, so first inserts and duplicates may
    /// interleave unpredictably.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let wi = (v >> 6) as usize;
        let word = &mut self.words[wi];
        let old = *word;
        *word = old | 1u64 << (v & 63);
        if old == 0 {
            self.summary[wi >> 6] |= 1u64 << (wi & 63);
        }
        old != *word
    }

    /// Whether `v` is a member.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.words[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
    }

    /// Number of members: a population count of the live words.
    pub fn len(&self) -> usize {
        self.live_words()
            .map(|wi| self.words[wi].count_ones() as usize)
            .sum()
    }

    /// Whether the set is empty: a look at the summary alone.
    pub fn is_empty(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }

    /// Indices of the non-zero words, ascending.
    fn live_words(&self) -> impl Iterator<Item = usize> + '_ {
        let live = self.summary.iter().enumerate();
        live.flat_map(|(si, &s)| ones(s).map(move |b| si * 64 + b))
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.live_words().flat_map(|wi| {
            let base = wi * 64;
            // Bound: `n` ids fit a `u32` (every id was one when inserted).
            ones(self.words[wi]).map(move |b| (base + b) as u32)
        })
    }

    /// Remove every member, zeroing only the live words.
    pub fn clear(&mut self) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            for b in ones(std::mem::take(s)) {
                self.words[si * 64 + b] = 0;
            }
        }
    }
}

/// Sort-free form of [`pack_sorted_run`] with `dedup` enabled, for messages
/// whose keys are dense indices below a known bound (a relaxation's target
/// is a local index on the destination rank). Every [`MinTable::fold`]
/// keeps `min(val)` per key and inserts the key into a [`SparseBitset`];
/// [`MinTable::emit`] then appends one message per member, in the set's
/// ascending order, and clears it. Nothing is sorted, and no message is
/// materialised before the emit.
///
/// Reusable across emits: the set is empty between emits and `best` needs
/// no clearing (a slot is written before it is read). `best` is allocated
/// zeroed, so pages no fold ever touches are never made resident.
#[derive(Debug, Default)]
pub struct MinTable {
    /// Smallest value seen per key; meaningful only where `present` holds
    /// the key.
    best: Vec<u64>,
    present: SparseBitset,
    /// Folds since the last emit.
    folded: u64,
}

impl MinTable {
    /// Empty table for keys `0..n_keys`.
    pub fn new(n_keys: usize) -> Self {
        MinTable {
            best: vec![0; n_keys],
            present: SparseBitset::new(n_keys),
            folded: 0,
        }
    }

    /// Number of keys the table covers.
    pub fn n_keys(&self) -> usize {
        self.best.len()
    }

    /// Fold the message `(key, val)`: keep the smaller value per key. The
    /// key must be below [`MinTable::n_keys`].
    #[inline]
    pub fn fold(&mut self, key: u32, val: u64) {
        self.folded += 1;
        let slot = &mut self.best[key as usize];
        // A first fold and a duplicate interleave unpredictably, so pick
        // the new value without a branch.
        let seen = !self.present.insert(key);
        *slot = if seen { val.min(*slot) } else { val };
    }

    /// Append `make(key, min val)` to `lane` for every key folded since the
    /// last emit, in ascending key order — byte for byte what
    /// [`pack_sorted_run`] with `dedup` leaves of the folded messages when a
    /// message is its `(key, val)` pair — and leave the table empty. A table
    /// nothing was folded into costs one comparison.
    ///
    /// Returns the number of folded messages that did not survive.
    pub fn emit<M>(&mut self, lane: &mut Vec<M>, make: impl Fn(u32, u64) -> M) -> u64 {
        if self.folded == 0 {
            return 0;
        }
        let before = lane.len() as u64;
        lane.extend(self.present.iter().map(|k| make(k, self.best[k as usize])));
        self.present.clear();
        let removed = self.folded - (lane.len() as u64 - before);
        self.folded = 0;
        removed
    }

    /// Drop whatever was folded since the last emit, so a fold sequence an
    /// unwinding panic cut short cannot leak into the next one.
    pub fn discard(&mut self) {
        self.present.clear();
        self.folded = 0;
    }
}

/// The pool-growth bound: shrink `buf` back to `high_water` capacity when
/// its current capacity exceeds 4× that high-water mark. A single giant
/// superstep thereby cannot pin its peak allocation for the rest of the
/// run; steady-state buffers (within 4× of recent traffic) are untouched.
///
/// Returns whether the buffer shrank.
pub fn shrink_oversized<M>(buf: &mut Vec<M>, high_water: usize) -> bool {
    if buf.capacity() > high_water.saturating_mul(4) {
        buf.shrink_to(high_water);
        true
    } else {
        false
    }
}

/// A recycled outbox/inbox set for one message type, reused across
/// supersteps. One [`Outbox`] per source rank, one inbox per destination
/// rank; [`ExchangeBuffers::exchange`] moves queued messages from the
/// former to the latter while every buffer keeps its capacity.
#[derive(Debug)]
pub struct ExchangeBuffers<M> {
    /// One outbox per source rank (`outboxes[src].out[dst]`).
    pub outboxes: Vec<Outbox<M>>,
    /// One inbox per destination rank, refilled by each exchange.
    pub inboxes: Vec<Vec<M>>,
}

impl<M> ExchangeBuffers<M> {
    /// Empty buffer set for `p` ranks.
    pub fn new(p: usize) -> Self {
        ExchangeBuffers {
            outboxes: (0..p).map(|_| Outbox::new(p)).collect(),
            inboxes: (0..p).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of ranks this buffer set serves.
    pub fn num_ranks(&self) -> usize {
        self.outboxes.len()
    }

    /// Deliver all queued outbox messages into the inboxes (see
    /// [`exchange_pooled`]) and return the step's traffic statistics.
    pub fn exchange(
        &mut self,
        msg_bytes: usize,
        packet: Option<&crate::packet::PacketConfig>,
    ) -> StepStats {
        exchange_pooled(&mut self.outboxes, &mut self.inboxes, msg_bytes, packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exchange into fresh inboxes.
    fn exchange<M>(mut obs: Vec<Outbox<M>>, msg_bytes: usize) -> (Vec<Vec<M>>, StepStats) {
        let mut inboxes: Vec<Vec<M>> = obs.iter().map(|_| Vec::new()).collect();
        let stats = exchange_pooled(&mut obs, &mut inboxes, msg_bytes, None);
        (inboxes, stats)
    }

    #[test]
    fn delivery_is_transposed_and_ordered() {
        let p = 3;
        let mut obs: Vec<Outbox<(usize, usize)>> = (0..p).map(|_| Outbox::new(p)).collect();
        for (src, ob) in obs.iter_mut().enumerate() {
            for dst in 0..p {
                ob.send(dst, (src, dst));
            }
        }
        let (inboxes, _) = exchange(obs, 16);
        for (dst, inbox) in inboxes.iter().enumerate() {
            let expect: Vec<_> = (0..p).map(|src| (src, dst)).collect();
            assert_eq!(inbox, &expect);
        }
    }

    #[test]
    fn stats_split_local_and_remote() {
        let p = 2;
        let mut obs: Vec<Outbox<u64>> = (0..p).map(|_| Outbox::new(p)).collect();
        obs[0].send(0, 1); // local
        obs[0].send(1, 2); // remote
        obs[1].send(0, 3); // remote
        let (_, stats) = exchange(obs, 8);
        assert_eq!(stats.local_msgs, 1);
        assert_eq!(stats.remote_msgs, 2);
        assert_eq!(stats.remote_bytes, 16);
        assert_eq!(stats.max_rank_send_bytes, 8);
        assert_eq!(stats.max_rank_recv_bytes, 8);
    }

    #[test]
    fn max_rank_send_detects_imbalance() {
        let p = 3;
        let mut obs: Vec<Outbox<u8>> = (0..p).map(|_| Outbox::new(p)).collect();
        for _ in 0..10 {
            obs[0].send(1, 0);
        }
        obs[2].send(1, 0);
        let (_, stats) = exchange(obs, 4);
        assert_eq!(stats.remote_msgs, 11);
        assert_eq!(stats.max_rank_send_bytes, 40);
        assert_eq!(stats.max_rank_recv_bytes, 44);
    }

    #[test]
    fn empty_exchange() {
        let obs: Vec<Outbox<u32>> = (0..4).map(|_| Outbox::new(4)).collect();
        let (inboxes, stats) = exchange(obs, 4);
        assert!(inboxes.iter().all(Vec::is_empty));
        assert_eq!(stats, StepStats::default());
    }

    /// Fill one rank's worth of traffic into both a fresh outbox set and a
    /// pooled buffer set and compare delivery + stats.
    #[test]
    fn pooled_matches_fresh_exchange() {
        let p = 3;
        let fill = |send: &mut dyn FnMut(usize, usize, (usize, usize))| {
            for src in 0..p {
                for dst in 0..p {
                    for _ in 0..(src + 2 * dst) {
                        send(src, dst, (src, dst));
                    }
                }
            }
        };
        let mut obs: Vec<Outbox<(usize, usize)>> = (0..p).map(|_| Outbox::new(p)).collect();
        fill(&mut |s, d, m| obs[s].send(d, m));
        let (fresh_in, fresh_stats) = exchange(obs, 16);

        let mut bufs: ExchangeBuffers<(usize, usize)> = ExchangeBuffers::new(p);
        assert_eq!(bufs.num_ranks(), p);
        fill(&mut |s, d, m| bufs.outboxes[s].send(d, m));
        let pooled_stats = bufs.exchange(16, None);
        assert_eq!(bufs.inboxes, fresh_in);
        assert_eq!(pooled_stats, fresh_stats);
    }

    #[test]
    fn pooled_buffers_retain_capacity_across_supersteps() {
        let p = 2;
        let mut bufs: ExchangeBuffers<u64> = ExchangeBuffers::new(p);
        for round in 0..3u64 {
            for dst in 0..p {
                for i in 0..50 {
                    bufs.outboxes[0].send(dst, round * 100 + i);
                }
            }
            bufs.exchange(8, None);
            assert_eq!(bufs.inboxes[0].len(), 50);
            assert_eq!(bufs.inboxes[1].len(), 50);
            // Lanes are drained but keep their capacity.
            for ob in &bufs.outboxes {
                assert!(ob.total_msgs() == 0);
            }
            assert!(bufs.outboxes[0].out[0].capacity() >= 50);
            assert!(bufs.inboxes[0].capacity() >= 50);
        }
    }

    #[test]
    fn pooled_exchange_clears_stale_inbox_contents() {
        let mut bufs: ExchangeBuffers<u32> = ExchangeBuffers::new(2);
        bufs.outboxes[0].send(1, 7);
        bufs.exchange(4, None);
        assert_eq!(bufs.inboxes[1], vec![7]);
        // Next superstep sends nothing: the old message must not survive.
        let stats = bufs.exchange(4, None);
        assert!(bufs.inboxes[1].is_empty());
        assert_eq!(stats, StepStats::default());
    }

    #[test]
    fn coalesce_keeps_min_per_key() {
        let mut lane: Vec<(u32, u64)> = vec![(3, 9), (1, 5), (3, 2), (2, 7), (1, 5), (3, 11)];
        let saved = pack_sorted_run(&mut lane, |m| m.0, |m| m.1, true);
        assert_eq!(saved, 3);
        assert_eq!(lane, vec![(1, 5), (2, 7), (3, 2)]);
    }

    #[test]
    fn coalesce_short_lanes_are_untouched() {
        let mut empty: Vec<(u32, u64)> = Vec::new();
        assert_eq!(pack_sorted_run(&mut empty, |m| m.0, |m| m.1, true), 0);
        let mut one = vec![(5u32, 40u64)];
        assert_eq!(pack_sorted_run(&mut one, |m| m.0, |m| m.1, true), 0);
        assert_eq!(one, vec![(5, 40)]);
    }

    #[test]
    fn pack_without_dedup_sorts_and_keeps_everything() {
        let mut lane: Vec<(u32, u64)> = vec![(3, 9), (1, 5), (3, 2), (2, 7), (1, 5), (3, 11)];
        let saved = pack_sorted_run(&mut lane, |m| m.0, |m| m.1, false);
        assert_eq!(saved, 0);
        assert_eq!(lane, vec![(1, 5), (1, 5), (2, 7), (3, 2), (3, 9), (3, 11)]);
    }

    #[test]
    fn pack_with_dedup_matches_coalesce() {
        // The sort-free coalescing table leaves what the sorted dedup does.
        let msgs: Vec<(u32, u64)> = vec![(3, 9), (1, 5), (3, 2), (2, 7), (1, 5), (3, 11)];
        let mut packed = msgs.clone();
        let a = pack_sorted_run(&mut packed, |m| m.0, |m| m.1, true);
        let mut table = MinTable::new(4);
        for &(k, v) in &msgs {
            table.fold(k, v);
        }
        let mut coalesced = Vec::new();
        let b = table.emit(&mut coalesced, |k, v| (k, v));
        assert_eq!(a, b);
        assert_eq!(packed, coalesced);
        assert_eq!(packed, vec![(1, 5), (2, 7), (3, 2)]);
    }

    #[test]
    fn sparse_bitset_matches_a_btreeset_model() {
        // Universes on and around the word (64) and summary-word (4 096)
        // boundaries; one set per universe, cleared between rounds, as the
        // engine reuses its frontiers across supersteps.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        for n in [0usize, 1, 63, 64, 65, 4_095, 4_096, 4_097, 3 * 4_096 + 5] {
            let mut set = SparseBitset::new(n);
            let mut model = std::collections::BTreeSet::new();
            for round in 0..4 {
                assert!(set.is_empty() && set.iter().next().is_none());
                // Sparse, then dense rounds; the top id every time.
                let inserts = if n == 0 {
                    0
                } else {
                    [3, n / 2, 2 * n, 40][round]
                };
                let ids = (0..inserts).map(|_| next(n as u64) as u32);
                for v in ids.chain((n > 0).then(|| (n - 1) as u32)) {
                    assert_eq!(set.insert(v), model.insert(v), "n {n}, insert {v}");
                }
                assert_eq!(set.len(), model.len(), "n {n}");
                assert!(set.iter().eq(model.iter().copied()), "n {n}, round {round}");
                for _ in 0..(n.min(200)) {
                    let v = next(n as u64) as u32;
                    assert_eq!(set.contains(v), model.contains(&v), "n {n}, contains {v}");
                }
                set.clear();
                model.clear();
                assert_eq!(set.len(), 0);
                assert!((0..n as u32).step_by(61).all(|v| !set.contains(v)));
            }
        }
    }

    #[test]
    fn shrink_oversized_honors_the_4x_bound() {
        let mut buf: Vec<u8> = Vec::with_capacity(1000);
        // Capacity 1000 ≤ 4 × 250: not oversized.
        assert!(!shrink_oversized(&mut buf, 250));
        assert!(buf.capacity() >= 1000);
        // Capacity 1000 > 4 × 100: shrinks back to the high-water mark.
        assert!(shrink_oversized(&mut buf, 100));
        assert!(buf.capacity() < 1000);
        // A zero high-water mark releases the buffer entirely.
        let mut spike: Vec<u8> = Vec::with_capacity(64);
        assert!(shrink_oversized(&mut spike, 0));
        assert_eq!(spike.capacity(), 0);
    }

    #[test]
    fn outbox_clear_keeps_capacity() {
        let mut ob: Outbox<u8> = Outbox::new(2);
        for _ in 0..32 {
            ob.send(1, 9);
        }
        let cap = ob.out[1].capacity();
        ob.clear();
        assert_eq!(ob.total_msgs(), 0);
        assert_eq!(ob.out[1].capacity(), cap);
    }
}
