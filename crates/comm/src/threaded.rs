//! A real concurrent message-passing backend.
//!
//! The main runtime simulates ranks inside one address space for
//! determinism and accounting. This module provides the complementary
//! proof: the same bulk-synchronous programs run unchanged on *actual*
//! OS threads exchanging messages through channels, one thread per rank,
//! with no shared mutable state beyond the collective rendezvous. Kernels
//! ported to [`RankCtx`] (see `sssp-core`'s threaded variants) are tested
//! to produce bit-identical results to their simulated counterparts —
//! evidence that the simulator's semantics match a real distributed
//! execution.
//!
//! Determinism under true concurrency comes from the same rule real MPI
//! programs use: inboxes are ordered by source rank, never by arrival
//! time.

use std::cell::Cell;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};

use crate::exchange::Outbox;
use crate::fingerprint::{
    fp_mix, FP_EXCHANGE, FP_REDUCE, FP_REDUCE_ANY, FP_REDUCE_MAX, FP_REDUCE_MIN, FP_REDUCE_SUM,
    FP_WINDOW,
};
use crate::lockorder;
use crate::packet::PacketConfig;
use crate::stats::StepStats;
use crate::transport::Comm;
use crate::Rank;

/// Smallest buffer capacity [`RankCtx::trim_spares`] will ever release. A
/// quiet epoch (empty buckets, pull-only phases) observes a zero high-water
/// mark; without a floor that computed `limit = 0` and dumped the *entire*
/// spare pool, forcing every lane to reallocate on the next busy epoch.
pub const SPARE_CAPACITY_FLOOR: usize = 64;

/// One rank's transport counts for a single pooled exchange, as seen from
/// that rank: messages it sent to itself (`sent_local`), messages it put on
/// the wire (`sent_remote`, with `sent_remote_bytes` of framed traffic) and
/// the framed bytes it received from other ranks (`recv_remote_bytes`).
/// Summing `sent_*` over all ranks reproduces the global per-superstep
/// accounting of [`crate::exchange::exchange_pooled`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeCounts {
    /// Messages this rank addressed to itself (never on the wire).
    pub sent_local: u64,
    /// Messages this rank sent to other ranks.
    pub sent_remote: u64,
    /// Wire bytes of this rank's remote sends (packet framing applied).
    pub sent_remote_bytes: u64,
    /// Wire bytes this rank received from other ranks.
    pub recv_remote_bytes: u64,
}

/// Per-rank context handed to the rank's thread. `M` is the message type
/// of this world.
pub struct RankCtx<M> {
    rank: Rank,
    p: usize,
    /// `senders[dst]` — shared producer side of dst's inbox channel.
    senders: Vec<Sender<(Rank, Vec<M>)>>,
    inbox: Receiver<(Rank, Vec<M>)>,
    barrier: Arc<Barrier>,
    /// Rendezvous buffer for collectives (one slot per rank).
    slots: Arc<Mutex<Vec<Option<u64>>>>,
    /// Recycled transport buffers for [`RankCtx::exchange_pooled`]: the `p`
    /// batches drained at superstep `s` become the send buffers of `s + 1`,
    /// so the pool never holds more than `p` vectors.
    spare: Vec<Vec<M>>,
    /// Reusable receive staging area (batches sorted by source rank).
    batches: Vec<(Rank, Vec<M>)>,
    /// Largest batch moved through [`RankCtx::exchange_pooled`] since the
    /// last [`RankCtx::trim_spares`] — the spare pool's high-water mark.
    watermark: usize,
    /// Largest batch moved through [`RankCtx::exchange_pooled`] since the
    /// last [`RankCtx::finish_query`] — the *query*-scoped high-water mark.
    /// Unlike `watermark` it survives per-epoch trims, so the end-of-query
    /// trim reflects the whole query's traffic, not just its last epoch.
    query_watermark: usize,
    /// Rolling collective-schedule fingerprint (see [`crate::fingerprint`]).
    /// `Cell` because several collectives take `&self`; the value is strictly
    /// rank-private.
    fp: Cell<u64>,
    /// Epoch tag mixed into the fingerprint; advanced by the kernel through
    /// [`RankCtx::set_epoch`] at bucket boundaries.
    epoch: Cell<u64>,
    /// Runtime twin of the static lock-order model: records this thread's
    /// actual acquisition order and checks it against
    /// [`lockorder::STATIC_EDGES`] when the context is dropped.
    lock_rec: lockorder::Recorder,
}

impl<M: Send> RankCtx<M> {
    #[inline]
    /// This thread’s rank id.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    #[inline]
    /// Total number of ranks in the run.
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Fold one collective of `kind` into this rank's schedule fingerprint.
    #[inline]
    fn note_collective(&self, kind: u64) {
        self.fp.set(fp_mix(self.fp.get(), kind, self.epoch.get()));
    }

    /// Set the epoch tag mixed into subsequent fingerprint updates. Kernels
    /// call this at bucket boundaries so a skipped epoch shows up as a
    /// fingerprint divergence even when the collective kinds happen to line
    /// up.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.set(epoch);
    }

    /// This rank's rolling collective-schedule fingerprint.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.fp.get()
    }

    /// Debug-build cross-rank check that every rank has executed the same
    /// collective schedule: min- and max-reduce the fingerprints and assert
    /// they agree. A no-op in release builds. The gate is compile-time
    /// uniform across ranks (all threads run the same binary), so the extra
    /// collectives cannot themselves skew the schedule.
    pub fn assert_schedule_uniform(&self) {
        #[cfg(debug_assertions)]
        {
            let fp = self.fp.get();
            let lo = self.allreduce_inner(fp, |vals| vals.iter().copied().min().unwrap_or(0));
            let hi = self.allreduce_inner(fp, |vals| vals.iter().copied().max().unwrap_or(0));
            assert_eq!(
                lo,
                hi,
                "collective schedule diverged across ranks (rank {} fp {fp:#018x}, epoch {})",
                self.rank,
                self.epoch.get()
            );
        }
    }

    /// Test hook: xor `salt` into this rank's fingerprint so differential
    /// tests can prove [`RankCtx::assert_schedule_uniform`] actually fires.
    #[cfg(debug_assertions)]
    pub fn perturb_fingerprint(&self, salt: u64) {
        self.fp.set(self.fp.get() ^ salt);
    }

    /// Test hook: seed a held→acquired pair into the runtime lock-order
    /// twin, as if this rank had nested the two acquisitions, so
    /// differential tests can prove the drop-time consistency check fires.
    #[cfg(debug_assertions)]
    pub fn perturb_lock_order(&self, from: &'static str, to: &'static str) {
        self.lock_rec.inject_pair(from, to);
    }

    /// Every held→acquired pair the runtime twin has observed on this rank
    /// thread so far (sorted). Empty in a correct run: the rendezvous
    /// runtime never nests lock acquisitions.
    #[cfg(debug_assertions)]
    pub fn observed_lock_pairs(&self) -> Vec<(&'static str, &'static str)> {
        self.lock_rec.observed_pairs()
    }

    /// Every lock name the runtime twin has observed this rank thread
    /// acquire so far (sorted).
    #[cfg(debug_assertions)]
    pub fn observed_locks(&self) -> Vec<&'static str> {
        self.lock_rec.observed_locks()
    }

    /// Bulk-synchronous exchange: send `out[dst]` to every rank, receive
    /// one batch from every rank, deliver concatenated in source order.
    /// Blocks until all ranks have exchanged.
    pub fn exchange(&self, out: Vec<Vec<M>>) -> Vec<M> {
        assert_eq!(out.len(), self.p, "outbox fan-out mismatch");
        self.note_collective(FP_EXCHANGE);
        for (dst, msgs) in out.into_iter().enumerate() {
            // A peer disappearing mid-superstep is unrecoverable by design
            // (SPMD contract), hence the allowed panic below.
            self.senders[dst]
                .send((self.rank, msgs))
                .expect("peer hung up"); // sssp-lint: allow(no-panic-hot-path): SPMD contract
        }
        let mut batches: Vec<(Rank, Vec<M>)> =
            // sssp-lint: allow(no-panic-hot-path): same SPMD contract as above.
            (0..self.p).map(|_| self.inbox.recv().expect("peer hung up")).collect();
        batches.sort_by_key(|&(src, _)| src);
        let inbox: Vec<M> = batches.into_iter().flat_map(|(_, m)| m).collect();
        // Close the superstep: no rank may start the next exchange before
        // every rank has drained this one.
        self.barrier.wait();
        inbox
    }

    /// Pooled bulk-synchronous exchange: drains `out[dst]` into recycled
    /// transport buffers, delivers the concatenated batches (source-rank
    /// order, like [`RankCtx::exchange`]) into `inbox`, and keeps every
    /// emptied buffer for the next superstep. `out` lanes are left empty
    /// with capacity intact, so after a warm-up superstep the steady state
    /// allocates nothing on either side of the channel.
    pub fn exchange_pooled(&mut self, out: &mut [Vec<M>], inbox: &mut Vec<M>) {
        self.exchange_pooled_counted(out, inbox, 0, None);
    }

    /// [`RankCtx::exchange_pooled`] plus per-rank transport accounting:
    /// returns how many messages this rank kept local vs. put on the wire,
    /// and the framed byte volume it sent and received, under the same
    /// `msg_bytes`/`packet` wire model the simulated
    /// [`crate::exchange::exchange_pooled`] charges.
    pub fn exchange_pooled_counted(
        &mut self,
        out: &mut [Vec<M>],
        inbox: &mut Vec<M>,
        msg_bytes: usize,
        packet: Option<&PacketConfig>,
    ) -> ExchangeCounts {
        assert_eq!(out.len(), self.p, "outbox fan-out mismatch");
        self.note_collective(FP_EXCHANGE);
        let wire = |count: u64| -> u64 {
            match packet {
                Some(pk) => pk.wire_bytes(count, msg_bytes),
                None => count * msg_bytes as u64,
            }
        };
        let mut counts = ExchangeCounts::default();
        for (dst, msgs) in out.iter_mut().enumerate() {
            self.watermark = self.watermark.max(msgs.len());
            self.query_watermark = self.query_watermark.max(msgs.len());
            let k = msgs.len() as u64;
            if dst == self.rank {
                counts.sent_local += k;
            } else {
                counts.sent_remote += k;
                counts.sent_remote_bytes += wire(k);
            }
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.append(msgs);
            // A peer disappearing mid-superstep is unrecoverable by design
            // (SPMD contract), hence the allowed panic below.
            self.senders[dst]
                .send((self.rank, buf))
                .expect("peer hung up"); // sssp-lint: allow(no-panic-hot-path): SPMD contract
        }
        while self.batches.len() < self.p {
            // sssp-lint: allow(no-panic-hot-path): same SPMD contract as above.
            let batch = self.inbox.recv().expect("peer hung up");
            self.batches.push(batch);
        }
        self.batches.sort_by_key(|&(src, _)| src);
        inbox.clear();
        for (src, mut b) in self.batches.drain(..) {
            self.watermark = self.watermark.max(b.len());
            self.query_watermark = self.query_watermark.max(b.len());
            if src != self.rank {
                counts.recv_remote_bytes += wire(b.len() as u64);
            }
            inbox.append(&mut b);
            self.spare.push(b);
        }
        self.barrier.wait();
        counts
    }

    /// Release spare transport buffers whose capacity exceeds 4× the
    /// high-water mark observed since the previous call (but never below
    /// [`SPARE_CAPACITY_FLOOR`], so a quiet epoch keeps its warm pool),
    /// then reset the mark. Purely rank-local (no rendezvous): each rank
    /// bounds its own pool at epoch boundaries so one outsized superstep
    /// cannot pin its peak allocation for the rest of the run.
    ///
    /// Returns the number of buffers released.
    pub fn trim_spares(&mut self) -> usize {
        let limit = self.watermark.saturating_mul(4).max(SPARE_CAPACITY_FLOOR);
        let before = self.spare.len();
        self.spare.retain(|b| b.capacity() <= limit);
        self.watermark = 0;
        before - self.spare.len()
    }

    /// Close out one query's pool accounting: release spare buffers whose
    /// capacity exceeds 4× the *query* high-water mark (floored at
    /// [`SPARE_CAPACITY_FLOOR`]), then reset both marks. Under back-to-back
    /// queries over a resident context this is what keeps a small query
    /// from inheriting a large query's flood-sized spares forever: the
    /// per-epoch [`RankCtx::trim_spares`] bound is relative to the *current*
    /// epoch's traffic, while this bound is relative to the query that just
    /// ended, so the pool shrinks to each query's own footprint before the
    /// buffers are handed to the next one.
    ///
    /// Returns the number of buffers released.
    pub fn finish_query(&mut self) -> usize {
        let limit = self
            .query_watermark
            .saturating_mul(4)
            .max(SPARE_CAPACITY_FLOOR);
        let before = self.spare.len();
        self.spare.retain(|b| b.capacity() <= limit);
        self.watermark = 0;
        self.query_watermark = 0;
        before - self.spare.len()
    }

    /// Seed the transport pool with buffers recycled from a previous run
    /// on the same rank (cleared, capacity kept). Lets a serving layer keep
    /// pools warm across queries even though each query spawns fresh rank
    /// threads.
    pub fn adopt_spares(&mut self, mut spares: Vec<Vec<M>>) {
        for b in &mut spares {
            b.clear();
        }
        self.spare.append(&mut spares);
    }

    /// Take the spare transport buffers out of this context (for example to
    /// stash them in an engine scratch that outlives the rank thread).
    pub fn release_spares(&mut self) -> Vec<Vec<M>> {
        std::mem::take(&mut self.spare)
    }

    /// Capacity of the largest buffer currently in the spare pool (0 when
    /// empty). Diagnostic for pool-bound tests and the serving benchmark.
    pub fn max_spare_capacity(&self) -> usize {
        self.spare.iter().map(Vec::capacity).max().unwrap_or(0)
    }

    /// Allreduce over one `u64` contribution per rank.
    pub fn allreduce<F: Fn(&[u64]) -> u64>(&self, value: u64, combine: F) -> u64 {
        self.note_collective(FP_REDUCE);
        self.allreduce_inner(value, combine)
    }

    /// The rendezvous itself, without the fingerprint update: shared by the
    /// public collectives (which mix their own kind codes first) and by
    /// [`RankCtx::assert_schedule_uniform`], whose meta-collectives must not
    /// perturb the fingerprint they are checking.
    fn allreduce_inner<F: Fn(&[u64]) -> u64>(&self, value: u64, combine: F) -> u64 {
        {
            let mut slots = self.lock_rec.track(
                "slots",
                // sssp-lint: allow(no-panic-hot-path, panic-silent-poison): poisoned = a
                // rank already panicked; die-on-poison is the correct SPMD behavior —
                // recovering the guard would hang the rendezvous on the dead rank.
                self.slots.lock().expect("collective mutex poisoned"),
            );
            slots[self.rank] = Some(value);
        }
        self.barrier.wait();
        let result = {
            let slots = self.lock_rec.track(
                "slots",
                // sssp-lint: allow(no-panic-hot-path, panic-silent-poison): see poisoning note above.
                self.slots.lock().expect("collective mutex poisoned"),
            );
            // Every rank filled its slot before the barrier; a hole means
            // the barrier itself is broken, hence the allowed panic below.
            let vals: Vec<u64> = slots
                .iter()
                .map(|s| s.expect("missing contribution")) // sssp-lint: allow(no-panic-hot-path, panic-in-critical-section): barrier guarantees slots; a hole is unrecoverable
                .collect();
            combine(&vals)
        };
        // Second barrier before anyone clears their slot for reuse.
        self.barrier.wait();
        {
            let mut slots = self.lock_rec.track(
                "slots",
                // sssp-lint: allow(no-panic-hot-path, panic-silent-poison): see poisoning note above.
                self.slots.lock().expect("collective mutex poisoned"),
            );
            slots[self.rank] = None;
        }
        self.barrier.wait();
        result
    }

    /// Minimum allreduce: every rank receives the smallest contribution.
    pub fn allreduce_min(&self, value: u64) -> u64 {
        self.note_collective(FP_REDUCE_MIN);
        self.allreduce_inner(value, |vals| vals.iter().copied().min().unwrap_or(u64::MAX))
    }

    /// Minimum allreduce of per-rank epoch-window proposals. The threaded
    /// twin of [`crate::collective::allreduce_min_window`]: a min-reduce
    /// fingerprinted with its own kind, so policies that issue the window
    /// collective hold schedules distinct from those that do not.
    pub fn allreduce_min_window(&self, value: u64) -> u64 {
        self.note_collective(FP_WINDOW);
        self.allreduce_inner(value, |vals| vals.iter().copied().min().unwrap_or(u64::MAX))
    }

    /// Maximum allreduce: every rank receives the largest contribution.
    pub fn allreduce_max(&self, value: u64) -> u64 {
        self.note_collective(FP_REDUCE_MAX);
        self.allreduce_inner(value, |vals| vals.iter().copied().max().unwrap_or(0))
    }

    /// Sum allreduce: every rank receives the total of all contributions.
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        self.note_collective(FP_REDUCE_SUM);
        self.allreduce_inner(value, |vals| vals.iter().sum())
    }

    /// Logical-or allreduce.
    pub fn any(&self, flag: bool) -> bool {
        self.note_collective(FP_REDUCE_ANY);
        self.allreduce_inner(u64::from(flag), |vals| {
            u64::from(vals.iter().any(|&v| v != 0))
        }) != 0
    }
}

/// The rank-thread transport: the process owns its own rank, collectives
/// are the rendezvous primitives above, and an exchange goes through the
/// pooled channel path.
impl<M: Send> Comm<M> for RankCtx<M> {
    fn owned(&self) -> Range<Rank> {
        self.rank..self.rank + 1
    }

    fn set_epoch(&mut self, epoch: u64) {
        RankCtx::set_epoch(self, epoch);
    }

    fn allreduce_min(&mut self, value: u64) -> u64 {
        RankCtx::allreduce_min(self, value)
    }

    fn allreduce_max(&mut self, value: u64) -> u64 {
        RankCtx::allreduce_max(self, value)
    }

    fn allreduce_sum(&mut self, value: u64) -> u64 {
        RankCtx::allreduce_sum(self, value)
    }

    fn allreduce_min_window(&mut self, value: u64) -> u64 {
        RankCtx::allreduce_min_window(self, value)
    }

    fn any(&mut self, flag: bool) -> bool {
        RankCtx::any(self, flag)
    }

    fn exchange(
        &mut self,
        out: &mut [Outbox<M>],
        inboxes: &mut [Vec<M>],
        msg_bytes: usize,
        packet: Option<&PacketConfig>,
    ) -> StepStats {
        assert!(
            out.len() == 1 && inboxes.len() == 1,
            "a rank thread owns exactly one rank"
        );
        let c = self.exchange_pooled_counted(&mut out[0].out, &mut inboxes[0], msg_bytes, packet);
        StepStats {
            remote_msgs: c.sent_remote,
            local_msgs: c.sent_local,
            remote_bytes: c.sent_remote_bytes,
            max_rank_send_bytes: c.sent_remote_bytes,
            max_rank_recv_bytes: c.recv_remote_bytes,
            coalesced_msgs: 0,
        }
    }

    fn end_epoch(&mut self) {
        self.trim_spares();
    }

    fn end_query(&mut self) {
        self.finish_query();
    }

    fn assert_consistent(&self, _sent: u64, _delivered: u64) {
        self.assert_schedule_uniform();
        #[cfg(debug_assertions)]
        {
            let sum = |vals: &[u64]| vals.iter().sum();
            assert_eq!(
                self.allreduce_inner(_delivered, sum),
                self.allreduce_inner(_sent, sum),
                "message conservation violated: delivered != sent"
            );
        }
    }
}

/// Spawn `p` rank threads, run `body` on each, and collect the results in
/// rank order. `body` receives the rank's [`RankCtx`] and drives as many
/// supersteps as it likes; all ranks must execute the same sequence of
/// `exchange`/collective calls (the usual SPMD contract).
pub fn run_threaded<M, R, F>(p: usize, body: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send + 'static,
    F: Fn(RankCtx<M>) -> R + Send + Sync + 'static,
{
    run_threaded_with(p, (0..p).map(|_| ()).collect(), move |ctx, ()| body(ctx))
}

/// [`run_threaded`] with one owned payload moved into each rank's thread.
/// `payloads[r]` is handed to rank `r`'s body by value, so callers can
/// thread per-rank scratch state (reusable buffers, resident engine state)
/// through a run without any shared locking: each payload has exactly one
/// owner at all times. `payloads.len()` must equal `p`.
pub fn run_threaded_with<M, R, T, F>(p: usize, payloads: Vec<T>, body: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send + 'static,
    T: Send + 'static,
    F: Fn(RankCtx<M>, T) -> R + Send + Sync + 'static,
{
    assert!(p > 0);
    assert_eq!(payloads.len(), p, "one payload per rank");
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| channel()).unzip();
    let barrier = Arc::new(Barrier::new(p));
    let slots = Arc::new(Mutex::new(vec![None; p]));
    let body = Arc::new(body);

    let mut handles = Vec::with_capacity(p);
    for ((rank, inbox), payload) in receivers.into_iter().enumerate().zip(payloads) {
        let ctx = RankCtx {
            rank,
            p,
            senders: senders.clone(),
            inbox,
            barrier: Arc::clone(&barrier),
            slots: Arc::clone(&slots),
            spare: Vec::new(),
            batches: Vec::with_capacity(p),
            watermark: 0,
            query_watermark: 0,
            fp: Cell::new(0),
            epoch: Cell::new(0),
            lock_rec: lockorder::Recorder::new(),
        };
        let body = Arc::clone(&body);
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || body(ctx, payload))
                // sssp-lint: allow(no-panic-hot-path): setup, not a hot path;
                // no ranks have started yet, so aborting is clean.
                .expect("failed to spawn rank thread"),
        );
    }
    drop(senders);
    // Re-raise a rank panic on the driver thread instead of returning
    // partial results, preserving the rank's own panic payload so the
    // driver reports the real failure rather than a generic join error.
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_routes_and_orders_by_source() {
        let inboxes = run_threaded(4, |ctx: RankCtx<(usize, usize)>| {
            let p = ctx.num_ranks();
            let out: Vec<Vec<(usize, usize)>> = (0..p).map(|dst| vec![(ctx.rank(), dst)]).collect();
            ctx.exchange(out)
        });
        for (dst, inbox) in inboxes.iter().enumerate() {
            let expect: Vec<(usize, usize)> = (0..4).map(|src| (src, dst)).collect();
            assert_eq!(inbox, &expect);
        }
    }

    #[test]
    fn multiple_supersteps_stay_in_lockstep() {
        let results = run_threaded(3, |ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut acc = ctx.rank() as u64;
            for _ in 0..5 {
                // Everyone broadcasts its accumulator; each rank sums what
                // it hears.
                let out: Vec<Vec<u64>> = (0..p).map(|_| vec![acc]).collect();
                let inbox = ctx.exchange(out);
                acc = inbox.iter().sum();
            }
            acc
        });
        // All ranks converge to the same value: sum is symmetric.
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        // Round 1: every rank holds 0+1+2 = 3; then 9; 27; 81; 243.
        assert_eq!(results[0], 243);
    }

    #[test]
    fn allreduce_combines_contributions() {
        let sums = run_threaded(5, |ctx: RankCtx<()>| {
            ctx.allreduce(ctx.rank() as u64 + 1, |vals| vals.iter().sum())
        });
        assert!(sums.iter().all(|&s| s == 15));
        let mins = run_threaded(5, |ctx: RankCtx<()>| {
            ctx.allreduce(10 - ctx.rank() as u64, |vals| *vals.iter().min().unwrap())
        });
        assert!(mins.iter().all(|&m| m == 6));
    }

    #[test]
    fn any_detects_single_flag() {
        let out = run_threaded(4, |ctx: RankCtx<()>| ctx.any(ctx.rank() == 2));
        assert!(out.iter().all(|&b| b));
        let out = run_threaded(4, |ctx: RankCtx<()>| ctx.any(false));
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    fn collectives_and_exchanges_interleave() {
        let results = run_threaded(3, |ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut x = ctx.rank() as u64;
            loop {
                let out: Vec<Vec<u64>> = (0..p).map(|_| vec![x]).collect();
                let inbox = ctx.exchange(out);
                x = *inbox.iter().max().unwrap();
                if ctx.any(x >= 2) {
                    break;
                }
            }
            x
        });
        assert_eq!(results, vec![2, 2, 2]);
    }

    #[test]
    fn pooled_exchange_matches_consuming_exchange() {
        let inboxes = run_threaded(4, |mut ctx: RankCtx<(usize, usize)>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<(usize, usize)>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            let mut history = Vec::new();
            for round in 0..3 {
                for (dst, lane) in out.iter_mut().enumerate() {
                    lane.push((ctx.rank(), dst + 10 * round));
                }
                ctx.exchange_pooled(&mut out, &mut inbox);
                assert!(out.iter().all(Vec::is_empty), "lanes must be drained");
                history.push(inbox.clone());
            }
            history
        });
        for (dst, history) in inboxes.iter().enumerate() {
            for (round, inbox) in history.iter().enumerate() {
                let expect: Vec<(usize, usize)> =
                    (0..4).map(|src| (src, dst + 10 * round)).collect();
                assert_eq!(inbox, &expect, "dst {dst} round {round}");
            }
        }
    }

    #[test]
    fn pooled_exchange_recycles_without_leaking_messages() {
        // Uneven traffic: rank 0 floods, everyone else is quiet. Recycled
        // buffers from the flood round must arrive empty in later rounds.
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            let mut sizes = Vec::new();
            for round in 0..4u64 {
                if ctx.rank() == 0 && round == 0 {
                    for lane in out.iter_mut() {
                        lane.extend(0..100);
                    }
                }
                ctx.exchange_pooled(&mut out, &mut inbox);
                sizes.push(inbox.len());
            }
            sizes
        });
        for sizes in results {
            assert_eq!(sizes, vec![100, 0, 0, 0]);
        }
    }

    #[test]
    fn allreduce_wrappers_agree_with_the_generic_form() {
        let results = run_threaded(4, |ctx: RankCtx<()>| {
            let v = ctx.rank() as u64 + 3;
            (
                ctx.allreduce_min(v),
                ctx.allreduce_max(v),
                ctx.allreduce_sum(v),
            )
        });
        for (mn, mx, sum) in results {
            assert_eq!(mn, 3);
            assert_eq!(mx, 6);
            assert_eq!(sum, 3 + 4 + 5 + 6);
        }
    }

    #[test]
    fn trim_spares_releases_oversized_pool_buffers() {
        let trims = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            // Epoch 1: a flood superstep grows the recycled buffers.
            for lane in out.iter_mut() {
                lane.extend(0..5000);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            let flood_trim = ctx.trim_spares();
            // Epoch 2: steady trickle; the flood-sized spares now exceed
            // 4× the epoch's high-water mark and must be released.
            for lane in out.iter_mut() {
                lane.push(1);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            let steady_trim = ctx.trim_spares();
            // Later supersteps keep working after the pool was emptied.
            for lane in out.iter_mut() {
                lane.push(2);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            (flood_trim, steady_trim, inbox.len())
        });
        for (flood_trim, steady_trim, len) in trims {
            assert_eq!(flood_trim, 0, "peak epoch keeps its pool");
            assert!(steady_trim > 0, "oversized spares must be released");
            assert_eq!(len, 2);
        }
    }

    #[test]
    fn trim_spares_keeps_pool_through_quiet_epochs() {
        // Regression: a quiet epoch (no traffic at all) observes a zero
        // high-water mark. The trim limit used to collapse to 0 and release
        // every spare buffer, forcing reallocation next epoch.
        let trims = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            // Epoch 1: modest traffic seeds the spare pool with small
            // buffers (capacity well under the floor).
            for lane in out.iter_mut() {
                lane.extend(0..8);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            ctx.trim_spares();
            // Epoch 2: completely quiet — empty lanes, zero watermark.
            ctx.exchange_pooled(&mut out, &mut inbox);
            let quiet_trim = ctx.trim_spares();
            // Epoch 3: traffic resumes; the pool must still be warm.
            for lane in out.iter_mut() {
                lane.push(9);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            (quiet_trim, inbox.len())
        });
        for (quiet_trim, len) in trims {
            assert_eq!(quiet_trim, 0, "quiet epoch must keep its warm pool");
            assert_eq!(len, 2);
        }
    }

    #[test]
    fn finish_query_bounds_the_pool_for_mixed_size_query_sequences() {
        // Regression for the serving layer: a flood query must not pin its
        // flood-sized spares into the next (tiny) query. Per-epoch
        // `trim_spares` cannot catch this — its bound is relative to the
        // *current* epoch's watermark, and the flood query's own last epoch
        // legitimately keeps the big buffers. The per-query trim releases
        // them once the next small query ends.
        let caps = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            // Query 1: flood.
            for lane in out.iter_mut() {
                lane.extend(0..5000);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            ctx.trim_spares();
            ctx.finish_query();
            let after_flood = ctx.max_spare_capacity();
            // Query 2: trickle. Epoch trim alone would keep the flood spares
            // forever (they were within bound at the flood query's end).
            for lane in out.iter_mut() {
                lane.push(1);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            ctx.trim_spares();
            ctx.finish_query();
            let after_trickle = ctx.max_spare_capacity();
            // Query 3: pool still works after the release.
            for lane in out.iter_mut() {
                lane.push(2);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            (after_flood, after_trickle, inbox.len())
        });
        for (after_flood, after_trickle, len) in caps {
            assert!(after_flood >= 5000, "flood query keeps its own pool");
            assert!(
                after_trickle <= SPARE_CAPACITY_FLOOR,
                "small query must shed the flood-sized spares \
                 (max spare capacity {after_trickle})"
            );
            assert_eq!(len, 2);
        }
    }

    #[test]
    fn finish_query_uses_the_whole_query_watermark_not_the_last_epoch() {
        // The query-level mark must survive the per-epoch mark reset: after
        // a busy epoch plus `trim_spares` (which zeroes the epoch watermark),
        // `finish_query` still knows the query moved 1000-message batches
        // and keeps the warm pool instead of collapsing to the floor.
        let caps = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            for lane in out.iter_mut() {
                lane.extend(0..1000);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            ctx.trim_spares();
            let released = ctx.finish_query();
            (released, ctx.max_spare_capacity())
        });
        for (released, cap) in caps {
            assert_eq!(released, 0, "busy epoch is within the query bound");
            assert!(cap >= 1000, "query-scoped mark must keep the warm pool");
        }
    }

    #[test]
    fn spares_adopted_from_a_previous_run_are_reused_clean() {
        // First run floods, releases its spares; second run adopts them and
        // must see only its own messages, with the adopted capacity warm.
        let spares = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            for lane in out.iter_mut() {
                lane.extend(0..256);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            ctx.release_spares()
        });
        let payloads: Vec<Vec<Vec<u64>>> = spares;
        let results = run_threaded_with(2, payloads, |mut ctx: RankCtx<u64>, sp| {
            ctx.adopt_spares(sp);
            let warm = ctx.max_spare_capacity();
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| vec![7]).collect();
            let mut inbox = Vec::new();
            ctx.exchange_pooled(&mut out, &mut inbox);
            (warm, inbox)
        });
        for (warm, inbox) in results {
            assert!(warm >= 256, "adopted spares keep their capacity");
            assert_eq!(inbox, vec![7, 7], "adopted buffers must arrive clean");
        }
    }

    #[test]
    fn run_threaded_with_moves_one_payload_per_rank() {
        let out = run_threaded_with(3, vec![10u64, 20, 30], |ctx: RankCtx<u64>, own| {
            ctx.allreduce_sum(own)
        });
        assert_eq!(out, vec![60, 60, 60]);
    }

    #[test]
    fn counted_exchange_splits_local_and_remote() {
        // Rank r sends r+1 messages to every rank (itself included); with
        // 8-byte messages and no packet framing the byte counts are exact.
        let counts = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p)
                .map(|_| (0..ctx.rank() as u64 + 1).collect())
                .collect();
            let mut inbox = Vec::new();
            let c = ctx.exchange_pooled_counted(&mut out, &mut inbox, 8, None);
            (c, inbox.len())
        });
        for (rank, (c, received)) in counts.into_iter().enumerate() {
            let own = rank as u64 + 1;
            assert_eq!(c.sent_local, own, "rank {rank}");
            assert_eq!(c.sent_remote, 2 * own, "rank {rank}");
            assert_eq!(c.sent_remote_bytes, 2 * own * 8, "rank {rank}");
            // Receives one batch of src+1 messages from each other rank.
            let recv_remote: u64 = (0..3u64).filter(|&s| s != rank as u64).map(|s| s + 1).sum();
            assert_eq!(c.recv_remote_bytes, recv_remote * 8, "rank {rank}");
            assert_eq!(received as u64, recv_remote + own, "rank {rank}");
        }
    }

    #[test]
    fn counted_exchange_applies_packet_framing() {
        let counts = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            // One message to each rank.
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| vec![7]).collect();
            let mut inbox = Vec::new();
            let pk = PacketConfig {
                payload_bytes: 512,
                header_bytes: 32,
                run_header_bytes: 8,
            };
            ctx.exchange_pooled_counted(&mut out, &mut inbox, 16, Some(&pk))
        });
        for c in counts {
            // One 16-byte message fits one packet: 16 payload + 32 header
            // + the stream's 8-byte run descriptor.
            assert_eq!(c.sent_remote, 1);
            assert_eq!(c.sent_remote_bytes, 56);
            assert_eq!(c.recv_remote_bytes, 56);
        }
    }

    #[test]
    fn pooled_and_plain_exchange_interleave() {
        let results = run_threaded(2, |mut ctx: RankCtx<u32>| {
            let p = ctx.num_ranks();
            let plain = ctx.exchange((0..p).map(|_| vec![1u32]).collect());
            let mut out: Vec<Vec<u32>> = (0..p).map(|_| vec![2u32]).collect();
            let mut inbox = Vec::new();
            ctx.exchange_pooled(&mut out, &mut inbox);
            (plain, inbox)
        });
        for (plain, pooled) in results {
            assert_eq!(plain, vec![1, 1]);
            assert_eq!(pooled, vec![2, 2]);
        }
    }

    #[test]
    fn fingerprints_agree_across_ranks_and_rank_counts() {
        for p in [1, 3, 5] {
            let fps = run_threaded(p, |mut ctx: RankCtx<u64>| {
                let p = ctx.num_ranks();
                for epoch in 0..3 {
                    ctx.set_epoch(epoch);
                    ctx.allreduce_min(ctx.rank() as u64);
                    let mut out: Vec<Vec<u64>> = (0..p).map(|_| vec![1]).collect();
                    let mut inbox = Vec::new();
                    ctx.exchange_pooled(&mut out, &mut inbox);
                    ctx.any(ctx.rank() == 0);
                    ctx.assert_schedule_uniform();
                }
                ctx.schedule_fingerprint()
            });
            assert!(
                fps.windows(2).all(|w| w[0] == w[1]),
                "p={p}: ranks disagree: {fps:?}"
            );
            assert_ne!(fps[0], 0, "p={p}: schedule must move the fingerprint");
        }
    }

    #[test]
    fn fingerprint_distinguishes_schedules() {
        let a = run_threaded(2, |ctx: RankCtx<u64>| {
            ctx.allreduce_min(0);
            ctx.schedule_fingerprint()
        });
        let b = run_threaded(2, |ctx: RankCtx<u64>| {
            ctx.allreduce_max(0);
            ctx.schedule_fingerprint()
        });
        assert_ne!(a[0], b[0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collective schedule diverged")]
    fn corrupted_fingerprint_trips_the_uniformity_assertion() {
        run_threaded(3, |ctx: RankCtx<u64>| {
            ctx.allreduce_sum(1);
            if ctx.rank() == 1 {
                ctx.perturb_fingerprint(0xDEAD_BEEF);
            }
            ctx.assert_schedule_uniform();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn lock_order_twin_records_the_collective_mutex_and_no_nesting() {
        for p in [1, 3, 5] {
            let obs = run_threaded(p, |ctx: RankCtx<u64>| {
                ctx.allreduce_sum(ctx.rank() as u64);
                ctx.any(false);
                (ctx.observed_locks(), ctx.observed_lock_pairs())
            });
            for (locks, pairs) in obs {
                assert_eq!(locks, vec!["slots"], "p={p}");
                assert!(
                    pairs.is_empty(),
                    "p={p}: rendezvous runtime must never nest locks: {pairs:?}"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock acquisition order")]
    fn seeded_lock_inversion_trips_the_twin_at_the_join() {
        run_threaded(3, |ctx: RankCtx<u64>| {
            ctx.allreduce_sum(1);
            if ctx.rank() == 2 {
                ctx.perturb_lock_order("slots", "slots");
            }
        });
    }

    #[test]
    fn single_rank_world() {
        let out = run_threaded(1, |ctx: RankCtx<u32>| {
            let inbox = ctx.exchange(vec![vec![7, 8]]);
            (inbox, ctx.allreduce(9, |v| v[0]))
        });
        assert_eq!(out[0].0, vec![7, 8]);
        assert_eq!(out[0].1, 9);
    }
}
