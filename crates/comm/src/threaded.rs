//! A real concurrent message-passing backend.
//!
//! The main runtime simulates ranks inside one address space for
//! determinism and accounting. This module provides the complementary
//! proof: the same bulk-synchronous programs run unchanged on *actual*
//! OS threads, one thread per rank, with no shared mutable state beyond
//! the rendezvous below. Kernels ported to [`RankCtx`] (see `sssp-core`'s
//! threaded variants) are tested to produce bit-identical results to their
//! simulated counterparts — evidence that the simulator's semantics match
//! a real distributed execution.
//!
//! Determinism under true concurrency comes from the same rule real MPI
//! programs use: inboxes are ordered by source rank, never by arrival
//! time.
//!
//! # The rendezvous
//!
//! Every collective and every exchange is one *episode*: publish, cross
//! the barrier once, read. What makes one crossing enough is that
//! everything published lives in two **parity banks**: episode `r` (a
//! rank-local count of crossings, equal on all ranks by the SPMD contract)
//! uses bank `r & 1`. A rank writes bank `r & 1` again in episode `r + 2`,
//! i.e. after it passed crossing `r + 1` — and crossing `r + 1` completes
//! only once every rank has arrived at it, which each does after it
//! finished reading bank `r & 1` in episode `r`. So no slot is overwritten
//! before its last reader is done, with no trailing barrier.
//!
//! * An allreduce publishes its lanes ([`Lane`]) into per-rank
//!   [`AtomicU64`] slots (five per rank and bank, one cache line) and folds
//!   all ranks' slots lane by lane after the crossing.
//! * An exchange posts each outbox lane, as it is, into a `p × p` mailbox
//!   of `Mutex<Option<Vec<M>>>` cells — cell `(dst, src)` is locked by
//!   `src` before the crossing and by `dst` after it, so never contended —
//!   and drains its row in source-rank order. Each drained batch goes back,
//!   empty with its capacity, as the caller's lane to that source: a rank
//!   gets back as many buffers as it sent, so the transport holds none
//!   between calls and, once the lanes are warm, allocates none.
//!
//! The barrier (`Barrier`) is sense-reversing over atomics; a waiter
//! climbs a spin → `yield_now` → `Condvar` ladder (see `Barrier::wait`).
//! A rank that panics raises an abort flag every rung checks, so its peers
//! panic out of the rendezvous instead of waiting for it forever.
//!
//! [`AtomicU64`]: std::sync::atomic::AtomicU64
//! [`Lane`]: crate::transport::Lane
//! [`RankCtx`]: crate::threaded::RankCtx

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::exchange::Outbox;
use crate::fingerprint::{fp_mix, fp_reduce, FP_EXCHANGE};
use crate::stats::StepStats;
use crate::transport::{Comm, Lane};
use crate::Rank;

/// Checks of the barrier word a waiter makes back to back before it starts
/// giving up its time slice. Sized to cover the skew between ranks that are
/// all running (a few microseconds of lane packing), where staying on the
/// core beats any system call.
const SPIN_BUDGET: u32 = 256;

/// How long a waiter keeps calling `yield_now` after the spin budget before it
/// parks. With more ranks than cores the missing peer is usually runnable but
/// not running, and a yield hands it the core for the price of one cheap
/// system call. With a core per rank the yields come straight back, and the
/// window has to outlast the ordinary skew between ranks (one rank relaxing a
/// superstep's frontier while the other has none: tens to a few hundred
/// microseconds), because a parked waiter pays a futex wake-up — 40–120 µs on
/// a virtual CPU that went idle, and a different amount from one run to the
/// next. A waiter still waiting after the window is waiting on real work (or a
/// descheduled peer) and parks instead of burning the core its peers need. A
/// duration, not a count: a yield costs 0.5 µs alone on a core and a context
/// switch otherwise, so a count would be two different budgets.
const YIELD_WINDOW: Duration = Duration::from_millis(1);

/// [`Barrier::aborted`] while every rank is healthy.
const NO_RANK: usize = usize::MAX;

/// Reduction lanes per rank: the widest allreduce (the §III-C decision's)
/// carries five values, every other collective one or two.
const LANES: usize = 5;

/// One rank's reduction lanes in one parity bank, on a cache line of its
/// own so publishing ranks do not false-share.
#[repr(align(64))]
struct Slot([AtomicU64; LANES]);

/// Sense-reversing barrier for `p` rank threads with an abort flag.
///
/// `generation` counts completed crossings. Ordering: every arrival is an
/// `AcqRel` increment of `arrived`, and the last arriver publishes the new
/// `generation`, which waiters read with `Acquire` or stronger — so all
/// that any rank wrote before arriving (reduction lanes, mailbox cells)
/// happens-before everything any rank does after the crossing. The park
/// handshake is the classic store-then-load pair and needs `SeqCst`: the
/// releaser stores `generation` then loads `sleepers`; a parker increments
/// `sleepers` then loads `generation` (holding `park`). In the single total
/// order either the parker sees the new generation and does not sleep, or
/// the releaser sees the sleeper and notifies under `park` — which it can
/// only take once the parker is inside `wake.wait`.
struct Barrier {
    p: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Rank whose thread started unwinding first, or [`NO_RANK`].
    aborted: AtomicUsize,
    /// Ranks inside [`Barrier::park`]; lets the releaser skip the lock and
    /// the wake-up system call when everyone is spinning.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
}

impl Barrier {
    fn new(p: usize) -> Barrier {
        Barrier {
            p,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            aborted: AtomicUsize::new(NO_RANK),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Arrive at crossing `round` (the caller's count of crossings it has
    /// completed) and return once all `p` ranks have. Panics if a peer
    /// rank aborted while this one was waiting.
    ///
    /// The wait is a ladder because no single rung serves every shape of
    /// run: spinning is the cheapest way to absorb microsecond skew when
    /// each rank has a core; yielding is what lets `p >` cores make
    /// progress without a futex round trip per crossing, and what keeps
    /// `p <=` cores off the futex through a superstep's worth of skew (see
    /// [`YIELD_WINDOW`]); and parking is what keeps a long wait (a peer
    /// relaxing a million edges, the serving layer's other query) from
    /// starving the very thread being waited on.
    fn wait(&self, round: u64) {
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.p {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(round + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_all();
            }
            return;
        }
        for _ in 0..SPIN_BUDGET {
            if self.crossed(round) {
                return;
            }
            std::hint::spin_loop();
        }
        let yielding_since = Instant::now();
        while yielding_since.elapsed() < YIELD_WINDOW {
            if self.crossed(round) {
                return;
            }
            std::thread::yield_now();
        }
        self.park(round);
    }

    /// Whether crossing `round` has completed. Panics when it has not and
    /// never will because a peer rank is gone.
    fn crossed(&self, round: u64) -> bool {
        if self.generation.load(Ordering::SeqCst) != round {
            return true;
        }
        // A dead peer is unrecoverable by design (SPMD contract): waiting
        // for it would hang, returning would hand the caller garbage.
        // sssp-lint: allow(no-panic-hot-path): see above
        assert!(
            self.aborted.load(Ordering::SeqCst) == NO_RANK,
            "peer rank aborted"
        );
        false
    }

    /// Last rung of the ladder: sleep on `wake` until the crossing
    /// completes or a peer aborts.
    fn park(&self, round: u64) {
        // `park` guards no data, so a poisoned lock is as good as a clean one.
        let mut guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == round
            && self.aborted.load(Ordering::SeqCst) == NO_RANK
        {
            // sssp-lint: allow(concurrency-blocking-hold): a condvar wait
            // releases `park` while it sleeps; that is the protocol.
            let woken = self.wake.wait(guard);
            guard = woken.unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        // Woken by the releaser or by an abort: `crossed` tells which, and
        // panics on the latter.
        let crossed = self.crossed(round);
        debug_assert!(crossed);
    }

    /// Wake every parked rank. Taking `park` first orders the notification
    /// after any parker that already decided to sleep.
    fn wake_all(&self) {
        let _guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_all();
    }

    /// Record that `rank` is unwinding and release everyone waiting for it.
    /// The first rank to abort stays on record: later ones are its victims.
    fn abort(&self, rank: Rank) {
        let _ = self
            .aborted
            .compare_exchange(NO_RANK, rank, Ordering::SeqCst, Ordering::SeqCst);
        self.wake_all();
    }

    /// The rank that aborted first, if any did.
    fn aborted_by(&self) -> Option<Rank> {
        Some(self.aborted.load(Ordering::SeqCst)).filter(|&r| r != NO_RANK)
    }
}

/// Everything the rank threads of one run share.
struct Shared<M> {
    barrier: Barrier,
    /// `banks[parity][rank]`: reduction lanes.
    banks: [Vec<Slot>; 2],
    /// `mailbox[parity][dst * p + src]`: the batch `src` posted for `dst`.
    mailbox: [Vec<Mutex<Option<Vec<M>>>>; 2],
}

impl<M> Shared<M> {
    fn new(p: usize) -> Shared<M> {
        Shared {
            barrier: Barrier::new(p),
            banks: [0, 1].map(|_| (0..p).map(|_| Slot(Default::default())).collect()),
            mailbox: [0, 1].map(|_| (0..p * p).map(|_| Mutex::new(None)).collect()),
        }
    }
}

/// Raises the abort flag when its rank thread unwinds, so peers blocked in
/// (or about to enter) the rendezvous panic instead of waiting forever.
struct AbortOnUnwind<M> {
    shared: Arc<Shared<M>>,
    rank: Rank,
}

impl<M> Drop for AbortOnUnwind<M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.barrier.abort(self.rank);
        }
    }
}

/// Per-rank context handed to the rank's thread. `M` is the message type
/// of this world.
pub struct RankCtx<M> {
    rank: Rank,
    p: usize,
    shared: Arc<Shared<M>>,
    /// Crossings this rank has completed; selects the parity bank.
    round: Cell<u64>,
    /// Rolling collective-schedule fingerprint (see [`crate::fingerprint`]).
    /// `Cell` because several collectives take `&self`; the value is strictly
    /// rank-private.
    fp: Cell<u64>,
    /// Epoch tag mixed into the fingerprint; advanced by the kernel through
    /// [`Comm::set_epoch`] at bucket boundaries.
    epoch: Cell<u64>,
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

    /// Debug-build cross-rank check that every rank has executed the same
    /// collective schedule: one episode max-reduces the fingerprint and its
    /// complement (the minimum in disguise) and asserts they agree. A no-op
    /// in release builds. The gate is compile-time uniform across ranks
    /// (all threads run the same binary), so the extra episode cannot
    /// itself skew the schedule.
    pub fn assert_schedule_uniform(&self) {
        #[cfg(debug_assertions)]
        {
            let fp = self.fp.get();
            let (mut hi, mut not_lo) = (0u64, 0u64);
            self.episode([fp, !fp], |[a, b]| {
                hi = hi.max(a);
                not_lo = not_lo.max(b);
            });
            assert_eq!(
                !not_lo,
                hi,
                "collective schedule diverged across ranks (rank {} fp {fp:#018x}, epoch {})",
                self.rank,
                self.epoch.get()
            );
        }
    }

    /// Start the next episode: its crossing number, whose parity selects
    /// the bank.
    fn next_round(&self) -> u64 {
        let round = self.round.get();
        self.round.set(round + 1);
        round
    }

    /// Bulk-synchronous exchange: posts each lane `out[dst]` to `dst` as it
    /// is, delivers the batches addressed to this rank into `inbox` in
    /// source-rank order, and hands each drained batch back as the lane
    /// `out[src]`. Every lane is left empty with the capacity of the batch
    /// it replaced, so once the lanes are warm the exchange allocates
    /// nothing and moves each message once.
    pub fn exchange_pooled(&mut self, out: &mut [Vec<M>], inbox: &mut Vec<M>) {
        self.exchange_pooled_counted(out, inbox, 0);
    }

    /// [`RankCtx::exchange_pooled`] plus this rank's share of the step
    /// record at `msg_bytes` per message: what it kept local, what it put
    /// on the wire, and the bytes it sent and received. Summed (maxima:
    /// maxed) over the ranks these reproduce the global accounting of
    /// [`crate::exchange::exchange_pooled`].
    fn exchange_pooled_counted(
        &mut self,
        out: &mut [Vec<M>],
        inbox: &mut Vec<M>,
        msg_bytes: usize,
    ) -> StepStats {
        assert_eq!(out.len(), self.p, "outbox fan-out mismatch");
        self.note_collective(FP_EXCHANGE);
        let wire = |count: u64| count * msg_bytes as u64;
        let round = self.next_round();
        let mailbox = &self.shared.mailbox[(round & 1) as usize];
        let mut step = StepStats::default();
        for (dst, msgs) in out.iter_mut().enumerate() {
            let k = msgs.len() as u64;
            if dst == self.rank {
                step.local_msgs += k;
            } else {
                step.remote_msgs += k;
                step.remote_bytes += wire(k);
            }
            let batch = std::mem::take(msgs);
            let stale = {
                // A cell is only ever replaced or taken under its lock,
                // so a poisoned one still holds a whole value.
                let mut cell = mailbox[dst * self.p + self.rank]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                cell.replace(batch)
            };
            debug_assert!(
                stale.is_none(),
                "mailbox cell overwritten before its reader"
            );
        }
        // Every batch is posted before the crossing and taken after it; the
        // parity banks make a trailing barrier unnecessary (module docs).
        self.shared.barrier.wait(round);
        inbox.clear();
        for (src, lane) in out.iter_mut().enumerate() {
            let batch = {
                let mut cell = mailbox[self.rank * self.p + src]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                cell.take()
            };
            // Every rank posted before the crossing; a hole means the
            // barrier itself is broken, hence the allowed panic below.
            // sssp-lint: allow(no-panic-hot-path): barrier guarantees the batch; a hole is unrecoverable
            let mut batch = batch.expect("missing batch");
            if src != self.rank {
                step.max_rank_recv_bytes += wire(batch.len() as u64);
            }
            inbox.append(&mut batch);
            *lane = batch;
        }
        step.max_rank_send_bytes = step.remote_bytes;
        step
    }

    /// One reduction episode, without the fingerprint update: publish
    /// `mine` into this round's bank, cross once, and hand every rank's
    /// lanes to `fold` in rank order. Shared by [`RankCtx::reduce`] (which
    /// mixes the reduce's kind first) and by the debug self-checks,
    /// whose meta-collectives must not perturb the fingerprint they check.
    /// Lane accesses are `Relaxed`: the crossing orders them (see
    /// [`Barrier`]).
    fn episode<const N: usize>(&self, mine: [u64; N], mut fold: impl FnMut([u64; N])) {
        let round = self.next_round();
        let bank = &self.shared.banks[(round & 1) as usize];
        for (lane, v) in bank[self.rank].0.iter().zip(mine) {
            lane.store(v, Ordering::Relaxed);
        }
        self.shared.barrier.wait(round);
        for slot in bank {
            fold(std::array::from_fn(|i| slot.0[i].load(Ordering::Relaxed)));
        }
    }

    /// One allreduce episode: every other rank's lanes merged into this
    /// rank's, lane by lane with the lane's op. Takes `&self`, so a context
    /// moved into a closure can still reduce (see
    /// [`RankCtx::allreduce_sum`]).
    fn reduce<const N: usize>(&self, mut lanes: [Lane; N]) -> [u64; N] {
        self.note_collective(fp_reduce(lanes.iter().map(|lane| lane.code())));
        let mut src = 0;
        self.episode(lanes.map(Lane::value), |theirs| {
            if src != self.rank {
                lanes = std::array::from_fn(|i| lanes[i].merge(theirs[i]));
            }
            src += 1;
        });
        lanes.map(Lane::value)
    }

    /// Sum allreduce: every rank receives the total of all contributions.
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        let [sum] = self.reduce([Lane::Sum(value)]);
        sum
    }
}

/// The rank-thread transport: the process owns its own rank, collectives
/// are the rendezvous episodes above, and an exchange goes through the
/// mailbox, handing the drained batches back as the rank's lanes.
impl<M: Send> Comm<M> for RankCtx<M> {
    fn owned(&self) -> Range<Rank> {
        self.rank..self.rank + 1
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch.set(epoch);
    }

    fn allreduce<const N: usize>(&mut self, lanes: [Lane; N]) -> [u64; N] {
        self.reduce(lanes)
    }

    fn exchange(
        &mut self,
        out: &mut [Outbox<M>],
        inboxes: &mut [Vec<M>],
        msg_bytes: usize,
    ) -> StepStats {
        assert!(
            out.len() == 1 && inboxes.len() == 1,
            "a rank thread owns exactly one rank"
        );
        self.exchange_pooled_counted(&mut out[0].out, &mut inboxes[0], msg_bytes)
    }

    fn assert_consistent(&self, _sent: u64, _delivered: u64) {
        self.assert_schedule_uniform();
        #[cfg(debug_assertions)]
        {
            let (mut delivered, mut sent) = (0u64, 0u64);
            self.episode([_delivered, _sent], |[d, s]| {
                delivered += d;
                sent += s;
            });
            assert_eq!(
                delivered, sent,
                "message conservation violated: delivered != sent"
            );
        }
    }
}

/// Spawn `p` rank threads, run `body` on each, and collect the results in
/// rank order. `body` receives the rank's [`RankCtx`] and drives as many
/// supersteps as it likes; all ranks must execute the same sequence of
/// exchange/collective calls (the usual SPMD contract).
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
///
/// A panic in one rank's body aborts the rendezvous — peers waiting for
/// that rank panic with "peer rank aborted" rather than hang — and, once
/// every rank thread has been joined, is re-raised here with the original
/// payload.
pub fn run_threaded_with<M, R, T, F>(p: usize, payloads: Vec<T>, body: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send + 'static,
    T: Send + 'static,
    F: Fn(RankCtx<M>, T) -> R + Send + Sync + 'static,
{
    assert!(p > 0);
    assert_eq!(payloads.len(), p, "one payload per rank");
    let shared = Arc::new(Shared::new(p));
    let body = Arc::new(body);

    let mut handles = Vec::with_capacity(p);
    for (rank, payload) in payloads.into_iter().enumerate() {
        let ctx = RankCtx {
            rank,
            p,
            shared: Arc::clone(&shared),
            round: Cell::new(0),
            fp: Cell::new(0),
            epoch: Cell::new(0),
        };
        let body = Arc::clone(&body);
        let guard = AbortOnUnwind {
            shared: Arc::clone(&shared),
            rank,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || {
                    // Bound here so the guard moves onto the rank thread
                    // and drops after the body, unwinding or not.
                    let _guard = guard;
                    body(ctx, payload)
                })
                // sssp-lint: allow(no-panic-hot-path): setup, not a hot path;
                // no ranks have started yet, so aborting is clean.
                .expect("failed to spawn rank thread"),
        );
    }
    // Join every rank before reporting anything, then re-raise the panic of
    // the rank that aborted first — the real failure — rather than one of
    // the "peer rank aborted" panics it caused in the others.
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    if let Some(Err(e)) = shared.barrier.aborted_by().map(|r| results.swap_remove(r)) {
        std::panic::resume_unwind(e);
    }
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes of the rank-private state the tests check.
    impl<M> RankCtx<M> {
        /// This rank's rolling collective-schedule fingerprint.
        fn schedule_fingerprint(&self) -> u64 {
            self.fp.get()
        }

        /// Xor `salt` into this rank's fingerprint, so a test can prove
        /// [`RankCtx::assert_schedule_uniform`] fires.
        #[cfg(debug_assertions)]
        fn perturb_fingerprint(&self, salt: u64) {
            self.fp.set(self.fp.get() ^ salt);
        }
    }

    /// One exchange of freshly built lanes, returning the inbox.
    fn exchange_once<M: Send>(ctx: &mut RankCtx<M>, mut out: Vec<Vec<M>>) -> Vec<M> {
        let mut inbox = Vec::new();
        ctx.exchange_pooled(&mut out, &mut inbox);
        inbox
    }

    #[test]
    fn exchange_routes_and_orders_by_source() {
        let inboxes = run_threaded(4, |mut ctx: RankCtx<(usize, usize)>| {
            let p = ctx.num_ranks();
            let out: Vec<Vec<(usize, usize)>> = (0..p).map(|dst| vec![(ctx.rank(), dst)]).collect();
            exchange_once(&mut ctx, out)
        });
        for (dst, inbox) in inboxes.iter().enumerate() {
            let expect: Vec<(usize, usize)> = (0..4).map(|src| (src, dst)).collect();
            assert_eq!(inbox, &expect);
        }
    }

    #[test]
    fn multiple_supersteps_stay_in_lockstep() {
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut acc = ctx.rank() as u64;
            for _ in 0..5 {
                // Everyone broadcasts its accumulator; each rank sums what
                // it hears.
                let out: Vec<Vec<u64>> = (0..p).map(|_| vec![acc]).collect();
                let inbox = exchange_once(&mut ctx, out);
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
            ctx.allreduce_sum(ctx.rank() as u64 + 1)
        });
        assert!(sums.iter().all(|&s| s == 15));
        let mins = run_threaded(5, |mut ctx: RankCtx<()>| {
            ctx.allreduce([Lane::Min(10 - ctx.rank() as u64)])
        });
        assert!(mins.iter().all(|&m| m == [6]));
    }

    #[test]
    fn fused_allreduce_sums_and_maxes_lane_by_lane() {
        let out = run_threaded(4, |mut ctx: RankCtx<()>| {
            let r = ctx.rank() as u64;
            ctx.allreduce([
                Lane::Sum(r),
                Lane::Sum(10 * r),
                Lane::Max(r),
                Lane::Max(7 - r),
                Lane::Max(3),
            ])
        });
        for got in out {
            assert_eq!(got, [6, 60, 3, 7, 3]);
        }
    }

    #[test]
    fn any_detects_single_flag() {
        let out = run_threaded(4, |mut ctx: RankCtx<()>| {
            ctx.allreduce([Lane::Any(ctx.rank() == 2)])
        });
        assert!(out.iter().all(|&b| b == [1]));
        let out = run_threaded(4, |mut ctx: RankCtx<()>| ctx.allreduce([Lane::Any(false)]));
        assert!(out.iter().all(|&b| b == [0]));
    }

    #[test]
    fn collectives_and_exchanges_interleave() {
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut x = ctx.rank() as u64;
            loop {
                let out: Vec<Vec<u64>> = (0..p).map(|_| vec![x]).collect();
                let inbox = exchange_once(&mut ctx, out);
                x = *inbox.iter().max().unwrap();
                if ctx.allreduce([Lane::Any(x >= 2)]) == [1] {
                    break;
                }
            }
            x
        });
        assert_eq!(results, vec![2, 2, 2]);
    }

    #[test]
    fn pooled_exchange_routes_every_round_in_source_order() {
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
        let results = run_threaded(4, |mut ctx: RankCtx<()>| {
            let v = ctx.rank() as u64 + 3;
            let one_by_one = [
                ctx.allreduce([Lane::Min(v)])[0],
                ctx.allreduce([Lane::Max(v)])[0],
                ctx.allreduce_sum(v),
                ctx.allreduce([Lane::Window(v)])[0],
            ];
            let lanes = ctx.allreduce([Lane::Min(v), Lane::Max(v), Lane::Sum(v), Lane::Window(v)]);
            (one_by_one, lanes)
        });
        for (one_by_one, lanes) in results {
            assert_eq!(one_by_one, [3, 6, 3 + 4 + 5 + 6, 3]);
            assert_eq!(lanes, one_by_one);
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
        // 8-byte messages the byte counts are exact.
        let counts = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p)
                .map(|_| (0..ctx.rank() as u64 + 1).collect())
                .collect();
            let mut inbox = Vec::new();
            let c = ctx.exchange_pooled_counted(&mut out, &mut inbox, 8);
            (c, inbox.len())
        });
        for (rank, (c, received)) in counts.into_iter().enumerate() {
            let own = rank as u64 + 1;
            assert_eq!(c.local_msgs, own, "rank {rank}");
            assert_eq!(c.remote_msgs, 2 * own, "rank {rank}");
            assert_eq!(c.remote_bytes, 2 * own * 8, "rank {rank}");
            assert_eq!(c.max_rank_send_bytes, c.remote_bytes, "rank {rank}");
            // Receives one batch of src+1 messages from each other rank.
            let recv_remote: u64 = (0..3u64).filter(|&s| s != rank as u64).map(|s| s + 1).sum();
            assert_eq!(c.max_rank_recv_bytes, recv_remote * 8, "rank {rank}");
            assert_eq!(received as u64, recv_remote + own, "rank {rank}");
        }
    }

    #[test]
    fn fingerprints_agree_across_ranks_and_rank_counts() {
        for p in [1, 3, 5] {
            let fps = run_threaded(p, |mut ctx: RankCtx<u64>| {
                let p = ctx.num_ranks();
                for epoch in 0..3 {
                    ctx.set_epoch(epoch);
                    ctx.allreduce([Lane::Min(ctx.rank() as u64)]);
                    let mut out: Vec<Vec<u64>> = (0..p).map(|_| vec![1]).collect();
                    let mut inbox = Vec::new();
                    ctx.exchange_pooled(&mut out, &mut inbox);
                    ctx.allreduce([Lane::Any(ctx.rank() == 0), Lane::Sum(1)]);
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
        let a = run_threaded(2, |mut ctx: RankCtx<u64>| {
            ctx.allreduce([Lane::Min(0)]);
            ctx.schedule_fingerprint()
        });
        let b = run_threaded(2, |mut ctx: RankCtx<u64>| {
            ctx.allreduce([Lane::Max(0)]);
            ctx.schedule_fingerprint()
        });
        assert_ne!(a[0], b[0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collective schedule diverged")]
    fn an_extra_reduce_on_one_rank_trips_the_uniformity_assertion() {
        // Rank 1 issues one reduce more than its peers. Their first check
        // crosses with that reduce (its min of 0 passes the check's
        // max-lanes unnoticed); their second crosses with rank 1's check,
        // where the fingerprints disagree.
        run_threaded(3, |mut ctx: RankCtx<u64>| {
            ctx.allreduce([Lane::Sum(1)]);
            if ctx.rank() == 1 {
                ctx.allreduce([Lane::Min(0)]);
            } else {
                ctx.assert_schedule_uniform();
            }
            ctx.assert_schedule_uniform();
        });
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

    /// Run `f` on a thread of its own and return how it ended, failing —
    /// rather than hanging the suite — if it has not ended after 20 s.
    fn outcome_of(f: impl FnOnce() + Send + 'static) -> std::thread::Result<()> {
        let worker = std::thread::spawn(f);
        let start = std::time::Instant::now();
        while !worker.is_finished() {
            assert!(start.elapsed().as_secs() < 20, "peers of a dead rank hung");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        worker.join()
    }

    fn panic_message(outcome: std::thread::Result<()>) -> String {
        let payload = outcome.expect_err("the run must re-raise the rank's panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("string payload")).to_string(),
        }
    }

    #[test]
    fn a_rank_panicking_before_an_allreduce_fails_the_run_instead_of_wedging_it() {
        // `late` = the dying rank dawdles first, so its peers have climbed
        // the whole ladder and are parked when the abort has to reach them.
        for late in [false, true] {
            let outcome = outcome_of(move || {
                run_threaded(3, move |ctx: RankCtx<u64>| {
                    ctx.allreduce_sum(1);
                    if ctx.rank() == 1 {
                        if late {
                            std::thread::sleep(std::time::Duration::from_millis(30));
                        }
                        panic!("rank 1 blew up before the reduce");
                    }
                    ctx.allreduce_sum(2);
                    ctx.allreduce_sum(3);
                });
            });
            assert_eq!(
                panic_message(outcome),
                "rank 1 blew up before the reduce",
                "late {late}"
            );
        }
    }

    #[test]
    fn a_rank_panicking_mid_exchange_after_posting_fails_the_run_instead_of_wedging_it() {
        let outcome = outcome_of(|| {
            run_threaded(3, |mut ctx: RankCtx<u64>| {
                let p = ctx.num_ranks();
                let warm = exchange_once(&mut ctx, vec![vec![7]; p]);
                assert_eq!(warm, vec![7; p]);
                if ctx.rank() == 1 {
                    // The first half of an exchange by hand — post every
                    // batch into the round's bank — then die before the
                    // crossing the peers are waiting at.
                    let bank = &ctx.shared.mailbox[(ctx.round.get() & 1) as usize];
                    for dst in 0..p {
                        let stale = bank[dst * p + 1].lock().unwrap().replace(vec![8]);
                        assert!(stale.is_none());
                    }
                    panic!("rank 1 blew up after posting");
                }
                exchange_once(&mut ctx, vec![vec![8]; p])
            });
        });
        assert_eq!(panic_message(outcome), "rank 1 blew up after posting");
    }

    #[test]
    fn single_rank_world() {
        let out = run_threaded(1, |mut ctx: RankCtx<u32>| {
            let inbox = exchange_once(&mut ctx, vec![vec![7, 8]]);
            (inbox, ctx.allreduce([Lane::Max(9), Lane::Any(true)]))
        });
        assert_eq!(out[0].0, vec![7, 8]);
        assert_eq!(out[0].1, [9, 1]);
    }
}
