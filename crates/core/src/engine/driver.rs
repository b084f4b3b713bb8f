//! The epoch loop — select bucket, short phases to a fixpoint, push-or-pull
//! long phase, settle, τ-switch into the hybrid tail's bounded windows —
//! written once over a [`Comm`] transport and a [`Recorder`].
//!
//! A process drives the slice of ranks its transport *owns* (one on a rank
//! thread, all `p` in lockstep). Rank-local work — the kernels of
//! `kernels.rs` — runs once per owned rank ([`ProcBufs::fan_out`]); every
//! collective receives a contribution already folded over the owned ranks
//! and never sits inside a per-rank loop, so each process issues the same
//! collective sequence whatever it owns. That sequence is the protocol
//! table `sssp-lint --protocol` extracts from this file.
//!
//! Every reduce goes through one helper (`Driver::allreduce`) that also
//! times its wait and raises its cost-model charge: one `Bucket` collective
//! per selection / cutoff / deadline / window / activity / settle
//! reduction, **one** `Relax` collective per decision (its push bound and,
//! when that does not settle it, its pull estimate). The other charges are
//! a `Bucket` scan for the window collection, a `Relax` scan for the
//! pull-request sweep and one superstep per exchange.

use std::ops::Range;
use std::time::Instant;

use rayon::prelude::*;

use sssp_comm::cost::{MachineModel, TimeClass};
use sssp_comm::exchange::{pack_sorted_run, shrink_oversized, MinTable, Outbox};
use sssp_comm::stats::StepStats;
use sssp_comm::transport::{Comm, Lane};
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::config::{DirectionPolicy, LongPhaseMode, PullEstimator, SsspConfig};
use crate::instrument::{BucketRecord, PhaseKind, PhaseRecord, SubPhase};
use crate::policy::{EpochWindow, Policy};
use crate::state::{RankState, INF};

use super::record::Recorder;
use super::{decide, invariants, kernels, resolved_pi, RelaxMsg, RunOutput, WIRE_BYTES};

/// One run as every process sees it: the graph, the canonical seed list
/// and the uniform run parameters.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub(super) dg: &'a DistGraph,
    pub(super) seeds: &'a [(VertexId, u64)],
    pub(super) target: Option<VertexId>,
    pub(super) deadline: Option<Instant>,
    pub(super) cfg: &'a SsspConfig,
    pub(super) model: &'a MachineModel,
}

/// One process's share of a finished run: the distances of its owned ranks
/// and its transport counters.
#[derive(Debug, Default)]
pub struct ProcessOut {
    first_rank: usize,
    dist: Vec<Vec<u64>>,
    relax_local_msgs: u64,
    relax_remote_msgs: u64,
    coalesced_msgs: u64,
    epochs: u64,
    timed_out: bool,
}

impl ProcessOut {
    /// Fold this process's share into the run's global output, indexed
    /// by external id.
    pub(super) fn fold_into(self, out: &mut RunOutput, dg: &DistGraph) {
        for (rank, dist) in (self.first_rank..).zip(&self.dist) {
            for (&d, v) in dist.iter().zip(dg.vertices(rank)) {
                out.distances[v as usize] = d;
            }
        }
        out.relax_local_msgs += self.relax_local_msgs;
        out.relax_remote_msgs += self.relax_remote_msgs;
        out.coalesced_msgs += self.coalesced_msgs;
        out.epochs = out.epochs.max(self.epochs);
        out.timed_out |= self.timed_out;
    }
}

/// Smallest buffer capacity [`ProcBufs::shrink`] ever releases. A quiet
/// epoch (empty buckets, pull-only phases) observes a zero high-water mark;
/// without a floor that would free *every* lane and inbox, forcing each to
/// reallocate on the next busy epoch.
pub(super) const SPARE_CAPACITY_FLOOR: usize = 64;

/// The engine-side state of a process's owned ranks, one entry per rank in
/// every vector: the [`RankState`] (distances, buckets, frontier bitsets),
/// the outbox lanes, the relax and request inboxes and, with coalescing on,
/// the table its own proposals wait in — plus the coalescing tables the
/// relax kernels fold into. Reusable across runs:
/// [`ProcBufs::prepare`] resets the states in place and keeps every
/// capacity warm.
#[derive(Debug, Default)]
pub struct ProcBufs {
    st: Vec<RankState>,
    out: Vec<Outbox<RelaxMsg>>,
    inbox: Vec<Vec<RelaxMsg>>,
    req_inbox: Vec<Vec<RelaxMsg>>,
    /// Each owned rank's own-proposal table (see [`kernels::Delivered`]),
    /// swapped into its chunk's set while the rank folds; a table of no
    /// keys with coalescing off.
    own: Vec<MinTable>,
    /// One table set per chunk of owned ranks that [`ProcBufs::fan_out`]
    /// runs in sequence — `min(owned, workers)` sets. With the `own` tables
    /// (`n` keys together) the lockstep simulator's tables hold at most
    /// `(min(owned, workers) + 1) × n` keys, bounded by its worker count,
    /// not by `p`. A set holds one [`MinTable`] per destination rank, sized
    /// to that rank's local vertex count (no keys for the rank of a
    /// one-rank chunk, which folds into `own`); it is empty with coalescing
    /// off.
    tables: Vec<Vec<MinTable>>,
}

/// One owned rank's slice of a [`ProcBufs`], as the kernels see it.
struct RankIo<'a> {
    st: &'a mut RankState,
    out: &'a mut Outbox<RelaxMsg>,
    inbox: &'a [RelaxMsg],
    req_inbox: &'a [RelaxMsg],
    own: &'a mut MinTable,
}

impl<'a> RankIo<'a> {
    /// The rank's state and what the last relax exchange delivered to it,
    /// with its own proposals, in source-rank order.
    fn received(self) -> (&'a mut RankState, kernels::Delivered<'a>) {
        let delivered = kernels::Delivered {
            inbox: self.inbox,
            own_at: self.out.own_at,
            own: self.own,
        };
        (self.st, delivered)
    }
}

/// Pair up the per-rank slices of a [`ProcBufs`] (or of one chunk of it).
fn rank_ios<'a>(
    st: &'a mut [RankState],
    out: &'a mut [Outbox<RelaxMsg>],
    inbox: &'a [Vec<RelaxMsg>],
    req_inbox: &'a [Vec<RelaxMsg>],
    own: &'a mut [MinTable],
) -> impl Iterator<Item = RankIo<'a>> {
    st.iter_mut()
        .zip(out)
        .zip(inbox)
        .zip(req_inbox)
        .zip(own)
        .map(|((((st, out), inbox), req_inbox), own)| RankIo {
            st,
            out,
            inbox,
            req_inbox,
            own,
        })
}

/// Run the relax kernel `$send` against one rank's sink and evaluate to
/// `(its result, proposals coalesced away, own proposals kept)`. With
/// `$coalescing` on, `$sink` is a [`kernels::Fold`] over the chunk's
/// `$tables` with the rank's own table in its slot, emitted into the lanes
/// of `$io` before the next rank of the chunk folds — all but the own
/// table, whose proposals stay for the apply; otherwise it is the lanes
/// themselves. A macro rather than a function because the kernel is
/// instantiated once per sink type.
macro_rules! relax_into {
    ($coalescing:expr, $io:ident, $tables:expr, |$sink:ident| $send:expr) => {
        if $coalescing {
            let rank = $io.st.rank;
            std::mem::swap(&mut $tables[rank], $io.own);
            let mut fold = kernels::Fold($tables);
            let sent = {
                let $sink = &mut fold;
                $send
            };
            let (coalesced, kept) = fold.emit($io.out, rank);
            std::mem::swap(&mut $tables[rank], $io.own);
            (sent, coalesced, kept)
        } else {
            let $sink = $io.out;
            ($send, 0, 0)
        }
    };
}

impl ProcBufs {
    /// Make the buffers fit the `owned` ranks of `dg` for a fresh run.
    /// States whose shape still matches are reset in place (distances,
    /// bucket ring *including its base*, frontier stamps, spill lanes —
    /// the fresh-state contract without touching any allocation); any
    /// mismatch rebuilds them, so a stale buffer set is merely a cold
    /// start, never a wrong answer.
    fn prepare(&mut self, dg: &DistGraph, owned: Range<usize>, coalescing: bool) {
        let p = dg.num_ranks();
        let fits = self.st.len() == owned.len()
            && self
                .st
                .iter()
                .zip(owned.clone())
                .all(|(st, r)| st.rank == r && st.n_local() == dg.part.local_count(r));
        if fits {
            self.st.iter_mut().for_each(RankState::reset);
        } else {
            self.st = owned
                .clone()
                .map(|r| RankState::new(r, dg.part.local_count(r), dg.threads_per_rank))
                .collect();
        }
        self.out.resize_with(owned.len(), || Outbox::new(p));
        for ob in &mut self.out {
            ob.clear();
            ob.out.resize_with(p, Vec::new);
        }
        for inboxes in [&mut self.inbox, &mut self.req_inbox] {
            inboxes.resize_with(owned.len(), Vec::new);
            inboxes.iter_mut().for_each(Vec::clear);
        }
        // Allocated zeroed: a table's pages become resident only where a
        // proposal lands.
        let keys = |r| {
            if coalescing {
                dg.part.local_count(r)
            } else {
                0
            }
        };
        self.own.resize_with(owned.len(), MinTable::default);
        for (table, r) in self.own.iter_mut().zip(owned.clone()) {
            if table.n_keys() == keys(r) {
                table.discard();
            } else {
                *table = MinTable::new(keys(r));
            }
        }
        let dsts = if coalescing { p } else { 0 };
        let sets = owned.len().min(rayon::current_num_threads()).max(1);
        // The chunks `fan_out_tables` deals the owned ranks into, one per
        // set. A rank alone in its chunk only ever folds its own proposals
        // into its own table, so its slot in the set is a table of no keys.
        let per_set = owned.len().div_ceil(sets);
        self.tables.resize_with(sets, Vec::new);
        for (i, set) in self.tables.iter_mut().enumerate() {
            let first = owned.start + i * per_set;
            let alone = per_set == 1 && first < owned.end;
            let keys = |d| match alone && d == first {
                true => 0,
                false => dg.part.local_count(d),
            };
            let fits = set.len() == dsts && (0..).zip(&*set).all(|(d, t)| t.n_keys() == keys(d));
            if fits {
                set.iter_mut().for_each(MinTable::discard);
            } else {
                *set = (0..dsts).map(|d| MinTable::new(keys(d))).collect();
            }
        }
    }

    /// Run `f` once per owned rank and fold the results.
    fn fan_out<T: Copy + Send + Sync>(
        &mut self,
        zero: T,
        f: impl Fn(RankIo<'_>) -> T + Sync,
        fold: impl Fn(T, T) -> T + Sync,
    ) -> T {
        self.fan_out_tables(zero, |io, _| f(io), fold)
    }

    /// [`ProcBufs::fan_out`] for the relax kernels: `f` also gets the table
    /// set of the rank's chunk. The owned ranks split into one contiguous
    /// chunk per table set; a chunk runs its ranks in sequence, the chunks
    /// run in parallel over rayon. A process with one set (a rank thread)
    /// runs inline, allocation-free.
    fn fan_out_tables<T: Copy + Send + Sync>(
        &mut self,
        zero: T,
        f: impl Fn(RankIo<'_>, &mut [MinTable]) -> T + Sync,
        fold: impl Fn(T, T) -> T + Sync,
    ) -> T {
        let ProcBufs {
            st,
            out,
            inbox,
            req_inbox,
            own,
            tables,
        } = self;
        let (f, fold) = (&f, &fold);
        let run_chunk = |st, out, inbox, req_inbox, own, set: &mut [MinTable]| {
            rank_ios(st, out, inbox, req_inbox, own)
                .map(|io| f(io, set))
                .fold(zero, fold)
        };
        if let [set] = tables.as_mut_slice() {
            return run_chunk(st, out, inbox, req_inbox, own, set);
        }
        let per_set = st.len().div_ceil(tables.len());
        let chunks: Vec<_> = st
            .chunks_mut(per_set)
            .zip(out.chunks_mut(per_set))
            .zip(inbox.chunks(per_set))
            .zip(req_inbox.chunks(per_set))
            .zip(own.chunks_mut(per_set))
            .zip(tables.iter_mut())
            .collect();
        chunks
            .into_par_iter()
            .map(|(((((st, out), inbox), req_inbox), own), set)| {
                run_chunk(st, out, inbox, req_inbox, own, set)
            })
            .reduce_with(fold)
            .unwrap_or(zero)
    }

    /// Release every buffer whose capacity exceeds 4× `high_water`, never
    /// below [`SPARE_CAPACITY_FLOOR`], so a quiet epoch (mark 0) keeps its
    /// lanes warm. The transports hold no buffers of their own, so this is
    /// the one bound on every message buffer of a run.
    pub(super) fn shrink(&mut self, high_water: usize) {
        let floor = high_water.max(SPARE_CAPACITY_FLOOR / 4);
        let lanes = self.out.iter_mut().flat_map(|ob| ob.out.iter_mut());
        for buf in lanes.chain(&mut self.inbox).chain(&mut self.req_inbox) {
            shrink_oversized(buf, floor);
        }
    }

    /// Capacity (in messages) of the largest buffer held.
    pub(super) fn max_buffer_capacity(&self) -> usize {
        self.out
            .iter()
            .flat_map(|ob| ob.out.iter())
            .chain(&self.inbox)
            .chain(&self.req_inbox)
            .map(Vec::capacity)
            .max()
            .unwrap_or(0)
    }
}

/// Test hooks: bare supersteps on a [`ProcBufs`], without an epoch loop
/// around them, so the pool bound can be pinned on its own.
#[cfg(test)]
impl ProcBufs {
    /// The buffers of the `owned` ranks of `dg`, prepared as a run
    /// prepares them (coalescing off).
    pub(super) fn prepared(dg: &DistGraph, owned: Range<usize>) -> ProcBufs {
        let mut bufs = ProcBufs::default();
        bufs.prepare(dg, owned, false);
        bufs
    }

    /// One superstep with `len` messages on every lane of every owned
    /// rank. Returns its high-water mark as the epoch loop takes it: the
    /// fullest lane before the exchange or inbox after it.
    pub(super) fn superstep<C: Comm<RelaxMsg>>(&mut self, ctx: &mut C, len: usize) -> usize {
        let p = self.out.first().map_or(0, |ob| ob.out.len());
        for lane in self.out.iter_mut().flat_map(|ob| ob.out.iter_mut()) {
            lane.extend((0..len as u64).map(|nd| RelaxMsg { target: 0, nd }));
        }
        ctx.exchange(&mut self.out, &mut self.inbox, WIRE_BYTES, []);
        assert!(self.inbox.iter().all(|inbox| inbox.len() == p * len));
        self.inbox.iter().map(Vec::len).max().unwrap_or(0).max(len)
    }

    /// The capacity of every lane and inbox, in a fixed order.
    pub(super) fn capacities(&self) -> Vec<usize> {
        let lanes = self.out.iter().flat_map(|ob| ob.out.iter());
        let inboxes = self.inbox.iter().chain(&self.req_inbox);
        lanes.chain(inboxes).map(Vec::capacity).collect()
    }
}

/// Start a superstep on one rank: clear the changed set and the per-thread
/// operation ledger.
#[inline]
fn begin_superstep(st: &mut RankState) {
    st.begin_phase();
    st.loads.reset();
}

/// Wall-clock nanoseconds since `start`, saturated into a `u64` (580 years
/// of headroom — the cast can only be reached by a clock bug).
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Attribute the wall clock since `since` (a [`Driver::clock`] reading, so
/// `None` when nobody listens) to `sub`.
#[inline]
fn close_span<R: Recorder>(rec: &mut R, sub: SubPhase, since: Option<Instant>) {
    if let Some(start) = since {
        rec.span(sub, elapsed_ns(start));
    }
}

/// One process's whole run. `bufs` carries engine state across runs (a
/// serving layer keeps it warm); it is prepared here and trimmed at query
/// end against this query's own high-water mark, so a large query's pools
/// never chase a small successor.
// sssp-lint: protocol-entry(engine)
// sssp-lint: panic-root(rank-thread, forwarded): on the threaded transport
// this is the body of every rank thread; rank panics propagate through the
// spawning scope's join into the caller, where the serving layer's
// catch_unwind (or the bench process boundary) absorbs them.
pub(super) fn epoch_loop<C: Comm<RelaxMsg>, R: Recorder>(
    job: &Job<'_>,
    ctx: &mut C,
    rec: &mut R,
    bufs: &mut ProcBufs,
) -> ProcessOut {
    bufs.prepare(job.dg, ctx.owned(), job.cfg.coalescing);
    let mut driver = Driver::new(job, ctx, rec, bufs);
    // An empty graph has nothing to select; the guard is uniform.
    if job.dg.num_vertices() > 0 {
        driver.seed();
        driver.run_epochs();
    }
    driver.finish()
}

/// The epoch loop's working set on one process.
struct Driver<'a, C, R> {
    job: &'a Job<'a>,
    ctx: &'a mut C,
    rec: &'a mut R,
    bufs: &'a mut ProcBufs,
    /// The run's stepping policy (bucket width + window rule), resolved
    /// once from the config.
    policy: Policy,
    /// What the kernels' recorder-only bookkeeping needs: the resolved
    /// intra-node balancing threshold π (`u64::MAX` = off) when the
    /// recorder listens, `None` when nothing would read it.
    meter: Option<u64>,
    /// Smallest edge weight in the graph (`u64::MAX` on an edgeless one): a
    /// window whose short bound does not exceed it has an empty short stage
    /// (the Dijkstra configuration's, say), which is skipped.
    min_weight: u64,
    /// Largest edge weight in the graph (0 on an edgeless one).
    max_weight: u64,
    out: ProcessOut,
    /// Largest lane or inbox fill of the current epoch / the whole query:
    /// the pool-shrink policy's high-water marks.
    epoch_hwm: usize,
    query_hwm: usize,
    /// Messages this process sent / had delivered since the last
    /// consistency check (debug-build conservation check).
    sent: u64,
    delivered: u64,
}

impl<'a, C: Comm<RelaxMsg>, R: Recorder> Driver<'a, C, R> {
    fn new(job: &'a Job<'a>, ctx: &'a mut C, rec: &'a mut R, bufs: &'a mut ProcBufs) -> Self {
        let dg = job.dg;
        // The graph's weight extremes, recorded while it was sliced; an
        // edgeless graph's sentinels (`u64::MAX`, 0) open no short stage
        // and zero the decision heuristic's eq. 1 expectation.
        let (min_weight, max_weight) = dg.weight_range();
        let policy = Policy::new(job.cfg, dg.num_ranks(), max_weight);
        // What each vertex adds to the §III-C pull estimate while unreached
        // is fixed by the graph, the policy's short bound and the weight
        // range: install it once, and the per-epoch estimate never has to
        // visit an unreached vertex again.
        let (short_bound, estimator) = (policy.short_bound(), job.cfg.pull_estimator);
        bufs.fan_out(
            (),
            |io| {
                let lg = &dg.locals[io.st.rank];
                io.st.install_unreached_terms(|v| {
                    decide::pull_term(lg, v, INF, 0, short_bound, estimator, max_weight)
                });
            },
            |(), ()| (),
        );
        let meter = rec.enabled().then(|| {
            let n = dg.num_vertices() as u64;
            resolved_pi(job.cfg.intra_balance, dg.m_directed, n)
        });
        let out = ProcessOut {
            first_rank: ctx.owned().start,
            ..ProcessOut::default()
        };
        Driver {
            job,
            ctx,
            rec,
            bufs,
            policy,
            meter,
            min_weight,
            max_weight,
            out,
            epoch_hwm: 0,
            query_hwm: 0,
            sent: 0,
            delivered: 0,
        }
    }

    /// Place the seeds on their owner ranks.
    fn seed(&mut self) {
        let first_rank = self.out.first_rank;
        for st in &mut self.bufs.st {
            st.begin_phase();
        }
        for &(v, d) in self.job.seeds {
            let (owner, local) = self.job.dg.locate(v);
            if let Some(st) = owner
                .checked_sub(first_rank)
                .and_then(|i| self.bufs.st.get_mut(i))
            {
                st.relax(sssp_graph::checked_u32(local), d, &self.policy.delta);
            }
        }
    }

    fn run_epochs(&mut self) {
        let job = self.job;
        let n_total = job.dg.num_vertices() as u64;
        let mut k_prev: Option<u64> = None;
        let mut settled_total = 0u64;
        let mut buckets_done = 0usize;
        // Epochs run since the hybrid switch fired (`None` before it).
        let mut tail_epochs: Option<u32> = None;
        loop {
            // Epoch tag for the schedule fingerprint: advanced by the same
            // uniform counter on every rank (set-up ran as epoch 0).
            self.out.epochs += 1;
            self.ctx.set_epoch(self.out.epochs);

            // Bucket collective: smallest nonempty bucket across all ranks.
            let k_owned = self
                .bufs
                .st
                .iter()
                .map(|st| st.next_nonempty_after(k_prev).unwrap_or(u64::MAX))
                .min()
                .unwrap_or(u64::MAX);
            // sssp-lint: protocol: epoch.select
            let [k] = self.allreduce(Some(TimeClass::Bucket), [Lane::Min(k_owned)]);
            if k == u64::MAX {
                break;
            }
            invariants::check_epoch_monotone(k, k_prev);
            // Slide the flat bucket rings up to the epoch's bucket before
            // anything queries the structure (window proposals included);
            // every later query of the epoch is at or above `k`.
            let scanning = self.clock();
            for st in &mut self.bufs.st {
                st.advance_frontier(k);
            }
            self.span(SubPhase::Scan, scanning);

            // Point-to-point early termination (see `Query::target`): every
            // unsettled vertex now sits in bucket >= k, so nothing a future
            // epoch relaxes can land below the k-window's `start_dist` (kΔ
            // for finite Δ, 0 — never early — for infinite Δ); at or below
            // it the target is final.
            if let Some(tv) = job.target {
                let (owner, local) = job.dg.locate(tv);
                let td_owned = self
                    .bufs
                    .st
                    .iter()
                    .find(|st| st.rank == owner)
                    .map_or(INF, |st| st.dist[local]);
                // sssp-lint: protocol: epoch.target-cutoff
                let [td] = self.allreduce(Some(TimeClass::Bucket), [Lane::Min(td_owned)]);
                if td <= self.policy.window(k, k, None).start_dist {
                    break;
                }
            }

            // Per-query deadline, between bucket selection and the epoch's
            // first exchange, so a run never starts a superstep it may not
            // finish. The guard is uniform and the verdict a collective:
            // all ranks break together, none wedges a peer mid-rendezvous.
            if let Some(deadline) = job.deadline {
                let expired = Instant::now() >= deadline;
                // sssp-lint: protocol: epoch.deadline
                let [stop] = self.allreduce(Some(TimeClass::Bucket), [Lane::Any(expired)]);
                if stop != 0 {
                    self.out.timed_out = true;
                    break;
                }
            }

            // Hybrid switch (§III-D): once τ of the vertices is settled,
            // the remaining epochs take windows of min(2^(j+1), H) buckets,
            // H the one-hop horizon (below).
            if let (Some(tau), Some(kp), None) = (job.cfg.hybrid_tau, k_prev, tail_epochs) {
                if decide::hybrid_should_switch(tau, settled_total, n_total) {
                    self.rec.hybrid_switch(kp);
                    tail_epochs = Some(0);
                }
            }

            // Window selection: rules that process more than one bucket
            // per epoch min-reduce their per-rank window proposals through
            // the window collective; Δ-stepping's single-bucket rule issues
            // no collective at all. Hybrid-tail epochs also reach the
            // tail's floor (DESIGN.md §6g).
            let hi = if self.policy.multi_bucket() {
                // sssp-lint: protocol: epoch.window
                self.window_collective(k)
            } else {
                k
            };
            let window = self.policy.window(k, hi, tail_epochs);

            // Collect the epoch's initial active set from the window.
            let metered = self.rec.enabled();
            let scanning = self.clock();
            let scanned = self.bufs.fan_out(
                0,
                |io| {
                    io.st.collect_active_from_window(window.lo, window.hi);
                    if metered {
                        io.st.window_scan_len(window.lo, window.hi) as u64
                    } else {
                        0
                    }
                },
                u64::max,
            );
            self.span(SubPhase::Scan, scanning);
            self.rec.scan(TimeClass::Bucket, scanned);

            // Stage 1: short-edge phases, to a fixpoint. The window's
            // settled members are then collected into the active set once,
            // in ascending local index: the decision's push volume and
            // either long phase's send kernels all walk that set, each
            // member from the push-range start its last short visit
            // recorded. An empty short stage leaves every start at 0.
            if self.min_weight < window.short_bound {
                let start = self.clock();
                // sssp-lint: protocol: short.exchange-relax
                while self.short_phase(&window) {}
                self.phase_span(PhaseKind::Short, start);
                let scanning = self.clock();
                for st in &mut self.bufs.st {
                    st.collect_active_from_window(window.lo, window.hi);
                }
                self.span(SubPhase::Scan, scanning);
            } else {
                self.bufs
                    .st
                    .iter_mut()
                    .for_each(RankState::clear_push_starts);
            }

            // Stage 2: long-edge phase, push or pull.
            // sssp-lint: protocol: decide.estimates
            let (mode, est_push, est_pull) = self.decide(&window, buckets_done);
            let mut record = BucketRecord {
                est_push,
                est_pull,
                ..BucketRecord::new(window.lo, mode)
            };
            let start = self.clock();
            let kind = match mode {
                LongPhaseMode::Push => self.long_push(&window, &mut record),
                LongPhaseMode::Pull => self.long_pull(&window, &mut record),
            };
            self.phase_span(kind, start);
            // The recorder fills the per-epoch traffic fields from the
            // supersteps recorded since the previous bucket closed.
            self.rec.bucket(record);

            // Settled-count collective (drives the hybrid switch; the paper
            // computes it at every epoch end). A window epoch settles its
            // whole bucket range.
            let settled_owned = self
                .bufs
                .st
                .iter()
                .map(|st| st.window_count(window.lo, window.hi))
                .sum();
            // sssp-lint: protocol: epoch.settle
            let [settled_k] = self.allreduce(Some(TimeClass::Bucket), [Lane::Sum(settled_owned)]);
            settled_total += settled_k;
            self.rec.settled(settled_k);
            // The next epoch starts past the *window*, not the selected
            // bucket — everything inside `[lo, hi]` is settled now.
            k_prev = Some(window.hi);
            buckets_done += 1;
            tail_epochs = tail_epochs.map(|j| j + 1);

            // Epoch-boundary pool bound: release lanes and inboxes that
            // ballooned past 4× this epoch's high-water mark, so a one-off
            // giant superstep cannot pin memory for the rest of the run.
            self.bufs.shrink(self.epoch_hwm);
            self.query_hwm = self.query_hwm.max(self.epoch_hwm);
            self.epoch_hwm = 0;
            self.check_consistency();
        }
    }

    /// Close the run: trim the pools against the whole query's high-water
    /// mark (not just the last — possibly quiet — epoch's), so buffers a
    /// large query ballooned are released before a small successor
    /// inherits them, and hand back this process's share of the result.
    fn finish(mut self) -> ProcessOut {
        // Covers the epochs that exit early (empty-bucket break, the
        // point-to-point cutoff and the deadline).
        self.check_consistency();
        self.bufs.shrink(self.query_hwm.max(self.epoch_hwm));
        self.rec.finish();
        self.out.dist = self.bufs.st.iter().map(|st| st.dist.clone()).collect();
        self.out
    }

    /// Debug cross-check of the static protocol table and of message
    /// conservation: every rank folded the same collective schedule into
    /// its fingerprint, and everything sent since the last check arrived.
    fn check_consistency(&mut self) {
        self.ctx.assert_consistent(self.sent, self.delivered);
        self.sent = 0;
        self.delivered = 0;
    }

    // -- wall-clock spans ----------------------------------------------------

    /// Start a span — only when the recorder listens, so a run on the
    /// `NoopRecorder` never reads the clock.
    #[inline]
    fn clock(&self) -> Option<Instant> {
        self.rec.enabled().then(Instant::now)
    }

    /// Close a span opened by [`Self::clock`] and attribute it to `sub`.
    #[inline]
    fn span(&mut self, sub: SubPhase, since: Option<Instant>) {
        close_span(self.rec, sub, since);
    }

    /// Close a span opened by [`Self::clock`] as one whole phase of `kind`.
    #[inline]
    fn phase_span(&mut self, kind: PhaseKind, since: Option<Instant>) {
        if let Some(start) = since {
            self.rec.phase_nanos(kind, elapsed_ns(start));
        }
    }

    // -- collectives -------------------------------------------------------

    /// Every reduce of the epoch loop: one allreduce of `lanes` (each
    /// already folded over the owned ranks), its wait attributed to
    /// [`SubPhase::CollectiveWait`] and, given a `charge` class, one
    /// collective charged to the cost model.
    fn allreduce<const N: usize>(
        &mut self,
        charge: Option<TimeClass>,
        lanes: [Lane; N],
    ) -> [u64; N] {
        let waited = self.clock();
        let reduced = self.ctx.allreduce(lanes);
        self.span(SubPhase::CollectiveWait, waited);
        if let Some(class) = charge {
            self.rec.collective(class);
        }
        reduced
    }

    /// The window-selection collective: min-reduce the per-rank window
    /// proposals for the epoch starting at bucket `k`.
    fn window_collective(&mut self, k: u64) -> u64 {
        let locals = &self.job.dg.locals;
        let scanning = self.clock();
        let proposal = self
            .bufs
            .st
            .iter()
            .map(|st| self.policy.proposal(st, &locals[st.rank], k))
            .min()
            .unwrap_or(u64::MAX);
        self.span(SubPhase::Scan, scanning);
        let [hi] = self.allreduce(Some(TimeClass::Bucket), [Lane::Window(proposal)]);
        hi
    }

    /// The §III-C push/pull decision for the window's long phase:
    /// `(mode, est_push, est_pull)`. Always policies skip the collectives
    /// uniformly (every rank holds the same config, so the SPMD sequence
    /// stays aligned); a `Forced` bucket skips them too — except when a
    /// recorder is listening, where the volume pass still runs so
    /// telemetry shows what the heuristic would have seen.
    /// Otherwise a first reduction bounds the pull side by the unreached
    /// mass; only when that bound does not pick push, or a recorder wants
    /// the exact `est_pull`, does a second pass over the reached unsettled
    /// vertices and a second reduction follow. The bound's verdict is a
    /// reduced value and [`Recorder::enabled`] is uniform across the
    /// processes of a run, so the collective sequence stays aligned either
    /// way.
    fn decide(&mut self, window: &EpochWindow, buckets_done: usize) -> (LongPhaseMode, u64, u64) {
        let cfg = self.job.cfg;
        let forced = match &cfg.direction {
            DirectionPolicy::AlwaysPush => return (LongPhaseMode::Push, 0, 0),
            DirectionPolicy::AlwaysPull => return (LongPhaseMode::Pull, 0, 0),
            DirectionPolicy::Heuristic => None,
            DirectionPolicy::Forced(seq) => seq.get(buckets_done).copied(),
        };
        if let (Some(mode), false) = (forced, self.rec.enabled()) {
            return (mode, 0, 0);
        }
        // First pass: per-rank push volume, unreached pull mass and scan
        // extent, folded straight into (Σpush, Σmass, max push, max mass,
        // max scanned) over the owned ranks, then reduced across processes
        // as one collective.
        let locals = &self.job.dg.locals;
        let (w_max, unreached_bound) = (self.max_weight, self.policy.short_bound());
        let scanning = self.clock();
        let lanes = self.bufs.fan_out(
            [
                Lane::Sum(0),
                Lane::Sum(0),
                Lane::Max(0),
                Lane::Max(0),
                Lane::Max(0),
            ],
            |io| {
                let (push, mass, scanned) = decide::rank_push_bound(
                    &locals[io.st.rank],
                    io.st,
                    window,
                    unreached_bound,
                    cfg.ios,
                    cfg.pull_estimator,
                    w_max,
                );
                [
                    Lane::Sum(push),
                    Lane::Sum(mass),
                    Lane::Max(push),
                    Lane::Max(mass),
                    Lane::Max(scanned),
                ]
            },
            |a, b| std::array::from_fn(|i| a[i].merge(b[i].value())),
        );
        self.span(SubPhase::Scan, scanning);
        // The ledger charges the decision one collective however many
        // reductions it takes.
        let [push_total, mass_total, push_max, mass_max, scan_max] =
            self.allreduce(Some(TimeClass::Relax), lanes);
        let (model, p) = (self.job.model, self.job.dg.num_ranks());
        let decide = |pull_total, pull_max| {
            decide::decide_from_totals(
                cfg, model, p, push_total, pull_total, push_max, pull_max, scan_max,
            )
        };
        // The reached unsettled vertices only add to the pull side, and
        // `t_pull` never decreases as it grows: push on the unreached mass
        // alone is push on the full estimate. Only a recorder needs the
        // exact `est_pull` then.
        let bound = decide(mass_total, mass_max);
        if bound.0 == LongPhaseMode::Push && !self.rec.enabled() {
            return bound;
        }
        // Second pass: each rank's whole pull volume, reduced to its sum
        // and maximum.
        let scanning = self.clock();
        let (pull, pull_max) = self.bufs.st.iter().fold((0, 0), |(sum, max), st| {
            let pull = decide::rank_pull(
                &locals[st.rank],
                st,
                window,
                unreached_bound,
                cfg.ios,
                cfg.pull_estimator,
                w_max,
            );
            (sum + pull, max.max(pull))
        });
        self.span(SubPhase::Scan, scanning);
        // sssp-lint: protocol: decide.pull-estimate
        let [pull_total, pull_max] = self.allreduce(None, [Lane::Sum(pull), Lane::Max(pull_max)]);
        let (mode, est_push, est_pull) = decide(pull_total, pull_max);
        (forced.unwrap_or(mode), est_push, est_pull)
    }

    // -- superstep plumbing --------------------------------------------------

    /// Exchange the filled lanes into the relax inboxes, or — for the pull
    /// phase's request sub-step — into the request inboxes, reducing
    /// `lanes` on the way, and track the pool high-water mark.
    fn exchange_into<const N: usize>(
        &mut self,
        requests: bool,
        lanes: [Lane; N],
    ) -> (StepStats, [u64; N]) {
        let filled = self.bufs.out.iter().flat_map(|ob| ob.out.iter());
        let mut hwm = filled.map(Vec::len).max().unwrap_or(0);
        let waited = self.clock();
        let inboxes = if requests {
            &mut self.bufs.req_inbox
        } else {
            &mut self.bufs.inbox
        };
        let (step, reduced) = self
            .ctx
            .exchange(&mut self.bufs.out, inboxes, WIRE_BYTES, lanes);
        // Not `self.span`: `inboxes` still borrows the buffers.
        close_span(self.rec, SubPhase::ExchangeWait, waited);
        for inbox in inboxes.iter() {
            hwm = hwm.max(inbox.len());
            self.delivered += inbox.len() as u64;
        }
        self.sent += step.remote_msgs + step.local_msgs;
        self.epoch_hwm = self.epoch_hwm.max(hwm);
        (step, reduced)
    }

    /// Exchange a relax superstep whose lanes each hold one target-sorted
    /// run, so the receiver can apply it as a sequential min-merge, reducing
    /// `lanes` on the way. With coalescing on, the send fan-out already
    /// emitted them from the [`MinTable`]s and passes in the `coalesced`
    /// proposals it dropped and the `own` proposals its ranks kept in their
    /// own tables, which count as local traffic as if they had travelled;
    /// without it each lane is sorted by `(target, nd)` here and ships
    /// whole. The coalesced count rides on the returned step record.
    fn exchange_relax<const N: usize>(
        &mut self,
        coalesced: u64,
        own: u64,
        lanes: [Lane; N],
    ) -> (StepStats, [u64; N]) {
        if !self.job.cfg.coalescing {
            let packing = self.clock();
            for lane in self.bufs.out.iter_mut().flat_map(|ob| ob.out.iter_mut()) {
                pack_sorted_run(lane, |m| m.target, |m| m.nd, false);
            }
            self.span(SubPhase::Pack, packing);
        }
        let (mut step, reduced) = self.exchange_into(false, lanes);
        step.local_msgs += own;
        (self.sent, self.delivered) = (self.sent + own, self.delivered + own);
        step.coalesced_msgs = coalesced;
        self.out.relax_local_msgs += step.local_msgs;
        self.out.relax_remote_msgs += step.remote_msgs;
        self.out.coalesced_msgs += coalesced;
        (step, reduced)
    }

    /// Charge and record a finished superstep (after its receive side ran:
    /// the per-thread operation maxima include the receive work).
    fn end_superstep(&mut self, step: &StepStats) {
        let max_thread_ops = if self.rec.enabled() {
            let loads = self.bufs.st.iter().map(|st| st.loads.max());
            loads.max().unwrap_or(0)
        } else {
            0
        };
        self.rec.superstep(step, max_thread_ops);
    }

    /// Record one finished relaxation phase; `outer_short` of its
    /// `relaxations` travelled along IOS outer-short edges.
    fn end_phase(
        &mut self,
        bucket: u64,
        kind: PhaseKind,
        relaxations: u64,
        outer_short: u64,
        remote_msgs: u64,
    ) {
        let rec = PhaseRecord {
            bucket,
            kind,
            relaxations,
            remote_msgs,
        };
        self.rec.phase(&rec, outer_short);
    }

    // -- phases ---------------------------------------------------------------

    /// The send half of a relax superstep: begin it on every owned rank and
    /// let `send` fill the rank's lanes (see [`relax_into`]). Returns the
    /// relaxations sent, the proposals coalesced away and the own-rank
    /// proposals kept.
    fn relax_send(
        &mut self,
        send: impl Fn(RankIo<'_>, &mut [MinTable]) -> (u64, u64, u64) + Sync,
    ) -> (u64, u64, u64) {
        let begin_and_send = |io: RankIo<'_>, tables: &mut [MinTable]| {
            begin_superstep(io.st);
            send(io, tables)
        };
        let scanning = self.clock();
        let sent = self.bufs.fan_out_tables((0, 0, 0), begin_and_send, |a, b| {
            (a.0 + b.0, a.1 + b.1, a.2 + b.2)
        });
        self.span(SubPhase::Scan, scanning);
        sent
    }

    /// The receive half of a relax superstep: each rank applies what was
    /// delivered to it and then runs `after`; the superstep is recorded.
    fn relax_apply(&mut self, step: &StepStats, after: impl Fn(&mut RankState) + Sync) {
        let (delta, metered) = (self.policy.delta, self.meter.is_some());
        let apply = |io: RankIo<'_>| {
            let (st, delivered) = io.received();
            kernels::apply_relax(st, &delta, delivered, metered);
            after(st);
        };
        let applying = self.clock();
        self.bufs.fan_out((), apply, |(), ()| ());
        self.span(SubPhase::Apply, applying);
        self.end_superstep(step);
    }

    /// One plain relax superstep: [`Self::relax_send`], the exchange,
    /// [`Self::relax_apply`]. Returns the relaxations sent.
    fn relax_round(
        &mut self,
        send: impl Fn(RankIo<'_>, &mut [MinTable]) -> (u64, u64, u64) + Sync,
        after: impl Fn(&mut RankState) + Sync,
    ) -> (u64, StepStats) {
        let (sent, coalesced, own) = self.relax_send(send);
        let (step, []) = self.exchange_relax(coalesced, own, []);
        self.relax_apply(&step, after);
        (sent, step)
    }

    /// One short-edge phase (§II / §III-A): relax the (inner) short edges
    /// of the active vertices. Whether any rank had an active vertex rides
    /// on the superstep's exchange, so the fixpoint test costs no crossing
    /// of its own, and it is charged as the activity collective it
    /// replaces. A superstep no rank was active in sent nothing: it ends
    /// the fixpoint and is neither applied nor recorded. Returns whether
    /// the phase ran.
    fn short_phase(&mut self, window: &EpochWindow) -> bool {
        let (dg, cfg, meter) = (self.job.dg, self.job.cfg, self.meter);
        let active = self.bufs.st.iter().any(|st| !st.active.is_empty());
        let (sent, coalesced, own) = if active {
            self.relax_send(|io, tables| {
                let lg = &dg.locals[io.st.rank];
                relax_into!(cfg.coalescing, io, tables, |sink| {
                    kernels::short_send(lg, dg.addr, io.st, window, cfg.ios, meter, sink)
                })
            })
        } else {
            // Nothing to send: begin the superstep without a fan-out.
            self.bufs.st.iter_mut().for_each(begin_superstep);
            (0, 0, 0)
        };
        let (step, [any]) = self.exchange_relax(coalesced, own, [Lane::Any(active)]);
        self.rec.collective(TimeClass::Bucket);
        if any == 0 {
            return false;
        }
        // Next phase's active set: changed vertices now inside the window
        // (the classic B_k under Δ-stepping).
        self.relax_apply(&step, |st| {
            st.collect_active_changed_in_window(window.lo, window.hi)
        });
        self.end_phase(window.lo, PhaseKind::Short, sent, 0, step.remote_msgs);
        true
    }

    /// Push-mode long phase (§III-B): every vertex settled in the window
    /// relaxes its long (and, under IOS, outer-short) edges outward, with
    /// receiver-side self/backward/forward classification for Fig 7 when a
    /// recorder listens.
    fn long_push(&mut self, window: &EpochWindow, record: &mut BucketRecord) -> PhaseKind {
        let (dg, cfg, meter, delta) = (self.job.dg, self.job.cfg, self.meter, self.policy.delta);
        let metered = meter.is_some();
        let scanning = self.clock();
        let ((outer, long), coalesced, own) = self.bufs.fan_out_tables(
            ((0, 0), 0, 0),
            |io, tables| {
                begin_superstep(io.st);
                let lg = &dg.locals[io.st.rank];
                relax_into!(cfg.coalescing, io, tables, |sink| {
                    kernels::long_push_send(lg, dg.addr, io.st, window, meter, sink)
                })
            },
            |a, b| ((a.0 .0 + b.0 .0, a.0 .1 + b.0 .1), a.1 + b.1, a.2 + b.2),
        );
        self.span(SubPhase::Scan, scanning);
        // sssp-lint: protocol: long-push.exchange-relax
        let (step, []) = self.exchange_relax(coalesced, own, []);
        let applying = self.clock();
        (
            record.self_edges,
            record.backward_edges,
            record.forward_edges,
        ) = self.bufs.fan_out(
            (0, 0, 0),
            |io| {
                let (st, delivered) = io.received();
                kernels::classify_apply_relax(st, window, &delta, delivered, metered)
            },
            |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
        );
        self.span(SubPhase::Apply, applying);
        self.end_superstep(&step);
        let (relaxations, remote_msgs) = (outer + long, step.remote_msgs);
        self.end_phase(
            window.lo,
            PhaseKind::LongPush,
            relaxations,
            outer,
            remote_msgs,
        );
        PhaseKind::LongPush
    }

    /// Pull-mode long phase (§III-B): unsettled vertices request along
    /// long edges satisfying `w < d(v) − kΔ` (eq. 1); only sources settled
    /// in the window respond.
    fn long_pull(&mut self, window: &EpochWindow, record: &mut BucketRecord) -> PhaseKind {
        let (dg, cfg, meter) = (self.job.dg, self.job.cfg, self.meter);
        let metered = meter.is_some();
        let (mut outer, mut remote_msgs) = (0, 0);
        // Whether each row's first long edge can be read off its installed
        // pull term (see `kernels::long_start`).
        let installed = cfg.pull_estimator == PullEstimator::Exact
            && window.short_bound == self.policy.short_bound();

        // Sub-step 0 (IOS only): the outer short edges of the settled
        // window are not covered by the pull protocol (requests target
        // long edges), so push them directly. Without IOS, short phases
        // already relaxed every short edge.
        if cfg.ios {
            // sssp-lint: protocol: long-pull.ios-outer-short
            let (sent, step) = self.relax_round(
                |io, tables| {
                    let lg = &dg.locals[io.st.rank];
                    relax_into!(cfg.coalescing, io, tables, |sink| {
                        kernels::outer_short_send(
                            lg, dg.addr, io.st, window, installed, meter, sink,
                        )
                    })
                },
                |_| (),
            );
            outer = sent;
            remote_msgs += step.remote_msgs;
        }

        // Sub-step 1: requests. Every unsettled vertex v asks along each
        // long edge that could still improve it. Requests are never
        // coalesced — each one expects its own response — and do not
        // count as relax traffic.
        let scanning = self.clock();
        let (requests, scanned) = self.bufs.fan_out(
            (0, 0),
            |io| {
                begin_superstep(io.st);
                let lg = &dg.locals[io.st.rank];
                kernels::pull_request_send(lg, dg.addr, io.st, window, installed, meter, io.out)
            },
            |a, b| (a.0 + b.0, a.1.max(b.1)),
        );
        self.span(SubPhase::Scan, scanning);
        self.rec.scan(TimeClass::Relax, scanned);
        // sssp-lint: protocol: long-pull.requests
        let (step, []) = self.exchange_into(true, []);
        self.end_superstep(&step);
        remote_msgs += step.remote_msgs;

        // Sub-step 2: responses. Only sources settled in the window
        // answer; everything else is the redundancy being pruned away.
        // sssp-lint: protocol: long-pull.responses
        let (responses, step) = self.relax_round(
            |io, tables| {
                relax_into!(cfg.coalescing, io, tables, |sink| {
                    kernels::pull_respond(dg.addr, io.st, window, io.req_inbox, metered, sink)
                })
            },
            |_| (),
        );
        remote_msgs += step.remote_msgs;

        (record.requests, record.responses) = (requests, responses);
        let relaxations = outer + requests + responses;
        self.end_phase(
            window.lo,
            PhaseKind::LongPull,
            relaxations,
            outer,
            remote_msgs,
        );
        PhaseKind::LongPull
    }
}
