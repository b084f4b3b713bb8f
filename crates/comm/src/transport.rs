//! The transport contract of every SPMD kernel.
//!
//! The SSSP epoch loop and the BFS, connected-components and PageRank
//! kernels are each written once against [`Comm`]; what varies
//! between executions is only how a collective reaches the other ranks and
//! how an exchange moves lanes into inboxes. A *process* drives a
//! contiguous slice of **owned** ranks ([`Comm::owned`]): a
//! [`RankCtx`](crate::threaded::RankCtx) owns exactly one (its thread's),
//! the [`LockstepComm`] owns all `p` and transposes their lanes in memory
//! ([`exchange_pooled`]) — the simulator, which exists to model more ranks
//! than the machine has cores.
//!
//! Neither transport holds a message buffer between calls: an exchange
//! works in the caller's lanes and inboxes, as MPI's all-to-all works in
//! the caller's send and receive buffers, and hands every lane back empty
//! with capacity. Bounding those buffers is the caller's business.
//!
//! Every reduction is one [`Comm::allreduce`] over up to five [`Lane`]s,
//! each with its own op, and costs one crossing however many lanes it
//! carries; a [`Comm::exchange`] carries lanes the same way, in the
//! superstep's own crossing. The caller folds every contribution over its owned ranks
//! *before* calling, so a collective never sits inside a per-rank loop and
//! the call sequence is the same on every process whatever it owns.
//!
//! [`Comm::owned`]: crate::transport::Comm::owned
//! [`Comm::allreduce`]: crate::transport::Comm::allreduce
//! [`Comm::exchange`]: crate::transport::Comm::exchange
//! [`Comm`]: crate::transport::Comm
//! [`Lane`]: crate::transport::Lane
//! [`LockstepComm`]: crate::transport::LockstepComm
//! [`exchange_pooled`]: crate::exchange::exchange_pooled

use std::ops::Range;

use crate::exchange::{exchange_pooled, Outbox};
use crate::fingerprint::{FP_REDUCE_ANY, FP_REDUCE_MAX, FP_REDUCE_MIN, FP_REDUCE_SUM, FP_WINDOW};
use crate::stats::StepStats;
use crate::Rank;

/// One lane of a [`Comm::allreduce`]: this process's contribution and the
/// op that folds it with every other process's contribution to the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Minimum over all ranks.
    Min(u64),
    /// Maximum over all ranks.
    Max(u64),
    /// Sum over all ranks.
    Sum(u64),
    /// Logical or over all ranks: reduces to 1 if any flag is set, else 0.
    Any(bool),
    /// Minimum of the per-rank epoch-window proposals: a min with a
    /// schedule identity of its own ([`crate::fingerprint::FP_WINDOW`]).
    Window(u64),
}

impl Lane {
    /// The contribution as the lane carries it.
    pub fn value(self) -> u64 {
        match self {
            Lane::Min(v) | Lane::Max(v) | Lane::Sum(v) | Lane::Window(v) => v,
            Lane::Any(flag) => u64::from(flag),
        }
    }

    /// This lane with another rank's contribution `v` folded in by the
    /// lane's op: how a process pre-folds its owned ranks, and how the
    /// rendezvous folds the world.
    pub fn merge(self, v: u64) -> Lane {
        match self {
            Lane::Min(a) => Lane::Min(a.min(v)),
            Lane::Max(a) => Lane::Max(a.max(v)),
            Lane::Sum(a) => Lane::Sum(a + v),
            Lane::Any(a) => Lane::Any(a || v != 0),
            Lane::Window(a) => Lane::Window(a.min(v)),
        }
    }

    /// The op's code in the schedule fingerprint ([`crate::fingerprint`]).
    pub(crate) fn code(self) -> u64 {
        match self {
            Lane::Min(_) => FP_REDUCE_MIN,
            Lane::Max(_) => FP_REDUCE_MAX,
            Lane::Sum(_) => FP_REDUCE_SUM,
            Lane::Any(_) => FP_REDUCE_ANY,
            Lane::Window(_) => FP_WINDOW,
        }
    }
}

/// What an SPMD kernel needs from a transport moving messages of type `M`.
/// Every process of a run must issue the same sequence of these calls (the
/// SPMD contract); contributions are pre-folded over the owned ranks.
pub trait Comm<M> {
    /// Ranks this process drives (contiguous, never empty).
    fn owned(&self) -> Range<Rank>;

    /// Tag subsequent collectives with the bucket epoch (schedule
    /// fingerprinting; transports without a fingerprint ignore it).
    fn set_epoch(&mut self, _epoch: u64) {}

    /// Reduce every lane over all ranks with its own op, as *one*
    /// collective: the §III-C decision's two sums and three maxima cost one
    /// crossing, and the cost model charges them one latency. At most five
    /// lanes (the rank-thread rendezvous slot's width).
    fn allreduce<const N: usize>(&mut self, lanes: [Lane; N]) -> [u64; N];

    /// One superstep: deliver `out[i].out[dst]` of every owned rank `i` to
    /// rank `dst`, fill `inboxes[i]` with what owned rank `i` receives
    /// (source-rank order), set `out[i].own_at` to where rank `i`'s own
    /// lane begins in it, leave every lane empty, and report the traffic
    /// of the owned ranks. Summed (maxima: maxed) over all processes the
    /// reports reproduce the global [`StepStats`] of the superstep. Every
    /// message is charged `msg_bytes` on the wire. The transport keeps no
    /// buffer: the lanes come back with capacity (their own, or that of a
    /// batch they received), so the caller's buffers are the only pool and
    /// the caller bounds them.
    ///
    /// The same episode reduces `lanes` (pre-folded, as for
    /// [`Comm::allreduce`]) over all ranks and returns them: a value the
    /// next step needs from every rank rides on the superstep instead of a
    /// crossing of its own. Pass `[]` when there is none.
    fn exchange<const N: usize>(
        &mut self,
        out: &mut [Outbox<M>],
        inboxes: &mut [Vec<M>],
        msg_bytes: usize,
        lanes: [Lane; N],
    ) -> (StepStats, [u64; N]);

    /// Debug-build cross-rank self-check (a no-op in release builds):
    /// every rank has executed the same collective schedule, and the
    /// `sent` / `delivered` message totals the processes accumulated
    /// since the previous check balance globally — message conservation,
    /// which no single process of a multi-process world can see alone.
    fn assert_consistent(&self, sent: u64, delivered: u64);
}

/// The lockstep transport: one process drives all `p` ranks, so every
/// pre-folded contribution already *is* the global value and an exchange
/// is the in-memory transpose.
#[derive(Debug, Clone, Copy)]
pub struct LockstepComm {
    p: usize,
}

impl LockstepComm {
    /// Transport for a `p`-rank world driven by the calling thread.
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        LockstepComm { p }
    }
}

impl<M> Comm<M> for LockstepComm {
    fn owned(&self) -> Range<Rank> {
        0..self.p
    }

    fn allreduce<const N: usize>(&mut self, lanes: [Lane; N]) -> [u64; N] {
        lanes.map(Lane::value)
    }

    fn exchange<const N: usize>(
        &mut self,
        out: &mut [Outbox<M>],
        inboxes: &mut [Vec<M>],
        msg_bytes: usize,
        lanes: [Lane; N],
    ) -> (StepStats, [u64; N]) {
        let step = exchange_pooled(out, inboxes, msg_bytes, None);
        (step, lanes.map(Lane::value))
    }

    fn assert_consistent(&self, sent: u64, delivered: u64) {
        debug_assert_eq!(
            delivered, sent,
            "message conservation violated: delivered != sent"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{run_threaded, RankCtx};

    /// What [`program`] hands back: the inboxes with each owned rank's
    /// own-lane offset, four reduces of mixed lanes (N = 1, 2 and 5, then
    /// two lanes carried by a second exchange), and the first step record.
    type Outcome = (
        Vec<(Vec<u64>, usize)>,
        ([u64; 1], [u64; 2], [u64; 5], [u64; 2]),
        StepStats,
    );

    /// Drive the same tiny SPMD program through a transport: every rank
    /// sends its id to every rank, with the ranks' sum and their smallest
    /// id reduced on the exchange itself; then the world reduces the inbox
    /// sums and the owned ranks through one-, two- and five-lane
    /// allreduces that mix every lane op, and a second, empty exchange
    /// carries an `Any` and a `Max` lane.
    fn program<C: Comm<u64>>(ctx: &mut C, p: usize) -> Outcome {
        let owned = ctx.owned();
        let mut out: Vec<Outbox<u64>> = owned.clone().map(|_| Outbox::new(p)).collect();
        let mut inboxes: Vec<Vec<u64>> = owned.clone().map(|_| Vec::new()).collect();
        for (ob, r) in out.iter_mut().zip(owned.clone()) {
            for dst in 0..p {
                ob.send(dst, r as u64);
            }
        }
        // Contributions pre-folded over the owned ranks, as the driver does.
        let ranks = || owned.clone().map(|r| r as u64);
        let carried = [Lane::Sum(ranks().sum()), Lane::Min(owned.start as u64)];
        let (step, on_exchange) = ctx.exchange(&mut out, &mut inboxes, 8, carried);
        let n = p as u64;
        assert_eq!(on_exchange, [n * (n - 1) / 2, 0], "p {p}");
        let local: u64 = inboxes.iter().flatten().sum();
        let delivered: u64 = inboxes.iter().map(|b| b.len() as u64).sum();
        ctx.assert_consistent(step.local_msgs + step.remote_msgs, delivered);
        let one = ctx.allreduce([Lane::Sum(local)]);
        let two = ctx.allreduce([
            Lane::Min(owned.start as u64),
            Lane::Any(owned.contains(&(p - 1))),
        ]);
        let five = ctx.allreduce([
            Lane::Sum(ranks().map(|r| r * r).sum()),
            Lane::Max(ranks().map(|r| p as u64 - r).max().unwrap()),
            Lane::Window(ranks().map(|r| 10 + r).min().unwrap()),
            Lane::Any(false),
            Lane::Max(7),
        ]);
        let received: Vec<(Vec<u64>, usize)> = inboxes
            .iter()
            .cloned()
            .zip(out.iter().map(|ob| ob.own_at))
            .collect();
        let flags = [
            Lane::Any(owned.contains(&0)),
            Lane::Max(ranks().max().unwrap()),
        ];
        let (empty, last) = ctx.exchange(&mut out, &mut inboxes, 8, flags);
        assert_eq!(empty, StepStats::default(), "p {p}");
        (received, (one, two, five, last), step)
    }

    /// Supersteps of [`hand_back_program`]; the first [`WARM_UP`] may
    /// allocate.
    const STEPS: usize = 8;
    const WARM_UP: usize = 4;

    /// The batch `src` sends `dst` in superstep `step` of a run with
    /// `seed`: none, a few or a few hundred messages (the count is fixed
    /// for the run), each naming its superstep, source, destination and
    /// position.
    fn batch(seed: u64, step: usize, src: usize, dst: usize) -> impl Iterator<Item = u64> {
        let mut x =
            (seed << 16 | (src as u64) << 8 | dst as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        let len = match x % 3 {
            0 => 0,
            1 => 1 + x % 4,
            _ => 200 + x % 200,
        };
        let tag = ((step * 8 + src) * 8 + dst) as u64;
        (0..len).map(move |i| tag << 16 | i)
    }

    /// Every lane and inbox with capacity, as `(address, capacity)`.
    fn buffers(out: &[Outbox<u64>], inboxes: &[Vec<u64>]) -> Vec<(usize, usize)> {
        let bufs = out.iter().flat_map(|ob| &ob.out).chain(inboxes);
        let held = bufs.filter(|b| b.capacity() > 0);
        held.map(|b| (b.as_ptr() as usize, b.capacity())).collect()
    }

    /// One superstep of [`hand_back_program`] as a process saw it: its
    /// owned ranks' inboxes, and its buffers after filling the lanes and
    /// after the exchange.
    type Step = (Vec<Vec<u64>>, [Vec<(usize, usize)>; 2]);

    /// [`STEPS`] exchanges of the seeded traffic pattern ([`batch`]).
    fn hand_back_program<C: Comm<u64>>(ctx: &mut C, p: usize, seed: u64) -> Vec<Step> {
        let owned = ctx.owned();
        let mut out: Vec<Outbox<u64>> = owned.clone().map(|_| Outbox::new(p)).collect();
        let mut inboxes: Vec<Vec<u64>> = owned.clone().map(|_| Vec::new()).collect();
        (0..STEPS)
            .map(|step| {
                for (ob, src) in out.iter_mut().zip(owned.clone()) {
                    for (dst, lane) in ob.out.iter_mut().enumerate() {
                        lane.extend(batch(seed, step, src, dst));
                    }
                }
                let filled = buffers(&out, &inboxes);
                ctx.exchange(&mut out, &mut inboxes, 8, []);
                let mut lanes = out.iter().flat_map(|ob| &ob.out);
                assert!(lanes.all(Vec::is_empty), "p {p}: a lane came back full");
                (inboxes.clone(), [filled, buffers(&out, &inboxes)])
            })
            .collect()
    }

    #[test]
    fn exchanges_hand_buffers_back_and_allocate_nothing_once_warm() {
        for p in [1, 2, 3, 5] {
            for seed in 0..4 {
                let what = format!("p {p} seed {seed}");
                let lockstep = vec![hand_back_program(&mut LockstepComm::new(p), p, seed)];
                let threaded = run_threaded(p, move |mut ctx: RankCtx<u64>| {
                    hand_back_program(&mut ctx, p, seed)
                });
                for step in 0..STEPS {
                    let expect: Vec<Vec<u64>> = (0..p)
                        .map(|dst| (0..p).flat_map(|src| batch(seed, step, src, dst)).collect())
                        .collect();
                    assert_eq!(lockstep[0][step].0, expect, "{what} step {step}: lockstep");
                    let per_rank: Vec<Vec<u64>> =
                        threaded.iter().map(|t| t[step].0.concat()).collect();
                    assert_eq!(per_rank, expect, "{what} step {step}: rank threads");
                }
                // The world's buffers, by identity, after each fill and each
                // exchange: the same set from the end of warm-up on.
                for (name, world) in [("lockstep", &lockstep), ("rank threads", &threaded)] {
                    let held = |step: usize, at: usize| {
                        let mut all: Vec<_> =
                            world.iter().flat_map(|t| t[step].1[at].clone()).collect();
                        all.sort_unstable();
                        all
                    };
                    let warm = held(WARM_UP - 1, 1);
                    for step in WARM_UP..STEPS {
                        for (at, when) in ["filling", "exchanging"].into_iter().enumerate() {
                            assert_eq!(
                                held(step, at),
                                warm,
                                "{what}: {name} allocated {when} in superstep {step}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lockstep_and_rank_threads_run_the_same_program() {
        for p in 1..=3 {
            let (inboxes, reduced, step) = program(&mut LockstepComm::new(p), p);
            let ids: Vec<u64> = (0..p as u64).collect();
            // Rank r's own lane follows the r messages of the lower ranks.
            let received = |r: usize| (ids.clone(), r);
            assert_eq!(inboxes, (0..p).map(received).collect::<Vec<_>>(), "p {p}");
            let (n, sum_sq) = (p as u64, (0..p as u64).map(|r| r * r).sum());
            let expect = (
                [n * ids.iter().sum::<u64>()],
                [0, 1],
                [sum_sq, n, 10, 0, 7],
                [1, n - 1],
            );
            assert_eq!(reduced, expect, "p {p}");
            assert_eq!((step.local_msgs, step.remote_msgs), (n, n * n - n));

            let per_rank = run_threaded(p, move |mut ctx: RankCtx<u64>| program(&mut ctx, p));
            let mut merged = StepStats::default();
            for (rank, (inbox, r, s)) in per_rank.into_iter().enumerate() {
                assert_eq!(inbox, vec![received(rank)], "p {p} rank {rank}");
                assert_eq!(r, reduced, "p {p} rank {rank}");
                merged.local_msgs += s.local_msgs;
                merged.remote_msgs += s.remote_msgs;
                merged.remote_bytes += s.remote_bytes;
                merged.max_rank_send_bytes = merged.max_rank_send_bytes.max(s.max_rank_send_bytes);
                merged.max_rank_recv_bytes = merged.max_rank_recv_bytes.max(s.max_rank_recv_bytes);
            }
            assert_eq!(
                merged, step,
                "p {p}: per-rank reports must merge to the global step"
            );
        }
    }
}
