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
//! Every reduction is one [`Comm::allreduce`] over up to five [`Lane`]s,
//! each with its own op, and costs one crossing however many lanes it
//! carries. The caller folds every contribution over its owned ranks
//! *before* calling, so a collective never sits inside a per-rank loop and
//! the call sequence is the same on every process whatever it owns.
//!
//! [`Comm::owned`]: crate::transport::Comm::owned
//! [`Comm::allreduce`]: crate::transport::Comm::allreduce
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
    /// (source-rank order), leave every lane empty with its capacity
    /// intact, and report the traffic of the owned ranks. Summed (maxima:
    /// maxed) over all processes the reports reproduce the global
    /// [`StepStats`] of the superstep. Every message is charged `msg_bytes`
    /// on the wire.
    fn exchange(
        &mut self,
        out: &mut [Outbox<M>],
        inboxes: &mut [Vec<M>],
        msg_bytes: usize,
    ) -> StepStats;

    /// Release transport-held buffers whose capacity exceeds 4× the
    /// caller's `high_water` mark (in messages), never below
    /// [`crate::threaded::SPARE_CAPACITY_FLOOR`]. The driver calls it at
    /// every epoch end with the epoch's mark and at query end with the
    /// query's, next to the same bound on its own lanes and inboxes.
    fn shrink(&mut self, _high_water: usize) {}

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

    fn exchange(
        &mut self,
        out: &mut [Outbox<M>],
        inboxes: &mut [Vec<M>],
        msg_bytes: usize,
    ) -> StepStats {
        exchange_pooled(out, inboxes, msg_bytes, None)
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

    /// What [`program`] hands back: the inboxes, three reduces of mixed
    /// lanes (N = 1, 2 and 5), and the step record.
    type Outcome = (Vec<Vec<u64>>, ([u64; 1], [u64; 2], [u64; 5]), StepStats);

    /// Drive the same tiny SPMD program through a transport: every rank
    /// sends its id to every rank, then the world reduces the inbox sums
    /// and the owned ranks through one-, two- and five-lane allreduces
    /// that mix every lane op.
    fn program<C: Comm<u64>>(ctx: &mut C, p: usize) -> Outcome {
        let owned = ctx.owned();
        let mut out: Vec<Outbox<u64>> = owned.clone().map(|_| Outbox::new(p)).collect();
        let mut inboxes: Vec<Vec<u64>> = owned.clone().map(|_| Vec::new()).collect();
        for (ob, r) in out.iter_mut().zip(owned.clone()) {
            for dst in 0..p {
                ob.send(dst, r as u64);
            }
        }
        let step = ctx.exchange(&mut out, &mut inboxes, 8);
        let local: u64 = inboxes.iter().flatten().sum();
        let delivered: u64 = inboxes.iter().map(|b| b.len() as u64).sum();
        ctx.assert_consistent(step.local_msgs + step.remote_msgs, delivered);
        // Contributions pre-folded over the owned ranks, as the driver does.
        let ranks = || owned.clone().map(|r| r as u64);
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
        (inboxes, (one, two, five), step)
    }

    #[test]
    fn lockstep_and_rank_threads_run_the_same_program() {
        for p in 1..=3 {
            let (inboxes, reduced, step) = program(&mut LockstepComm::new(p), p);
            let ids: Vec<u64> = (0..p as u64).collect();
            assert_eq!(inboxes, vec![ids.clone(); p], "p {p}");
            let (n, sum_sq) = (p as u64, (0..p as u64).map(|r| r * r).sum());
            let expect = ([n * ids.iter().sum::<u64>()], [0, 1], [sum_sq, n, 10, 0, 7]);
            assert_eq!(reduced, expect, "p {p}");
            assert_eq!((step.local_msgs, step.remote_msgs), (n, n * n - n));

            let per_rank = run_threaded(p, move |mut ctx: RankCtx<u64>| program(&mut ctx, p));
            let mut merged = StepStats::default();
            for (rank, (inbox, r, s)) in per_rank.into_iter().enumerate() {
                assert_eq!(inbox, vec![ids.clone()], "p {p} rank {rank}");
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
