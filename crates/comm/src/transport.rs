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
//! The caller folds every collective contribution over its owned ranks
//! *before* calling, so a collective never sits inside a per-rank loop and
//! the call sequence is the same on every process whatever it owns.
//!
//! [`Comm::owned`]: crate::transport::Comm::owned
//! [`Comm`]: crate::transport::Comm
//! [`LockstepComm`]: crate::transport::LockstepComm
//! [`exchange_pooled`]: crate::exchange::exchange_pooled

use std::ops::Range;

use crate::exchange::{exchange_pooled, Outbox};
use crate::stats::StepStats;
use crate::Rank;

/// What an SPMD kernel needs from a transport moving messages of type `M`.
/// Every process of a run must issue the same sequence of these calls (the
/// SPMD contract); contributions are pre-folded over the owned ranks.
pub trait Comm<M> {
    /// Ranks this process drives (contiguous, never empty).
    fn owned(&self) -> Range<Rank>;

    /// Tag subsequent collectives with the bucket epoch (schedule
    /// fingerprinting; transports without a fingerprint ignore it).
    fn set_epoch(&mut self, _epoch: u64) {}

    /// Minimum over all ranks.
    fn allreduce_min(&mut self, value: u64) -> u64;

    /// Maximum over all ranks.
    fn allreduce_max(&mut self, value: u64) -> u64;

    /// Sum over all ranks.
    fn allreduce_sum(&mut self, value: u64) -> u64;

    /// Minimum of the per-rank epoch-window proposals (a min-reduce with a
    /// schedule identity of its own, see [`crate::fingerprint::FP_WINDOW`]).
    fn allreduce_min_window(&mut self, value: u64) -> u64;

    /// Logical or over all ranks.
    fn any(&mut self, flag: bool) -> bool;

    /// Two sums and three maxima over all ranks as *one* collective — the
    /// shape of the §III-C push/pull decision (Σ push, Σ pull, max push,
    /// max pull, max scanned), which the cost model charges one latency.
    fn allreduce_fused(&mut self, sums: [u64; 2], maxes: [u64; 3]) -> ([u64; 2], [u64; 3]);

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

    /// Epoch boundary: release transport-held buffers that ballooned past
    /// the epoch's high-water mark.
    fn end_epoch(&mut self) {}

    /// Query boundary: the same bound against the whole query's mark.
    fn end_query(&mut self) {}

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

    fn allreduce_min(&mut self, value: u64) -> u64 {
        value
    }

    fn allreduce_max(&mut self, value: u64) -> u64 {
        value
    }

    fn allreduce_sum(&mut self, value: u64) -> u64 {
        value
    }

    fn allreduce_min_window(&mut self, value: u64) -> u64 {
        value
    }

    fn any(&mut self, flag: bool) -> bool {
        flag
    }

    fn allreduce_fused(&mut self, sums: [u64; 2], maxes: [u64; 3]) -> ([u64; 2], [u64; 3]) {
        (sums, maxes)
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

    /// What [`program`] hands back: the inboxes, the single reductions
    /// `(sum, min, any)`, the fused reduce next to the five single ones it
    /// replaces, and the step record.
    type Outcome = (
        Vec<Vec<u64>>,
        (u64, u64, bool),
        [([u64; 2], [u64; 3]); 2],
        StepStats,
    );

    /// Drive the same tiny SPMD program through a transport: every rank
    /// sends its id to every rank, then the world reduces the inbox sums —
    /// and two sums and three maxima, once as five reductions and once
    /// fused.
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
        let total = ctx.allreduce_sum(local);
        let least = ctx.allreduce_min(owned.start as u64);
        let any = ctx.any(owned.contains(&(p - 1)));
        // Contributions pre-folded over the owned ranks, as the driver does:
        // sums of r and r², maxima of r, p - r and a constant.
        let ranks = || owned.clone().map(|r| r as u64);
        let sums = [ranks().sum(), ranks().map(|r| r * r).sum()];
        let maxes = [
            ranks().max().unwrap(),
            ranks().map(|r| p as u64 - r).max().unwrap(),
            7,
        ];
        let single = (
            sums.map(|v| ctx.allreduce_sum(v)),
            maxes.map(|v| ctx.allreduce_max(v)),
        );
        let fused = ctx.allreduce_fused(sums, maxes);
        (inboxes, (total, least, any), [single, fused], step)
    }

    #[test]
    fn lockstep_and_rank_threads_run_the_same_program() {
        let p = 3;
        let (inboxes, reduced, [single, fused], step) = program(&mut LockstepComm::new(p), p);
        assert_eq!(inboxes, vec![vec![0, 1, 2]; 3]);
        assert_eq!(reduced, (9, 0, true));
        assert_eq!(single, ([3, 5], [2, 3, 7]));
        assert_eq!(fused, single, "fused reduce must equal five reductions");
        assert_eq!((step.local_msgs, step.remote_msgs), (3, 6));

        let per_rank = run_threaded(p, move |mut ctx: RankCtx<u64>| program(&mut ctx, p));
        let mut merged = StepStats::default();
        for (rank, (inbox, r, both, s)) in per_rank.into_iter().enumerate() {
            assert_eq!(inbox, vec![vec![0, 1, 2]], "rank {rank}");
            assert_eq!(r, reduced, "rank {rank}");
            assert_eq!(both, [single, single], "rank {rank}");
            merged.local_msgs += s.local_msgs;
            merged.remote_msgs += s.remote_msgs;
            merged.remote_bytes += s.remote_bytes;
            merged.max_rank_send_bytes = merged.max_rank_send_bytes.max(s.max_rank_send_bytes);
            merged.max_rank_recv_bytes = merged.max_rank_recv_bytes.max(s.max_rank_recv_bytes);
        }
        assert_eq!(
            merged, step,
            "per-rank reports must merge to the global step"
        );
    }
}
