//! The plumbing the SPMD analytics kernels — BFS, connected components and
//! PageRank — share: the ranks a process owns with their lanes, the
//! simulator's ledgers, the deadline verdict folded into a per-round
//! reduce, and the gather of per-rank results into global vertex order.

use std::ops::Range;
use std::time::Instant;

use rayon::prelude::*;

use sssp_comm::cost::{MachineModel, TimeClass, TimeLedger};
use sssp_comm::exchange::Outbox;
use sssp_comm::stats::{CommStats, StepStats};
use sssp_comm::transport::Comm;
use sssp_dist::DistGraph;

/// The ranks one process owns: each rank's kernel state `S`, and its
/// outbox and inbox of `M`.
pub(crate) struct Ranks<S, M> {
    pub(crate) state: Vec<S>,
    out: Vec<Outbox<M>>,
    inbox: Vec<Vec<M>>,
}

impl<S: Send, M: Send + Sync> Ranks<S, M> {
    /// State `init(rank)` for every rank in `owned` of a `p`-rank world.
    pub(crate) fn new(owned: Range<usize>, p: usize, init: impl FnMut(usize) -> S) -> Self {
        let out = owned.clone().map(|_| Outbox::new(p)).collect();
        let inbox = owned.clone().map(|_| Vec::new()).collect();
        let state = owned.map(init).collect();
        Ranks { state, out, inbox }
    }

    /// Run `f` on every rank's state and outbox — in parallel when the
    /// process owns several ranks — and return the results in rank order.
    pub(crate) fn fill_outboxes<R: Send>(
        &mut self,
        f: impl Fn(&mut S, &mut Outbox<M>) -> R + Sync,
    ) -> Vec<R> {
        let ranks = self.state.par_iter_mut().zip(self.out.par_iter_mut());
        ranks.map(|(s, ob)| f(s, ob)).collect()
    }

    /// Run `f` on every rank's state and what the last exchange delivered
    /// to it, like [`Ranks::fill_outboxes`].
    pub(crate) fn read_inboxes<R: Send>(&mut self, f: impl Fn(&mut S, &[M]) -> R + Sync) -> Vec<R> {
        let ranks = self.state.par_iter_mut().zip(self.inbox.par_iter());
        ranks.map(|(s, inbox)| f(s, inbox)).collect()
    }

    /// One superstep: deliver every outbox and refill the inboxes.
    pub(crate) fn exchange<C: Comm<M>>(&mut self, ctx: &mut C, msg_bytes: usize) -> StepStats {
        ctx.exchange(&mut self.out, &mut self.inbox, msg_bytes)
    }
}

/// One process's share of the simulator's ledgers: message traffic and
/// α–β–γ time. Only a process that drives every rank (the lockstep
/// transport, or a one-rank world) keeps them, since only there are its
/// sums and maxima the global ones; elsewhere every charge is a no-op.
pub(crate) struct Meter {
    model: MachineModel,
    p: usize,
    /// Threads the world's operations spread over: `p` × threads per rank.
    threads: u64,
    on: bool,
    comm: CommStats,
    ledger: TimeLedger,
}

impl Meter {
    /// The ledgers of the process owning `owned`.
    pub(crate) fn new(dg: &DistGraph, owned: &Range<usize>, model: &MachineModel) -> Self {
        let p = dg.num_ranks();
        Meter {
            model: *model,
            p,
            threads: (p as u64 * dg.threads_per_rank.max(1) as u64).max(1),
            on: owned.len() == p,
            comm: CommStats::new(),
            ledger: TimeLedger::new(),
        }
    }

    /// One allreduce, charged to `class`.
    pub(crate) fn reduced(&mut self, class: TimeClass) {
        if self.on {
            self.comm.collectives += 1;
            self.ledger.charge_collective(&self.model, class, self.p);
        }
    }

    /// Charge one relax superstep of `ops` operations on the busiest thread
    /// and `bytes` on the busiest rank.
    pub(crate) fn relax_step(&mut self, ops: u64, bytes: u64) {
        if self.on {
            self.ledger
                .charge_superstep(&self.model, TimeClass::Relax, ops, bytes);
        }
    }

    /// Operations per thread when `edges` examined edges spread over the
    /// world.
    pub(crate) fn per_thread(&self, edges: u64) -> u64 {
        edges / self.threads + 1
    }

    /// Charge and record one exchange superstep that examined `edges`.
    pub(crate) fn exchanged(&mut self, edges: u64, step: StepStats) {
        let bytes = step.max_rank_send_bytes.max(step.max_rank_recv_bytes);
        self.relax_step(self.per_thread(edges), bytes);
        if self.on {
            self.comm.record(step);
        }
    }
}

/// One process's share of a kernel run: the per-rank arrays of its owned
/// ranks from `first` on, the kernel's record, its ledgers and whether it
/// stopped at its deadline.
pub(crate) struct Share<T, X> {
    pub(crate) first: usize,
    pub(crate) local: Vec<Vec<T>>,
    pub(crate) record: X,
    pub(crate) meter: Meter,
    pub(crate) timed_out: bool,
}

/// Fold a run's shares, in rank order, into `(values in external vertex
/// order, the records folded into X::default() with merge, traffic
/// ledger, time ledger, timed out)`. Vertices no rank writes hold `fill`;
/// at most one share carries ledgers.
pub(crate) fn gather<T: Copy, X: Default>(
    dg: &DistGraph,
    shares: Vec<Share<T, X>>,
    fill: T,
    merge: impl Fn(&mut X, X),
) -> (Vec<T>, X, CommStats, TimeLedger, bool) {
    let (mut values, mut record) = (vec![fill; dg.num_vertices()], X::default());
    let (mut comm, mut ledger, mut timed_out) = (CommStats::new(), TimeLedger::new(), false);
    for share in shares {
        for (rank, local) in (share.first..).zip(share.local) {
            for (l, x) in local.into_iter().enumerate() {
                values[dg.vertex(rank, l) as usize] = x;
            }
        }
        merge(&mut record, share.record);
        if share.meter.on {
            (comm, ledger) = (share.meter.comm, share.meter.ledger);
        }
        timed_out |= share.timed_out;
    }
    (values, record, comm, ledger, timed_out)
}

/// Fold this process's deadline verdict into its contribution `low` to a
/// per-round sum: the reduced total carries the summed `low` (below 2³²
/// world-wide) in its low half and the count of processes past `deadline`
/// in its high half. See [`split_expiry`].
pub(crate) fn with_expiry(low: u64, deadline: Option<Instant>) -> u64 {
    let expired = deadline.is_some_and(|d| Instant::now() >= d);
    low | u64::from(expired) << 32
}

/// Split a reduced [`with_expiry`] total into the summed contributions and
/// whether any process was past its deadline.
pub(crate) fn split_expiry(total: u64) -> (u64, bool) {
    (total & u64::from(u32::MAX), total >> 32 != 0)
}
