//! Distributed connected components via label propagation.
//!
//! The min-label propagation algorithm on the BSP substrate: every vertex
//! starts labeled with its own id and repeatedly adopts the minimum label
//! among itself and its neighbors; labels stabilize at the component-wise
//! minimum vertex id. Structurally this is Bellman-Ford with `min` instead
//! of `+`, so it exercises the exact communication pattern of the SSSP
//! engine's hybrid tail and serves as a second correctness anchor for the
//! substrate (validated against the union-find reference in `sssp-graph`).
//!
//! The propagation loop is one SPMD program over [`Comm`] that either
//! transport runs ([`cc_on`]; [`run_cc`] is the lockstep shorthand).
//!
//! [`Comm`]: sssp_comm::transport::Comm
//! [`cc_on`]: crate::cc::cc_on
//! [`run_cc`]: crate::cc::run_cc

use std::borrow::Borrow;
use std::time::Instant;

use sssp_comm::cost::{MachineModel, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_comm::transport::{Comm, Lane};
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::engine::{Lockstep, Spmd, Transport};
use crate::spmd::{self, Meter, Ranks, Share};

/// Connected-components output.
#[derive(Debug, Clone)]
pub struct CcOutput {
    /// Per-vertex label = the minimum vertex id in its component.
    pub labels: Vec<VertexId>,
    /// Label-propagation rounds until fixpoint.
    pub rounds: u64,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
    /// True when the run stopped at its deadline: labels are then only
    /// upper bounds on the component minima.
    pub timed_out: bool,
}

impl CcOutput {
    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        let mut ls: Vec<VertexId> = self.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    }
}

/// Wire size of a label message: target local index and label.
const LABEL_BYTES: usize = 8;

/// Run min-label propagation until a global fixed point, on the lockstep
/// transport.
pub fn run_cc(dg: &DistGraph, model: &MachineModel) -> CcOutput {
    cc_on(dg, model, None, Lockstep)
}

/// [`run_cc`] on `transport`, stopping at the first round boundary past
/// `deadline` with [`CcOutput::timed_out`] set. Labels and the round count
/// are identical on every transport; the ledgers are kept only by a
/// process that drives every rank.
pub fn cc_on<T: Transport>(
    dg: &T::Graph,
    model: &MachineModel,
    deadline: Option<Instant>,
    transport: T,
) -> CcOutput {
    let program = Cc {
        model: *model,
        deadline,
    };
    let shares = transport.drive(dg, program);
    let (labels, rounds, comm, ledger, timed_out) =
        spmd::gather(dg.borrow(), shares, 0, |rounds, mine| *rounds = mine);
    CcOutput {
        labels,
        rounds,
        comm,
        ledger,
        timed_out,
    }
}

/// The propagation loop as an SPMD program.
struct Cc {
    model: MachineModel,
    deadline: Option<Instant>,
}

/// One owned rank's labels, the vertices whose label changed last round,
/// and the scratch flags that keep that list duplicate-free.
struct RankCc {
    rank: usize,
    labels: Vec<VertexId>,
    active: Vec<u32>,
    seen: Vec<bool>,
}

impl Spmd for Cc {
    /// `(target local index, label)`.
    type Msg = (u32, VertexId);
    type Out = Share<VertexId, u64>;

    // sssp-lint: protocol-entry(cc)
    fn on_process<C: Comm<(u32, VertexId)>>(&self, dg: &DistGraph, ctx: &mut C) -> Self::Out {
        let n = dg.num_vertices();
        let owned = ctx.owned();
        let mut meter = Meter::new(dg, &owned, &self.model);
        // Every vertex starts labeled with its own external id, and
        // "changed".
        let mut ranks = Ranks::new(owned.clone(), dg.num_ranks(), |rank| {
            let nl = dg.part.local_count(rank);
            RankCc {
                rank,
                labels: (0..nl).map(|l| dg.vertex(rank, l)).collect(),
                active: (0..nl as u32).collect(),
                seen: vec![false; nl],
            }
        });
        let (mut rounds, mut timed_out) = (0u64, false);
        loop {
            let active = ranks.state.iter().any(|rk| !rk.active.is_empty());
            let lanes = [Lane::Any(active), Lane::Any(spmd::past(self.deadline))];
            // sssp-lint: protocol: cc.round-active
            let [active, expired] = meter.allreduce(ctx, lanes);
            if active == 0 {
                break;
            }
            if expired != 0 {
                timed_out = true;
                break;
            }
            rounds += 1;

            let sent = ranks.fill_outboxes(|rk, ob| {
                let (lg, addr) = (&dg.locals[rk.rank], dg.addr);
                let mut sent = 0u64;
                for &v in &rk.active {
                    let (ts, _) = lg.row(v as usize);
                    for &t in ts {
                        ob.send(addr.owner(t), (addr.local(t), rk.labels[v as usize]));
                    }
                    sent += ts.len() as u64;
                }
                sent
            });
            // sssp-lint: protocol: cc.exchange-labels
            let step = ranks.exchange(ctx, LABEL_BYTES);
            // Adopt smaller labels; a changed vertex is active next round.
            ranks.read_inboxes(|rk, inbox| {
                rk.active.clear();
                for &(t, label) in inbox {
                    let ti = t as usize;
                    if label < rk.labels[ti] {
                        rk.labels[ti] = label;
                        if !rk.seen[ti] {
                            rk.seen[ti] = true;
                            rk.active.push(t);
                        }
                    }
                }
                for &t in &rk.active {
                    rk.seen[t as usize] = false;
                }
            });
            meter.exchanged(sent.into_iter().sum(), step);
            assert!(
                rounds <= n as u64 + 1,
                "label propagation failed to converge"
            );
        }
        let local = ranks.state.into_iter().map(|rk| rk.labels).collect();
        let (first, record) = (owned.start, rounds);
        Share {
            first,
            local,
            record,
            meter,
            timed_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::components::components_union_find;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn matches_union_find_partition() {
        for seed in 0..6 {
            let el = gen::uniform(150, 180, 10, seed);
            let g = CsrBuilder::new().build(&el);
            let reference = components_union_find(&el);
            for p in [1usize, 4, 6] {
                let dg = DistGraph::build(&g, p, 2);
                let out = run_cc(&dg, &model());
                // Same partition: labels agree iff reference labels agree.
                for u in 0..150 {
                    for v in (u + 1)..150 {
                        assert_eq!(
                            out.labels[u] == out.labels[v],
                            reference[u] == reference[v],
                            "seed {seed} p {p} pair ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_component_minima() {
        let mut el = gen::path(3, 1); // {0,1,2}
        el.n = 7;
        el.push(5, 6, 1); // {5,6}, isolated: 3, 4
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 3, 1);
        let out = run_cc(&dg, &model());
        assert_eq!(out.labels, vec![0, 0, 0, 3, 4, 5, 5]);
        assert_eq!(out.num_components(), 4);
    }

    #[test]
    fn rounds_bounded_by_diameter() {
        let g = CsrBuilder::new().build(&gen::path(20, 1));
        let dg = DistGraph::build(&g, 4, 1);
        let out = run_cc(&dg, &model());
        // Label 0 must travel 19 hops; plus the initial flood + quiescence.
        assert!(
            out.rounds >= 19 && out.rounds <= 22,
            "rounds = {}",
            out.rounds
        );
        assert_eq!(out.num_components(), 1);
    }

    #[test]
    fn clique_converges_fast() {
        let g = CsrBuilder::new().build(&gen::clique(16, 1));
        let dg = DistGraph::build(&g, 4, 1);
        let out = run_cc(&dg, &model());
        assert_eq!(out.num_components(), 1);
        assert!(out.rounds <= 3, "rounds = {}", out.rounds);
    }
}
