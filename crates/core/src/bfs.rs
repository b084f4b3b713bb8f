//! Distributed direction-optimizing BFS on the same simulated machine.
//!
//! The paper frames its SSSP results against Blue Gene/Q BFS numbers
//! (Fig. 1: SSSP lands within 2–5× of same-machine BFS) and borrows BFS's
//! direction-optimization idea [Beamer et al., SC'12] for its pruning
//! heuristic. This module provides that comparison point: a
//! level-synchronous BFS over a [`DistGraph`], switching between
//!
//! * **top-down** — frontier owners push visit messages along all incident
//!   edges, and
//! * **bottom-up** — every rank receives the whole frontier (an exchange of
//!   frontier ids, charged as the bitmap allgather it stands for) and scans
//!   its own unvisited vertices for a frontier neighbor,
//!
//! using Beamer's edge-count heuristic. The level loop is one SPMD program
//! over [`Comm`] that either transport runs ([`bfs_on`]; [`run_bfs`] is the
//! lockstep shorthand). Traffic and simulated time are accounted with the
//! same [`MachineModel`] as the SSSP engine, so BFS-vs-SSSP GTEPS ratios
//! are directly comparable.
//!
//! [`DistGraph`]: sssp_dist::DistGraph
//! [`Comm`]: sssp_comm::transport::Comm
//! [`bfs_on`]: crate::bfs::bfs_on
//! [`run_bfs`]: crate::bfs::run_bfs
//! [`MachineModel`]: sssp_comm::cost::MachineModel

use std::borrow::Borrow;
use std::time::Instant;

use sssp_comm::cost::{MachineModel, TimeClass, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_comm::transport::{Comm, Lane};
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::engine::{Lockstep, Spmd, Transport};
use crate::spmd::{self, Meter, Ranks, Share};

/// Unvisited marker in the depth array.
pub const UNVISITED: u32 = u32::MAX;

/// Which direction a BFS level ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsDirection {
    /// Frontier owners push to neighbors.
    TopDown,
    /// Unvisited vertices probe the frontier (direction-optimized).
    BottomUp,
}

/// Per-level record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfsLevelRecord {
    /// BFS depth of this level.
    pub level: u32,
    /// Traversal direction chosen for this level.
    pub direction: BfsDirection,
    /// Number of frontier vertices entering the level.
    pub frontier_size: u64,
    /// Edges examined during the level.
    pub edges_examined: u64,
}

/// BFS run statistics.
#[derive(Debug, Clone, Default)]
pub struct BfsStats {
    /// Per-level records, in depth order.
    pub levels: Vec<BfsLevelRecord>,
    /// Number of vertices reached.
    pub visited: u64,
    /// Edges examined across all levels.
    pub edges_examined_total: u64,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
}

impl BfsStats {
    /// Traversal rate in GTEPS given the graph’s directed edge count.
    pub fn gteps(&self, m_edges: u64) -> f64 {
        sssp_comm::cost::teps(m_edges, self.ledger.total_s()) / 1e9
    }
}

/// BFS output: hop distance per global vertex (`u32::MAX` = unreachable).
#[derive(Debug, Clone)]
pub struct BfsOutput {
    /// BFS depth per vertex (`u32::MAX` = unreached).
    pub depth: Vec<u32>,
    /// Full instrumentation record.
    pub stats: BfsStats,
    /// True when the run stopped at its deadline: the levels it did not
    /// expand are missing from `depth`.
    pub timed_out: bool,
}

/// Beamer's switching parameters: go bottom-up when the frontier's edge
/// count exceeds `m / ALPHA`; return to top-down when the frontier shrinks
/// below `n / BETA`.
const ALPHA: u64 = 14;
const BETA: u64 = 24;

/// Run a direction-optimizing BFS from `root` on the lockstep transport.
///
/// # Examples
///
/// ```
/// use sssp_core::bfs::run_bfs;
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::star(6, 9)); // weights ignored
/// let dg = DistGraph::build(&csr, 2, 2);
/// let out = run_bfs(&dg, 0, &MachineModel::bgq_like());
/// assert_eq!(out.depth, vec![0, 1, 1, 1, 1, 1]);
/// ```
pub fn run_bfs(dg: &DistGraph, root: VertexId, model: &MachineModel) -> BfsOutput {
    bfs_on(dg, root, model, None, Lockstep)
}

/// Run a direction-optimizing BFS from `root` on `transport`, stopping at
/// the first level boundary past `deadline` with [`BfsOutput::timed_out`]
/// set. Depths and level records are identical on every transport; the
/// traffic and time ledgers are the simulator's, kept only by a process
/// that drives every rank.
pub fn bfs_on<T: Transport>(
    dg: &T::Graph,
    root: VertexId,
    model: &MachineModel,
    deadline: Option<Instant>,
    transport: T,
) -> BfsOutput {
    let graph: &DistGraph = dg.borrow();
    let n = graph.num_vertices();
    assert!(
        n == 0 || (root as usize) < n,
        "root {root} out of range (n = {n})"
    );
    let program = Bfs {
        root,
        model: *model,
        deadline,
    };
    // Each process counted the edges its own ranks examined.
    let shares = transport.drive(dg, program);
    let merge = |levels: &mut Vec<BfsLevelRecord>, mine: Vec<BfsLevelRecord>| {
        if levels.is_empty() {
            *levels = mine;
        } else {
            for (level, other) in levels.iter_mut().zip(mine) {
                level.edges_examined += other.edges_examined;
            }
        }
    };
    let (depth, levels, comm, ledger, timed_out) = spmd::gather(graph, shares, UNVISITED, merge);
    let stats = BfsStats {
        visited: depth.iter().filter(|&&d| d != UNVISITED).count() as u64,
        edges_examined_total: levels.iter().map(|l| l.edges_examined).sum(),
        levels,
        comm,
        ledger,
    };
    BfsOutput {
        depth,
        stats,
        timed_out,
    }
}

/// The level loop as an SPMD program.
struct Bfs {
    root: VertexId,
    model: MachineModel,
    deadline: Option<Instant>,
}

/// One owned rank's BFS state: its depths, the frontier it expands (and
/// refills with the next one), and the bottom-up frontier bitmap.
struct RankBfs {
    rank: usize,
    depth: Vec<u32>,
    frontier: Vec<u32>,
    bitmap: Vec<u64>,
}

/// Wire size of a visit message: the target's local index.
const VISIT_BYTES: usize = 8;

impl Spmd for Bfs {
    /// A visit's local target index; a bottom-up frontier entry's rank address.
    type Msg = u32;
    type Out = Share<u32, Vec<BfsLevelRecord>>;

    // sssp-lint: protocol-entry(bfs)
    fn on_process<C: Comm<u32>>(&self, dg: &DistGraph, ctx: &mut C) -> Self::Out {
        let n = dg.num_vertices();
        let owned = ctx.owned();
        let mut meter = Meter::new(dg, &owned, &self.model);
        let mut ranks = Ranks::new(owned.clone(), dg.num_ranks(), |rank| RankBfs {
            rank,
            depth: vec![UNVISITED; dg.part.local_count(rank)],
            frontier: Vec::new(),
            bitmap: Vec::new(),
        });
        let (mut levels, mut timed_out) = (Vec::new(), false);
        // An empty graph has no root and runs no level; the guard is uniform.
        if n == 0 {
            let local = ranks.state.into_iter().map(|rk| rk.depth).collect();
            let (first, record) = (owned.start, levels);
            return Share {
                first,
                local,
                record,
                meter,
                timed_out,
            };
        }
        let (owner, local) = dg.locate(self.root);
        if let Some(rk) = ranks.state.iter_mut().find(|rk| rk.rank == owner) {
            rk.depth[local] = 0;
            rk.frontier.push(local as u32);
        }
        let mut level = 0u32;
        loop {
            let active = ranks.state.iter().any(|rk| !rk.frontier.is_empty());
            let lanes = [Lane::Any(active), Lane::Any(spmd::past(self.deadline))];
            // sssp-lint: protocol: bfs.level-active
            let [active, expired] = meter.allreduce(ctx, lanes);
            if active == 0 {
                break;
            }
            if expired != 0 {
                timed_out = true;
                break;
            }

            // Direction decision: frontier edge volume vs thresholds.
            let degree = |rk: &RankBfs, v: u32| dg.locals[rk.rank].degree(v as usize) as u64;
            let fe = ranks
                .state
                .iter()
                .map(|rk| rk.frontier.iter().map(|&v| degree(rk, v)).sum::<u64>())
                .sum();
            let fs = ranks.state.iter().map(|rk| rk.frontier.len() as u64).sum();
            // sssp-lint: protocol: bfs.frontier-volume
            let [frontier_edges] = meter.allreduce(ctx, [Lane::Sum(fe)]);
            let [frontier_size] = meter.allreduce(ctx, [Lane::Sum(fs)]);
            let bottom_up = frontier_edges > dg.m_directed / ALPHA
                || (level > 0 && frontier_size > n as u64 / BETA);

            let examined = if bottom_up {
                self.bottom_up(dg, ctx, &mut ranks, level, &mut meter)
            } else {
                self.top_down(dg, ctx, &mut ranks, level, &mut meter)
            };
            levels.push(BfsLevelRecord {
                level,
                direction: if bottom_up {
                    BfsDirection::BottomUp
                } else {
                    BfsDirection::TopDown
                },
                frontier_size,
                edges_examined: examined,
            });
            level += 1;
        }
        let local = ranks.state.into_iter().map(|rk| rk.depth).collect();
        let (first, record) = (owned.start, levels);
        Share {
            first,
            local,
            record,
            meter,
            timed_out,
        }
    }
}

impl Bfs {
    /// One top-down level: frontier owners send a visit along every
    /// incident edge; receivers adopt unvisited targets into the next
    /// frontier. Returns the edges this process examined.
    fn top_down<C: Comm<u32>>(
        &self,
        dg: &DistGraph,
        ctx: &mut C,
        ranks: &mut Ranks<RankBfs, u32>,
        level: u32,
        meter: &mut Meter,
    ) -> u64 {
        let addr = dg.addr;
        let examined = ranks.fill_outboxes(|rk, ob| {
            let mut examined = 0u64;
            for &u in &rk.frontier {
                let (ts, _) = dg.locals[rk.rank].row(u as usize);
                examined += ts.len() as u64;
                for &v in ts {
                    ob.send(addr.owner(v), addr.local(v));
                }
            }
            examined
        });
        let examined = examined.into_iter().sum();
        // sssp-lint: protocol: bfs.top-down-visit
        let step = ranks.exchange(ctx, VISIT_BYTES);
        ranks.read_inboxes(|rk, visits| {
            rk.frontier.clear();
            for &t in visits {
                let d = &mut rk.depth[t as usize];
                if *d == UNVISITED {
                    *d = level + 1;
                    rk.frontier.push(t);
                }
            }
        });
        meter.exchanged(examined, step);
        examined
    }

    /// One bottom-up level: every rank receives the whole frontier as rank
    /// addresses and keeps it as a bitmap indexed by address — the cost
    /// model charges the `n`-bit bitmap allgather this stands for, one
    /// collective plus `(n/8 + 1)·p` bytes — then scans its unvisited
    /// vertices for a frontier neighbor. Returns the edges this process
    /// examined.
    fn bottom_up<C: Comm<u32>>(
        &self,
        dg: &DistGraph,
        ctx: &mut C,
        ranks: &mut Ranks<RankBfs, u32>,
        level: u32,
        meter: &mut Meter,
    ) -> u64 {
        let (n, addr) = (dg.num_vertices(), dg.addr);
        ranks.fill_outboxes(|rk, ob| {
            for &v in &rk.frontier {
                let a = addr.encode(rk.rank, v as usize);
                ob.out.iter_mut().for_each(|lane| lane.push(a));
            }
        });
        // sssp-lint: protocol: bfs.bottom-up-frontier
        ranks.exchange(ctx, VISIT_BYTES);
        meter.reduced(TimeClass::Relax);
        meter.relax_step(0, (n as u64 / 8 + 1) * dg.num_ranks() as u64);
        let examined = ranks.read_inboxes(|rk, frontier| {
            rk.bitmap.clear();
            rk.bitmap.resize(addr.end().div_ceil(64), 0);
            for &u in frontier {
                rk.bitmap[u as usize / 64] |= 1 << (u % 64);
            }
            rk.frontier.clear();
            let lg = &dg.locals[rk.rank];
            let mut examined = 0u64;
            for (v, dv) in rk.depth.iter_mut().enumerate() {
                if *dv != UNVISITED {
                    continue;
                }
                let (ts, _) = lg.row(v);
                for &u in ts {
                    examined += 1;
                    if rk.bitmap[u as usize / 64] >> (u % 64) & 1 != 0 {
                        *dv = level + 1;
                        rk.frontier.push(v as u32);
                        break; // early exit: one frontier parent suffices
                    }
                }
            }
            examined
        });
        let examined = examined.into_iter().sum();
        meter.relax_step(meter.per_thread(examined), 0);
        examined
    }
}

/// Sequential reference BFS (hop distances).
pub fn seq_bfs(g: &sssp_graph::Csr, root: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((root as usize) < n);
    let mut depth = vec![UNVISITED; n];
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = depth[u as usize];
        for (v, _) in g.row(u) {
            if depth[v as usize] == UNVISITED {
                depth[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn bfs_on_path() {
        let g = CsrBuilder::new().build(&gen::path(6, 9));
        let dg = DistGraph::build(&g, 3, 2);
        let out = run_bfs(&dg, 0, &model());
        assert_eq!(out.depth, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_matches_sequential_on_random_graphs() {
        for seed in 0..5 {
            let g = CsrBuilder::new().build(&gen::uniform(200, 1500, 20, seed));
            let expect = seq_bfs(&g, 0);
            for p in [1, 4, 7] {
                let dg = DistGraph::build(&g, p, 2);
                let out = run_bfs(&dg, 0, &model());
                assert_eq!(out.depth, expect, "seed {seed}, p {p}");
            }
        }
    }

    #[test]
    fn bfs_switches_to_bottom_up_on_dense_frontier() {
        use sssp_graph::rmat::{RmatGenerator, RmatParams};
        let el = RmatGenerator::new(RmatParams::RMAT1, 11, 16)
            .seed(3)
            .generate_weighted(255);
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 4, 2);
        let root = g.vertices().find(|&v| g.degree(v) > 0).unwrap();
        let out = run_bfs(&dg, root, &model());
        assert_eq!(out.depth, seq_bfs(&g, root));
        assert!(
            out.stats
                .levels
                .iter()
                .any(|l| l.direction == BfsDirection::BottomUp),
            "scale-free graph should trigger bottom-up levels"
        );
        assert!(
            out.stats
                .levels
                .iter()
                .any(|l| l.direction == BfsDirection::TopDown),
            "first level should be top-down"
        );
    }

    #[test]
    fn direction_optimization_examines_fewer_edges() {
        use sssp_graph::rmat::{RmatGenerator, RmatParams};
        let el = RmatGenerator::new(RmatParams::RMAT1, 11, 16)
            .seed(5)
            .generate_weighted(255);
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 4, 2);
        let root = g.vertices().find(|&v| g.degree(v) > 0).unwrap();
        let out = run_bfs(&dg, root, &model());
        // A pure top-down BFS examines every edge slot of the reachable
        // component; direction optimization must beat that.
        assert!(out.stats.edges_examined_total < g.num_directed_edges() as u64);
    }

    #[test]
    fn unreachable_stay_unvisited() {
        let mut el = gen::path(4, 1);
        el.n = 7;
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_bfs(&dg, 0, &model());
        assert_eq!(out.stats.visited, 4);
        for v in 4..7 {
            assert_eq!(out.depth[v], UNVISITED);
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrBuilder::new().build(&sssp_graph::EdgeList::new(0));
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_bfs(&dg, 0, &model());
        let _ = out;
    }
}
