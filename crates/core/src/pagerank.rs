//! Distributed PageRank on the simulated machine.
//!
//! A companion kernel in the same data-intensive family the Graph 500
//! effort targets (§I-B): power iteration with damping, executed as
//! bulk-synchronous supersteps over the same [`DistGraph`] and cost model
//! as the SSSP engine. Included both as a usefulness test of the substrate
//! (a kernel with completely different traffic: dense, regular, every edge
//! every iteration) and as a baseline for comparing communication profiles.
//!
//! The power iteration is one SPMD program over [`Comm`] that either
//! transport runs ([`pagerank_on`]; [`run_pagerank`] is the lockstep
//! shorthand), and its reductions are integer ones: the dangling mass is
//! the global count of degree-0 vertices times their common score, and the
//! residual maximum travels as `f64` bits, which order like the values for
//! the non-negative residuals.
//!
//! [`Comm`]: sssp_comm::transport::Comm
//! [`DistGraph`]: sssp_dist::DistGraph
//! [`pagerank_on`]: crate::pagerank::pagerank_on
//! [`run_pagerank`]: crate::pagerank::run_pagerank

use std::borrow::Borrow;
use std::time::Instant;

use sssp_comm::cost::{MachineModel, TimeClass, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_comm::transport::Comm;
use sssp_dist::DistGraph;

use crate::engine::{Lockstep, Spmd, Transport};
use crate::spmd::{self, Meter, Ranks, Share};

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (the classic 0.85).
    pub damping: f64,
    /// Stop when the max per-vertex change drops below this.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-9,
            max_iterations: 100,
        }
    }
}

/// PageRank output.
#[derive(Debug, Clone)]
pub struct PageRankOutput {
    /// Score per global vertex; sums to ~1 over all vertices.
    pub scores: Vec<f64>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the L1 residual fell below tolerance.
    pub converged: bool,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
    /// True when the run stopped at its deadline before converging or
    /// reaching the iteration cap.
    pub timed_out: bool,
}

/// Wire size of a contribution: target local index and an `f64`.
const RANK_BYTES: usize = 12;

/// Run PageRank over the undirected graph (each edge treated as two
/// directed links, the standard convention for undirected PageRank) on the
/// lockstep transport.
pub fn run_pagerank(dg: &DistGraph, cfg: &PageRankConfig, model: &MachineModel) -> PageRankOutput {
    pagerank_on(dg, cfg, model, None, Lockstep)
}

/// [`run_pagerank`] on `transport`, stopping at the first iteration
/// boundary past `deadline` with [`PageRankOutput::timed_out`] set. Scores
/// and the iteration count are identical on every transport; the ledgers
/// are kept only by a process that drives every rank.
pub fn pagerank_on<T: Transport>(
    dg: &T::Graph,
    cfg: &PageRankConfig,
    model: &MachineModel,
    deadline: Option<Instant>,
    transport: T,
) -> PageRankOutput {
    let program = PageRank {
        cfg: *cfg,
        model: *model,
        deadline,
    };
    let shares = transport.drive(dg, program);
    let (scores, (iterations, converged), comm, ledger, timed_out) =
        spmd::gather(dg.borrow(), shares, 0.0, |record, mine| *record = mine);
    PageRankOutput {
        scores,
        iterations,
        converged,
        comm,
        ledger,
        timed_out,
    }
}

/// The power iteration as an SPMD program.
struct PageRank {
    cfg: PageRankConfig,
    model: MachineModel,
    deadline: Option<Instant>,
}

/// One owned rank's scores and its incoming-contribution accumulator.
struct RankPr {
    rank: usize,
    scores: Vec<f64>,
    incoming: Vec<f64>,
}

impl Spmd for PageRank {
    /// `(target local index, contribution)`.
    type Msg = (u32, f64);
    type Out = Share<f64, (usize, bool)>;

    // sssp-lint: protocol-entry(pagerank)
    fn on_process<C: Comm<(u32, f64)>>(&self, dg: &DistGraph, ctx: &mut C) -> Self::Out {
        let (n, cfg) = (dg.num_vertices(), &self.cfg);
        let owned = ctx.owned();
        let mut meter = Meter::new(dg, &owned, &self.model);
        let mut ranks = Ranks::new(owned.clone(), dg.num_ranks(), |rank| {
            let nl = dg.part.local_count(rank);
            RankPr {
                rank,
                scores: vec![1.0 / n.max(1) as f64; nl],
                incoming: vec![0.0; nl],
            }
        });
        let is_dangling = |rk: &RankPr, v: usize| dg.locals[rk.rank].degree(v) == 0;
        let dangling_owned: u64 = ranks
            .state
            .iter()
            .map(|rk| (0..rk.scores.len()).filter(|&v| is_dangling(rk, v)).count() as u64)
            .sum();
        let base = (1.0 - cfg.damping) / n as f64;
        // A degree-0 vertex receives no contribution, so all of them hold
        // the same score at every iteration: every rank tracks that one.
        let mut dangling_score = 1.0 / n.max(1) as f64;
        // An empty graph has nothing to rank; the guard is uniform.
        let (mut iterations, mut converged, mut timed_out) = (0, n == 0, false);
        while n > 0 && iterations < cfg.max_iterations {
            // The dangling mass, redistributed uniformly, is the global
            // count of degree-0 vertices times that score: an integer
            // reduce, which carries the deadline verdict too.
            // sssp-lint: protocol: pagerank.dangling-count
            let verdict = ctx.allreduce_sum(spmd::with_expiry(dangling_owned, self.deadline));
            meter.reduced(TimeClass::Bucket);
            let (dangling, expired) = spmd::split_expiry(verdict);
            if expired {
                timed_out = true;
                break;
            }
            iterations += 1;
            let spread = dangling as f64 * dangling_score / n as f64;

            // Push contributions along every edge.
            let sent = ranks.fill_outboxes(|rk, ob| {
                let (lg, addr) = (&dg.locals[rk.rank], dg.addr);
                let mut sent = 0u64;
                for (v, &s) in rk.scores.iter().enumerate() {
                    let deg = lg.degree(v);
                    if deg == 0 {
                        continue;
                    }
                    let contrib = s / deg as f64;
                    let (ts, _) = lg.row(v);
                    for &t in ts {
                        ob.send(addr.owner(t), (addr.local(t), contrib));
                    }
                    sent += deg as u64;
                }
                sent
            });
            // sssp-lint: protocol: pagerank.exchange-scores
            let step = ranks.exchange(ctx, RANK_BYTES);

            // Accumulate and measure the residual.
            let residuals = ranks.read_inboxes(|rk, inbox| {
                rk.incoming.fill(0.0);
                for &(t, contrib) in inbox {
                    rk.incoming[t as usize] += contrib;
                }
                let mut max_delta = 0.0f64;
                for (s, &incoming) in rk.scores.iter_mut().zip(&rk.incoming) {
                    let next = base + cfg.damping * (incoming + spread);
                    max_delta = max_delta.max((next - *s).abs());
                    *s = next;
                }
                max_delta
            });
            dangling_score = base + cfg.damping * spread;
            meter.exchanged(sent.into_iter().sum(), step);

            // Residuals are non-negative, where f64 bits order like values.
            let residual = residuals.into_iter().fold(0.0f64, f64::max);
            // sssp-lint: protocol: pagerank.residual
            let residual = f64::from_bits(ctx.allreduce_max(residual.to_bits()));
            meter.reduced(TimeClass::Bucket);
            if residual < cfg.tolerance {
                converged = true;
                break;
            }
        }
        let local = ranks.state.into_iter().map(|rk| rk.scores).collect();
        let (first, record) = (owned.start, (iterations, converged));
        Share {
            first,
            local,
            record,
            meter,
            timed_out,
        }
    }
}

/// Sequential reference PageRank (same conventions).
pub fn seq_pagerank(g: &sssp_graph::Csr, cfg: &PageRankConfig) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut scores = vec![1.0 / n as f64; n];
    let base = (1.0 - cfg.damping) / n as f64;
    for _ in 0..cfg.max_iterations {
        let dangling: f64 = g
            .vertices()
            .filter(|&v| g.degree(v) == 0)
            .map(|v| scores[v as usize])
            .sum();
        let mut next = vec![base + cfg.damping * dangling / n as f64; n];
        for u in g.vertices() {
            let deg = g.degree(u);
            if deg == 0 {
                continue;
            }
            let contrib = cfg.damping * scores[u as usize] / deg as f64;
            for (v, _) in g.row(u) {
                next[v as usize] += contrib;
            }
        }
        let max_delta = scores
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        scores = next;
        if max_delta < cfg.tolerance {
            break;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn matches_sequential_reference() {
        let g = CsrBuilder::new().build(&gen::uniform(100, 600, 10, 4));
        let expect = seq_pagerank(&g, &PageRankConfig::default());
        for p in [1usize, 3, 7] {
            let dg = DistGraph::build(&g, p, 2);
            let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
            for (v, (&got, &want)) in out.scores.iter().zip(&expect).enumerate() {
                assert!((got - want).abs() < 1e-8, "p={p} v={v}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let g = CsrBuilder::new().build(&gen::uniform(80, 500, 10, 7));
        let dg = DistGraph::build(&g, 4, 2);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        let total: f64 = out.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
        assert!(out.converged);
    }

    #[test]
    fn hub_outranks_leaves() {
        let g = CsrBuilder::new().build(&gen::star(20, 1));
        let dg = DistGraph::build(&g, 3, 1);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        for leaf in 1..20 {
            assert!(out.scores[0] > out.scores[leaf]);
        }
    }

    #[test]
    fn symmetric_graph_gives_uniform_scores() {
        // On a clique every vertex is equivalent.
        let g = CsrBuilder::new().build(&gen::clique(8, 1));
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        for v in 1..8 {
            assert!((out.scores[v] - out.scores[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn dangling_vertices_keep_base_rank() {
        let mut el = gen::path(3, 1);
        el.n = 5; // two isolated (dangling) vertices
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        let total: f64 = out.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(out.scores[3] > 0.0);
        assert!((out.scores[3] - out.scores[4]).abs() < 1e-12);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = CsrBuilder::new().build(&gen::uniform(50, 300, 5, 1));
        let dg = DistGraph::build(&g, 2, 1);
        let cfg = PageRankConfig {
            tolerance: 0.0,
            max_iterations: 5,
            ..Default::default()
        };
        let out = run_pagerank(&dg, &cfg, &model());
        assert_eq!(out.iterations, 5);
        assert!(!out.converged);
    }
}
