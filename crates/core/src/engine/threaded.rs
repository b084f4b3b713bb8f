//! The real-thread transport: the epoch loop of `driver.rs` running one
//! OS thread per rank over [`sssp_comm::threaded::RankCtx`] — a mailbox for
//! the exchanges, rendezvous collectives for everything else.
//!
//! Because mailbox rows are drained in source-rank order (matching
//! the lockstep transpose) and sender-side packing leaves each lane sorted
//! by `(target, nd)`, a threaded run applies the *identical* message
//! sequence in the *identical* order as a lockstep run — final distances
//! and telemetry are bit-identical, which the differential suites pin.
//!
//! What is transport-specific lives here: spawning the rank threads and
//! moving each rank's resident [`EngineScratch`] share into its thread and
//! back. The same threads run the BFS, connected-components and PageRank
//! kernels ([`Spmd`]), which leave the scratch alone.
//!
//! [`EngineScratch`]: crate::engine::threaded::EngineScratch

use std::sync::Arc;

use sssp_comm::cost::MachineModel;
use sssp_comm::threaded::{run_threaded_with, RankCtx};
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::config::SsspConfig;
use crate::instrument::{RunStats, RunTrace};

use super::driver::ProcBufs;
use super::record::{merged_trace, NoopRecorder};
use super::{run, Query, RelaxMsg, RunOutput, Spmd, Transport};

/// Resident per-rank engine state a serving layer keeps warm between
/// queries: each rank's `ProcBufs` (rank state, outbox lanes, inboxes)
/// and its transport spares. One scratch belongs to exactly one
/// in-flight query at a time; running a query on it ([`Threaded`]) re-uses
/// every pooled structure instead of re-allocating (the state is reset,
/// not rebuilt). A scratch is graph-shape-specific only through per-rank
/// vertex counts: if the graph changes shape the affected rank states are
/// rebuilt transparently, but a serving layer should still discard
/// scratches on graph rebuild so stale pool sizes do not linger.
#[derive(Default)]
pub struct EngineScratch {
    ranks: Vec<RankScratch>,
}

/// One rank's share of an [`EngineScratch`], lent to whatever program
/// runs on the rank's thread (see [`Spmd::on_rank_thread`]).
#[derive(Default)]
pub struct RankScratch {
    pub(super) bufs: ProcBufs,
    pub(super) spares: Vec<Vec<RelaxMsg>>,
}

impl EngineScratch {
    /// Empty scratch for a `num_ranks`-rank world; every pooled structure
    /// is created lazily by the first query that runs on it.
    pub fn new(num_ranks: usize) -> Self {
        EngineScratch {
            ranks: (0..num_ranks).map(|_| RankScratch::default()).collect(),
        }
    }

    /// Capacity (in messages) of the largest buffer held anywhere in the
    /// scratch — outbox lanes, inboxes and transport spares across all
    /// ranks. Diagnostic for the pool-bound regression tests: after a
    /// query finishes, this is bounded by that query's own high-water mark
    /// (floored at the warm-pool minimum), not by the largest query ever
    /// run on the scratch.
    pub fn max_buffer_capacity(&self) -> usize {
        let spares = self.ranks.iter().flat_map(|r| &r.spares).map(Vec::capacity);
        let bufs = self.ranks.iter().map(|r| r.bufs.max_buffer_capacity());
        spares.chain(bufs).max().unwrap_or(0)
    }
}

/// The name the threaded entry points have always returned their
/// [`RunOutput`] under.
pub type ThreadedSsspOutput = RunOutput;

/// The real-thread transport: one OS thread per rank, re-using the
/// resident state in the given scratch. The first query on a fresh scratch
/// allocates everything; every later query resets the state in place and
/// inherits the warmed pools, trimmed at query end to the finishing
/// query's own high-water mark.
pub struct Threaded<'a>(pub &'a mut EngineScratch);

impl Transport for Threaded<'_> {
    type Graph = Arc<DistGraph>;

    fn drive<P: Spmd>(self, dg: &Arc<DistGraph>, program: P) -> Vec<P::Out> {
        let scratch = self.0;
        let p = dg.num_ranks();
        if scratch.ranks.len() != p {
            // A scratch sized for a different world is stale wholesale.
            *scratch = EngineScratch::new(p);
        }
        let payloads = std::mem::take(&mut scratch.ranks);
        // Rank threads outlive no borrow: every thread gets its own handle
        // on the graph and shares the program.
        let dg = Arc::clone(dg);
        let per_rank = run_threaded_with(
            p,
            payloads,
            move |mut ctx: RankCtx<P::Msg>, mut rs: RankScratch| {
                let out = program.on_rank_thread(&dg, &mut ctx, &mut rs);
                (out, rs)
            },
        );
        let (results, ranks) = per_rank.into_iter().unzip();
        scratch.ranks = ranks;
        results
    }
}

/// Run the configured SSSP algorithm from `root` with one OS thread per
/// rank, on fresh scratch. Distances are bit-identical to
/// [`run_sssp`](super::run_sssp) under every configuration; only
/// wall-clock behavior (and the absence of the simulated cost model)
/// differs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sssp_core::{threaded_delta_stepping, SsspConfig};
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::path(5, 3));
/// let dg = Arc::new(DistGraph::build(&csr, 2, 2));
/// let out = threaded_delta_stepping(&dg, 0, &SsspConfig::opt(25), &MachineModel::bgq_like());
/// assert_eq!(out.distances, vec![0, 3, 6, 9, 12]);
/// ```
pub fn threaded_delta_stepping(
    dg: &Arc<DistGraph>,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> ThreadedSsspOutput {
    let mut scratch = EngineScratch::new(dg.num_ranks());
    threaded_sssp_query(dg, &[(root, 0)], None, cfg, model, &mut scratch)
}

/// Serving entry point: run one query over a **resident** graph on the
/// threaded transport, reusing the per-rank engine state and buffer pools
/// held in `scratch`. `target` selects point-to-point mode (see
/// [`Query::target`]); with `target = None` the result is bit-identical to
/// a run on fresh scratch — the serving differential proptests pin exactly
/// that.
pub fn threaded_sssp_query(
    dg: &Arc<DistGraph>,
    seeds: &[(VertexId, u64)],
    target: Option<VertexId>,
    cfg: &SsspConfig,
    model: &MachineModel,
    scratch: &mut EngineScratch,
) -> ThreadedSsspOutput {
    let query = Query::seeded(seeds).with_target(target);
    run(dg, &query, cfg, model, Threaded(scratch), NoopRecorder).0
}

/// [`threaded_delta_stepping`] with run telemetry: each rank records its
/// private [`RunStats`], and the per-rank traces are merged
/// deterministically after the join ([`merged_trace`]). Distances are
/// still bit-identical to the untraced entry point; the recorder only
/// observes values the run already computes.
pub fn threaded_delta_stepping_traced(
    dg: &Arc<DistGraph>,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> (ThreadedSsspOutput, RunTrace) {
    let mut scratch = EngineScratch::new(dg.num_ranks());
    let transport = Threaded(&mut scratch);
    let stats = RunStats::for_run(dg, None);
    let (out, recorded) = run(dg, &Query::root(root), cfg, model, transport, stats);
    (out, merged_trace(&recorded, "threaded"))
}

#[cfg(test)]
mod tests {
    #[cfg(debug_assertions)]
    use super::super::driver::{epoch_loop, Job};
    use super::*;
    use crate::seq;
    use crate::state::INF;
    #[cfg(debug_assertions)]
    use sssp_comm::threaded::run_threaded;
    use sssp_comm::threaded::SPARE_CAPACITY_FLOOR;
    use sssp_graph::{gen, CsrBuilder};

    /// One rank's share of a root-0 run on a caller-held context, so the
    /// lock-order tests can inspect the context afterwards.
    #[cfg(debug_assertions)]
    fn rank_run(
        dg: &DistGraph,
        cfg: &SsspConfig,
        model: &MachineModel,
        ctx: &mut RankCtx<RelaxMsg>,
    ) {
        let job = Job {
            dg,
            seeds: &[(0, 0)],
            target: None,
            deadline: None,
            cfg,
            model,
        };
        epoch_loop(&job, ctx, &mut NoopRecorder, &mut ProcBufs::default());
    }

    #[test]
    fn threaded_matches_sequential_dijkstra() {
        for seed in 0..3 {
            let g = CsrBuilder::new().build(&gen::uniform(120, 700, 30, seed));
            let expect = seq::dijkstra(&g, 0);
            let model = MachineModel::bgq_like();
            for p in [1usize, 3, 5] {
                let dg = Arc::new(DistGraph::build(&g, p, 2));
                for cfg in [
                    SsspConfig::dijkstra(),
                    SsspConfig::del(15),
                    SsspConfig::prune(20),
                    SsspConfig::opt(20),
                    SsspConfig::bellman_ford(),
                ] {
                    let out = threaded_delta_stepping(&dg, 0, &cfg, &model);
                    assert_eq!(out.distances, expect, "seed {seed} p {p}");
                }
            }
        }
    }

    #[test]
    fn threaded_matches_simulated_bit_identical() {
        let g = CsrBuilder::new().build(&gen::uniform(200, 1200, 40, 9));
        let model = MachineModel::bgq_like();
        for p in [1usize, 4, 6] {
            let dg = Arc::new(DistGraph::build(&g, p, 2));
            for cfg in [SsspConfig::opt(25), SsspConfig::prune(12).with_ios(false)] {
                let simulated = super::super::run_sssp(&dg, 0, &cfg, &model);
                let threaded = threaded_delta_stepping(&dg, 0, &cfg, &model);
                assert_eq!(threaded.distances, simulated.distances, "p {p}");
            }
        }
    }

    #[test]
    fn auto_split_proxies_keep_the_schedule_uniform_across_backends() {
        // Hub-heavy graph through the §III-E auto-split trigger: the proxy
        // region must not perturb the collective schedule. In debug builds
        // every run crosses the driver's fingerprint assertion, so a
        // divergent schedule on any rank count aborts here; both backends
        // must also stay bit-identical and correct against Dijkstra.
        let mut el = gen::star(300, 5);
        for e in gen::uniform(300, 900, 30, 11).edges {
            el.push(e.u, e.v, e.w);
        }
        let g = CsrBuilder::new().build(&el);
        let expect = seq::dijkstra(&g, 0);
        let model = MachineModel::bgq_like();
        for p in [2usize, 4, 6] {
            let (dg, report) = DistGraph::build_auto_split(&g, p, 2);
            let report = report.expect("hub graph should trigger splitting");
            assert!(report.proxies_created > 0, "p {p}");
            let dg = Arc::new(dg);
            for cfg in [SsspConfig::opt(20), SsspConfig::lb_opt(20)] {
                let simulated = super::super::run_sssp(&dg, 0, &cfg, &model);
                let threaded = threaded_delta_stepping(&dg, 0, &cfg, &model);
                assert_eq!(threaded.distances, simulated.distances, "p {p}");
                assert_eq!(&threaded.distances[..300], &expect[..], "p {p}");
            }
        }
    }

    #[test]
    fn coalescing_toggle_preserves_distances_and_counts_savings() {
        // Dense-ish graph: plenty of parallel proposals per target, so the
        // coalescer must fire. Turning it off must not change distances,
        // only the wire counts.
        let g = CsrBuilder::new().build(&gen::uniform(80, 900, 25, 7));
        let dg = Arc::new(DistGraph::build(&g, 4, 2));
        let model = MachineModel::bgq_like();
        let on = threaded_delta_stepping(&dg, 0, &SsspConfig::opt(20), &model);
        let off =
            threaded_delta_stepping(&dg, 0, &SsspConfig::opt(20).with_coalescing(false), &model);
        assert_eq!(on.distances, off.distances);
        assert_eq!(off.coalesced_msgs, 0);
        assert!(on.coalesced_msgs > 0, "coalescer never fired");
        // Conservation: every message the coalesced run dropped is one the
        // uncoalesced run carried, whether it stayed rank-local or went
        // over the wire.
        assert_eq!(
            on.relax_msgs_total() + on.coalesced_msgs,
            off.relax_msgs_total()
        );
    }

    #[test]
    fn local_and_remote_split_is_exact() {
        // Single rank: every message is self-addressed, none hit the wire.
        let g = CsrBuilder::new().build(&gen::uniform(60, 400, 20, 3));
        let dg1 = Arc::new(DistGraph::build(&g, 1, 2));
        let model = MachineModel::bgq_like();
        let solo = threaded_delta_stepping(&dg1, 0, &SsspConfig::opt(15), &model);
        assert_eq!(solo.relax_remote_msgs, 0);
        assert!(solo.relax_local_msgs > 0, "no traffic recorded at all");

        // Multiple ranks: the same run splits, but the total is conserved.
        let dg4 = Arc::new(DistGraph::build(&g, 4, 2));
        let multi = threaded_delta_stepping(&dg4, 0, &SsspConfig::opt(15), &model);
        assert!(multi.relax_remote_msgs > 0, "no wire traffic across ranks");
    }

    #[test]
    fn traced_run_populates_wall_clock_timings() {
        let g = CsrBuilder::new().build(&gen::uniform(150, 900, 30, 5));
        let model = MachineModel::bgq_like();
        let dg = Arc::new(DistGraph::build(&g, 3, 2));
        let (_, trace) = threaded_delta_stepping_traced(&dg, 0, &SsspConfig::opt(20), &model);
        assert!(
            !trace.timings.is_zero(),
            "threaded trace recorded no wall-clock phase time"
        );
        // Wall-clock timings differ run to run; the differential
        // comparison must not see them.
        let sim = super::super::run_sssp(&dg, 0, &SsspConfig::opt(20), &model);
        let sim_trace = RunTrace::from_run_stats(&sim.stats, "simulated");
        assert!(
            sim_trace.diff(&trace).is_empty(),
            "timings leaked into diff"
        );
    }

    #[test]
    fn hybrid_tail_records_its_windowed_epochs() {
        let g = CsrBuilder::new().build(&gen::uniform(150, 900, 30, 11));
        let model = MachineModel::bgq_like();
        let dg = Arc::new(DistGraph::build(&g, 2, 2));
        let (_, trace) = threaded_delta_stepping_traced(&dg, 0, &SsspConfig::opt(10), &model);
        assert!(trace.hybrid_switch_at.is_some(), "tail never engaged");
        let tail = trace.tail.expect("tail record");
        assert!(tail.supersteps > 0 && tail.settled > 0, "{tail:?}");
        // The tail's epochs are ordinary phases, timed as such.
        assert!(trace.phases.iter().any(|r| r.bucket == u64::MAX));
        assert!(trace.timings.short_ns > 0 && trace.timings.bf_ns == 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn runtime_lock_order_embeds_into_the_static_graph() {
        // The runtime lock-order twin must observe only locks and nestings
        // that exist in the static model (crates/lint/golden/lock_order.txt,
        // mirrored by sssp_comm::lockorder). Full engine runs across three
        // rank counts, with proxies (auto-split hub graph) and without; the
        // twin's own drop-time check also runs implicitly at every join.
        let mut el = gen::star(300, 5);
        for e in gen::uniform(300, 900, 30, 11).edges {
            el.push(e.u, e.v, e.w);
        }
        let hub = CsrBuilder::new().build(&el);
        let plain = CsrBuilder::new().build(&gen::uniform(150, 900, 30, 5));
        let model = MachineModel::bgq_like();
        for p in [2usize, 4, 6] {
            let (split, report) = DistGraph::build_auto_split(&hub, p, 2);
            let report = report.expect("hub graph should trigger splitting");
            assert!(report.proxies_created > 0, "p {p}");
            for dg in [Arc::new(split), Arc::new(DistGraph::build(&plain, p, 2))] {
                let cfg = SsspConfig::opt(20);
                let obs = run_threaded(p, {
                    let dg = Arc::clone(&dg);
                    let cfg = cfg.clone();
                    move |mut ctx: RankCtx<RelaxMsg>| {
                        rank_run(&dg, &cfg, &model, &mut ctx);
                        (ctx.observed_locks(), ctx.observed_lock_pairs())
                    }
                });
                for (locks, pairs) in obs {
                    assert!(locks.contains(&"mailbox"), "p {p}: no exchange lock");
                    for lock in &locks {
                        assert!(
                            sssp_comm::lockorder::STATIC_LOCKS.contains(lock),
                            "p {p}: lock `{lock}` outside the static model"
                        );
                    }
                    for pair in &pairs {
                        assert!(
                            sssp_comm::lockorder::STATIC_EDGES.contains(pair),
                            "p {p}: order {pair:?} outside the static graph"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock acquisition order")]
    fn seeded_inversion_in_an_engine_run_trips_the_twin() {
        let g = CsrBuilder::new().build(&gen::uniform(80, 400, 20, 3));
        let dg = Arc::new(DistGraph::build(&g, 2, 2));
        let model = MachineModel::bgq_like();
        run_threaded(2, move |mut ctx: RankCtx<RelaxMsg>| {
            rank_run(&dg, &SsspConfig::opt(15), &model, &mut ctx);
            if ctx.rank() == 1 {
                ctx.perturb_lock_order("mailbox", "mailbox");
            }
        });
    }

    #[test]
    fn threaded_handles_degenerate_graphs() {
        // Single vertex, no edges.
        let g = CsrBuilder::new().build(&gen::path(1, 1));
        let dg = Arc::new(DistGraph::build(&g, 2, 1));
        let out = threaded_delta_stepping(&dg, 0, &SsspConfig::opt(10), &MachineModel::bgq_like());
        assert_eq!(out.distances, vec![0]);
        assert_eq!(out.relax_msgs_total(), 0);

        // Disconnected pair: the far component stays unreached.
        let mut el = gen::path(2, 5);
        el.n = 4;
        el.push(2, 3, 1);
        let g = CsrBuilder::new().build(&el);
        let dg = Arc::new(DistGraph::build(&g, 3, 1));
        let out = threaded_delta_stepping(&dg, 0, &SsspConfig::del(4), &MachineModel::bgq_like());
        assert_eq!(out.distances, vec![0, 5, INF, INF]);
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_runs() {
        // The satellite-2 regression: query 1 is deliberately spill-heavy —
        // Δ = 1 over a long weighted path drives bucket indices far past
        // FLAT_LANES, so the ring's `base` slides high and the spill lanes
        // fill. A stale `base` or a leftover spill entry would silently
        // swallow the next query's bucket-0 seeds; every follow-up query on
        // the same scratch must match a radix-heap Dijkstra and a fresh
        // one-shot run bit for bit.
        let mut el = gen::path(600, 7);
        for e in gen::uniform(600, 1800, 30, 13).edges {
            el.push(e.u, e.v, e.w);
        }
        let g = CsrBuilder::new().build(&el);
        let model = MachineModel::bgq_like();
        for p in [1usize, 3] {
            let dg = Arc::new(DistGraph::build(&g, p, 2));
            let mut scratch = EngineScratch::new(p);
            let cfg_spill = SsspConfig::del(1);
            let first = threaded_sssp_query(&dg, &[(0, 0)], None, &cfg_spill, &model, &mut scratch);
            assert_eq!(first.distances, seq::dijkstra_radix(&g, 0), "p {p} first");
            for (root, cfg) in [
                (599u32, SsspConfig::opt(20)),
                (7, SsspConfig::del(1)),
                (0, SsspConfig::rho(64)),
                (42, SsspConfig::radius(64)),
            ] {
                let reused =
                    threaded_sssp_query(&dg, &[(root, 0)], None, &cfg, &model, &mut scratch);
                assert_eq!(
                    reused.distances,
                    seq::dijkstra_radix(&g, root),
                    "p {p} root {root}: reused scratch diverged from dijkstra"
                );
                let fresh = threaded_delta_stepping(&dg, root, &cfg, &model);
                assert_eq!(
                    reused.distances, fresh.distances,
                    "p {p} root {root}: reused scratch diverged from a fresh run"
                );
            }
            // Multi-seed on the warm scratch, against a fresh run.
            let seeds = [(3u32, 10u64), (500, 0), (3, 2)];
            let reused = threaded_sssp_query(
                &dg,
                &seeds,
                None,
                &SsspConfig::opt(15),
                &model,
                &mut scratch,
            );
            let fresh = threaded_sssp_query(
                &dg,
                &seeds,
                None,
                &SsspConfig::opt(15),
                &model,
                &mut EngineScratch::new(p),
            );
            assert_eq!(reused.distances, fresh.distances, "p {p} multi-seed");
        }
    }

    #[test]
    fn point_to_point_cutoff_settles_the_target_early() {
        // Long weighted path plus noise: the far endpoint settles only at
        // the very end of a full run, while a nearby target settles almost
        // immediately — the cutoff must stop the epoch loop early for the
        // near target, return its exact distance, and stay bit-identical
        // on the target entry under all three stepping policies.
        let mut el = gen::path(400, 9);
        for e in gen::uniform(400, 1200, 30, 5).edges {
            el.push(e.u, e.v, e.w);
        }
        let g = CsrBuilder::new().build(&el);
        let expect = seq::dijkstra_radix(&g, 0);
        let model = MachineModel::bgq_like();
        // Non-hybrid configs: the τ-triggered Bellman-Ford tail would merge
        // the remaining buckets after a couple of epochs and leave the
        // cutoff nothing to save on a graph this small.
        for cfg in [
            SsspConfig::del(10),
            SsspConfig::rho(8),
            SsspConfig::radius(8),
        ] {
            let dg = Arc::new(DistGraph::build(&g, 3, 2));
            let mut scratch = EngineScratch::new(3);
            let full = threaded_sssp_query(&dg, &[(0, 0)], None, &cfg, &model, &mut scratch);
            assert_eq!(full.distances, expect);
            // A target two hops from the root settles in the earliest epochs.
            let near = threaded_sssp_query(&dg, &[(0, 0)], Some(2), &cfg, &model, &mut scratch);
            assert_eq!(near.distances[2], expect[2], "near target distance");
            // ρ-stepping's window fixpoint can finish a small graph in two
            // epochs regardless, leaving the cutoff nothing to skip; the
            // other policies must show a strict epoch saving.
            if matches!(cfg.policy, crate::config::SteppingPolicyKind::Rho(_)) {
                assert!(near.epochs <= full.epochs);
            } else {
                assert!(
                    near.epochs < full.epochs,
                    "cutoff saved no epochs ({} vs {})",
                    near.epochs,
                    full.epochs
                );
            }
            // The far endpoint cannot terminate before the full run would
            // anyway; its distance must still be exact.
            let far = threaded_sssp_query(&dg, &[(0, 0)], Some(399), &cfg, &model, &mut scratch);
            assert_eq!(far.distances[399], expect[399], "far target distance");
        }
    }

    #[test]
    fn query_pool_bound_holds_across_mixed_size_queries() {
        // The satellite-1 regression: a message-heavy query balloons the
        // resident pools; the next (tiny) query must hand the scratch back
        // bounded by its *own* high-water mark, not the predecessor's.
        // Before per-query accounting, spares trimmed against the last
        // quiet epoch's mark survived indefinitely.
        let big = CsrBuilder::new().build(&gen::uniform(4000, 60_000, 30, 21));
        let model = MachineModel::bgq_like();
        let p = 3usize;
        let dg = Arc::new(DistGraph::build(&big, p, 2));
        let mut scratch = EngineScratch::new(p);
        threaded_sssp_query(
            &dg,
            &[(0, 0)],
            None,
            &SsspConfig::opt(20),
            &model,
            &mut scratch,
        );
        let after_big = scratch.max_buffer_capacity();

        // A point-to-point query for a root's neighbor touches a handful
        // of vertices before the cutoff fires — its high-water mark is
        // tiny, so the scratch it returns must be near the warm-pool floor.
        threaded_sssp_query(
            &dg,
            &[(0, 0)],
            Some(0),
            &SsspConfig::opt(20),
            &model,
            &mut scratch,
        );
        let after_small = scratch.max_buffer_capacity();
        assert!(
            after_small <= SPARE_CAPACITY_FLOOR.max(after_big / 8),
            "small query left oversized pools: {after_small} (big query: {after_big})"
        );
        // The shrink must not break correctness of the next real query.
        let out = threaded_sssp_query(
            &dg,
            &[(9, 0)],
            None,
            &SsspConfig::opt(20),
            &model,
            &mut scratch,
        );
        assert_eq!(out.distances, seq::dijkstra_radix(&big, 9));
    }
}
