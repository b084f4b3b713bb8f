//! The distributed SSSP engine (§II–III of the paper).
//!
//! One [`run`] call executes the configured algorithm over a [`DistGraph`]
//! in bulk-synchronous supersteps:
//!
//! ```text
//! per epoch (bucket k):
//!   short-edge phases      — relax (inner) short edges of active vertices,
//!                            repeat until no tentative distance changes;
//!   long-edge phase        — push (owners of B_k relax long + outer-short
//!                            edges) or pull (later-bucket owners request
//!                            w < d(v) − kΔ; B_k owners respond), chosen per
//!                            bucket by the §III-C decision heuristic;
//! hybrid switch            — once the settled fraction exceeds τ, the
//!                            j-th later epoch takes a window of 2^(j+1)
//!                            buckets (§III-D; the paper: Bellman-Ford).
//! ```
//!
//! That loop exists once (`driver.rs`), generic over two things:
//!
//! * the **transport** ([`Transport`] → [`sssp_comm::transport::Comm`]),
//!   which runs any SPMD program ([`Spmd`]) — this loop, and the BFS,
//!   connected-components and PageRank kernels alike:
//!   [`Lockstep`] drives all `p` ranks from the calling thread and
//!   transposes their lanes in memory — the simulator, which models more
//!   ranks than the machine has cores; [`Threaded`] runs one OS thread per
//!   rank over a mailbox exchange and rendezvous collectives. Distances, schedules
//!   and telemetry are bit-identical between the two.
//! * the **recorder** ([`record::Recorder`]): [`record::NoopRecorder`]
//!   compiles to nothing; a [`RunStats`] keeps the run telemetry and — given
//!   a machine model — the α–β–γ simulated-time ledger.
//!
//! [`DistGraph`]: sssp_dist::DistGraph
//! [`record::NoopRecorder`]: crate::engine::record::NoopRecorder
//! [`record::Recorder`]: crate::engine::record::Recorder

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_comm::threaded::RankCtx;
use sssp_comm::transport::{Comm, LockstepComm};
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::config::{IntraBalance, SsspConfig};
use crate::instrument::RunStats;
use crate::state::INF;

use driver::{epoch_loop, Job, ProcBufs, ProcessOut};
use record::Recorder;
use threaded::RankScratch;

/// The 16-byte wire record every lane carries. As a relaxation proposal it
/// reads `d(target) ← min(d(target), nd)`; a pull request travels in the
/// same record (see [`ReqMsg`]), so the transport moves one message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RelaxMsg {
    /// Local index on the destination rank.
    pub(super) target: u32,
    pub(super) nd: u64,
}

/// A pull request: "if `u` is in the current bucket, send me `d(u) + w`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ReqMsg {
    /// Local index of the requested source vertex on the destination rank.
    pub(super) u_local: u32,
    /// Global id of the requesting vertex.
    pub(super) origin: VertexId,
    /// Weight of the edge the request travels along.
    pub(super) w: u32,
}

impl ReqMsg {
    /// Pack the request into the wire record: `target` carries `u_local`,
    /// `nd` carries `origin` in its high and `w` in its low 32 bits.
    #[inline]
    pub(super) fn to_wire(self) -> RelaxMsg {
        RelaxMsg {
            target: self.u_local,
            nd: (u64::from(self.origin) << 32) | u64::from(self.w),
        }
    }

    /// Inverse of [`ReqMsg::to_wire`].
    #[inline]
    pub(super) fn from_wire(m: RelaxMsg) -> ReqMsg {
        let [o0, o1, o2, o3, w0, w1, w2, w3] = m.nd.to_be_bytes();
        ReqMsg {
            u_local: m.target,
            origin: u32::from_be_bytes([o0, o1, o2, o3]),
            w: u32::from_be_bytes([w0, w1, w2, w3]),
        }
    }
}

/// On-wire size of the record (a packed target + 48-bit distance fits 16
/// bytes; requests likewise) — what the cost model charges per message.
pub(super) const WIRE_BYTES: usize = 16;

/// What to compute: the `(vertex, distance)` seeds the run starts from,
/// an optional point-to-point target and an optional wall-clock deadline.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Start seeds. A vertex listed twice keeps its smallest distance; an
    /// empty list is legal and yields all-[`INF`] distances.
    pub seeds: Vec<(VertexId, u64)>,
    /// Point-to-point mode: stop epoch selection as soon as the target's
    /// tentative distance can no longer improve — at or below the
    /// `start_dist` of the window about to run, every unsettled vertex is
    /// provably at least that far, so the target is final under all three
    /// stepping policies. `distances[target]` is exact; other entries may
    /// remain tentative.
    pub target: Option<VertexId>,
    /// Stop at the first epoch boundary past this instant, with
    /// [`RunOutput::timed_out`] set. The verdict is a collective, so every
    /// rank stops at the same epoch. A timed-out distance field is
    /// partially tentative: entries settled before the cutoff are final,
    /// the rest are upper bounds.
    pub deadline: Option<Instant>,
}

impl Query {
    /// Single-source query from `root`.
    pub fn root(root: VertexId) -> Query {
        Query::seeded(&[(root, 0)])
    }

    /// Multi-source query: every vertex's distance to its *nearest* source
    /// (all sources start at distance 0). Equivalent to adding a virtual
    /// root with zero-weight edges to each source, without the transform.
    pub fn sources(sources: &[VertexId]) -> Query {
        Query {
            seeds: sources.iter().map(|&s| (s, 0)).collect(),
            ..Query::default()
        }
    }

    /// Fully general query from arbitrary `(vertex, distance)` seeds.
    pub fn seeded(seeds: &[(VertexId, u64)]) -> Query {
        Query {
            seeds: seeds.to_vec(),
            ..Query::default()
        }
    }

    /// Select (or clear) point-to-point mode.
    pub fn with_target(mut self, target: Option<VertexId>) -> Query {
        self.target = target;
        self
    }

    /// Set (or clear) the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Query {
        self.deadline = deadline;
        self
    }
}

/// What every run yields, whatever its transport and recorder: final
/// distances plus the transport counters the wall-clock benchmarks record.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Final distances indexed by global vertex id (`u64::MAX` = unreached).
    pub distances: Vec<u64>,
    /// Relaxation messages that entered an exchange addressed to the
    /// sender's own rank (post-coalescing, all ranks summed). These never
    /// touch the wire. Pull requests are not included.
    pub relax_local_msgs: u64,
    /// Relaxation messages that entered an exchange addressed to another
    /// rank (post-coalescing, all ranks summed) — the wire traffic. Pull
    /// requests are not included.
    pub relax_remote_msgs: u64,
    /// Relaxation messages removed by sender-side coalescing before the
    /// exchanges (all ranks summed).
    pub coalesced_msgs: u64,
    /// Epoch-select rounds the run performed (one `epoch.select`
    /// collective each, identical on every rank). A point-to-point query
    /// that terminates early performs strictly fewer rounds than the same
    /// query run to completion — the `serve_bench` superstep-savings gate
    /// compares exactly this counter.
    pub epochs: u64,
    /// True when the run stopped at its deadline instead of settling every
    /// bucket — the distance field is partially tentative and must not be
    /// served or cached as final.
    pub timed_out: bool,
}

impl RunOutput {
    /// All relaxation messages that entered an exchange, local and remote.
    pub fn relax_msgs_total(&self) -> u64 {
        self.relax_local_msgs + self.relax_remote_msgs
    }
}

/// Result of [`run_sssp`]: final distances plus the full instrumentation
/// record, simulated-time ledger included.
#[derive(Debug, Clone)]
pub struct SsspOutput {
    /// Final distances indexed by global vertex id (`u64::MAX` = unreached).
    pub distances: Vec<u64>,
    /// Full instrumentation record.
    pub stats: RunStats,
    /// True when the run stopped at its deadline (see
    /// [`RunOutput::timed_out`]).
    pub timed_out: bool,
}

impl SsspOutput {
    /// Pair a lockstep run's output with the stats its one process recorded.
    fn new(out: RunOutput, recorded: Vec<RunStats>) -> SsspOutput {
        let mut stats = recorded.into_iter().next().unwrap_or_default();
        stats.reachable = out.distances.iter().filter(|&&d| d != INF).count() as u64;
        SsspOutput {
            distances: out.distances,
            stats,
            timed_out: out.timed_out,
        }
    }

    #[inline]
    /// Final distance of `v` ([`INF`] when unreached).
    pub fn dist(&self, v: VertexId) -> u64 {
        self.distances[v as usize]
    }

    /// Number of vertices with a finite distance.
    pub fn reachable(&self) -> u64 {
        self.stats.reachable
    }
}

/// An SPMD program: the body every process of a run executes over its
/// transport's [`Comm`] — the SSSP epoch loop here, and the BFS,
/// connected-components and PageRank kernels. A program is written once;
/// the [`Transport`] decides how many processes run it and which ranks
/// each owns.
pub trait Spmd: Send + Sync + 'static {
    /// The message type the program's exchanges move.
    type Msg: Send + 'static;
    /// One process's share of the result.
    type Out: Send + 'static;

    /// Run the program as one process of the world, over `ctx`.
    fn on_process<C: Comm<Self::Msg>>(&self, dg: &DistGraph, ctx: &mut C) -> Self::Out;

    /// Run the program on a rank thread that lends it its resident
    /// scratch. Only the SSSP loop keeps state warm there; by default the
    /// scratch is left alone.
    fn on_rank_thread(
        &self,
        dg: &DistGraph,
        ctx: &mut RankCtx<Self::Msg>,
        _scratch: &mut RankScratch,
    ) -> Self::Out {
        self.on_process(dg, ctx)
    }
}

/// How a run's processes come to exist and reach each other. A program
/// never knows: it is handed a [`Comm`] that owns some of the ranks.
pub trait Transport {
    /// How the transport holds the graph: [`Lockstep`] borrows it,
    /// [`Threaded`] shares it with its rank threads.
    type Graph: Borrow<DistGraph>;

    /// Run `program` on every process of the world and return the
    /// per-process results in rank order.
    fn drive<P: Spmd>(self, dg: &Self::Graph, program: P) -> Vec<P::Out>;
}

/// The lockstep transport: the calling thread drives all `p` ranks (rank
/// kernels fan out over rayon) and exchanges are in-memory transposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lockstep;

impl Transport for Lockstep {
    type Graph = DistGraph;

    fn drive<P: Spmd>(self, dg: &DistGraph, program: P) -> Vec<P::Out> {
        vec![program.on_process(dg, &mut LockstepComm::new(dg.num_ranks()))]
    }
}

/// One SSSP query as an SPMD program: the canonical seeds, the uniform
/// run parameters and the recorder every process clones.
struct SsspJob<R> {
    seeds: Vec<(VertexId, u64)>,
    target: Option<VertexId>,
    deadline: Option<Instant>,
    cfg: SsspConfig,
    model: MachineModel,
    recorder: R,
}

impl<R> SsspJob<R> {
    /// The view of the run the epoch loop reads.
    fn job<'a>(&'a self, dg: &'a DistGraph) -> Job<'a> {
        Job {
            dg,
            seeds: &self.seeds,
            target: self.target,
            deadline: self.deadline,
            cfg: &self.cfg,
            model: &self.model,
        }
    }
}

impl<R: Recorder> Spmd for SsspJob<R> {
    type Msg = RelaxMsg;
    type Out = (ProcessOut, R);

    fn on_process<C: Comm<RelaxMsg>>(&self, dg: &DistGraph, ctx: &mut C) -> Self::Out {
        let mut rec = self.recorder.clone();
        let out = epoch_loop(&self.job(dg), ctx, &mut rec, &mut ProcBufs::default());
        (out, rec)
    }

    /// Run on the rank's resident engine state, with its transport spares
    /// adopted into the context for the query and handed back after.
    fn on_rank_thread(
        &self,
        dg: &DistGraph,
        ctx: &mut RankCtx<RelaxMsg>,
        scratch: &mut RankScratch,
    ) -> Self::Out {
        let mut rec = self.recorder.clone();
        ctx.adopt_spares(std::mem::take(&mut scratch.spares));
        let out = epoch_loop(&self.job(dg), ctx, &mut rec, &mut scratch.bufs);
        scratch.spares = ctx.release_spares();
        (out, rec)
    }
}

/// Run `query` under `cfg` over the distributed graph, on the chosen
/// transport, feeding telemetry to one clone of `recorder` per process.
/// Returns the distances and transport counters plus those recorders in
/// rank order ([`record::merged_trace`] folds them into the run's trace).
///
/// Out-of-range seeds or targets panic, and so does a seed distance past
/// [`max_seed_offset`] on a vertex that has edges; validate untrusted input
/// first.
///
/// # Examples
///
/// ```
/// use sssp_core::engine::record::NoopRecorder;
/// use sssp_core::{run, Lockstep, Query, SsspConfig};
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::path(5, 3));
/// let dg = DistGraph::build(&csr, 2, 2);
/// let query = Query::sources(&[0, 4]);
/// let model = MachineModel::bgq_like();
/// let (out, _) = run(&dg, &query, &SsspConfig::opt(25), &model, Lockstep, NoopRecorder);
/// assert_eq!(out.distances, vec![0, 3, 6, 3, 0]);
/// ```
pub fn run<T: Transport, R: Recorder>(
    dg: &T::Graph,
    query: &Query,
    cfg: &SsspConfig,
    model: &MachineModel,
    transport: T,
    recorder: R,
) -> (RunOutput, Vec<R>) {
    let graph: &DistGraph = dg.borrow();
    let n = graph.num_vertices();
    let seeds = canonical_seeds(&query.seeds, n);
    // Only an isolated seed may start past the bound: nothing is ever added
    // to its distance.
    let bound = max_seed_offset(n);
    for &(v, d) in &seeds {
        assert!(
            d <= bound || graph.degree(v) == 0,
            "seed distance {d} of vertex {v} leaves no headroom below u64::MAX (n = {n})"
        );
    }
    if let Some(tv) = query.target {
        assert!((tv as usize) < n, "target {tv} out of range (n = {n})");
    }
    let program = SsspJob {
        seeds,
        target: query.target,
        deadline: query.deadline,
        cfg: cfg.clone(),
        model: *model,
        recorder,
    };
    let mut out = RunOutput {
        distances: vec![INF; n],
        ..RunOutput::default()
    };
    let mut recorders = Vec::new();
    for (process, rec) in transport.drive(dg, program) {
        process.fold_into(&mut out, graph);
        recorders.push(rec);
    }
    (out, recorders)
}

/// Single-source SSSP from `root` on the lockstep transport, with full
/// telemetry and the simulated-time ledger.
///
/// # Examples
///
/// ```
/// use sssp_core::{run_sssp, SsspConfig};
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::path(5, 3));
/// let dg = DistGraph::build(&csr, 2, 2);
/// let out = run_sssp(&dg, 0, &SsspConfig::opt(25), &MachineModel::bgq_like());
/// assert_eq!(out.distances, vec![0, 3, 6, 9, 12]);
/// assert_eq!(out.reachable(), 5);
/// ```
pub fn run_sssp(
    dg: &DistGraph,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> SsspOutput {
    let stats = RunStats::for_run(dg, Some(model));
    let (out, recorded) = run(dg, &Query::root(root), cfg, model, Lockstep, stats);
    SsspOutput::new(out, recorded)
}

/// Largest start distance a seed may carry on a graph of `n_total`
/// vertices: `u64::MAX − n_total · u32::MAX`. A shortest path has fewer
/// than `n_total` edges of at most `u32::MAX` each, so below this bound no
/// `d(u) + w` of the run can wrap or collide with the [`INF`] sentinel.
///
/// The kernels rely on this at every sum they form (`d(u) + w` in the push
/// kernels, `d(u) + w` in a pull response): a reached distance is at most
/// seed offset + (n − 1)·`u32::MAX` ≤ `u64::MAX − u32::MAX`, so adding one
/// more `u32` weight cannot wrap. Debug builds assert it at both sites.
pub fn max_seed_offset(n_total: usize) -> u64 {
    let span = u64::try_from(n_total)
        .ok()
        .and_then(|n| n.checked_mul(u64::from(u32::MAX)));
    span.map_or(0, |span| u64::MAX - span)
}

/// The seed canonicalization every run performs: validate against
/// `n_total` (out-of-range vertices panic), drop duplicate vertices keeping
/// each one's smallest seed distance — so the relax order of duplicate
/// seeds can never matter — and return the list sorted by vertex id. An
/// empty list is legal: the run settles nothing and every distance stays
/// [`INF`]. Two seed lists with the same canonical form provably produce
/// the same distances, which is exactly the equivalence a serving-layer
/// result cache needs for its keys.
pub fn canonical_seeds(seeds: &[(VertexId, u64)], n_total: usize) -> Vec<(VertexId, u64)> {
    let mut best: BTreeMap<VertexId, u64> = BTreeMap::new();
    for &(v, d) in seeds {
        assert!(
            (v as usize) < n_total,
            "seed vertex {v} out of range (n = {n_total})"
        );
        let e = best.entry(v).or_insert(d);
        *e = (*e).min(d);
    }
    best.into_iter().collect()
}

/// Resolve the §III-E intra-node balancing threshold π from the configured
/// mode and the graph's average degree. `Auto` rounds the average degree to
/// nearest — truncating division used to resolve π from `avg_deg = 0` (so
/// π = 64 regardless of shape) on any graph whose true average degree had a
/// fractional part, and systematically underestimated π elsewhere.
pub fn resolved_pi(balance: IntraBalance, m_directed: u64, n_vertices: u64) -> u64 {
    match balance {
        IntraBalance::Off => u64::MAX,
        IntraBalance::Threshold(t) => t as u64,
        IntraBalance::Auto => {
            let avg_deg = (m_directed + n_vertices / 2)
                .checked_div(n_vertices)
                .unwrap_or(0);
            (4 * avg_deg).max(64)
        }
    }
}

mod decide;
mod driver;
mod invariants;
mod kernels;
/// The telemetry and cost-model recorder ([`record::Recorder`]) and the
/// per-process trace merge.
pub mod record;
/// The real-thread transport: one OS thread per rank.
pub mod threaded;

pub use threaded::Threaded;

#[cfg(test)]
mod tests;
