//! The adapter: the only file of the benchmark that names an item of the
//! repository. Everything else speaks the plain types defined here, so a
//! later change that renames or reshapes a public function edits this one
//! file, and the README lists the signatures below as load-bearing.
//!
//! The functions are thin on purpose: a caller wraps each one in a span, so
//! any work done here besides the call into the layer would be charged to
//! that layer.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_comm::exchange::{pack_sorted_run, ExchangeBuffers};
use sssp_comm::threaded::run_threaded;
use sssp_core::seq::dijkstra_radix;
use sssp_core::{
    run_sssp, threaded_delta_stepping, threaded_delta_stepping_traced, threaded_sssp_query,
    EngineScratch, SsspConfig, ThreadedSsspOutput,
};
use sssp_dist::DistGraph;
use sssp_graph::io::{read_dimacs, write_dimacs};
use sssp_graph::{Csr, CsrBuilder, Edge, EdgeList, RmatGenerator, RmatParams};
use sssp_serve::{QueryError, QueryOutput, QuerySpec, ServeConfig, SsspServer, Ticket};

/// Ranks of every distributed run (this box has two cores).
pub const RANKS: usize = 2;
/// Logical threads per rank in the partition's load model.
pub const THREADS_PER_RANK: usize = 2;
/// Δ of the LB-OPT preset every engine call runs under.
pub const DELTA: u32 = 25;
/// Largest edge weight of the generated inputs.
pub const W_MAX: u32 = 255;
/// Graph 500 edge factor of the RMAT inputs.
const EDGE_FACTOR: usize = 16;
/// On-wire size of the probe messages, the engine's relaxation size.
const MSG_BYTES: usize = 16;

pub type Edges = EdgeList;
pub type Graph = Csr;
pub type Dist = Arc<DistGraph>;
pub type Scratch = EngineScratch;
pub type Server = SsspServer;
pub type Spec = QuerySpec;

/// Algorithm preset and machine model shared by every engine call.
#[derive(Clone)]
pub struct Setup {
    cfg: SsspConfig,
    model: MachineModel,
}

pub fn setup() -> Setup {
    Setup {
        cfg: SsspConfig::lb_opt(DELTA),
        model: MachineModel::bgq_like(),
    }
}

// ---- graph ------------------------------------------------------------

/// `graph`: RMAT-2 edge list of `2^scale` vertices.
pub fn rmat2_edges(scale: u32, seed: u64) -> Edges {
    RmatGenerator::new(RmatParams::RMAT2, scale, EDGE_FACTOR)
        .seed(seed)
        .generate_weighted(W_MAX)
}

/// An edge list from the benchmark's own `(u, v, w)` triples.
pub fn edges_from(n: usize, triples: &[(u32, u32, u32)]) -> Edges {
    EdgeList {
        n,
        edges: triples
            .iter()
            .map(|&(u, v, w)| Edge::new(u, v, w))
            .collect(),
    }
}

pub fn num_edges(el: &Edges) -> usize {
    el.len()
}

/// `graph`: serialise as DIMACS `.gr`.
pub fn write_dimacs_file(path: &Path, el: &Edges) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_dimacs(&mut w, el)?;
    w.flush()
}

/// `graph`: parse a DIMACS `.gr` file.
pub fn read_dimacs_file(path: &Path) -> Result<Edges, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_dimacs(BufReader::new(file), false).map_err(|e| format!("{}: {e}", path.display()))
}

/// `graph`: undirected CSR with weight-sorted rows.
pub fn build_csr(el: &Edges) -> Graph {
    CsrBuilder::new().build(el)
}

pub fn num_vertices(g: &Graph) -> usize {
    g.num_vertices()
}

pub fn num_undirected_edges(g: &Graph) -> usize {
    g.num_undirected_edges()
}

/// Neighbours and weights of `v`, for the benchmark's own BFS.
pub fn row(g: &Graph, v: u32) -> (&[u32], &[u32]) {
    g.row_slices(v)
}

// ---- dist -------------------------------------------------------------

/// `dist`: block-partition over [`RANKS`] ranks.
pub fn partition(g: &Graph) -> Dist {
    Arc::new(DistGraph::build(g, RANKS, THREADS_PER_RANK))
}

/// Directed edge slots held by each rank.
pub fn rank_edges(dg: &Dist) -> Vec<u64> {
    dg.locals
        .iter()
        .map(|l| l.num_directed_edges() as u64)
        .collect()
}

// ---- core -------------------------------------------------------------

/// What the benchmark reads off one engine run.
pub struct EngineRun {
    pub distances: Vec<u64>,
    pub relax_local_msgs: u64,
    pub relax_remote_msgs: u64,
    pub coalesced_msgs: u64,
    pub epochs: u64,
}

impl From<ThreadedSsspOutput> for EngineRun {
    fn from(out: ThreadedSsspOutput) -> EngineRun {
        EngineRun {
            distances: out.distances,
            relax_local_msgs: out.relax_local_msgs,
            relax_remote_msgs: out.relax_remote_msgs,
            coalesced_msgs: out.coalesced_msgs,
            epochs: out.epochs,
        }
    }
}

/// Telemetry of a traced engine run, beyond [`EngineRun`].
pub struct EngineTelemetry {
    pub supersteps: u64,
    pub remote_bytes: u64,
    pub max_step_send_bytes: u64,
    pub short_ns: u64,
    pub long_push_ns: u64,
    pub long_pull_ns: u64,
    pub bf_ns: u64,
}

/// `core`: the sequential oracle every answer is compared with.
pub fn oracle(g: &Graph, root: u32) -> Vec<u64> {
    dijkstra_radix(g, root)
}

/// `core`: one root on the threaded engine with fresh scratch, what
/// `sssp-cli` pays per run.
pub fn engine_fresh(dg: &Dist, root: u32, s: &Setup) -> EngineRun {
    threaded_delta_stepping(dg, root, &s.cfg, &s.model).into()
}

/// `core`: the same run with the engine's own recorder on.
pub fn engine_traced(dg: &Dist, root: u32, s: &Setup) -> (EngineRun, EngineTelemetry) {
    let (out, trace) = threaded_delta_stepping_traced(dg, root, &s.cfg, &s.model);
    let telemetry = EngineTelemetry {
        supersteps: trace.supersteps,
        remote_bytes: trace.remote_bytes,
        max_step_send_bytes: trace.max_step_send_bytes,
        short_ns: trace.timings.short_ns,
        long_push_ns: trace.timings.long_push_ns,
        long_pull_ns: trace.timings.long_pull_ns,
        bf_ns: trace.timings.bf_ns,
    };
    (out.into(), telemetry)
}

pub fn new_scratch() -> Scratch {
    EngineScratch::new(RANKS)
}

/// `core`: one query on a kept scratch, the server's miss path.
pub fn engine_reuse(
    dg: &Dist,
    seeds: &[(u32, u64)],
    target: Option<u32>,
    s: &Setup,
    scratch: &mut Scratch,
) -> EngineRun {
    threaded_sssp_query(dg, seeds, target, &s.cfg, &s.model, scratch).into()
}

/// `core`: the simulated driver; returns distances, modelled seconds and
/// modelled GTEPS.
pub fn engine_simulated(dg: &Dist, root: u32, s: &Setup) -> (Vec<u64>, f64, f64) {
    let out = run_sssp(dg, root, &s.cfg, &s.model);
    let model_s = out.stats.ledger.total_s();
    let gteps = out.stats.gteps(dg.m_input_undirected);
    (out.distances, model_s, gteps)
}

// ---- comm -------------------------------------------------------------

type Msg = (u64, u64);

/// `comm`: seconds for `rounds` sum-allreduces on [`RANKS`] rank threads.
pub fn comm_allreduce(rounds: u32) -> f64 {
    let secs = run_threaded::<Msg, f64, _>(RANKS, move |ctx| {
        let t0 = Instant::now();
        for i in 0..rounds {
            black_box(ctx.allreduce_sum(u64::from(i)));
        }
        t0.elapsed().as_secs_f64()
    });
    secs[0]
}

/// `comm`: seconds for `rounds` pooled exchanges with `lane_len` messages
/// in every lane (0 = the bare rendezvous).
pub fn comm_exchange(rounds: u32, lane_len: usize) -> f64 {
    let secs = run_threaded::<Msg, f64, _>(RANKS, move |mut ctx| {
        let fill: Vec<Msg> = (0..lane_len as u64).map(|i| (i, i)).collect();
        let mut out: Vec<Vec<Msg>> = vec![Vec::new(); RANKS];
        let mut inbox = Vec::new();
        let t0 = Instant::now();
        for _ in 0..rounds {
            for lane in &mut out {
                lane.extend_from_slice(&fill);
            }
            ctx.exchange_pooled(&mut out, &mut inbox);
            black_box(inbox.len());
        }
        t0.elapsed().as_secs_f64()
    });
    secs[0]
}

/// `comm`: spawn [`RANKS`] rank threads around an empty body and join them.
pub fn comm_spawn_join() {
    black_box(run_threaded::<Msg, (), _>(RANKS, |_ctx| ()));
}

/// `comm`: sort and coalesce one lane; returns the messages removed.
pub fn comm_pack(lane: &mut Vec<Msg>) -> u64 {
    pack_sorted_run(lane, |m| m.0, |m| m.1, true)
}

/// `comm`: seconds for `rounds` exchanges of the simulated transport with
/// `lane_len` messages in every lane.
pub fn comm_sim_exchange(rounds: u32, lane_len: usize) -> f64 {
    let fill: Vec<Msg> = (0..lane_len as u64).map(|i| (i, i)).collect();
    let mut bufs = ExchangeBuffers::<Msg>::new(RANKS);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for ob in &mut bufs.outboxes {
            for lane in &mut ob.out {
                lane.extend_from_slice(&fill);
            }
        }
        black_box(bufs.exchange(MSG_BYTES, None));
    }
    t0.elapsed().as_secs_f64()
}

// ---- serve ------------------------------------------------------------

/// The four query kinds of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SingleSource,
    PointToPoint,
    MultiSeed,
    Bfs,
}

/// A finished ticket, reduced to what the benchmark checks.
pub enum Payload {
    Distances(Arc<Vec<u64>>),
    Target(u64),
    Depths(Arc<Vec<u32>>),
    /// An output kind the mix never asks for.
    Other,
}

pub struct Answer {
    pub payload: Payload,
    pub epochs: u64,
    pub cache_hit: bool,
}

/// Why a ticket failed, by the counter it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Invalid,
    Panicked,
    TimedOut,
}

fn failure(e: QueryError) -> Failure {
    match e {
        QueryError::InvalidSpec(_) => Failure::Invalid,
        QueryError::Panicked(_) => Failure::Panicked,
        QueryError::TimedOut => Failure::TimedOut,
    }
}

/// `serve`: start a server over a resident graph.
pub fn server_start(dg: &Dist, s: &Setup, max_inflight: usize, cache_capacity: usize) -> Server {
    SsspServer::new(
        Arc::clone(dg),
        s.cfg.clone(),
        s.model,
        ServeConfig {
            max_inflight,
            cache_capacity,
            deadline: None,
        },
    )
}

pub fn single_source(root: u32) -> Spec {
    QuerySpec::SingleSource { root }
}

pub fn point_to_point(root: u32, target: u32) -> Spec {
    QuerySpec::PointToPoint { root, target }
}

pub fn multi_seed(seeds: &[(u32, u64)]) -> Spec {
    QuerySpec::MultiSeed {
        seeds: seeds.to_vec(),
    }
}

pub fn bfs(root: u32) -> Spec {
    QuerySpec::Bfs { root }
}

/// `serve`: enqueue a query.
pub fn submit(server: &Server, spec: Spec) -> Result<Ticket, Failure> {
    server.submit(spec).map_err(failure)
}

/// `serve`: block until the ticket resolves.
pub fn wait(server: &Server, ticket: Ticket) -> Result<Answer, Failure> {
    let result = server.wait(ticket).map_err(failure)?;
    let payload = match result.output {
        QueryOutput::Distances(d) => Payload::Distances(d),
        QueryOutput::TargetDistance(d) => Payload::Target(d),
        QueryOutput::BfsDepths(d) => Payload::Depths(d),
        _ => Payload::Other,
    };
    Ok(Answer {
        payload,
        epochs: result.epochs,
        cache_hit: result.cache_hit,
    })
}

/// `serve`: swap the resident graph (bumps the generation, clears the cache).
pub fn rebuild(server: &Server, dg: &Dist) {
    server.rebuild(Arc::clone(dg));
}
