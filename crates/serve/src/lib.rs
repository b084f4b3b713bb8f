//! Query serving over a **resident** distributed graph.
//!
//! The engine crates answer one query per call: build a
//! [`sssp_dist::DistGraph`], run, tear everything down. A serving workload
//! — many shortest-path queries against the same large graph — wants the
//! opposite lifecycle: load and partition the graph once, keep the warmed
//! per-rank engine state and transport buffer pools resident, and push a
//! stream of queries through them. This crate is that layer:
//!
//! * [`QuerySpec`] names a query: classic single-source, multi-seed,
//!   point-to-point (with early termination inside the engine), plus the
//!   analytics kernels (BFS, connected components, PageRank, closeness)
//!   as additional endpoints over the same resident graph.
//! * [`SsspServer`] owns the graph and a pool of `max_inflight` worker
//!   threads, each holding one [`sssp_core::EngineScratch`]. Submitted
//!   queries queue FIFO; a worker claims one, runs it on the
//!   rank-thread transport ([`sssp_core::Threaded`]; closeness runs its
//!   per-source queries on the lockstep one) — no re-partitioning, no pool
//!   re-allocation — and publishes the [`QueryResult`].
//! * A landmark / repeat-root distance cache keyed by the canonicalized
//!   seed set answers repeated roots (and point-to-point queries whose
//!   root has a cached full distance field) without running the engine at
//!   all. [`SsspServer::rebuild`] swaps in a new graph, bumps the
//!   generation and invalidates the cache.
//!
//! Results are bit-identical to fresh one-shot runs — the differential
//! proptests in `tests/` pin scheduler output against
//! fresh-scratch [`sssp_core::threaded_sssp_query`] runs under all three
//! stepping policies.
//!
//! # Crash isolation
//!
//! A query failure is scoped to its own ticket, never to the server:
//! malformed specs are rejected by [`QuerySpec::validate`] *before* the
//! queue lock is taken (so a bad submit can never poison the queue), a
//! panic inside a worker is caught at the ticket boundary and surfaces as
//! [`QueryError::Panicked`] on that ticket alone, and every queue-lock
//! acquisition recovers from poisoning instead of cascading it. An
//! optional per-query deadline, honoured by every [`QuerySpec`] kind,
//! stops the run at a round boundary through a collective verdict and
//! reports [`QueryError::TimedOut`]. The static
//! panic-reachability pass in `sssp-lint` (`--panics`) pins all of this
//! at lint time; the crash-isolation proptests pin it at runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The landmark / repeat-root distance cache.
pub mod cache;
/// The scheduler: worker pool, queue, tickets.
pub mod server;

pub use cache::DistanceCache;
pub use server::{ServeConfig, ServeStats, SsspServer, Ticket};

use std::sync::Arc;

use sssp_core::pagerank::PageRankConfig;
use sssp_graph::VertexId;

/// One query against the resident graph.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// Classic SSSP from one root at distance 0.
    SingleSource {
        /// The root vertex.
        root: VertexId,
    },
    /// Multi-source SSSP from arbitrary `(vertex, start_distance)` seeds
    /// (a vertex listed twice keeps its smallest distance).
    MultiSeed {
        /// The seed set.
        seeds: Vec<(VertexId, u64)>,
    },
    /// Point-to-point distance: runs SSSP from `root` but stops as soon
    /// as `target`'s distance is provably final (see the target-cutoff
    /// collective in the engine), typically after far fewer epochs than a
    /// full run.
    PointToPoint {
        /// The root vertex.
        root: VertexId,
        /// The vertex whose distance is wanted.
        target: VertexId,
    },
    /// Direction-optimizing BFS from `root` (hop distances).
    Bfs {
        /// The root vertex.
        root: VertexId,
    },
    /// Connected components via min-label propagation.
    Components,
    /// PageRank over the undirected graph.
    PageRank {
        /// Damping / tolerance / iteration cap.
        config: PageRankConfig,
    },
    /// Harmonic closeness estimated from SSSP runs out of `sources`.
    Closeness {
        /// The sample sources (exact when they cover all vertices).
        sources: Vec<VertexId>,
    },
}

impl QuerySpec {
    /// The canonical seed set of a distance query (used as the cache
    /// key), or `None` for the analytics endpoints.
    pub(crate) fn seeds(&self) -> Option<Vec<(VertexId, u64)>> {
        match self {
            QuerySpec::SingleSource { root } | QuerySpec::PointToPoint { root, .. } => {
                Some(vec![(*root, 0)])
            }
            QuerySpec::MultiSeed { seeds } => Some(seeds.clone()),
            _ => None,
        }
    }

    /// Every vertex id the spec mentions (for submit-time range checks).
    pub(crate) fn vertices(&self) -> Vec<VertexId> {
        match self {
            QuerySpec::SingleSource { root } | QuerySpec::Bfs { root } => vec![*root],
            QuerySpec::MultiSeed { seeds } => seeds.iter().map(|&(v, _)| v).collect(),
            QuerySpec::PointToPoint { root, target } => vec![*root, *target],
            QuerySpec::Components | QuerySpec::PageRank { .. } => Vec::new(),
            QuerySpec::Closeness { sources } => sources.clone(),
        }
    }

    /// Validate the spec against a graph of `n` vertices: every mentioned
    /// vertex must be in range, a seed's start distance must leave the run
    /// headroom below `u64::MAX` ([`sssp_core::max_seed_offset`] — past it
    /// distances would wrap), and closeness needs at least one source.
    /// This is the sanitizer the serving layer runs **before** any lock is
    /// taken — a malformed spec is an error return, never a panic inside a
    /// critical section (the `panic-unvalidated-input` lint rule pins the
    /// pattern).
    pub fn validate(&self, n: usize) -> Result<(), QueryError> {
        for v in self.vertices() {
            if (v as usize) >= n {
                return Err(QueryError::InvalidSpec(format!(
                    "query vertex {v} out of range (n = {n})"
                )));
            }
        }
        if let QuerySpec::MultiSeed { seeds } = self {
            let bound = sssp_core::max_seed_offset(n);
            if let Some(&(v, d)) = seeds.iter().find(|&&(_, d)| d > bound) {
                return Err(QueryError::InvalidSpec(format!(
                    "seed distance {d} of vertex {v} leaves no headroom below u64::MAX (n = {n})"
                )));
            }
        }
        if let QuerySpec::Closeness { sources } = self {
            if sources.is_empty() {
                return Err(QueryError::InvalidSpec(
                    "closeness needs at least one source".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// Why a query failed. Failures are scoped to the ticket that carried
/// them: the server, its workers and every other in-flight query keep
/// running (the crash-isolation proptests pin exactly this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The spec was rejected by [`QuerySpec::validate`] — at submit time
    /// (before the queue lock is taken) or by the worker's re-validation
    /// after a racing [`SsspServer::rebuild`] shrank the graph.
    InvalidSpec(String),
    /// The query panicked inside a worker. The unwind was caught at the
    /// ticket boundary: the worker recycled its scratch and went back to
    /// serving, and no lock was poisoned. The payload's panic message is
    /// carried when it was a string.
    Panicked(String),
    /// The query missed its deadline: the epoch loop stopped through the
    /// `epoch.deadline` collective (or the worker found the deadline
    /// already passed at claim time) and the partial distance field was
    /// discarded rather than served.
    TimedOut,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidSpec(why) => write!(f, "invalid query spec: {why}"),
            QueryError::Panicked(msg) => write!(f, "query panicked in worker: {msg}"),
            QueryError::TimedOut => write!(f, "query missed its deadline"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The payload of a finished query.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// Final distances per global vertex (`u64::MAX` = unreached). Shared
    /// so cache hits and their original run hand out the same allocation.
    Distances(Arc<Vec<u64>>),
    /// The target's final distance (point-to-point; the rest of the
    /// distance field may be tentative and is not exposed).
    TargetDistance(u64),
    /// BFS depth per global vertex (`u32::MAX` = unreached).
    BfsDepths(Arc<Vec<u32>>),
    /// Component label (minimum member vertex id) per global vertex.
    ComponentLabels(Arc<Vec<VertexId>>),
    /// PageRank score per global vertex.
    PageRankScores(Arc<Vec<f64>>),
    /// Harmonic closeness per global vertex.
    Closeness(Arc<Vec<f64>>),
}

impl QueryOutput {
    /// The distance field, if this output carries one.
    pub fn distances(&self) -> Option<&Arc<Vec<u64>>> {
        match self {
            QueryOutput::Distances(d) => Some(d),
            _ => None,
        }
    }

    /// The target distance, if this output is point-to-point.
    pub fn target_distance(&self) -> Option<u64> {
        match self {
            QueryOutput::TargetDistance(d) => Some(*d),
            _ => None,
        }
    }
}

/// A finished query: the payload plus serving metadata.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The ticket this result answers.
    pub ticket: Ticket,
    /// The query's payload.
    pub output: QueryOutput,
    /// Epoch-select rounds the engine performed (0 for cache hits and for
    /// endpoints that do not run the epoch loop). For a point-to-point
    /// query this is the early-terminated count — strictly fewer rounds
    /// than the same root run to completion whenever the cutoff fires
    /// before the last bucket.
    pub epochs: u64,
    /// Whether the distance cache answered without running the engine.
    pub cache_hit: bool,
    /// Graph generation the query ran against (bumped by
    /// [`SsspServer::rebuild`]).
    pub generation: u64,
}
