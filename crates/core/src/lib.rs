//! The paper's contribution: distributed Δ-stepping with edge
//! classification, the IOS refinement, push/pull direction-optimized
//! pruning, hybridization (a bounded-window tail where the paper uses
//! Bellman-Ford) and two-tier load balancing — one epoch loop over the
//! transports of `sssp-comm`.
//!
//! Entry point: [`engine::run`] with a [`Query`], a transport
//! ([`Lockstep`] — the simulated machine — or [`Threaded`]) and a
//! [`config::SsspConfig`] preset ([`run_sssp`] is the single-source,
//! lockstep, fully instrumented shorthand):
//!
//! | Preset | Paper name | Ingredients |
//! |---|---|---|
//! | [`SsspConfig::dijkstra`] | Dijkstra (Dial) | Δ = 1 |
//! | [`SsspConfig::bellman_ford`] | Bellman-Ford | Δ = ∞ |
//! | [`SsspConfig::del`] | `Del-Δ` | Δ-stepping + short/long classification |
//! | [`SsspConfig::prune`] | `Prune-Δ` | + IOS + push/pull pruning heuristic |
//! | [`SsspConfig::opt`] | `OPT-Δ` | + hybridization (τ = 0.4) |
//! | [`SsspConfig::lb_opt`] | `LB-OPT` | + intra-node thread balancing |
//!
//! Inter-node vertex splitting (the second load-balancing tier) is a graph
//! transformation: apply [`sssp_dist::split_heavy_vertices`] before building
//! the [`sssp_dist::DistGraph`].
//!
//! [`SsspConfig::dijkstra`]: config::SsspConfig::dijkstra
//! [`SsspConfig::bellman_ford`]: config::SsspConfig::bellman_ford
//! [`SsspConfig::del`]: config::SsspConfig::del
//! [`SsspConfig::prune`]: config::SsspConfig::prune
//! [`SsspConfig::opt`]: config::SsspConfig::opt
//! [`SsspConfig::lb_opt`]: config::SsspConfig::lb_opt

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Brandes betweenness centrality over repeated SSSP runs.
pub mod betweenness;
/// Distributed direction-optimizing BFS (the Graph 500 reference point of
/// Fig. 1), one SPMD loop over either transport.
pub mod bfs;
/// Connected components via label propagation, one SPMD loop over either
/// transport.
pub mod cc;
/// Closeness centrality from sampled SSSP runs.
pub mod closeness;
/// Algorithm presets and tuning knobs ([`SsspConfig`], Δ, τ, π).
pub mod config;
/// The paper's engine: Δ-stepping with IOS, push/pull and hybridization.
pub mod engine;
/// Per-run instrumentation: phase counts, traffic, simulated time.
pub mod instrument;
/// Distributed PageRank, one SPMD loop over either transport.
pub mod pagerank;
/// Stepping policies: a bucket width Δ plus a window rule (Δ-, ρ- and
/// radius stepping).
pub mod policy;
/// Sequential reference algorithms (Dijkstra, Bellman-Ford).
pub mod seq;
/// Plumbing shared by the SPMD analytics kernels.
mod spmd;
/// Per-rank bucket/distance state ([`state::RankState`]).
pub mod state;
/// Result checking against the sequential reference.
pub mod validate;

pub use config::{
    DeltaParam, DirectionPolicy, IntraBalance, LongPhaseMode, SsspConfig, SteppingPolicyKind,
};
pub use engine::record::{merged_trace, NoopRecorder, Recorder};
pub use engine::threaded::{
    threaded_delta_stepping, threaded_delta_stepping_traced, threaded_sssp_query, EngineScratch,
    ThreadedSsspOutput,
};
pub use engine::{
    canonical_seeds, max_seed_offset, run, run_sssp, Lockstep, Query, RunOutput, Spmd, SsspOutput,
    Threaded, Transport,
};
pub use instrument::{RunStats, RunTrace, SubPhase};
pub use policy::{EpochWindow, Policy};
