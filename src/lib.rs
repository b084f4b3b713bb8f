//! # sssp-mps
//!
//! A from-scratch Rust reproduction of *Scalable Single Source Shortest Path
//! Algorithms for Massively Parallel Systems* (Chakaravarthy, Checconi,
//! Petrini, Sabharwal — IPDPS 2014).
//!
//! The paper's engine — Δ-stepping augmented with edge classification, the
//! inner/outer-short (IOS) refinement, push/pull direction-optimized pruning,
//! Bellman-Ford hybridization and two-tier load balancing — runs here on a
//! simulated distributed-memory machine (logical ranks with bulk-synchronous
//! message exchange and an α–β–γ cost model standing in for Blue Gene/Q).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`graph`] — CSR graphs, R-MAT / Chung–Lu generators, degree stats.
//! * [`comm`] — the simulated distributed runtime and machine cost model.
//! * [`dist`] — distributed graphs: partitioning, thread ownership, splitting.
//! * [`core`] — the SSSP algorithms themselves.
//!
//! ## Quickstart
//!
//! ```
//! use sssp_mps::prelude::*;
//!
//! // A scale-10 RMAT-1 graph (Graph 500 BFS spec), 16 edges per vertex.
//! let el = RmatGenerator::new(RmatParams::RMAT1, 10, 16).seed(1).generate_weighted(255);
//! let csr = CsrBuilder::new().build(&el);
//!
//! // Distribute over 4 simulated ranks with 4 logical threads each.
//! let dg = DistGraph::build(&csr, 4, 4);
//!
//! // Run the paper's OPT algorithm (Δ = 25) from root 0.
//! let (cfg, model) = (SsspConfig::opt(25), MachineModel::bgq_like());
//! let out = run_sssp(&dg, 0, &cfg, &model);
//! println!("settled {} vertices in {} buckets, {} phases",
//!          out.reachable(), out.stats.epochs, out.stats.phases);
//!
//! // `run_sssp` is shorthand for the one engine entry point: a `Query`,
//! // a transport (`Lockstep` here, `Threaded` for one OS thread per
//! // rank) and a recorder.
//! let query = Query::root(0).with_target(Some(17));
//! let (p2p, _) = run(&dg, &query, &cfg, &model, Lockstep, NoopRecorder);
//! assert_eq!(p2p.distances[17], out.distances[17]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sssp_comm as comm;
pub use sssp_core as core;
pub use sssp_dist as dist;
pub use sssp_graph as graph;

/// Most-used items in one import.
pub mod prelude {
    pub use sssp_comm::cost::MachineModel;
    pub use sssp_core::config::{DeltaParam, DirectionPolicy, SsspConfig};
    pub use sssp_core::engine::record::{merged_trace, NoopRecorder};
    pub use sssp_core::engine::threaded::{threaded_delta_stepping, EngineScratch};
    pub use sssp_core::engine::{run, run_sssp, Lockstep, Query, RunOutput, SsspOutput, Threaded};
    pub use sssp_core::instrument::RunStats;
    pub use sssp_core::seq;
    pub use sssp_dist::DistGraph;
    pub use sssp_graph::rmat::{RmatGenerator, RmatParams};
    pub use sssp_graph::{Csr, CsrBuilder, EdgeList};
}
