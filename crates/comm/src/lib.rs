//! Simulated distributed-memory runtime for the `sssp-mps` reproduction.
//!
//! The paper ran on Blue Gene/Q: thousands of nodes exchanging active
//! messages through the SPI layer, synchronizing each Δ-stepping phase with
//! collectives. This crate reproduces that execution model in-process:
//!
//! * **Ranks** — `P` logical processors, each owning private state and
//!   touching only rank-local data, so every run is deterministic.
//! * **Exchange** ([`exchange`]) — bulk-synchronous message delivery between
//!   supersteps, with full accounting of message counts, bytes, and
//!   per-rank maxima (the load-imbalance signal the paper's heuristics use).
//! * **Transports** ([`transport`]) — the [`transport::Comm`] contract every
//!   SPMD kernel is written against (allreduces plus the exchange), driven
//!   either in lockstep by one thread or by one OS thread per rank
//!   ([`threaded`]).
//! * **Cost model** ([`cost`]) — an α–β–γ machine model that converts the
//!   recorded counts into simulated time and TEPS, standing in for the
//!   Blue Gene/Q wall clock. Defaults are calibrated so that a scale-35 run
//!   on 4096 simulated nodes lands near the paper's 650 GTEPS.
//!
//! The transports charge every message its raw payload bytes. Framing into
//! network packets (the SPI injection-FIFO framing, [`packet`]) is applied
//! only by the standalone simulated exchange ([`exchange::exchange_pooled`]
//! with a [`packet::PacketConfig`]), not by the engine's runs. What this
//! substrate deliberately does **not** model: network topology (the 5D
//! torus) and overlap of computation with communication. Those affect
//! absolute constants, not the relative comparisons (push vs pull, hybrid
//! vs not, balanced vs not) the paper's figures are built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The α–β–γ machine model converting traffic into simulated time.
pub mod cost;
/// Bulk-synchronous message exchange between simulated ranks.
pub mod exchange;
/// Rolling collective-schedule fingerprints.
pub mod fingerprint;
/// Optional SPI-style packet coalescing model.
pub mod packet;
/// Per-superstep traffic ledgers ([`stats::CommStats`]).
pub mod stats;
/// Real-thread SPMD runtime (one OS thread per rank).
pub mod threaded;
/// The [`transport::Comm`] contract every SPMD kernel is written against,
/// and the lockstep transport that drives every rank from one thread.
pub mod transport;

/// Index of a logical processor (the paper's "node"/"rank").
pub type Rank = usize;
