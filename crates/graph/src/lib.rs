//! Graph substrate for the `sssp-mps` reproduction of *Scalable Single Source
//! Shortest Path Algorithms for Massively Parallel Systems* (IPDPS 2014).
//!
//! This crate provides everything the paper's evaluation needs on the graph
//! side:
//!
//! * a compact [`Csr`] (compressed sparse row) representation with optionally
//!   weight-sorted adjacency rows (the sorted order is what makes the paper's
//!   pull-request counting and inner/outer-short classification cheap),
//! * the Graph 500 [`rmat`] generator with the paper's two parameter presets
//!   (`RMAT-1`, the BFS benchmark spec, and `RMAT-2`, the proposed SSSP spec),
//! * a Chung–Lu power-law generator ([`social`]) used as a stand-in for the
//!   SNAP social graphs of §IV-H,
//! * uniform random weights in `[1, w_max]` ([`weights`]),
//! * degree statistics ([`stats`], reproducing Fig. 8), and
//! * deterministic small graph builders for tests and the paper's worked
//!   examples ([`gen`]).
//!
//! Everything is seed-deterministic: the same seed produces the same graph on
//! every run and for every partitioning, which keeps the distributed engine's
//! tests and benches reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod gen;
pub mod io;
pub mod prng;
pub mod rmat;
pub mod social;
pub mod stats;
pub mod transform;
pub mod weights;

pub use builder::CsrBuilder;
pub use csr::Csr;
pub use rmat::{RmatGenerator, RmatParams};
pub use stats::pick_roots;
pub use weights::assign_uniform_weights;

/// Vertex identifier. The paper scales to 2^38 vertices; this laptop-scale
/// reproduction caps at 2^32, which covers every experiment in the harness.
pub type VertexId = u32;

/// Edge weight. The Graph 500 SSSP proposal draws integer weights from
/// `[0, 255]`; the problem statement requires `w(e) > 0`, so generated weights
/// live in `[1, w_max]`. Zero weights are still *supported* (the inter-node
/// vertex-splitting transformation of §III-E introduces zero-weight proxy
/// edges).
pub type Weight = u32;

/// Checked narrowing of a local index or vertex count into the `u32` space
/// of [`VertexId`]-sized message fields.
///
/// All narrowing in the engine and dist layers funnels through here — the
/// `sssp-lint` no-lossy-cast rule rejects bare `as u32` there — so an index
/// escaping the 2^32 cap trips an assertion in debug builds instead of
/// silently wrapping. Release builds rely on the structural cap: vertex
/// counts are bounded by [`VertexId`]'s own range at graph construction.
#[inline]
pub fn checked_u32(value: usize) -> u32 {
    debug_assert!(
        u32::try_from(value).is_ok(),
        "index {value} overflows the u32 vertex-id space"
    );
    value as u32
}

/// A weighted undirected edge, stored once (`u <= v` is not required).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Edge weight.
    pub w: Weight,
}

impl Edge {
    /// Build an edge.
    pub fn new(u: VertexId, v: VertexId, w: Weight) -> Self {
        Edge { u, v, w }
    }
}

/// An unweighted edge tuple as produced by the generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeTuple {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
}

/// An edge list together with its vertex-count bound.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    /// Vertex-count bound (ids are `< n`).
    pub n: usize,
    /// The edges.
    pub edges: Vec<Edge>,
}

impl EdgeList {
    /// Empty list over `n` vertices.
    pub fn new(n: usize) -> Self {
        EdgeList {
            n,
            edges: Vec::new(),
        }
    }

    /// Append an undirected edge.
    pub fn push(&mut self, u: VertexId, v: VertexId, w: Weight) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push(Edge::new(u, v, w));
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}
