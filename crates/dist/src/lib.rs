//! Distributed graph layer.
//!
//! Implements the data distribution described in §II of the paper:
//!
//! * vertices are **block-distributed** over `P` ranks ([`Partition`]), each
//!   vertex owned by exactly one rank;
//! * each rank holds the adjacency of its vertices as a local CSR slice with
//!   weight-sorted rows ([`LocalGraph`]);
//! * within a rank, vertices are further owned by logical **threads**
//!   ([`threads`]), with the heavy-vertex edge-splitting of §III-E;
//! * the inter-node **vertex splitting** load balancer of §III-E
//!   ([`split`]): vertices of extreme degree are replaced by proxies joined
//!   with zero-weight edges, their neighborhoods scattered across ranks.
//!
//! Proxies live in a dedicated id region `[n_base, n_base + n_proxy)` that is
//! round-robin distributed (so the shards of one hub land on distinct ranks).
//! Within a rank, base vertices are stored hub-first. Inside the graph a
//! vertex is named by its rank address ([`Addr`]: owner rank and storage
//! slot in one `u32`), which the build resolves once for every edge; the
//! ids callers see are the input's, translated only where they cross the
//! API ([`DistGraph::locate`], [`DistGraph::vertex`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod local_graph;
pub mod partition;
pub mod split;
pub mod threads;

pub use addr::Addr;
pub use local_graph::{DistGraph, LocalGraph};
pub use partition::Partition;
pub use split::{split_heavy_vertices, SplitReport};
pub use threads::ThreadLoads;
