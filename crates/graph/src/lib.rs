//! # tcim-graph
//!
//! Directed social-graph substrate for fairness-aware time-critical influence
//! maximization (Ali et al., ICDE 2022).
//!
//! The crate provides everything the diffusion and optimization layers need
//! from a graph:
//!
//! * a compact CSR [`Graph`] with per-edge activation probabilities and
//!   disjoint node [`GroupId`]s (the paper's "socially salient groups"),
//! * an incremental [`GraphBuilder`],
//! * random and planted [`generators`] (stochastic block model,
//!   Erdős–Rényi, Barabási–Albert, the Figure-1 illustrative graph),
//! * [`centrality`] measures used as seeding baselines,
//! * [`clustering`] (spectral clustering, label propagation) for deriving
//!   topological groups as in the Facebook-SNAP experiment,
//! * [`traversal`] primitives (BFS, bounded reachability, components),
//! * group-aware structural [`stats`], and
//! * plain-text [`io`] for edge lists and group files.
//!
//! ## Example
//!
//! ```
//! use tcim_graph::generators::{stochastic_block_model, SbmConfig};
//! use tcim_graph::stats::graph_stats;
//!
//! // The synthetic setting of Section 6.1: 500 nodes, 70% majority,
//! // homophilous connectivity.
//! let config = SbmConfig::two_group(500, 0.7, 0.025, 0.001, 0.05, 42);
//! let graph = stochastic_block_model(&config).unwrap();
//! let stats = graph_stats(&graph);
//! assert_eq!(stats.num_groups, 2);
//! assert!(stats.assortativity > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout
)]
// Test code may read clocks and stdout too; the non-test build still checks
// every library item against clippy.toml's disallowed methods.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod builder;
mod error;
mod graph;
mod ids;

pub mod centrality;
pub mod clustering;
pub mod generators;
pub mod io;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use error::{GraphError, Result};
pub use graph::{EdgeRecord, Graph, MutationOp};
pub use ids::{GroupId, NodeId};
