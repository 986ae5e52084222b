//! # tcim-service
//!
//! The campaign-serving subsystem of fairtcim: long-lived cached oracle
//! state, a batched query engine, and a hand-rolled JSONL protocol — so many
//! `(deadline τ, budget B, fairness knob)` queries against one social graph
//! amortize estimator construction instead of re-sampling per solve.
//!
//! * [`OracleCache`] keeps dataset graphs, [`LtWeights`] tables, live-edge
//!   world collections and built estimators keyed by
//!   `(dataset, model, deadline, estimator config)` — where the dataset is
//!   a registry name or an inline scenario, keyed by its canonical
//!   [`ScenarioSpec::fingerprint`](tcim_datasets::ScenarioSpec::fingerprint).
//!   World collections are deadline-independent, so a warm cache answers a
//!   new `τ` for the price of a view. Entries live under a sharded byte
//!   budget ([`CacheConfig`], costs via [`CacheCost`]) with segmented-LRU
//!   eviction — see `docs/CACHE.md` for the operator's guide.
//! * [`ServiceEngine`] fans batches of requests out across threads (via the
//!   same [`ParallelismConfig`] knob the estimators use) over the shared
//!   read-only cache, executing every solve through `tcim_core::solve`.
//! * [`protocol`] defines the newline-delimited request/response format the
//!   `tcim_serve` binary reads from stdin or a file (`tcim_query` is the
//!   one-shot helper). Solve requests are a direct wire codec for
//!   [`tcim_core::ProblemSpec`] — there is no per-op argument mapping, and
//!   responses echo the canonical spec string, so they are self-describing.
//! * [`server`] is the socket serving tier: a `std::net` listener (TCP or
//!   Unix-domain) multiplexing the same protocol over persistent
//!   connections, with per-connection ordering and backpressure, global
//!   admission control and graceful shutdown; [`client`] is the matching
//!   blocking JSONL client.
//! * [`stats`] is the lock-cheap observability layer ([`ServerStats`]):
//!   per-op counts, p50/p99 latency histograms, cache hit rates and
//!   connection gauges, served over the wire by `{"op":"stats"}`.
//! * [`minijson`] is the dependency-free JSON layer shared with
//!   `tcim-bench`'s regression records.
//!
//! ## Determinism contract
//!
//! Cached answers are **bitwise-identical** to cold solves at any thread
//! count: cache keys exclude parallelism, every sampler derives sample `i`
//! from `seed + i`, and responses never leak cache temperature. CI pipes a
//! golden request file through `tcim_serve` at 1 and 8 threads and diffs the
//! output byte-for-byte.
//!
//! ## Example
//!
//! ```
//! use tcim_diffusion::ParallelismConfig;
//! use tcim_service::{Request, ServiceEngine};
//!
//! let engine = ServiceEngine::new(ParallelismConfig::auto());
//! let requests: Vec<Request> = [
//!     r#"{"id":1,"op":"solve_budget","dataset":"illustrative","deadline":2,"samples":64,"budget":2}"#,
//!     r#"{"id":2,"op":"solve_budget","dataset":"illustrative","deadline":3,"samples":64,"budget":2,"fair":true}"#,
//! ]
//! .iter()
//! .map(|line| Request::parse_line(line).unwrap())
//! .collect();
//!
//! let responses = engine.serve_batch(&requests);
//! assert!(responses.iter().all(|r| r.get("ok").and_then(|ok| ok.as_bool()) == Some(true)));
//! // Both deadlines were served from one sampled world collection.
//! assert_eq!(engine.cache().stats().world_misses, 1);
//! ```
//!
//! [`LtWeights`]: tcim_diffusion::LtWeights
//! [`ParallelismConfig`]: tcim_diffusion::ParallelismConfig

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

mod cache;
pub mod client;
mod engine;
mod error;
pub mod minijson;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cache::{
    CacheConfig, CacheCost, CacheStats, DatasetSpec, ModelKind, OracleCache, OracleSpec, ShardStats,
};
pub use client::Client;
pub use engine::ServiceEngine;
pub use error::{Result, ServiceError};
pub use minijson::Json;
pub use protocol::{Op, Request, PROTOCOL_VERSION};
pub use server::{install_ctrl_c, Server, ServerConfig, ServerReport, ShutdownHandle};
pub use stats::{ServerStats, StatsSnapshot};
