//! # fairtcim
//!
//! Fairness-aware **time-critical influence maximization** in social
//! networks — a from-scratch Rust reproduction of
//! *"On the Fairness of Time-Critical Influence Maximization in Social
//! Networks"* (Ali, Babaei, Chakraborty, Mirzasoleiman, Gummadi, Singla;
//! ICDE 2022, arXiv:1905.06618).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`graph`] (`tcim-graph`) — CSR social graphs with groups, generators,
//!   centrality, clustering and IO,
//! * [`diffusion`] (`tcim-diffusion`) — independent-cascade / linear-threshold
//!   simulation and time-critical influence estimators,
//! * [`submodular`] (`tcim-submodular`) — greedy / CELF / stochastic greedy /
//!   greedy cover,
//! * [`core`] (`tcim-core`) — the [`ProblemSpec`](core::ProblemSpec) problem
//!   description, the unified [`solve`](core::solve) entrypoint covering
//!   P1–P6, the disparity measure and the Theorem 1/2 checks,
//! * [`datasets`] (`tcim-datasets`) — the paper's synthetic suite and
//!   surrogates for its three real-world datasets,
//! * [`service`] (`tcim-service`) — the campaign-serving subsystem: cached
//!   oracles, a batched query engine and the JSONL protocol (a direct wire
//!   codec for `ProblemSpec`) behind the `tcim_serve` / `tcim_query`
//!   binaries,
//! * [`campaign`] — the fluent [`Campaign`](campaign::Campaign) builder tying
//!   the layers together.
//!
//! The [`prelude`] pulls in the handful of types most applications need; the
//! `examples/` directory shows end-to-end usage and `crates/bench` regenerates
//! every figure of the paper.
//!
//! ```
//! use fairtcim::prelude::*;
//!
//! // The paper's synthetic network: compare the unfair and fair budget
//! // campaigns under a tight deadline, sharing one sampled world pool.
//! let base = Campaign::on(Dataset::Synthetic)
//!     .shared_cache(std::sync::Arc::new(OracleCache::new()))
//!     .deadline(5)
//!     .estimator(worlds(50, 0))
//!     .budget(10);
//! let unfair = base.clone().solve().unwrap();
//! let fair = base.clone().fair(ConcaveWrapper::Log).solve().unwrap();
//! assert!(fair.disparity() <= unfair.disparity() + 1e-9);
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

pub use tcim_core as core;
pub use tcim_datasets as datasets;
pub use tcim_diffusion as diffusion;
pub use tcim_graph as graph;
pub use tcim_service as service;
pub use tcim_submodular as submodular;

pub mod campaign;

/// The most commonly used types and functions, re-exported flat.
pub mod prelude {
    pub use crate::campaign::{monte_carlo, ris, worlds, Campaign};
    pub use tcim_core::baselines::{
        evaluate_seed_set, group_proportional_degree_seeds, random_seeds, top_degree_seeds,
        top_pagerank_seeds,
    };
    pub use tcim_core::{
        audit_seed_set, disparity, solve, solve_budget_exhaustive, ConcaveWrapper,
        ConstrainedOutcome, CoreError, CoverOutcome, Estimator, EstimatorConfig,
        ExhaustiveObjective, FairnessMode, FairnessReport, GreedyAlgorithm, Objective, ProblemSpec,
        SolverReport,
    };
    pub use tcim_datasets::registry::{Dataset, DatasetBundle};
    pub use tcim_datasets::{
        GeneratorFamily, GroupModel, ScenarioSpec, SyntheticConfig, WeightModel,
    };
    pub use tcim_diffusion::{
        AdaptiveRis, Deadline, GroupInfluence, InfluenceOracle, MonteCarloEstimator,
        ParallelismConfig, RisConfig, RisEstimator, WorldEstimator, WorldsConfig,
    };
    pub use tcim_graph::{Graph, GraphBuilder, GroupId, NodeId};
    pub use tcim_service::{
        Client, ModelKind, OracleCache, OracleSpec, Request, Server, ServerConfig, ServiceEngine,
        ShutdownHandle,
    };
}
