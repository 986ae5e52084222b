//! # tcim-diffusion
//!
//! Influence-propagation models and group-aware estimators of the
//! time-critical influence utility
//! `f_τ(S; Y, G) = E[ Σ_{v ∈ Y, t_v ≥ 0} 1(t_v ≤ τ) ]` (Eq. 1 of Ali et al.,
//! ICDE 2022).
//!
//! The crate contains:
//!
//! * [`simulate_ic`] / [`simulate_lt`] — single-cascade simulation under the
//!   Independent Cascade and Linear Threshold models with discrete time
//!   steps, drawing from a stream RNG: the independent reference the keyed
//!   estimators are tested against,
//! * [`WorldCollection`] — pre-sampled live-edge worlds (common random
//!   numbers) on which the time-critical utility is an exactly submodular
//!   coverage function,
//! * [`WorldEstimator`], [`MonteCarloEstimator`], [`RisEstimator`] — three
//!   interchangeable implementations of the [`InfluenceOracle`] trait. The
//!   first two share one keyed IC coin and one τ-bounded BFS:
//!   [`MonteCarloEstimator`] walks the worlds a [`WorldEstimator`] stores,
//!   so at the same `(seed, samples)` the two agree bitwise,
//! * [`InfluenceCursor`] — the incremental marginal-gain interface the greedy
//!   solvers in `tcim-core` drive; both [`WorldEstimator`] (via `WorldCursor`)
//!   and [`RisEstimator`] (via [`RisCursor`]) serve it incrementally.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use tcim_diffusion::{Deadline, InfluenceOracle, WorldEstimator, WorldsConfig};
//! use tcim_graph::generators::{stochastic_block_model, SbmConfig};
//! use tcim_graph::NodeId;
//!
//! let graph = Arc::new(
//!     stochastic_block_model(&SbmConfig::two_group(100, 0.7, 0.05, 0.01, 0.1, 7)).unwrap(),
//! );
//! let estimator = WorldEstimator::new(
//!     Arc::clone(&graph),
//!     Deadline::finite(5),
//!     &WorldsConfig { num_worlds: 50, seed: 0 },
//! )
//! .unwrap();
//! let influence = estimator.evaluate(&[NodeId(0), NodeId(1)]).unwrap();
//! assert!(influence.total() >= 2.0); // at least the seeds themselves
//! ```

#![forbid(unsafe_code)]
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

mod bitset;
mod csr;
mod deadline;
mod error;
mod estimator;
mod ic;
mod lt;
mod parallel;
mod ris;
mod trace;
mod worlds;

pub use bitset::BitSet;
pub use deadline::Deadline;
pub use error::{DiffusionError, Result};
pub use estimator::{
    GroupInfluence, InfluenceCursor, InfluenceOracle, MonteCarloEstimator, NaiveCursor,
    WorldCursor, WorldEstimator,
};
pub use ic::{simulate_ic, simulate_ic_seeded};
pub use lt::{simulate_lt, simulate_lt_seeded, LtWeights};
pub use parallel::ParallelismConfig;
pub use ris::{AdaptiveRis, RisConfig, RisCursor, RisEstimator, RrSet, RrSketches};
pub use trace::{ActivationTrace, NOT_ACTIVATED};
pub use worlds::{LiveEdgeWorld, WorldCollection, WorldsConfig};
