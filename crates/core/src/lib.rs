//! # tcim-core
//!
//! Fairness-aware time-critical influence maximization — the reference
//! implementation of the problem formulations, surrogates and guarantees of
//! *"On the Fairness of Time-Critical Influence Maximization in Social
//! Networks"* (Ali et al., ICDE 2022).
//!
//! ## One entrypoint, every problem
//!
//! A [`ProblemSpec`] is the typed, validated, serializable description of a
//! full solve — objective, fairness mode, estimator, deadline, candidate
//! pool and solver knobs — and [`solve`] executes any spec against any
//! [`InfluenceOracle`](tcim_diffusion::InfluenceOracle):
//!
//! | Problem | Spec | Objective / constraint |
//! |---------|------|------------------------|
//! | P1 TCIM-BUDGET | `ProblemSpec::budget(B)` | maximize `f_τ(S; V)`, `\|S\| ≤ B` |
//! | P4 FAIRTCIM-BUDGET | `…budget(B)?.with_fairness_wrapper(H)` | maximize `Σ_i λ_i H(f_τ(S; V_i))` |
//! | P3 (capped) | `…budget(B)?.with_fairness(Constrained { c })` | P1 s.t. disparity ≤ `c` |
//! | P2 TCIM-COVER | `ProblemSpec::cover(Q)` | minimize `\|S\|` s.t. `f_τ(S; V)/\|V\| ≥ Q` |
//! | P6 FAIRTCIM-COVER | `…cover(Q)?.with_fairness(GroupQuota { group: None })` | quota per group |
//! | P5 (capped) | `…cover(Q)?.with_fairness(Constrained { c })` | P2 s.t. disparity ≤ `c` |
//!
//! The table doubles as the migration guide from the removed per-problem
//! free functions: `solve_tcim_budget(o, &BudgetConfig::new(B)?)` is
//! `solve(o, &ProblemSpec::budget(B)?)`, and so on down the rows. Cover
//! solves report `quota` / `reached` in [`SolverReport::cover`], capped
//! solves their tuned knobs in [`SolverReport::constrained`].
//!
//! Disparity is measured by Eq. 2 ([`fairness::disparity`]); Theorems 1 and 2
//! can be checked with [`theory::theorem1_check`] / [`theory::theorem2_check`].
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use tcim_core::{solve, ConcaveWrapper, ProblemSpec};
//! use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
//! use tcim_graph::generators::{stochastic_block_model, SbmConfig};
//!
//! // A small homophilous two-group network with a tight deadline.
//! let graph = Arc::new(
//!     stochastic_block_model(&SbmConfig::two_group(120, 0.7, 0.08, 0.01, 0.2, 1)).unwrap(),
//! );
//! let oracle = WorldEstimator::new(
//!     Arc::clone(&graph),
//!     Deadline::finite(3),
//!     &WorldsConfig { num_worlds: 64, seed: 0, ..Default::default() },
//! )
//! .unwrap();
//!
//! let p1 = ProblemSpec::budget(5)?;
//! let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log)?;
//! let unfair = solve(&oracle, &p1)?;
//! let fair = solve(&oracle, &p4)?;
//!
//! // The fair surrogate never increases disparity, at a bounded cost in
//! // total influence — and every report names the spec that produced it.
//! assert!(fair.disparity() <= unfair.disparity() + 1e-9);
//! assert_eq!(fair.label, "P4-log");
//! assert_eq!(fair.spec.as_deref(), Some(p4.canonical().as_str()));
//! # Ok::<(), tcim_core::CoreError>(())
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

mod concave;
mod error;
mod exhaustive;
mod objective;
mod oracle;
mod report;
mod solve;
mod spec;

pub mod baselines;
pub mod fairness;
pub mod theory;

pub use concave::ConcaveWrapper;
pub use error::{CoreError, Result};
// The estimation-parallelism knob rides with the influence oracle
// (`WorldsConfig.parallelism`); re-exported here so solver users can set it
// without importing tcim-diffusion directly.
pub use exhaustive::{solve_budget_exhaustive, ExhaustiveObjective, MAX_EXHAUSTIVE_SETS};
pub use fairness::{audit_seed_set, disparity, FairnessReport};
pub use objective::{InfluenceObjective, Scalarization};
pub use oracle::{Estimator, EstimatorConfig};
pub use report::{ConstrainedOutcome, CoverOutcome, IterationRecord, SolverReport};
pub use solve::solve;
pub use spec::{FairnessMode, GreedyAlgorithm, Objective, ProblemSpec};
pub use tcim_diffusion::ParallelismConfig;
// The estimator knobs ride with the oracle configs; re-exported here so
// solver users can select and tune an estimator (including the RIS engine)
// without importing tcim-diffusion directly.
pub use tcim_diffusion::{AdaptiveRis, RisConfig, WorldsConfig};
