//! # tcim-submodular
//!
//! Generic monotone submodular maximization and cover, the optimization
//! engine behind every solver in `tcim-core`:
//!
//! * [`maximize_greedy`] — the classic greedy heuristic with the
//!   `(1 − 1/e)` guarantee of Nemhauser–Wolsey–Fisher,
//! * [`maximize_lazy`] — CELF lazy greedy, identical output with far fewer
//!   oracle calls,
//! * [`maximize_stochastic`] — stochastic greedy for very large ground sets,
//! * [`cover_greedy`] — greedy submodular cover with the Wolsey
//!   `ln(1 + n)`-style size bound,
//! * [`cover_lazy`] — CELF lazy greedy cover, identical output with far
//!   fewer oracle calls,
//! * [`testing`] — reference objectives (modular, weighted coverage) and an
//!   exhaustive submodularity checker used by tests and benches.
//!
//! Objectives implement the small [`IncrementalObjective`] trait; see
//! [`testing::WeightedCoverage`] for a complete example.
//!
//! ```
//! use tcim_submodular::testing::WeightedCoverage;
//! use tcim_submodular::maximize_lazy;
//!
//! let mut objective = WeightedCoverage::uniform(
//!     vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]],
//!     6,
//! );
//! let trace = maximize_lazy(&mut objective, &[0, 1, 2], 2).unwrap();
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.final_value(), 6.0);
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

mod cover;
mod error;
mod function;
mod greedy;
mod lazy;
mod stochastic;
mod trace;

pub mod testing;

pub use cover::{cover_greedy, cover_lazy, CoverConfig};
pub use error::{Result, SubmodularError};
pub use function::{EvaluateSet, IncrementalObjective};
pub use greedy::maximize_greedy;
pub use lazy::maximize_lazy;
pub use stochastic::{maximize_stochastic, StochasticGreedyConfig};
pub use trace::{CoverResult, SelectionStep, SelectionTrace};
