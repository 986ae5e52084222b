//! # tcim-datasets
//!
//! Evaluation datasets for fairness-aware time-critical influence
//! maximization:
//!
//! * [`synthetic`] — the Section 6.1 stochastic-block-model suite with its
//!   parameter sweeps,
//! * [`rice`], [`instagram`], [`fbsnap`] — surrogate generators matching the
//!   published structural statistics of the Rice-Facebook,
//!   Instagram-Activities and Facebook-SNAP datasets (the originals are not
//!   redistributable; see `DESIGN.md` for the substitution rationale),
//! * [`loader`] — plain-text loading of the genuine files when available,
//! * [`churn`] — deterministic edge-churn sequences over any base graph:
//!   the temporal workloads behind the dynamic-graph differential tests,
//! * [`scenario`] — the open scenario space: [`ScenarioSpec`] describes a
//!   synthetic graph (generator family, size, group model, edge-weight
//!   model) as typed, validated, canonically-fingerprinted data,
//! * [`registry`] — one-stop construction of each dataset together with the
//!   experiment parameters the paper uses on it; [`Dataset::Scenario`]
//!   admits any scenario spec alongside the named graphs.
//!
//! A named dataset:
//!
//! ```
//! use tcim_datasets::registry::Dataset;
//!
//! let bundle = Dataset::Synthetic.build(7).unwrap();
//! assert_eq!(bundle.graph.num_nodes(), 500);
//! assert_eq!(bundle.defaults.budget, 30);
//! ```
//!
//! The same registry surface over an open-space scenario:
//!
//! ```
//! use tcim_datasets::registry::Dataset;
//! use tcim_datasets::scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::barabasi_albert(200, 3).unwrap();
//! let bundle = Dataset::Scenario(spec).build(7).unwrap();
//! assert_eq!(bundle.graph.num_nodes(), 200);
//! assert_eq!(bundle.dataset.name(), "scenario");
//! ```
//!
//! [`Dataset::Scenario`]: registry::Dataset::Scenario

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

pub mod churn;
pub mod fbsnap;
pub mod instagram;
pub mod loader;
pub mod registry;
pub mod rice;
pub mod scenario;
pub mod synthetic;

pub use churn::{ChurnConfig, ChurnSequence};
pub use registry::{Dataset, DatasetBundle, ExperimentDefaults};
pub use scenario::{GeneratorFamily, GroupModel, ScenarioSpec, WeightModel};
pub use synthetic::SyntheticConfig;
