//! The fluent [`Campaign`] builder: describe a full fair-TCIM campaign —
//! dataset, deadline, estimator, objective, fairness — in one chain, and
//! solve it through the canonical `tcim_core::solve` path.
//!
//! A `Campaign` assembles a [`ProblemSpec`] plus the context the spec is
//! solved in (which graph, which diffusion model, optionally which shared
//! [`OracleCache`]). Setters validate **eagerly**: a degenerate value
//! (budget 0, NaN quota, negative weight …) is recorded at the call site and
//! surfaced as a [`CoreError::InvalidConfig`] naming the field when
//! [`Campaign::solve`] (or [`Campaign::spec`]) runs, so a typo never
//! silently solves a different problem.
//!
//! ```
//! use fairtcim::prelude::*;
//!
//! // The paper's illustrative network, deadline 2, 64 live-edge worlds:
//! // solve the fair budget problem P4 with the log surrogate.
//! let report = Campaign::on(Dataset::Illustrative)
//!     .deadline(2)
//!     .estimator(worlds(64, 0))
//!     .budget(2)
//!     .fair(ConcaveWrapper::Log)
//!     .solve()?;
//! assert_eq!(report.label, "P4-log");
//! assert_eq!(report.num_seeds(), 2);
//! // Reports echo the canonical spec, so results are self-describing.
//! assert!(report.spec.as_deref().unwrap().starts_with("tcim:budget:2|concave:log"));
//! # Ok::<(), fairtcim::core::CoreError>(())
//! ```
//!
//! Several solves against one network amortize estimator construction by
//! sharing an [`OracleCache`] (the serving subsystem's cache — worlds sample
//! once per `(dataset, model, samples, seed)` and every deadline reuses
//! them):
//!
//! ```
//! use std::sync::Arc;
//! use fairtcim::prelude::*;
//!
//! let cache = Arc::new(OracleCache::new());
//! let base = Campaign::on(Dataset::Illustrative)
//!     .shared_cache(Arc::clone(&cache))
//!     .deadline(2)
//!     .estimator(worlds(64, 0));
//! let unfair = base.clone().budget(2).solve()?;
//! let fair = base.clone().budget(2).fair(ConcaveWrapper::Log).solve()?;
//! assert!(fair.disparity() <= unfair.disparity() + 1e-9);
//! assert_eq!(cache.stats().world_misses, 1, "both solves share one world pool");
//! # Ok::<(), fairtcim::core::CoreError>(())
//! ```

use std::sync::Arc;

use tcim_core::{
    audit_seed_set, ConcaveWrapper, CoreError, Estimator, EstimatorConfig, FairnessMode,
    FairnessReport, GreedyAlgorithm, Objective, ProblemSpec, Result, RisConfig, SolverReport,
    WorldsConfig,
};
use tcim_datasets::registry::Dataset;
use tcim_datasets::scenario::ScenarioSpec;
use tcim_diffusion::{Deadline, WorldEstimator};
use tcim_graph::{Graph, GroupId, NodeId};
use tcim_service::{DatasetSpec, ModelKind, OracleCache, OracleSpec, ServiceError};

/// A live-edge-worlds estimator config (`num_worlds` samples, RNG `seed`) —
/// shorthand for `Campaign::estimator` / `ProblemSpec::with_estimator`.
pub fn worlds(num_worlds: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::Worlds(WorldsConfig { num_worlds, seed })
}

/// A reverse-reachable-sketch estimator config (`num_sets` sketches, RNG
/// `seed`) — the backend that wins on large sparse graphs.
pub fn ris(num_sets: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::Ris(RisConfig { num_sets, seed, ..Default::default() })
}

/// A Monte-Carlo estimator config: the `samples` keyed worlds with world
/// seeds `[seed, seed + samples)`, walked per query instead of stored — the
/// held-out re-scorer. Its estimates equal [`worlds`]`(samples, seed)`
/// bitwise, so re-score with a range disjoint from the solving pool's.
pub fn monte_carlo(samples: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::MonteCarlo { samples, seed }
}

#[derive(Clone)]
enum Source {
    Dataset(Dataset),
    Graph(Arc<Graph>),
}

/// Fluent builder for one fair-TCIM solve; see the [module docs](self) for
/// examples.
#[derive(Clone)]
pub struct Campaign {
    source: Source,
    dataset_seed: u64,
    model: ModelKind,
    deadline: Deadline,
    estimator: EstimatorConfig,
    objective: Option<Objective>,
    fairness: FairnessMode,
    algorithm: GreedyAlgorithm,
    candidates: Option<Vec<NodeId>>,
    cache: Option<Arc<OracleCache>>,
    /// First eager-validation failure, surfaced by `spec()` / `solve()`.
    error: Option<String>,
}

impl Campaign {
    fn new(source: Source) -> Self {
        Campaign {
            source,
            dataset_seed: 42,
            model: ModelKind::IndependentCascade,
            deadline: Deadline::unbounded(),
            estimator: EstimatorConfig::default(),
            objective: None,
            fairness: FairnessMode::Total,
            algorithm: GreedyAlgorithm::default(),
            candidates: None,
            cache: None,
            error: None,
        }
    }

    /// A campaign over a registry dataset (generator seed 42; override with
    /// [`Campaign::dataset_seed`]).
    pub fn on(dataset: Dataset) -> Self {
        Campaign::new(Source::Dataset(dataset))
    }

    /// A campaign over an explicitly built graph.
    pub fn on_graph(graph: Arc<Graph>) -> Self {
        Campaign::new(Source::Graph(graph))
    }

    /// A campaign over a typed synthetic scenario — the open counterpart of
    /// [`Campaign::on`]: any generator family × size × group model ×
    /// weight model, cached by the scenario's canonical fingerprint exactly
    /// like a named dataset. The spec is validated eagerly; a degenerate
    /// one surfaces from [`Campaign::solve`] naming the offending field.
    ///
    /// ```
    /// use fairtcim::prelude::*;
    ///
    /// let spec = ScenarioSpec::barabasi_albert(150, 3)?.with_homophily_bias(4.0)?;
    /// let report = Campaign::on_scenario(spec)
    ///     .deadline(5)
    ///     .estimator(worlds(32, 0))
    ///     .budget(3)
    ///     .solve()?;
    /// assert_eq!(report.num_seeds(), 3);
    /// # Ok::<(), fairtcim::core::CoreError>(())
    /// ```
    pub fn on_scenario(spec: ScenarioSpec) -> Self {
        let mut campaign = Campaign::new(Source::Dataset(Dataset::Scenario(spec.clone())));
        if let Err(err) = spec.validate() {
            campaign.record_message(err.to_string());
        }
        campaign
    }

    /// A campaign over a named scenario preset
    /// ([`ScenarioSpec::PRESET_NAMES`]); an unknown name is recorded as an
    /// eager error surfaced at solve time.
    pub fn on_scenario_preset(name: &str) -> Self {
        match ScenarioSpec::preset(name) {
            Some(spec) => Campaign::on_scenario(spec),
            None => {
                let mut campaign = Campaign::new(Source::Dataset(Dataset::Illustrative));
                campaign.record_message(format!(
                    "field 'scenario': unknown preset '{name}' (expected one of: {})",
                    ScenarioSpec::PRESET_NAMES.join(", ")
                ));
                campaign
            }
        }
    }

    /// Records the first eager-validation failure as its bare message (the
    /// builders only ever produce `InvalidConfig`, whose Display would
    /// otherwise double-prefix when re-wrapped by [`Campaign::spec`]).
    fn record(&mut self, err: CoreError) {
        let message = match err {
            CoreError::InvalidConfig { message } => message,
            other => other.to_string(),
        };
        self.record_message(message);
    }

    fn record_message(&mut self, message: impl Into<String>) {
        if self.error.is_none() {
            self.error = Some(message.into());
        }
    }

    /// Sets the surrogate-generator seed for dataset campaigns.
    pub fn dataset_seed(mut self, seed: u64) -> Self {
        self.dataset_seed = seed;
        self
    }

    /// Selects the diffusion model (independent cascade by default; the
    /// linear-threshold model requires the worlds estimator).
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Sets the deadline `τ` (`u32` for a finite horizon, or a
    /// [`Deadline`]).
    pub fn deadline(mut self, deadline: impl Into<Deadline>) -> Self {
        self.deadline = deadline.into();
        self
    }

    /// Selects the estimator backend (see [`worlds`], [`ris`],
    /// [`monte_carlo`]).
    pub fn estimator(mut self, config: EstimatorConfig) -> Self {
        self.estimator = config;
        self
    }

    /// Budget objective: select at most `budget` seeds (P1 family).
    pub fn budget(mut self, budget: usize) -> Self {
        match ProblemSpec::budget(budget) {
            Ok(spec) => self.objective = Some(spec.objective),
            Err(err) => self.record(err),
        }
        self
    }

    /// Cover objective: reach the coverage quota `Q ∈ [0, 1]` with the
    /// fewest seeds (P2 family).
    pub fn cover(mut self, quota: f64) -> Self {
        match ProblemSpec::cover(quota) {
            Ok(spec) => self.objective = Some(spec.objective),
            Err(err) => self.record(err),
        }
        self
    }

    fn update_cover(
        mut self,
        field: &str,
        apply: impl FnOnce(ProblemSpec) -> Result<ProblemSpec>,
    ) -> Self {
        match self.objective.take() {
            Some(objective @ Objective::Cover { .. }) => {
                let probe = ProblemSpec { objective, ..ProblemSpec::default() };
                match apply(probe) {
                    Ok(spec) => self.objective = Some(spec.objective),
                    Err(err) => self.record(err),
                }
            }
            other => {
                self.objective = other;
                self.record_message(format!(
                    "field '{field}': applies to cover campaigns; call cover() first"
                ));
            }
        }
        self
    }

    /// Numerical slack on the cover quota.
    pub fn tolerance(self, tolerance: f64) -> Self {
        self.update_cover("tolerance", |spec| spec.with_tolerance(tolerance))
    }

    /// Caps the seed count of a cover campaign.
    pub fn max_seeds(self, max_seeds: usize) -> Self {
        self.update_cover("max_seeds", |spec| spec.with_max_seeds(max_seeds))
    }

    /// Fair budget surrogate P4: maximize `Σ_i λ_i · H(f_τ(S; V_i))` with
    /// the concave wrapper `H` (keeps previously set [`Campaign::weights`]).
    pub fn fair(mut self, wrapper: ConcaveWrapper) -> Self {
        if !wrapper.is_valid() {
            self.record_message(format!(
                "field 'wrapper': concave wrapper {wrapper} has invalid parameters"
            ));
            return self;
        }
        let weights = match std::mem::take(&mut self.fairness) {
            FairnessMode::Concave { weights, .. } => weights,
            _ => None,
        };
        self.fairness = FairnessMode::Concave { wrapper, weights };
        self
    }

    /// Per-group multipliers `λ_i` for the fair budget surrogate; call after
    /// [`Campaign::fair`].
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        if weights.iter().any(|x| *x < 0.0 || x.is_nan()) {
            self.record_message("field 'weights': group weights must be non-negative");
            return self;
        }
        match &mut self.fairness {
            FairnessMode::Concave { weights: slot, .. } => *slot = Some(weights),
            _ => self.record_message("field 'weights': call fair(wrapper) before weights()"),
        }
        self
    }

    /// Fair cover P6: require the quota in *every* non-empty group.
    pub fn fair_per_group(mut self) -> Self {
        self.fairness = FairnessMode::GroupQuota { group: None };
        self
    }

    /// Single-group cover: require the quota in `group` alone (the Theorem 2
    /// per-group analysis).
    pub fn for_group(mut self, group: GroupId) -> Self {
        self.fairness = FairnessMode::GroupQuota { group: Some(group) };
        self
    }

    /// Disparity-capped solve (P3 for budgets, P5 for covers): the solver
    /// tunes the surrogate knobs to keep measured disparity within `cap`.
    pub fn disparity_cap(mut self, cap: f64) -> Self {
        if !(0.0..=1.0).contains(&cap) || cap.is_nan() {
            self.record_message(format!("field 'disparity_cap': must be in [0, 1], got {cap}"));
            return self;
        }
        self.fairness = FairnessMode::Constrained { disparity_cap: cap };
        self
    }

    /// Restricts seeds to an explicit candidate pool.
    pub fn candidates(mut self, candidates: Vec<NodeId>) -> Self {
        if candidates.is_empty() {
            self.record_message("field 'candidates': must not be empty");
            return self;
        }
        self.candidates = Some(candidates);
        self
    }

    /// Selects the greedy strategy (CELF lazy greedy by default).
    pub fn algorithm(mut self, algorithm: GreedyAlgorithm) -> Self {
        match ProblemSpec::budget(1).and_then(|spec| spec.with_algorithm(algorithm)) {
            Ok(spec) => self.algorithm = spec.algorithm,
            Err(err) => self.record(err),
        }
        self
    }

    /// Shares an [`OracleCache`] across campaigns (dataset campaigns only):
    /// graphs, LT tables and live-edge worlds build once and every further
    /// solve reuses them.
    pub fn shared_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    fn stored_error(&self) -> Option<CoreError> {
        self.error.as_ref().map(|message| CoreError::InvalidConfig {
            message: message.strip_prefix("invalid configuration: ").unwrap_or(message).to_string(),
        })
    }

    /// The assembled, validated [`ProblemSpec`] — pass it to
    /// `tcim_core::solve` against your own oracle, or render it to a service
    /// request.
    ///
    /// # Errors
    ///
    /// Surfaces the first eagerly recorded builder error, a missing
    /// objective, or any cross-field validation failure — always a
    /// [`CoreError::InvalidConfig`] naming the field.
    pub fn spec(&self) -> Result<ProblemSpec> {
        if let Some(err) = self.stored_error() {
            return Err(err);
        }
        let Some(objective) = self.objective.clone() else {
            return Err(CoreError::InvalidConfig {
                message: "field 'objective': set a budget or a cover quota before solving".into(),
            });
        };
        let spec = ProblemSpec {
            objective,
            fairness: self.fairness.clone(),
            algorithm: self.algorithm,
            candidates: self.candidates.clone(),
            deadline: Some(self.deadline),
            estimator: Some(self.estimator.clone()),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The campaign's graph (built through the shared cache when one is
    /// attached).
    ///
    /// # Errors
    ///
    /// Propagates dataset-generator failures.
    pub fn graph(&self) -> Result<Arc<Graph>> {
        match &self.source {
            Source::Graph(graph) => Ok(Arc::clone(graph)),
            Source::Dataset(dataset) => {
                let spec = DatasetSpec { dataset: dataset.clone(), seed: self.dataset_seed };
                if let Some(cache) = &self.cache {
                    return cache.graph(&spec).map_err(unwrap_service_error);
                }
                let bundle = dataset.build(self.dataset_seed).map_err(|err| {
                    CoreError::InvalidConfig { message: format!("dataset failed to build: {err}") }
                })?;
                Ok(Arc::new(bundle.graph))
            }
        }
    }

    fn build_oracle(&self, spec: &ProblemSpec) -> Result<Arc<Estimator>> {
        if let (Some(cache), Source::Dataset(dataset)) = (&self.cache, &self.source) {
            let oracle_spec = OracleSpec::for_spec(
                DatasetSpec { dataset: dataset.clone(), seed: self.dataset_seed },
                self.model,
                spec,
            );
            return cache.oracle(&oracle_spec).map_err(unwrap_service_error);
        }
        let graph = self.graph()?;
        let estimator = match (self.model, &self.estimator) {
            (ModelKind::IndependentCascade, config) => config.build(graph, self.deadline)?,
            (ModelKind::LinearThreshold, EstimatorConfig::Worlds(config)) => {
                Estimator::Worlds(WorldEstimator::new_lt(graph, self.deadline, config)?)
            }
            (ModelKind::LinearThreshold, _) => {
                return Err(CoreError::InvalidConfig {
                    message: "field 'estimator': the linear-threshold model requires the worlds \
                              estimator"
                        .into(),
                })
            }
        };
        Ok(Arc::new(estimator))
    }

    /// Builds (or fetches from the shared cache) the campaign's oracle and
    /// solves the assembled spec through `tcim_core::solve`.
    ///
    /// # Errors
    ///
    /// Surfaces builder/validation errors and propagates estimator or solver
    /// failures.
    pub fn solve(&self) -> Result<SolverReport> {
        let spec = self.spec()?;
        let oracle = self.build_oracle(&spec)?;
        tcim_core::solve(oracle.as_ref(), &spec)
    }

    /// Audits an explicit seed set with the campaign's oracle (no objective
    /// required): per-group influence, disparity, worst-off group.
    ///
    /// # Errors
    ///
    /// Surfaces builder errors and propagates estimator failures (e.g.
    /// out-of-bounds seeds).
    pub fn audit(&self, seeds: &[NodeId]) -> Result<FairnessReport> {
        if let Some(err) = self.stored_error() {
            return Err(err);
        }
        // The oracle identity only needs deadline + estimator; audits don't
        // carry an objective.
        let probe = ProblemSpec {
            deadline: Some(self.deadline),
            estimator: Some(self.estimator.clone()),
            ..ProblemSpec::default()
        };
        let oracle = self.build_oracle(&probe)?;
        audit_seed_set(oracle.as_ref(), seeds)
    }
}

/// Maps a service-layer error back to the core error type: solver errors
/// unwrap, request-shaped errors become `InvalidConfig`.
fn unwrap_service_error(err: ServiceError) -> CoreError {
    match err {
        ServiceError::Solver(core) => core,
        ServiceError::BadRequest { message } => CoreError::InvalidConfig { message },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_the_first_error_and_names_the_field() {
        let err = Campaign::on(Dataset::Illustrative).budget(0).solve().unwrap_err().to_string();
        assert!(err.contains("'budget'"), "{err}");
        let err = Campaign::on(Dataset::Illustrative).cover(1.5).solve().unwrap_err().to_string();
        assert!(err.contains("'quota'"), "{err}");
        let err = Campaign::on(Dataset::Illustrative)
            .budget(2)
            .tolerance(0.1)
            .solve()
            .unwrap_err()
            .to_string();
        assert!(err.contains("'tolerance'"), "{err}");
        let err = Campaign::on(Dataset::Illustrative)
            .budget(2)
            .weights(vec![1.0, 2.0])
            .solve()
            .unwrap_err()
            .to_string();
        assert!(err.contains("'weights'"), "{err}");
        let err = Campaign::on(Dataset::Illustrative).solve().unwrap_err().to_string();
        assert!(err.contains("'objective'"), "{err}");
        // Later errors do not mask the first one.
        let err = Campaign::on(Dataset::Illustrative)
            .budget(0)
            .disparity_cap(7.0)
            .solve()
            .unwrap_err()
            .to_string();
        assert!(err.contains("'budget'"), "{err}");
    }

    #[test]
    fn spec_assembles_the_full_problem() {
        let spec = Campaign::on(Dataset::Synthetic)
            .deadline(5)
            .estimator(ris(10_000, 3))
            .budget(25)
            .fair(ConcaveWrapper::Log)
            .weights(vec![1.0, 2.0])
            .spec()
            .unwrap();
        assert_eq!(spec.label(), "P4-log");
        assert_eq!(spec.deadline, Some(Deadline::finite(5)));
        assert_eq!(
            spec.fairness,
            FairnessMode::Concave { wrapper: ConcaveWrapper::Log, weights: Some(vec![1.0, 2.0]) }
        );
        assert!(spec.canonical().contains("ris:n=10000,s=3"));
    }

    #[test]
    fn campaigns_solve_against_graphs_datasets_and_caches() {
        // Graph-source campaign.
        let graph = Arc::new(Dataset::Illustrative.build(1).unwrap().graph);
        let direct = Campaign::on_graph(Arc::clone(&graph))
            .deadline(2)
            .estimator(worlds(32, 0))
            .budget(2)
            .solve()
            .unwrap();
        assert_eq!(direct.num_seeds(), 2);

        // Dataset campaign through a shared cache: same answer, one sample.
        let cache = Arc::new(OracleCache::new());
        let base = Campaign::on(Dataset::Illustrative)
            .dataset_seed(1)
            .shared_cache(Arc::clone(&cache))
            .deadline(2)
            .estimator(worlds(32, 0));
        let cached = base.clone().budget(2).solve().unwrap();
        assert_eq!(direct.seeds, cached.seeds);
        for (a, b) in direct.influence.values().iter().zip(cached.influence.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "cached campaign must match the direct solve");
        }
        // A second solve against the same campaign hits the cache.
        let fair = base.clone().budget(2).fair(ConcaveWrapper::Log).solve().unwrap();
        assert!(fair.disparity() <= cached.disparity() + 1e-9);
        assert_eq!(cache.stats().world_misses, 1);

        // Audit rides the same oracle path.
        let audit = base.audit(&direct.seeds).unwrap();
        assert!(audit.total > 0.0);
    }

    #[test]
    fn scenario_campaigns_solve_and_share_the_cache() {
        let spec = ScenarioSpec::sbm(120, 0.08, 0.01).unwrap();
        let cache = Arc::new(OracleCache::new());
        let base = Campaign::on_scenario(spec.clone())
            .shared_cache(Arc::clone(&cache))
            .deadline(4)
            .estimator(worlds(32, 0));
        let unfair = base.clone().budget(2).solve().unwrap();
        let fair = base.clone().budget(2).fair(ConcaveWrapper::Log).solve().unwrap();
        assert!(fair.disparity() <= unfair.disparity() + 1e-9);
        assert_eq!(cache.stats().world_misses, 1, "one scenario, one world pool");

        // The cached campaign answers match a cache-free campaign bitwise.
        let direct = Campaign::on_scenario(spec)
            .deadline(4)
            .estimator(worlds(32, 0))
            .budget(2)
            .solve()
            .unwrap();
        assert_eq!(direct.seeds, unfair.seeds);

        // Presets resolve; unknown presets surface naming the field.
        let preset = Campaign::on_scenario_preset("synthetic-sbm")
            .deadline(3)
            .estimator(worlds(16, 0))
            .budget(2)
            .solve()
            .unwrap();
        assert_eq!(preset.num_seeds(), 2);
        let err = Campaign::on_scenario_preset("twitter").budget(2).solve().unwrap_err();
        assert!(err.to_string().contains("unknown preset 'twitter'"), "{err}");

        // Invalid literal specs are recorded eagerly, naming the field.
        let invalid = ScenarioSpec { num_nodes: 0, ..ScenarioSpec::sbm(10, 0.1, 0.1).unwrap() };
        let err = Campaign::on_scenario(invalid).budget(1).solve().unwrap_err();
        assert!(err.to_string().contains("'nodes'"), "{err}");
    }

    #[test]
    fn linear_threshold_requires_the_worlds_estimator() {
        let err = Campaign::on(Dataset::Illustrative)
            .model(ModelKind::LinearThreshold)
            .estimator(monte_carlo(8, 0))
            .budget(1)
            .solve()
            .unwrap_err()
            .to_string();
        assert!(err.contains("worlds"), "{err}");
        let report = Campaign::on(Dataset::Illustrative)
            .model(ModelKind::LinearThreshold)
            .estimator(worlds(16, 0))
            .deadline(2)
            .budget(1)
            .solve()
            .unwrap();
        assert_eq!(report.num_seeds(), 1);
    }
}
