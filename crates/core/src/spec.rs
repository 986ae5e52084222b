//! The canonical, typed description of one fair-TCIM solve.
//!
//! Every problem the paper formulates — P1/P2 (unfair budget/cover), P4/P6
//! (the fair surrogates), the per-group cover of the Theorem 2 analysis and
//! the disparity-capped P3/P5 — is one point in a small configuration space:
//! an *objective* (spend a budget, or reach a coverage quota), a *fairness
//! mode* (none, concave surrogate, per-group quota, or an explicit disparity
//! cap), plus estimator, deadline and solver knobs. [`ProblemSpec`] spells
//! that space out as data and [`crate::solve`] executes any point of it.
//!
//! A spec is:
//!
//! * **validated eagerly** — the `with_*` builder methods reject degenerate
//!   values (budget 0, NaN quota, negative weights, …) with a
//!   [`CoreError::InvalidConfig`] naming the offending field, instead of
//!   deferring the error to solve time;
//! * **serializable** — [`ProblemSpec::canonical`] renders a stable,
//!   human-readable one-line encoding that solver reports echo
//!   ([`crate::SolverReport::spec`]) and the service layer keys its caches
//!   by; the JSONL wire codec lives in `tcim-service`'s protocol module;
//! * **self-describing** — [`ProblemSpec::label`] derives the paper's
//!   problem name ("P1", "P4-log", "P6", …) from the spec alone.
//!
//! ```
//! use tcim_core::{ProblemSpec, ConcaveWrapper};
//!
//! // P4 with the log surrogate, 25 seeds, restricted to a candidate pool.
//! let spec = ProblemSpec::budget(25)?
//!     .with_fairness_wrapper(ConcaveWrapper::Log)?
//!     .with_deadline(5u32);
//! assert_eq!(spec.label(), "P4-log");
//! assert!(spec.canonical().contains("budget:25"));
//! # Ok::<(), tcim_core::CoreError>(())
//! ```

use tcim_diffusion::Deadline;
use tcim_graph::{GroupId, NodeId};

use crate::concave::ConcaveWrapper;
use crate::error::{CoreError, Result};
use crate::oracle::EstimatorConfig;

/// What the solver optimizes / is constrained by.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Select at most `budget` seeds maximizing the (scalarized) influence
    /// (problems P1 / P3 / P4).
    Budget {
        /// Maximum number of seeds `B` (at least 1).
        budget: usize,
    },
    /// Select the smallest seed set reaching a coverage quota (problems
    /// P2 / P5 / P6 and the per-group cover).
    Cover {
        /// The coverage quota `Q ∈ [0, 1]`.
        quota: f64,
        /// Numerical slack on the quota (the oracle is a sampled estimate);
        /// the solver stops at `Q − tolerance`.
        tolerance: f64,
        /// Optional cap on the seed count (`None` = up to every candidate).
        max_seeds: Option<usize>,
    },
}

/// How fairness across groups enters the problem.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FairnessMode {
    /// No fairness pressure: optimize total influence (P1 / P2).
    #[default]
    Total,
    /// The FAIRTCIM-BUDGET surrogate `Σ_i λ_i · H(f_τ(S; V_i))` (P4).
    /// Budget objective only.
    Concave {
        /// The concave wrapper `H`.
        wrapper: ConcaveWrapper,
        /// Optional per-group multipliers `λ_i` (all 1 when `None`).
        weights: Option<Vec<f64>>,
    },
    /// Require the quota *per group* instead of on the whole population
    /// (P6 when `group` is `None`, the single-group cover of the Theorem 2
    /// analysis when `Some`). Cover objective only.
    GroupQuota {
        /// Restrict the quota to one group (`None` = every non-empty group).
        group: Option<GroupId>,
    },
    /// The paper's original constrained formulations P3 / P5: cap the
    /// measured disparity at `disparity_cap` and tune the surrogate knobs
    /// automatically (wrapper ladder for budgets, lifted quota for covers).
    Constrained {
        /// Maximum allowed Eq. 2 disparity `c ∈ [0, 1]`.
        disparity_cap: f64,
    },
}

/// Which greedy strategy drives the seed selection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GreedyAlgorithm {
    /// Plain greedy: scan every candidate at every step.
    Greedy,
    /// CELF lazy greedy (default): identical selection, far fewer
    /// marginal-gain evaluations.
    #[default]
    Lazy,
    /// Stochastic greedy with accuracy parameter `epsilon` and subsample RNG
    /// seed; used for very large candidate pools. Budget objectives only.
    Stochastic {
        /// Accuracy parameter in `(0, 1)`.
        epsilon: f64,
        /// RNG seed of the per-step subsampling.
        seed: u64,
    },
}

/// A typed, validated, serializable description of one full solve.
///
/// `deadline` and `estimator` are descriptive: [`crate::solve`] checks the
/// deadline against the oracle it is handed (when declared) and the service
/// layer builds (and caches) oracles from them; `None` means "whatever
/// oracle you pass in".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProblemSpec {
    /// What to optimize (defaulted to a 1-seed budget by `Default`; use the
    /// [`ProblemSpec::budget`] / [`ProblemSpec::cover`] constructors).
    pub objective: Objective,
    /// Fairness mode.
    pub fairness: FairnessMode,
    /// Greedy strategy driving the seed selection.
    pub algorithm: GreedyAlgorithm,
    /// Optional candidate pool the seeds must come from (`None` = every
    /// node).
    pub candidates: Option<Vec<NodeId>>,
    /// The deadline `τ` the influence oracle must be built for.
    pub deadline: Option<Deadline>,
    /// The estimator backend the influence oracle should use.
    pub estimator: Option<EstimatorConfig>,
}

impl Default for Objective {
    fn default() -> Self {
        Objective::Budget { budget: 1 }
    }
}

fn invalid(field: &str, detail: impl std::fmt::Display) -> CoreError {
    CoreError::InvalidConfig { message: format!("field '{field}': {detail}") }
}

impl ProblemSpec {
    /// A budget-constrained spec (problem P1 until a fairness mode is set).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming `budget` when it is 0.
    pub fn budget(budget: usize) -> Result<Self> {
        if budget == 0 {
            return Err(invalid("budget", "must be at least 1"));
        }
        Ok(ProblemSpec { objective: Objective::Budget { budget }, ..ProblemSpec::default() })
    }

    /// A coverage-constrained spec (problem P2 until a fairness mode is
    /// set), with zero tolerance and no seed cap.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming `quota` when it is NaN or
    /// outside `[0, 1]`.
    pub fn cover(quota: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&quota) || quota.is_nan() {
            return Err(invalid("quota", format!("must be in [0, 1], got {quota}")));
        }
        Ok(ProblemSpec {
            objective: Objective::Cover { quota, tolerance: 0.0, max_seeds: None },
            ..ProblemSpec::default()
        })
    }

    /// Sets the fairness mode, validating its parameters eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending field
    /// (invalid wrapper, negative/NaN weight, out-of-range cap, or a mode
    /// that does not apply to this objective).
    pub fn with_fairness(mut self, fairness: FairnessMode) -> Result<Self> {
        match &fairness {
            FairnessMode::Total => {}
            FairnessMode::Concave { wrapper, weights } => {
                if matches!(self.objective, Objective::Cover { .. }) {
                    return Err(invalid(
                        "fairness",
                        "the concave surrogate applies to the budget objective; \
                         use GroupQuota for covers",
                    ));
                }
                if !wrapper.is_valid() {
                    return Err(invalid(
                        "wrapper",
                        format!("concave wrapper {wrapper} has invalid parameters"),
                    ));
                }
                if let Some(w) = weights {
                    if w.iter().any(|x| *x < 0.0 || x.is_nan()) {
                        return Err(invalid("weights", "group weights must be non-negative"));
                    }
                }
            }
            FairnessMode::GroupQuota { .. } => {
                if matches!(self.objective, Objective::Budget { .. }) {
                    return Err(invalid(
                        "fairness",
                        "the per-group quota applies to the cover objective; \
                         use Concave for budgets",
                    ));
                }
            }
            FairnessMode::Constrained { disparity_cap } => {
                if !(0.0..=1.0).contains(disparity_cap) || disparity_cap.is_nan() {
                    return Err(invalid(
                        "disparity_cap",
                        format!("must be in [0, 1], got {disparity_cap}"),
                    ));
                }
            }
        }
        self.fairness = fairness;
        Ok(self)
    }

    /// Shorthand for the P4 surrogate with uniform weights.
    ///
    /// # Errors
    ///
    /// Same as [`ProblemSpec::with_fairness`].
    pub fn with_fairness_wrapper(self, wrapper: ConcaveWrapper) -> Result<Self> {
        self.with_fairness(FairnessMode::Concave { wrapper, weights: None })
    }

    /// Sets the quota tolerance of a cover spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming `tolerance` when it is
    /// negative or NaN, or when the objective is not a cover.
    pub fn with_tolerance(mut self, tolerance: f64) -> Result<Self> {
        let Objective::Cover { tolerance: slot, .. } = &mut self.objective else {
            return Err(invalid("tolerance", "applies to the cover objective only"));
        };
        if tolerance < 0.0 || tolerance.is_nan() {
            return Err(invalid("tolerance", format!("must be non-negative, got {tolerance}")));
        }
        *slot = tolerance;
        Ok(self)
    }

    /// Caps the seed count of a cover spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming `max_seeds` when it is 0
    /// (a cover that may select nothing) or the objective is not a cover.
    pub fn with_max_seeds(mut self, max_seeds: usize) -> Result<Self> {
        let Objective::Cover { max_seeds: slot, .. } = &mut self.objective else {
            return Err(invalid("max_seeds", "applies to the cover objective only"));
        };
        if max_seeds == 0 {
            return Err(invalid("max_seeds", "must be at least 1"));
        }
        *slot = Some(max_seeds);
        Ok(self)
    }

    /// Restricts the seeds to an explicit candidate pool.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming `candidates` when the
    /// pool is empty (bounds are checked against the oracle at solve time).
    pub fn with_candidates(mut self, candidates: Vec<NodeId>) -> Result<Self> {
        check_candidates(&candidates)?;
        self.candidates = Some(candidates);
        Ok(self)
    }

    /// Selects the greedy strategy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming `epsilon` for a
    /// stochastic-greedy accuracy outside `(0, 1)`, or `algorithm` for
    /// stochastic greedy on a cover (covers run lazy or plain greedy).
    pub fn with_algorithm(mut self, algorithm: GreedyAlgorithm) -> Result<Self> {
        if let GreedyAlgorithm::Stochastic { epsilon, .. } = algorithm {
            if matches!(self.objective, Objective::Cover { .. }) {
                return Err(invalid(
                    "algorithm",
                    "stochastic greedy applies to the budget objective; covers accept \
                     lazy or greedy",
                ));
            }
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(invalid(
                    "epsilon",
                    format!("stochastic greedy epsilon {epsilon} must be in (0, 1)"),
                ));
            }
        }
        self.algorithm = algorithm;
        Ok(self)
    }

    /// Declares the deadline `τ` (checked against the oracle at solve time).
    pub fn with_deadline(mut self, deadline: impl Into<Deadline>) -> Self {
        self.deadline = Some(deadline.into());
        self
    }

    /// Declares the estimator backend (used by the oracle-building paths).
    pub fn with_estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Full validation of a spec, including one assembled field-by-field.
    /// [`crate::solve`] calls this first. Implemented by replaying every
    /// field through the eager builders, so the checks (and their messages)
    /// live in exactly one place and literal construction cannot bypass
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let probe = match &self.objective {
            Objective::Budget { budget } => ProblemSpec::budget(*budget)?,
            Objective::Cover { quota, tolerance, max_seeds } => {
                let spec = ProblemSpec::cover(*quota)?.with_tolerance(*tolerance)?;
                match max_seeds {
                    Some(cap) => spec.with_max_seeds(*cap)?,
                    None => spec,
                }
            }
        };
        probe.with_fairness(self.fairness.clone())?.with_algorithm(self.algorithm)?;
        if let Some(candidates) = &self.candidates {
            check_candidates(candidates)?;
        }
        Ok(())
    }

    /// The paper's problem name, derived from the spec alone: "P1",
    /// "P4-log", "P3", "P2", "P6", "P2-g1", "P5", …
    pub fn label(&self) -> String {
        match (&self.objective, &self.fairness) {
            (Objective::Budget { .. }, FairnessMode::Total) => "P1".to_string(),
            (Objective::Budget { .. }, FairnessMode::Concave { wrapper, .. }) => {
                format!("P4-{wrapper}")
            }
            (Objective::Budget { .. }, FairnessMode::Constrained { .. }) => "P3".to_string(),
            (Objective::Cover { .. }, FairnessMode::Total) => "P2".to_string(),
            (Objective::Cover { .. }, FairnessMode::GroupQuota { group: None }) => "P6".to_string(),
            (Objective::Cover { .. }, FairnessMode::GroupQuota { group: Some(g) }) => {
                format!("P2-{g}")
            }
            (Objective::Cover { .. }, FairnessMode::Constrained { .. }) => "P5".to_string(),
            // Invalid combinations never reach a solver; give them an
            // honest name anyway for debugging output.
            _ => "P?".to_string(),
        }
    }

    /// A stable, human-readable one-line encoding of the spec. Reports echo
    /// it ([`crate::SolverReport::spec`]) so every result names the exact
    /// problem that produced it, and cache keys derive from it.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("tcim:");
        match &self.objective {
            Objective::Budget { budget } => {
                let _ = write!(out, "budget:{budget}");
            }
            Objective::Cover { quota, tolerance, max_seeds } => {
                let _ = write!(out, "cover:{quota}");
                if *tolerance != 0.0 {
                    let _ = write!(out, ",tol={tolerance}");
                }
                if let Some(cap) = max_seeds {
                    let _ = write!(out, ",max={cap}");
                }
            }
        }
        out.push('|');
        match &self.fairness {
            FairnessMode::Total => out.push_str("total"),
            FairnessMode::Concave { wrapper, weights } => {
                let _ = write!(out, "concave:{wrapper}");
                if let Some(w) = weights {
                    let rendered: Vec<String> = w.iter().map(|x| x.to_string()).collect();
                    let _ = write!(out, ",w=[{}]", rendered.join(","));
                }
            }
            FairnessMode::GroupQuota { group: None } => out.push_str("group-quota"),
            FairnessMode::GroupQuota { group: Some(g) } => {
                let _ = write!(out, "group-quota:{g}");
            }
            FairnessMode::Constrained { disparity_cap } => {
                let _ = write!(out, "cap:{disparity_cap}");
            }
        }
        match &self.algorithm {
            GreedyAlgorithm::Lazy => out.push_str("|lazy"),
            GreedyAlgorithm::Greedy => out.push_str("|greedy"),
            GreedyAlgorithm::Stochastic { epsilon, seed } => {
                let _ = write!(out, "|stochastic:eps={epsilon},seed={seed}");
            }
        }
        match &self.candidates {
            None => out.push_str("|cand=all"),
            Some(pool) => {
                let _ = write!(out, "|cand={}#{:016x}", pool.len(), fnv1a_nodes(pool));
            }
        }
        if let Some(deadline) = &self.deadline {
            let _ = write!(out, "|tau={deadline}");
        }
        if let Some(estimator) = &self.estimator {
            let _ = write!(out, "|{}", estimator.fingerprint());
        }
        out
    }
}

fn check_candidates(candidates: &[NodeId]) -> Result<()> {
    if candidates.is_empty() {
        return Err(invalid("candidates", "must not be empty"));
    }
    Ok(())
}

/// FNV-1a over the candidate node ids: candidate pools can hold thousands of
/// nodes (the Instagram experiment uses 5000), so the canonical form carries
/// a digest instead of the full list.
fn fnv1a_nodes(nodes: &[NodeId]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for node in nodes {
        for byte in node.0.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_diffusion::WorldsConfig;

    #[test]
    fn degenerate_values_are_rejected_eagerly_naming_the_field() {
        let err = ProblemSpec::budget(0).unwrap_err().to_string();
        assert!(err.contains("'budget'"), "{err}");
        for quota in [f64::NAN, -0.1, 1.5] {
            let err = ProblemSpec::cover(quota).unwrap_err().to_string();
            assert!(err.contains("'quota'"), "{err}");
        }
        let err = ProblemSpec::cover(0.2).unwrap().with_tolerance(-1.0).unwrap_err().to_string();
        assert!(err.contains("'tolerance'"), "{err}");
        let err = ProblemSpec::budget(1)
            .unwrap()
            .with_fairness_wrapper(ConcaveWrapper::Power(2.0))
            .unwrap_err()
            .to_string();
        assert!(err.contains("'wrapper'"), "{err}");
        let err = ProblemSpec::budget(1)
            .unwrap()
            .with_fairness(FairnessMode::Concave {
                wrapper: ConcaveWrapper::Log,
                weights: Some(vec![1.0, -2.0]),
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("'weights'"), "{err}");
        let err = ProblemSpec::budget(1)
            .unwrap()
            .with_fairness(FairnessMode::Constrained { disparity_cap: 1.5 })
            .unwrap_err()
            .to_string();
        assert!(err.contains("'disparity_cap'"), "{err}");
        let err =
            ProblemSpec::budget(1).unwrap().with_candidates(Vec::new()).unwrap_err().to_string();
        assert!(err.contains("'candidates'"), "{err}");
        let err = ProblemSpec::budget(1)
            .unwrap()
            .with_algorithm(GreedyAlgorithm::Stochastic { epsilon: 1.5, seed: 0 })
            .unwrap_err()
            .to_string();
        assert!(err.contains("'epsilon'"), "{err}");
    }

    #[test]
    fn objective_fairness_combinations_are_checked() {
        // Concave surrogate on a cover is meaningless.
        assert!(ProblemSpec::cover(0.2)
            .unwrap()
            .with_fairness_wrapper(ConcaveWrapper::Log)
            .is_err());
        // Group quota on a budget is meaningless.
        assert!(ProblemSpec::budget(5)
            .unwrap()
            .with_fairness(FairnessMode::GroupQuota { group: None })
            .is_err());
        // Cover knobs on a budget are rejected.
        assert!(ProblemSpec::budget(5).unwrap().with_tolerance(0.1).is_err());
        assert!(ProblemSpec::budget(5).unwrap().with_max_seeds(3).is_err());
        // Literal construction cannot bypass the combination checks.
        let bypassed = ProblemSpec {
            objective: Objective::Cover { quota: 0.2, tolerance: 0.0, max_seeds: None },
            fairness: FairnessMode::Concave { wrapper: ConcaveWrapper::Log, weights: None },
            ..ProblemSpec::default()
        };
        assert!(bypassed.validate().is_err());
        // Covers run lazy or plain greedy; stochastic greedy is rejected by
        // the builder and by validation of a literal spec alike.
        let stochastic = GreedyAlgorithm::Stochastic { epsilon: 0.1, seed: 0 };
        let err = ProblemSpec::cover(0.2).unwrap().with_algorithm(stochastic).unwrap_err();
        assert!(err.to_string().contains("'algorithm'"), "{err}");
        let literal = ProblemSpec {
            objective: Objective::Cover { quota: 0.2, tolerance: 0.0, max_seeds: None },
            algorithm: stochastic,
            ..ProblemSpec::default()
        };
        let err = literal.validate().unwrap_err();
        assert!(err.to_string().contains("'algorithm'"), "{err}");
        for algorithm in [GreedyAlgorithm::Lazy, GreedyAlgorithm::Greedy] {
            assert!(ProblemSpec::cover(0.2).unwrap().with_algorithm(algorithm).is_ok());
        }
        assert!(ProblemSpec::budget(2).unwrap().with_algorithm(stochastic).is_ok());
    }

    #[test]
    fn labels_derive_from_the_spec() {
        assert_eq!(ProblemSpec::budget(5).unwrap().label(), "P1");
        assert_eq!(
            ProblemSpec::budget(5)
                .unwrap()
                .with_fairness_wrapper(ConcaveWrapper::Sqrt)
                .unwrap()
                .label(),
            "P4-sqrt"
        );
        assert_eq!(
            ProblemSpec::budget(5)
                .unwrap()
                .with_fairness(FairnessMode::Constrained { disparity_cap: 0.2 })
                .unwrap()
                .label(),
            "P3"
        );
        assert_eq!(ProblemSpec::cover(0.2).unwrap().label(), "P2");
        assert_eq!(
            ProblemSpec::cover(0.2)
                .unwrap()
                .with_fairness(FairnessMode::GroupQuota { group: None })
                .unwrap()
                .label(),
            "P6"
        );
        assert_eq!(
            ProblemSpec::cover(0.2)
                .unwrap()
                .with_fairness(FairnessMode::GroupQuota { group: Some(GroupId(1)) })
                .unwrap()
                .label(),
            "P2-g1"
        );
        assert_eq!(
            ProblemSpec::cover(0.2)
                .unwrap()
                .with_fairness(FairnessMode::Constrained { disparity_cap: 0.2 })
                .unwrap()
                .label(),
            "P5"
        );
    }

    #[test]
    fn canonical_encoding_is_stable_and_discriminating() {
        let base = ProblemSpec::budget(25)
            .unwrap()
            .with_fairness_wrapper(ConcaveWrapper::Log)
            .unwrap()
            .with_deadline(5u32)
            .with_estimator(EstimatorConfig::Worlds(WorldsConfig { num_worlds: 200, seed: 7 }));
        assert_eq!(
            base.canonical(),
            "tcim:budget:25|concave:log|lazy|cand=all|tau=5|worlds:n=200,s=7"
        );
        // Every knob separates the encoding.
        let other = base.clone().with_deadline(Deadline::unbounded());
        assert_ne!(base.canonical(), other.canonical());
        let candidates = base.clone().with_candidates(vec![NodeId(1), NodeId(2)]).unwrap();
        assert_ne!(base.canonical(), candidates.canonical());
        let reordered = base.clone().with_candidates(vec![NodeId(2), NodeId(1)]).unwrap();
        assert_ne!(candidates.canonical(), reordered.canonical());

        let cover = ProblemSpec::cover(0.2)
            .unwrap()
            .with_tolerance(0.05)
            .unwrap()
            .with_max_seeds(40)
            .unwrap()
            .with_fairness(FairnessMode::GroupQuota { group: None })
            .unwrap();
        assert_eq!(cover.canonical(), "tcim:cover:0.2,tol=0.05,max=40|group-quota|lazy|cand=all");
    }
}
