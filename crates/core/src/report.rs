//! Solver output types: seed sets plus per-iteration records.

use tcim_diffusion::GroupInfluence;
use tcim_graph::NodeId;

use crate::concave::ConcaveWrapper;
use crate::fairness::FairnessReport;

/// One committed seed during greedy selection.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// The seed committed at this iteration.
    pub seed: NodeId,
    /// Influence of the seed set *after* committing this seed, as estimated
    /// by the solver's oracle.
    pub influence: GroupInfluence,
    /// Value of the surrogate objective the solver was maximizing, after this
    /// iteration.
    pub objective_value: f64,
}

/// Outcome of the coverage stopping rule; present on cover solves.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverOutcome {
    /// The per-population (or per-group) quota the solver enforced. For
    /// disparity-capped solves this is the *effective* (lifted) quota.
    pub quota: f64,
    /// Whether the quota was reached before running out of candidates.
    pub reached: bool,
}

/// Outcome of a disparity-capped solve (P3 / P5); records which surrogate
/// knobs the automatic tuning settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedOutcome {
    /// The requested disparity cap `c`.
    pub disparity_cap: f64,
    /// Whether the returned solution's measured disparity satisfies the cap
    /// (for covers: plus the original coverage constraint).
    pub feasible: bool,
    /// The concave wrapper the ladder sweep settled on (budget solves).
    pub wrapper: Option<ConcaveWrapper>,
    /// The per-group weights the sweep settled on (`None` = uniform).
    pub weights: Option<Vec<f64>>,
    /// The lifted per-group quota `max(Q, 1 − c)` (cover solves).
    pub effective_quota: Option<f64>,
}

/// Result of one solve: the seed set, its influence, per-iteration records
/// and — for quota- or cap-driven problems — the objective-specific outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverReport {
    /// Selected seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Influence of the final seed set (per group), estimated by the solver's
    /// oracle.
    pub influence: GroupInfluence,
    /// Group sizes of the underlying graph.
    pub group_sizes: Vec<usize>,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Number of marginal-gain oracle calls issued by the solver.
    pub gain_evaluations: usize,
    /// Human-readable label of the problem / algorithm ("P1", "P4-log", ...),
    /// derived from the spec for spec-driven solves.
    pub label: String,
    /// Canonical encoding of the [`crate::ProblemSpec`] that produced this
    /// report ([`crate::ProblemSpec::canonical`]); `None` for hand-assembled
    /// reports such as baseline evaluations.
    pub spec: Option<String>,
    /// Coverage outcome; `Some` exactly for cover solves.
    pub cover: Option<CoverOutcome>,
    /// Disparity-cap outcome; `Some` exactly for P3 / P5 solves.
    pub constrained: Option<ConstrainedOutcome>,
}

impl SolverReport {
    /// Fairness summary of the final seed set.
    ///
    /// # Panics
    ///
    /// Panics if the report was hand-assembled with an `influence` vector
    /// whose group count differs from `group_sizes`, or with NaN utilities.
    /// Solver-produced reports always derive both from the same oracle, so
    /// the invariant holds by construction.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract — solver-built reports satisfy it by construction"
    )]
    pub fn fairness(&self) -> FairnessReport {
        FairnessReport::new(&self.influence, &self.group_sizes)
            .expect("solver reports pair influence and group sizes from the same oracle")
    }

    /// Normalized total influence `f_τ(S; V) / |V|`.
    pub fn total_fraction(&self) -> f64 {
        self.fairness().total_fraction
    }

    /// The Eq. 2 disparity of the final seed set.
    pub fn disparity(&self) -> f64 {
        self.fairness().disparity
    }

    /// Number of selected seeds.
    pub fn num_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Fairness summary after `i + 1` seeds (for iteration plots like
    /// Fig. 6a / 8a). Returns `None` past the end.
    ///
    /// # Panics
    ///
    /// Same invariant as [`SolverReport::fairness`].
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract — solver-built reports satisfy it by construction"
    )]
    pub fn fairness_at(&self, i: usize) -> Option<FairnessReport> {
        self.iterations.get(i).map(|rec| {
            FairnessReport::new(&rec.influence, &self.group_sizes)
                .expect("solver reports pair influence and group sizes from the same oracle")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SolverReport {
        SolverReport {
            seeds: vec![NodeId(3), NodeId(7)],
            influence: GroupInfluence::from_values(vec![20.0, 5.0]),
            group_sizes: vec![100, 50],
            iterations: vec![
                IterationRecord {
                    seed: NodeId(3),
                    influence: GroupInfluence::from_values(vec![12.0, 1.0]),
                    objective_value: 13.0,
                },
                IterationRecord {
                    seed: NodeId(7),
                    influence: GroupInfluence::from_values(vec![20.0, 5.0]),
                    objective_value: 25.0,
                },
            ],
            gain_evaluations: 42,
            label: "P1".to_string(),
            spec: None,
            cover: None,
            constrained: None,
        }
    }

    #[test]
    fn report_accessors() {
        let report = sample_report();
        assert_eq!(report.num_seeds(), 2);
        assert!((report.total_fraction() - 25.0 / 150.0).abs() < 1e-12);
        assert!((report.disparity() - (0.2 - 0.1)).abs() < 1e-12);
        let at0 = report.fairness_at(0).unwrap();
        assert!((at0.total - 13.0).abs() < 1e-12);
        assert!(report.fairness_at(5).is_none());
    }
}
