//! The single solver entrypoint: execute any [`ProblemSpec`] against any
//! influence oracle.
//!
//! [`solve`] subsumes the seven historical free functions
//! (`solve_tcim_budget`, `solve_fair_tcim_budget`, `solve_tcim_cover`,
//! `solve_fair_tcim_cover`, `solve_group_tcim_cover`,
//! `solve_constrained_budget`, `solve_constrained_cover`) — all of which
//! survive as thin deprecated shims over it. Dispatch is a pure function of
//! `(objective, fairness)`:
//!
//! | objective | fairness | problem | scalarization |
//! |-----------|----------|---------|---------------|
//! | `Budget`  | `Total` | P1 | `Σ_i f_i` |
//! | `Budget`  | `Concave` | P4 | `Σ_i λ_i · H(f_i)` |
//! | `Budget`  | `Constrained` | P3 | wrapper-ladder sweep over P4 |
//! | `Cover`   | `Total` | P2 | `f / |V|` to quota `Q` |
//! | `Cover`   | `GroupQuota` | P6 (or per-group P2) | `Σ_i min(f_i/|V_i|, Q)` |
//! | `Cover`   | `Constrained` | P5 | P6 at the lifted quota `max(Q, 1−c)` |
//!
//! Adding a scenario is adding an enum variant and a match arm here — not an
//! eighth free function replicated through every consumer.

use tcim_diffusion::InfluenceOracle;
use tcim_graph::NodeId;
use tcim_submodular::{
    cover_greedy, cover_lazy, maximize_greedy, maximize_lazy, maximize_stochastic,
    CoverConfig as SubmodularCoverConfig, SelectionTrace, StochasticGreedyConfig,
};

use crate::concave::ConcaveWrapper;
use crate::error::{CoreError, Result};
use crate::objective::{InfluenceObjective, Scalarization};
use crate::problems::constrained::DEFAULT_WRAPPER_LADDER;
use crate::problems::{final_influence, replay_influence, resolve_candidates, GreedyAlgorithm};
use crate::report::{ConstrainedOutcome, CoverOutcome, SolverReport};
use crate::spec::{FairnessMode, Objective, ProblemSpec};

/// Solves the problem described by `spec` with `oracle`.
///
/// The report's `label` and `spec` echo derive from the spec
/// ([`ProblemSpec::label`] / [`ProblemSpec::canonical`]); cover and
/// disparity-capped solves additionally carry their
/// [`CoverOutcome`] / [`ConstrainedOutcome`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] naming the offending field for an
/// invalid spec, a deadline mismatch with the oracle, a wrong-length weight
/// vector, an unknown group or out-of-bounds candidates; estimator failures
/// propagate.
pub fn solve(oracle: &dyn InfluenceOracle, spec: &ProblemSpec) -> Result<SolverReport> {
    spec.validate()?;
    if let Some(declared) = spec.deadline {
        let actual = oracle.deadline();
        if actual != declared {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "field 'deadline': spec declares tau = {declared} but the oracle was built \
                     for tau = {actual}"
                ),
            });
        }
    }
    match (&spec.objective, &spec.fairness) {
        (Objective::Budget { budget }, FairnessMode::Total) => {
            solve_budget(oracle, spec, *budget, Scalarization::Total)
        }
        (Objective::Budget { budget }, FairnessMode::Concave { wrapper, weights }) => {
            check_weight_count(oracle, weights)?;
            let scalarization =
                Scalarization::Concave { wrapper: *wrapper, weights: weights.clone() };
            solve_budget(oracle, spec, *budget, scalarization)
        }
        (Objective::Budget { budget }, FairnessMode::Constrained { disparity_cap }) => {
            constrained_budget_sweep(oracle, spec, *budget, *disparity_cap)
        }
        (Objective::Cover { quota, .. }, FairnessMode::Total) => {
            let population = oracle.graph().num_nodes();
            let scalarization = Scalarization::NormalizedTotal { population };
            solve_cover(oracle, spec, scalarization, *quota, *quota)
        }
        (Objective::Cover { quota, .. }, FairnessMode::GroupQuota { group: None }) => {
            let group_sizes = oracle.graph().group_sizes();
            let non_empty = group_sizes.iter().filter(|&&s| s > 0).count();
            let target = quota * non_empty as f64;
            let scalarization = Scalarization::TruncatedQuota { quota: *quota, group_sizes };
            solve_cover(oracle, spec, scalarization, target, *quota)
        }
        (Objective::Cover { quota, .. }, FairnessMode::GroupQuota { group: Some(group) }) => {
            let mut group_sizes = oracle.graph().group_sizes();
            if group.index() >= group_sizes.len() || group_sizes[group.index()] == 0 {
                return Err(CoreError::InvalidConfig {
                    message: format!("field 'group': group {group} does not exist or is empty"),
                });
            }
            // Zero out every other group so only the target group's
            // (truncated) coverage counts towards objective and target.
            for (i, size) in group_sizes.iter_mut().enumerate() {
                if i != group.index() {
                    *size = 0;
                }
            }
            let scalarization = Scalarization::TruncatedQuota { quota: *quota, group_sizes };
            solve_cover(oracle, spec, scalarization, *quota, *quota)
        }
        (Objective::Cover { quota, .. }, FairnessMode::Constrained { disparity_cap }) => {
            constrained_cover_lift(oracle, spec, *quota, *disparity_cap)
        }
        // `ProblemSpec::validate` rejects (Budget, GroupQuota) and
        // (Cover, Concave) before dispatch.
        // lint:allow(panic): validate() runs before dispatch and rejects these combinations
        _ => unreachable!("validate() rejects incompatible objective/fairness combinations"),
    }
}

fn check_weight_count(oracle: &dyn InfluenceOracle, weights: &Option<Vec<f64>>) -> Result<()> {
    if let Some(w) = weights {
        let k = oracle.graph().num_groups();
        if w.len() != k {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "field 'weights': weight vector has {} entries for {k} groups",
                    w.len()
                ),
            });
        }
    }
    Ok(())
}

/// Shared budget driver: resolve candidates, run the chosen greedy variant
/// on the scalarized incremental objective, assemble the report.
fn solve_budget(
    oracle: &dyn InfluenceOracle,
    spec: &ProblemSpec,
    budget: usize,
    scalarization: Scalarization,
) -> Result<SolverReport> {
    let ground = resolve_candidates(oracle, spec.candidates.as_deref())?;
    let mut objective = InfluenceObjective::new(oracle.cursor(), scalarization);
    let trace = run_greedy(&mut objective, &ground, budget, spec.algorithm)?;
    build_report(oracle, &trace, spec.label(), Some(spec.canonical()))
}

/// Shared cover driver: greedy cover (lazy unless the spec asks for the
/// plain scan) on the scalarized objective until `target`, attaching the
/// coverage outcome.
fn solve_cover(
    oracle: &dyn InfluenceOracle,
    spec: &ProblemSpec,
    scalarization: Scalarization,
    target: f64,
    outcome_quota: f64,
) -> Result<SolverReport> {
    let Objective::Cover { tolerance, max_seeds, .. } = spec.objective else {
        // lint:allow(panic): the dispatch match above only routes cover objectives here
        unreachable!("solve_cover is only dispatched for cover objectives")
    };
    let ground = resolve_candidates(oracle, spec.candidates.as_deref())?;
    let mut objective = InfluenceObjective::new(oracle.cursor(), scalarization);
    let config = SubmodularCoverConfig { target, tolerance, max_items: max_seeds };
    let result = match spec.algorithm {
        GreedyAlgorithm::Greedy => cover_greedy(&mut objective, &ground, &config)?,
        // `ProblemSpec::validate` rejects stochastic covers before dispatch.
        GreedyAlgorithm::Lazy | GreedyAlgorithm::Stochastic { .. } => {
            cover_lazy(&mut objective, &ground, &config)?
        }
    };
    let mut report = build_report(oracle, &result.trace, spec.label(), Some(spec.canonical()))?;
    report.cover = Some(CoverOutcome { quota: outcome_quota, reached: result.reached });
    Ok(report)
}

/// P3: sweep the wrapper ladder (then minority up-weighting) for the
/// highest-influence solution within the disparity cap; fall back to the
/// least disparate solution, flagged infeasible, when none qualifies.
fn constrained_budget_sweep(
    oracle: &dyn InfluenceOracle,
    spec: &ProblemSpec,
    budget: usize,
    disparity_cap: f64,
) -> Result<SolverReport> {
    struct Candidate {
        report: SolverReport,
        wrapper: ConcaveWrapper,
        weights: Option<Vec<f64>>,
        feasible: bool,
    }

    let mut best_feasible: Option<Candidate> = None;
    let mut least_disparate: Option<Candidate> = None;
    // Worst-off group under the unweighted Log rung, which the ladder always
    // reaches when no rung is feasible; the up-weighting lever targets it.
    let mut log_worst_off = None;

    let consider = |best_feasible: &mut Option<Candidate>,
                    least_disparate: &mut Option<Candidate>,
                    candidate: Candidate| {
        if candidate.feasible {
            let better = best_feasible
                .as_ref()
                .map(|b| candidate.report.influence.total() > b.report.influence.total())
                .unwrap_or(true);
            if better {
                *best_feasible = Some(Candidate {
                    report: candidate.report.clone(),
                    wrapper: candidate.wrapper,
                    weights: candidate.weights.clone(),
                    feasible: candidate.feasible,
                });
            }
        }
        let lower = least_disparate
            .as_ref()
            .map(|b| candidate.report.disparity() < b.report.disparity())
            .unwrap_or(true);
        if lower {
            *least_disparate = Some(candidate);
        }
    };

    for wrapper in DEFAULT_WRAPPER_LADDER {
        let report =
            solve_budget(oracle, spec, budget, Scalarization::Concave { wrapper, weights: None })?;
        let feasible = report.disparity() <= disparity_cap + 1e-9;
        if wrapper == ConcaveWrapper::Log {
            log_worst_off = report.fairness().worst_off_group();
        }
        consider(
            &mut best_feasible,
            &mut least_disparate,
            Candidate { report, wrapper, weights: None, feasible },
        );
        // The ladder is ordered by curvature; keep scanning past the first
        // feasible rung (curvature/influence is not perfectly monotone on
        // sampled objectives) but stop once a non-identity rung is feasible.
        if best_feasible.is_some() && feasible && wrapper != DEFAULT_WRAPPER_LADDER[0] {
            break;
        }
    }

    if best_feasible.is_none() {
        // Second lever: up-weight the worst-off group under the most curved
        // wrapper.
        let k = oracle.graph().num_groups();
        if let Some(worst) = log_worst_off {
            for boost in [4.0, 16.0, 64.0] {
                let mut weights = vec![1.0; k];
                weights[worst.index()] = boost;
                let report = solve_budget(
                    oracle,
                    spec,
                    budget,
                    Scalarization::Concave {
                        wrapper: ConcaveWrapper::Log,
                        weights: Some(weights.clone()),
                    },
                )?;
                let feasible = report.disparity() <= disparity_cap + 1e-9;
                consider(
                    &mut best_feasible,
                    &mut least_disparate,
                    Candidate {
                        report,
                        wrapper: ConcaveWrapper::Log,
                        weights: Some(weights),
                        feasible,
                    },
                );
                if best_feasible.is_some() {
                    break;
                }
            }
        }
    }

    // lint:allow(panic): the ladder always evaluates at least the uncapped rung
    let chosen = best_feasible.or(least_disparate).expect("at least one ladder rung was evaluated");
    let mut report = chosen.report;
    report.constrained = Some(ConstrainedOutcome {
        disparity_cap,
        feasible: chosen.feasible,
        wrapper: Some(chosen.wrapper),
        weights: chosen.weights,
        effective_quota: None,
    });
    Ok(report)
}

/// P5: enforce the lifted per-group quota `max(Q, 1 − c)`; any feasible
/// solution covers the population to `Q` with disparity at most `c`.
fn constrained_cover_lift(
    oracle: &dyn InfluenceOracle,
    spec: &ProblemSpec,
    quota: f64,
    disparity_cap: f64,
) -> Result<SolverReport> {
    let effective_quota = quota.max(1.0 - disparity_cap);
    let group_sizes = oracle.graph().group_sizes();
    let non_empty = group_sizes.iter().filter(|&&s| s > 0).count();
    let target = effective_quota * non_empty as f64;
    let scalarization = Scalarization::TruncatedQuota { quota: effective_quota, group_sizes };
    let mut report = solve_cover(oracle, spec, scalarization, target, effective_quota)?;
    let fairness = report.fairness();
    let reached = report.cover.as_ref().map(|c| c.reached).unwrap_or(false);
    let feasible = reached
        && fairness.total_fraction + 1e-9 >= quota
        && fairness.disparity <= disparity_cap + 1e-6;
    report.constrained = Some(ConstrainedOutcome {
        disparity_cap,
        feasible,
        wrapper: None,
        weights: None,
        effective_quota: Some(effective_quota),
    });
    Ok(report)
}

pub(crate) fn run_greedy(
    objective: &mut InfluenceObjective<'_>,
    ground: &[usize],
    budget: usize,
    algorithm: GreedyAlgorithm,
) -> Result<SelectionTrace> {
    let trace = match algorithm {
        GreedyAlgorithm::Greedy => maximize_greedy(objective, ground, budget)?,
        GreedyAlgorithm::Lazy => maximize_lazy(objective, ground, budget)?,
        GreedyAlgorithm::Stochastic { epsilon, seed } => maximize_stochastic(
            objective,
            ground,
            budget,
            &StochasticGreedyConfig { epsilon, seed },
        )?,
    };
    Ok(trace)
}

pub(crate) fn build_report(
    oracle: &dyn InfluenceOracle,
    trace: &SelectionTrace,
    label: String,
    spec: Option<String>,
) -> Result<SolverReport> {
    let seeds: Vec<NodeId> = trace.selected.iter().map(|&i| NodeId::from_index(i)).collect();
    let objective_values: Vec<f64> = trace.steps.iter().map(|s| s.value_after).collect();
    let iterations = replay_influence(oracle, &seeds, &objective_values);
    let influence = final_influence(oracle, &seeds)?;
    Ok(SolverReport {
        seeds,
        influence,
        group_sizes: oracle.graph().group_sizes(),
        iterations,
        gain_evaluations: trace.gain_evaluations,
        label,
        spec,
        cover: None,
        constrained: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FairnessMode, ProblemSpec};
    use std::sync::Arc;
    use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
    use tcim_graph::{Graph, GraphBuilder, GroupId};

    /// Majority star (hub 0 + 10 leaves, group 0) and minority star (hub 11 +
    /// 4 leaves, group 1), probability 1, no cross edges.
    fn two_star_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let hub0 = b.add_node(GroupId(0));
        let leaves0 = b.add_nodes(10, GroupId(0));
        let hub1 = b.add_node(GroupId(1));
        let leaves1 = b.add_nodes(4, GroupId(1));
        for &l in &leaves0 {
            b.add_edge(hub0, l, 1.0).unwrap();
        }
        for &l in &leaves1 {
            b.add_edge(hub1, l, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    fn oracle() -> WorldEstimator {
        WorldEstimator::new(
            Arc::new(two_star_graph()),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 4, seed: 7, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn every_dispatch_arm_labels_and_echoes_the_spec() {
        let est = oracle();
        let cases: Vec<ProblemSpec> = vec![
            ProblemSpec::budget(2).unwrap(),
            ProblemSpec::budget(2)
                .unwrap()
                .with_fairness_wrapper(crate::ConcaveWrapper::Log)
                .unwrap(),
            ProblemSpec::budget(2)
                .unwrap()
                .with_fairness(FairnessMode::Constrained { disparity_cap: 0.5 })
                .unwrap(),
            ProblemSpec::cover(0.5).unwrap(),
            ProblemSpec::cover(0.5)
                .unwrap()
                .with_fairness(FairnessMode::GroupQuota { group: None })
                .unwrap(),
            ProblemSpec::cover(0.5)
                .unwrap()
                .with_fairness(FairnessMode::GroupQuota { group: Some(GroupId(1)) })
                .unwrap(),
            ProblemSpec::cover(0.2)
                .unwrap()
                .with_fairness(FairnessMode::Constrained { disparity_cap: 0.4 })
                .unwrap(),
        ];
        for spec in cases {
            let report = solve(&est, &spec).unwrap();
            assert_eq!(report.label, spec.label());
            assert_eq!(report.spec.as_deref(), Some(spec.canonical().as_str()));
            let is_cover = matches!(spec.objective, Objective::Cover { .. });
            assert_eq!(report.cover.is_some(), is_cover, "{}", spec.label());
            let is_constrained = matches!(spec.fairness, FairnessMode::Constrained { .. });
            assert_eq!(report.constrained.is_some(), is_constrained, "{}", spec.label());
        }
    }

    #[test]
    fn deadline_declarations_are_checked_against_the_oracle() {
        let est = oracle(); // unbounded
        let ok = ProblemSpec::budget(1).unwrap().with_deadline(Deadline::unbounded());
        assert!(solve(&est, &ok).is_ok());
        let mismatched = ProblemSpec::budget(1).unwrap().with_deadline(3u32);
        let err = solve(&est, &mismatched).unwrap_err().to_string();
        assert!(err.contains("'deadline'"), "{err}");
    }

    #[test]
    fn unknown_groups_and_bad_weights_are_named() {
        let est = oracle();
        let bad_group = ProblemSpec::cover(0.5)
            .unwrap()
            .with_fairness(FairnessMode::GroupQuota { group: Some(GroupId(9)) })
            .unwrap();
        let err = solve(&est, &bad_group).unwrap_err().to_string();
        assert!(err.contains("'group'"), "{err}");

        let bad_weights = ProblemSpec::budget(1)
            .unwrap()
            .with_fairness(FairnessMode::Concave {
                wrapper: crate::ConcaveWrapper::Log,
                weights: Some(vec![1.0]),
            })
            .unwrap();
        let err = solve(&est, &bad_weights).unwrap_err().to_string();
        assert!(err.contains("'weights'"), "{err}");
    }

    #[test]
    fn constrained_cover_records_the_lifted_quota() {
        let est = oracle();
        let spec = ProblemSpec::cover(0.2)
            .unwrap()
            .with_fairness(FairnessMode::Constrained { disparity_cap: 0.3 })
            .unwrap();
        let report = solve(&est, &spec).unwrap();
        let outcome = report.constrained.as_ref().unwrap();
        assert!((outcome.effective_quota.unwrap() - 0.7).abs() < 1e-12);
        assert!(outcome.feasible);
        let cover = report.cover.as_ref().unwrap();
        assert!((cover.quota - 0.7).abs() < 1e-12);
        assert!(cover.reached);
    }
}
