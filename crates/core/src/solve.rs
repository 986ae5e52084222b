//! The single solver entrypoint: execute any [`ProblemSpec`] against any
//! influence oracle.
//!
//! Every problem of the paper is one spec, and [`solve`] is the only way to
//! run it. Dispatch is a pure function of `(objective, fairness)`:
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
//! P3 and P5 are NP-hard and lack submodular structure, so the capped modes
//! tune the surrogate knobs the paper names instead: for budgets they sweep
//! a ladder of increasingly curved wrappers (then up-weight the worst-off
//! group) and keep the least curved solution within the cap; for covers
//! they lift the per-group quota to `max(Q, 1 − c)`, whose feasible
//! solutions have disparity at most `c` by construction.
//!
//! Adding a scenario is adding an enum variant and a match arm here.

use tcim_diffusion::InfluenceOracle;
use tcim_graph::NodeId;
use tcim_submodular::{
    cover_greedy, cover_lazy, maximize_greedy, maximize_lazy, maximize_stochastic,
    CoverConfig as SubmodularCoverConfig, SelectionTrace, StochasticGreedyConfig,
};

use crate::concave::ConcaveWrapper;
use crate::error::{CoreError, Result};
use crate::objective::{InfluenceObjective, Scalarization};
use crate::report::{ConstrainedOutcome, CoverOutcome, IterationRecord, SolverReport};
use crate::spec::{FairnessMode, GreedyAlgorithm, Objective, ProblemSpec};

/// The wrapper ladder swept by disparity-capped budget solves, ordered from
/// least to most disparity-penalising.
const DEFAULT_WRAPPER_LADDER: [ConcaveWrapper; 5] = [
    ConcaveWrapper::Identity,
    ConcaveWrapper::Power(0.75),
    ConcaveWrapper::Sqrt,
    ConcaveWrapper::Power(0.25),
    ConcaveWrapper::Log,
];

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
        #[expect(
            clippy::unreachable,
            reason = "validate() runs before dispatch and rejects these combinations"
        )]
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
    #[expect(
        clippy::unreachable,
        reason = "the dispatch match above only routes cover objectives here"
    )]
    let Objective::Cover { tolerance, max_seeds, .. } = spec.objective
    else {
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

    #[expect(
        clippy::expect_used,
        reason = "the ladder always evaluates at least the uncapped rung"
    )]
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

/// Resolves the candidate (ground-set) node indices: the explicit candidate
/// list when given, otherwise every node of the graph.
pub(crate) fn resolve_candidates(
    oracle: &dyn InfluenceOracle,
    candidates: Option<&[NodeId]>,
) -> Result<Vec<usize>> {
    let n = oracle.graph().num_nodes();
    let ground: Vec<usize> = match candidates {
        Some(list) => {
            for &c in list {
                if c.index() >= n {
                    return Err(CoreError::InvalidConfig {
                        message: format!("candidate node {c} out of bounds ({n} nodes)"),
                    });
                }
            }
            list.iter().map(|c| c.index()).collect()
        }
        None => (0..n).collect(),
    };
    if ground.is_empty() {
        return Err(CoreError::InvalidConfig { message: "candidate set is empty".to_string() });
    }
    Ok(ground)
}

/// Replays `seeds` on a fresh cursor of `oracle`, returning the influence
/// after each prefix. Used to attach per-iteration influence records to the
/// solver reports without entangling the solvers themselves.
pub(crate) fn replay_influence(
    oracle: &dyn InfluenceOracle,
    seeds: &[NodeId],
    objective_values: &[f64],
) -> Vec<IterationRecord> {
    let mut cursor = oracle.cursor();
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            cursor.add_seed(seed);
            IterationRecord {
                seed,
                influence: cursor.current().clone(),
                objective_value: objective_values.get(i).copied().unwrap_or_default(),
            }
        })
        .collect()
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
    let influence = oracle.evaluate(&seeds)?;
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
    use std::sync::Arc;
    use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
    use tcim_graph::generators::{
        illustrative_example, stochastic_block_model, IllustrativeConfig, SbmConfig,
    };
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

    fn oracle_on(graph: Graph, deadline: Deadline, worlds: usize) -> WorldEstimator {
        WorldEstimator::new(
            Arc::new(graph),
            deadline,
            &WorldsConfig { num_worlds: worlds, seed: 7, ..Default::default() },
        )
        .unwrap()
    }

    fn oracle() -> WorldEstimator {
        oracle_on(two_star_graph(), Deadline::unbounded(), 4)
    }

    fn illustrative_oracle(worlds: usize) -> WorldEstimator {
        let (graph, _) = illustrative_example(&IllustrativeConfig::default()).unwrap();
        oracle_on(graph, Deadline::finite(2), worlds)
    }

    fn capped(spec: ProblemSpec, disparity_cap: f64) -> ProblemSpec {
        spec.with_fairness(FairnessMode::Constrained { disparity_cap }).unwrap()
    }

    fn p6(quota: f64) -> ProblemSpec {
        ProblemSpec::cover(quota)
            .unwrap()
            .with_fairness(FairnessMode::GroupQuota { group: None })
            .unwrap()
    }

    fn reached(report: &SolverReport) -> bool {
        report.cover.as_ref().unwrap().reached
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
        let fairness = report.fairness();
        assert!(fairness.disparity <= 0.3 + 1e-6);
        assert!(fairness.total_fraction >= 0.2);
    }

    #[test]
    fn loose_cover_caps_keep_the_quota() {
        let est = oracle();
        let tight = solve(&est, &capped(ProblemSpec::cover(0.2).unwrap(), 0.3)).unwrap();
        let loose = solve(&est, &capped(ProblemSpec::cover(0.2).unwrap(), 0.9)).unwrap();
        let outcome = loose.constrained.as_ref().unwrap();
        assert!((outcome.effective_quota.unwrap() - 0.2).abs() < 1e-12);
        assert!(loose.num_seeds() <= tight.num_seeds());
        // Caps outside [0, 1] are rejected.
        assert!(ProblemSpec::cover(0.2)
            .unwrap()
            .with_fairness(FairnessMode::Constrained { disparity_cap: -0.1 })
            .is_err());
    }

    #[test]
    fn p1_picks_the_highest_influence_hubs() {
        let report = solve(&oracle(), &ProblemSpec::budget(2).unwrap()).unwrap();
        assert_eq!(report.num_seeds(), 2);
        assert!(report.seeds.contains(&NodeId(0)));
        assert!(report.seeds.contains(&NodeId(11)));
        assert!((report.influence.total() - 16.0).abs() < 1e-9);
        assert_eq!(report.iterations.len(), 2);
    }

    #[test]
    fn p1_with_budget_one_prefers_the_majority_hub_and_is_unfair() {
        let report = solve(&oracle(), &ProblemSpec::budget(1).unwrap()).unwrap();
        assert_eq!(report.seeds, vec![NodeId(0)]);
        // Group 1 gets nothing -> disparity = 1.0.
        assert!(report.disparity() > 0.99);
    }

    #[test]
    fn p4_with_budget_two_equalizes() {
        let p4 =
            ProblemSpec::budget(2).unwrap().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
        let fair = solve(&oracle(), &p4).unwrap();
        // With two seeds the fair solution covers both groups completely.
        assert!(fair.disparity() < 1e-9);
        assert!((fair.influence.total() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn all_greedy_variants_agree_on_small_instances() {
        let est = oracle();
        let with = |algorithm| ProblemSpec::budget(2).unwrap().with_algorithm(algorithm).unwrap();
        let lazy = solve(&est, &with(GreedyAlgorithm::Lazy)).unwrap();
        let plain = solve(&est, &with(GreedyAlgorithm::Greedy)).unwrap();
        assert_eq!(lazy.seeds, plain.seeds);
        assert!(lazy.gain_evaluations <= plain.gain_evaluations);
        let stochastic_algorithm = GreedyAlgorithm::Stochastic { epsilon: 0.05, seed: 3 };
        let stochastic = solve(&est, &with(stochastic_algorithm)).unwrap();
        assert_eq!(stochastic.num_seeds(), 2);
        assert!(stochastic.influence.total() >= 0.8 * plain.influence.total());
    }

    #[test]
    fn candidate_restriction_is_honored() {
        let pool = vec![NodeId(1), NodeId(12)];
        let spec = ProblemSpec::budget(2).unwrap().with_candidates(pool.clone()).unwrap();
        let report = solve(&oracle(), &spec).unwrap();
        assert!(report.seeds.iter().all(|s| pool.contains(s)));
    }

    #[test]
    fn invalid_budget_specs_fail_at_solve_time() {
        let est = oracle();
        // Literal construction bypasses the eager builders; `solve`
        // re-validates every field.
        let budget = |budget| ProblemSpec {
            objective: Objective::Budget { budget },
            ..ProblemSpec::default()
        };
        assert!(solve(&est, &budget(0)).is_err());
        let stochastic = GreedyAlgorithm::Stochastic { epsilon: 1.5, seed: 0 };
        assert!(solve(&est, &ProblemSpec { algorithm: stochastic, ..budget(1) }).is_err());
        for fairness in [
            FairnessMode::Concave { wrapper: ConcaveWrapper::Power(2.0), weights: None },
            FairnessMode::Concave { wrapper: ConcaveWrapper::Log, weights: Some(vec![1.0, -2.0]) },
        ] {
            assert!(solve(&est, &ProblemSpec { fairness, ..budget(1) }).is_err());
        }
        // Out-of-range and empty candidate pools fail.
        for pool in [vec![NodeId(999)], vec![]] {
            assert!(solve(&est, &ProblemSpec { candidates: Some(pool), ..budget(1) }).is_err());
        }
    }

    #[test]
    fn fair_solution_reduces_disparity_on_the_illustrative_graph() {
        let est = illustrative_oracle(128);
        let p1 = ProblemSpec::budget(2).unwrap();
        let unfair = solve(&est, &p1).unwrap();
        let fair = solve(&est, &p1.with_fairness_wrapper(ConcaveWrapper::Log).unwrap()).unwrap();
        assert!(
            fair.disparity() < unfair.disparity(),
            "fair disparity {} should be below unfair disparity {}",
            fair.disparity(),
            unfair.disparity()
        );
        // The fair solution pays at most a bounded cost in total influence and
        // must keep some of it.
        assert!(fair.influence.total() > 0.0);
        assert!(fair.influence.total() <= unfair.influence.total() + 1e-9);
    }

    #[test]
    fn per_group_weights_can_boost_the_minority_further() {
        let est = illustrative_oracle(64);
        let p4 = |weights| {
            let fairness = FairnessMode::Concave { wrapper: ConcaveWrapper::Log, weights };
            ProblemSpec::budget(1).unwrap().with_fairness(fairness).unwrap()
        };
        let unweighted = solve(&est, &p4(None)).unwrap();
        let weighted = solve(&est, &p4(Some(vec![1.0, 50.0]))).unwrap();
        let minority = GroupId(1);
        assert!(weighted.influence.group(minority) >= unweighted.influence.group(minority) - 1e-9);
    }

    #[test]
    fn loose_budget_caps_recover_the_unfair_solution() {
        let est = oracle();
        let p1 = ProblemSpec::budget(2).unwrap();
        let constrained = solve(&est, &capped(p1.clone(), 1.0)).unwrap();
        let unfair = solve(&est, &p1).unwrap();
        let outcome = constrained.constrained.as_ref().unwrap();
        assert!(outcome.feasible);
        // With a vacuous cap the identity wrapper (i.e. P1 itself) is chosen.
        assert_eq!(outcome.wrapper, Some(ConcaveWrapper::Identity));
        assert!((constrained.influence.total() - unfair.influence.total()).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_caps_force_fairer_solutions() {
        let constrained = solve(&oracle(), &capped(ProblemSpec::budget(2).unwrap(), 0.05)).unwrap();
        assert!(constrained.constrained.as_ref().unwrap().feasible);
        assert!(constrained.disparity() <= 0.05 + 1e-9);
        // Both hubs must be selected to satisfy the cap.
        assert!(constrained.seeds.contains(&NodeId(0)));
        assert!(constrained.seeds.contains(&NodeId(11)));
    }

    #[test]
    fn infeasible_budget_caps_fall_back_to_the_least_disparate_solution() {
        let est = oracle();
        // With a single seed one group always ends up at zero: disparity 1.
        let constrained = solve(&est, &capped(ProblemSpec::budget(1).unwrap(), 0.1)).unwrap();
        assert!(!constrained.constrained.as_ref().unwrap().feasible);
        assert_eq!(constrained.num_seeds(), 1);
        assert!(constrained.disparity() > 0.1);
        // Caps outside [0, 1] are rejected.
        let literal = ProblemSpec {
            fairness: FairnessMode::Constrained { disparity_cap: 1.5 },
            ..ProblemSpec::budget(1).unwrap()
        };
        assert!(solve(&est, &literal).is_err());
    }

    #[test]
    fn p2_meets_the_population_quota_out_of_the_majority_alone() {
        let report = solve(&oracle(), &ProblemSpec::cover(0.5).unwrap()).unwrap();
        assert!(reached(&report));
        // The majority star alone covers 11/16 >= 0.5 with one seed ...
        assert_eq!(report.seeds, vec![NodeId(0)]);
        // ... and the minority group is left with nothing.
        assert!(report.fairness().group_fraction(GroupId(1)) < 1e-9);
    }

    #[test]
    fn p6_requires_every_group_to_meet_the_quota() {
        let report = solve(&oracle(), &p6(0.5)).unwrap();
        assert!(reached(&report));
        assert_eq!(report.num_seeds(), 2);
        let fairness = report.fairness();
        assert!(fairness.group_fraction(GroupId(0)) >= 0.5);
        assert!(fairness.group_fraction(GroupId(1)) >= 0.5);
        // Feasible fair solutions have disparity at most 1 - Q.
        assert!(fairness.disparity <= 0.5 + 1e-9);
    }

    #[test]
    fn fair_cover_uses_at_most_a_few_more_seeds_than_unfair_cover() {
        let cfg = SbmConfig::two_group(150, 0.7, 0.08, 0.01, 0.3, 5);
        let graph = stochastic_block_model(&cfg).unwrap();
        let est = oracle_on(graph, Deadline::finite(5), 64);
        let unfair = solve(&est, &ProblemSpec::cover(0.2).unwrap()).unwrap();
        let fair = solve(&est, &p6(0.2)).unwrap();
        assert!(reached(&unfair));
        assert!(reached(&fair));
        assert!(fair.num_seeds() >= unfair.num_seeds());
        // Theorem-2-style sanity bound: the fair solution stays within the
        // logarithmic factor of the per-group requirement.
        assert!(fair.num_seeds() <= unfair.num_seeds() + 20);
        // Disparity of the fair solution is bounded by 1 - Q.
        assert!(fair.fairness().disparity <= 0.8 + 1e-9);
    }

    #[test]
    fn unreachable_quota_is_reported_not_errored() {
        // Isolated nodes: only seeds themselves are influenced, so a quota of
        // 0.9 with a 2-seed cap is unreachable.
        let mut b = GraphBuilder::new();
        b.add_nodes(10, GroupId(0));
        let est = oracle_on(b.build().unwrap(), Deadline::unbounded(), 2);
        let spec = ProblemSpec::cover(0.9).unwrap().with_max_seeds(2).unwrap();
        let report = solve(&est, &spec).unwrap();
        assert!(!reached(&report));
        assert_eq!(report.num_seeds(), 2);
    }

    #[test]
    fn zero_quota_needs_no_seeds() {
        let est = oracle();
        for spec in [ProblemSpec::cover(0.0).unwrap(), p6(0.0)] {
            let report = solve(&est, &spec).unwrap();
            assert!(reached(&report));
            assert_eq!(report.num_seeds(), 0);
        }
    }

    #[test]
    fn invalid_cover_specs_fail_at_solve_time() {
        let est = oracle();
        let cover = |quota, tolerance| ProblemSpec {
            objective: Objective::Cover { quota, tolerance, max_seeds: None },
            ..ProblemSpec::default()
        };
        assert!(solve(&est, &cover(1.5, 0.0)).is_err());
        let bad_tolerance =
            ProblemSpec { fairness: FairnessMode::GroupQuota { group: None }, ..cover(0.2, -1.0) };
        assert!(solve(&est, &bad_tolerance).is_err());
        for pool in [vec![NodeId(500)], vec![]] {
            assert!(
                solve(&est, &ProblemSpec { candidates: Some(pool), ..cover(0.2, 0.0) }).is_err()
            );
        }
    }

    #[test]
    fn per_group_cover_targets_a_single_group() {
        let spec = ProblemSpec::cover(0.5)
            .unwrap()
            .with_fairness(FairnessMode::GroupQuota { group: Some(GroupId(1)) })
            .unwrap();
        let minority = solve(&oracle(), &spec).unwrap();
        assert!(reached(&minority));
        // One seed (the minority hub) suffices; the majority group is
        // ignored entirely.
        assert_eq!(minority.seeds, vec![NodeId(11)]);
        assert!(minority.fairness().group_fraction(GroupId(1)) >= 0.5);
    }

    #[test]
    fn tolerance_loosens_the_stopping_rule() {
        let est = oracle();
        // Exact quota 0.75 needs both hubs (11/16 is not enough); with a
        // tolerance of 0.1 the majority hub alone suffices.
        let strict = solve(&est, &ProblemSpec::cover(0.75).unwrap()).unwrap();
        let loose_spec = ProblemSpec::cover(0.75).unwrap().with_tolerance(0.1).unwrap();
        let loose = solve(&est, &loose_spec).unwrap();
        assert_eq!(strict.num_seeds(), 2);
        assert_eq!(loose.num_seeds(), 1);
        assert!(reached(&loose));
    }
}
