//! Exhaustive (optimal) solvers for tiny instances.
//!
//! Figure 1 of the paper reports *optimal* solutions of P1 and P4 on the
//! 38-node illustrative graph (`B = 2` ⇒ 703 candidate seed pairs). This
//! module enumerates all `C(n, B)` seed sets and evaluates each with the
//! oracle, which is exact with respect to the sampled worlds. It is also used
//! by tests to certify the `(1 − 1/e)` bound of Theorem 1 empirically.

use tcim_diffusion::InfluenceOracle;
use tcim_graph::NodeId;

use crate::concave::ConcaveWrapper;
use crate::error::{CoreError, Result};
use crate::report::SolverReport;
use crate::solve::replay_influence;

/// Which objective the exhaustive search optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExhaustiveObjective {
    /// Total influence `f_τ(S; V)` (optimal solution of P1).
    Total,
    /// The fair surrogate `Σ_i H(f_τ(S; V_i))` (optimal solution of P4).
    Fair(ConcaveWrapper),
}

/// Upper bound on the number of candidate seed sets the exhaustive solver is
/// willing to enumerate.
pub const MAX_EXHAUSTIVE_SETS: u64 = 2_000_000;

/// Finds the exact optimum of the chosen objective over all seed sets of size
/// `budget` drawn from `candidates` (or all nodes when `None`).
///
/// # Errors
///
/// Returns an error if the configuration is invalid or the number of
/// candidate sets exceeds [`MAX_EXHAUSTIVE_SETS`].
pub fn solve_budget_exhaustive(
    oracle: &dyn InfluenceOracle,
    budget: usize,
    candidates: Option<&[NodeId]>,
    objective: ExhaustiveObjective,
) -> Result<SolverReport> {
    if budget == 0 {
        return Err(CoreError::InvalidConfig { message: "budget must be at least 1".into() });
    }
    if let ExhaustiveObjective::Fair(wrapper) = objective {
        if !wrapper.is_valid() {
            return Err(CoreError::InvalidConfig {
                message: format!("concave wrapper {wrapper} has invalid parameters"),
            });
        }
    }
    let pool: Vec<NodeId> = match candidates {
        Some(list) => {
            let n = oracle.graph().num_nodes();
            for &c in list {
                if c.index() >= n {
                    return Err(CoreError::InvalidConfig {
                        message: format!("candidate node {c} out of bounds ({n} nodes)"),
                    });
                }
            }
            list.to_vec()
        }
        None => oracle.graph().nodes().collect(),
    };
    if pool.len() < budget {
        return Err(CoreError::InvalidConfig {
            message: format!("cannot choose {budget} seeds from {} candidates", pool.len()),
        });
    }
    let combinations = binomial(pool.len() as u64, budget as u64);
    if combinations > MAX_EXHAUSTIVE_SETS {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "exhaustive search over {combinations} seed sets exceeds the limit of {MAX_EXHAUSTIVE_SETS}"
            ),
        });
    }

    let group_sizes = oracle.graph().group_sizes();
    let score = |values: &[f64]| -> f64 {
        match objective {
            ExhaustiveObjective::Total => values.iter().sum(),
            ExhaustiveObjective::Fair(wrapper) => values.iter().map(|&f| wrapper.apply(f)).sum(),
        }
    };

    let mut best: Option<(Vec<NodeId>, tcim_diffusion::GroupInfluence, f64)> = None;
    let mut indices: Vec<usize> = (0..budget).collect();
    loop {
        let seeds: Vec<NodeId> = indices.iter().map(|&i| pool[i]).collect();
        let influence = oracle.evaluate(&seeds)?;
        let value = score(influence.values());
        let better = match &best {
            None => true,
            Some((_, _, best_value)) => value > *best_value,
        };
        if better {
            best = Some((seeds, influence, value));
        }
        if !advance_combination(&mut indices, pool.len()) {
            break;
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "k <= pool.len() is validated above, so the combination loop runs at least once"
    )]
    let (seeds, influence, value) = best.expect("at least one combination was evaluated");
    let label = match objective {
        ExhaustiveObjective::Total => "P1-optimal".to_string(),
        ExhaustiveObjective::Fair(wrapper) => format!("P4-{wrapper}-optimal"),
    };
    let iterations = replay_influence(oracle, &seeds, &[value]);
    Ok(SolverReport {
        seeds,
        influence,
        group_sizes,
        iterations,
        gain_evaluations: combinations as usize,
        label,
        spec: None,
        cover: None,
        constrained: None,
    })
}

/// Advances `indices` to the next combination of `n` items in lexicographic
/// order; returns `false` when exhausted.
fn advance_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] != i + n - k {
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// `n choose k`, saturating at `u64::MAX`.
fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = match result.checked_mul(n - i) {
            Some(v) => v / (i + 1),
            None => return u64::MAX,
        };
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
    use tcim_graph::{GraphBuilder, GroupId};

    fn oracle() -> WorldEstimator {
        // Hub 0 covers 5 nodes of group 0; hub 6 covers 3 nodes of group 1;
        // node 10 covers 2 of group 0; all probability 1.
        let mut b = GraphBuilder::new();
        let hub0 = b.add_node(GroupId(0));
        let leaves0 = b.add_nodes(5, GroupId(0));
        let hub1 = b.add_node(GroupId(1));
        let leaves1 = b.add_nodes(3, GroupId(1));
        let small = b.add_node(GroupId(0));
        let small_leaf = b.add_node(GroupId(0));
        for &l in &leaves0 {
            b.add_edge(hub0, l, 1.0).unwrap();
        }
        for &l in &leaves1 {
            b.add_edge(hub1, l, 1.0).unwrap();
        }
        b.add_edge(small, small_leaf, 1.0).unwrap();
        WorldEstimator::new(
            Arc::new(b.build().unwrap()),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 2, seed: 0 },
        )
        .unwrap()
    }

    #[test]
    fn exhaustive_total_finds_the_true_optimum() {
        let est = oracle();
        let report = solve_budget_exhaustive(&est, 2, None, ExhaustiveObjective::Total).unwrap();
        let mut seeds = report.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, vec![NodeId(0), NodeId(6)]);
        assert!((report.influence.total() - 10.0).abs() < 1e-9);
        assert_eq!(report.label, "P1-optimal");
    }

    #[test]
    fn exhaustive_fair_still_prefers_covering_both_groups() {
        let est = oracle();
        let report =
            solve_budget_exhaustive(&est, 2, None, ExhaustiveObjective::Fair(ConcaveWrapper::Log))
                .unwrap();
        let groups: std::collections::BTreeSet<u32> =
            report.seeds.iter().map(|s| est.graph().group_of(*s).0).collect();
        assert_eq!(groups.len(), 2, "fair optimum should span both groups");
        assert!(report.label.contains("optimal"));
    }

    #[test]
    fn candidate_restriction_and_validation() {
        let est = oracle();
        let restricted = solve_budget_exhaustive(
            &est,
            1,
            Some(&[NodeId(10), NodeId(1)]),
            ExhaustiveObjective::Total,
        )
        .unwrap();
        assert_eq!(restricted.seeds, vec![NodeId(10)]);

        assert!(solve_budget_exhaustive(&est, 0, None, ExhaustiveObjective::Total).is_err());
        assert!(solve_budget_exhaustive(&est, 3, Some(&[NodeId(0)]), ExhaustiveObjective::Total)
            .is_err());
        assert!(solve_budget_exhaustive(&est, 1, Some(&[NodeId(999)]), ExhaustiveObjective::Total)
            .is_err());
        assert!(solve_budget_exhaustive(
            &est,
            1,
            None,
            ExhaustiveObjective::Fair(ConcaveWrapper::Power(3.0))
        )
        .is_err());
    }

    #[test]
    fn greedy_respects_the_one_minus_one_over_e_bound_against_the_optimum() {
        let est = oracle();
        let optimal = solve_budget_exhaustive(&est, 2, None, ExhaustiveObjective::Total).unwrap();
        let greedy =
            crate::solve::solve(&est, &crate::spec::ProblemSpec::budget(2).unwrap()).unwrap();
        assert!(
            greedy.influence.total()
                >= (1.0 - 1.0 / std::f64::consts::E) * optimal.influence.total() - 1e-9
        );
    }

    #[test]
    fn combination_helpers() {
        assert_eq!(binomial(38, 2), 703);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        let mut idx = vec![0, 1];
        let mut count = 1;
        while advance_combination(&mut idx, 4) {
            count += 1;
        }
        assert_eq!(count, 6); // C(4, 2)
    }
}
