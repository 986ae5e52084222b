//! End-to-end integration tests exercising the whole stack through the
//! public facade: dataset generation → influence estimation → solving →
//! fairness reporting.

use std::sync::Arc;

use fairtcim::prelude::*;

/// Shared small oracle over the synthetic SBM with a tight deadline.
fn synthetic_oracle(deadline: Deadline, worlds: usize) -> (Arc<Graph>, WorldEstimator) {
    let config = SyntheticConfig { num_nodes: 200, samples: worlds, ..SyntheticConfig::default() };
    let graph = Arc::new(config.build().unwrap());
    let oracle = WorldEstimator::new(
        Arc::clone(&graph),
        deadline,
        &WorldsConfig { num_worlds: worlds, seed: 3 },
    )
    .unwrap();
    (graph, oracle)
}

#[test]
fn unfair_budget_solution_exhibits_disparity_and_fair_solution_reduces_it() {
    let (_graph, oracle) = synthetic_oracle(Deadline::finite(5), 100);
    let p1 = ProblemSpec::budget(10).unwrap();
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
    let unfair = solve(&oracle, &p1).unwrap();
    let fair = solve(&oracle, &p4).unwrap();

    // The headline qualitative claims of the paper.
    assert!(unfair.disparity() > 0.02, "expected visible disparity, got {}", unfair.disparity());
    assert!(fair.disparity() <= unfair.disparity() + 1e-9);
    assert!(fair.influence.total() <= unfair.influence.total() + 1e-9);
    assert!(fair.influence.total() >= 0.5 * unfair.influence.total());
    assert_eq!(unfair.num_seeds(), 10);
    assert_eq!(fair.num_seeds(), 10);
}

#[test]
fn tighter_deadlines_do_not_decrease_unfairness_of_the_standard_solver() {
    let config = SyntheticConfig { num_nodes: 200, ..SyntheticConfig::default() };
    let graph = Arc::new(config.build().unwrap());
    let mut disparities = Vec::new();
    for deadline in [Deadline::finite(2), Deadline::unbounded()] {
        let oracle = WorldEstimator::new(
            Arc::clone(&graph),
            deadline,
            &WorldsConfig { num_worlds: 100, seed: 9 },
        )
        .unwrap();
        let report = solve(&oracle, &ProblemSpec::budget(10).unwrap()).unwrap();
        disparities.push(report.disparity());
    }
    // With p_e = 0.05 and a homophilous majority, the τ = 2 disparity is at
    // least as large as the τ = ∞ disparity (Fig. 4c trend, allowing noise).
    assert!(disparities[0] + 0.05 >= disparities[1]);
}

#[test]
fn fair_cover_reaches_the_quota_in_every_group() {
    let (_graph, oracle) = synthetic_oracle(Deadline::finite(20), 100);
    let quota = 0.15;
    let p2 = ProblemSpec::cover(quota).unwrap();
    let p6 = p2.clone().with_fairness(FairnessMode::GroupQuota { group: None }).unwrap();
    let unfair = solve(&oracle, &p2).unwrap();
    let fair = solve(&oracle, &p6).unwrap();

    assert!(unfair.cover.as_ref().unwrap().reached && fair.cover.as_ref().unwrap().reached);
    let fair_report = fair.fairness();
    for (group, fraction) in fair_report.normalized_utilities.iter().enumerate() {
        assert!(*fraction + 1e-6 >= quota, "group {group} below quota: {fraction} < {quota}");
    }
    // The disparity of a feasible fair solution is bounded by 1 - Q.
    assert!(fair_report.disparity <= 1.0 - quota + 1e-6);
    // The fair solution may need more seeds, but not absurdly many.
    assert!(fair.num_seeds() >= unfair.num_seeds());
    assert!(fair.num_seeds() <= unfair.num_seeds() + 30);
}

#[test]
fn exhaustive_optimum_dominates_greedy_and_certifies_theorem_1() {
    use fairtcim::core::theory::theorem1_check;

    // Small graph so exhaustive search stays cheap.
    let config =
        SyntheticConfig { num_nodes: 60, ..SyntheticConfig::default() }.with_edge_probability(0.2);
    let graph = Arc::new(config.build().unwrap());
    let oracle = WorldEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(3),
        &WorldsConfig { num_worlds: 64, seed: 5 },
    )
    .unwrap();

    let optimal = solve_budget_exhaustive(&oracle, 2, None, ExhaustiveObjective::Total).unwrap();
    let greedy = solve(&oracle, &ProblemSpec::budget(2).unwrap()).unwrap();
    assert!(optimal.influence.total() + 1e-9 >= greedy.influence.total());
    assert!(
        greedy.influence.total()
            >= (1.0 - 1.0 / std::f64::consts::E) * optimal.influence.total() - 1e-9
    );

    let fair = solve(
        &oracle,
        &ProblemSpec::budget(2).unwrap().with_fairness_wrapper(ConcaveWrapper::Log).unwrap(),
    )
    .unwrap();
    let check =
        theorem1_check(fair.influence.total(), optimal.influence.total(), ConcaveWrapper::Log);
    assert!(check.satisfied, "Theorem 1 violated: {check:?}");
}

#[test]
fn baselines_are_comparable_and_weaker_than_greedy() {
    let (graph, oracle) = synthetic_oracle(Deadline::finite(5), 80);
    let budget = 10;
    let greedy = solve(&oracle, &ProblemSpec::budget(budget).unwrap()).unwrap();
    let degree = evaluate_seed_set(&oracle, &top_degree_seeds(&graph, budget), "degree").unwrap();
    let pagerank =
        evaluate_seed_set(&oracle, &top_pagerank_seeds(&graph, budget), "pagerank").unwrap();
    let random = evaluate_seed_set(&oracle, &random_seeds(&graph, budget, 1), "random").unwrap();
    let proportional = evaluate_seed_set(
        &oracle,
        &group_proportional_degree_seeds(&graph, budget),
        "proportional",
    )
    .unwrap();

    for baseline in [&degree, &pagerank, &random, &proportional] {
        assert!(
            greedy.influence.total() + 1e-9 >= baseline.influence.total(),
            "{} beat greedy: {} > {}",
            baseline.label,
            baseline.influence.total(),
            greedy.influence.total()
        );
    }
    // Random seeding should be clearly weaker than greedy on this graph.
    assert!(random.influence.total() < greedy.influence.total());
}

#[test]
fn estimators_agree_on_the_selected_seed_sets() {
    let (graph, oracle) = synthetic_oracle(Deadline::finite(5), 150);
    let report = solve(&oracle, &ProblemSpec::budget(5).unwrap()).unwrap();

    // Re-score the chosen seeds with an independent Monte-Carlo estimator and
    // with reverse-reachable sketches; all three should agree within noise.
    // MC's worlds start at 2^32, disjoint from the solving pool's `3..153`.
    let mc =
        MonteCarloEstimator::new(Arc::clone(&graph), Deadline::finite(5), 400, 1 << 32).unwrap();
    let mc_influence = mc.evaluate(&report.seeds).unwrap();
    let ris = RisEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(5),
        &RisConfig { num_sets: 30_000, seed: 7, ..Default::default() },
    )
    .unwrap();
    let ris_influence = ris.evaluate(&report.seeds).unwrap();

    let world_total = report.influence.total();
    for (label, total) in [("monte-carlo", mc_influence.total()), ("ris", ris_influence.total())] {
        let rel = (total - world_total).abs() / world_total.max(1.0);
        assert!(rel < 0.2, "{label} disagrees: {total} vs {world_total}");
    }
}

#[test]
fn linear_threshold_estimator_supports_the_same_solvers() {
    // The LT extension the paper mentions: the fair surrogate still reduces
    // disparity when cascades follow the linear threshold model.
    let config =
        SyntheticConfig { num_nodes: 200, ..SyntheticConfig::default() }.with_edge_probability(0.3);
    let graph = Arc::new(config.build().unwrap());
    let oracle = fairtcim::diffusion::WorldEstimator::new_lt(
        Arc::clone(&graph),
        Deadline::finite(5),
        &WorldsConfig { num_worlds: 100, seed: 21 },
    )
    .unwrap();
    let p1 = ProblemSpec::budget(10).unwrap();
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
    let unfair = solve(&oracle, &p1).unwrap();
    let fair = solve(&oracle, &p4).unwrap();
    assert!(unfair.influence.total() >= 10.0);
    assert!(fair.disparity() <= unfair.disparity() + 1e-9);
}

#[test]
fn constrained_solvers_enforce_a_disparity_cap() {
    let (_graph, oracle) = synthetic_oracle(Deadline::finite(5), 80);
    let unfair = solve(&oracle, &ProblemSpec::budget(10).unwrap()).unwrap();
    let cap = unfair.disparity() / 2.0;
    let p3 = ProblemSpec::budget(10)
        .unwrap()
        .with_fairness(FairnessMode::Constrained { disparity_cap: cap })
        .unwrap();
    let constrained = solve(&oracle, &p3).unwrap();
    let outcome = constrained.constrained.as_ref().unwrap();
    if outcome.feasible {
        assert!(constrained.disparity() <= cap + 1e-9);
    } else {
        // Fallback must still be the least disparate thing we found.
        assert!(constrained.disparity() <= unfair.disparity() + 1e-9);
    }

    let p5 = ProblemSpec::cover(0.1)
        .unwrap()
        .with_fairness(FairnessMode::Constrained { disparity_cap: 0.5 })
        .unwrap();
    let cover = solve(&oracle, &p5).unwrap();
    let outcome = cover.constrained.as_ref().unwrap();
    assert!((outcome.effective_quota.unwrap() - 0.5).abs() < 1e-12);
    if outcome.feasible {
        assert!(cover.fairness().disparity <= 0.5 + 1e-6);
        assert!(cover.fairness().total_fraction >= 0.1);
    }
}

#[test]
fn dataset_registry_feeds_directly_into_the_solvers() {
    let bundle = Dataset::Illustrative.build(0).unwrap();
    let graph = Arc::new(bundle.graph);
    let oracle = WorldEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(2),
        &WorldsConfig { num_worlds: 200, seed: 0 },
    )
    .unwrap();
    let p1 = ProblemSpec::budget(bundle.defaults.budget).unwrap();
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
    let unfair = solve(&oracle, &p1).unwrap();
    let fair = solve(&oracle, &p4).unwrap();
    assert!(fair.disparity() <= unfair.disparity() + 1e-9);
    assert!(unfair.disparity() > 0.3, "illustrative example should be very unfair under τ = 2");
}

#[test]
fn ris_estimator_selected_via_config_drives_greedy_and_celf() {
    // The RIS engine is solver-facing: select it purely through
    // `EstimatorConfig`, run both greedy variants, and check the solution
    // quality against the default live-edge-world solve.
    let config = SyntheticConfig { num_nodes: 200, ..SyntheticConfig::default() };
    let graph = Arc::new(config.build().unwrap());
    let deadline = Deadline::finite(5);

    let ris_oracle =
        EstimatorConfig::Ris(RisConfig { num_sets: 20_000, seed: 11, ..Default::default() })
            .build(Arc::clone(&graph), deadline)
            .unwrap();
    let celf = solve(&ris_oracle, &ProblemSpec::budget(10).unwrap()).unwrap();
    let plain = solve(
        &ris_oracle,
        &ProblemSpec::budget(10).unwrap().with_algorithm(GreedyAlgorithm::Greedy).unwrap(),
    )
    .unwrap();
    // CELF must reproduce plain greedy's selection with fewer oracle calls.
    assert_eq!(celf.seeds, plain.seeds);
    assert!(celf.gain_evaluations <= plain.gain_evaluations);
    assert_eq!(celf.num_seeds(), 10);
    // The same holds for the fair cover (P6): lazy cover is the default.
    let p6 = ProblemSpec::cover(0.1)
        .unwrap()
        .with_fairness(FairnessMode::GroupQuota { group: None })
        .unwrap();
    let lazy_cover = solve(&ris_oracle, &p6).unwrap();
    let plain_cover =
        solve(&ris_oracle, &p6.with_algorithm(GreedyAlgorithm::Greedy).unwrap()).unwrap();
    assert_eq!(lazy_cover.seeds, plain_cover.seeds);
    assert_eq!(lazy_cover.cover, plain_cover.cover);
    assert!(lazy_cover.gain_evaluations <= plain_cover.gain_evaluations);

    // The RIS-chosen seeds must be competitive with the world-chosen seeds
    // when both are re-scored by a common held-out Monte-Carlo estimator.
    let world_oracle = EstimatorConfig::Worlds(WorldsConfig { num_worlds: 150, seed: 3 })
        .build(Arc::clone(&graph), deadline)
        .unwrap();
    let world_solve = solve(&world_oracle, &ProblemSpec::budget(10).unwrap()).unwrap();
    // Held-out worlds start at 2^32, disjoint from the world pool's `3..153`.
    let held_out = MonteCarloEstimator::new(Arc::clone(&graph), deadline, 600, 1 << 32).unwrap();
    let ris_quality = held_out.evaluate(&celf.seeds).unwrap().total();
    let world_quality = held_out.evaluate(&world_solve.seeds).unwrap().total();
    assert!(
        ris_quality >= 0.85 * world_quality,
        "RIS seeds score {ris_quality} vs world seeds {world_quality}"
    );

    // The fairness audit paths accept the RIS oracle through the trait.
    let audit = audit_seed_set(&ris_oracle, &celf.seeds).unwrap();
    assert!(audit.total > 0.0);
    assert!(audit.disparity >= 0.0 && audit.disparity <= 1.0);
    let fair = solve(
        &ris_oracle,
        &ProblemSpec::budget(10).unwrap().with_fairness_wrapper(ConcaveWrapper::Log).unwrap(),
    )
    .unwrap();
    assert!(fair.disparity() <= celf.disparity() + 1e-9);
}

#[test]
fn ris_solves_are_bitwise_identical_across_thread_counts() {
    let config = SyntheticConfig { num_nodes: 200, ..SyntheticConfig::default() };
    let graph = Arc::new(config.build().unwrap());
    let deadline = Deadline::finite(5);
    let solve = |threads: usize| {
        ParallelismConfig::fixed(threads).run(|| {
            let oracle =
                EstimatorConfig::Ris(RisConfig { num_sets: 8000, seed: 13, adaptive: None })
                    .build(Arc::clone(&graph), deadline)
                    .unwrap();
            solve(&oracle, &ProblemSpec::budget(8).unwrap()).unwrap()
        })
    };
    let one = solve(1);
    let eight = solve(8);
    assert_eq!(one.seeds, eight.seeds, "seed selection differs across thread counts");
    for (a, b) in one.influence.values().iter().zip(eight.influence.values()) {
        assert_eq!(a.to_bits(), b.to_bits(), "influence differs across thread counts");
    }
}

#[test]
fn adaptive_ris_supports_the_full_solve_path() {
    let config = SyntheticConfig { num_nodes: 150, ..SyntheticConfig::default() };
    let graph = Arc::new(config.build().unwrap());
    let oracle = EstimatorConfig::Ris(RisConfig {
        num_sets: 256,
        seed: 17,
        adaptive: Some(AdaptiveRis { epsilon: 0.3, delta: 0.1, budget: 8, max_sets: 60_000 }),
    })
    .build(Arc::clone(&graph), Deadline::finite(4))
    .unwrap();
    let report = solve(&oracle, &ProblemSpec::budget(8).unwrap()).unwrap();
    assert_eq!(report.num_seeds(), 8);
    // The adaptive estimate of the chosen seeds must agree with a held-out
    // Monte-Carlo re-score within the configured error (generous margin).
    let held_out = MonteCarloEstimator::new(graph, Deadline::finite(4), 600, 99).unwrap();
    let fresh = held_out.evaluate(&report.seeds).unwrap().total();
    let rel = (report.influence.total() - fresh).abs() / fresh.max(1.0);
    assert!(rel < 0.3, "adaptive RIS estimate {} vs held-out {fresh}", report.influence.total());
}
