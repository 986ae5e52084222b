//! Solver-level determinism: running the full TCIM / FairTCIM pipeline on a
//! parallel estimator must select the same seeds and report bitwise-identical
//! influence, whatever the thread count. Each run builds and queries its
//! oracle under one `ParallelismConfig::run` pool. This is the end-to-end
//! counterpart of the estimator-level checks in `tcim-diffusion`.

use std::sync::Arc;

use tcim_core::{
    solve, ConcaveWrapper, EstimatorConfig, FairnessMode, ParallelismConfig, ProblemSpec,
    RisConfig, SolverReport,
};
use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
use tcim_graph::generators::{stochastic_block_model, SbmConfig};

fn oracle() -> WorldEstimator {
    let graph = Arc::new(
        stochastic_block_model(&SbmConfig::two_group(120, 0.7, 0.04, 0.005, 0.1, 13)).unwrap(),
    );
    WorldEstimator::new(graph, Deadline::finite(4), &WorldsConfig { num_worlds: 48, seed: 5 })
        .unwrap()
}

/// Builds the oracle and solves each of `specs` on it, all under `threads`.
fn solve_under(threads: ParallelismConfig, specs: &[&ProblemSpec]) -> Vec<SolverReport> {
    threads.run(|| {
        let est = oracle();
        specs.iter().map(|spec| solve(&est, spec).unwrap()).collect()
    })
}

/// [`solve_under`] for one spec.
fn solve_one(threads: ParallelismConfig, spec: &ProblemSpec) -> SolverReport {
    threads.run(|| solve(&oracle(), spec).unwrap())
}

#[test]
fn budget_solvers_agree_across_thread_counts() {
    let p1 = ProblemSpec::budget(5).unwrap();
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
    let reference = solve_under(ParallelismConfig::serial(), &[&p1, &p4]);

    for threads in [2usize, 8] {
        let got = solve_under(ParallelismConfig::fixed(threads), &[&p1, &p4]);
        assert_eq!(reference[0].seeds, got[0].seeds, "unfair seeds differ at {threads} threads");
        assert_eq!(reference[1].seeds, got[1].seeds, "fair seeds differ at {threads} threads");
        for (a, b) in reference.iter().zip(&got) {
            for (x, y) in a.influence.values().iter().zip(b.influence.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "influence differs at {threads} threads");
            }
        }
    }
}

#[test]
fn cover_solver_agrees_across_thread_counts() {
    let p2 = ProblemSpec::cover(0.2).unwrap();
    let reference = solve_one(ParallelismConfig::serial(), &p2);
    for threads in [2usize, 8] {
        let result = solve_one(ParallelismConfig::fixed(threads), &p2);
        assert_eq!(reference.seeds, result.seeds, "cover seeds differ at {threads} threads");
        assert_eq!(reference.cover, result.cover);
    }
}

#[test]
fn capped_solves_agree_across_thread_counts() {
    // The P3 ladder sweep runs several inner solves; the whole sweep must
    // still be a pure function of the spec at any thread count.
    let p3 = ProblemSpec::budget(4)
        .unwrap()
        .with_fairness(FairnessMode::Constrained { disparity_cap: 0.2 })
        .unwrap();
    let reference = solve_one(ParallelismConfig::serial(), &p3);
    for threads in [2usize, 8] {
        let result = solve_one(ParallelismConfig::fixed(threads), &p3);
        assert_eq!(reference.seeds, result.seeds, "P3 seeds differ at {threads} threads");
        assert_eq!(reference.constrained, result.constrained);
    }
}

#[test]
fn spec_results_are_bitwise_stable_across_thread_counts() {
    // Pins the full P1 report at 8 threads to the 1-thread reference: seeds,
    // per-group influence bits and the per-iteration objective values.
    let p1 = ProblemSpec::budget(5).unwrap();
    let one = solve_one(ParallelismConfig::fixed(1), &p1);
    let eight = solve_one(ParallelismConfig::fixed(8), &p1);
    assert_eq!(one.seeds, eight.seeds);
    assert_eq!(one.label, eight.label);
    assert_eq!(one.gain_evaluations, eight.gain_evaluations);
    for (a, b) in one.influence.values().iter().zip(eight.influence.values()) {
        assert_eq!(a.to_bits(), b.to_bits(), "influence differs bitwise");
    }
    assert_eq!(one.iterations.len(), eight.iterations.len());
    for (a, b) in one.iterations.iter().zip(&eight.iterations) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.objective_value.to_bits(), b.objective_value.to_bits());
    }
    assert_eq!(one.spec, eight.spec);
}

#[test]
fn oracles_built_serially_solve_identically_under_eight_threads() {
    // The serving cache builds an oracle under one thread count and solves on
    // it under another. Two copies of each backend are built serially; one
    // solves P1 and P4 under eight threads, the other serially.
    let graph = Arc::new(
        stochastic_block_model(&SbmConfig::two_group(120, 0.7, 0.04, 0.005, 0.1, 13)).unwrap(),
    );
    let p1 = ProblemSpec::budget(4).unwrap();
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
    for config in [
        EstimatorConfig::Worlds(WorldsConfig { num_worlds: 48, seed: 5 }),
        EstimatorConfig::MonteCarlo { samples: 24, seed: 5 },
        EstimatorConfig::Ris(RisConfig { num_sets: 1500, seed: 5, adaptive: None }),
    ] {
        let build = || config.build(Arc::clone(&graph), Deadline::finite(4)).unwrap();
        let (wide, narrow) = ParallelismConfig::serial().run(|| (build(), build()));
        for spec in [&p1, &p4] {
            let got = ParallelismConfig::fixed(8).run(|| solve(&wide, spec).unwrap());
            let want = ParallelismConfig::serial().run(|| solve(&narrow, spec).unwrap());
            let context = format!("{} {}", config.fingerprint(), spec.canonical());
            assert_eq!(want.seeds, got.seeds, "{context}: seeds differ");
            for (x, y) in want.influence.values().iter().zip(got.influence.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{context}: influence differs");
            }
        }
    }
}
