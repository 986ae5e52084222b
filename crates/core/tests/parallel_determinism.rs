//! Solver-level determinism: running the full TCIM / FairTCIM pipeline on a
//! parallel estimator must select the same seeds and report bitwise-identical
//! influence, whatever the thread count. This is the end-to-end counterpart
//! of the estimator-level checks in `tcim-diffusion`.

use std::sync::Arc;

use tcim_core::{solve, ConcaveWrapper, FairnessMode, ParallelismConfig, ProblemSpec};
use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
use tcim_graph::generators::{stochastic_block_model, SbmConfig};

fn oracle(threads: ParallelismConfig) -> WorldEstimator {
    let graph = Arc::new(
        stochastic_block_model(&SbmConfig::two_group(120, 0.7, 0.04, 0.005, 0.1, 13)).unwrap(),
    );
    WorldEstimator::new(
        graph,
        Deadline::finite(4),
        &WorldsConfig { num_worlds: 48, seed: 5, parallelism: threads },
    )
    .unwrap()
}

#[test]
fn budget_solvers_agree_across_thread_counts() {
    let p1 = ProblemSpec::budget(5).unwrap();
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log).unwrap();
    let reference = {
        let est = oracle(ParallelismConfig::serial());
        (solve(&est, &p1).unwrap(), solve(&est, &p4).unwrap())
    };

    for threads in [2usize, 8] {
        let est = oracle(ParallelismConfig::fixed(threads));
        let unfair = solve(&est, &p1).unwrap();
        let fair = solve(&est, &p4).unwrap();
        assert_eq!(reference.0.seeds, unfair.seeds, "unfair seeds differ at {threads} threads");
        assert_eq!(reference.1.seeds, fair.seeds, "fair seeds differ at {threads} threads");
        for (a, b) in [(&reference.0, &unfair), (&reference.1, &fair)] {
            for (x, y) in a.influence.values().iter().zip(b.influence.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "influence differs at {threads} threads");
            }
        }
    }
}

#[test]
fn cover_solver_agrees_across_thread_counts() {
    let p2 = ProblemSpec::cover(0.2).unwrap();
    let reference = solve(&oracle(ParallelismConfig::serial()), &p2).unwrap();
    for threads in [2usize, 8] {
        let result = solve(&oracle(ParallelismConfig::fixed(threads)), &p2).unwrap();
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
    let reference = solve(&oracle(ParallelismConfig::serial()), &p3).unwrap();
    for threads in [2usize, 8] {
        let result = solve(&oracle(ParallelismConfig::fixed(threads)), &p3).unwrap();
        assert_eq!(reference.seeds, result.seeds, "P3 seeds differ at {threads} threads");
        assert_eq!(reference.constrained, result.constrained);
    }
}

#[test]
fn spec_results_are_bitwise_stable_across_thread_counts() {
    // Pins the full P1 report at 8 threads to the 1-thread reference: seeds,
    // per-group influence bits and the per-iteration objective values.
    let p1 = ProblemSpec::budget(5).unwrap();
    let one = solve(&oracle(ParallelismConfig::fixed(1)), &p1).unwrap();
    let eight = solve(&oracle(ParallelismConfig::fixed(8)), &p1).unwrap();
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
