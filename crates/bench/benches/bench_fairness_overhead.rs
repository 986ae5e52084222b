//! Ablation: the computational cost of fairness.
//!
//! Compares the wall-clock cost of the unfair solvers (P1 / P2) against
//! their fair surrogates (P4 / P6) on the same oracle, and the cost of the
//! different concave wrappers. The fairness surrogates share the same greedy
//! machinery, so the expected overhead is small and constant-factor — this
//! bench documents it.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use tcim_core::{solve, ConcaveWrapper, FairnessMode, ProblemSpec};
use tcim_datasets::SyntheticConfig;
use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};

fn bench_fairness_overhead(c: &mut Criterion) {
    let graph = Arc::new(
        SyntheticConfig { num_nodes: 200, ..SyntheticConfig::default() }
            .with_edge_probability(0.1)
            .build()
            .unwrap(),
    );
    let oracle = WorldEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(10),
        &WorldsConfig { num_worlds: 50, seed: 1 },
    )
    .unwrap();

    let mut budget = c.benchmark_group("fairness_overhead_budget");
    budget.sample_size(10);
    let p1 = ProblemSpec::budget(10).unwrap();
    budget.bench_function("p1_unfair", |b| b.iter(|| black_box(solve(&oracle, &p1).unwrap())));
    for wrapper in [ConcaveWrapper::Log, ConcaveWrapper::Sqrt, ConcaveWrapper::Power(0.25)] {
        let p4 = p1.clone().with_fairness_wrapper(wrapper).unwrap();
        budget.bench_function(format!("p4_{wrapper}"), |b| {
            b.iter(|| black_box(solve(&oracle, &p4).unwrap()))
        });
    }
    budget.finish();

    let mut cover = c.benchmark_group("fairness_overhead_cover");
    cover.sample_size(10);
    let p2 = ProblemSpec::cover(0.2).unwrap();
    let p6 = p2.clone().with_fairness(FairnessMode::GroupQuota { group: None }).unwrap();
    cover.bench_function("p2_unfair", |b| b.iter(|| black_box(solve(&oracle, &p2).unwrap())));
    cover.bench_function("p6_fair", |b| b.iter(|| black_box(solve(&oracle, &p6).unwrap())));
    cover.finish();
}

criterion_group!(benches, bench_fairness_overhead);
criterion_main!(benches);
