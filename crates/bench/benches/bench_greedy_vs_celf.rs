//! Solver ablation: plain greedy vs CELF lazy greedy vs stochastic greedy on
//! the same TCIM-BUDGET instance (the speed-up that makes the experiments
//! tractable).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use tcim_core::{solve, GreedyAlgorithm, ProblemSpec};
use tcim_datasets::SyntheticConfig;
use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};

fn bench_greedy_variants(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("tcim_budget_solver");
    group.sample_size(10);
    for (name, algorithm) in [
        ("plain_greedy", GreedyAlgorithm::Greedy),
        ("celf_lazy", GreedyAlgorithm::Lazy),
        ("stochastic", GreedyAlgorithm::Stochastic { epsilon: 0.1, seed: 3 }),
    ] {
        let spec = ProblemSpec::budget(10).unwrap().with_algorithm(algorithm).unwrap();
        group.bench_function(name, |b| b.iter(|| black_box(solve(&oracle, &spec).unwrap())));
    }
    group.finish();
}

criterion_group!(benches, bench_greedy_variants);
criterion_main!(benches);
