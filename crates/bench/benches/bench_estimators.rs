//! Micro-benchmarks of the three influence estimators evaluating the same
//! seed set on the synthetic SBM.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use tcim_datasets::SyntheticConfig;
use tcim_diffusion::{
    Deadline, InfluenceOracle, MonteCarloEstimator, ParallelismConfig, RisConfig, RisEstimator,
    WorldEstimator, WorldsConfig,
};
use tcim_graph::NodeId;

/// Serial vs parallel Monte-Carlo estimation on a workload big enough for
/// threading to pay off: each variant runs the same estimator under a
/// `serial()` or an `auto()` pool. Results are bitwise identical across the
/// variants (see `crates/diffusion/tests/determinism.rs`); only throughput
/// differs.
fn bench_parallel_estimation(c: &mut Criterion) {
    let graph = Arc::new(
        SyntheticConfig { num_nodes: 1000, ..SyntheticConfig::default() }.build().unwrap(),
    );
    let deadline = Deadline::finite(20);
    let seeds: Vec<NodeId> = (0..30u32).map(NodeId).collect();
    let worlds = WorldsConfig { num_worlds: 400, seed: 1 };
    let world = WorldEstimator::new(Arc::clone(&graph), deadline, &worlds).unwrap();
    let mc = MonteCarloEstimator::new(Arc::clone(&graph), deadline, 400, 2).unwrap();

    let mut group = c.benchmark_group("parallel_estimation");
    group.sample_size(10);
    for (label, pool) in
        [("serial", ParallelismConfig::serial()), ("auto", ParallelismConfig::auto())]
    {
        group.bench_function(format!("world_eval_400_{label}"), |b| {
            pool.run(|| b.iter(|| black_box(world.evaluate(&seeds).unwrap())))
        });
        group.bench_function(format!("monte_carlo_400_{label}"), |b| {
            pool.run(|| b.iter(|| black_box(mc.evaluate(&seeds).unwrap())))
        });
        group.bench_function(format!("world_sample_400_{label}"), |b| {
            pool.run(|| {
                b.iter(|| {
                    black_box(tcim_diffusion::WorldCollection::sample(&graph, &worlds).unwrap())
                })
            })
        });
    }
    group.finish();
}

fn bench_estimators(c: &mut Criterion) {
    let graph = Arc::new(SyntheticConfig::default().build().unwrap());
    let deadline = Deadline::finite(20);
    let seeds: Vec<NodeId> = (0..30u32).map(NodeId).collect();

    let world = WorldEstimator::new(
        Arc::clone(&graph),
        deadline,
        &WorldsConfig { num_worlds: 100, seed: 1 },
    )
    .unwrap();
    let mc = MonteCarloEstimator::new(Arc::clone(&graph), deadline, 100, 2).unwrap();
    let ris = RisEstimator::new(
        Arc::clone(&graph),
        deadline,
        &RisConfig { num_sets: 10_000, seed: 3, ..Default::default() },
    )
    .unwrap();

    let mut group = c.benchmark_group("estimator_evaluate");
    group.sample_size(20);
    group.bench_function("world_100", |b| b.iter(|| black_box(world.evaluate(&seeds).unwrap())));
    group.bench_function("monte_carlo_100", |b| b.iter(|| black_box(mc.evaluate(&seeds).unwrap())));
    group.bench_function("ris_10000", |b| b.iter(|| black_box(ris.evaluate(&seeds).unwrap())));
    group.finish();

    let mut build = c.benchmark_group("estimator_build");
    build.sample_size(10);
    build.bench_function("world_sample_100", |b| {
        b.iter(|| {
            black_box(
                WorldEstimator::new(
                    Arc::clone(&graph),
                    deadline,
                    &WorldsConfig { num_worlds: 100, seed: 7 },
                )
                .unwrap(),
            )
        })
    });
    build.bench_function("ris_build_10000", |b| {
        b.iter(|| {
            black_box(
                RisEstimator::new(
                    Arc::clone(&graph),
                    deadline,
                    &RisConfig { num_sets: 10_000, seed: 9, ..Default::default() },
                )
                .unwrap(),
            )
        })
    });
    build.finish();
}

criterion_group!(benches, bench_estimators, bench_parallel_estimation);
criterion_main!(benches);
