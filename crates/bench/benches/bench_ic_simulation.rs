//! Micro-benchmarks of single-cascade simulation (IC and LT) and live-edge
//! world sampling on the synthetic SBM.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tcim_datasets::SyntheticConfig;
use tcim_diffusion::{simulate_ic_seeded, simulate_lt_seeded, LiveEdgeWorld, LtWeights};
use tcim_graph::NodeId;

fn bench_ic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ic_simulation");
    group.sample_size(20);
    for &nodes in &[200usize, 500] {
        let graph = Arc::new(
            SyntheticConfig { num_nodes: nodes, ..SyntheticConfig::default() }.build().unwrap(),
        );
        let seeds: Vec<NodeId> = (0..10u32).map(NodeId).collect();
        group.bench_with_input(BenchmarkId::new("single_cascade", nodes), &nodes, |b, _| {
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                black_box(simulate_ic_seeded(&graph, &seeds, run).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_lt(c: &mut Criterion) {
    let graph = Arc::new(SyntheticConfig::default().build().unwrap());
    let weights = LtWeights::from_graph(&graph);
    let seeds: Vec<NodeId> = (0..10u32).map(NodeId).collect();
    let mut group = c.benchmark_group("lt_simulation");
    group.sample_size(20);
    group.bench_function("single_cascade_500", |b| {
        let mut run = 0u64;
        b.iter(|| {
            run += 1;
            black_box(simulate_lt_seeded(&graph, &weights, &seeds, run).unwrap())
        });
    });
    group.finish();
}

fn bench_world_sampling(c: &mut Criterion) {
    let graph = Arc::new(SyntheticConfig::default().build().unwrap());
    let mut group = c.benchmark_group("live_edge_worlds");
    group.sample_size(20);
    group.bench_function("sample_world_500", |b| {
        let mut world_seed = 0u64;
        b.iter(|| {
            world_seed += 1;
            black_box(LiveEdgeWorld::sample(&graph, world_seed))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ic, bench_lt, bench_world_sampling);
criterion_main!(benches);
