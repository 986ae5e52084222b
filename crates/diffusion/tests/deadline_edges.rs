//! Deadline edge cases: `τ = 0` (seeds only) and `τ = 1` (one hop) are where
//! off-by-one bugs in the bounded BFS / trace cutoffs live. Every estimator
//! must agree bitwise between its `evaluate` path and its solver-driving
//! cursor, and between 1 and 8 threads, at both deadlines. A thread count is
//! set by running the build or the query under `ParallelismConfig::run`.

use std::sync::Arc;

use tcim_diffusion::{
    Deadline, GroupInfluence, InfluenceOracle, MonteCarloEstimator, ParallelismConfig, RisConfig,
    RisEstimator, WorldCollection, WorldEstimator, WorldsConfig,
};
use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_graph::{Graph, MutationOp, NodeId};

fn sbm() -> Arc<Graph> {
    let config = SbmConfig::two_group(200, 0.7, 0.05, 0.01, 0.3, 17);
    Arc::new(stochastic_block_model(&config).unwrap())
}

/// Seeds drawn from both groups.
fn seeds() -> Vec<NodeId> {
    vec![NodeId(0), NodeId(3), NodeId(150), NodeId(199)]
}

fn assert_bitwise_equal(a: &GroupInfluence, b: &GroupInfluence, context: &str) {
    assert_eq!(a.values().len(), b.values().len(), "{context}: group count differs");
    for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: group {i} differs ({x} vs {y})");
    }
}

/// Drives a cursor over `seeds` and checks, after every commit, that its
/// incremental state matches a fresh `evaluate` of the same prefix bitwise.
fn assert_cursor_matches_evaluate(oracle: &dyn InfluenceOracle, seeds: &[NodeId], context: &str) {
    let mut cursor = oracle.cursor();
    for (i, &seed) in seeds.iter().enumerate() {
        cursor.add_seed(seed);
        let direct = oracle.evaluate(&seeds[..=i]).unwrap();
        assert_bitwise_equal(cursor.current(), &direct, &format!("{context}, prefix {}", i + 1));
    }
}

/// Exact per-group seed counts — what `τ = 0` must reduce to for the exact
/// (worlds / Monte-Carlo) estimators.
fn seed_counts(graph: &Graph, seeds: &[NodeId]) -> GroupInfluence {
    let mut counts = vec![0.0; graph.num_groups()];
    let mut seen = seeds.to_vec();
    seen.sort_unstable();
    seen.dedup();
    for &s in &seen {
        counts[graph.group_of(s).index()] += 1.0;
    }
    GroupInfluence::from_values(counts)
}

#[test]
fn worlds_estimator_handles_deadline_zero_and_one() {
    let graph = sbm();
    let seeds = seeds();
    for tau in [0u32, 1] {
        let deadline = Deadline::finite(tau);
        let config = WorldsConfig { num_worlds: 48, seed: 5 };
        let (serial, reference) = ParallelismConfig::serial().run(|| {
            let serial = WorldEstimator::new(Arc::clone(&graph), deadline, &config).unwrap();
            let reference = serial.evaluate(&seeds).unwrap();
            (serial, reference)
        });
        if tau == 0 {
            // Seeds-only: the live-edge BFS must not take a single hop.
            assert_bitwise_equal(&reference, &seed_counts(&graph, &seeds), "worlds τ=0");
        } else {
            assert!(reference.total() > seed_counts(&graph, &seeds).total(), "τ=1 adds neighbours");
        }
        for threads in [1usize, 8] {
            ParallelismConfig::fixed(threads).run(|| {
                assert_bitwise_equal(
                    &reference,
                    &serial.evaluate(&seeds).unwrap(),
                    &format!("worlds τ={tau}, {threads} threads"),
                );
                assert_cursor_matches_evaluate(
                    &serial,
                    &seeds,
                    &format!("worlds cursor τ={tau}, {threads} threads"),
                );
            });
        }
    }
}

#[test]
fn monte_carlo_estimator_handles_deadline_zero_and_one() {
    let graph = sbm();
    let seeds = seeds();
    for tau in [0u32, 1] {
        let deadline = Deadline::finite(tau);
        let serial = MonteCarloEstimator::new(Arc::clone(&graph), deadline, 64, 9).unwrap();
        let reference = ParallelismConfig::serial().run(|| serial.evaluate(&seeds)).unwrap();
        if tau == 0 {
            assert_bitwise_equal(&reference, &seed_counts(&graph, &seeds), "monte-carlo τ=0");
        }
        for threads in [1usize, 8] {
            ParallelismConfig::fixed(threads).run(|| {
                assert_bitwise_equal(
                    &reference,
                    &serial.evaluate(&seeds).unwrap(),
                    &format!("monte-carlo τ={tau}, {threads} threads"),
                );
                assert_cursor_matches_evaluate(
                    &serial,
                    &seeds,
                    &format!("monte-carlo cursor τ={tau}, {threads} threads"),
                );
            });
        }
    }
}

#[test]
fn ris_estimator_handles_deadline_zero_and_one() {
    let graph = sbm();
    let seeds = seeds();
    for tau in [0u32, 1] {
        let deadline = Deadline::finite(tau);
        let config = RisConfig { num_sets: 800, seed: 13, adaptive: None };
        let (serial, reference) = ParallelismConfig::serial().run(|| {
            let serial = RisEstimator::new(Arc::clone(&graph), deadline, &config).unwrap();
            let reference = serial.evaluate(&seeds).unwrap();
            (serial, reference)
        });
        if tau == 0 {
            // τ = 0 sketches contain exactly their target, so every sketch is
            // a singleton and the estimate is driven by target hits alone.
            assert!(serial.sets().all(|s| s.len() == 1), "τ=0 sketches must be singletons");
        }
        for threads in [1usize, 8] {
            ParallelismConfig::fixed(threads).run(|| {
                let parallel = RisEstimator::new(Arc::clone(&graph), deadline, &config).unwrap();
                assert_bitwise_equal(
                    &reference,
                    &parallel.evaluate(&seeds).unwrap(),
                    &format!("ris τ={tau}, {threads} threads"),
                );
                assert_cursor_matches_evaluate(
                    &parallel,
                    &seeds,
                    &format!("ris cursor τ={tau}, {threads} threads"),
                );
            });
        }
    }
}

#[test]
fn shared_sketch_pools_serve_identical_answers() {
    // A clone of a RIS estimator shares its sketch pool; answers through the
    // clone must be bitwise-identical, and extending the clone must not
    // disturb the original (copy-on-write).
    let graph = sbm();
    let seeds = seeds();
    let original = RisEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(1),
        &RisConfig { num_sets: 400, seed: 21, ..Default::default() },
    )
    .unwrap();
    let clone = original.clone();
    assert_eq!(Arc::as_ptr(&original.sketches_arc()), Arc::as_ptr(&clone.sketches_arc()));
    assert_bitwise_equal(
        &original.evaluate(&seeds).unwrap(),
        &clone.evaluate(&seeds).unwrap(),
        "shared sketch pool",
    );

    let mut grown = clone.clone();
    grown.extend_to(600);
    assert_eq!(grown.num_sets(), 600);
    assert_eq!(original.num_sets(), 400, "copy-on-write must not grow the original");
    // The grown pool's first 400 sketches are the original's (seed + index
    // derivation), so a fresh 600-sketch estimator matches it exactly.
    let fresh = RisEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(1),
        &RisConfig { num_sets: 600, seed: 21, ..Default::default() },
    )
    .unwrap();
    assert_bitwise_equal(
        &grown.evaluate(&seeds).unwrap(),
        &fresh.evaluate(&seeds).unwrap(),
        "extended clone vs fresh sample",
    );
}

#[test]
fn deadline_edges_survive_every_mutation_kind() {
    // τ = 0, τ = 1 and ∞ must keep their invariants — and their bitwise
    // thread-independence — after each kind of graph mutation, and the RIS
    // incremental refresh must equal a cold rebuild at exactly those
    // deadlines (the cutoff arithmetic is where a stale sketch would hide).
    let base = sbm();
    let seeds = seeds();
    // One mutation of each kind, chained: insert a fresh edge, remove an
    // original one, reweight another.
    let added = base
        .nodes()
        .find_map(|u| {
            base.nodes().find(|&v| u != v && !base.out_neighbors(u).any(|w| w == v)).map(|v| (u, v))
        })
        .unwrap();
    let mut existing = base.edges().map(|(s, t, _)| (s, t));
    let removed = existing.next().unwrap();
    let reweighted = existing.next().unwrap();
    let mutations = [
        MutationOp::AddEdge { source: added.0, target: added.1, probability: 0.5 },
        MutationOp::RemoveEdge { source: removed.0, target: removed.1 },
        MutationOp::Reweight { source: reweighted.0, target: reweighted.1, probability: 0.9 },
    ];

    // One worlds pool sampled on the base graph and patched through every
    // mutation; MC over the same `(seed, samples)` must equal it bitwise.
    let serial = ParallelismConfig::serial();
    let pool_config = WorldsConfig { num_worlds: 48, seed: 5 };
    let mut pool = Arc::new(serial.run(|| WorldCollection::sample(&base, &pool_config)).unwrap());
    let mut previous = Arc::clone(&base);
    for op in mutations {
        let mutated = Arc::new(previous.apply(std::slice::from_ref(&op)).unwrap());
        let edited = [op.endpoints()];
        pool = Arc::new(serial.run(|| pool.patch(&mutated, &edited, &pool_config)).unwrap());
        for (tau, deadline) in [
            (Some(0u32), Deadline::finite(0)),
            (Some(1), Deadline::finite(1)),
            (None, Deadline::unbounded()),
        ] {
            let context = |estimator: &str| format!("{estimator} after {}, τ={tau:?}", op.label());
            // Worlds: serial == 8 threads on the mutated graph; τ = 0 still
            // reduces to exact seed counts.
            let (worlds, reference) = serial.run(|| {
                let worlds =
                    WorldEstimator::new(Arc::clone(&mutated), deadline, &pool_config).unwrap();
                let reference = worlds.evaluate(&seeds).unwrap();
                (worlds, reference)
            });
            if tau == Some(0) {
                assert_bitwise_equal(
                    &reference,
                    &seed_counts(&mutated, &seeds),
                    &context("worlds"),
                );
            }
            assert_bitwise_equal(
                &reference,
                &ParallelismConfig::fixed(8).run(|| worlds.evaluate(&seeds)).unwrap(),
                &context("worlds"),
            );

            // Monte-Carlo: the unstored form of the same worlds, so it equals
            // both the cold pool and the patched one (and thereby inherits
            // τ = 0 exactness), and stays thread-independent.
            let mc = MonteCarloEstimator::new(Arc::clone(&mutated), deadline, 48, 5).unwrap();
            let mc_reference = serial.run(|| mc.evaluate(&seeds)).unwrap();
            assert_bitwise_equal(&mc_reference, &reference, &context("monte-carlo vs cold worlds"));
            let patched =
                WorldEstimator::from_worlds(Arc::clone(&mutated), Arc::clone(&pool), deadline)
                    .unwrap();
            assert_bitwise_equal(
                &mc_reference,
                &patched.evaluate(&seeds).unwrap(),
                &context("monte-carlo vs patched worlds"),
            );
            assert_bitwise_equal(
                &mc_reference,
                &ParallelismConfig::fixed(8).run(|| mc.evaluate(&seeds)).unwrap(),
                &context("monte-carlo"),
            );

            // RIS: refreshing the pre-mutation pool must equal a cold build
            // on the mutated graph, bitwise, at every deadline edge.
            for threads in [1usize, 8] {
                let config = RisConfig { num_sets: 400, seed: 13, adaptive: None };
                ParallelismConfig::fixed(threads).run(|| {
                    let mut refreshed =
                        RisEstimator::new(Arc::clone(&previous), deadline, &config).unwrap();
                    refreshed.refresh(Arc::clone(&mutated), &edited).unwrap();
                    let cold = RisEstimator::new(Arc::clone(&mutated), deadline, &config).unwrap();
                    assert_bitwise_equal(
                        &refreshed.evaluate(&seeds).unwrap(),
                        &cold.evaluate(&seeds).unwrap(),
                        &format!("{} ({threads} threads)", context("ris refresh")),
                    );
                    if tau == Some(0) {
                        assert!(
                            refreshed.sets().all(|s| s.len() == 1),
                            "τ=0 sketches must stay singletons after {}",
                            op.label()
                        );
                    }
                });
            }
        }
        previous = mutated;
    }
    assert_eq!(previous.version(), 3, "one version step per mutation kind");
}

#[test]
fn unbounded_and_huge_finite_deadlines_agree() {
    // τ larger than any possible path length must equal τ = ∞ bitwise.
    let graph = sbm();
    let seeds = seeds();
    let far = WorldEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(10_000),
        &WorldsConfig { num_worlds: 32, seed: 3 },
    )
    .unwrap();
    let unbounded = far.with_deadline(Deadline::unbounded());
    assert_bitwise_equal(
        &far.evaluate(&seeds).unwrap(),
        &unbounded.evaluate(&seeds).unwrap(),
        "huge finite vs unbounded deadline",
    );
}
