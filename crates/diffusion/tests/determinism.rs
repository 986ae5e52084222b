//! Regression tests: the parallel Monte-Carlo estimation engine must return
//! **bitwise-identical** `GroupInfluence` vectors at every thread count.
//!
//! The guarantee rests on two implementation choices (see
//! `ParallelismConfig`): world `i` derives its keyed coins from
//! `base_seed + i` independent of scheduling, and per-group activation
//! counts accumulate as integers before the single final conversion to
//! `f64`. Estimators run under the calling thread's count, so each case
//! builds and queries inside `ParallelismConfig::run`.

use std::sync::Arc;

use tcim_diffusion::{
    AdaptiveRis, Deadline, GroupInfluence, InfluenceOracle, MonteCarloEstimator, ParallelismConfig,
    RisConfig, RisEstimator, WorldCollection, WorldEstimator, WorldsConfig,
};
use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_graph::{Graph, MutationOp, NodeId};

/// The paper's synthetic setting scaled down: two homophilous groups.
fn sbm() -> Arc<Graph> {
    let config = SbmConfig::two_group(300, 0.7, 0.03, 0.005, 0.1, 42);
    Arc::new(stochastic_block_model(&config).unwrap())
}

fn seeds() -> Vec<NodeId> {
    (0..12u32).map(NodeId).collect()
}

/// Exact (bitwise) equality of influence vectors; `==` on `f64` would accept
/// `-0.0 == 0.0`, bitwise comparison does not.
fn assert_bitwise_equal(a: &GroupInfluence, b: &GroupInfluence, context: &str) {
    assert_eq!(a.values().len(), b.values().len(), "{context}: group count differs");
    for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: group {i} differs ({x} vs {y})");
    }
}

#[test]
fn world_estimator_is_bitwise_identical_across_thread_counts() {
    let graph = sbm();
    let seeds = seeds();
    let config = WorldsConfig { num_worlds: 64, seed: 7 };
    let evaluate = || {
        let estimator = WorldEstimator::new(Arc::clone(&graph), Deadline::finite(5), &config);
        estimator.unwrap().evaluate(&seeds).unwrap()
    };
    let reference = ParallelismConfig::serial().run(evaluate);
    assert!(reference.total() > 0.0, "degenerate reference estimate");

    for threads in [1usize, 2, 8] {
        let estimate = ParallelismConfig::fixed(threads).run(evaluate);
        assert_bitwise_equal(&reference, &estimate, &format!("world estimator, {threads} threads"));
    }
}

#[test]
fn monte_carlo_estimator_is_bitwise_identical_across_thread_counts() {
    let graph = sbm();
    let seeds = seeds();
    // MC walks the keyed worlds `3..99` on the fly, so it must also equal
    // the stored pool over the same worlds — at every deadline, not just 4.
    let deadlines = [Deadline::finite(4), Deadline::finite(0), Deadline::finite(1)];
    for deadline in deadlines.into_iter().chain([Deadline::finite(5), Deadline::unbounded()]) {
        let serial = MonteCarloEstimator::new(Arc::clone(&graph), deadline, 96, 3).unwrap();
        let reference = ParallelismConfig::serial().run(|| serial.evaluate(&seeds)).unwrap();
        assert!(reference.total() > 0.0, "degenerate reference estimate");

        for threads in [1usize, 2, 8] {
            let (estimate, worlds) = ParallelismConfig::fixed(threads).run(|| {
                let estimate = serial.evaluate(&seeds).unwrap();
                let config = WorldsConfig { num_worlds: 96, seed: 3 };
                let worlds = WorldEstimator::new(Arc::clone(&graph), deadline, &config).unwrap();
                (estimate, worlds.evaluate(&seeds).unwrap())
            });
            let context = format!("monte carlo τ={deadline}, {threads} threads");
            assert_bitwise_equal(&reference, &estimate, &context);
            assert_bitwise_equal(&worlds, &estimate, &format!("{context} vs worlds"));
        }
    }
}

/// `auto()` resolves the thread count from the environment
/// (`RAYON_NUM_THREADS` / available cores), so this case — unlike the
/// `fixed(n)` ones — changes behaviour under CI's capped re-run
/// (`RAYON_NUM_THREADS=2 cargo test …`) and covers the oversubscribed path.
#[test]
fn auto_parallelism_matches_serial() {
    let graph = sbm();
    let seeds = seeds();
    let serial = ParallelismConfig::serial()
        .run(|| {
            let config = WorldsConfig { num_worlds: 64, seed: 7 };
            WorldEstimator::new(Arc::clone(&graph), Deadline::finite(5), &config)
        })
        .unwrap();
    assert_bitwise_equal(
        &ParallelismConfig::serial().run(|| serial.evaluate(&seeds)).unwrap(),
        &ParallelismConfig::auto().run(|| serial.evaluate(&seeds)).unwrap(),
        "world estimator, auto threads",
    );

    // The greedy scans ask the cursor for one batch of gains per scan, and
    // a batch of 300 candidates × 256 worlds = 76 800 clears the cursor's
    // PARALLEL_GAIN_MIN_WORK (50 000), so the fan-out over candidates
    // really runs. It must equal, bitwise, one serial `gain` per candidate,
    // at ∅ and after two commits. Every estimator is separate, because the
    // cursors of one estimator share its gain rows and a batch would read
    // the reference's gains instead of computing its own.
    let big = WorldsConfig { num_worlds: 256, seed: 7 };
    let all: Vec<NodeId> = graph.nodes().collect();
    assert_eq!(all.len(), 300);
    let reference = ParallelismConfig::serial()
        .run(|| WorldEstimator::new(Arc::clone(&graph), Deadline::finite(5), &big))
        .unwrap();
    let mut reference_cursor = reference.cursor();
    let mut expected = vec![all.iter().map(|&v| reference_cursor.gain(v)).collect::<Vec<_>>()];
    for &seed in &seeds[..2] {
        reference_cursor.add_seed(seed);
        expected.push(all.iter().map(|&v| reference_cursor.gain(v)).collect());
    }
    for parallelism in
        [ParallelismConfig::fixed(2), ParallelismConfig::fixed(8), ParallelismConfig::auto()]
    {
        parallelism.run(|| {
            let oracle =
                WorldEstimator::new(Arc::clone(&graph), Deadline::finite(5), &big).unwrap();
            let mut cursor = oracle.cursor();
            for (step, expected) in expected.iter().enumerate() {
                if step > 0 {
                    cursor.add_seed(seeds[step - 1]);
                }
                let batch = cursor.gains(&all);
                assert_eq!(batch.len(), all.len());
                for (v, (got, want)) in all.iter().zip(batch.iter().zip(expected)) {
                    let context = format!("batch gain of {v:?}, {step} seeds, {parallelism:?}");
                    assert_bitwise_equal(want, got, &context);
                }
            }
            assert_bitwise_equal(reference_cursor.current(), cursor.current(), "cursor state");
            // A second cursor's round-0 batch answers from the table the first
            // one filled, with the same bits.
            let stored = oracle.cursor().gains(&all);
            for (v, (got, want)) in all.iter().zip(stored.iter().zip(&expected[0])) {
                assert_bitwise_equal(want, got, &format!("stored gain of {v:?}, {parallelism:?}"));
            }
        });
    }
}

#[test]
fn world_sampling_is_identical_across_thread_counts() {
    let graph = sbm();
    let config = WorldsConfig { num_worlds: 32, seed: 11 };
    let sample = || WorldCollection::sample(&graph, &config).unwrap();
    let serial = ParallelismConfig::serial().run(sample);
    for threads in [2usize, 8] {
        let parallel = ParallelismConfig::fixed(threads).run(sample);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.worlds().iter().zip(parallel.worlds()).enumerate() {
            assert_eq!(
                a.num_live_edges(),
                b.num_live_edges(),
                "world {i} live-edge count differs at {threads} threads"
            );
            for v in graph.nodes() {
                assert_eq!(
                    a.out_neighbors(v),
                    b.out_neighbors(v),
                    "world {i} adjacency of node {v:?} differs at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn lt_estimation_is_bitwise_identical_across_thread_counts() {
    let graph = sbm();
    let seeds = seeds();
    let config = WorldsConfig { num_worlds: 48, seed: 19 };
    let evaluate = || {
        let estimator = WorldEstimator::new_lt(Arc::clone(&graph), Deadline::finite(6), &config);
        estimator.unwrap().evaluate(&seeds).unwrap()
    };
    let reference = ParallelismConfig::serial().run(evaluate);

    for threads in [2usize, 8] {
        let estimate = ParallelismConfig::fixed(threads).run(evaluate);
        assert_bitwise_equal(&reference, &estimate, &format!("LT estimator, {threads} threads"));
    }
}

/// RR sketch `i` derives from `seed + i`, so the sketch *collection* — not
/// just the estimate — must be identical at every thread count.
#[test]
fn ris_sketches_are_identical_across_thread_counts() {
    let graph = sbm();
    let config = RisConfig { num_sets: 600, seed: 31, adaptive: None };
    let build = || RisEstimator::new(Arc::clone(&graph), Deadline::finite(4), &config).unwrap();
    let serial = ParallelismConfig::serial().run(build);
    for threads in [1usize, 2, 8] {
        let parallel = ParallelismConfig::fixed(threads).run(build);
        assert_eq!(serial.num_sets(), parallel.num_sets());
        for (i, (a, b)) in serial.sets().zip(parallel.sets()).enumerate() {
            assert_eq!(a, b, "sketch {i} differs at {threads} threads");
        }
    }
}

/// RIS estimates and the solver-driving cursor must agree bitwise with the
/// serial reference at any thread count (the estimate is a deterministic
/// function of the sketches, which the previous test pins down).
#[test]
fn ris_estimates_and_cursor_are_bitwise_identical_across_thread_counts() {
    let graph = sbm();
    let seeds = seeds();
    let config = RisConfig { num_sets: 900, seed: 37, adaptive: None };
    let build = || RisEstimator::new(Arc::clone(&graph), Deadline::finite(5), &config).unwrap();
    let serial = ParallelismConfig::serial().run(build);
    let reference = ParallelismConfig::serial().run(|| serial.evaluate(&seeds)).unwrap();
    assert!(reference.total() > 0.0, "degenerate reference estimate");

    for threads in [2usize, 8] {
        ParallelismConfig::fixed(threads).run(|| {
            let parallel = build();
            let estimate = parallel.evaluate(&seeds).unwrap();
            assert_bitwise_equal(
                &reference,
                &estimate,
                &format!("ris estimator, {threads} threads"),
            );

            let mut serial_cursor = serial.cursor();
            let mut parallel_cursor = parallel.cursor();
            for &candidate in seeds.iter().take(4) {
                assert_bitwise_equal(
                    &serial_cursor.gain(candidate),
                    &parallel_cursor.gain(candidate),
                    &format!("ris cursor gain, {threads} threads"),
                );
                serial_cursor.add_seed(candidate);
                parallel_cursor.add_seed(candidate);
                assert_bitwise_equal(
                    serial_cursor.current(),
                    parallel_cursor.current(),
                    &format!("ris cursor state, {threads} threads"),
                );
            }
        });
    }
}

/// The adaptive doubling trajectory depends only on the sketches, which are
/// thread-count independent — so the final sketch count and estimate must be
/// identical at 1, 2 and 8 threads (and under `auto()`, which CI re-runs with
/// `RAYON_NUM_THREADS` capped).
#[test]
fn adaptive_ris_sizing_is_identical_across_thread_counts() {
    let graph = sbm();
    let seeds = seeds();
    let adaptive = Some(AdaptiveRis { epsilon: 0.3, delta: 0.1, budget: 8, max_sets: 60_000 });
    let config = RisConfig { num_sets: 128, seed: 41, adaptive };
    let build = || {
        let estimator = RisEstimator::new(Arc::clone(&graph), Deadline::finite(4), &config);
        let estimator = estimator.unwrap();
        let estimate = estimator.evaluate(&seeds).unwrap();
        (estimator.num_sets(), estimate)
    };
    let (num_sets, reference) = ParallelismConfig::serial().run(build);

    for parallelism in
        [ParallelismConfig::fixed(2), ParallelismConfig::fixed(8), ParallelismConfig::auto()]
    {
        let (parallel_sets, estimate) = parallelism.run(build);
        assert_eq!(num_sets, parallel_sets, "adaptive sketch count differs under {parallelism:?}");
        assert_bitwise_equal(&reference, &estimate, &format!("adaptive ris, {parallelism:?}"));
    }
}

/// A CELF run through one cursor of `oracle`: lazy re-evaluation of the
/// stalest top candidate until it is fresh, ties to the lower node id. It
/// returns the chosen seeds and the bits of every gain it asked for, in
/// order, so two runs agree only if every answer agreed.
fn celf_trace(oracle: &dyn InfluenceOracle, budget: usize) -> (Vec<NodeId>, Vec<u64>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut cursor = oracle.cursor();
    let mut asked = Vec::new();
    let mut gain = |cursor: &mut Box<dyn tcim_diffusion::InfluenceCursor + '_>, v: NodeId| {
        let total = cursor.gain(v).total();
        asked.push(total.to_bits());
        // Gains are non-negative, so their bits order like their values.
        total.to_bits()
    };
    let mut heap: BinaryHeap<(u64, Reverse<u32>, usize)> =
        oracle.graph().nodes().map(|v| (gain(&mut cursor, v), Reverse(v.0), 0)).collect();
    while cursor.seeds().len() < budget {
        let Some((_, Reverse(v), round)) = heap.pop() else { break };
        if round == cursor.seeds().len() {
            cursor.add_seed(NodeId(v));
        } else {
            heap.push((gain(&mut cursor, NodeId(v)), Reverse(v), cursor.seeds().len()));
        }
    }
    (cursor.seeds().to_vec(), asked)
}

/// Every cursor of one estimator shares its gain rows, so eight threads
/// racing through the same CELF fill them concurrently.
/// Whoever fills an entry, each thread must see exactly the serial run
/// on a fresh estimator.
#[test]
fn cursors_sharing_one_oracle_across_threads_match_the_serial_run() {
    let graph = sbm();
    let config = WorldsConfig { num_worlds: 64, seed: 7 };
    let reference = ParallelismConfig::serial().run(|| {
        let serial = WorldEstimator::new(Arc::clone(&graph), Deadline::finite(5), &config).unwrap();
        celf_trace(&serial, 6)
    });
    assert_eq!(reference.0.len(), 6);

    let shared = Arc::new(
        ParallelismConfig::auto()
            .run(|| WorldEstimator::new(graph, Deadline::finite(5), &config))
            .unwrap(),
    );
    let start = std::sync::Barrier::new(8);
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (shared, start) = (Arc::clone(&shared), &start);
                scope.spawn(move || {
                    start.wait();
                    celf_trace(&*shared, 6)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (thread, run) in runs.iter().enumerate() {
        assert_eq!(run, &reference, "thread {thread} diverged from the serial CELF run");
    }
}

/// Greedy selection of `budget` seeds through one cursor of `oracle`, asking
/// for every node's gain in one batch per round (the path that fans out) and
/// keeping the node whose gain maximises `score` of the new per-group
/// influence, ties to the lower id. It returns the seeds and the bits of
/// every gain it saw, so two runs agree only if every answer agreed.
fn greedy_trace(
    oracle: &dyn InfluenceOracle,
    budget: usize,
    score: impl Fn(&[f64]) -> f64,
) -> (Vec<NodeId>, Vec<u64>) {
    let all: Vec<NodeId> = oracle.graph().nodes().collect();
    let mut cursor = oracle.cursor();
    let mut bits = Vec::new();
    for _ in 0..budget {
        let current = cursor.current().values().to_vec();
        let mut best: Option<(f64, NodeId)> = None;
        for (&v, gain) in all.iter().zip(cursor.gains(&all)) {
            bits.extend(gain.values().iter().map(|x| x.to_bits()));
            let after: Vec<f64> = current.iter().zip(gain.values()).map(|(c, g)| c + g).collect();
            let value = score(&after);
            if best.is_none_or(|(b, _)| value > b) {
                best = Some((value, v));
            }
        }
        cursor.add_seed(best.unwrap().1);
    }
    bits.extend(cursor.current().values().iter().map(|x| x.to_bits()));
    (cursor.seeds().to_vec(), bits)
}

/// The cache builds an oracle on one request's thread and serves queries to
/// others, so an oracle's answers must not depend on the thread count it was
/// built under. Each oracle is built serially; one copy answers `evaluate`
/// and the P1 (total influence) and P4 (sum of log normalised group
/// influence) greedy solves under eight threads, and a second copy answers
/// them serially. Separate copies keep the worlds oracle's gains from being
/// read out of gain rows the other run filled.
#[test]
fn oracles_built_serially_answer_identically_under_eight_threads() {
    let graph = sbm();
    let seeds = seeds();
    let deadline = Deadline::finite(5);
    let sizes = graph.group_sizes();
    let p1 = |f: &[f64]| f.iter().sum::<f64>();
    let p4 = |f: &[f64]| f.iter().zip(&sizes).map(|(x, &n)| (1.0 + x / n as f64).ln()).sum();
    // 300 candidates × 256 worlds clears the cursor's fan-out threshold.
    let build = || -> Vec<(&str, Box<dyn InfluenceOracle>)> {
        let worlds = WorldsConfig { num_worlds: 256, seed: 7 };
        let ris = RisConfig { num_sets: 2000, seed: 29, adaptive: None };
        vec![
            (
                "worlds",
                Box::new(WorldEstimator::new(Arc::clone(&graph), deadline, &worlds).unwrap()),
            ),
            (
                "mc",
                Box::new(MonteCarloEstimator::new(Arc::clone(&graph), deadline, 48, 3).unwrap()),
            ),
            ("ris", Box::new(RisEstimator::new(Arc::clone(&graph), deadline, &ris).unwrap())),
        ]
    };
    let answer = |oracle: &dyn InfluenceOracle| {
        let budget = 3;
        (
            oracle.evaluate(&seeds).unwrap(),
            greedy_trace(oracle, budget, p1),
            greedy_trace(oracle, budget, p4),
        )
    };
    let serial = ParallelismConfig::serial();
    let (queried_wide, queried_serially) = serial.run(|| (build(), build()));
    for ((name, wide), (_, narrow)) in queried_wide.iter().zip(&queried_serially) {
        let (estimate, unfair, fair) = ParallelismConfig::fixed(8).run(|| answer(wide.as_ref()));
        let (want_estimate, want_unfair, want_fair) = serial.run(|| answer(narrow.as_ref()));
        assert_bitwise_equal(&want_estimate, &estimate, &format!("{name} evaluate"));
        assert_eq!(want_unfair, unfair, "{name} P1 solve differs under eight threads");
        assert_eq!(want_fair, fair, "{name} P4 solve differs under eight threads");
    }
}

/// A sketch pool sampled serially and refreshed under eight threads equals a
/// cold build of the mutated graph under two, field for field.
#[test]
fn ris_refresh_under_another_thread_count_equals_a_cold_build() {
    let graph = sbm();
    let deadline = Deadline::finite(5);
    let config = RisConfig { num_sets: 2000, seed: 43, adaptive: None };
    let mut pool = ParallelismConfig::serial()
        .run(|| RisEstimator::new(Arc::clone(&graph), deadline, &config))
        .unwrap();
    let ops: Vec<MutationOp> = graph
        .edges()
        .take(6)
        .map(|(source, target, _)| MutationOp::RemoveEdge { source, target })
        .collect();
    let edited: Vec<(NodeId, NodeId)> = ops.iter().map(MutationOp::endpoints).collect();
    let mutated = Arc::new(graph.apply(&ops).unwrap());
    let resampled =
        ParallelismConfig::fixed(8).run(|| pool.refresh(Arc::clone(&mutated), &edited)).unwrap();
    // More than one 64-sketch chunk, so the resampling really fans out.
    assert!(resampled > 64, "only {resampled} sketches resampled");
    let cold =
        ParallelismConfig::fixed(2).run(|| RisEstimator::new(mutated, deadline, &config)).unwrap();
    assert_eq!(*pool.sketches_arc(), *cold.sketches_arc(), "refreshed pool differs from cold");
}
