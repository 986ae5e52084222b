//! Property-based tests for the diffusion layer: the structural properties
//! the solvers rely on (monotonicity, submodularity, deadline monotonicity,
//! cursor consistency) must hold on arbitrary graphs.

use std::sync::Arc;

use proptest::prelude::*;
use tcim_diffusion::{
    Deadline, InfluenceCursor, InfluenceOracle, MonteCarloEstimator, NaiveCursor, RisConfig,
    RisEstimator, WorldEstimator, WorldsConfig,
};
use tcim_graph::{Graph, GraphBuilder, GroupId, NodeId};

/// Strategy: a random directed graph with up to `max_nodes` nodes, random
/// groups out of 3 and random edge probabilities.
fn random_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (3..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0f64), 0..=max_edges)
            .prop_map(move |edges| {
                let mut b = GraphBuilder::new();
                for i in 0..n {
                    b.add_node(GroupId((i % 3) as u32));
                }
                for (s, t, p) in edges {
                    b.add_edge(NodeId(s), NodeId(t), p).unwrap();
                }
                b.build().unwrap()
            })
    })
}

fn estimator(graph: &Graph, deadline: Deadline, seed: u64) -> WorldEstimator {
    WorldEstimator::new(Arc::new(graph.clone()), deadline, &WorldsConfig { num_worlds: 24, seed })
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampled objective is monotone: adding a seed never decreases any
    /// group's influence.
    #[test]
    fn world_estimator_is_monotone(graph in random_graph(18, 60), seed in 0u64..100) {
        let est = estimator(&graph, Deadline::finite(3), seed);
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let small = &nodes[..nodes.len() / 2];
        let large = &nodes[..];
        let f_small = est.evaluate(small).unwrap();
        let f_large = est.evaluate(large).unwrap();
        for (a, b) in f_small.values().iter().zip(f_large.values()) {
            prop_assert!(b + 1e-9 >= *a);
        }
    }

    /// Diminishing returns on the sampled worlds: the marginal gain of a node
    /// with respect to a subset is at least its gain with respect to a superset.
    #[test]
    fn world_estimator_is_submodular(graph in random_graph(14, 50), seed in 0u64..100) {
        let est = estimator(&graph, Deadline::finite(4), seed);
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let subset: Vec<NodeId> = nodes.iter().copied().take(2).collect();
        let superset: Vec<NodeId> = nodes.iter().copied().take(4).collect();
        let extra = *nodes.last().unwrap();
        prop_assume!(!superset.contains(&extra));

        let value = |seeds: &[NodeId]| est.evaluate(seeds).unwrap().total();
        let gain_small = value(&[subset.clone(), vec![extra]].concat()) - value(&subset);
        let gain_large = value(&[superset.clone(), vec![extra]].concat()) - value(&superset);
        prop_assert!(gain_small + 1e-9 >= gain_large,
            "gain on subset {gain_small} < gain on superset {gain_large}");
    }

    /// Influence is non-decreasing in the deadline and the unbounded deadline
    /// dominates every finite one.
    #[test]
    fn influence_is_monotone_in_the_deadline(graph in random_graph(16, 60), seed in 0u64..100) {
        let seeds: Vec<NodeId> = graph.nodes().take(2).collect();
        let graph = Arc::new(graph);
        let worlds = WorldsConfig { num_worlds: 24, seed };
        let mut previous = 0.0;
        for tau in [0u32, 1, 2, 4, 8] {
            let est = WorldEstimator::new(Arc::clone(&graph), Deadline::finite(tau), &worlds).unwrap();
            let total = est.evaluate(&seeds).unwrap().total();
            prop_assert!(total + 1e-9 >= previous, "tau {tau}: {total} < {previous}");
            previous = total;
        }
        let unbounded = WorldEstimator::new(Arc::clone(&graph), Deadline::unbounded(), &worlds)
            .unwrap()
            .evaluate(&seeds)
            .unwrap()
            .total();
        prop_assert!(unbounded + 1e-9 >= previous);
    }

    /// The incremental cursor agrees with from-scratch evaluation after every
    /// insertion, and its gains equal evaluate-differences on the same worlds.
    #[test]
    fn cursor_matches_from_scratch_evaluation(graph in random_graph(15, 50), seed in 0u64..100) {
        let est = estimator(&graph, Deadline::finite(3), seed);
        let mut cursor = est.cursor();
        let mut committed: Vec<NodeId> = Vec::new();
        for node in graph.nodes().take(4) {
            let gain = cursor.gain(node).total();
            let mut with = committed.clone();
            with.push(node);
            let expected_gain =
                est.evaluate(&with).unwrap().total() - est.evaluate(&committed).unwrap().total();
            prop_assert!((gain - expected_gain).abs() < 1e-9,
                "cursor gain {gain} vs evaluate diff {expected_gain}");
            cursor.add_seed(node);
            committed.push(node);
            let direct = est.evaluate(&committed).unwrap();
            for (a, b) in cursor.current().values().iter().zip(direct.values()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Seeds always count themselves: total influence is at least the number
    /// of distinct seeds and at most the node count.
    #[test]
    fn influence_is_bounded(graph in random_graph(20, 80), seed in 0u64..100) {
        let seeds: Vec<NodeId> = graph.nodes().step_by(3).collect();
        let est = estimator(&graph, Deadline::finite(2), seed);
        let total = est.evaluate(&seeds).unwrap().total();
        prop_assert!(total + 1e-9 >= seeds.len() as f64);
        prop_assert!(total <= graph.num_nodes() as f64 + 1e-9);

        let mc = MonteCarloEstimator::new(Arc::new(graph.clone()), Deadline::finite(2), 16, seed).unwrap();
        let total_mc = mc.evaluate(&seeds).unwrap().total();
        prop_assert!(total_mc + 1e-9 >= seeds.len() as f64);
        prop_assert!(total_mc <= graph.num_nodes() as f64 + 1e-9);
    }

    /// With all edge probabilities forced to 1 the estimate is exact and
    /// equals deterministic bounded reachability.
    #[test]
    fn deterministic_graphs_are_estimated_exactly(graph in random_graph(15, 60), seed in 0u64..50) {
        let deterministic = graph.with_uniform_probability(1.0).unwrap();
        let seeds: Vec<NodeId> = deterministic.nodes().take(2).collect();
        let est = estimator(&deterministic, Deadline::finite(3), seed);
        let estimate = est.evaluate(&seeds).unwrap().total();
        let exact = tcim_graph::traversal::bounded_reachable(&deterministic, &seeds, Some(3)).len();
        prop_assert!((estimate - exact as f64).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental RIS cursor serves exactly the same marginal gains as a
    /// naive full re-scan of the sketches, per group, for any random graph
    /// and any insertion sequence.
    #[test]
    fn ris_cursor_gains_match_naive_rescan(graph in random_graph(14, 50), seed in 0u64..100) {
        let ris = RisEstimator::new(
            Arc::new(graph.clone()),
            Deadline::finite(3),
            &RisConfig { num_sets: 400, seed, ..Default::default() },
        )
        .unwrap();
        let mut fast = ris.cursor();
        let mut naive = NaiveCursor::new(&ris);
        for node in graph.nodes().take(4) {
            let a = fast.gain(node);
            let b = naive.gain(node);
            for (x, y) in a.values().iter().zip(b.values()) {
                prop_assert!((x - y).abs() < 1e-9,
                    "cursor gain {x} vs naive re-scan gain {y} at {node:?}");
            }
            fast.add_seed(node);
            naive.add_seed(node);
            for (x, y) in fast.current().values().iter().zip(naive.current().values()) {
                prop_assert!((x - y).abs() < 1e-9,
                    "cursor state {x} vs naive state {y} after {node:?}");
            }
        }
    }

    /// RIS estimates respect the same hard bounds as the forward estimators:
    /// at least the distinct seeds, at most the node count.
    #[test]
    fn ris_influence_is_bounded(graph in random_graph(16, 60), seed in 0u64..100) {
        let seeds: Vec<NodeId> = graph.nodes().step_by(3).collect();
        let ris = RisEstimator::new(
            Arc::new(graph.clone()),
            Deadline::finite(2),
            &RisConfig { num_sets: 500, seed, ..Default::default() },
        )
        .unwrap();
        let total = ris.evaluate(&seeds).unwrap().total();
        prop_assert!(total <= graph.num_nodes() as f64 + 1e-9);
        prop_assert!(total >= 0.0);
    }
}

/// MC and RIS are unbiased estimators of the same expectation, so on a fixed
/// seed they must agree within three combined standard deviations. The σ
/// bounds are Hoeffding-style and conservative: one cascade contributes a
/// value in `[0, n]` (σ ≤ n/2), one sketch a Bernoulli scaled by `n`
/// (σ ≤ n/2), so the means have σ ≤ n / (2√samples).
#[test]
fn mc_and_ris_estimates_agree_within_three_sigma() {
    let config = SbmLike::build();
    let graph = Arc::new(config);
    let n = graph.num_nodes() as f64;
    let deadline = Deadline::finite(3);
    let seeds: Vec<NodeId> = (0..8u32).map(NodeId).collect();

    let mc_samples = 4000usize;
    let ris_sets = 40_000usize;
    let mc = MonteCarloEstimator::new(Arc::clone(&graph), deadline, mc_samples, 5).unwrap();
    let ris = RisEstimator::new(
        Arc::clone(&graph),
        deadline,
        &RisConfig { num_sets: ris_sets, seed: 6, ..Default::default() },
    )
    .unwrap();

    let a = mc.evaluate(&seeds).unwrap().total();
    let b = ris.evaluate(&seeds).unwrap().total();
    let sigma_mc = n / (2.0 * (mc_samples as f64).sqrt());
    let sigma_ris = n / (2.0 * (ris_sets as f64).sqrt());
    let three_sigma = 3.0 * (sigma_mc * sigma_mc + sigma_ris * sigma_ris).sqrt();
    assert!(
        (a - b).abs() <= three_sigma,
        "mc {a} vs ris {b} differ by more than 3σ = {three_sigma}"
    );
}

/// Fixed two-group SBM used by the 3σ agreement test.
struct SbmLike;

impl SbmLike {
    fn build() -> Graph {
        use tcim_graph::generators::{stochastic_block_model, SbmConfig};
        stochastic_block_model(&SbmConfig::two_group(150, 0.7, 0.06, 0.01, 0.15, 9)).unwrap()
    }
}
