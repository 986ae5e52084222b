//! The world cursor against a reference answer. `WorldCursor` keeps each
//! node's hop distance from the committed seeds and prunes its BFS at nodes
//! the seeds reach sooner; it also serves round-0 gains from a table shared
//! by every cursor of one oracle, and answers whole scans as one batch. None
//! of that may change an answer: the cursor's state must equal `evaluate(S)`
//! bitwise, every marginal gain must equal `evaluate(S ∪ {v}) − evaluate(S)`
//! as integer world counts, and a batch must equal the single gains bitwise,
//! under IC and LT worlds at every deadline edge.

use std::sync::Arc;

use proptest::prelude::*;
use tcim_diffusion::{Deadline, GroupInfluence, InfluenceOracle, WorldEstimator, WorldsConfig};
use tcim_graph::{Graph, GraphBuilder, GroupId, NodeId};

const WORLDS: usize = 16;

/// Strategy: a random directed graph with 3 to `max_nodes` nodes in 3
/// groups, with random edge probabilities (0 and 1 included).
fn random_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (3..=max_nodes).prop_flat_map(move |n| {
        // A quarter of the edges are certain and a quarter blocked.
        let p = (0u32..4, 0.0f64..=1.0).prop_map(|(kind, p)| [0.0, 1.0, p, p][kind as usize]);
        proptest::collection::vec((0..n as u32, 0..n as u32, p), 0..=max_edges).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new();
                for i in 0..n {
                    b.add_node(GroupId((i % 3) as u32));
                }
                for (s, t, p) in edges {
                    b.add_edge(NodeId(s), NodeId(t), p).unwrap();
                }
                b.build().unwrap()
            },
        )
    })
}

fn deadlines() -> [Deadline; 5] {
    [
        Deadline::finite(0),
        Deadline::finite(1),
        Deadline::finite(2),
        Deadline::finite(5),
        Deadline::unbounded(),
    ]
}

/// The per-group world counts behind an estimate of `worlds` worlds; fails
/// unless every value is a whole number of worlds.
fn world_counts(influence: &GroupInfluence, worlds: usize) -> Vec<i64> {
    influence
        .values()
        .iter()
        .map(|&value| {
            let count = value * worlds as f64;
            assert!((count - count.round()).abs() < 1e-6, "{value} is not a count over {worlds}");
            count.round() as i64
        })
        .collect()
}

fn bits(influence: &GroupInfluence) -> Vec<u64> {
    influence.values().iter().map(|v| v.to_bits()).collect()
}

/// Drives one cursor of `oracle` through `order` and checks it against
/// `evaluate` before and after every commit: the state bitwise, and the
/// gain of every node (committed seeds included) plus one out-of-bounds
/// node as integer counts. One batch over those nodes, asked first, must
/// equal the per-node gains bitwise.
fn check_cursor(oracle: &WorldEstimator, order: &[NodeId]) -> Result<(), String> {
    let n = oracle.graph().num_nodes();
    let worlds = oracle.num_worlds();
    let all: Vec<NodeId> = (0..=n as u32).map(NodeId).collect();
    let mut cursor = oracle.cursor();
    let mut seeds: Vec<NodeId> = Vec::new();
    for step in 0..=order.len() {
        let base = oracle.evaluate(&seeds).map_err(|e| e.to_string())?;
        if bits(cursor.current()) != bits(&base) {
            return Err(format!("seeds {seeds:?}: state {:?} vs {:?}", cursor.current(), base));
        }
        let base = world_counts(&base, worlds);
        let batch = cursor.gains(&all);
        if batch.len() != all.len() {
            return Err(format!(
                "seeds {seeds:?}: {} batch gains for {} nodes",
                batch.len(),
                n + 1
            ));
        }
        for (&v, batched) in all.iter().zip(&batch) {
            let single = cursor.gain(v);
            if bits(batched) != bits(&single) {
                return Err(format!("seeds {seeds:?}, {v:?}: batch {batched:?} vs {single:?}"));
            }
            let gain = world_counts(&single, worlds);
            let expected = if v.index() < n {
                let with: Vec<NodeId> = seeds.iter().copied().chain([v]).collect();
                let with = oracle.evaluate(&with).map_err(|e| e.to_string())?;
                world_counts(&with, worlds).iter().zip(&base).map(|(a, b)| a - b).collect()
            } else {
                vec![0; base.len()]
            };
            if gain != expected {
                return Err(format!("seeds {seeds:?}, gain of {v:?}: {gain:?} vs {expected:?}"));
            }
        }
        if let Some(&next) = order.get(step) {
            cursor.add_seed(next);
            seeds.push(next);
        }
    }
    Ok(())
}

/// Every deadline on one pool, through [`WorldEstimator::with_deadline`]
/// (whose copies must not share the singleton table), twice each: the first
/// cursor fills the table, the second reads it.
fn check_all_deadlines(base: &WorldEstimator, order: &[NodeId]) -> Result<(), String> {
    for deadline in deadlines() {
        let oracle = base.with_deadline(deadline);
        for pass in 0..2 {
            check_cursor(&oracle, order).map_err(|e| format!("{deadline}, pass {pass}: {e}"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ic_cursor_matches_evaluate_exactly(
        graph in random_graph(12, 36),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..12, 0..=4),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: WORLDS, seed };
        let base = WorldEstimator::new(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_all_deadlines(&base, &order), Ok(()));
    }

    #[test]
    fn lt_cursor_matches_evaluate_exactly(
        graph in random_graph(12, 36),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..12, 0..=4),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: WORLDS, seed };
        let base = WorldEstimator::new_lt(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_all_deadlines(&base, &order), Ok(()));
    }
}

/// A 300-node path with p = 1 puts nodes 254 to 299 hops from node 0. The
/// cursor stores such distances as "covered, far" and never prunes on them;
/// a distance stored modulo 256 would turn node 255 back into an uncovered
/// node (and node 256 into a seed), which the gains below would expose.
#[test]
fn distances_past_253_hops_saturate() {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..300).map(|i| b.add_node(GroupId(i % 2))).collect();
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], 1.0).unwrap();
    }
    let graph = Arc::new(b.build().unwrap());
    let config = WorldsConfig { num_worlds: 2, seed: 0 };
    for deadline in [Deadline::finite(300), Deadline::unbounded()] {
        let oracle = WorldEstimator::new(Arc::clone(&graph), deadline, &config).unwrap();
        for order in [&[0, 260, 100][..], &[150, 0, 280], &[299, 254, 0]] {
            let order: Vec<NodeId> = order.iter().map(|&v| NodeId(v)).collect();
            assert_eq!(check_cursor(&oracle, &order), Ok(()), "{deadline}, order {order:?}");
        }
    }
}
