//! The world cursor against a reference answer. `WorldCursor` keeps each
//! node's hop distance from the committed seeds and prunes its BFS at nodes
//! the seeds reach sooner; it also serves gains against the first seed sets
//! of size 0, 1 and 2 from rows shared by every cursor of one oracle, and
//! answers whole scans as one batch. Once its searches (and, from three
//! seeds on, the round-0 gains it read from the shared row) have paid for
//! it, it keeps every ground candidate's gain current by reverse searches
//! instead.
//! None of that may change an answer: the cursor's state must equal
//! `evaluate(S)` bitwise, every marginal gain must equal
//! `evaluate(S ∪ {v}) − evaluate(S)` as integer world counts, a batch must
//! equal the single gains bitwise, and a gain read from a row or from kept
//! counts must equal the one a fresh oracle computes, under IC and LT worlds
//! at every deadline edge. Where the cursor predicts it cheaper, it counts a
//! batch by one reachability sweep per world over 256-target blocks
//! instead of searching; the sweep's counts must equal the searches' as
//! integers at node counts on either side of every block edge.

use std::sync::Arc;

use std::sync::Barrier;

use proptest::prelude::*;
use tcim_diffusion::{Deadline, GroupInfluence, InfluenceOracle, WorldEstimator, WorldsConfig};
use tcim_graph::generators::{watts_strogatz, WattsStrogatzConfig};
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
/// (whose copies must not share gain rows), twice each: the first cursor
/// fills the rows, the second reads them.
fn check_all_deadlines(base: &WorldEstimator, order: &[NodeId]) -> Result<(), String> {
    for deadline in deadlines() {
        let oracle = base.with_deadline(deadline);
        for pass in 0..2 {
            check_cursor(&oracle, order).map_err(|e| format!("{deadline}, pass {pass}: {e}"))?;
        }
    }
    Ok(())
}

/// The bits of the gains of `candidates` at every step of committing
/// `order` on one cursor of `oracle`: the batch, then each single gain.
fn gain_bits(oracle: &WorldEstimator, order: &[NodeId], candidates: &[NodeId]) -> Vec<Vec<u64>> {
    let mut cursor = oracle.cursor();
    let mut trace = Vec::new();
    for step in 0..=order.len() {
        trace.extend(cursor.gains(candidates).iter().map(bits));
        trace.extend(candidates.iter().map(|&v| bits(&cursor.gain(v))));
        if let Some(&next) = order.get(step) {
            cursor.add_seed(next);
        }
    }
    trace
}

/// What [`gain_bits`] must return, from oracles that have stored no gain:
/// at each step a fresh copy of `oracle` (new, empty rows) commits the
/// seeds so far and computes one batch, which stands for the single gains
/// too.
fn fresh_gain_bits(
    oracle: &WorldEstimator,
    order: &[NodeId],
    candidates: &[NodeId],
) -> Vec<Vec<u64>> {
    let mut trace = Vec::new();
    for step in 0..=order.len() {
        let fresh = oracle.with_deadline(oracle.deadline());
        let mut cursor = fresh.cursor();
        for &seed in &order[..step] {
            cursor.add_seed(seed);
        }
        let batch: Vec<Vec<u64>> = cursor.gains(candidates).iter().map(bits).collect();
        trace.extend(batch.iter().cloned());
        trace.extend(batch);
    }
    trace
}

/// Cursors that share an oracle's gain rows, each against fresh oracles, at
/// every deadline: one replaying the claimant's seeds, one over another
/// candidate set than the claimant's first batch (a pool of the even nodes
/// after the whole graph, and the whole graph after that pool), and one
/// whose first seed differs. Afterwards rows exist for sizes 0 to
/// `min(|order|, 2)` only, row 0 over every node and rows 1 and 2 over the
/// claimant's first batch.
fn check_rows(base: &WorldEstimator, order: &[NodeId]) -> Result<(), String> {
    let n = base.graph().num_nodes();
    let all: Vec<NodeId> = (0..=n as u32).map(NodeId).collect();
    let pool: Vec<NodeId> = all.iter().copied().filter(|v| v.0 % 2 == 0).collect();
    let mut other = order.to_vec();
    if let Some(first) = other.first_mut() {
        *first = NodeId((first.0 + 1) % n as u32);
    }
    for deadline in deadlines() {
        for (claimant, reader) in [(&all, &pool), (&pool, &all)] {
            let oracle = base.with_deadline(deadline);
            let runs =
                [(order, claimant), (order, claimant), (order, reader), (&other[..], reader)];
            for (run, (seeds, candidates)) in runs.into_iter().enumerate() {
                if gain_bits(&oracle, seeds, candidates)
                    != fresh_gain_bits(&oracle, seeds, candidates)
                {
                    return Err(format!(
                        "{deadline}, run {run} (seeds {seeds:?}, {} candidates) differs from a fresh oracle",
                        candidates.len()
                    ));
                }
            }
            let ground = claimant.iter().filter(|v| v.index() < n).count();
            let expected: Vec<Option<usize>> = (0..5)
                .map(|size| match size {
                    0 => Some(n),
                    1 | 2 if size <= order.len() => Some(ground),
                    _ => None,
                })
                .collect();
            let rows: Vec<Option<usize>> = (0..5).map(|size| oracle.gain_row_slots(size)).collect();
            if rows != expected {
                return Err(format!("{deadline}: row slots {rows:?}, expected {expected:?}"));
            }
        }
    }
    Ok(())
}

/// The integer world counts of the gains of `candidates` on a fresh copy of
/// `oracle` (new, empty rows) that has committed `seeds`, asked one by one:
/// a cursor that asks no batch never sweeps, and with no ground set never
/// buys kept counts, so every count comes from the pruned forward BFS.
fn fresh_counts(oracle: &WorldEstimator, seeds: &[NodeId], candidates: &[NodeId]) -> Vec<Vec<i64>> {
    let fresh = oracle.with_deadline(oracle.deadline());
    let mut cursor = fresh.cursor();
    for &seed in seeds {
        cursor.add_seed(seed);
    }
    let worlds = oracle.num_worlds();
    candidates.iter().map(|&v| world_counts(&cursor.gain(v), worlds)).collect()
}

/// Drives one cursor of `oracle` over `ground` through `order` until it
/// must have bought kept counts, and checks it against a fresh oracle after
/// every commit: first every ground candidate's single gain, then one
/// batch, as integer world counts.
///
/// The cursor buys once the BFS node visits of the gains it searched for
/// reach `2·(W·n + live edges)`, at the first gain that misses the rows
/// after that (its ground is set and row 0 holds it from step 0's batch).
/// A supercritical oracle pays that in round 0, so it buys at one seed and
/// refreshes rows 1 and 2 from kept counts. Any other pays at three seeds,
/// where no row answers: every search of an in-range candidate visits at
/// least its source in every world, so the batches asked there pay the
/// price, and the seeds after them run on kept counts. A cursor that read
/// round 0 from another's row 0 has searched nothing there; from three
/// seeds on those reads count too, so it may buy at its first gain there.
fn check_kept_counts(
    oracle: &WorldEstimator,
    ground: &[NodeId],
    order: &[NodeId],
) -> Result<(), String> {
    let n = oracle.graph().num_nodes();
    let worlds = oracle.num_worlds();
    let live: usize = oracle.worlds().worlds().iter().map(|w| w.num_live_edges()).sum();
    let price = 2 * (worlds * n + live);
    let in_range = ground.iter().filter(|v| v.index() < n).count().max(1);
    let mut cursor = oracle.cursor();
    let mut seeds: Vec<NodeId> = Vec::new();
    for step in 0..=order.len() {
        let expected = fresh_counts(oracle, &seeds, ground);
        let singles: Vec<Vec<i64>> =
            ground.iter().map(|&v| world_counts(&cursor.gain(v), worlds)).collect();
        if singles != expected {
            return Err(format!("seeds {seeds:?}: single gains {singles:?} vs {expected:?}"));
        }
        let batch: Vec<Vec<i64>> =
            cursor.gains(ground).iter().map(|gain| world_counts(gain, worlds)).collect();
        if batch != expected {
            return Err(format!("seeds {seeds:?}: batch {batch:?} vs {expected:?}"));
        }
        if seeds.len() == 3 {
            for _ in 0..price.div_ceil(worlds * in_range) {
                cursor.gains(ground);
            }
        }
        if let Some(&next) = order.get(step) {
            cursor.add_seed(next);
            seeds.push(next);
        }
    }
    Ok(())
}

/// [`check_kept_counts`] at every deadline, over every node (and one past
/// the last) and over the even nodes, for two cursors of one oracle in
/// turn. The second reads its round 0 from the row 0 the first filled, and
/// those reads count toward its buy once it holds three seeds.
fn check_kept_counts_everywhere(base: &WorldEstimator, order: &[NodeId]) -> Result<(), String> {
    let n = base.graph().num_nodes();
    let all: Vec<NodeId> = (0..=n as u32).map(NodeId).collect();
    let pool: Vec<NodeId> = all.iter().copied().filter(|v| v.0 % 2 == 0).collect();
    for deadline in deadlines() {
        for ground in [&all, &pool] {
            let oracle = base.with_deadline(deadline);
            for cursor in ["first", "second"] {
                check_kept_counts(&oracle, ground, order).map_err(|e| {
                    format!("{deadline}, {} candidates, {cursor} cursor: {e}", ground.len())
                })?;
            }
        }
    }
    Ok(())
}

/// Strategy: a random directed graph in 3 groups whose node count sits on
/// either side of a 64- or 256-target block edge (1 to 600 nodes), with up
/// to two edges per node and random probabilities (0 and 1 included).
fn block_edge_graph() -> impl Strategy<Value = Graph> {
    const SIZES: [usize; 8] = [1, 63, 64, 65, 255, 256, 257, 600];
    (0..SIZES.len()).prop_flat_map(|size| {
        let n = SIZES[size];
        let p = (0u32..4, 0.0f64..=1.0).prop_map(|(kind, p)| [0.0, 1.0, p, p][kind as usize]);
        let edge = (0..n as u32, 0..n as u32, p);
        proptest::collection::vec(edge, 0..=2 * n).prop_map(move |edges| {
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

/// The sweep's counts against the searches', as integers, at every deadline
/// and after every commit of `order` (∅ first): over every node, and over
/// a pool with duplicates and ids past the last node.
fn check_sweep(base: &WorldEstimator, order: &[NodeId]) -> Result<(), String> {
    let n = base.graph().num_nodes() as u32;
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    let pool: Vec<NodeId> = [n + 3, 0, n - 1, 0, n / 2, n, n - 1].map(NodeId).to_vec();
    for deadline in deadlines() {
        let oracle = base.with_deadline(deadline);
        for step in 0..=order.len() {
            let seeds = &order[..step];
            for candidates in [&all, &pool] {
                let swept: Vec<Vec<i64>> = oracle
                    .swept_gain_counts(seeds, candidates)
                    .into_iter()
                    .map(|counts| counts.into_iter().map(|c| c as i64).collect())
                    .collect();
                let searched = fresh_counts(&oracle, seeds, candidates);
                if swept != searched {
                    let first = swept.iter().zip(&searched).position(|(a, b)| a != b);
                    return Err(format!(
                        "{deadline}, seeds {seeds:?}, {} candidates: first difference at {first:?}",
                        candidates.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ic_sweeps_count_as_the_searches_do(
        graph in block_edge_graph(),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..600, 0..=3),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: 8, seed };
        let base = WorldEstimator::new(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_sweep(&base, &order), Ok(()));
    }

    #[test]
    fn lt_sweeps_count_as_the_searches_do(
        graph in block_edge_graph(),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..600, 0..=3),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: 8, seed };
        let base = WorldEstimator::new_lt(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_sweep(&base, &order), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ic_gain_rows_answer_as_fresh_oracles_do(
        graph in random_graph(12, 36),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..12, 0..=4),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: WORLDS, seed };
        let base = WorldEstimator::new(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_rows(&base, &order), Ok(()));
    }

    #[test]
    fn lt_gain_rows_answer_as_fresh_oracles_do(
        graph in random_graph(12, 36),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..12, 0..=4),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: WORLDS, seed };
        let base = WorldEstimator::new_lt(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_rows(&base, &order), Ok(()));
    }

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

    #[test]
    fn ic_kept_counts_match_fresh_oracles(
        graph in random_graph(12, 36),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..12, 4..=6),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: WORLDS, seed };
        let base = WorldEstimator::new(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_kept_counts_everywhere(&base, &order), Ok(()));
    }

    #[test]
    fn lt_kept_counts_match_fresh_oracles(
        graph in random_graph(12, 36),
        seed in 0u64..1000,
        order in proptest::collection::vec(0u32..12, 4..=6),
    ) {
        let n = graph.num_nodes() as u32;
        let order: Vec<NodeId> = order.into_iter().map(|v| NodeId(v % n)).collect();
        let config = WorldsConfig { num_worlds: WORLDS, seed };
        let base = WorldEstimator::new_lt(Arc::new(graph), Deadline::unbounded(), &config).unwrap();
        prop_assert_eq!(check_kept_counts_everywhere(&base, &order), Ok(()));
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

fn small_world(num_nodes: usize, seed: u64) -> Arc<Graph> {
    let config = WattsStrogatzConfig {
        num_nodes,
        neighbors: 3,
        rewire_probability: 0.1,
        minority_fraction: 0.3,
        edge_probability: 0.3,
        seed,
    };
    Arc::new(watts_strogatz(&config).unwrap())
}

/// Two threads behind a barrier race to claim and fill the same rows: each
/// commits the same seeds on its own cursor of one oracle and asks every
/// node's gain at every step. Both must see exactly a fresh oracle's gains.
#[test]
fn racing_cursors_claim_and_fill_one_row_set() {
    let graph = small_world(400, 5);
    let order = [NodeId(7), NodeId(200), NodeId(13)];
    let all: Vec<NodeId> = graph.nodes().collect();
    for seed in 0..8 {
        let config = WorldsConfig { num_worlds: 16, seed };
        let oracle = WorldEstimator::new(Arc::clone(&graph), Deadline::finite(4), &config).unwrap();
        let expected = fresh_gain_bits(&oracle, &order, &all);
        let start = Barrier::new(2);
        let runs: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        gain_bits(&oracle, &order, &all)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (thread, run) in runs.iter().enumerate() {
            assert!(
                *run == expected,
                "world seed {seed}, thread {thread} differs from a fresh oracle"
            );
        }
        let rows: Vec<Option<usize>> = (0..4).map(|size| oracle.gain_row_slots(size)).collect();
        assert_eq!(rows, [Some(400), Some(400), Some(400), None]);
    }
}

/// A greedy solve over a 200-candidate pool on a 2·10^4-node oracle claims
/// rows 1 and 2 with a slot per candidate, not per node; only row 0 spans
/// the graph.
#[test]
fn a_pool_solve_sizes_its_rows_by_the_pool() {
    let graph = small_world(20_000, 9);
    let config = WorldsConfig { num_worlds: 4, seed: 3 };
    let oracle = WorldEstimator::new(graph, Deadline::finite(3), &config).unwrap();
    let mut remaining: Vec<NodeId> = (0..200).map(|i| NodeId(i * 97)).collect();
    let mut cursor = oracle.cursor();
    for _ in 0..4 {
        let gains = cursor.gains(&remaining);
        let best = (0..remaining.len())
            .max_by(|&a, &b| gains[a].total().total_cmp(&gains[b].total()).then(b.cmp(&a)))
            .unwrap();
        cursor.add_seed(remaining.remove(best));
    }
    let rows: Vec<Option<usize>> = (0..4).map(|size| oracle.gain_row_slots(size)).collect();
    assert_eq!(rows, [Some(20_000), Some(200), Some(200), None]);
}
