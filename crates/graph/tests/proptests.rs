//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_graph::stats::graph_stats;
use tcim_graph::traversal::{bfs_distances, bfs_distances_multi, UNREACHABLE};
use tcim_graph::{GraphBuilder, GroupId, MutationOp, NodeId, BLOCK_ROWS};

/// A graph's edges keyed by `(source, target)`, in CSR order.
type EdgeMap = std::collections::BTreeMap<(u32, u32), f64>;

/// Strategy producing a small random edge list over `n` nodes.
fn edge_list(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0f64), 0..=max_edges);
        (Just(n), edges)
    })
}

fn build_graph(n: usize, edges: &[(u32, u32, f64)]) -> tcim_graph::Graph {
    let mut builder = GraphBuilder::new();
    for i in 0..n {
        builder.add_node(GroupId((i % 3) as u32));
    }
    for &(s, t, p) in edges {
        builder.add_edge(NodeId(s), NodeId(t), p).unwrap();
    }
    builder.build().unwrap()
}

proptest! {
    /// CSR construction preserves the (deduplicated) edge multiset and every
    /// per-node out-degree sums to the edge count.
    #[test]
    fn csr_preserves_edges((n, edges) in edge_list(30, 120)) {
        let graph = build_graph(n, &edges);
        let mut unique: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        for &(s, t, _) in &edges {
            unique.insert((s, t));
        }
        prop_assert_eq!(graph.num_edges(), unique.len());
        let degree_sum: usize = graph.nodes().map(|v| graph.out_degree(v)).sum();
        prop_assert_eq!(degree_sum, graph.num_edges());
        for (s, t, p) in graph.edges() {
            prop_assert!(unique.contains(&(s.0, t.0)));
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    /// BFS distances satisfy the triangle-ish property along edges:
    /// d(t) <= d(s) + 1 for every edge (s, t) reachable from the source.
    #[test]
    fn bfs_distances_are_consistent((n, edges) in edge_list(25, 100)) {
        let graph = build_graph(n, &edges);
        let dist = bfs_distances(&graph, NodeId(0));
        prop_assert_eq!(dist[0], 0);
        for (s, t, _) in graph.edges() {
            if dist[s.index()] != UNREACHABLE {
                prop_assert!(dist[t.index()] != UNREACHABLE);
                prop_assert!(dist[t.index()] <= dist[s.index()] + 1);
            }
        }
    }

    /// Multi-source BFS from all nodes gives distance 0 everywhere.
    #[test]
    fn multi_source_bfs_from_everything_is_zero((n, edges) in edge_list(20, 60)) {
        let graph = build_graph(n, &edges);
        let sources: Vec<NodeId> = graph.nodes().collect();
        let dist = bfs_distances_multi(&graph, &sources);
        prop_assert!(dist.iter().all(|&d| d == 0));
    }

    /// Group sizes always sum to the node count and stats stay in range.
    #[test]
    fn group_stats_are_consistent((n, edges) in edge_list(25, 100)) {
        let graph = build_graph(n, &edges);
        let stats = graph_stats(&graph);
        let total: usize = stats.groups.iter().map(|g| g.size).sum();
        prop_assert_eq!(total, graph.num_nodes());
        prop_assert!(stats.assortativity >= -1.0 - 1e-9 && stats.assortativity <= 1.0 + 1e-9);
        let within_total: usize = stats.groups.iter().map(|g| g.within_edges).sum();
        prop_assert_eq!(within_total + stats.across_group_edges, graph.num_edges());
    }

    /// SBM generation is deterministic in its seed and respects group sizes.
    #[test]
    fn sbm_respects_sizes(seed in 0u64..1000, majority in 0.1f64..0.9) {
        let cfg = SbmConfig::two_group(60, majority, 0.1, 0.02, 0.1, seed);
        let g = stochastic_block_model(&cfg).unwrap();
        prop_assert_eq!(g.num_nodes(), 60);
        prop_assert_eq!(g.group_size(GroupId(0)) + g.group_size(GroupId(1)), 60);
        let again = stochastic_block_model(&cfg).unwrap();
        prop_assert_eq!(g, again);
    }

    /// `Graph::apply` equals a from-scratch rebuild of the final edge list
    /// (one version later) for mixed batches that hit the first and last
    /// rows, repeat a source, edit adjacent rows, and empty a row and refill
    /// it; and a batch whose k-th op is invalid fails with that op's error.
    #[test]
    fn apply_equals_a_rebuild_for_mixed_batches(
        (n, edges) in edge_list_from(1, 40, 100),
        picks in proptest::collection::vec(
            (0u8..3, 0u32..1 << 20, 0u32..1 << 20, 0.0f64..=1.0),
            1..=8,
        ),
        adjacent in 0u32..1 << 20,
        (bad_kind, bad_at) in (0u8..5, 0usize..64),
    ) {
        let loop_free: Vec<_> = edges.iter().copied().filter(|&(s, t, _)| s != t).collect();
        let graph = build_graph(n, &loop_free);
        let mut shadow: EdgeMap = graph.edges().map(|(s, t, p)| ((s.0, t.0), p)).collect();
        let ops = valid_batch(n, &mut shadow, &picks, adjacent);
        prop_assert!(ops.len() <= 12);
        prop_assert!(n == 1 || !ops.is_empty());

        let mutated = graph.apply(&ops).unwrap();
        let rebuilt = build_graph(n, &shadow.iter().map(|(&(s, t), &p)| (s, t, p)).collect::<Vec<_>>());
        prop_assert_eq!(mutated.version(), graph.version() + 1);
        prop_assert_eq!(mutated.edges().collect::<Vec<_>>(), rebuilt.edges().collect::<Vec<_>>());
        // An empty batch only bumps the version, so this compares every
        // field of the two graphs, the CSR offsets included.
        prop_assert_eq!(&mutated, &rebuilt.apply(&[]).unwrap());

        // Slip an invalid op in at position k: the batch fails with exactly
        // the error that op raises against the first k ops' result.
        let k = bad_at % (ops.len() + 1);
        let prefix = graph.apply(&ops[..k]).unwrap();
        let s = NodeId(picks[0].1 % n as u32);
        // A one-node graph has no second node to aim a bad probability at.
        let bad_kind = if n == 1 && bad_kind == 4 { 0 } else { bad_kind };
        let bad = match bad_kind {
            0 => MutationOp::AddEdge { source: s, target: NodeId(n as u32), probability: 0.5 },
            1 => MutationOp::AddEdge { source: s, target: s, probability: 0.5 },
            2 => MutationOp::RemoveEdge { source: s, target: s },
            3 => MutationOp::Reweight { source: s, target: s, probability: 0.5 },
            _ => MutationOp::AddEdge {
                source: s,
                target: NodeId((s.0 + 1) % n as u32),
                probability: 1.5,
            },
        };
        let mut poisoned = ops.clone();
        poisoned.insert(k, bad);
        let expected = prefix.apply(&[bad]).unwrap_err().to_string();
        let got = graph.apply(&poisoned).unwrap_err().to_string();
        prop_assert_eq!(&got, &expected);
        let named = if bad_kind == 0 {
            format!("node {n} ")
        } else if bad_kind == 4 {
            "1.5".to_string()
        } else {
            format!("{s:?}")
        };
        prop_assert!(got.contains(&named), "{} does not name {}", got, named);
    }

    /// `Graph::apply` equals a rebuild on graphs of three to five row blocks
    /// (`BLOCK_ROWS` rows each), for batches that edit the first and last
    /// row of one block, the first row of the next and the graph's last
    /// row, and empty the block's last row and refill it.
    #[test]
    fn apply_equals_a_rebuild_across_row_blocks(
        (n, edges) in edge_list_from(3 * BLOCK_ROWS, 5 * BLOCK_ROWS, 600),
        picks in proptest::collection::vec(
            (0u8..3, 0u32..1 << 20, 0u32..1 << 20, 0.0f64..=1.0),
            1..=8,
        ),
        block in 0usize..1 << 20,
    ) {
        let loop_free: Vec<_> = edges.iter().copied().filter(|&(s, t, _)| s != t).collect();
        let graph = build_graph(n, &loop_free);
        let mut shadow: EdgeMap = graph.edges().map(|(s, t, p)| ((s.0, t.0), p)).collect();
        let first = (block % (n.div_ceil(BLOCK_ROWS) - 1) * BLOCK_ROWS) as u32;
        let end = first + BLOCK_ROWS as u32 - 1;
        let sources = [first, end, end + 1, n as u32 - 1];
        let ops = valid_batch_on(n, &mut shadow, &picks, sources, end);
        let mutated = graph.apply(&ops).unwrap();
        let rebuilt = build_graph(n, &shadow.iter().map(|(&(s, t), &p)| (s, t, p)).collect::<Vec<_>>());
        prop_assert_eq!(mutated.edges().collect::<Vec<_>>(), rebuilt.edges().collect::<Vec<_>>());
        prop_assert_eq!(&mutated, &rebuilt.apply(&[]).unwrap());
    }
}

/// Like [`edge_list`], over `min_nodes..=max_nodes` nodes.
fn edge_list_from(
    min_nodes: usize,
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (min_nodes..=max_nodes).prop_flat_map(move |n| {
        let edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0f64), 0..=max_edges);
        (Just(n), edges)
    })
}

/// Turns raw `(kind, source, target, probability)` picks into ops that are
/// valid in order against the graph whose edges are `shadow`, editing
/// `shadow` along. The first four ops edit the rows 0, n − 1, a and a + 1
/// (a pair of adjacent rows), later ops repeat one of those sources, and
/// when the batch has room a trailing run empties row a and refills it.
fn valid_batch(
    n: usize,
    shadow: &mut EdgeMap,
    picks: &[(u8, u32, u32, f64)],
    adjacent: u32,
) -> Vec<MutationOp> {
    if n < 2 {
        return Vec::new();
    }
    let last = n as u32 - 1;
    let a = adjacent % last;
    valid_batch_on(n, shadow, picks, [0, last, a, a + 1], a)
}

/// [`valid_batch`] with the four rows the first ops edit given as
/// `sources`, and `refill` the row the trailing run empties and refills.
fn valid_batch_on(
    n: usize,
    shadow: &mut EdgeMap,
    picks: &[(u8, u32, u32, f64)],
    sources: [u32; 4],
    refill: u32,
) -> Vec<MutationOp> {
    let mut ops = Vec::new();
    let a = refill;
    let row = |shadow: &EdgeMap, s: u32| -> Vec<u32> {
        shadow.range((s, 0)..(s + 1, 0)).map(|(&(_, t), _)| t).collect()
    };
    for (i, &(kind, source, target, p)) in picks.iter().enumerate() {
        let s = if i < sources.len() { sources[i] } else { sources[source as usize % 4] };
        let out = row(shadow, s);
        let absent = (0..n as u32)
            .map(|j| (target.wrapping_add(j)) % n as u32)
            .find(|&t| t != s && !shadow.contains_key(&(s, t)));
        let (source, pick) = (NodeId(s), target as usize);
        let op = match (kind, absent, out.is_empty()) {
            (0, Some(t), _) | (_, Some(t), true) => {
                shadow.insert((s, t), p);
                MutationOp::AddEdge { source, target: NodeId(t), probability: p }
            }
            (1, _, false) | (0, None, false) => {
                let t = out[pick % out.len()];
                shadow.remove(&(s, t));
                MutationOp::RemoveEdge { source, target: NodeId(t) }
            }
            (_, _, false) => {
                let t = out[pick % out.len()];
                shadow.insert((s, t), p);
                MutationOp::Reweight { source, target: NodeId(t), probability: p }
            }
            (_, None, true) => continue,
        };
        ops.push(op);
    }
    let out = row(shadow, a);
    if ops.len() + out.len() < 12 {
        for t in out {
            shadow.remove(&(a, t));
            ops.push(MutationOp::RemoveEdge { source: NodeId(a), target: NodeId(t) });
        }
        let t = (a + 1) % n as u32;
        shadow.insert((a, t), 0.5);
        ops.push(MutationOp::AddEdge { source: NodeId(a), target: NodeId(t), probability: 0.5 });
    }
    ops
}

#[test]
fn valid_batches_cover_the_splice_shapes() {
    // Node 3's row holds two edges; the picks edit rows 0, 4, 2 and 3 and
    // then row 2 again, so the batch hits both ends, adjacent rows and a
    // repeated source, and the trailing run empties row 2 and refills it.
    let graph = build_graph(5, &[(0, 1, 0.5), (2, 3, 0.5), (3, 0, 0.5), (3, 4, 0.2)]);
    let mut shadow: EdgeMap = graph.edges().map(|(s, t, p)| ((s.0, t.0), p)).collect();
    let picks = [(0, 0, 2, 0.3), (0, 0, 0, 0.3), (2, 0, 0, 0.9), (1, 0, 1, 0.0), (0, 2, 0, 0.4)];
    let ops = valid_batch(5, &mut shadow, &picks, 2);
    let sources: Vec<u32> = ops.iter().map(|op| op.endpoints().0 .0).collect();
    assert_eq!(sources, vec![0, 4, 2, 3, 2, 2, 2, 2]);
    assert!(matches!(ops.last(), Some(MutationOp::AddEdge { .. })));
    assert!(graph.apply(&ops).is_ok());
}
