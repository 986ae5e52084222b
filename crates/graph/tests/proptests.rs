//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_graph::stats::graph_stats;
use tcim_graph::traversal::{bfs_distances, bfs_distances_multi, UNREACHABLE};
use tcim_graph::{GraphBuilder, GroupId, NodeId};

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
}
