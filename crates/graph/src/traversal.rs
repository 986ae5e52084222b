//! Breadth-first traversal utilities: hop distances, bounded reachability and
//! weakly connected components.
//!
//! These primitives back the deterministic parts of influence estimation:
//! reachability within a live-edge world is a BFS bounded by the deadline
//! `τ`.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Sentinel distance meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Computes BFS hop distances from `source` to every node, following directed
/// out-edges. Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    bfs_distances_multi(graph, std::slice::from_ref(&source))
}

/// Computes BFS hop distances from a set of sources (distance 0) to every
/// node, following directed out-edges.
///
/// Duplicated or out-of-range sources are ignored.
pub fn bfs_distances_multi(graph: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(sources.len());
    for &s in sources {
        if s.index() < n && dist[s.index()] == UNREACHABLE {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for w in graph.out_neighbors(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Returns the set of nodes reachable from `sources` within at most
/// `max_hops` hops (sources themselves are included at hop 0).
///
/// `max_hops = None` means unbounded reachability.
pub fn bounded_reachable(graph: &Graph, sources: &[NodeId], max_hops: Option<u32>) -> Vec<NodeId> {
    let dist = bfs_distances_multi(graph, sources);
    dist.iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHABLE && max_hops.is_none_or(|h| d <= h))
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

/// Assigns every node to a weakly connected component and returns
/// `(component_of, num_components)`.
///
/// Weak connectivity treats every directed edge as undirected, which is the
/// relevant notion for social graphs built from undirected ties.
pub fn weakly_connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    // Build an undirected adjacency once; component labelling is not a hot
    // path so the extra allocation is acceptable.
    let mut undirected: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (s, t, _) in graph.edges() {
        undirected[s.index()].push(t.0);
        undirected[t.index()].push(s.0);
    }

    let mut component = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if component[start] != u32::MAX {
            continue;
        }
        component[start] = next;
        stack.push(start as u32);
        while let Some(v) = stack.pop() {
            for &w in &undirected[v as usize] {
                if component[w as usize] == u32::MAX {
                    component[w as usize] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    (component, next as usize)
}

/// Returns the size of the largest weakly connected component (0 for an empty
/// graph).
pub fn largest_component_size(graph: &Graph) -> usize {
    let (labels, count) = weakly_connected_components(graph);
    let mut sizes = vec![0usize; count];
    for l in labels {
        sizes[l as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::GroupId;

    /// Path graph 0 -> 1 -> 2 -> 3 plus an isolated node 4.
    fn path_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes(5, GroupId(0));
        for w in nodes.windows(2).take(3) {
            b.add_edge(w[0], w[1], 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn bfs_distances_follow_directed_edges() {
        let g = path_graph();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, UNREACHABLE]);
        let d_rev = bfs_distances(&g, NodeId(3));
        assert_eq!(d_rev[0], UNREACHABLE);
        assert_eq!(d_rev[3], 0);
    }

    #[test]
    fn multi_source_bfs_takes_minimum_distance() {
        let g = path_graph();
        let d = bfs_distances_multi(&g, &[NodeId(0), NodeId(2)]);
        assert_eq!(d, vec![0, 1, 0, 1, UNREACHABLE]);
    }

    #[test]
    fn bounded_reachability_respects_hop_limit() {
        let g = path_graph();
        let r1 = bounded_reachable(&g, &[NodeId(0)], Some(1));
        assert_eq!(r1, vec![NodeId(0), NodeId(1)]);
        let all = bounded_reachable(&g, &[NodeId(0)], None);
        assert_eq!(all.len(), 4);
        let r0 = bounded_reachable(&g, &[NodeId(0)], Some(0));
        assert_eq!(r0, vec![NodeId(0)]);
    }

    #[test]
    fn components_split_isolated_nodes() {
        let g = path_graph();
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(largest_component_size(&g), 4);
    }

    #[test]
    fn out_of_range_sources_are_ignored() {
        let g = path_graph();
        let d = bfs_distances_multi(&g, &[NodeId(99)]);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }
}
