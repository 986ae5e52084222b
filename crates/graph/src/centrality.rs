//! Centrality measures used as seeding baselines and for graph analysis.
//!
//! The paper argues that the standard TCIM solutions "tend to favor nodes
//! which are more central and have high-connectivity"; the measures here make
//! that claim quantifiable and provide the heuristic baselines
//! (degree / PageRank seeding) that the fair solvers are compared against.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Out-degree of every node.
pub fn degree_centrality(graph: &Graph) -> Vec<f64> {
    graph.nodes().map(|v| graph.out_degree(v) as f64).collect()
}

/// PageRank via power iteration.
///
/// * `damping` — probability of following an out-edge (0.85 is customary).
/// * `iterations` — number of power-iteration sweeps.
///
/// Dangling nodes (out-degree 0) redistribute their mass uniformly, so the
/// result sums to 1 for non-empty graphs.
pub fn pagerank(graph: &Graph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];

    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling_mass = 0.0;
        for v in graph.nodes() {
            let deg = graph.out_degree(v);
            let r = rank[v.index()];
            if deg == 0 {
                dangling_mass += r;
            } else {
                let share = r / deg as f64;
                for w in graph.out_neighbors(v) {
                    next[w.index()] += share;
                }
            }
        }
        let base = (1.0 - damping) * uniform + damping * dangling_mass * uniform;
        for x in next.iter_mut() {
            *x = base + damping * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Returns node ids ranked by decreasing score; ties broken by node id for
/// determinism.
pub fn rank_by_score(scores: &[f64]) -> Vec<NodeId> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    order.into_iter().map(NodeId::from_index).collect()
}

/// Returns the `k` highest-scoring node ids (fewer if the graph is smaller).
pub fn top_k(scores: &[f64], k: usize) -> Vec<NodeId> {
    rank_by_score(scores).into_iter().take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::GroupId;

    /// Star graph: hub 0 connected (undirected) to 1..=4.
    fn star() -> Graph {
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes(5, GroupId(0));
        for &leaf in &nodes[1..] {
            b.add_undirected_edge(nodes[0], leaf, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn degree_centrality_identifies_the_hub() {
        let g = star();
        let deg = degree_centrality(&g);
        assert_eq!(deg[0], 4.0);
        assert!(deg[1..].iter().all(|&d| d == 1.0));
        assert_eq!(top_k(&deg, 1), vec![NodeId(0)]);
    }

    #[test]
    fn pagerank_sums_to_one_and_prefers_the_hub() {
        let g = star();
        let pr = pagerank(&g, 0.85, 50);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for leaf in 1..5 {
            assert!(pr[0] > pr[leaf]);
        }
    }

    #[test]
    fn pagerank_on_empty_graph_is_empty() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(pagerank(&g, 0.85, 10).is_empty());
    }

    #[test]
    fn ranking_breaks_ties_deterministically() {
        let ranked = rank_by_score(&[1.0, 3.0, 3.0, 0.5]);
        assert_eq!(ranked, vec![NodeId(1), NodeId(2), NodeId(0), NodeId(3)]);
        assert_eq!(top_k(&[1.0, 2.0], 10).len(), 2);
    }
}
