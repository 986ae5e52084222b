//! Heuristic seeding baselines and evaluation of externally chosen seed sets.
//!
//! The greedy solvers are the paper's main comparators, but the experiment
//! harness (and downstream users) also want cheap structural baselines —
//! random, top-degree, top-PageRank and group-proportional seeding — plus a
//! way to score *any* seed set with the same estimator so that comparisons
//! are apples-to-apples.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tcim_diffusion::InfluenceOracle;
use tcim_graph::{centrality, Graph, GroupId, NodeId};

use crate::error::{CoreError, Result};
use crate::report::SolverReport;
use crate::solve::replay_influence;

/// Uniformly random seeds (without replacement), deterministic in `seed`.
pub fn random_seeds(graph: &Graph, budget: usize, seed: u64) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    nodes.shuffle(&mut rng);
    nodes.truncate(budget);
    nodes
}

/// The `budget` highest out-degree nodes.
pub fn top_degree_seeds(graph: &Graph, budget: usize) -> Vec<NodeId> {
    centrality::top_k(&centrality::degree_centrality(graph), budget)
}

/// The `budget` highest PageRank nodes (damping 0.85, 50 sweeps).
pub fn top_pagerank_seeds(graph: &Graph, budget: usize) -> Vec<NodeId> {
    centrality::top_k(&centrality::pagerank(graph, 0.85, 50), budget)
}

/// Degree-based seeding with the budget split across groups proportionally to
/// group size (every non-empty group gets at least one seed when the budget
/// allows). This is the "demographic parity of seeds" heuristic that prior
/// fairness work on (non-time-critical) influence maximization uses, and a
/// natural baseline for the fair solvers.
pub fn group_proportional_degree_seeds(graph: &Graph, budget: usize) -> Vec<NodeId> {
    let degrees = centrality::degree_centrality(graph);
    let sizes = graph.group_sizes();
    let population: usize = sizes.iter().sum();
    if population == 0 || budget == 0 {
        return Vec::new();
    }

    // Initial proportional allocation, then round-robin the remainder to the
    // largest groups; always give non-empty groups a chance at >= 1 seed.
    let mut allocation: Vec<usize> = sizes
        .iter()
        .map(|&s| (budget as f64 * s as f64 / population as f64).floor() as usize)
        .collect();
    for (alloc, &size) in allocation.iter_mut().zip(&sizes) {
        if size > 0 && *alloc == 0 && budget >= graph.num_groups() {
            *alloc = 1;
        }
    }
    while allocation.iter().sum::<usize>() > budget {
        if let Some(max_idx) = (0..allocation.len()).max_by_key(|&i| allocation[i]) {
            allocation[max_idx] = allocation[max_idx].saturating_sub(1);
        }
    }
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let mut idx = 0;
    while allocation.iter().sum::<usize>() < budget && !order.is_empty() {
        let g = order[idx % order.len()];
        if sizes[g] > allocation[g] {
            allocation[g] += 1;
        }
        idx += 1;
        if idx > budget * order.len() + order.len() {
            break;
        }
    }

    let mut seeds = Vec::with_capacity(budget);
    for (g, &count) in allocation.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let mut members: Vec<NodeId> =
            graph.group_members(GroupId::from_index(g)).map(|m| m.to_vec()).unwrap_or_default();
        members.sort_by(|a, b| {
            degrees[b.index()]
                .partial_cmp(&degrees[a.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        seeds.extend(members.into_iter().take(count));
    }
    seeds.truncate(budget);
    seeds
}

/// Scores an externally chosen seed set with `oracle`, producing the same
/// [`SolverReport`] shape as the greedy solvers so baselines slot directly
/// into the experiment tables.
///
/// # Errors
///
/// Returns an error if a seed is out of bounds.
pub fn evaluate_seed_set(
    oracle: &dyn InfluenceOracle,
    seeds: &[NodeId],
    label: &str,
) -> Result<SolverReport> {
    let n = oracle.graph().num_nodes();
    for &s in seeds {
        if s.index() >= n {
            return Err(CoreError::InvalidConfig {
                message: format!("seed {s} out of bounds ({n} nodes)"),
            });
        }
    }
    let influence = oracle.evaluate(seeds)?;
    let iterations = replay_influence(oracle, seeds, &[]);
    Ok(SolverReport {
        seeds: seeds.to_vec(),
        influence,
        group_sizes: oracle.graph().group_sizes(),
        iterations,
        gain_evaluations: 0,
        label: label.to_string(),
        spec: None,
        cover: None,
        constrained: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
    use tcim_graph::generators::{stochastic_block_model, SbmConfig};
    use tcim_graph::GraphBuilder;

    fn sbm() -> Graph {
        stochastic_block_model(&SbmConfig::two_group(100, 0.7, 0.08, 0.01, 0.2, 9)).unwrap()
    }

    #[test]
    fn random_seeds_are_deterministic_and_distinct() {
        let g = sbm();
        let a = random_seeds(&g, 10, 4);
        let b = random_seeds(&g, 10, 4);
        let c = random_seeds(&g, 10, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn top_degree_and_pagerank_prefer_hubs() {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(GroupId(0));
        let leaves = b.add_nodes(20, GroupId(1));
        for &l in &leaves {
            b.add_undirected_edge(hub, l, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(top_degree_seeds(&g, 1), vec![hub]);
        assert_eq!(top_pagerank_seeds(&g, 1), vec![hub]);
    }

    #[test]
    fn group_proportional_allocation_respects_budget_and_groups() {
        let g = sbm();
        let seeds = group_proportional_degree_seeds(&g, 10);
        assert_eq!(seeds.len(), 10);
        let minority_count = seeds.iter().filter(|s| g.group_of(**s) == GroupId(1)).count();
        // 30% of 10 = 3 seeds expected for the minority group.
        assert!((2..=4).contains(&minority_count), "minority got {minority_count}");
        // Zero budget and empty graphs degrade gracefully.
        assert!(group_proportional_degree_seeds(&g, 0).is_empty());
        let empty = GraphBuilder::new().build().unwrap();
        assert!(group_proportional_degree_seeds(&empty, 3).is_empty());
    }

    #[test]
    fn small_budgets_still_return_the_requested_number_of_seeds() {
        let g = sbm();
        for budget in 1..5 {
            assert_eq!(group_proportional_degree_seeds(&g, budget).len(), budget);
        }
    }

    #[test]
    fn evaluate_seed_set_produces_comparable_reports() {
        let g = Arc::new(sbm());
        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::finite(5),
            &WorldsConfig { num_worlds: 32, seed: 0 },
        )
        .unwrap();
        let seeds = top_degree_seeds(&g, 5);
        let report = evaluate_seed_set(&est, &seeds, "degree").unwrap();
        assert_eq!(report.num_seeds(), 5);
        assert_eq!(report.label, "degree");
        assert!(report.influence.total() >= 5.0);
        assert_eq!(report.iterations.len(), 5);
        assert!(evaluate_seed_set(&est, &[NodeId(9999)], "bad").is_err());
    }
}
