//! Stochastic block model (SBM) generator with homophily / heterophily
//! parameters, matching the synthetic-data protocol of Section 6.1:
//!
//! > "Nodes are connected based on two probabilities: (i) within-group edge
//! > probability (Homophily) `p_hom` and (ii) across-group edge probability
//! > (Heterophily) `p_het`."
//!
//! Two sampling modes are provided:
//!
//! * **Bernoulli** (`expected_edges: None`) — every unordered node pair is an
//!   independent Bernoulli trial, exactly as described in the paper. Cost is
//!   `O(n²)`; fine for the 500-node synthetic suite.
//! * **Expected-edge-count** (`expected_edges: Some(_)`) — used by the
//!   large real-world surrogates: the number of edges per block pair is fixed
//!   and endpoints are sampled uniformly, which preserves the published
//!   within/across edge counts without quadratic cost.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::ids::GroupId;

/// Configuration of the stochastic block model.
#[derive(Debug, Clone)]
pub struct SbmConfig {
    /// Number of nodes in each group; `group_sizes.len()` is the number of
    /// groups.
    pub group_sizes: Vec<usize>,
    /// Probability of an undirected tie between two nodes of the same group.
    pub p_within: f64,
    /// Probability of an undirected tie between two nodes of different groups.
    pub p_across: f64,
    /// Activation probability assigned to every edge.
    pub edge_probability: f64,
    /// RNG seed.
    pub seed: u64,
    /// Optional expected undirected edge counts per (group i, group j) pair
    /// with `i <= j`, replacing the Bernoulli pair sampling. When set,
    /// `p_within` / `p_across` are ignored.
    pub expected_edges: Option<Vec<((usize, usize), usize)>>,
}

impl SbmConfig {
    /// Two-group configuration as used throughout Section 6: `n` nodes of
    /// which a fraction `majority_fraction` belongs to group 0.
    pub fn two_group(
        n: usize,
        majority_fraction: f64,
        p_within: f64,
        p_across: f64,
        edge_probability: f64,
        seed: u64,
    ) -> Self {
        let majority = ((n as f64) * majority_fraction).round() as usize;
        let majority = majority.min(n);
        SbmConfig {
            group_sizes: vec![majority, n - majority],
            p_within,
            p_across,
            edge_probability,
            seed,
            expected_edges: None,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.group_sizes.is_empty() {
            return Err(GraphError::InvalidParameter {
                message: "SBM requires at least one group".to_string(),
            });
        }
        for &p in &[self.p_within, self.p_across] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(GraphError::InvalidParameter {
                    message: format!("SBM connection probability {p} is not in [0, 1]"),
                });
            }
        }
        if !(0.0..=1.0).contains(&self.edge_probability) || self.edge_probability.is_nan() {
            return Err(GraphError::InvalidProbability { value: self.edge_probability });
        }
        if let Some(pairs) = &self.expected_edges {
            let k = self.group_sizes.len();
            for &((i, j), _) in pairs {
                if i >= k || j >= k || i > j {
                    return Err(GraphError::InvalidParameter {
                        message: format!(
                            "expected_edges pair ({i}, {j}) is not a valid i <= j block pair"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Samples an undirected SBM graph according to `config`.
///
/// Every undirected tie is stored as two directed edges sharing the same
/// activation probability.
///
/// # Errors
///
/// Returns an error if any probability is invalid or the configuration is
/// internally inconsistent.
pub fn stochastic_block_model(config: &SbmConfig) -> Result<Graph> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let n: usize = config.group_sizes.iter().sum();
    let mut builder = GraphBuilder::with_capacity(n, n * 4);

    // Contiguous node-id ranges per group.
    let mut group_ranges = Vec::with_capacity(config.group_sizes.len());
    for (g, &size) in config.group_sizes.iter().enumerate() {
        let start = builder.num_nodes();
        builder.add_nodes(size, GroupId::from_index(g));
        group_ranges.push(start..start + size);
    }

    match &config.expected_edges {
        None => {
            // Bernoulli trial per unordered pair.
            for u in 0..n {
                let gu = group_of_index(&group_ranges, u);
                for v in (u + 1)..n {
                    let gv = group_of_index(&group_ranges, v);
                    let p = if gu == gv { config.p_within } else { config.p_across };
                    if p > 0.0 && rng.random_bool(p) {
                        builder.add_undirected_edge(
                            crate::ids::NodeId::from_index(u),
                            crate::ids::NodeId::from_index(v),
                            config.edge_probability,
                        )?;
                    }
                }
            }
        }
        Some(pairs) => {
            for &((gi, gj), count) in pairs {
                let ri = group_ranges[gi].clone();
                let rj = group_ranges[gj].clone();
                if ri.is_empty() || rj.is_empty() {
                    continue;
                }
                let mut placed = 0usize;
                let mut attempts = 0usize;
                let max_attempts = count.saturating_mul(20).max(64);
                let mut seen = std::collections::HashSet::with_capacity(count * 2);
                while placed < count && attempts < max_attempts {
                    attempts += 1;
                    let u = rng.random_range(ri.clone());
                    let v = rng.random_range(rj.clone());
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if !seen.insert(key) {
                        continue;
                    }
                    builder.add_undirected_edge(
                        crate::ids::NodeId::from_index(u),
                        crate::ids::NodeId::from_index(v),
                        config.edge_probability,
                    )?;
                    placed += 1;
                }
            }
        }
    }

    builder.build()
}

#[expect(
    clippy::expect_used,
    reason = "the ranges partition 0..n and every index comes from that interval"
)]
fn group_of_index(ranges: &[std::ops::Range<usize>], index: usize) -> usize {
    ranges.iter().position(|r| r.contains(&index)).expect("node index must fall into a group range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;

    #[test]
    fn two_group_config_splits_population() {
        let cfg = SbmConfig::two_group(500, 0.7, 0.025, 0.001, 0.05, 1);
        assert_eq!(cfg.group_sizes, vec![350, 150]);
    }

    #[test]
    fn bernoulli_mode_produces_homophilous_graph() {
        let cfg = SbmConfig::two_group(200, 0.7, 0.05, 0.002, 0.05, 42);
        let g = stochastic_block_model(&cfg).unwrap();
        assert_eq!(g.num_nodes(), 200);
        assert_eq!(g.num_groups(), 2);
        let stats = graph_stats(&g);
        assert!(stats.assortativity > 0.3, "assortativity {}", stats.assortativity);
        // Expected within-group 0 undirected edges: C(140,2)*0.05 ≈ 486.5; allow wide slack.
        assert!(stats.groups[0].within_edges > 400);
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let cfg = SbmConfig::two_group(120, 0.6, 0.04, 0.005, 0.1, 7);
        let a = stochastic_block_model(&cfg).unwrap();
        let b = stochastic_block_model(&cfg).unwrap();
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 8;
        let c = stochastic_block_model(&cfg2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn expected_edge_mode_hits_requested_counts() {
        let cfg = SbmConfig {
            group_sizes: vec![100, 50],
            p_within: 0.0,
            p_across: 0.0,
            edge_probability: 0.1,
            seed: 3,
            expected_edges: Some(vec![((0, 0), 200), ((1, 1), 60), ((0, 1), 40)]),
        };
        let g = stochastic_block_model(&cfg).unwrap();
        let stats = graph_stats(&g);
        // Each undirected edge is two directed edges.
        assert_eq!(stats.num_edges, 2 * (200 + 60 + 40));
        assert_eq!(stats.groups[0].within_edges, 400);
        assert_eq!(stats.groups[1].within_edges, 120);
        assert_eq!(stats.across_group_edges, 80);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut cfg = SbmConfig::two_group(10, 0.5, 1.5, 0.1, 0.1, 0);
        assert!(stochastic_block_model(&cfg).is_err());
        cfg.p_within = 0.1;
        cfg.edge_probability = -0.2;
        assert!(stochastic_block_model(&cfg).is_err());
        let empty = SbmConfig {
            group_sizes: vec![],
            p_within: 0.1,
            p_across: 0.1,
            edge_probability: 0.1,
            seed: 0,
            expected_edges: None,
        };
        assert!(stochastic_block_model(&empty).is_err());
        let bad_pair = SbmConfig {
            group_sizes: vec![5, 5],
            p_within: 0.1,
            p_across: 0.1,
            edge_probability: 0.1,
            seed: 0,
            expected_edges: Some(vec![((1, 0), 3)]),
        };
        assert!(stochastic_block_model(&bad_pair).is_err());
    }

    #[test]
    fn zero_probability_sbm_has_no_edges() {
        let cfg = SbmConfig::two_group(50, 0.5, 0.0, 0.0, 0.1, 9);
        let g = stochastic_block_model(&cfg).unwrap();
        assert_eq!(g.num_edges(), 0);
    }
}
