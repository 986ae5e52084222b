//! Surrogate for the Rice-Facebook dataset (Mislove et al., WSDM 2010).
//!
//! The original dataset (friendship links between Rice University students,
//! grouped by age) is not redistributable, so this module generates a
//! degree-corrected stochastic block model that matches every structural
//! statistic the paper reports:
//!
//! * 1205 nodes, 42443 undirected edges,
//! * four age groups; the two groups the paper analyses in detail:
//!   * `V1` (ages 18–19): 97 nodes, 513 within-group edges,
//!   * `V2` (age 20): 344 nodes, 7441 within-group edges,
//!   * 3350 edges between `V1` and `V2`,
//! * the remaining 764 nodes split over the two older age groups, with the
//!   remaining 31139 edges distributed to keep the overall density and a
//!   homophily level comparable to the published groups.
//!
//! Because the fairness phenomenon under study is driven by group sizes and
//! within/across connectivity (Section 4.2), matching those moments is what
//! makes the surrogate a faithful stand-in; use
//! [`loader`](crate::loader) to run on the genuine files when available.

use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_graph::{Graph, Result};

/// Published structural statistics of the Rice-Facebook dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiceStats {
    /// Total number of nodes.
    pub num_nodes: usize,
    /// Total number of undirected edges.
    pub num_edges: usize,
    /// Nodes in group `V1` (ages 18–19).
    pub v1_nodes: usize,
    /// Within-group edges of `V1`.
    pub v1_within: usize,
    /// Nodes in group `V2` (age 20).
    pub v2_nodes: usize,
    /// Within-group edges of `V2`.
    pub v2_within: usize,
    /// Edges between `V1` and `V2`.
    pub v1_v2_across: usize,
}

/// The statistics reported in Section 7.1 of the paper.
pub const RICE_STATS: RiceStats = RiceStats {
    num_nodes: 1205,
    num_edges: 42443,
    v1_nodes: 97,
    v1_within: 513,
    v2_nodes: 344,
    v2_within: 7441,
    v1_v2_across: 3350,
};

/// Default activation probability used in the Rice experiments (Section 7.1).
pub const RICE_EDGE_PROBABILITY: f64 = 0.01;

/// Default number of Monte-Carlo samples for the Rice experiments.
pub const RICE_SAMPLES: usize = 500;

/// Builds the Rice-Facebook surrogate graph with four age groups.
///
/// Groups 0 and 1 correspond to the paper's `V1` (ages 18–19) and `V2`
/// (age 20); groups 2 and 3 are the two older cohorts that absorb the
/// remaining nodes and edges.
///
/// # Errors
///
/// Propagates generator errors (they indicate a bug in the published
/// constants rather than user error).
pub fn rice_facebook_surrogate(seed: u64) -> Result<Graph> {
    let stats = RICE_STATS;
    let remaining_nodes = stats.num_nodes - stats.v1_nodes - stats.v2_nodes; // 764
    let group3 = remaining_nodes * 2 / 3; // larger older cohort
    let group4 = remaining_nodes - group3;

    let accounted = stats.v1_within + stats.v2_within + stats.v1_v2_across;
    let remaining_edges = stats.num_edges - accounted; // 31139

    // Distribute the unreported edges: mostly within the two older cohorts
    // (keeping homophily comparable to V2's), the rest across groups so the
    // graph stays connected.
    let within3 = (remaining_edges as f64 * 0.45) as usize;
    let within4 = (remaining_edges as f64 * 0.25) as usize;
    let across_34 = (remaining_edges as f64 * 0.12) as usize;
    let across_older_young = remaining_edges - within3 - within4 - across_34;
    // Split the older→young edges between targets V1 and V2 proportionally to
    // their sizes.
    let to_v1 = across_older_young * stats.v1_nodes / (stats.v1_nodes + stats.v2_nodes);
    let to_v2 = across_older_young - to_v1;

    let config = SbmConfig {
        group_sizes: vec![stats.v1_nodes, stats.v2_nodes, group3, group4],
        p_within: 0.0,
        p_across: 0.0,
        edge_probability: RICE_EDGE_PROBABILITY,
        seed,
        expected_edges: Some(vec![
            ((0, 0), stats.v1_within),
            ((1, 1), stats.v2_within),
            ((0, 1), stats.v1_v2_across),
            ((2, 2), within3),
            ((3, 3), within4),
            ((2, 3), across_34),
            ((0, 2), to_v1 / 2),
            ((0, 3), to_v1 - to_v1 / 2),
            ((1, 2), to_v2 / 2),
            ((1, 3), to_v2 - to_v2 / 2),
        ]),
    };
    stochastic_block_model(&config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::stats::graph_stats;
    use tcim_graph::GroupId;

    #[test]
    fn surrogate_matches_published_group_sizes_and_counts() {
        let g = rice_facebook_surrogate(1).unwrap();
        assert_eq!(g.num_nodes(), RICE_STATS.num_nodes);
        assert_eq!(g.num_groups(), 4);
        assert_eq!(g.group_size(GroupId(0)), RICE_STATS.v1_nodes);
        assert_eq!(g.group_size(GroupId(1)), RICE_STATS.v2_nodes);

        let stats = graph_stats(&g);
        // Directed edge counts are twice the undirected counts.
        assert_eq!(stats.groups[0].within_edges, 2 * RICE_STATS.v1_within);
        assert_eq!(stats.groups[1].within_edges, 2 * RICE_STATS.v2_within);
        // Total edge count within 1% of the published number (the sampler
        // can drop a handful of duplicate collisions).
        let undirected = stats.num_edges / 2;
        let error =
            (undirected as f64 - RICE_STATS.num_edges as f64).abs() / RICE_STATS.num_edges as f64;
        assert!(error < 0.01, "undirected edges {undirected}");
    }

    #[test]
    fn v2_is_much_better_connected_than_v1_per_capita() {
        let g = rice_facebook_surrogate(2).unwrap();
        let stats = graph_stats(&g);
        let v1_density = stats.groups[0].within_edges as f64 / RICE_STATS.v1_nodes as f64;
        let v2_density = stats.groups[1].within_edges as f64 / RICE_STATS.v2_nodes as f64;
        // 513/97 ≈ 5.3 vs 7441/344 ≈ 21.6 — the connectivity imbalance that
        // drives the disparity in Figure 7.
        assert!(v2_density > 3.0 * v1_density);
    }

    #[test]
    fn edge_probability_and_determinism() {
        let a = rice_facebook_surrogate(5).unwrap();
        let b = rice_facebook_surrogate(5).unwrap();
        assert_eq!(a, b);
        assert!(a.edges().all(|(_, _, p)| (p - RICE_EDGE_PROBABILITY).abs() < 1e-12));
        let c = rice_facebook_surrogate(6).unwrap();
        assert_ne!(a, c);
    }
}
