//! `InfluenceObjective::bound` re-scalarizes an item's last per-group gain at
//! the current influence. CELF trusts it as an upper bound on the item's
//! gain, so after any sequence of inserts it must be one: exactly for the
//! worlds and RIS oracles, whose per-group gains are scaled integer counts
//! that only shrink, and within `cover_lazy`'s tie band for the
//! Monte-Carlo oracle, whose gains are differences of two estimates and may
//! drift by an ulp.

use std::sync::Arc;

use proptest::prelude::*;
use tcim_core::{ConcaveWrapper, EstimatorConfig, InfluenceObjective, Scalarization};
use tcim_diffusion::{Deadline, InfluenceOracle, RisConfig, WorldsConfig};
use tcim_graph::generators::{stochastic_block_model, SbmConfig};
use tcim_submodular::IncrementalObjective;

/// The three oracle kinds, built over the same small two-group SBM.
fn configs(seed: u64) -> [EstimatorConfig; 3] {
    [
        EstimatorConfig::Worlds(WorldsConfig { num_worlds: 16, seed }),
        EstimatorConfig::Ris(RisConfig { num_sets: 2000, seed, ..Default::default() }),
        EstimatorConfig::MonteCarlo { samples: 16, seed },
    ]
}

/// Every scalarization, picked by `kind`, with non-negative weights (or
/// none) and any wrapper.
fn scalarization(
    (kind, wrapper, exponent, weighted, weights, quota): (usize, usize, f64, bool, Vec<f64>, f64),
    group_sizes: Vec<usize>,
) -> Scalarization {
    let wrapper = [
        ConcaveWrapper::Identity,
        ConcaveWrapper::Log,
        ConcaveWrapper::Sqrt,
        ConcaveWrapper::Power(exponent),
    ][wrapper];
    match kind {
        0 => Scalarization::Total,
        1 => Scalarization::NormalizedTotal { population: group_sizes.iter().sum() },
        2 => Scalarization::Concave { wrapper, weights: weighted.then_some(weights) },
        _ => Scalarization::TruncatedQuota { quota, group_sizes },
    }
}

fn case() -> impl Strategy<Value = (u64, u32, Scalarization, Vec<usize>, Vec<usize>)> {
    let knobs = (
        0usize..4,
        0usize..4,
        0.05f64..=1.0,
        (0u8..2).prop_map(|w| w == 1),
        proptest::collection::vec(0.0f64..8.0, 2),
        0.01f64..0.6,
    );
    (0u64..500, 1u32..5, knobs, proptest::collection::vec(0usize..60, 1..8), 2usize..5).prop_map(
        |(seed, tau, knobs, inserts, stride)| {
            let scalarization = scalarization(knobs, graph(seed).group_sizes());
            let asked = (seed as usize % stride..60).step_by(stride).collect();
            (seed, tau, scalarization, inserts, asked)
        },
    )
}

fn graph(seed: u64) -> tcim_graph::Graph {
    stochastic_block_model(&SbmConfig::two_group(60, 0.7, 0.1, 0.02, 0.3, seed)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After each insert, the bound of every item in `asked` is at least its
    /// gain. Only those items refresh their last gain between inserts, so the
    /// bounds of the others come from gains several seeds old, and an item
    /// outside `asked` is asked in another case.
    #[test]
    fn bound_is_at_least_the_gain((seed, tau, scalarization, inserts, asked) in case()) {
        let graph = Arc::new(graph(seed));
        for config in configs(seed) {
            let oracle = config.build(Arc::clone(&graph), Deadline::finite(tau)).unwrap();
            let exact = !matches!(config, EstimatorConfig::MonteCarlo { .. });
            let mut objective = InfluenceObjective::new(oracle.cursor(), scalarization.clone());
            let ground: Vec<usize> = (0..graph.num_nodes()).collect();
            objective.gains(&ground);
            for &seed_node in &inserts {
                objective.insert(seed_node);
                let slack = 1e-9 * objective.current_value().abs().max(1.0);
                for &item in &asked {
                    let bound = objective.bound(item).unwrap();
                    let gain = objective.gain(item);
                    let context = format!("{} {scalarization:?}, item {item}", oracle.label());
                    if exact {
                        prop_assert!(bound >= gain, "{context}: bound {bound} < gain {gain}");
                    } else {
                        prop_assert!(bound >= gain - slack, "{context}: bound {bound} < gain {gain}");
                    }
                }
            }
            // Outside the ground of the first batch there is no bound.
            prop_assert_eq!(objective.bound(graph.num_nodes()), None);
        }
    }
}
