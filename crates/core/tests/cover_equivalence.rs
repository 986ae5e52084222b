//! Differential guard for the lazy (CELF) cover: every cover problem (P2,
//! per-group P2, P6, P5) solved with the default `Lazy` algorithm must
//! produce the report of the plain `Greedy` scan — seeds, per-group
//! influence bits, iteration records, cover and disparity-cap outcomes —
//! differing only in `gain_evaluations` (never more) and the spec echo.
//! Checked on SBM, Barabási–Albert and Watts–Strogatz graphs, with both
//! sampled-world and RIS oracles.

use std::sync::Arc;

use tcim_core::{solve, EstimatorConfig, FairnessMode, GreedyAlgorithm, ProblemSpec, RisConfig};
use tcim_diffusion::{Deadline, WorldsConfig};
use tcim_graph::generators::{
    barabasi_albert, stochastic_block_model, watts_strogatz, BarabasiAlbertConfig, SbmConfig,
    WattsStrogatzConfig,
};
use tcim_graph::{Graph, GroupId};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "sbm",
            stochastic_block_model(&SbmConfig::two_group(200, 0.7, 0.05, 0.005, 0.1, 3)).unwrap(),
        ),
        (
            "ba",
            barabasi_albert(&BarabasiAlbertConfig {
                num_nodes: 200,
                edges_per_node: 2,
                minority_fraction: 0.3,
                homophily_bias: 4.0,
                edge_probability: 0.1,
                seed: 5,
            })
            .unwrap(),
        ),
        (
            "ws",
            watts_strogatz(&WattsStrogatzConfig {
                num_nodes: 200,
                neighbors: 3,
                rewire_probability: 0.1,
                minority_fraction: 0.3,
                edge_probability: 0.15,
                seed: 7,
            })
            .unwrap(),
        ),
    ]
}

fn cover_specs() -> Vec<ProblemSpec> {
    let mut specs = Vec::new();
    for quota in [0.05, 0.2] {
        specs.push(ProblemSpec::cover(quota).unwrap());
        specs.push(
            ProblemSpec::cover(quota)
                .unwrap()
                .with_fairness(FairnessMode::GroupQuota { group: None })
                .unwrap(),
        );
        specs.push(
            ProblemSpec::cover(quota)
                .unwrap()
                .with_fairness(FairnessMode::GroupQuota { group: Some(GroupId(1)) })
                .unwrap(),
        );
        for cap in [0.7, 0.9] {
            specs.push(
                ProblemSpec::cover(quota)
                    .unwrap()
                    .with_fairness(FairnessMode::Constrained { disparity_cap: cap })
                    .unwrap(),
            );
        }
    }
    // The stop rules besides the quota: a seed cap and a tolerance.
    specs.push(ProblemSpec::cover(0.5).unwrap().with_max_seeds(4).unwrap());
    specs.push(ProblemSpec::cover(0.1).unwrap().with_tolerance(0.02).unwrap());
    specs
}

#[test]
fn lazy_cover_reports_equal_the_plain_scan() {
    let deadline = Deadline::finite(4);
    let estimators = [
        EstimatorConfig::Worlds(WorldsConfig { num_worlds: 48, seed: 11 }),
        EstimatorConfig::Ris(RisConfig { num_sets: 3000, seed: 13, ..Default::default() }),
    ];
    let (mut lazy_evaluations, mut plain_evaluations) = (0, 0);
    for (family, graph) in graphs() {
        let graph = Arc::new(graph);
        for estimator in &estimators {
            let oracle = estimator.build(Arc::clone(&graph), deadline).unwrap();
            for spec in cover_specs() {
                let what = format!("{family} {} {}", spec.label(), spec.canonical());
                let lazy = solve(&oracle, &spec).unwrap();
                let plain_spec = spec.clone().with_algorithm(GreedyAlgorithm::Greedy).unwrap();
                let plain = solve(&oracle, &plain_spec).unwrap();
                assert!(!lazy.seeds.is_empty(), "{what}: nothing selected");
                assert!(
                    lazy.gain_evaluations <= plain.gain_evaluations,
                    "{what}: lazy issued {} evaluations, plain {}",
                    lazy.gain_evaluations,
                    plain.gain_evaluations
                );
                lazy_evaluations += lazy.gain_evaluations;
                plain_evaluations += plain.gain_evaluations;
                // Debug renders every f64 in its shortest round-trip form, so
                // equal renderings are bitwise-equal reports.
                let mut normalized = lazy.clone();
                normalized.gain_evaluations = plain.gain_evaluations;
                normalized.spec = plain.spec.clone();
                assert_eq!(format!("{normalized:?}"), format!("{plain:?}"), "{what}");
            }
        }
    }
    assert!(
        lazy_evaluations * 2 < plain_evaluations,
        "lazy cover saved too little: {lazy_evaluations} vs {plain_evaluations} evaluations"
    );
}
