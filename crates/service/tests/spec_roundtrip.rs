//! Property test: `ProblemSpec` → minijson wire form → `ProblemSpec` is the
//! identity over the whole wire-expressible spec space (every objective ×
//! fairness mode × algorithm × candidate pool × deadline × estimator the
//! protocol can carry).
//!
//! "Wire-expressible" excludes only what the protocol deliberately does not
//! transport: adaptive-RIS parameters. (Thread counts are no part of any
//! spec or config: estimation runs under the serving thread's count.)
//!
//! The vendored `proptest` has no `prop_oneof`/`option` combinators, so
//! variant choices sample as selector integers folded in `prop_map`.

use proptest::prelude::*;
use tcim_core::{
    ConcaveWrapper, EstimatorConfig, FairnessMode, GreedyAlgorithm, Objective, ProblemSpec,
    RisConfig, WorldsConfig,
};
use tcim_datasets::{Dataset, GeneratorFamily, GroupModel, ScenarioSpec, WeightModel};
use tcim_diffusion::Deadline;
use tcim_graph::{GroupId, NodeId};
use tcim_service::{DatasetSpec, ModelKind, Op, OracleSpec, Request};

type ObjectiveParts = (u32, usize, f64, f64, u32, usize);
type FairnessParts = (u32, u32, f64, u32, Vec<f64>, u32, f64);
type AlgorithmParts = (u32, f64, u64);
type CandidateParts = (u32, Vec<u32>);
type DeadlineParts = (u32, u32);
type EstimatorParts = (u32, usize, u64);

fn build_objective(
    (kind, budget, quota, tolerance, has_max, max_seeds): ObjectiveParts,
) -> Objective {
    if kind == 0 {
        Objective::Budget { budget }
    } else {
        Objective::Cover { quota, tolerance, max_seeds: (has_max == 1).then_some(max_seeds) }
    }
}

fn build_fairness(
    for_budget: bool,
    (kind, wrapper_kind, power, has_weights, weights, group_sel, cap): FairnessParts,
) -> FairnessMode {
    match kind {
        0 => FairnessMode::Total,
        1 if for_budget => {
            let wrapper = match wrapper_kind {
                0 => ConcaveWrapper::Identity,
                1 => ConcaveWrapper::Log,
                2 => ConcaveWrapper::Sqrt,
                // Arbitrary valid exponents: the codec renders powers at full
                // precision, so any p in (0, 1] must survive the round trip.
                _ => ConcaveWrapper::Power(power),
            };
            FairnessMode::Concave { wrapper, weights: (has_weights == 1).then_some(weights) }
        }
        1 => FairnessMode::GroupQuota { group: (group_sel > 0).then(|| GroupId(group_sel - 1)) },
        _ => FairnessMode::Constrained { disparity_cap: cap },
    }
}

/// Stochastic greedy is budget-only; a cover draws plain greedy instead.
fn build_algorithm(for_budget: bool, (kind, epsilon, seed): AlgorithmParts) -> GreedyAlgorithm {
    match kind {
        0 => GreedyAlgorithm::Lazy,
        2 if for_budget => GreedyAlgorithm::Stochastic { epsilon, seed },
        _ => GreedyAlgorithm::Greedy,
    }
}

fn build_estimator((kind, samples, seed): EstimatorParts) -> EstimatorConfig {
    match kind {
        0 => EstimatorConfig::Worlds(WorldsConfig { num_worlds: samples, seed }),
        1 => EstimatorConfig::MonteCarlo { samples, seed },
        _ => EstimatorConfig::Ris(RisConfig { num_sets: samples, seed, ..Default::default() }),
    }
}

fn spec() -> impl Strategy<Value = ProblemSpec> {
    let objective = (0u32..2, 1usize..200, 0.0f64..=1.0, 0.0f64..0.5, 0u32..2, 1usize..100);
    let fairness = (
        0u32..3,
        0u32..4,
        0.01f64..=1.0,
        0u32..2,
        proptest::collection::vec(0.0f64..50.0, 1..5),
        0u32..7,
        0.0f64..=1.0,
    );
    let algorithm = (0u32..3, 0.01f64..0.99, 0u64..1000);
    let candidates = (0u32..2, proptest::collection::vec(0u32..100_000, 1..20));
    let deadline = (0u32..2, 0u32..50);
    let estimator = (0u32..3, 1usize..5000, 0u64..1000);
    (objective, fairness, algorithm, candidates, deadline, estimator).prop_map(
        |(obj, fair, alg, cand, tau, est): (
            ObjectiveParts,
            FairnessParts,
            AlgorithmParts,
            CandidateParts,
            DeadlineParts,
            EstimatorParts,
        )| {
            let objective = build_objective(obj);
            let for_budget = matches!(objective, Objective::Budget { .. });
            ProblemSpec {
                fairness: build_fairness(for_budget, fair),
                objective,
                algorithm: build_algorithm(for_budget, alg),
                candidates: (cand.0 == 1)
                    .then(|| cand.1.into_iter().map(NodeId).collect::<Vec<_>>()),
                // The wire always carries a deadline and an estimator (the
                // protocol fills defaults on parse), so both are `Some`.
                deadline: Some(if tau.0 == 0 {
                    Deadline::unbounded()
                } else {
                    Deadline::finite(tau.1)
                }),
                estimator: Some(build_estimator(est)),
            }
        },
    )
}

type ScenarioFamilyParts = (u32, usize, f64, f64, usize, usize);
type ScenarioModelParts = (u32, f64, Vec<f64>, u32, f64);

/// Every wire-expressible, *valid* scenario: the codec validates eagerly,
/// so the strategy only emits specs that pass `ScenarioSpec::validate`.
fn scenario() -> impl Strategy<Value = ScenarioSpec> {
    let family = (
        0u32..3,       // family selector
        10usize..2000, // nodes (large enough for every family's floor)
        0.0f64..=1.0,  // p_within / rewire_probability
        0.0f64..=1.0,  // p_across
        1usize..5,     // edges_per_node
        1usize..4,     // neighbors
    );
    let models = (
        0u32..2,                                       // group-model selector
        0.0f64..=1.0,                                  // majority_fraction
        proptest::collection::vec(0.01f64..1.0, 1..5), // raw fractions
        0u32..3,                                       // weight-model selector
        0.0f64..=1.0,                                  // uniform p
    );
    (family, models).prop_map(
        |((fam, nodes, pa, pb, m, k), (gsel, mm, raw, wsel, p)): (
            ScenarioFamilyParts,
            ScenarioModelParts,
        )| {
            let family = match fam {
                0 => GeneratorFamily::Sbm { p_within: pa, p_across: pb },
                1 => GeneratorFamily::BarabasiAlbert {
                    edges_per_node: m,
                    homophily_bias: 1.0 + pb * 9.0,
                },
                _ => GeneratorFamily::WattsStrogatz { neighbors: k, rewire_probability: pa },
            };
            // Explicit fractions are SBM-only; normalize so they sum to 1.
            let groups = if gsel == 1 && fam == 0 {
                let sum: f64 = raw.iter().sum();
                GroupModel::Fractions(raw.iter().map(|w| w / sum).collect())
            } else {
                GroupModel::MajorityMinority { majority_fraction: mm }
            };
            let weights = match wsel {
                0 => WeightModel::UniformIc { p },
                1 => WeightModel::WeightedCascade,
                _ => WeightModel::Lt,
            };
            ScenarioSpec { family, num_nodes: nodes, groups, weights }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scenario_to_minijson_to_scenario_is_identity(spec in scenario(), seed in 0u64..1000) {
        spec.validate().expect("strategy must emit valid scenarios");
        let request = Request {
            id: None,
            oracle: Some(OracleSpec {
                dataset: DatasetSpec { dataset: Dataset::Scenario(spec.clone()), seed },
                model: ModelKind::IndependentCascade,
                deadline: Deadline::unbounded(),
                estimator: EstimatorConfig::Worlds(WorldsConfig { num_worlds: 200, seed: 0 }),
            }),
            op: Op::Estimate { seeds: vec![NodeId(0)] },
        };
        let wire = request.to_json().to_string();
        let again = Request::parse_line(&wire)
            .unwrap_or_else(|err| panic!("rendered scenario failed to parse: {err}\n{wire}"));
        let Dataset::Scenario(decoded) = &again.oracle.as_ref().expect("query ops carry an oracle").dataset.dataset else {
            panic!("scenario round-tripped to a named dataset: {wire}");
        };
        prop_assert!(decoded == &spec, "decoded scenario differs; wire form: {wire}");
        // The cache key is fingerprint-derived, so it must be stable too.
        prop_assert_eq!(decoded.fingerprint(), spec.fingerprint());
        prop_assert!(again == request);
    }

    #[test]
    fn spec_to_minijson_to_spec_is_identity(spec in spec()) {
        let request = Request {
            id: None,
            oracle: Some(OracleSpec::for_spec(
                DatasetSpec::parse("synthetic", 42).unwrap(),
                ModelKind::IndependentCascade,
                &spec,
            )),
            op: Op::Solve(spec.clone()),
        };
        let wire = request.to_json().to_string();
        let again = Request::parse_line(&wire)
            .unwrap_or_else(|err| panic!("rendered request failed to parse: {err}\n{wire}"));
        let Op::Solve(decoded) = again.op else { panic!("solve round-tripped to another op") };
        prop_assert!(decoded == spec, "decoded spec differs; wire form: {wire}");
        // The canonical encoding is stable across the trip too (reports and
        // cache keys depend on it).
        prop_assert_eq!(decoded.canonical(), spec.canonical());
    }
}
