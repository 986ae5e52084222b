//! The dynamic-graph differential harness: replay interleaved mutation and
//! solve traffic through an engine that keeps its caches warm (so the
//! incremental RIS-refresh and world-patch paths engage) and compare every
//! response byte-for-byte against a from-scratch engine that rebuilds the
//! mutated graph cold. The two must never diverge — at any thread count,
//! over any valid churn sequence (proptest drives randomized, shrinkable
//! ones) — because incremental refresh is an optimization, not a semantic.

use proptest::prelude::*;
use tcim_datasets::churn::ChurnConfig;
use tcim_datasets::{Dataset, ScenarioSpec};
use tcim_diffusion::ParallelismConfig;
use tcim_graph::{Graph, MutationOp, NodeId};
use tcim_service::protocol::scenario_to_json;
use tcim_service::{DatasetSpec, Json, Op, Request, ServiceEngine};

const DATASET_SEED: u64 = 5;

fn sbm() -> ScenarioSpec {
    ScenarioSpec::sbm(60, 0.1, 0.02).unwrap()
}

fn ba() -> ScenarioSpec {
    ScenarioSpec::barabasi_albert(60, 2).unwrap()
}

fn dataset_spec(spec: &ScenarioSpec) -> DatasetSpec {
    DatasetSpec { dataset: Dataset::Scenario(spec.clone()), seed: DATASET_SEED }
}

/// A P1–P6 spread over the worlds and RIS estimators — the query mix every
/// graph version is probed with.
fn solve_requests(spec: &ScenarioSpec) -> Vec<Request> {
    let scenario = scenario_to_json(spec).to_string();
    [
        format!(
            r#"{{"id":"p1","op":"solve_budget","scenario":{scenario},"dataset_seed":{DATASET_SEED},"deadline":4,"samples":16,"estimator_seed":3,"budget":3}}"#
        ),
        format!(
            r#"{{"id":"p4","op":"solve_budget","scenario":{scenario},"dataset_seed":{DATASET_SEED},"deadline":4,"samples":16,"estimator_seed":3,"budget":3,"fair":true,"wrapper":"log"}}"#
        ),
        format!(
            r#"{{"id":"p5","op":"solve_cover","scenario":{scenario},"dataset_seed":{DATASET_SEED},"deadline":4,"samples":16,"estimator_seed":3,"quota":0.05,"disparity_cap":0.9}}"#
        ),
        format!(
            r#"{{"id":"ris","op":"solve_budget","scenario":{scenario},"dataset_seed":{DATASET_SEED},"deadline":4,"estimator":"ris","samples":256,"estimator_seed":3,"budget":3}}"#
        ),
        format!(
            r#"{{"id":"est","op":"estimate","scenario":{scenario},"dataset_seed":{DATASET_SEED},"deadline":4,"estimator":"ris","samples":256,"estimator_seed":3,"seeds":[0,5,9]}}"#
        ),
        format!(
            r#"{{"id":"audit","op":"audit","scenario":{scenario},"dataset_seed":{DATASET_SEED},"deadline":4,"samples":16,"estimator_seed":3,"seeds":[1,2]}}"#
        ),
    ]
    .iter()
    .map(|line| Request::parse_line(line).unwrap())
    .collect()
}

/// Interleaves the solve spread with mutation steps: probe version 0, then
/// after every step probe the new version again.
fn churn_batch(spec: &ScenarioSpec, steps: &[Vec<MutationOp>]) -> Vec<Request> {
    let mut requests = solve_requests(spec);
    for (i, ops) in steps.iter().enumerate() {
        requests.push(Request::mutate(
            Some(Json::from(format!("m{i}").as_str())),
            dataset_spec(spec),
            ops.clone(),
        ));
        requests.extend(solve_requests(spec));
    }
    requests
}

fn render(responses: Vec<Json>) -> Vec<String> {
    responses.into_iter().map(|r| r.to_string()).collect()
}

/// The from-scratch answer to every request: each one is served by a fresh
/// engine that first replays the mutations preceding it (so the graph is at
/// the right version) and builds everything else cold.
fn cold_reference(batch: &[Request]) -> Vec<String> {
    batch
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let engine = ServiceEngine::new(ParallelismConfig::serial());
            for prior in &batch[..i] {
                if matches!(prior.op, Op::Mutate { .. }) {
                    let ack = engine.serve(prior);
                    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "replay failed: {ack}");
                }
            }
            engine.serve(request).to_string()
        })
        .collect()
}

#[test]
fn interleaved_churn_matches_cold_rebuilds_at_every_thread_count() {
    for spec in [sbm(), ba()] {
        let base = spec.build(DATASET_SEED).unwrap();
        let steps = ChurnConfig::new(3, 2, 17).generate(&base).unwrap().steps;
        let batch = churn_batch(&spec, &steps);
        let cold = cold_reference(&batch);
        assert!(
            cold.iter().all(|line| line.contains(r#""ok":true"#)),
            "cold reference must serve the whole batch"
        );
        for threads in [1usize, 2, 8] {
            let engine = ServiceEngine::new(ParallelismConfig::fixed(threads));
            let served = render(engine.serve_batch(&batch));
            assert_eq!(served, cold, "incremental diverged from cold at {threads} threads");
            // The comparison is only meaningful if the incremental paths
            // actually ran: every step refreshes the resident RIS pool and
            // patches the resident world pool.
            assert_eq!(engine.cache().stats().ris_refreshes, steps.len() as u64);
            assert_eq!(engine.cache().stats().world_patches, steps.len() as u64);
            assert_eq!(engine.cache().stats().mutations, steps.len() as u64);
        }
    }
}

/// The first `count` node pairs with no edge between them (and no
/// self-loop), scanning in row order — deterministic mutation material.
fn absent_pairs(graph: &Graph, count: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(count);
    'outer: for u in graph.nodes() {
        for v in graph.nodes() {
            if u != v && !graph.out_neighbors(u).any(|w| w == v) {
                pairs.push((u, v));
                if pairs.len() == count {
                    break 'outer;
                }
            }
        }
    }
    pairs
}

#[test]
fn mutate_responses_echo_strictly_increasing_versions() {
    let spec = DatasetSpec::parse("illustrative", 42).unwrap();
    let graph = spec.dataset.build(42).unwrap().graph;
    let pairs = absent_pairs(&graph, 3);
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let mut last_version = 0;
    for (i, &(source, target)) in pairs.iter().enumerate() {
        let ops = vec![MutationOp::AddEdge { source, target, probability: 0.4 }];
        let response = engine.serve(&Request::mutate(None, spec.clone(), ops));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        let version = response.get("graph_version").unwrap().as_u64().unwrap();
        assert!(version > last_version, "graph_version must strictly increase");
        assert_eq!(version, i as u64 + 1, "one step per mutate request");
        last_version = version;
        assert_eq!(
            response.get("edges").unwrap().as_u64().unwrap(),
            graph.num_edges() as u64 + i as u64 + 1
        );
        assert_eq!(response.get("nodes").unwrap().as_u64().unwrap(), graph.num_nodes() as u64);
        assert_eq!(response.get("applied").unwrap().as_u64().unwrap(), 1);
    }
    assert_eq!(engine.cache().graph_version(&spec), 3);
}

#[test]
fn rejected_mutations_leave_the_served_graph_untouched() {
    let spec = DatasetSpec::parse("illustrative", 42).unwrap();
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let solve = Request::parse_line(
        r#"{"op":"solve_budget","dataset":"illustrative","deadline":2,"samples":32,"budget":2}"#,
    )
    .unwrap();
    let before = engine.serve(&solve).to_string();

    // Removing an absent edge fails mid-batch (op 2 of 2): no version is
    // minted, nothing is purged, and the answer does not move.
    let graph = engine.cache().graph(&spec).unwrap();
    let (source, target) = absent_pairs(&graph, 1)[0];
    let response = engine.serve(&Request::mutate(
        None,
        spec.clone(),
        vec![
            MutationOp::AddEdge { source, target, probability: 0.5 },
            MutationOp::RemoveEdge { source: target, target: source },
        ],
    ));
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert!(
        response.get("error").unwrap().as_str().unwrap().contains("mutation rejected"),
        "{response}"
    );
    assert_eq!(engine.cache().graph_version(&spec), 0);
    assert_eq!(engine.serve(&solve).to_string(), before);

    // A wire-level batch with an ill-formed mutate line still answers every
    // line, correlated — and the malformed line never reaches the cache.
    let parse_err = Request::parse_line(r#"{"op":"mutate","dataset":"illustrative","ops":[]}"#)
        .unwrap_err()
        .to_string();
    assert!(parse_err.contains("must not be empty"), "{parse_err}");
    assert_eq!(engine.cache().stats().mutations, 0);
}

/// Shrinkable raw material for a churn sequence: `(kind, a, b, p‰)` tuples
/// repaired against the evolving graph into always-valid mutations.
fn churn_descriptors() -> impl Strategy<Value = Vec<(u8, u32, u32, u32)>> {
    proptest::collection::vec((0u8..3, 0u32..10_000, 0u32..10_000, 0u32..1000), 1..7)
}

/// Maps one descriptor to a valid mutation for `graph`: endpoints are taken
/// modulo the node count, `remove`/`reweight` pick an existing edge by
/// index, and `add` scans from the hinted pair for the first absent
/// non-loop slot (falling back to reweight on a complete graph).
fn repair(descriptor: (u8, u32, u32, u32), graph: &Graph) -> MutationOp {
    let (kind, a, b, p_mil) = descriptor;
    let n = graph.num_nodes() as u32;
    let probability = 0.05 + f64::from(p_mil) / 1000.0 * 0.9;
    let edges: Vec<(NodeId, NodeId)> =
        graph.edges().map(|(source, target, _)| (source, target)).collect();
    let kind = if edges.is_empty() { 0 } else { kind };
    match kind {
        0 => {
            for offset in 0..u64::from(n) * u64::from(n) {
                let flat = (u64::from(a % n) * u64::from(n) + u64::from(b % n) + offset)
                    % (u64::from(n) * u64::from(n));
                let (u, v) =
                    (NodeId((flat / u64::from(n)) as u32), NodeId((flat % u64::from(n)) as u32));
                if u != v && !graph.out_neighbors(u).any(|w| w == v) {
                    return MutationOp::AddEdge { source: u, target: v, probability };
                }
            }
            let (source, target) = edges[a as usize % edges.len()];
            MutationOp::Reweight { source, target, probability }
        }
        1 => {
            let (source, target) = edges[a as usize % edges.len()];
            MutationOp::RemoveEdge { source, target }
        }
        _ => {
            let (source, target) = edges[a as usize % edges.len()];
            MutationOp::Reweight { source, target, probability }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over arbitrary valid churn sequences: `mutate → solve` equals
    /// `rebuild → solve` byte-for-byte at 1, 2 and 8 threads, and
    /// `graph_version` strictly increases one step per mutation.
    #[test]
    fn mutate_then_solve_equals_rebuild_then_solve(descriptors in churn_descriptors()) {
        let spec = ScenarioSpec::sbm(40, 0.12, 0.03).unwrap();
        let mut graph = spec.build(DATASET_SEED).unwrap();
        let mut steps = Vec::with_capacity(descriptors.len());
        for descriptor in descriptors {
            let op = repair(descriptor, &graph);
            graph = graph.apply(std::slice::from_ref(&op)).expect("repaired ops are valid");
            steps.push(vec![op]);
        }
        let batch = churn_batch(&spec, &steps);
        let cold = cold_reference(&batch);
        for threads in [1usize, 2, 8] {
            let engine = ServiceEngine::new(ParallelismConfig::fixed(threads));
            let served = render(engine.serve_batch(&batch));
            prop_assert!(served == cold, "diverged at {} threads", threads);
            // Versions strictly increase, one per mutate line.
            let versions: Vec<u64> = served
                .iter()
                .filter_map(|line| Json::parse(line).unwrap().get("graph_version")?.as_u64())
                .collect();
            prop_assert_eq!(versions.len(), steps.len());
            for (i, &version) in versions.iter().enumerate() {
                prop_assert_eq!(version, i as u64 + 1);
            }
            prop_assert_eq!(engine.cache().graph_version(&dataset_spec(&spec)), steps.len() as u64);
        }
    }
}
