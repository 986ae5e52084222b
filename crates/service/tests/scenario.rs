//! Scenario-serving determinism and coverage: an inline `"scenario"` object
//! must solve every problem family P1–P6 through the engine, hit the
//! `OracleCache` on repeat with byte-identical answers, and serve batches
//! byte-identically at every thread count — the same contract the named
//! datasets obey, keyed by `ScenarioSpec::fingerprint` instead of a name.

use tcim_diffusion::ParallelismConfig;
use tcim_service::{Json, Request, ServiceEngine};

fn request(line: &str) -> Request {
    Request::parse_line(line).unwrap()
}

/// A 150-node SBM scenario literal, shared by every test below.
const SBM: &str = r#"{"family":"sbm","nodes":150,"p_within":0.06,"p_across":0.01,"majority_fraction":0.7,"weights":"uniform","edge_probability":0.1}"#;

/// A 120-node Barabási–Albert scenario literal with weighted-cascade weights.
const BA: &str = r#"{"family":"barabasi-albert","nodes":120,"edges_per_node":3,"homophily_bias":4.0,"weights":"weighted-cascade"}"#;

/// A 100-node Watts–Strogatz scenario literal.
const WS: &str =
    r#"{"family":"watts-strogatz","nodes":100,"neighbors":2,"rewire_probability":0.2}"#;

/// One request per paper problem, all against the same inline `scenario`
/// and the same oracle coordinates (`τ = 5`, 64 worlds).
fn p1_to_p6(scenario: &str) -> Vec<Request> {
    [
        format!(r#"{{"id":"P1","op":"solve_budget","scenario":{scenario},"deadline":5,"samples":64,"budget":3}}"#),
        format!(r#"{{"id":"P2","op":"solve_cover","scenario":{scenario},"deadline":5,"samples":64,"quota":0.1}}"#),
        format!(r#"{{"id":"P3","op":"solve_budget","scenario":{scenario},"deadline":5,"samples":64,"budget":3,"disparity_cap":0.4}}"#),
        format!(r#"{{"id":"P4","op":"solve_budget","scenario":{scenario},"deadline":5,"samples":64,"budget":3,"fair":true,"wrapper":"log"}}"#),
        format!(r#"{{"id":"P5","op":"solve_cover","scenario":{scenario},"deadline":5,"samples":64,"quota":0.1,"disparity_cap":0.4}}"#),
        format!(r#"{{"id":"P6","op":"solve_cover","scenario":{scenario},"deadline":5,"samples":64,"quota":0.1,"fair":true}}"#),
    ]
    .iter()
    .map(|line| request(line))
    .collect()
}

#[test]
fn an_inline_sbm_scenario_solves_p1_through_p6() {
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let responses = engine.serve_batch(&p1_to_p6(SBM));
    let mut labels = Vec::new();
    for response in &responses {
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        labels.push(response.get("label").unwrap().as_str().unwrap().to_string());
    }
    assert_eq!(labels, vec!["P1", "P2", "P3", "P4-log", "P5", "P6"]);
    // All six ride one scenario graph and one sampled world pool: the
    // fingerprint-keyed cache treats the repeated inline object exactly
    // like a repeated dataset name.
    let stats = engine.cache().stats();
    assert_eq!(stats.world_misses, 1, "one scenario, one world pool");
    assert_eq!(stats.world_hits, 0, "same oracle coordinates: built once, reused in cache");
}

#[test]
fn every_generator_family_serves_p1_through_p6_warm_as_cold() {
    // Each family's P1–P6 batch is served cold and then warm on one engine:
    // every answer succeeds and the warm pass repeats the cold one byte for
    // byte.
    for scenario in [SBM, BA, WS] {
        let engine = ServiceEngine::new(ParallelismConfig::fixed(2));
        let batch = p1_to_p6(scenario);
        let render =
            |responses: Vec<Json>| responses.iter().map(Json::to_string).collect::<Vec<_>>();
        let cold = render(engine.serve_batch(&batch));
        assert!(cold.iter().all(|r| r.contains(r#""ok":true"#)), "{scenario}: {cold:?}");
        let warm = render(engine.serve_batch(&batch));
        assert_eq!(cold, warm, "{scenario}: warm answers differ from cold");
        let stats = engine.cache().stats();
        assert_eq!(stats.oracle_misses, 1, "{scenario}: the warm pass must hit");
    }
}

#[test]
fn warm_scenario_answers_are_byte_identical_to_cold() {
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let req = request(&format!(
        r#"{{"op":"solve_budget","scenario":{SBM},"deadline":5,"samples":64,"budget":4}}"#
    ));
    let cold = engine.serve(&req).to_string();
    let stats = engine.cache().stats();
    assert_eq!((stats.oracle_hits, stats.oracle_misses), (0, 1));
    let warm = engine.serve(&req).to_string();
    let stats = engine.cache().stats();
    assert_eq!((stats.oracle_hits, stats.oracle_misses), (1, 1), "the repeat must hit");
    assert_eq!(cold, warm, "a scenario cache hit must not change a byte");
}

#[test]
fn distinct_scenarios_do_not_share_cache_entries() {
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let line = |nodes: usize, seed: u64| {
        request(&format!(
            r#"{{"op":"estimate","scenario":{{"family":"watts-strogatz","nodes":{nodes},"neighbors":2,"rewire_probability":0.1}},"dataset_seed":{seed},"deadline":3,"samples":16,"seeds":[0]}}"#
        ))
    };
    engine.serve(&line(100, 1));
    engine.serve(&line(101, 1)); // different spec
    engine.serve(&line(100, 2)); // same spec, different seed
    engine.serve(&line(100, 1)); // exact repeat
    let stats = engine.cache().stats();
    assert_eq!(stats.oracle_misses, 3, "three distinct (spec, seed) identities");
    assert_eq!(stats.oracle_hits, 1, "only the exact repeat hits");
}

#[test]
fn scenario_batches_are_byte_identical_across_thread_counts() {
    // A mixed batch across all three generator families and weight models.
    let requests: Vec<Request> = [
        format!(r#"{{"id":1,"op":"solve_budget","scenario":{SBM},"deadline":5,"samples":32,"budget":2}}"#),
        r#"{"id":2,"op":"solve_budget","scenario":{"family":"barabasi-albert","nodes":120,"edges_per_node":3,"homophily_bias":4.0,"weights":"weighted-cascade"},"deadline":5,"samples":32,"budget":2}"#.to_string(),
        r#"{"id":3,"op":"solve_cover","scenario":{"family":"watts-strogatz","nodes":100,"neighbors":2,"rewire_probability":0.2},"deadline":5,"samples":32,"quota":0.1,"fair":true}"#.to_string(),
        r#"{"id":4,"op":"audit","scenario":{"preset":"synthetic-sbm"},"deadline":5,"samples":32,"seeds":[0,1]}"#.to_string(),
    ]
    .iter()
    .map(|line| request(line))
    .collect();

    let render = |responses: Vec<Json>| -> Vec<String> {
        responses.into_iter().map(|r| r.to_string()).collect()
    };
    let serial = render(ServiceEngine::new(ParallelismConfig::serial()).serve_batch(&requests));
    assert!(serial.iter().all(|r| r.contains(r#""ok":true"#)), "{serial:?}");
    for threads in [2usize, 8] {
        let engine = ServiceEngine::new(ParallelismConfig::fixed(threads));
        let parallel = render(engine.serve_batch(&requests));
        assert_eq!(serial, parallel, "scenario batch differs at {threads} threads");
        let warm = render(engine.serve_batch(&requests));
        assert_eq!(serial, warm, "warm scenario batch differs at {threads} threads");
    }
}

#[test]
fn lt_weight_scenarios_serve_under_the_lt_model() {
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let response = engine.serve(&request(
        r#"{"op":"solve_budget","scenario":{"family":"barabasi-albert","nodes":100,"edges_per_node":2,"weights":"lt"},"model":"lt","deadline":4,"samples":32,"budget":2}"#,
    ));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    assert_eq!(response.get("seeds").unwrap().as_arr().unwrap().len(), 2);
}
