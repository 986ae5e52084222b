//! Service-level determinism: cached answers must be bitwise-identical to
//! cold solves, batches must be byte-identical at every thread count, and
//! the checked-in golden smoke files (which CI pipes through `tcim_serve`)
//! must stay in sync with the engine.

use std::sync::Arc;

use tcim_core::{solve, EstimatorConfig, ProblemSpec, WorldsConfig};
use tcim_diffusion::{Deadline, ParallelismConfig};
use tcim_service::{CacheConfig, Json, OracleCache, Request, ServiceEngine};

fn request(line: &str) -> Request {
    Request::parse_line(line).unwrap()
}

/// The repeated-query shape of the bench: one dataset, a τ × B grid.
fn grid_requests() -> Vec<Request> {
    let mut requests = Vec::new();
    for tau in [2u32, 3, 4, 5] {
        for budget in [2usize, 4, 6] {
            requests.push(request(&format!(
                r#"{{"id":"tau{tau}-b{budget}","op":"solve_budget","dataset":"synthetic","deadline":{tau},"samples":64,"estimator_seed":5,"budget":{budget}}}"#
            )));
        }
    }
    requests
}

#[test]
fn cache_hits_are_bitwise_identical_to_cold_solves() {
    let engine = ServiceEngine::new(ParallelismConfig::serial());
    let req = request(
        r#"{"op":"solve_budget","dataset":"synthetic","deadline":4,"samples":64,"estimator_seed":5,"budget":6}"#,
    );

    // Cold (miss), then warm (hit): byte-identical responses.
    let cold_response = engine.serve(&req).to_string();
    let stats = engine.cache().stats();
    assert_eq!((stats.oracle_hits, stats.oracle_misses), (0, 1));
    let warm_response = engine.serve(&req).to_string();
    let stats = engine.cache().stats();
    assert_eq!((stats.oracle_hits, stats.oracle_misses), (1, 1));
    assert_eq!(cold_response, warm_response, "a cache hit must not change the answer");

    // ... and identical to a solve that never touches the service layer.
    let graph = Arc::new(tcim_datasets::registry::Dataset::Synthetic.build(42).unwrap().graph);
    let oracle = EstimatorConfig::Worlds(WorldsConfig { num_worlds: 64, seed: 5 })
        .build(graph, Deadline::finite(4))
        .unwrap();
    let report = solve(&oracle, &ProblemSpec::budget(6).unwrap()).unwrap();
    let served = Json::parse(&warm_response).unwrap();
    let served_seeds: Vec<u64> = served
        .get("seeds")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.as_u64().unwrap())
        .collect();
    let direct_seeds: Vec<u64> = report.seeds.iter().map(|s| s.0 as u64).collect();
    assert_eq!(served_seeds, direct_seeds, "served seeds must match the direct solve");
    let served_influence = served.get("influence").unwrap().as_arr().unwrap();
    for (a, b) in served_influence.iter().zip(report.influence.values()) {
        assert_eq!(a.as_f64().unwrap().to_bits(), b.to_bits(), "influence must match bitwise");
    }
}

#[test]
fn batches_are_byte_identical_across_thread_counts_and_cache_states() {
    let requests = grid_requests();
    let render = |responses: Vec<Json>| -> Vec<String> {
        responses.into_iter().map(|r| r.to_string()).collect()
    };

    let serial = render(ServiceEngine::new(ParallelismConfig::serial()).serve_batch(&requests));
    for threads in [2usize, 8] {
        let engine = ServiceEngine::new(ParallelismConfig::fixed(threads));
        let parallel = render(engine.serve_batch(&requests));
        assert_eq!(serial, parallel, "batch output differs at {threads} threads");
        // Serving the same batch again — now fully cached — must not change
        // a byte either.
        let warm = render(engine.serve_batch(&requests));
        assert_eq!(serial, warm, "warm batch output differs at {threads} threads");
    }
}

#[test]
fn one_world_pool_serves_the_whole_grid() {
    // The in-flight build deduplication makes these counts exact even when
    // the whole cold batch races through the cache on 8 worker threads (one
    // builder per key; everyone else waits and hits).
    for parallelism in [ParallelismConfig::serial(), ParallelismConfig::fixed(8)] {
        let engine = ServiceEngine::new(parallelism);
        let responses = engine.serve_batch(&grid_requests());
        assert!(responses.iter().all(|r| r.get("ok") == Some(&Json::Bool(true))));
        let stats = engine.cache().stats();
        // 12 queries over 4 deadlines: the worlds sample exactly once, every
        // other oracle construction reuses them (the whole point of the
        // cache).
        assert_eq!(stats.world_misses, 1, "worlds must sample once for the grid");
        assert_eq!(stats.world_hits, 3, "each further deadline reuses the pool");
        assert_eq!(stats.oracle_misses, 4, "one oracle per distinct deadline");
        assert_eq!(stats.oracle_hits, 8, "every repeated (τ) query hits");
    }
}

#[test]
fn eviction_under_budget_is_byte_identical() {
    // Scenario-diverse traffic against a budget far below its working set:
    // six inline scenarios, each sampling its own world pool. A 32 KiB / 2
    // shard cache cannot hold them all, so serving the sweep twice forces
    // evicted entries to rebuild — and the rebuilt answers must match the
    // unbounded engine's byte-for-byte, at 1 and at 8 threads.
    let requests: Vec<Request> = (0..6)
        .map(|seed| {
            request(&format!(
                r#"{{"id":"sbm-{seed}","op":"solve_budget","scenario":{{"family":"sbm","nodes":80,"p_within":0.05,"p_across":0.005,"majority_fraction":0.7,"weights":"uniform","edge_probability":0.1}},"dataset_seed":{seed},"deadline":3,"samples":24,"budget":2}}"#
            ))
        })
        .collect();
    let render = |responses: Vec<Json>| -> Vec<String> {
        responses.into_iter().map(|r| r.to_string()).collect()
    };

    let unbounded = ServiceEngine::new(ParallelismConfig::serial());
    let expected = render(unbounded.serve_batch(&requests));

    for parallelism in [ParallelismConfig::serial(), ParallelismConfig::fixed(8)] {
        let cache =
            Arc::new(OracleCache::with_config(CacheConfig { max_bytes: 32 * 1024, shards: 2 }));
        let engine = ServiceEngine::with_cache(Arc::clone(&cache), parallelism);
        let first = render(engine.serve_batch(&requests));
        let second = render(engine.serve_batch(&requests));
        assert_eq!(expected, first, "budgeted pass must match the unbounded engine");
        assert_eq!(expected, second, "evicted-and-rebuilt answers must not change");

        let stats = cache.stats();
        assert!(stats.evictions > 0, "the sweep must overflow 32 KiB: {stats:?}");
        assert!(stats.bytes_used <= stats.bytes_budget);
        for shard in cache.shard_stats() {
            assert!(
                shard.peak_bytes <= shard.bytes_budget,
                "peak bytes must honour the shard slice: {shard:?}"
            );
        }
    }
}

#[test]
fn shared_caches_serve_multiple_engines() {
    let cache = Arc::new(OracleCache::new());
    let a = ServiceEngine::with_cache(Arc::clone(&cache), ParallelismConfig::serial());
    let b = ServiceEngine::with_cache(Arc::clone(&cache), ParallelismConfig::serial());
    let req = request(
        r#"{"op":"estimate","dataset":"illustrative","deadline":2,"samples":32,"seeds":[0,5]}"#,
    );
    let first = a.serve(&req).to_string();
    let second = b.serve(&req).to_string();
    assert_eq!(first, second);
    assert_eq!(cache.stats().oracle_hits, 1, "the second engine must hit the shared cache");
}

#[test]
fn golden_churn_files_stay_in_sync() {
    // The churn batch extends the smoke batch with graph mutations and
    // post-mutation re-solves. Two invariants keep the pair honest:
    //  1. its first five requests (and their responses) are byte-identical
    //     to the smoke pair, so the pre-mutation prefix can never drift from
    //     the canonical smoke answers; and
    //  2. replaying the whole batch through the engine reproduces the golden
    //     responses byte-for-byte, mutation barriers included.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let requests_text = std::fs::read_to_string(dir.join("churn_requests.jsonl")).unwrap();
    let expected = std::fs::read_to_string(dir.join("churn_responses.jsonl")).unwrap();
    let smoke_requests = std::fs::read_to_string(dir.join("smoke_requests.jsonl")).unwrap();
    let smoke_responses = std::fs::read_to_string(dir.join("smoke_responses.jsonl")).unwrap();

    let payload = |text: &str| -> Vec<String> {
        text.lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let churn_lines = payload(&requests_text);
    let smoke_lines = payload(&smoke_requests);
    assert_eq!(churn_lines.len(), 12, "the churn batch is twelve requests");
    assert_eq!(
        &churn_lines[..smoke_lines.len()],
        &smoke_lines[..],
        "the churn batch must open with the smoke batch, byte-for-byte"
    );
    assert_eq!(
        expected.lines().take(smoke_lines.len()).collect::<Vec<_>>(),
        smoke_responses.lines().collect::<Vec<_>>(),
        "the pre-mutation churn responses must equal the smoke responses"
    );

    let requests: Vec<Request> = churn_lines
        .iter()
        .map(|line| Request::parse_line(line).expect("golden request must parse"))
        .collect();
    let engine = ServiceEngine::new(ParallelismConfig::auto());
    let mut produced = String::new();
    for response in engine.serve_batch(&requests) {
        produced.push_str(&response.to_string());
        produced.push('\n');
    }
    assert_eq!(
        produced, expected,
        "golden churn responses out of date; regenerate with:\n  cargo run -q -p tcim-service \
         --bin tcim_serve -- --quiet --input crates/service/tests/golden/churn_requests.jsonl \
         > crates/service/tests/golden/churn_responses.jsonl"
    );
    // The mutations actually exercised the incremental paths while producing
    // those bytes (the diffcheck harness proves incremental == cold).
    assert_eq!(engine.cache().stats().mutations, 2, "the batch carries two mutate requests");
    assert!(engine.cache().stats().ris_refreshes >= 1, "the RIS pool must refresh incrementally");
    // Ids 7 and 10 patch the resident world pool (the first off the
    // version-0 pool), and their bytes equal a cold resample's.
    assert_eq!(engine.cache().stats().world_patches, 2, "each mutation must patch the world pool");
}

#[test]
fn golden_smoke_files_stay_in_sync() {
    // CI pipes the request file through `tcim_serve` and diffs stdout against
    // the response file at RAYON_NUM_THREADS 1 and 8; this test keeps the
    // pair honest from inside the test suite (and catches protocol drift at
    // `cargo test` time rather than in CI).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let requests_text = std::fs::read_to_string(dir.join("smoke_requests.jsonl")).unwrap();
    let expected = std::fs::read_to_string(dir.join("smoke_responses.jsonl")).unwrap();

    let requests: Vec<Request> = requests_text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| Request::parse_line(line).expect("golden request must parse"))
        .collect();
    assert_eq!(requests.len(), 5, "the smoke batch is five requests");

    let engine = ServiceEngine::new(ParallelismConfig::auto());
    let mut produced = String::new();
    for response in engine.serve_batch(&requests) {
        produced.push_str(&response.to_string());
        produced.push('\n');
    }
    assert_eq!(
        produced, expected,
        "golden responses out of date; regenerate with:\n  cargo run -q -p tcim-service --bin \
         tcim_serve -- --quiet --input crates/service/tests/golden/smoke_requests.jsonl \
         > crates/service/tests/golden/smoke_responses.jsonl"
    );
}

#[test]
fn protocol_doc_examples_are_verbatim_golden_lines() {
    // docs/PROTOCOL.md's "Examples" section claims its request/response
    // lines are lifted from the golden pairs; hold it to that, so a golden
    // regeneration cannot leave stale answers in the docs.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("../../docs/PROTOCOL.md")).unwrap();
    let golden: std::collections::BTreeSet<String> = [
        "smoke_requests.jsonl",
        "smoke_responses.jsonl",
        "churn_requests.jsonl",
        "churn_responses.jsonl",
    ]
    .iter()
    .flat_map(|name| {
        let text = std::fs::read_to_string(root.join("tests/golden").join(name)).unwrap();
        text.lines().map(str::to_string).collect::<Vec<_>>()
    })
    .collect();
    let section = doc
        .split("\n## Examples\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("docs/PROTOCOL.md has an Examples section");
    let quoted: Vec<&str> = section.lines().filter(|line| line.starts_with(r#"{"id":"#)).collect();
    assert!(quoted.len() >= 10, "expected the five request/response pairs, found {quoted:?}");
    for line in quoted {
        assert!(golden.contains(line), "docs/PROTOCOL.md example is not a golden line:\n  {line}");
    }
}
