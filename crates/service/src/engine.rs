//! The batched query engine: cached oracles + parallel request fan-out.

use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use tcim_core::{audit_seed_set, solve, FairnessReport, SolverReport};
use tcim_diffusion::{InfluenceOracle, ParallelismConfig};

use crate::cache::OracleCache;
use crate::error::{Result, ServiceError};
use crate::minijson::Json;
use crate::protocol::{error_response, nodes_to_json, ok_response, ping_fields, Op, Request};
use crate::stats::{OpKind, ServerStats, StatsSnapshot};

/// Serves campaign queries against a shared [`OracleCache`].
///
/// [`ServiceEngine::serve_batch`] fans a slice of requests out across the
/// worker threads of its [`ParallelismConfig`] while every worker reads the
/// same cached oracles. Responses come back in request order and are a pure
/// function of each request: the batch is bitwise-identical at any thread
/// count and any cache temperature (the repository-wide determinism
/// contract, enforced by the service tests and the CI golden files).
///
/// Every served request is also recorded into the engine's [`ServerStats`]
/// (count, outcome, latency) — the telemetry behind the `{"op":"stats"}`
/// wire op and the socket server's shutdown log line. Recording is
/// atomics-only and never influences a response.
pub struct ServiceEngine {
    cache: Arc<OracleCache>,
    parallelism: ParallelismConfig,
    stats: Arc<ServerStats>,
}

impl ServiceEngine {
    /// An engine with a fresh cache.
    pub fn new(parallelism: ParallelismConfig) -> Self {
        ServiceEngine::with_cache(Arc::new(OracleCache::new()), parallelism)
    }

    /// An engine sharing an existing cache (several engines — e.g. one per
    /// listener — can serve from one pool of oracles).
    pub fn with_cache(cache: Arc<OracleCache>, parallelism: ParallelismConfig) -> Self {
        ServiceEngine { cache, parallelism, stats: Arc::new(ServerStats::new()) }
    }

    /// The shared cache (for stats reporting and warm-up).
    pub fn cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }

    /// The serving metrics this engine records into (shared with the socket
    /// server, which adds connection-lifecycle gauges).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// A point-in-time stats snapshot joined with the cache counters and
    /// per-shard budget breakdown — the payload of the `stats` op and of the
    /// shutdown log line.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(self.cache.stats(), self.cache.shard_stats())
    }

    /// Serves one request, returning the response object (errors become
    /// `"ok": false` responses, never panics). Every fan-out the request
    /// starts (building its oracle, evaluating, a batch of gains) runs under
    /// the engine's thread count, whichever thread calls this.
    pub fn serve(&self, request: &Request) -> Json {
        self.parallelism.run(|| self.respond(request))
    }

    /// [`ServiceEngine::serve`] under the calling thread's count: a batch's
    /// workers call this, so each request keeps the share of the engine's
    /// count that its chunk of the batch was given.
    fn respond(&self, request: &Request) -> Json {
        let kind = OpKind::of(&request.op);
        self.stats.request_started();
        #[expect(
            clippy::disallowed_methods,
            reason = "latency measurement feeds the stats histograms only, never a response body"
        )]
        let start = Instant::now();
        let result = self.execute(request);
        let ok = result.is_ok();
        let response = match result {
            Ok(fields) => ok_response(request.id.as_ref(), request.op.label(), fields),
            Err(err) => {
                error_response(request.id.as_ref(), Some(request.op.label()), &err.to_string())
            }
        };
        self.stats.request_finished(kind, ok, start.elapsed());
        response
    }

    /// Serves a batch concurrently, preserving request order in the output.
    ///
    /// Mutations are sequencing barriers: every request before a `mutate`
    /// line is served against the pre-mutation graph and every request after
    /// it against the post-mutation graph, exactly as a serial replay would —
    /// the segments between mutations still fan out across the worker
    /// threads, so a churn batch stays bitwise-identical at any thread count.
    pub fn serve_batch(&self, requests: &[Request]) -> Vec<Json> {
        let mut responses = Vec::with_capacity(requests.len());
        let mut rest = requests;
        while !rest.is_empty() {
            let split =
                rest.iter().position(|r| matches!(r.op, Op::Mutate { .. })).unwrap_or(rest.len());
            let (segment, tail) = rest.split_at(split);
            responses.extend(self.serve_segment(segment));
            match tail.split_first() {
                Some((mutation, after)) => {
                    responses.push(self.serve(mutation));
                    rest = after;
                }
                None => rest = tail,
            }
        }
        responses
    }

    fn serve_segment(&self, requests: &[Request]) -> Vec<Json> {
        if requests.len() < 2 || self.parallelism.is_serial() {
            return requests.iter().map(|r| self.serve(r)).collect();
        }
        self.parallelism.run(|| requests.par_iter().map(|r| self.respond(r)).collect())
    }

    fn execute(&self, request: &Request) -> Result<Vec<(String, Json)>> {
        #[cfg(test)]
        tests::record_thread_count(request);
        // Serving-tier ops never touch an oracle. `stats` snapshots before
        // its own completion is recorded, so the reported counts cover
        // *completed* requests (the snapshot does count itself as in-flight,
        // which it is). `shutdown` is acknowledged here; the socket server
        // reacts to it after the response is written.
        match &request.op {
            Op::Stats => return Ok(self.stats_snapshot().fields()),
            Op::Ping => return Ok(ping_fields()),
            Op::Shutdown => return Ok(Vec::new()),
            // Mutations carry a dataset but no oracle: apply the step and
            // echo the new graph shape so the response pins the version the
            // following solves will be served against.
            Op::Mutate { dataset, ops } => {
                let graph = self.cache.mutate(dataset, ops)?;
                return Ok(vec![
                    ("graph_version".into(), Json::Num(graph.version() as f64)),
                    ("nodes".into(), Json::Num(graph.num_nodes() as f64)),
                    ("edges".into(), Json::Num(graph.num_edges() as f64)),
                    ("applied".into(), Json::Num(ops.len() as f64)),
                ]);
            }
            _ => {}
        }
        let spec = request.oracle.as_ref().ok_or_else(|| {
            ServiceError::bad_request(format!(
                "op '{}' requires an oracle (dataset or scenario fields)",
                request.op.label()
            ))
        })?;
        let oracle = self.cache.oracle(spec)?;
        match &request.op {
            // One arm for every solve: the protocol decoded the request into
            // a `ProblemSpec`, and `tcim_core::solve` dispatches it — adding
            // a problem variant never touches this engine again.
            Op::Solve(spec) => Ok(solver_fields(&solve(oracle.as_ref(), spec)?)),
            Op::Audit { seeds } => {
                let report = audit_seed_set(oracle.as_ref(), seeds)?;
                Ok(fairness_fields(&report))
            }
            Op::Estimate { seeds } => {
                let influence = oracle.evaluate(seeds).map_err(ServiceError::from)?;
                Ok(vec![
                    ("influence".into(), f64_array(influence.values())),
                    ("total".into(), Json::Num(influence.total())),
                ])
            }
            #[expect(
                clippy::unreachable,
                reason = "execute() answers admin ops and mutations before dispatching here"
            )]
            Op::Stats | Op::Ping | Op::Shutdown | Op::Mutate { .. } => {
                unreachable!("admin ops and mutations handled above")
            }
        }
    }
}

fn f64_array(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn solver_fields(report: &SolverReport) -> Vec<(String, Json)> {
    let fairness = report.fairness();
    let mut fields = vec![
        ("label".into(), Json::from(report.label.as_str())),
        ("seeds".into(), nodes_to_json(&report.seeds)),
        ("influence".into(), f64_array(report.influence.values())),
        ("total".into(), Json::Num(fairness.total)),
        ("total_fraction".into(), Json::Num(fairness.total_fraction)),
        ("normalized".into(), f64_array(&fairness.normalized_utilities)),
        ("disparity".into(), Json::Num(fairness.disparity)),
        ("gain_evaluations".into(), Json::Num(report.gain_evaluations as f64)),
    ];
    if let Some(cover) = &report.cover {
        fields.push(("quota".into(), Json::Num(cover.quota)));
        fields.push(("reached".into(), Json::Bool(cover.reached)));
        fields.push(("num_seeds".into(), Json::Num(report.num_seeds() as f64)));
    }
    if let Some(constrained) = &report.constrained {
        fields.push(("disparity_cap".into(), Json::Num(constrained.disparity_cap)));
        fields.push(("feasible".into(), Json::Bool(constrained.feasible)));
    }
    // The canonical spec echo makes every response self-describing: a stored
    // response line names the exact problem that produced it.
    if let Some(spec) = &report.spec {
        fields.push(("spec".into(), Json::from(spec.as_str())));
    }
    fields
}

fn fairness_fields(report: &FairnessReport) -> Vec<(String, Json)> {
    vec![
        ("influence".into(), f64_array(&report.raw_utilities)),
        ("normalized".into(), f64_array(&report.normalized_utilities)),
        ("total".into(), Json::Num(report.total)),
        ("total_fraction".into(), Json::Num(report.total_fraction)),
        ("disparity".into(), Json::Num(report.disparity)),
        (
            "worst_off_group".into(),
            report.worst_off_group().map(|g| Json::Num(g.index() as f64)).unwrap_or(Json::Null),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// The thread count each request id started executing under, across
    /// every test in this binary (so each test filters its own ids).
    static THREAD_COUNTS: Mutex<Vec<(String, usize)>> = Mutex::new(Vec::new());

    pub(super) fn record_thread_count(request: &Request) {
        if let Some(Json::Str(id)) = &request.id {
            let threads = rayon::current_num_threads();
            THREAD_COUNTS.lock().unwrap().push((id.clone(), threads));
        }
    }

    fn thread_counts(prefix: &str) -> Vec<(String, usize)> {
        let mut seen: Vec<(String, usize)> = THREAD_COUNTS
            .lock()
            .unwrap()
            .iter()
            .filter(|(id, _)| id.starts_with(prefix))
            .cloned()
            .collect();
        seen.sort();
        seen
    }

    fn request(line: &str) -> Request {
        Request::parse_line(line).unwrap()
    }

    #[test]
    fn a_request_runs_its_fan_outs_under_the_engines_count() {
        let engine = ServiceEngine::new(ParallelismConfig::fixed(3));
        // Whatever the calling thread's own count is, `serve` runs under 3.
        let response = ParallelismConfig::fixed(5).run(|| {
            engine.serve(&request(
                r#"{"id":"serve-3","op":"estimate","dataset":"illustrative","samples":64,"seeds":[0]}"#,
            ))
        });
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        assert_eq!(thread_counts("serve-3"), [("serve-3".to_string(), 3)]);
    }

    #[test]
    fn a_batch_splits_the_engines_count_between_its_workers() {
        let engine = ServiceEngine::new(ParallelismConfig::fixed(4));
        let responses = engine.serve_batch(&[
            request(r#"{"id":"batch-4a","op":"estimate","dataset":"illustrative","samples":8,"seeds":[0]}"#),
            request(r#"{"id":"batch-4b","op":"estimate","dataset":"illustrative","samples":8,"seeds":[1]}"#),
        ]);
        assert!(responses.iter().all(|r| r.get("ok") == Some(&Json::Bool(true))));
        let expected = [("batch-4a".to_string(), 2), ("batch-4b".to_string(), 2)];
        assert_eq!(thread_counts("batch-4"), expected);
    }

    #[test]
    fn serves_every_op_against_the_illustrative_dataset() {
        let engine = ServiceEngine::new(ParallelismConfig::serial());
        let responses = engine.serve_batch(&[
            request(r#"{"id":1,"op":"solve_budget","dataset":"illustrative","deadline":2,"samples":64,"budget":2}"#),
            request(r#"{"id":2,"op":"solve_budget","dataset":"illustrative","deadline":2,"samples":64,"budget":2,"fair":true}"#),
            request(r#"{"id":3,"op":"solve_cover","dataset":"illustrative","deadline":2,"samples":64,"quota":0.2,"fair":true}"#),
            request(r#"{"id":4,"op":"audit","dataset":"illustrative","deadline":2,"samples":64,"seeds":[0,1]}"#),
            request(r#"{"id":5,"op":"estimate","dataset":"illustrative","deadline":2,"samples":64,"seeds":[0]}"#),
        ]);
        assert_eq!(responses.len(), 5);
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "response {i}: {response}");
            assert_eq!(response.get("id").unwrap().as_f64(), Some(i as f64 + 1.0));
        }
        // The unfair and fair solves disagree on disparity direction.
        let unfair = responses[0].get("disparity").unwrap().as_f64().unwrap();
        let fair = responses[1].get("disparity").unwrap().as_f64().unwrap();
        assert!(fair <= unfair + 1e-9, "fair {fair} vs unfair {unfair}");
        assert!(responses[2].get("reached").unwrap().as_bool().unwrap());
        assert_eq!(responses[4].get("op").unwrap().as_str(), Some("estimate"));
        // One dataset, one world pool: everything after the first build hits.
        let stats = engine.cache().stats();
        assert_eq!(stats.world_misses, 1);
    }

    #[test]
    fn admin_ops_serve_without_an_oracle_and_stats_reflect_traffic() {
        let engine = ServiceEngine::new(ParallelismConfig::serial());
        let pong = engine.serve(&request(r#"{"id":"p","op":"ping"}"#));
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(pong.get("id"), Some(&Json::from("p")));
        assert!(pong.get("protocol").unwrap().as_f64().is_some());

        // Traffic: one solve, one failing estimate, then the stats snapshot.
        engine.serve(&request(
            r#"{"op":"solve_budget","dataset":"illustrative","deadline":2,"samples":32,"budget":2}"#,
        ));
        engine.serve(&request(
            r#"{"op":"estimate","dataset":"illustrative","samples":32,"seeds":[9999]}"#,
        ));
        let stats = engine.serve(&request(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
        let requests = stats.get("requests").unwrap();
        // ping + solve + estimate completed before the snapshot was taken.
        assert_eq!(requests.get("total").unwrap().as_f64(), Some(3.0));
        assert_eq!(requests.get("errors").unwrap().as_f64(), Some(1.0));
        assert!(requests.get("p50_us").unwrap().as_f64().is_some());
        assert!(requests.get("p99_us").unwrap().as_f64().is_some());
        let cache = stats.get("cache").unwrap();
        assert!(cache.get("oracles").unwrap().get("hit_rate").unwrap().as_f64().is_some());
        // Budget accounting reaches the wire: resident bytes, the configured
        // budget, and one shard object per configured shard.
        assert!(cache.get("bytes_used").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            cache.get("bytes_budget").unwrap().as_f64(),
            Some(crate::CacheConfig::DEFAULT_MAX_BYTES as f64)
        );
        assert_eq!(cache.get("evictions").unwrap().as_f64(), Some(0.0));
        let Some(Json::Arr(shards)) = cache.get("shards") else {
            panic!("shards array expected: {stats}");
        };
        assert_eq!(shards.len(), crate::CacheConfig::DEFAULT_SHARDS);

        // Shutdown is a bare acknowledgment at the engine level.
        let ack = engine.serve(&request(r#"{"id":9,"op":"shutdown"}"#));
        assert_eq!(ack.to_string(), r#"{"id":9,"op":"shutdown","ok":true}"#);

        // A hand-built query request without an oracle errors, not panics.
        let bad =
            engine.serve(&Request { id: None, oracle: None, op: Op::Estimate { seeds: vec![] } });
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(bad.get("error").unwrap().as_str().unwrap().contains("requires an oracle"));
    }

    #[test]
    fn solver_failures_become_error_responses() {
        let engine = ServiceEngine::new(ParallelismConfig::serial());
        // Out-of-bounds candidates are rejected by the solver (bounds need
        // the graph), out-of-bounds seeds by the estimator; both surface as
        // ok:false with the cause, not a panic.
        let responses = engine.serve_batch(&[
            request(
                r#"{"op":"solve_budget","dataset":"illustrative","samples":8,"budget":1,"candidates":[9999]}"#,
            ),
            request(r#"{"op":"estimate","dataset":"illustrative","samples":8,"seeds":[9999]}"#),
        ]);
        for response in &responses {
            assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
            assert!(response.get("error").unwrap().as_str().is_some());
        }
        assert!(responses[0].get("error").unwrap().as_str().unwrap().contains("candidate"));
        // Degenerate spec values never reach the engine: the codec's eager
        // validation rejects them at parse time, naming the field.
        let err = Request::parse_line(
            r#"{"op":"solve_budget","dataset":"illustrative","samples":8,"budget":0}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("'budget'"), "{err}");
    }
}
