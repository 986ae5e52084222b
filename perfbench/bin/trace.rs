//! The traced run: the same lines replayed serially in process, calling the
//! public entry point of each layer in the order a request passes through
//! them and recording one span per call:
//!
//! `request` → `protocol.parse` (`Request::parse_line`) → `cache.graph` /
//! `cache.lt_weights` / `cache.worlds` / `cache.oracle` / `cache.mutate`
//! (`OracleCache`) → `core.solve` / `core.audit` / `diffusion.evaluate` →
//! `protocol.render` (response fields, `ok_response`, JSON text).
//!
//! The replay answers each line the way `ServiceEngine::serve` does; the
//! untraced replay, which calls `ServiceEngine::serve` itself, checks that
//! field by field and is the byte reference for the timed run. Spans stay
//! in memory until the run ends.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use tcim_core::{audit_seed_set, solve, Estimator, EstimatorConfig, FairnessReport, SolverReport};
use tcim_diffusion::{GroupInfluence, InfluenceOracle, ParallelismConfig};
use tcim_graph::Graph;
use tcim_service::protocol::{error_response, nodes_to_json, ok_response};
use tcim_service::{
    CacheStats, Json, ModelKind, Op, OracleCache, Request, ServiceEngine, ServiceError,
};

use crate::clock::{now, Instant};
use crate::SERVER_THREADS;

/// Which part of the run a replayed line belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    Warmup,
    /// The workload's traffic.
    Traffic,
    Tail,
}

/// One line to replay.
pub struct Item<'a> {
    pub text: &'a str,
    pub section: Section,
    pub problem: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Request,
    Parse,
    Graph,
    Lt,
    Worlds,
    Oracle,
    Mutate,
    Solve,
    Audit,
    Evaluate,
    Render,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Parse => "protocol.parse",
            Layer::Graph => "cache.graph",
            Layer::Lt => "cache.lt_weights",
            Layer::Worlds => "cache.worlds",
            Layer::Oracle => "cache.oracle",
            Layer::Mutate => "cache.mutate",
            Layer::Solve => "core.solve",
            Layer::Audit => "core.audit",
            Layer::Evaluate => "diffusion.evaluate",
            Layer::Render => "protocol.render",
        }
    }
}

/// What a cache call did, read from the cache's counters around the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    None,
    Hit,
    Miss,
    Patch,
    Refresh,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::None => "",
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Patch => "patch",
            Outcome::Refresh => "refresh",
        }
    }
}

pub struct Span {
    pub layer: Layer,
    pub request: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub outcome: Outcome,
    /// Work the call did, by layer: edges built, worlds sampled, RR sets
    /// sampled, mutation ops applied or gain evaluations.
    pub work: u64,
    /// For `core.solve`: the paper problem, P(k+1).
    pub problem: Option<usize>,
    /// For `cache.oracle`: whether the oracle is RIS-backed.
    pub ris: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder for one serial replay.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { origin: now(), spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, layer: Layer, request: usize) -> usize {
        let start = now() - self.origin;
        self.spans.push(Span {
            layer,
            request,
            parent: self.open.last().copied(),
            start,
            end: start,
            outcome: Outcome::None,
            work: 0,
            problem: None,
            ris: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, span: usize) {
        self.spans[span].end = now() - self.origin;
        assert_eq!(self.open.pop(), Some(span), "spans close in the order they open");
    }

    fn timed<R>(&mut self, layer: Layer, request: usize, call: impl FnOnce() -> R) -> (R, usize) {
        let span = self.enter(layer, request);
        let out = call();
        self.exit(span);
        (out, span)
    }
}

/// What one request computed, before rendering.
enum Output {
    Solve(SolverReport),
    Audit(FairnessReport),
    Estimate(GroupInfluence),
    Mutate(Arc<Graph>, usize),
}

/// The result of the traced replay.
pub struct Traced {
    pub responses: Vec<String>,
    pub spans: Vec<Span>,
    /// Root span of each replayed line.
    pub roots: Vec<usize>,
    pub sections: Vec<Section>,
    /// Sum of the root spans.
    pub wall: Duration,
    pub cache: CacheStats,
    pub bytes_peak: u64,
}

struct Tracer {
    cache: OracleCache,
    /// Oracle keys (spec fingerprint, graph version) this replay has built:
    /// a lookup predicted to miss is split into its graph, LT and worlds
    /// levels first, the way `OracleCache::oracle` builds them.
    resident: HashSet<(String, u64)>,
    rec: Recorder,
}

/// Replays `items` serially through the layer entry points, recording
/// spans. With `untraced`, each line is also served by
/// `ServiceEngine::serve` on an engine of its own, next to its traced turn,
/// so both replays run under the same conditions.
pub fn replay(items: &[Item<'_>], untraced: bool) -> (Traced, Option<Untraced>) {
    let mut tracer =
        Tracer { cache: OracleCache::new(), resident: HashSet::new(), rec: Recorder::new() };
    let mut plain = untraced.then(Untraced::new);
    let mut responses = Vec::with_capacity(items.len());
    let mut roots = Vec::with_capacity(items.len());
    let mut wall = Duration::ZERO;
    for (ix, item) in items.iter().enumerate() {
        // Alternate which replay goes first, so neither one is the one that
        // always finds the line's code and data warm.
        let plain_first = ix % 2 == 1;
        if let (Some(plain), true) = (&mut plain, plain_first) {
            plain.serve_line(item.text);
        }
        let root = tracer.rec.enter(Layer::Request, ix);
        let response = tracer.serve(ix, item);
        tracer.rec.exit(root);
        wall += tracer.rec.spans[root].duration();
        responses.push(response);
        roots.push(root);
        if let (Some(plain), false) = (&mut plain, plain_first) {
            plain.serve_line(item.text);
        }
    }
    let bytes_peak = tracer.cache.shard_stats().iter().map(|s| s.peak_bytes).sum();
    let traced = Traced {
        responses,
        spans: tracer.rec.spans,
        roots,
        sections: items.iter().map(|i| i.section).collect(),
        wall,
        cache: tracer.cache.stats(),
        bytes_peak,
    };
    (traced, plain)
}

impl Tracer {
    fn serve(&mut self, ix: usize, item: &Item<'_>) -> String {
        let (parsed, _) = self.rec.timed(Layer::Parse, ix, || Request::parse_line(item.text));
        let request = parsed.expect("generated lines parse");
        let result = self.execute(ix, item, &request);
        self.rec.timed(Layer::Render, ix, || render(&request, result)).0
    }

    /// A cache call with its outcome read from the counters around it.
    fn cache_call<R>(
        &mut self,
        layer: Layer,
        ix: usize,
        call: impl FnOnce(&OracleCache) -> tcim_service::Result<R>,
        outcome: impl FnOnce(&CacheStats, &CacheStats, &R) -> (Outcome, u64),
    ) -> tcim_service::Result<R> {
        let before = self.cache.stats();
        let cache = &self.cache;
        let (out, span) = self.rec.timed(layer, ix, || call(cache));
        let after = self.cache.stats();
        if let Ok(value) = &out {
            let (kind, work) = outcome(&before, &after, value);
            self.rec.spans[span].outcome = kind;
            self.rec.spans[span].work = work;
        }
        out
    }

    fn execute(
        &mut self,
        ix: usize,
        item: &Item<'_>,
        request: &Request,
    ) -> Result<Output, ServiceError> {
        match &request.op {
            Op::Mutate { dataset, ops } => {
                let graph = self.cache_call(
                    Layer::Mutate,
                    ix,
                    |cache| cache.mutate(dataset, ops),
                    |_, _, _| (Outcome::None, ops.len() as u64),
                )?;
                return Ok(Output::Mutate(graph, ops.len()));
            }
            Op::Ping | Op::Stats | Op::Shutdown => {
                panic!("benchmark traffic never sends {}", request.op.label())
            }
            Op::Solve(_) | Op::Audit { .. } | Op::Estimate { .. } => {}
        }
        let spec = request.oracle.as_ref().expect("parsed query requests carry an oracle");
        let key = (spec.fingerprint(), self.cache.graph_version(&spec.dataset));
        if !self.resident.contains(&key) {
            self.cache_call(
                Layer::Graph,
                ix,
                |cache| cache.graph(&spec.dataset),
                |b, a, graph| {
                    if a.graph_misses > b.graph_misses {
                        (Outcome::Miss, graph.num_edges() as u64)
                    } else {
                        (Outcome::Hit, 0)
                    }
                },
            )?;
            if spec.model == ModelKind::LinearThreshold {
                self.cache_call(
                    Layer::Lt,
                    ix,
                    |cache| cache.lt_weights(&spec.dataset),
                    |b, a, _| (hit_or_miss(a.lt_misses > b.lt_misses), 0),
                )?;
            }
            if let EstimatorConfig::Worlds(config) = &spec.estimator {
                self.cache_call(
                    Layer::Worlds,
                    ix,
                    |cache| cache.worlds(&spec.dataset, spec.model, config),
                    |b, a, worlds| {
                        if a.world_patches > b.world_patches {
                            (Outcome::Patch, 0)
                        } else if a.world_misses > b.world_misses {
                            (Outcome::Miss, worlds.len() as u64)
                        } else {
                            (Outcome::Hit, 0)
                        }
                    },
                )?;
            }
        }
        let oracle = self.cache_call(
            Layer::Oracle,
            ix,
            |cache| cache.oracle(spec),
            |b, a, oracle| {
                let sets = match oracle.as_ref() {
                    Estimator::Ris(ris) => ris.num_sets() as u64,
                    _ => 0,
                };
                if a.ris_refreshes > b.ris_refreshes {
                    (Outcome::Refresh, 0)
                } else if a.oracle_misses > b.oracle_misses {
                    (Outcome::Miss, sets)
                } else {
                    (Outcome::Hit, 0)
                }
            },
        )?;
        self.rec.spans.last_mut().expect("the oracle span was just recorded").ris =
            matches!(oracle.as_ref(), Estimator::Ris(_));
        self.resident.insert(key);
        let oracle = oracle.as_ref();
        match &request.op {
            Op::Solve(spec) => {
                let (report, span) = self.rec.timed(Layer::Solve, ix, || solve(oracle, spec));
                let report = report?;
                self.rec.spans[span].work = report.gain_evaluations as u64;
                self.rec.spans[span].problem = item.problem;
                Ok(Output::Solve(report))
            }
            Op::Audit { seeds } => {
                let (report, _) =
                    self.rec.timed(Layer::Audit, ix, || audit_seed_set(oracle, seeds));
                Ok(Output::Audit(report?))
            }
            Op::Estimate { seeds } => {
                let (influence, _) = self.rec.timed(Layer::Evaluate, ix, || oracle.evaluate(seeds));
                Ok(Output::Estimate(influence.map_err(ServiceError::from)?))
            }
            _ => unreachable!("admin ops and mutations returned above"),
        }
    }
}

fn hit_or_miss(missed: bool) -> Outcome {
    if missed {
        Outcome::Miss
    } else {
        Outcome::Hit
    }
}

/// The response text, built the way `ServiceEngine::serve` builds it.
fn render(request: &Request, result: Result<Output, ServiceError>) -> String {
    let label = request.op.label();
    let response = match result {
        Ok(output) => ok_response(request.id.as_ref(), label, fields(output)),
        Err(err) => error_response(request.id.as_ref(), Some(label), &err.to_string()),
    };
    response.to_string()
}

fn f64_array(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn fields(output: Output) -> Vec<(String, Json)> {
    match output {
        Output::Mutate(graph, applied) => vec![
            ("graph_version".into(), Json::Num(graph.version() as f64)),
            ("nodes".into(), Json::Num(graph.num_nodes() as f64)),
            ("edges".into(), Json::Num(graph.num_edges() as f64)),
            ("applied".into(), Json::Num(applied as f64)),
        ],
        Output::Estimate(influence) => vec![
            ("influence".into(), f64_array(influence.values())),
            ("total".into(), Json::Num(influence.total())),
        ],
        Output::Audit(report) => vec![
            ("influence".into(), f64_array(&report.raw_utilities)),
            ("normalized".into(), f64_array(&report.normalized_utilities)),
            ("total".into(), Json::Num(report.total)),
            ("total_fraction".into(), Json::Num(report.total_fraction)),
            ("disparity".into(), Json::Num(report.disparity)),
            (
                "worst_off_group".into(),
                report.worst_off_group().map(|g| Json::Num(g.index() as f64)).unwrap_or(Json::Null),
            ),
        ],
        Output::Solve(report) => {
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
            if let Some(spec) = &report.spec {
                fields.push(("spec".into(), Json::from(spec.as_str())));
            }
            fields
        }
    }
}

/// The untraced replay: `ServiceEngine::serve` with no layer spans.
pub struct Untraced {
    engine: ServiceEngine,
    pub responses: Vec<String>,
    /// `serve` plus the response's JSON text, per line.
    pub serve: Vec<Duration>,
    /// Parse, serve and text over all lines.
    pub wall: Duration,
}

impl Untraced {
    /// An empty replay on a fresh engine.
    pub fn new() -> Untraced {
        Untraced {
            engine: ServiceEngine::new(ParallelismConfig::fixed(SERVER_THREADS)),
            responses: Vec::new(),
            serve: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    pub fn serve_line(&mut self, line: &str) {
        let start = now();
        let request = Request::parse_line(line).expect("generated lines parse");
        let served = now();
        self.responses.push(self.engine.serve(&request).to_string());
        self.serve.push(served.elapsed());
        self.wall += start.elapsed();
    }
}

/// How the traced replay's rendering of a line compares with the response
/// `ServiceEngine::serve` gave: `(differing, missing)` counts the fields
/// both carry with different values, and the fields of the rendering that
/// the response no longer has. Fields only the response has are not
/// counted, so a response that gains a field leaves the check intact.
pub fn compare_rendering(rendered: &str, served: &str) -> (usize, usize) {
    let (Ok(Json::Obj(rendered)), Ok(served)) = (Json::parse(rendered), Json::parse(served)) else {
        return (1, 0);
    };
    let (mut differing, mut missing) = (0, 0);
    for (key, value) in &rendered {
        match served.get(key) {
            Some(other) if other == value => {}
            Some(_) => differing += 1,
            None => missing += 1,
        }
    }
    (differing, missing)
}

/// Median round trip of a `ping` over one loopback connection to a fresh
/// server, in microseconds.
pub fn ping_rtt_us(pings: usize) -> Result<f64, String> {
    let engine = Arc::new(ServiceEngine::new(ParallelismConfig::fixed(SERVER_THREADS)));
    let server = crate::timed::start(engine)?;
    let mut client = crate::timed::LineClient::connect(server.addr)?;
    let mut response = String::new();
    let mut rtts = Vec::with_capacity(pings);
    for i in 0..pings {
        let line = format!(r#"{{"id":{i},"op":"ping"}}"#);
        let sent = now();
        client.call(&line, &mut response)?;
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    server.stop()?;
    Ok(crate::stats::median(&mut rtts))
}

/// Each span's self time: its duration minus what its direct children
/// cover (children of one span never overlap in a serial replay).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration();
        }
    }
    own
}

/// The spans as JSON lines, one per span.
pub fn spans_jsonl(traced: &Traced) -> String {
    let mut out = String::new();
    for (ix, (span, own)) in traced.spans.iter().zip(self_times(&traced.spans)).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"span":{ix},"request":{},"name":"{}","parent":{parent},"start_us":{:.3},"end_us":{:.3},"self_us":{:.3},"outcome":"{}","work":{}}}"#,
            span.request,
            span.layer.name(),
            span.start.as_secs_f64() * 1e6,
            span.end.as_secs_f64() * 1e6,
            own.as_secs_f64() * 1e6,
            span.outcome.name(),
            span.work
        );
    }
    out
}
