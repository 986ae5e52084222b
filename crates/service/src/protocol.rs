//! The JSONL request/response protocol of the campaign-serving subsystem —
//! a direct wire codec for [`ProblemSpec`].
//!
//! One request per line, one response per line, in request order. A request
//! names an oracle — dataset, model, deadline, estimator — plus an operation.
//! Solve operations decode **directly into a `ProblemSpec`** and are executed
//! by `tcim_core::solve`; there is no per-op argument mapping anywhere in the
//! service:
//!
//! ```text
//! {"id":1,"op":"solve_budget","dataset":"synthetic","deadline":5,"budget":10,"fair":true}
//! {"id":2,"op":"solve_cover","dataset":"synthetic","deadline":5,"quota":0.2,"fair":true}
//! {"id":3,"op":"solve_budget","dataset":"synthetic","deadline":5,"budget":10,"disparity_cap":0.2}
//! {"id":4,"op":"audit","dataset":"synthetic","deadline":5,"seeds":[4,17]}
//! {"id":5,"op":"estimate","dataset":"synthetic","deadline":5,"seeds":[4,17]}
//! {"id":6,"op":"ping"}
//! {"id":7,"op":"stats"}
//! {"id":8,"op":"shutdown"}
//! ```
//!
//! The last three are **serving-tier ops**: they carry no oracle (only `id`
//! and `op` are legal fields — anything else is rejected by name). `ping`
//! answers with [`PROTOCOL_VERSION`] and build info, `stats` with the typed
//! [`ServerStats`](crate::stats::ServerStats) snapshot, and `shutdown` asks a
//! socket server to drain and exit (a batch run just acknowledges it).
//!
//! Fields and defaults (spec mapping in parentheses):
//!
//! | field | meaning | default |
//! |-------|---------|---------|
//! | `id` | opaque string/number echoed into the response | absent |
//! | `op` | `solve_budget` \| `solve_cover` \| `audit` \| `estimate` | required |
//! | `dataset` | registry name (`synthetic`, `illustrative`, …) | required unless `scenario` |
//! | `scenario` | inline [`ScenarioSpec`] object (`{"family":"sbm",...}` or `{"preset":"ba-hubs"}`; see [`scenario_from_json`]) | — |
//! | `dataset_seed` | surrogate / scenario generator seed | `42` |
//! | `model` | `ic` \| `lt` | `ic` |
//! | `deadline` | number of steps, or `"inf"` (`ProblemSpec::deadline`) | `"inf"` |
//! | `estimator` | `worlds` \| `monte-carlo` \| `ris` (`ProblemSpec::estimator`) | `worlds` |
//! | `samples` | worlds / cascades / RR sets | `200` (`10000` for `ris`) |
//! | `estimator_seed` | estimation RNG seed | `0` |
//! | `budget` | max seeds (`Objective::Budget`) | required for `solve_budget` |
//! | `quota` | coverage quota `Q` (`Objective::Cover`) | required for `solve_cover` |
//! | `tolerance` | quota slack (`Objective::Cover`) | `0` |
//! | `max_seeds` | seed cap (`Objective::Cover`) | none |
//! | `fair` | fair variant: `FairnessMode::Concave` (budget) / `GroupQuota` (cover) | `false` |
//! | `wrapper` | `log` \| `sqrt` \| `identity` \| `pow<p>` (requires `fair`) | `log` |
//! | `weights` | per-group multipliers `λ_i` (requires `fair`, budget) | all `1` |
//! | `group` | single-group cover (`GroupQuota { group }`; conflicts with `fair`) | none |
//! | `disparity_cap` | P3/P5 cap (`FairnessMode::Constrained`; conflicts with `fair`/`group`) | none |
//! | `algorithm` | `lazy` \| `greedy` \| `stochastic` (budget only; `ProblemSpec::algorithm`) | `lazy` |
//! | `epsilon` | stochastic-greedy accuracy (requires `algorithm:"stochastic"`) | required then |
//! | `algorithm_seed` | stochastic-greedy RNG seed | `0` |
//! | `candidates` | candidate node pool | all nodes |
//! | `seeds` | seed set (`audit` / `estimate`) | required |
//!
//! Unknown fields are rejected (a typoed `budgett` must not silently solve
//! with the default), with the offending name in the error; so are
//! conflicting fairness fields (`fair` + `disparity_cap`, …). Responses echo
//! `id` and `op`, carry `"ok": true` plus result fields — including the
//! canonical `"spec"` string of the solved `ProblemSpec`, so every response
//! is self-describing — or `"ok": false` plus `"error"`. A line that fails
//! to parse still correlates: [`Request::parse_line_correlated`] salvages a
//! well-typed `id` from the broken line, and [`error_response_at`] echoes it
//! together with a structured `"line"` number (input line in batch mode,
//! per-connection request ordinal in socket mode). Query responses are a
//! pure function of the request — never of cache temperature or thread
//! count — which is what makes golden-file diffing in CI meaningful
//! (`stats` is the deliberate exception: it reports load, so it never
//! appears in golden files).
//!
//! The complete wire reference, including the inline `scenario` object
//! grammar, lives in `docs/PROTOCOL.md` at the repository root.
//!
//! [`ProblemSpec`]: tcim_core::ProblemSpec
//! [`ScenarioSpec`]: tcim_datasets::ScenarioSpec

use tcim_core::{
    ConcaveWrapper, EstimatorConfig, FairnessMode, GreedyAlgorithm, Objective, ProblemSpec,
    RisConfig, WorldsConfig,
};
use tcim_datasets::{Dataset, GeneratorFamily, GroupModel, ScenarioSpec, WeightModel};
use tcim_diffusion::Deadline;
use tcim_graph::{GroupId, MutationOp, NodeId};

use crate::cache::{DatasetSpec, ModelKind, OracleSpec};
use crate::error::{Result, ServiceError};
use crate::minijson::Json;

/// Version of the wire protocol, reported by `{"op":"ping"}`. Bumped when
/// the request/response grammar changes incompatibly (v2 added the
/// serving-tier ops and the structured `"line"` error field; v3 added the
/// `mutate` op and graph versioning).
pub const PROTOCOL_VERSION: u32 = 3;

/// One operation against an oracle (or against the serving tier itself).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A spec-driven solve (P1–P6); the op name on the wire follows the
    /// spec's objective (`solve_budget` / `solve_cover`).
    Solve(ProblemSpec),
    /// Fairness audit of an explicit seed set.
    Audit {
        /// The seed set to audit.
        seeds: Vec<NodeId>,
    },
    /// Raw influence estimate of an explicit seed set.
    Estimate {
        /// The seed set to evaluate.
        seeds: Vec<NodeId>,
    },
    /// Apply edge mutations to a dataset's graph, advancing its
    /// `graph_version` (see `OracleCache::mutate`). Carries the dataset
    /// directly instead of an oracle — a mutation is about the graph, not
    /// any particular estimator. Wire ops:
    /// `{"add":[u,v],"p":0.5}` / `{"remove":[u,v]}` /
    /// `{"reweight":[u,v],"p":0.2}`.
    Mutate {
        /// Which graph to mutate.
        dataset: DatasetSpec,
        /// The edits, applied in order as one version step.
        ops: Vec<MutationOp>,
    },
    /// Serving-tier telemetry: the typed `ServerStats` snapshot (request
    /// counts, p50/p99 latency, cache hit rates, connection gauges).
    Stats,
    /// Liveness probe: protocol version + build info.
    Ping,
    /// Ask a socket server to stop accepting, drain in-flight work and exit
    /// cleanly. Batch mode acknowledges it as a no-op.
    Shutdown,
}

/// Ops that address the serving tier rather than an oracle: they carry no
/// dataset/model/estimator fields, and only `id` + `op` are legal.
const ADMIN_OPS: &[&str] = &["stats", "ping", "shutdown"];

impl Op {
    /// The protocol name of the operation.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Solve(spec) => match spec.objective {
                Objective::Budget { .. } => "solve_budget",
                Objective::Cover { .. } => "solve_cover",
            },
            Op::Audit { .. } => "audit",
            Op::Estimate { .. } => "estimate",
            Op::Mutate { .. } => "mutate",
            Op::Stats => "stats",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        }
    }

    /// Whether the op addresses the serving tier (no oracle involved).
    pub fn is_admin(&self) -> bool {
        matches!(self, Op::Stats | Op::Ping | Op::Shutdown)
    }
}

/// One parsed request: an operation plus, for query ops, the oracle spec
/// that serves it. For solve operations the oracle spec is *derived from*
/// the `ProblemSpec` (deadline and estimator), so the cache key is a pure
/// function of the spec. Serving-tier ops (`stats`, `ping`, `shutdown`)
/// carry no oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Opaque id echoed into the response (string or number).
    pub id: Option<Json>,
    /// Which oracle serves the request (`None` for serving-tier ops).
    pub oracle: Option<OracleSpec>,
    /// What to compute.
    pub op: Op,
}

/// Fields every request may carry; op-specific fields are checked per op.
const COMMON_FIELDS: &[&str] = &[
    "id",
    "op",
    "dataset",
    "scenario",
    "dataset_seed",
    "model",
    "deadline",
    "estimator",
    "estimator_seed",
    "samples",
];

/// Fields an inline `"scenario"` object may carry (family knobs are
/// cross-checked against the declared family).
const SCENARIO_FIELDS: &[&str] = &[
    "preset",
    "family",
    "nodes",
    "p_within",
    "p_across",
    "edges_per_node",
    "homophily_bias",
    "neighbors",
    "rewire_probability",
    "majority_fraction",
    "group_fractions",
    "weights",
    "edge_probability",
];

fn op_fields(op: &str) -> &'static [&'static str] {
    match op {
        "solve_budget" => &[
            "budget",
            "fair",
            "wrapper",
            "weights",
            "candidates",
            "disparity_cap",
            "algorithm",
            "epsilon",
            "algorithm_seed",
        ],
        "solve_cover" => &[
            "quota",
            "tolerance",
            "max_seeds",
            "fair",
            "group",
            "candidates",
            "disparity_cap",
            "algorithm",
            "epsilon",
            "algorithm_seed",
        ],
        "audit" | "estimate" => &["seeds"],
        _ => &[],
    }
}

/// Maps a `CoreError` raised while assembling a spec from request fields to
/// a bad-request error (the message already names the field).
fn spec_error(err: tcim_core::CoreError) -> ServiceError {
    ServiceError::bad_request(err.to_string())
}

impl Request {
    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a bad-request error naming the malformed or unknown field.
    pub fn parse_line(line: &str) -> Result<Request> {
        let value = Json::parse(line)
            .map_err(|err| ServiceError::bad_request(format!("invalid JSON: {err}")))?;
        Request::from_json(&value)
    }

    /// Builds a `mutate` request programmatically — the builder-side twin
    /// of the `{"op":"mutate",...}` wire line, used by the churn harness and
    /// `tcim_diffcheck` to drive graph versions without formatting JSON.
    pub fn mutate(id: Option<Json>, dataset: DatasetSpec, ops: Vec<MutationOp>) -> Request {
        Request { id, oracle: None, op: Op::Mutate { dataset, ops } }
    }

    /// Parses one JSONL line, salvaging the request's `id` when the line is
    /// valid JSON carrying a well-typed id but fails request validation —
    /// so error responses for pipelined batches can still be correlated
    /// (pass the salvaged id to [`error_response_at`]).
    ///
    /// # Errors
    ///
    /// Returns `(salvaged id, error)`; the id is `None` when the line is not
    /// valid JSON or carries no usable id.
    pub fn parse_line_correlated(
        line: &str,
    ) -> std::result::Result<Request, (Option<Json>, ServiceError)> {
        let value = Json::parse(line)
            .map_err(|err| (None, ServiceError::bad_request(format!("invalid JSON: {err}"))))?;
        let id = value.get("id").filter(|id| matches!(id, Json::Str(_) | Json::Num(_))).cloned();
        Request::from_json(&value).map_err(|err| (id, err))
    }

    /// Parses a request from an already-decoded JSON object.
    ///
    /// # Errors
    ///
    /// Returns a bad-request error naming the malformed, unknown or
    /// conflicting field.
    pub fn from_json(value: &Json) -> Result<Request> {
        let Some(members) = value.as_obj() else {
            return Err(ServiceError::bad_request("request must be a JSON object"));
        };
        let op_name = required_str(value, "op")?;
        if ADMIN_OPS.contains(&op_name) {
            // Serving-tier ops carry no oracle: everything except `id` is
            // rejected by name, same convention as unknown query fields.
            for (key, _) in members {
                if key != "id" && key != "op" {
                    return Err(ServiceError::bad_request(format!(
                        "unknown field '{key}' for op '{op_name}' (serving-tier ops take only \
                         'id')"
                    )));
                }
            }
            let op = match op_name {
                "stats" => Op::Stats,
                "ping" => Op::Ping,
                _ => Op::Shutdown,
            };
            return Ok(Request { id: validated_id(value)?, oracle: None, op });
        }
        if op_name == "mutate" {
            // Mutations address a graph, not an oracle: model / deadline /
            // estimator fields are rejected by name like any other field
            // that cannot apply.
            const MUTATE_FIELDS: &[&str] =
                &["id", "op", "dataset", "scenario", "dataset_seed", "ops"];
            for (key, _) in members {
                if !MUTATE_FIELDS.contains(&key.as_str()) {
                    return Err(ServiceError::bad_request(format!(
                        "unknown field '{key}' for op 'mutate' (mutations take only a dataset \
                         and 'ops')"
                    )));
                }
            }
            let dataset = parse_dataset(value)?;
            let ops = mutation_ops_from_json(value)?;
            return Ok(Request {
                id: validated_id(value)?,
                oracle: None,
                op: Op::Mutate { dataset, ops },
            });
        }
        let allowed = op_fields(op_name);
        if allowed.is_empty() {
            return Err(ServiceError::bad_request(format!(
                "unknown op '{op_name}' (expected solve_budget, solve_cover, audit, estimate, \
                 mutate, stats, ping or shutdown)"
            )));
        }
        for (key, _) in members {
            if !COMMON_FIELDS.contains(&key.as_str()) && !allowed.contains(&key.as_str()) {
                return Err(ServiceError::bad_request(format!(
                    "unknown field '{key}' for op '{op_name}'"
                )));
            }
        }

        let (dataset, model, deadline, estimator) = parse_oracle(value)?;
        let op = match op_name {
            "solve_budget" | "solve_cover" => {
                Op::Solve(spec_from_json(op_name, value, deadline, estimator.clone())?)
            }
            "audit" => Op::Audit {
                seeds: optional_node_array(value, "seeds")?
                    .ok_or_else(|| missing("seeds", "audit"))?,
            },
            "estimate" => Op::Estimate {
                seeds: optional_node_array(value, "seeds")?
                    .ok_or_else(|| missing("seeds", "estimate"))?,
            },
            #[expect(
                clippy::unreachable,
                reason = "the op string was matched against this same list above"
            )]
            _ => unreachable!("op validated above"),
        };
        Ok(Request {
            id: validated_id(value)?,
            oracle: Some(OracleSpec { dataset, model, deadline, estimator }),
            op,
        })
    }

    /// Renders the request back to its protocol form (used by `tcim_query`
    /// to show what it sent, and in tests for round-tripping). Parsing the
    /// rendered form yields the request back, spec included.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            members.push(("id".into(), id.clone()));
        }
        members.push(("op".into(), Json::from(self.op.label())));
        // Mutations carry a dataset but no oracle.
        if let Op::Mutate { dataset, ops } = &self.op {
            match &dataset.dataset {
                Dataset::Scenario(spec) => {
                    members.push(("scenario".into(), scenario_to_json(spec)));
                }
                named => members.push(("dataset".into(), Json::from(named.name()))),
            }
            members.push(("dataset_seed".into(), Json::Num(dataset.seed as f64)));
            members.push(("ops".into(), mutation_ops_to_json(ops)));
            return Json::Obj(members);
        }
        // Serving-tier ops render as the bare header — they carry no oracle.
        let Some(oracle) = &self.oracle else {
            return Json::Obj(members);
        };
        match &oracle.dataset.dataset {
            Dataset::Scenario(spec) => {
                members.push(("scenario".into(), scenario_to_json(spec)));
            }
            named => members.push(("dataset".into(), Json::from(named.name()))),
        }
        members.push(("dataset_seed".into(), Json::Num(oracle.dataset.seed as f64)));
        members.push(("model".into(), Json::from(oracle.model.label())));
        members.push((
            "deadline".into(),
            match oracle.deadline.horizon() {
                Some(tau) => Json::Num(tau as f64),
                None => Json::from("inf"),
            },
        ));
        let (estimator, samples, seed) = match &oracle.estimator {
            EstimatorConfig::Worlds(w) => ("worlds", w.num_worlds, w.seed),
            EstimatorConfig::MonteCarlo { samples, seed } => ("monte-carlo", *samples, *seed),
            EstimatorConfig::Ris(r) => ("ris", r.num_sets, r.seed),
        };
        members.push(("estimator".into(), Json::from(estimator)));
        members.push(("samples".into(), Json::Num(samples as f64)));
        members.push(("estimator_seed".into(), Json::Num(seed as f64)));
        match &self.op {
            Op::Solve(spec) => members.extend(spec_to_members(spec)),
            Op::Audit { seeds } | Op::Estimate { seeds } => {
                members.push(("seeds".into(), nodes_to_json(seeds)));
            }
            Op::Stats | Op::Ping | Op::Shutdown => {}
            #[expect(clippy::unreachable, reason = "mutations returned early above")]
            Op::Mutate { .. } => unreachable!("mutations rendered above"),
        }
        Json::Obj(members)
    }
}

fn validated_id(value: &Json) -> Result<Option<Json>> {
    let id = value.get("id").cloned();
    if let Some(id) = &id {
        if !matches!(id, Json::Str(_) | Json::Num(_)) {
            return Err(ServiceError::bad_request("field 'id' must be a string or number"));
        }
    }
    Ok(id)
}

/// Decodes the problem half of a solve request into a validated
/// [`ProblemSpec`] — the minijson → spec direction of the codec.
///
/// # Errors
///
/// Returns a bad-request error naming the malformed, missing or conflicting
/// field.
pub fn spec_from_json(
    op_name: &str,
    value: &Json,
    deadline: Deadline,
    estimator: EstimatorConfig,
) -> Result<ProblemSpec> {
    let mut spec = match op_name {
        "solve_budget" => {
            ProblemSpec::budget(required_usize(value, "budget")?).map_err(spec_error)?
        }
        "solve_cover" => {
            let mut spec = ProblemSpec::cover(required_f64(value, "quota")?).map_err(spec_error)?;
            if let Some(tolerance) = optional_f64(value, "tolerance")? {
                spec = spec.with_tolerance(tolerance).map_err(spec_error)?;
            }
            if let Some(cap) = optional_usize(value, "max_seeds")? {
                spec = spec.with_max_seeds(cap).map_err(spec_error)?;
            }
            spec
        }
        other => {
            return Err(ServiceError::bad_request(format!("op '{other}' does not carry a spec")))
        }
    };

    // Fairness: `fair`, `group` and `disparity_cap` are mutually exclusive
    // selectors; `wrapper`/`weights` refine `fair` on budgets.
    let fair = optional_bool(value, "fair")?.unwrap_or(false);
    let group = optional_usize(value, "group")?;
    let disparity_cap = optional_f64(value, "disparity_cap")?;
    for (clash, field, other) in [
        (fair && disparity_cap.is_some(), "disparity_cap", "fair"),
        (fair && group.is_some(), "group", "fair"),
        (group.is_some() && disparity_cap.is_some(), "disparity_cap", "group"),
    ] {
        if clash {
            return Err(ServiceError::bad_request(format!(
                "field '{field}' conflicts with '{other}'"
            )));
        }
    }
    if !fair {
        for field in ["wrapper", "weights"] {
            if value.get(field).is_some() {
                return Err(ServiceError::bad_request(format!(
                    "field '{field}' requires \"fair\":true"
                )));
            }
        }
    }
    let fairness = if let Some(cap) = disparity_cap {
        Some(FairnessMode::Constrained { disparity_cap: cap })
    } else if let Some(g) = group {
        let g = u32::try_from(g)
            .map_err(|_| ServiceError::bad_request("field 'group' is out of range"))?;
        Some(FairnessMode::GroupQuota { group: Some(GroupId(g)) })
    } else if fair {
        Some(match spec.objective {
            Objective::Budget { .. } => FairnessMode::Concave {
                wrapper: parse_wrapper(value)?,
                weights: optional_f64_array(value, "weights")?,
            },
            Objective::Cover { .. } => FairnessMode::GroupQuota { group: None },
        })
    } else {
        None
    };
    if let Some(fairness) = fairness {
        spec = spec.with_fairness(fairness).map_err(spec_error)?;
    }

    match optional_str(value, "algorithm")?.unwrap_or("lazy") {
        "lazy" => {}
        "greedy" => spec = spec.with_algorithm(GreedyAlgorithm::Greedy).map_err(spec_error)?,
        "stochastic" => {
            let epsilon = optional_f64(value, "epsilon")?.ok_or_else(|| {
                ServiceError::bad_request("algorithm 'stochastic' requires field 'epsilon'")
            })?;
            let seed = optional_u64(value, "algorithm_seed")?.unwrap_or(0);
            spec = spec
                .with_algorithm(GreedyAlgorithm::Stochastic { epsilon, seed })
                .map_err(spec_error)?;
        }
        other => {
            return Err(ServiceError::bad_request(format!(
                "unknown algorithm '{other}' (expected 'lazy', 'greedy' or 'stochastic')"
            )))
        }
    }
    if optional_str(value, "algorithm")?.unwrap_or("lazy") != "stochastic" {
        for field in ["epsilon", "algorithm_seed"] {
            if value.get(field).is_some() {
                return Err(ServiceError::bad_request(format!(
                    "field '{field}' requires algorithm 'stochastic'"
                )));
            }
        }
    }

    if let Some(candidates) = optional_node_array(value, "candidates")? {
        spec = spec.with_candidates(candidates).map_err(spec_error)?;
    }
    Ok(spec.with_deadline(deadline).with_estimator(estimator))
}

/// Encodes the problem half of a spec as wire fields — the spec → minijson
/// direction of the codec. `spec_from_json` over the rendered fields yields
/// the spec back (given the same oracle fields).
pub fn spec_to_members(spec: &ProblemSpec) -> Vec<(String, Json)> {
    let mut members: Vec<(String, Json)> = Vec::new();
    match &spec.objective {
        Objective::Budget { budget } => {
            members.push(("budget".into(), Json::Num(*budget as f64)));
        }
        Objective::Cover { quota, tolerance, max_seeds } => {
            members.push(("quota".into(), Json::Num(*quota)));
            if *tolerance != 0.0 {
                members.push(("tolerance".into(), Json::Num(*tolerance)));
            }
            if let Some(cap) = max_seeds {
                members.push(("max_seeds".into(), Json::Num(*cap as f64)));
            }
        }
    }
    match &spec.fairness {
        FairnessMode::Total => members.push(("fair".into(), Json::Bool(false))),
        FairnessMode::Concave { wrapper, weights } => {
            members.push(("fair".into(), Json::Bool(true)));
            let name = match wrapper {
                // Full-precision power rendering (the display label rounds to
                // two decimals, which would make the codec lossy).
                ConcaveWrapper::Power(p) => format!("pow{p}"),
                other => other.label(),
            };
            members.push(("wrapper".into(), Json::Str(name)));
            if let Some(weights) = weights {
                members.push((
                    "weights".into(),
                    Json::Arr(weights.iter().map(|&w| Json::Num(w)).collect()),
                ));
            }
        }
        FairnessMode::GroupQuota { group: None } => {
            members.push(("fair".into(), Json::Bool(true)));
        }
        FairnessMode::GroupQuota { group: Some(g) } => {
            members.push(("group".into(), Json::Num(g.0 as f64)));
        }
        FairnessMode::Constrained { disparity_cap } => {
            members.push(("disparity_cap".into(), Json::Num(*disparity_cap)));
        }
    }
    match spec.algorithm {
        GreedyAlgorithm::Lazy => {}
        GreedyAlgorithm::Greedy => {
            members.push(("algorithm".into(), Json::from("greedy")));
        }
        GreedyAlgorithm::Stochastic { epsilon, seed } => {
            members.push(("algorithm".into(), Json::from("stochastic")));
            members.push(("epsilon".into(), Json::Num(epsilon)));
            members.push(("algorithm_seed".into(), Json::Num(seed as f64)));
        }
    }
    if let Some(candidates) = &spec.candidates {
        members.push(("candidates".into(), nodes_to_json(candidates)));
    }
    members
}

/// Builds a success response: `id`/`op` header plus the result fields.
pub fn ok_response(id: Option<&Json>, op: &str, fields: Vec<(String, Json)>) -> Json {
    let mut members: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        members.push(("id".into(), id.clone()));
    }
    members.push(("op".into(), Json::from(op)));
    members.push(("ok".into(), Json::Bool(true)));
    members.extend(fields);
    Json::Obj(members)
}

/// Builds an error response echoing whatever identifying context is known.
pub fn error_response(id: Option<&Json>, op: Option<&str>, message: &str) -> Json {
    let mut members: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        members.push(("id".into(), id.clone()));
    }
    if let Some(op) = op {
        members.push(("op".into(), Json::from(op)));
    }
    members.push(("ok".into(), Json::Bool(false)));
    members.push(("error".into(), Json::from(message)));
    Json::Obj(members)
}

/// Builds an error response for a line that failed to parse, echoing the
/// salvaged `id` (see [`Request::parse_line_correlated`]) and the structured
/// `"line"` position — the absolute input line in batch mode, the
/// per-connection request ordinal (1-based) in socket mode — so pipelined
/// clients can correlate failures without counting slots.
pub fn error_response_at(id: Option<&Json>, line: Option<u64>, message: &str) -> Json {
    let mut members: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        members.push(("id".into(), id.clone()));
    }
    if let Some(line) = line {
        members.push(("line".into(), Json::Num(line as f64)));
    }
    members.push(("ok".into(), Json::Bool(false)));
    members.push(("error".into(), Json::from(message)));
    Json::Obj(members)
}

/// The result fields of a `ping` response: protocol version, crate name and
/// version, and the full op list — deterministic per build, so clients can
/// use it for liveness *and* capability discovery.
pub fn ping_fields() -> Vec<(String, Json)> {
    vec![
        ("protocol".into(), Json::Num(PROTOCOL_VERSION as f64)),
        ("service".into(), Json::from("tcim-service")),
        ("version".into(), Json::from(env!("CARGO_PKG_VERSION"))),
        (
            "ops".into(),
            Json::Arr(
                [
                    "solve_budget",
                    "solve_cover",
                    "audit",
                    "estimate",
                    "mutate",
                    "stats",
                    "ping",
                    "shutdown",
                ]
                .iter()
                .map(|&op| Json::from(op))
                .collect(),
            ),
        ),
    ]
}

/// Renders a node array.
pub fn nodes_to_json(nodes: &[NodeId]) -> Json {
    Json::Arr(nodes.iter().map(|n| Json::Num(n.0 as f64)).collect())
}

/// Decodes an inline `"scenario"` object into a validated [`ScenarioSpec`] —
/// the minijson → spec direction of the scenario codec. Accepts either a
/// lone `{"preset": "name"}` or a full description:
///
/// ```text
/// {"family":"sbm","nodes":500,"p_within":0.025,"p_across":0.001,
///  "majority_fraction":0.7,"weights":"uniform","edge_probability":0.05}
/// ```
///
/// # Errors
///
/// Returns a bad-request error naming the malformed, unknown, missing or
/// conflicting field (family knobs are rejected on the wrong family).
pub fn scenario_from_json(value: &Json) -> Result<ScenarioSpec> {
    let Some(members) = value.as_obj() else {
        return Err(ServiceError::bad_request("field 'scenario' must be a JSON object"));
    };
    for (key, _) in members {
        if !SCENARIO_FIELDS.contains(&key.as_str()) {
            return Err(ServiceError::bad_request(format!("unknown scenario field '{key}'")));
        }
    }
    if let Some(preset) = value.get("preset") {
        let name = preset
            .as_str()
            .ok_or_else(|| ServiceError::bad_request("scenario field 'preset' must be a string"))?;
        if members.len() > 1 {
            return Err(ServiceError::bad_request(
                "scenario field 'preset' must be the only scenario field",
            ));
        }
        return ScenarioSpec::preset(name).ok_or_else(|| {
            ServiceError::bad_request(format!(
                "unknown scenario preset '{name}' (expected one of: {})",
                ScenarioSpec::PRESET_NAMES.join(", ")
            ))
        });
    }

    let family_name = required_str(value, "family")?;
    let (family, family_knobs): (GeneratorFamily, &[&str]) = match family_name {
        "sbm" => (
            GeneratorFamily::Sbm {
                p_within: required_f64(value, "p_within")?,
                p_across: required_f64(value, "p_across")?,
            },
            &["p_within", "p_across"],
        ),
        "barabasi-albert" => (
            GeneratorFamily::BarabasiAlbert {
                edges_per_node: required_usize(value, "edges_per_node")?,
                homophily_bias: optional_f64(value, "homophily_bias")?.unwrap_or(1.0),
            },
            &["edges_per_node", "homophily_bias"],
        ),
        "watts-strogatz" => (
            GeneratorFamily::WattsStrogatz {
                neighbors: required_usize(value, "neighbors")?,
                rewire_probability: required_f64(value, "rewire_probability")?,
            },
            &["neighbors", "rewire_probability"],
        ),
        other => {
            return Err(ServiceError::bad_request(format!(
                "unknown scenario family '{other}' (expected 'sbm', 'barabasi-albert' or \
                 'watts-strogatz')"
            )))
        }
    };
    for knob in [
        "p_within",
        "p_across",
        "edges_per_node",
        "homophily_bias",
        "neighbors",
        "rewire_probability",
    ] {
        if value.get(knob).is_some() && !family_knobs.contains(&knob) {
            return Err(ServiceError::bad_request(format!(
                "scenario field '{knob}' does not apply to family '{family_name}'"
            )));
        }
    }

    let groups = match (
        optional_f64(value, "majority_fraction")?,
        optional_f64_array(value, "group_fractions")?,
    ) {
        (Some(_), Some(_)) => {
            return Err(ServiceError::bad_request(
                "field 'group_fractions' conflicts with 'majority_fraction'",
            ))
        }
        (Some(majority_fraction), None) => GroupModel::MajorityMinority { majority_fraction },
        (None, Some(fractions)) => GroupModel::Fractions(fractions),
        (None, None) => GroupModel::MajorityMinority { majority_fraction: 0.7 },
    };

    let weights = match optional_str(value, "weights")?.unwrap_or("uniform") {
        "uniform" => {
            WeightModel::UniformIc { p: optional_f64(value, "edge_probability")?.unwrap_or(0.05) }
        }
        name @ ("weighted-cascade" | "lt") => {
            if value.get("edge_probability").is_some() {
                return Err(ServiceError::bad_request(format!(
                    "field 'edge_probability' conflicts with weights '{name}' \
                     (degree-normalized weights have no per-edge probability)"
                )));
            }
            if name == "lt" {
                WeightModel::Lt
            } else {
                WeightModel::WeightedCascade
            }
        }
        other => {
            return Err(ServiceError::bad_request(format!(
                "unknown scenario weights '{other}' (expected 'uniform', 'weighted-cascade' or \
                 'lt')"
            )))
        }
    };

    let spec = ScenarioSpec { family, num_nodes: required_usize(value, "nodes")?, groups, weights };
    spec.validate().map_err(|err| ServiceError::bad_request(err.to_string()))?;
    Ok(spec)
}

/// Encodes a scenario as its full wire object — the spec → minijson
/// direction of the scenario codec. `scenario_from_json` over the rendered
/// object yields the spec back (presets render expanded).
pub fn scenario_to_json(spec: &ScenarioSpec) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("family".into(), Json::from(spec.family.label())),
        ("nodes".into(), Json::Num(spec.num_nodes as f64)),
    ];
    match &spec.family {
        GeneratorFamily::Sbm { p_within, p_across } => {
            members.push(("p_within".into(), Json::Num(*p_within)));
            members.push(("p_across".into(), Json::Num(*p_across)));
        }
        GeneratorFamily::BarabasiAlbert { edges_per_node, homophily_bias } => {
            members.push(("edges_per_node".into(), Json::Num(*edges_per_node as f64)));
            members.push(("homophily_bias".into(), Json::Num(*homophily_bias)));
        }
        GeneratorFamily::WattsStrogatz { neighbors, rewire_probability } => {
            members.push(("neighbors".into(), Json::Num(*neighbors as f64)));
            members.push(("rewire_probability".into(), Json::Num(*rewire_probability)));
        }
    }
    match &spec.groups {
        GroupModel::MajorityMinority { majority_fraction } => {
            members.push(("majority_fraction".into(), Json::Num(*majority_fraction)));
        }
        GroupModel::Fractions(fractions) => {
            members.push((
                "group_fractions".into(),
                Json::Arr(fractions.iter().map(|&f| Json::Num(f)).collect()),
            ));
        }
    }
    match &spec.weights {
        WeightModel::UniformIc { p } => {
            members.push(("weights".into(), Json::from("uniform")));
            members.push(("edge_probability".into(), Json::Num(*p)));
        }
        WeightModel::WeightedCascade => {
            members.push(("weights".into(), Json::from("weighted-cascade")));
        }
        WeightModel::Lt => {
            members.push(("weights".into(), Json::from("lt")));
        }
    }
    Json::Obj(members)
}

/// Decodes a `"ops"` array of edge mutations — the minijson → [`MutationOp`]
/// direction of the mutation codec. Each element carries exactly one of
/// `add` / `remove` / `reweight` holding a `[source, target]` pair, plus
/// `p` for the kinds that set a probability.
///
/// # Errors
///
/// Returns a bad-request error naming the malformed or inapplicable field.
pub fn mutation_ops_from_json(value: &Json) -> Result<Vec<MutationOp>> {
    let raw = value.get("ops").ok_or_else(|| missing("ops", "mutate"))?;
    let items = raw.as_arr().ok_or_else(|| {
        ServiceError::bad_request("field 'ops' must be an array of mutation objects")
    })?;
    if items.is_empty() {
        return Err(ServiceError::bad_request("field 'ops' must not be empty"));
    }
    items.iter().map(mutation_op_from_json).collect()
}

fn mutation_op_from_json(item: &Json) -> Result<MutationOp> {
    let Some(members) = item.as_obj() else {
        return Err(ServiceError::bad_request("each mutation must be a JSON object"));
    };
    for (key, _) in members {
        if !["add", "remove", "reweight", "p"].contains(&key.as_str()) {
            return Err(ServiceError::bad_request(format!("unknown mutation field '{key}'")));
        }
    }
    let mut kind = None;
    for name in ["add", "remove", "reweight"] {
        if item.get(name).is_some() {
            if kind.is_some() {
                return Err(ServiceError::bad_request(
                    "each mutation must carry exactly one of 'add', 'remove' or 'reweight'",
                ));
            }
            kind = Some(name);
        }
    }
    let Some(kind) = kind else {
        return Err(ServiceError::bad_request(
            "each mutation must carry exactly one of 'add', 'remove' or 'reweight'",
        ));
    };
    let endpoints = optional_node_array(item, kind)?.unwrap_or_default();
    let [source, target] = endpoints[..] else {
        return Err(ServiceError::bad_request(format!(
            "mutation field '{kind}' must be a [source, target] pair"
        )));
    };
    let p = optional_f64(item, "p")?;
    match (kind, p) {
        ("add", Some(p)) => Ok(MutationOp::AddEdge { source, target, probability: p }),
        ("reweight", Some(p)) => Ok(MutationOp::Reweight { source, target, probability: p }),
        ("remove", None) => Ok(MutationOp::RemoveEdge { source, target }),
        ("remove", Some(_)) => {
            Err(ServiceError::bad_request("mutation field 'p' does not apply to 'remove'"))
        }
        _ => Err(ServiceError::bad_request(format!("mutation '{kind}' requires field 'p'"))),
    }
}

/// Renders mutations back to their wire array — the [`MutationOp`] →
/// minijson direction. `mutation_ops_from_json` over the rendered array
/// yields the ops back.
pub fn mutation_ops_to_json(ops: &[MutationOp]) -> Json {
    Json::Arr(
        ops.iter()
            .map(|op| {
                let (source, target) = op.endpoints();
                let pair = Json::Arr(vec![Json::Num(source.0 as f64), Json::Num(target.0 as f64)]);
                let mut members = vec![(op.label().to_string(), pair)];
                match op {
                    MutationOp::AddEdge { probability, .. }
                    | MutationOp::Reweight { probability, .. } => {
                        members.push(("p".into(), Json::Num(*probability)));
                    }
                    MutationOp::RemoveEdge { .. } => {}
                }
                Json::Obj(members)
            })
            .collect(),
    )
}

type OracleParts = (DatasetSpec, ModelKind, Deadline, EstimatorConfig);

/// The dataset half of a request: a named registry dataset or an inline
/// scenario, plus the generation seed.
fn parse_dataset(value: &Json) -> Result<DatasetSpec> {
    let dataset_seed = optional_u64(value, "dataset_seed")?.unwrap_or(42);
    match (value.get("dataset"), value.get("scenario")) {
        (Some(_), Some(_)) => {
            Err(ServiceError::bad_request("field 'scenario' conflicts with 'dataset'"))
        }
        (Some(_), None) => DatasetSpec::parse(required_str(value, "dataset")?, dataset_seed),
        (None, Some(scenario)) => Ok(DatasetSpec {
            dataset: Dataset::Scenario(scenario_from_json(scenario)?),
            seed: dataset_seed,
        }),
        (None, None) => Err(ServiceError::bad_request(
            "missing required field 'dataset' (name a registry dataset, or inline a \
             'scenario' object)",
        )),
    }
}

fn parse_oracle(value: &Json) -> Result<OracleParts> {
    let dataset = parse_dataset(value)?;
    let model = match value.get("model") {
        None => ModelKind::IndependentCascade,
        Some(m) => ModelKind::parse(m.as_str().ok_or_else(|| {
            ServiceError::bad_request("field 'model' must be a string ('ic' or 'lt')")
        })?)?,
    };
    let deadline = match value.get("deadline") {
        None => Deadline::unbounded(),
        Some(Json::Str(s)) if s == "inf" => Deadline::unbounded(),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
            Deadline::finite(*n as u32)
        }
        Some(other) => {
            return Err(ServiceError::bad_request(format!(
                "field 'deadline' must be a non-negative integer or \"inf\", got {other}"
            )))
        }
    };
    let estimator_seed = optional_u64(value, "estimator_seed")?.unwrap_or(0);
    let estimator_name = match value.get("estimator") {
        None => "worlds",
        Some(e) => e.as_str().ok_or_else(|| {
            ServiceError::bad_request(
                "field 'estimator' must be a string ('worlds', 'monte-carlo' or 'ris')",
            )
        })?,
    };
    let samples = optional_usize(value, "samples")?;
    let estimator = match estimator_name {
        "worlds" => EstimatorConfig::Worlds(WorldsConfig {
            num_worlds: samples.unwrap_or(200),
            seed: estimator_seed,
            ..Default::default()
        }),
        "monte-carlo" => {
            EstimatorConfig::MonteCarlo { samples: samples.unwrap_or(200), seed: estimator_seed }
        }
        "ris" => EstimatorConfig::Ris(RisConfig {
            num_sets: samples.unwrap_or(10_000),
            seed: estimator_seed,
            ..Default::default()
        }),
        other => {
            return Err(ServiceError::bad_request(format!(
                "unknown estimator '{other}' (expected 'worlds', 'monte-carlo' or 'ris')"
            )))
        }
    };
    Ok((dataset, model, deadline, estimator))
}

fn parse_wrapper(value: &Json) -> Result<ConcaveWrapper> {
    let Some(raw) = value.get("wrapper") else { return Ok(ConcaveWrapper::Log) };
    let name = raw.as_str().ok_or_else(|| {
        ServiceError::bad_request(
            "field 'wrapper' must be a string ('log', 'sqrt', 'identity' or 'pow<p>')",
        )
    })?;
    match name {
        "log" => Ok(ConcaveWrapper::Log),
        "sqrt" => Ok(ConcaveWrapper::Sqrt),
        "identity" => Ok(ConcaveWrapper::Identity),
        other => {
            if let Some(exponent) = other.strip_prefix("pow") {
                let p: f64 = exponent.parse().map_err(|_| {
                    ServiceError::bad_request(format!(
                        "bad wrapper exponent in '{other}' (expected e.g. 'pow0.5')"
                    ))
                })?;
                let wrapper = ConcaveWrapper::Power(p);
                if !wrapper.is_valid() {
                    return Err(ServiceError::bad_request(format!(
                        "wrapper exponent {p} must lie in (0, 1]"
                    )));
                }
                Ok(wrapper)
            } else {
                Err(ServiceError::bad_request(format!(
                    "unknown wrapper '{other}' (expected 'log', 'sqrt', 'identity' or 'pow<p>')"
                )))
            }
        }
    }
}

fn missing(field: &str, op: &str) -> ServiceError {
    ServiceError::bad_request(format!("op '{op}' requires field '{field}'"))
}

fn required_str<'a>(value: &'a Json, field: &str) -> Result<&'a str> {
    value
        .get(field)
        .ok_or_else(|| ServiceError::bad_request(format!("missing required field '{field}'")))?
        .as_str()
        .ok_or_else(|| ServiceError::bad_request(format!("field '{field}' must be a string")))
}

fn optional_str<'a>(value: &'a Json, field: &str) -> Result<Option<&'a str>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ServiceError::bad_request(format!("field '{field}' must be a string"))),
    }
}

fn required_f64(value: &Json, field: &str) -> Result<f64> {
    value
        .get(field)
        .ok_or_else(|| ServiceError::bad_request(format!("missing required field '{field}'")))?
        .as_f64()
        .ok_or_else(|| ServiceError::bad_request(format!("field '{field}' must be a number")))
}

fn optional_f64(value: &Json, field: &str) -> Result<Option<f64>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            ServiceError::bad_request(format!("field '{field}' must be a number, got {v}"))
        }),
    }
}

fn required_usize(value: &Json, field: &str) -> Result<usize> {
    optional_usize(value, field)?
        .ok_or_else(|| ServiceError::bad_request(format!("missing required field '{field}'")))
}

fn optional_usize(value: &Json, field: &str) -> Result<Option<usize>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
            ServiceError::bad_request(format!(
                "field '{field}' must be a non-negative integer, got {v}"
            ))
        }),
    }
}

fn optional_u64(value: &Json, field: &str) -> Result<Option<u64>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServiceError::bad_request(format!(
                "field '{field}' must be a non-negative integer, got {v}"
            ))
        }),
    }
}

fn optional_bool(value: &Json, field: &str) -> Result<Option<bool>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or_else(|| {
            ServiceError::bad_request(format!("field '{field}' must be a boolean, got {v}"))
        }),
    }
}

fn optional_f64_array(value: &Json, field: &str) -> Result<Option<Vec<f64>>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_arr().ok_or_else(|| {
                ServiceError::bad_request(format!("field '{field}' must be an array of numbers"))
            })?;
            items
                .iter()
                .map(|item| {
                    item.as_f64().ok_or_else(|| {
                        ServiceError::bad_request(format!(
                            "field '{field}' must contain only numbers, got {item}"
                        ))
                    })
                })
                .collect::<Result<Vec<f64>>>()
                .map(Some)
        }
    }
}

fn optional_node_array(value: &Json, field: &str) -> Result<Option<Vec<NodeId>>> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_arr().ok_or_else(|| {
                ServiceError::bad_request(format!("field '{field}' must be an array of node ids"))
            })?;
            items
                .iter()
                .map(|item| {
                    item.as_u64().filter(|n| *n <= u32::MAX as u64).map(|n| NodeId(n as u32)).ok_or_else(
                        || {
                            ServiceError::bad_request(format!(
                                "field '{field}' must contain only node ids (non-negative integers), got {item}"
                            ))
                        },
                    )
                })
                .collect::<Result<Vec<NodeId>>>()
                .map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_datasets::registry::Dataset;

    #[test]
    fn solve_budget_parses_with_defaults_into_a_spec() {
        let req = Request::parse_line(
            r#"{"id":7,"op":"solve_budget","dataset":"synthetic","deadline":5,"budget":10}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(Json::Num(7.0)));
        let oracle = req.oracle.as_ref().expect("query ops carry an oracle");
        assert_eq!(oracle.dataset.dataset, Dataset::Synthetic);
        assert_eq!(oracle.dataset.seed, 42);
        assert_eq!(oracle.model, ModelKind::IndependentCascade);
        assert_eq!(oracle.deadline, Deadline::finite(5));
        let EstimatorConfig::Worlds(w) = &oracle.estimator else { panic!("worlds default") };
        assert_eq!(w.num_worlds, 200);
        assert_eq!(w.seed, 0);
        let Op::Solve(spec) = &req.op else { panic!("solve_budget") };
        assert_eq!(spec.objective, Objective::Budget { budget: 10 });
        assert_eq!(spec.fairness, FairnessMode::Total);
        assert_eq!(spec.algorithm, GreedyAlgorithm::Lazy);
        assert!(spec.candidates.is_none());
        // The spec is self-describing: it carries the oracle's deadline and
        // estimator, so the cache key derives from it alone.
        assert_eq!(spec.deadline, Some(Deadline::finite(5)));
        assert_eq!(spec.estimator.as_ref(), Some(&oracle.estimator));
        assert_eq!(spec.label(), "P1");
    }

    #[test]
    fn full_requests_round_trip() {
        let lines = [
            r#"{"id":"a","op":"solve_budget","dataset":"illustrative","dataset_seed":3,"model":"lt","deadline":2,"estimator":"worlds","samples":64,"estimator_seed":9,"budget":2,"fair":true,"wrapper":"sqrt","weights":[1,2],"candidates":[0,1,2]}"#,
            r#"{"id":2,"op":"solve_cover","dataset":"synthetic","deadline":"inf","quota":0.2,"fair":true,"max_seeds":40}"#,
            r#"{"op":"solve_cover","dataset":"synthetic","quota":0.2,"tolerance":0.01,"group":1}"#,
            r#"{"op":"solve_budget","dataset":"synthetic","budget":4,"disparity_cap":0.25}"#,
            r#"{"op":"solve_budget","dataset":"synthetic","budget":4,"algorithm":"stochastic","epsilon":0.1,"algorithm_seed":3}"#,
            r#"{"op":"audit","dataset":"synthetic","estimator":"ris","samples":5000,"seeds":[1,2,3]}"#,
            r#"{"op":"estimate","dataset":"synthetic","estimator":"monte-carlo","seeds":[0]}"#,
        ];
        for line in lines {
            let req = Request::parse_line(line).unwrap();
            let rendered = req.to_json().to_string();
            let again = Request::parse_line(&rendered).unwrap();
            assert_eq!(req, again, "round trip failed for {line}");
        }
    }

    #[test]
    fn inline_scenarios_parse_round_trip_and_key_like_datasets() {
        let line = r#"{"id":1,"op":"solve_budget","scenario":{"family":"sbm","nodes":200,"p_within":0.05,"p_across":0.01,"majority_fraction":0.8,"weights":"uniform","edge_probability":0.1},"dataset_seed":7,"deadline":5,"budget":3}"#;
        let req = Request::parse_line(line).unwrap();
        let oracle = req.oracle.as_ref().expect("query ops carry an oracle");
        let Dataset::Scenario(spec) = &oracle.dataset.dataset else {
            panic!("expected a scenario dataset")
        };
        assert_eq!(spec.num_nodes, 200);
        assert_eq!(spec.family, GeneratorFamily::Sbm { p_within: 0.05, p_across: 0.01 });
        assert_eq!(spec.groups, GroupModel::MajorityMinority { majority_fraction: 0.8 });
        assert_eq!(spec.weights, WeightModel::UniformIc { p: 0.1 });
        assert_eq!(oracle.dataset.seed, 7);

        // Round trip through the rendered form.
        let again = Request::parse_line(&req.to_json().to_string()).unwrap();
        assert_eq!(req, again);

        // Other families and the degree-normalized weight models.
        for line in [
            r#"{"op":"solve_cover","scenario":{"family":"barabasi-albert","nodes":150,"edges_per_node":3,"homophily_bias":4.0,"weights":"weighted-cascade"},"quota":0.2}"#,
            r#"{"op":"estimate","scenario":{"family":"watts-strogatz","nodes":100,"neighbors":2,"rewire_probability":0.1,"weights":"lt"},"model":"lt","seeds":[0]}"#,
            r#"{"op":"audit","scenario":{"family":"sbm","nodes":90,"p_within":0.1,"p_across":0.01,"group_fractions":[0.5,0.3,0.2]},"seeds":[1,2]}"#,
        ] {
            let req = Request::parse_line(line).unwrap();
            let again = Request::parse_line(&req.to_json().to_string()).unwrap();
            assert_eq!(req, again, "round trip failed for {line}");
        }

        // Presets expand to their full spec (and render expanded).
        let preset = Request::parse_line(
            r#"{"op":"solve_budget","scenario":{"preset":"ba-hubs"},"budget":2}"#,
        )
        .unwrap();
        let Dataset::Scenario(spec) =
            &preset.oracle.as_ref().expect("query ops carry an oracle").dataset.dataset
        else {
            panic!()
        };
        assert_eq!(spec, &ScenarioSpec::preset("ba-hubs").unwrap());
        let again = Request::parse_line(&preset.to_json().to_string()).unwrap();
        assert_eq!(preset, again);
    }

    #[test]
    fn scenario_errors_name_the_offending_field() {
        let solve = |scenario: &str| {
            Request::parse_line(&format!(
                r#"{{"op":"solve_budget","scenario":{scenario},"budget":2}}"#
            ))
            .unwrap_err()
            .to_string()
        };
        let cases = [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{"nodes":10}"#, "missing required field 'family'"),
            (r#"{"family":"sbm","p_within":0.1,"p_across":0.1}"#, "'nodes'"),
            (r#"{"family":"tree","nodes":10}"#, "unknown scenario family 'tree'"),
            (
                r#"{"family":"sbm","nodes":10,"p_within":0.1,"p_across":0.1,"frobnicate":1}"#,
                "unknown scenario field 'frobnicate'",
            ),
            (r#"{"family":"sbm","nodes":10,"p_within":1.5,"p_across":0.1}"#, "'p_within'"),
            (
                r#"{"family":"sbm","nodes":10,"p_within":0.1,"p_across":0.1,"neighbors":2}"#,
                "does not apply to family 'sbm'",
            ),
            (
                r#"{"family":"watts-strogatz","nodes":10,"neighbors":2,"rewire_probability":0.1,"p_within":0.1}"#,
                "does not apply to family 'watts-strogatz'",
            ),
            (
                r#"{"family":"sbm","nodes":10,"p_within":0.1,"p_across":0.1,"majority_fraction":0.7,"group_fractions":[0.5,0.5]}"#,
                "'group_fractions' conflicts with 'majority_fraction'",
            ),
            (
                r#"{"family":"sbm","nodes":10,"p_within":0.1,"p_across":0.1,"group_fractions":[0.5,0.4]}"#,
                "sum to 1",
            ),
            (
                r#"{"family":"barabasi-albert","nodes":10,"edges_per_node":2,"group_fractions":[0.5,0.5]}"#,
                "majority_fraction",
            ),
            (
                r#"{"family":"sbm","nodes":10,"p_within":0.1,"p_across":0.1,"weights":"quantum"}"#,
                "unknown scenario weights 'quantum'",
            ),
            (
                r#"{"family":"sbm","nodes":10,"p_within":0.1,"p_across":0.1,"weights":"lt","edge_probability":0.1}"#,
                "'edge_probability' conflicts with weights 'lt'",
            ),
            (r#"{"preset":"twitter"}"#, "unknown scenario preset 'twitter'"),
            (r#"{"preset":"ba-hubs","nodes":10}"#, "must be the only scenario field"),
        ];
        for (scenario, needle) in cases {
            let err = solve(scenario);
            assert!(err.contains(needle), "error for {scenario} should mention {needle}: {err}");
        }
        // scenario and dataset are mutually exclusive; one is required.
        let err = Request::parse_line(
            r#"{"op":"solve_budget","dataset":"synthetic","scenario":{"preset":"ba-hubs"},"budget":2}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("'scenario' conflicts with 'dataset'"), "{err}");
        let err =
            Request::parse_line(r#"{"op":"solve_budget","budget":2}"#).unwrap_err().to_string();
        assert!(err.contains("'dataset'"), "{err}");
    }

    #[test]
    fn wrappers_parse_including_full_precision_powers() {
        let line = |w: &str| {
            format!(
                r#"{{"op":"solve_budget","dataset":"synthetic","budget":1,"fair":true,"wrapper":"{w}"}}"#
            )
        };
        for (name, expected) in [
            ("log", ConcaveWrapper::Log),
            ("sqrt", ConcaveWrapper::Sqrt),
            ("identity", ConcaveWrapper::Identity),
            ("pow0.3", ConcaveWrapper::Power(0.3)),
            ("pow0.123", ConcaveWrapper::Power(0.123)),
        ] {
            let req = Request::parse_line(&line(name)).unwrap();
            let Op::Solve(spec) = req.op else { panic!() };
            assert_eq!(spec.fairness, FairnessMode::Concave { wrapper: expected, weights: None });
        }
        assert!(Request::parse_line(&line("pow2.0")).is_err());
        assert!(Request::parse_line(&line("powx")).is_err());
        assert!(Request::parse_line(&line("cube")).is_err());
    }

    #[test]
    fn errors_name_the_offending_field() {
        let cases = [
            (r#"not json"#, "invalid JSON"),
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{"dataset":"synthetic"}"#, "missing required field 'op'"),
            (r#"{"op":"frobnicate","dataset":"synthetic"}"#, "unknown op 'frobnicate'"),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budgett":3}"#,
                "unknown field 'budgett'",
            ),
            (r#"{"op":"solve_budget","dataset":"synthetic"}"#, "missing required field 'budget'"),
            (
                r#"{"op":"solve_budget","dataset":"twitter","budget":3}"#,
                "unknown dataset 'twitter'",
            ),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":3,"deadline":-2}"#,
                "'deadline'",
            ),
            (r#"{"op":"solve_budget","dataset":"synthetic","budget":3.5}"#, "'budget'"),
            (r#"{"op":"solve_budget","dataset":"synthetic","budget":0}"#, "'budget'"),
            (r#"{"op":"solve_cover","dataset":"synthetic","quota":1.5}"#, "'quota'"),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":3,"model":"sir"}"#,
                "unknown model 'sir'",
            ),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":3,"estimator":"quantum"}"#,
                "unknown estimator 'quantum'",
            ),
            (r#"{"op":"audit","dataset":"synthetic"}"#, "requires field 'seeds'"),
            (r#"{"op":"audit","dataset":"synthetic","seeds":[1,-2]}"#, "'seeds'"),
            (r#"{"op":"solve_cover","dataset":"synthetic","quota":"high"}"#, "'quota'"),
            (r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"id":[1]}"#, "'id'"),
            (r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"fair":"yes"}"#, "'fair'"),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"fair":true,"weights":[1,"x"]}"#,
                "'weights'",
            ),
            // Conflicting / dangling fairness selectors.
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"fair":true,"disparity_cap":0.2}"#,
                "'disparity_cap'",
            ),
            (
                r#"{"op":"solve_cover","dataset":"synthetic","quota":0.2,"fair":true,"group":1}"#,
                "'group'",
            ),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"wrapper":"sqrt"}"#,
                "'wrapper'",
            ),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"epsilon":0.1}"#,
                "'epsilon'",
            ),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"algorithm":"simulated-annealing"}"#,
                "unknown algorithm",
            ),
            (
                r#"{"op":"solve_budget","dataset":"synthetic","budget":1,"algorithm":"stochastic"}"#,
                "'epsilon'",
            ),
            // Covers run lazy or plain greedy only.
            (
                r#"{"op":"solve_cover","dataset":"synthetic","quota":0.2,"algorithm":"stochastic","epsilon":0.1}"#,
                "field 'algorithm'",
            ),
        ];
        for (line, needle) in cases {
            let err = Request::parse_line(line).unwrap_err().to_string();
            assert!(err.contains(needle), "error for {line} should mention {needle}, got: {err}");
        }
    }

    #[test]
    fn admin_ops_parse_round_trip_and_reject_oracle_fields() {
        for (name, expected) in
            [("stats", Op::Stats), ("ping", Op::Ping), ("shutdown", Op::Shutdown)]
        {
            // Bare and id-carrying forms parse to oracle-free requests.
            let bare = Request::parse_line(&format!(r#"{{"op":"{name}"}}"#)).unwrap();
            assert_eq!(bare.op, expected);
            assert!(bare.oracle.is_none());
            assert!(bare.id.is_none());
            assert!(bare.op.is_admin());
            assert_eq!(bare.op.label(), name);
            let tagged = Request::parse_line(&format!(r#"{{"id":"x","op":"{name}"}}"#)).unwrap();
            assert_eq!(tagged.id, Some(Json::from("x")));

            // ... and round-trip through the rendered wire form.
            for req in [bare, tagged] {
                let rendered = req.to_json().to_string();
                let again = Request::parse_line(&rendered).unwrap();
                assert_eq!(req, again, "round trip failed for {rendered}");
            }

            // Oracle/op fields are rejected by name: serving-tier ops take
            // only `id`.
            for (field, json) in [("dataset", r#""synthetic""#), ("samples", "64"), ("budget", "3")]
            {
                let err = Request::parse_line(&format!(r#"{{"op":"{name}","{field}":{json}}}"#))
                    .unwrap_err()
                    .to_string();
                assert!(err.contains(&format!("'{field}'")), "{name}/{field}: {err}");
            }
            // A malformed id is still a malformed id.
            let err = Request::parse_line(&format!(r#"{{"op":"{name}","id":[1]}}"#))
                .unwrap_err()
                .to_string();
            assert!(err.contains("'id'"), "{err}");
        }
        // Ping's payload is deterministic build metadata.
        let fields = Json::Obj(ping_fields());
        assert_eq!(fields.get("protocol").unwrap().as_f64(), Some(PROTOCOL_VERSION as f64));
        assert_eq!(fields.get("service").unwrap().as_str(), Some("tcim-service"));
        assert_eq!(fields.get("ops").unwrap().as_arr().unwrap().len(), 8);
    }

    #[test]
    fn mutate_requests_parse_round_trip_and_carry_no_oracle() {
        let line = r#"{"id":7,"op":"mutate","dataset":"illustrative","ops":[{"add":[0,5],"p":0.5},{"remove":[1,2]},{"reweight":[3,4],"p":0.25}]}"#;
        let req = Request::parse_line(line).unwrap();
        assert_eq!(req.op.label(), "mutate");
        assert!(!req.op.is_admin());
        assert!(req.oracle.is_none());
        let Op::Mutate { dataset, ops } = &req.op else {
            panic!("mutate expected, got {:?}", req.op);
        };
        assert_eq!(dataset.seed, 42);
        assert_eq!(
            ops[..],
            [
                MutationOp::AddEdge { source: NodeId(0), target: NodeId(5), probability: 0.5 },
                MutationOp::RemoveEdge { source: NodeId(1), target: NodeId(2) },
                MutationOp::Reweight { source: NodeId(3), target: NodeId(4), probability: 0.25 },
            ]
        );
        // Round trip through the rendered wire form, named and inline forms.
        assert_eq!(Request::parse_line(&req.to_json().to_string()).unwrap(), req);
        let inline = Request::parse_line(
            r#"{"op":"mutate","scenario":{"preset":"ba-hubs"},"dataset_seed":7,"ops":[{"remove":[0,1]}]}"#,
        )
        .unwrap();
        assert_eq!(Request::parse_line(&inline.to_json().to_string()).unwrap(), inline);
        // The programmatic builder produces the parsed request exactly.
        let Op::Mutate { dataset, ops } = inline.op.clone() else {
            panic!("mutate expected");
        };
        assert_eq!(Request::mutate(None, dataset, ops), inline);
    }

    #[test]
    fn mutate_requests_reject_malformed_fields_by_name() {
        for (line, needle) in [
            // Oracle fields do not apply: a mutation names a graph, not an
            // estimator.
            (
                r#"{"op":"mutate","dataset":"illustrative","samples":8,"ops":[{"remove":[0,1]}]}"#,
                "unknown field 'samples' for op 'mutate'",
            ),
            (r#"{"op":"mutate","dataset":"illustrative"}"#, "op 'mutate' requires field 'ops'"),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[]}"#,
                "field 'ops' must not be empty",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":{}}"#,
                "field 'ops' must be an array",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[3]}"#,
                "each mutation must be a JSON object",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"drop":[0,1]}]}"#,
                "unknown mutation field 'drop'",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"p":0.5}]}"#,
                "exactly one of 'add', 'remove' or 'reweight'",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"add":[0,1],"remove":[0,1],"p":0.5}]}"#,
                "exactly one of 'add', 'remove' or 'reweight'",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"add":[0],"p":0.5}]}"#,
                "'add' must be a [source, target] pair",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"add":[0,1]}]}"#,
                "mutation 'add' requires field 'p'",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"reweight":[0,1]}]}"#,
                "mutation 'reweight' requires field 'p'",
            ),
            (
                r#"{"op":"mutate","dataset":"illustrative","ops":[{"remove":[0,1],"p":0.5}]}"#,
                "'p' does not apply to 'remove'",
            ),
            (r#"{"op":"mutate","ops":[{"remove":[0,1]}]}"#, "missing required field 'dataset'"),
            (
                r#"{"op":"mutate","dataset":"illustrative","scenario":{"preset":"ba-hubs"},"ops":[{"remove":[0,1]}]}"#,
                "'scenario' conflicts with 'dataset'",
            ),
        ] {
            let err = Request::parse_line(line).unwrap_err().to_string();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn failed_lines_salvage_ids_for_correlation() {
        // Valid request: passes straight through.
        assert!(Request::parse_line_correlated(r#"{"op":"ping"}"#).is_ok());
        // Not JSON at all: no id to salvage.
        let (id, err) = Request::parse_line_correlated("not json").unwrap_err();
        assert!(id.is_none());
        assert!(err.to_string().contains("invalid JSON"));
        // Valid JSON, invalid request, well-typed id: the id survives.
        let (id, err) = Request::parse_line_correlated(
            r#"{"id":"x7","op":"solve_budget","dataset":"synthetic","budgett":3}"#,
        )
        .unwrap_err();
        assert_eq!(id, Some(Json::from("x7")));
        assert!(err.to_string().contains("budgett"));
        // An id of the wrong type is not echoed (it would itself be invalid).
        let (id, _) = Request::parse_line_correlated(r#"{"id":[1],"op":"ping"}"#).unwrap_err();
        assert!(id.is_none());

        // The structured error response renders id + line before ok/error.
        let response = error_response_at(Some(&Json::from("x7")), Some(3), "bad request: boom");
        assert_eq!(
            response.to_string(),
            r#"{"id":"x7","line":3,"ok":false,"error":"bad request: boom"}"#
        );
        let response = error_response_at(None, Some(2), "nope");
        assert_eq!(response.to_string(), r#"{"line":2,"ok":false,"error":"nope"}"#);
    }

    #[test]
    fn responses_render_headers_first() {
        let ok =
            ok_response(Some(&Json::Num(4.0)), "estimate", vec![("total".into(), Json::Num(1.5))]);
        assert_eq!(ok.to_string(), r#"{"id":4,"op":"estimate","ok":true,"total":1.5}"#);
        let err = error_response(None, Some("audit"), "boom");
        assert_eq!(err.to_string(), r#"{"op":"audit","ok":false,"error":"boom"}"#);
        let bare = error_response(Some(&Json::from("x")), None, "bad");
        assert_eq!(bare.to_string(), r#"{"id":"x","ok":false,"error":"bad"}"#);
    }
}
