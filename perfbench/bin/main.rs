//! The fairtcim benchmark: seeded workloads driven closed-loop over
//! loopback sockets against `tcim_service::Server`, with every response
//! byte-checked against a serial in-process replay.
//!
//! ```text
//! perfbench --workload sweep_cold|churn_ris --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` is the timed run: set up (server start, warm-up, traffic
//! generation and parsing) several times, keep the last, run one
//! closed-loop client connection, one pass per round, until `S`
//! seconds have passed, then replay the answered lines serially through
//! `ServiceEngine::serve` on a fresh engine and compare bytes. It prints
//! the end-to-end metrics, taken over the rounds and set-ups the
//! hypervisor disturbed least.
//!
//! `--trace 1` replays the stream's first pass, plus a fixed
//! coverage tail, through the traced layer calls and, line by line in
//! lockstep, through `ServiceEngine::serve` untraced; it writes the spans to
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`) and prints
//! the per-layer metrics.
//!
//! The last stdout line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`;
//! the line before it carries the run's context. Exit codes: 0 correct,
//! 1 a response failed or differed from the replay, 2 bad usage or error.

mod breakdown;
mod clock;
mod stats;
mod timed;
mod trace;
mod traffic;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use tcim_diffusion::ParallelismConfig;
use tcim_service::{Json, OracleCache, Request, ServiceEngine};

use crate::breakdown::Metric;
use crate::clock::now;
use crate::trace::{Item, Section};
use crate::traffic::{Line, Stream, Workload, CLIENTS};

/// Worker threads of the server's engine and of every estimator pool.
pub const SERVER_THREADS: usize = 2;
/// Set-ups per timed run: at least `MIN_SETUPS`, more while they take
/// under `SETUP_BUDGET_S` together, never more than `MAX_SETUPS`.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 5.0;
/// Passes the quality metrics average over.
const QUALITY_PASSES: usize = 3;
/// Rounds (one pass each) per timed run, at the least: more than
/// `QUALITY_PASSES`.
const MIN_ROUNDS: usize = 4;
/// Pings behind `server.ping_rtt_us`.
const PINGS: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload '{value}' (expected sweep_cold or churn_ris)")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => {
                return Err(format!(
                    "unknown flag '{flag}' (expected --workload, --seed, --seconds, --trace)"
                ))
            }
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn parse(line: &str) -> Result<Request, String> {
    Request::parse_line(line).map_err(|err| format!("generated line rejected: {err}\n{line}"))
}

fn is_ok(response: &str) -> bool {
    Json::parse(response).ok().and_then(|r| r.get("ok").and_then(Json::as_bool)) == Some(true)
}

/// `(total_fraction, disparity)` of a solve response.
fn solve_quality(response: &str) -> Option<(f64, f64)> {
    let json = Json::parse(response).ok()?;
    if !json.get("op")?.as_str()?.starts_with("solve_") {
        return None;
    }
    Some((json.get("total_fraction")?.as_f64()?, json.get("disparity")?.as_f64()?))
}

/// The result of one benchmark run, ready to print.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    context: Vec<(String, Json)>,
}

fn num(value: impl Into<f64>) -> Json {
    Json::Num(value.into())
}

fn nums<T: Copy + Into<f64>>(values: impl IntoIterator<Item = T>) -> Json {
    Json::Arr(values.into_iter().map(num).collect())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value =
                    vec![("value".into(), num(m.value)), ("unit".into(), Json::from(m.unit))];
                (m.name.clone(), Json::Obj(value))
            })
            .collect(),
    )
}

fn item(line: &Line, section: Section) -> Item<'_> {
    Item { text: &line.text, section, problem: line.problem }
}

/// The warm-up, then the traffic, then the tail.
fn items<'a>(warmup: &'a [Line], traffic: &'a [Line], tail: &'a [Line]) -> Vec<Item<'a>> {
    let mut out: Vec<Item<'a>> = warmup.iter().map(|l| item(l, Section::Warmup)).collect();
    out.extend(traffic.iter().map(|l| item(l, Section::Traffic)));
    out.extend(tail.iter().map(|l| item(l, Section::Tail)));
    out
}

/// The warm-up and the stream, generated against a cache of their own.
fn generate(workload: Workload, seed: u64, seconds: f64) -> Result<(Vec<Line>, Stream), String> {
    let warmup = traffic::warmup(workload);
    let cache = OracleCache::new();
    for line in &warmup {
        if let Some(spec) = parse(&line.text)?.oracle {
            cache.graph(&spec.dataset).map_err(|err| format!("warm-up graph: {err}"))?;
        }
    }
    let stream = traffic::stream(workload, seed, seconds, &cache)?;
    Ok((warmup, stream))
}

/// A server ready for the client: warmed up, with its traffic generated
/// and parsed.
struct Setup {
    engine: Arc<ServiceEngine>,
    server: timed::Running,
    warmup: Vec<Line>,
    warm_responses: Vec<String>,
    stream: Stream,
}

fn setup(workload: Workload, seed: u64, seconds: f64) -> Result<Setup, String> {
    let engine = Arc::new(ServiceEngine::new(ParallelismConfig::fixed(SERVER_THREADS)));
    let server = timed::start(Arc::clone(&engine))?;
    let warmup = traffic::warmup(workload);
    let mut warm_responses = Vec::with_capacity(warmup.len());
    for line in &warmup {
        warm_responses.push(engine.serve(&parse(&line.text)?).to_string());
    }
    let stream = traffic::stream(workload, seed, seconds, engine.cache())?;
    for line in &stream.lines {
        parse(&line.text)?;
    }
    Ok(Setup { engine, server, warmup, warm_responses, stream })
}

fn timed_run(args: &Args) -> Result<Outcome, String> {
    let (mut setup_s, mut setup_steal) = (Vec::new(), Vec::new());
    let mut current: Option<Setup> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        if let Some(previous) = current.take() {
            previous.server.stop()?;
        }
        let steal = stats::StealMeter::start();
        let start = now();
        current = Some(setup(args.workload, args.seed, args.seconds)?);
        setup_s.push(start.elapsed().as_secs_f64());
        setup_steal.push(steal.share());
    }
    let Setup { engine, server, warmup, warm_responses, stream } =
        current.expect("at least one set-up ran");

    let run = timed::closed_loop(server.addr, &stream, args.seconds, MIN_ROUNDS)?;
    server.stop()?;
    drop(engine);

    // The reference: the warm-up and every line answered, replayed serially
    // through `ServiceEngine::serve` on a fresh engine.
    let mut reference = trace::Untraced::new();
    for line in warmup.iter().chain(&stream.lines[..run.completed]) {
        reference.serve_line(&line.text);
    }
    let (warm_reference, expected) = reference.responses.split_at(warmup.len());
    let warm_failed =
        warm_responses.iter().zip(warm_reference).filter(|(got, want)| got != want || !is_ok(want));
    let bad = run.responses.iter().zip(expected).filter(|(got, want)| got != want || !is_ok(want));
    let attempted = warmup.len() + run.completed;
    let failed = warm_failed.count() + bad.count();
    let first = expected.len().min(QUALITY_PASSES * stream.pass_len);
    let quality: Vec<(f64, f64)> =
        expected[..first].iter().filter_map(|r| solve_quality(r)).collect();
    let mean = |f: fn(&(f64, f64)) -> f64| {
        quality.iter().map(f).sum::<f64>() / quality.len().max(1) as f64
    };

    // The timings cover the rounds, and the set-up time the set-ups, in
    // which the hypervisor stole the least CPU time: on a shared host that
    // steal, not the program, is what moves a run's figures from one minute
    // to the next. The calm rounds' requests are pooled, so the percentiles
    // rest on all their samples.
    let (mut throughput, mut p50, mut p90, mut steal) = (vec![], vec![], vec![], vec![]);
    for round in &run.rounds {
        throughput.push(round.completed as f64 / round.elapsed.as_secs_f64());
        let mut latencies = round.latencies_ms.clone();
        latencies.sort_by(f64::total_cmp);
        p50.push(stats::percentile(&latencies, 0.5));
        p90.push(stats::percentile(&latencies, 0.9));
        steal.push(round.steal);
    }
    let calm: Vec<&timed::Round> =
        stats::least_stolen(&steal).into_iter().map(|r| &run.rounds[r]).collect();
    let calm_completed: usize = calm.iter().map(|r| r.completed).sum();
    let calm_elapsed: f64 = calm.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let mut latencies: Vec<f64> =
        calm.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    latencies.sort_by(f64::total_cmp);
    let calm_setups = stats::least_stolen(&setup_steal);
    let setup_median =
        stats::median(&mut calm_setups.iter().map(|&i| setup_s[i]).collect::<Vec<_>>());

    let metrics = vec![
        Metric {
            name: "throughput_rps".into(),
            value: calm_completed as f64 / calm_elapsed,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms".into(),
            value: stats::percentile(&latencies, 0.5),
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms".into(),
            value: stats::percentile(&latencies, 0.9),
            unit: "ms",
        },
        Metric { name: "setup_s".into(), value: setup_median, unit: "s" },
        Metric { name: "peak_rss_mb".into(), value: run.peak_rss_mb, unit: "MiB" },
        Metric { name: "quality.spread_fraction".into(), value: mean(|q| q.0), unit: "fraction" },
        Metric { name: "quality.disparity".into(), value: mean(|q| q.1), unit: "fraction" },
    ];
    let context = vec![
        ("error_rate".into(), num(failed as f64 / attempted as f64)),
        (
            "samples".into(),
            Json::Obj(vec![
                ("latency".into(), num(latencies.len() as f64)),
                ("rounds".into(), num(run.rounds.len() as f64)),
                ("calm_rounds".into(), num(calm.len() as f64)),
                ("setup_s".into(), num(setup_s.len() as f64)),
                ("calm_setups".into(), num(calm_setups.len() as f64)),
                ("quality".into(), num(quality.len() as f64)),
            ]),
        ),
        ("throughput_rps_per_round".into(), nums(throughput)),
        ("latency_p50_ms_per_round".into(), nums(p50)),
        ("latency_p90_ms_per_round".into(), nums(p90)),
        ("steal_share_per_round".into(), nums(steal)),
        ("setup_s_each".into(), nums(setup_s.iter().copied())),
        ("steal_share_per_setup".into(), nums(setup_steal)),
        ("completed".into(), num(run.completed as f64)),
        ("passes".into(), num((run.completed / stream.pass_len) as f64)),
        ("exhausted".into(), Json::Bool(run.exhausted)),
        ("reference_replay_s".into(), num(reference.wall.as_secs_f64())),
    ];
    Ok(Outcome { attempted, failed, metrics, context })
}

fn shares_json(shares: Vec<(&str, f64)>) -> Json {
    Json::Obj(shares.into_iter().map(|(name, pct)| (name.to_string(), num(pct))).collect())
}

fn spans_path(args: &Args) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench").join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed))
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let (warmup, stream) = generate(args.workload, args.seed, 0.0)?;
    let tail = traffic::coverage_tail();
    let items = items(&warmup, &stream.lines[..stream.pass_len], &tail);
    let (traced, untraced) = trace::replay(&items, true);
    let untraced = untraced.expect("asked for the untraced replay");
    let ping = trace::ping_rtt_us(PINGS)?;

    // A line fails when `serve` did not answer it ok, or when the layer
    // calls computed a value `serve` did not. A field the rendering has and
    // `serve` no longer sends is only reported: the rendering then times a
    // response of a slightly different shape.
    let (mut failed, mut missing_fields) = (0, 0);
    for (rendered, served) in traced.responses.iter().zip(&untraced.responses) {
        let (differing, missing) = trace::compare_rendering(rendered, served);
        failed += usize::from(differing > 0 || !is_ok(served));
        missing_fields += missing;
    }
    if missing_fields > 0 {
        eprintln!(
            "perfbench: {missing_fields} rendered fields are missing from the served responses; \
             update the rendering in trace.rs"
        );
    }
    let (metrics, shares, read_shares) = breakdown::layer_metrics(&traced, &untraced, ping);

    let path = spans_path(args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, trace::spans_jsonl(&traced)));
    if let Err(err) = written {
        eprintln!("perfbench: cannot write spans to {}: {err}", path.display());
    }
    let context = vec![
        ("error_rate".into(), num(failed as f64 / items.len() as f64)),
        ("traffic_share_pct".into(), shares_json(shares)),
        ("read_share_pct".into(), shares_json(read_shares)),
        ("render_fields_missing".into(), num(missing_fields as f64)),
        ("spans".into(), num(traced.spans.len() as f64)),
        ("spans_file".into(), Json::from(path.display().to_string().as_str())),
        ("traced_replay_s".into(), num(traced.wall.as_secs_f64())),
        ("untraced_replay_s".into(), num(untraced.wall.as_secs_f64())),
        ("samples".into(), Json::Obj(vec![("pings".into(), num(PINGS as f64))])),
    ];
    Ok(Outcome { attempted: items.len(), failed, metrics, context })
}

fn main() -> ExitCode {
    // The server's parallelism is part of the benchmark's definition: pin
    // the estimators' pools before any pool exists.
    std::env::set_var("RAYON_NUM_THREADS", SERVER_THREADS.to_string());
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { traced_run(&args) } else { timed_run(&args) };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = stats::git_commit();
    let mut context: Vec<(String, Json)> = vec![
        ("workload".into(), Json::from(args.workload.name())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), num(nproc as f64)),
        ("clients".into(), num(CLIENTS as f64)),
        ("server_threads".into(), num(SERVER_THREADS as f64)),
        ("git_sha".into(), Json::from(git.sha.as_str())),
        ("git_tree".into(), Json::from(git.tree)),
    ];
    context.extend(outcome.context);
    context.push(("metrics".into(), metrics_json(&outcome.metrics)));
    println!("{}", Json::Obj(vec![("context".into(), Json::Obj(context))]));
    let correct = outcome.failed == 0;
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), num(outcome.attempted as f64)),
            ("failed".into(), num(outcome.failed as f64)),
            ("metrics".into(), metrics_json(&outcome.metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} responses failed or differed from the replay",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = generate(workload, 11, 1.0).unwrap();
            assert!(
                a == generate(workload, 11, 1.0).unwrap(),
                "{}: same seed, same traffic",
                workload.name()
            );
            assert!(
                a != generate(workload, 12, 1.0).unwrap(),
                "{}: new seed, new traffic",
                workload.name()
            );
        }
    }

    #[test]
    fn work_counters_repeat_exactly() {
        for (workload, lines) in [(Workload::SweepCold, 12), (Workload::ChurnRis, 10)] {
            let (warmup, stream) = generate(workload, 5, 0.0).unwrap();
            let tail = traffic::coverage_tail();
            let items = items(&warmup, &stream.lines[..lines], &tail);
            let (first, _) = trace::replay(&items, false);
            let (second, _) = trace::replay(&items, false);
            assert_eq!(first.responses, second.responses, "{}", workload.name());
            let counters = breakdown::counters(&first);
            assert_eq!(counters, breakdown::counters(&second), "{}", workload.name());
            assert!(
                counters.gain_evaluations > 0 && counters.edges_built > 0,
                "{}",
                workload.name()
            );
            assert!(first.responses.iter().all(|r| is_ok(r)), "{}", workload.name());
        }
    }

    #[test]
    fn rendering_check_ignores_added_fields() {
        let rendered = r#"{"id":1,"ok":true,"total":2.5}"#;
        let compare = |served| trace::compare_rendering(rendered, served);
        assert_eq!(compare(r#"{"id":1,"ok":true,"total":2.5,"new":0}"#), (0, 0));
        assert_eq!(compare(r#"{"id":1,"ok":true,"total":2.4}"#), (1, 0));
        assert_eq!(compare(r#"{"id":1,"ok":true}"#), (0, 1));
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = args("--workload churn_ris --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ChurnRis, 7, 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload sweep_cold --trace 2").is_err());
    }
}
