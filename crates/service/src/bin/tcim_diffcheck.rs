//! Differential checker for dynamic graphs: replays an interleaved
//! mutation + solve workload through a warm engine (whose incremental
//! RIS-refresh and world-patch paths engage) and through a from-scratch
//! cold-rebuild reference, then diffs every response byte-for-byte at each
//! requested thread count. Any divergence is a determinism bug.
//!
//! ```text
//! tcim_diffcheck [--smoke] [--nodes N] [--steps N] [--ops-per-step N]
//!                [--seed S] [--threads LIST] [--quiet]
//! ```
//!
//! `--smoke` is the CI preset (a small SBM + BA sweep, threads 1,2,8);
//! the remaining flags size a custom run. Exit codes: 0 when every thread
//! count matches the cold reference, 1 on divergence, 2 on usage errors.
//!
//! This is the standalone twin of `crates/service/tests/churn.rs`: the test
//! pins the invariant at `cargo test` time, the binary makes the same check
//! scriptable against bigger workloads (and runs in CI's server-smoke job).

use std::process::ExitCode;

use tcim_datasets::churn::ChurnConfig;
use tcim_datasets::{Dataset, ScenarioSpec};
use tcim_diffusion::ParallelismConfig;
use tcim_graph::MutationOp;
use tcim_service::protocol::scenario_to_json;
use tcim_service::{DatasetSpec, Json, Op, Request, ServiceEngine};

const DATASET_SEED: u64 = 5;

struct Cli {
    nodes: usize,
    steps: usize,
    ops_per_step: usize,
    seed: u64,
    threads: Vec<usize>,
    quiet: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        nodes: 60,
        steps: 3,
        ops_per_step: 2,
        seed: 17,
        threads: vec![1, 2, 8],
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        let positive = |raw: String, flag: &str| -> Result<usize, String> {
            match raw.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!(
                    "invalid value '{raw}' for {flag} (expected an integer of at least 1)"
                )),
            }
        };
        match flag.as_str() {
            // The CI preset is the defaults; the flag exists so invocations
            // self-describe.
            "--smoke" => {}
            "--nodes" => cli.nodes = positive(value("--nodes")?, "--nodes")?.max(2),
            "--steps" => cli.steps = positive(value("--steps")?, "--steps")?,
            "--ops-per-step" => {
                cli.ops_per_step = positive(value("--ops-per-step")?, "--ops-per-step")?;
            }
            "--seed" => {
                let raw = value("--seed")?;
                cli.seed = raw
                    .parse()
                    .map_err(|_| format!("invalid value '{raw}' for --seed (expected a u64)"))?;
            }
            "--threads" => {
                let raw = value("--threads")?;
                cli.threads = raw
                    .split(',')
                    .map(|part| positive(part.to_string(), "--threads"))
                    .collect::<Result<_, _>>()?;
            }
            "--quiet" => cli.quiet = true,
            other => {
                return Err(format!(
                    "unknown flag '{other}' (expected --smoke, --nodes, --steps, \
                     --ops-per-step, --seed, --threads or --quiet)"
                ))
            }
        }
    }
    Ok(cli)
}

/// The P1–P6 query spread probing one graph version (worlds + RIS).
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
    .map(|line| Request::parse_line(line).expect("workload lines are well-formed"))
    .collect()
}

fn churn_batch(spec: &ScenarioSpec, steps: &[Vec<MutationOp>]) -> Vec<Request> {
    let dataset = DatasetSpec { dataset: Dataset::Scenario(spec.clone()), seed: DATASET_SEED };
    let mut requests = solve_requests(spec);
    for (i, ops) in steps.iter().enumerate() {
        requests.push(Request::mutate(
            Some(Json::from(format!("m{i}").as_str())),
            dataset.clone(),
            ops.clone(),
        ));
        requests.extend(solve_requests(spec));
    }
    requests
}

/// From-scratch answers: each request served by a fresh engine that first
/// replays the mutations preceding it.
fn cold_reference(batch: &[Request]) -> Vec<String> {
    batch
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let engine = ServiceEngine::new(ParallelismConfig::serial());
            for prior in &batch[..i] {
                if matches!(prior.op, Op::Mutate { .. }) {
                    engine.serve(prior);
                }
            }
            engine.serve(request).to_string()
        })
        .collect()
}

fn run(cli: &Cli) -> Result<bool, String> {
    let scenarios = [
        ("sbm", ScenarioSpec::sbm(cli.nodes, 0.1, 0.02)),
        ("ba", ScenarioSpec::barabasi_albert(cli.nodes, 2)),
    ];
    let mut clean = true;
    for (name, spec) in scenarios {
        let spec = spec.map_err(|err| format!("cannot build {name} scenario: {err}"))?;
        let base =
            spec.build(DATASET_SEED).map_err(|err| format!("cannot build {name} graph: {err}"))?;
        let sequence = ChurnConfig::new(cli.steps, cli.ops_per_step, cli.seed)
            .generate(&base)
            .map_err(|err| format!("cannot generate churn for {name}: {err}"))?;
        let batch = churn_batch(&spec, &sequence.steps);
        let cold = cold_reference(&batch);
        for &threads in &cli.threads {
            let engine = ServiceEngine::new(ParallelismConfig::fixed(threads));
            let served: Vec<String> =
                engine.serve_batch(&batch).into_iter().map(|r| r.to_string()).collect();
            let diverged = served.iter().zip(&cold).position(|(a, b)| a != b);
            match diverged {
                None => {
                    if !cli.quiet {
                        eprintln!(
                            "{name}: {} request(s) at {threads} thread(s) match the cold \
                             rebuild ({} refresh(es), {} patch(es))",
                            batch.len(),
                            engine.cache().ris_refreshes(),
                            engine.cache().world_patches(),
                        );
                    }
                }
                Some(at) => {
                    clean = false;
                    eprintln!(
                        "{name}: DIVERGENCE at {threads} thread(s), response {at}:\n  \
                         incremental: {}\n  cold:        {}",
                        served[at], cold[at]
                    );
                }
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
