//! Estimator face-off figure: Monte-Carlo live-edge worlds vs the RIS
//! engine, solving the same TCIM-BUDGET instances end-to-end.
//!
//! For the synthetic SBM and the (sparse) Instagram surrogate, both
//! estimators drive the same CELF solver; the table reports build and solve
//! wall-time, the seed-set quality under a common held-out Monte-Carlo
//! re-score, and disparity. On the large sparse instance the RIS engine
//! should win wall-time at comparable quality — sketches only touch the
//! reverse neighbourhoods of sampled targets, while every live-edge world
//! flips a coin for every edge of the graph.
//!
//! ```text
//! fig_mc_vs_ris [--samples N] [--seed N] [--budget N] [--scale F] [--full]
//! ```

use std::sync::Arc;
use std::time::Instant;

use tcim_bench::{emit, fmt3, Args, FigureOutput, Table};
use tcim_core::{audit_seed_set, solve, EstimatorConfig, ProblemSpec};
use tcim_datasets::instagram::{instagram_surrogate, InstagramConfig, INSTAGRAM_DEADLINE};
use tcim_datasets::SyntheticConfig;
use tcim_diffusion::{Deadline, MonteCarloEstimator, RisConfig, WorldsConfig};
use tcim_graph::{Graph, NodeId};

/// One dataset to face off on.
struct Instance {
    name: &'static str,
    graph: Arc<Graph>,
    deadline: Deadline,
    budget: usize,
    candidates: Option<Vec<NodeId>>,
    num_worlds: usize,
    num_sets: usize,
}

fn main() {
    let args = Args::parse();
    let budget = args.budget.unwrap_or(10);

    let synthetic = Arc::new(
        SyntheticConfig { num_nodes: 1000, ..SyntheticConfig::default() }.build().unwrap(),
    );
    let scale = args.scale.unwrap_or(if args.full { 0.1 } else { 0.02 });
    let instagram = Arc::new(
        instagram_surrogate(&InstagramConfig { scale, seed: args.seed }).unwrap_or_else(|err| {
            eprintln!("error: cannot build the instagram surrogate at --scale {scale}: {err}");
            std::process::exit(2);
        }),
    );
    println!(
        "[fig_mc_vs_ris] instagram surrogate at scale {scale}: {} nodes, {} directed edges",
        instagram.num_nodes(),
        instagram.num_edges()
    );
    // The paper restricts Instagram seed selection to a random candidate
    // pool; do the same for both estimators so the face-off is fair.
    let pool_size = 2000.min(instagram.num_nodes());
    let pool = tcim_core::baselines::random_seeds(&instagram, pool_size, args.seed ^ 0x5eed);

    let instances = [
        Instance {
            name: "synthetic",
            graph: synthetic,
            deadline: Deadline::finite(5),
            budget,
            candidates: None,
            num_worlds: args.sample_count(100, 400),
            num_sets: args.sample_count(100, 400) * 200,
        },
        Instance {
            name: "instagram",
            graph: instagram,
            deadline: Deadline::finite(INSTAGRAM_DEADLINE),
            budget,
            candidates: Some(pool),
            num_worlds: args.sample_count(50, 200),
            num_sets: args.sample_count(50, 200) * 400,
        },
    ];

    let mut table = Table::new(
        "MC (live-edge worlds) vs RIS: same solver, same instances",
        &["dataset", "estimator", "build+solve ms", "influence", "disparity", "gain evals"],
    );

    for instance in &instances {
        let held_out = MonteCarloEstimator::new(
            Arc::clone(&instance.graph),
            instance.deadline,
            args.sample_count(200, 500),
            args.seed ^ 0xbeef,
        )
        .unwrap();
        let configs = [
            (
                "mc-worlds",
                EstimatorConfig::Worlds(WorldsConfig {
                    num_worlds: instance.num_worlds,
                    seed: args.seed,
                }),
            ),
            (
                "ris",
                EstimatorConfig::Ris(RisConfig {
                    num_sets: instance.num_sets,
                    seed: args.seed,
                    ..Default::default()
                }),
            ),
        ];
        for (label, config) in configs {
            let start = Instant::now();
            let oracle =
                config.build(Arc::clone(&instance.graph), instance.deadline).expect("oracle");
            let mut spec = ProblemSpec::budget(instance.budget).unwrap_or_else(|err| {
                eprintln!("error: invalid --budget {}: {err}", instance.budget);
                std::process::exit(2);
            });
            if let Some(pool) = instance.candidates.clone() {
                spec = spec.with_candidates(pool).expect("instance pools are non-empty");
            }
            let report = solve(&oracle, &spec).unwrap_or_else(|err| {
                eprintln!(
                    "error: {label} solve failed on '{}' with --budget {}: {err}",
                    instance.name, instance.budget
                );
                std::process::exit(2);
            });
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            let audit = audit_seed_set(&held_out, &report.seeds).unwrap();
            table.push_row(vec![
                instance.name.to_string(),
                label.to_string(),
                format!("{elapsed_ms:.1}"),
                fmt3(audit.total),
                fmt3(audit.disparity),
                report.gain_evaluations.to_string(),
            ]);
        }
    }

    let outputs: FigureOutput = vec![("fig_mc_vs_ris".to_string(), table)];
    emit(&args, &outputs);
}
