//! Figure 6 — synthetic dataset, cover problem.
//!
//! * 6a: per-iteration coverage trajectory for `Q = 0.2` (P2 vs P6).
//! * 6b: per-group influenced fraction for quotas `Q ∈ {0.1, 0.2, 0.3}`.
//! * 6c: solution set size `|S|` for the same quotas.

use std::sync::Arc;

use tcim_datasets::synthetic::QUOTA_SWEEP;
use tcim_datasets::SyntheticConfig;
use tcim_diffusion::Deadline;
use tcim_graph::Graph;

use crate::{build_oracle, fmt3, run_cover_suite, Args, FigureOutput, Table};

/// Runs the Figure 6 experiments (panels selected via `--part`).
pub fn run(args: &Args) -> FigureOutput {
    let config = SyntheticConfig::default().with_seed(args.seed);
    let samples = args.sample_count(100, config.samples);
    let graph = Arc::new(config.build().expect("synthetic graph generation failed"));
    let deadline = Deadline::finite(config.deadline);

    run_cover_figure(args, graph, deadline, samples, &QUOTA_SWEEP, 0.2, "fig6", "synthetic")
}

/// Shared implementation for the synthetic (Fig. 6) and Rice (Fig. 8) cover
/// figures, which have the same three panels.
#[allow(clippy::too_many_arguments)] // mirrors the figure's knobs one-to-one
pub(crate) fn run_cover_figure(
    args: &Args,
    graph: Arc<Graph>,
    deadline: Deadline,
    samples: usize,
    quotas: &[f64],
    trajectory_quota: f64,
    prefix: &str,
    dataset: &str,
) -> FigureOutput {
    let oracle = build_oracle(Arc::clone(&graph), deadline, samples, args.seed);
    let max_seeds = Some(graph.num_nodes().min(400));
    let mut outputs = FigureOutput::new();

    if args.runs_part("a") {
        let (unfair, fair) = run_cover_suite(&oracle, trajectory_quota, max_seeds, None);
        let mut table = Table::new(
            &format!(
                "{prefix}a — greedy iterations, Q = {trajectory_quota} ({dataset}): influenced fraction per group"
            ),
            &[
                "iteration",
                "P2 total",
                "P2 group1",
                "P2 group2",
                "P6 total",
                "P6 group1",
                "P6 group2",
            ],
        );
        let rows = unfair.iterations.len().max(fair.iterations.len());
        for i in 0..rows {
            let u = unfair.fairness_at(i);
            let f = fair.fairness_at(i);
            let pick = |report: &Option<tcim_core::FairnessReport>, idx: usize| -> String {
                report
                    .as_ref()
                    .map(|r| fmt3(*r.normalized_utilities.get(idx).unwrap_or(&0.0)))
                    .unwrap_or_else(|| "-".to_string())
            };
            let total = |report: &Option<tcim_core::FairnessReport>| -> String {
                report.as_ref().map(|r| fmt3(r.total_fraction)).unwrap_or_else(|| "-".to_string())
            };
            table.push_row(vec![
                (i + 1).to_string(),
                total(&u),
                pick(&u, 0),
                pick(&u, 1),
                total(&f),
                pick(&f, 0),
                pick(&f, 1),
            ]);
        }
        outputs.push((format!("{prefix}a_iterations"), table));
    }

    if args.runs_part("b") || args.runs_part("c") {
        let mut influence_table = Table::new(
            &format!("{prefix}b — per-group influenced fraction vs quota Q ({dataset})"),
            &["Q", "P2 group1", "P2 group2", "P6 group1", "P6 group2", "P2 reached", "P6 reached"],
        );
        let mut size_table = Table::new(
            &format!("{prefix}c — solution set size |S| vs quota Q ({dataset})"),
            &["Q", "P2 |S|", "P6 |S|"],
        );
        for &quota in quotas {
            let (unfair, fair) = run_cover_suite(&oracle, quota, max_seeds, None);
            let u = unfair.fairness();
            let f = fair.fairness();
            influence_table.push_row(vec![
                format!("{quota}"),
                fmt3(*u.normalized_utilities.first().unwrap_or(&0.0)),
                fmt3(*u.normalized_utilities.get(1).unwrap_or(&0.0)),
                fmt3(*f.normalized_utilities.first().unwrap_or(&0.0)),
                fmt3(*f.normalized_utilities.get(1).unwrap_or(&0.0)),
                unfair.cover.as_ref().is_some_and(|c| c.reached).to_string(),
                fair.cover.as_ref().is_some_and(|c| c.reached).to_string(),
            ]);
            size_table.push_row(vec![
                format!("{quota}"),
                unfair.num_seeds().to_string(),
                fair.num_seeds().to_string(),
            ]);
        }
        if args.runs_part("b") {
            outputs.push((format!("{prefix}b_quota_influence"), influence_table));
        }
        if args.runs_part("c") {
            outputs.push((format!("{prefix}c_quota_sizes"), size_table));
        }
    }

    outputs
}
