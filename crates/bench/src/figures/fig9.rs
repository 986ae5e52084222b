//! Figure 9 — Instagram-Activities dataset (surrogate), budget and cover
//! problems with gender groups.
//!
//! * 9a: total / male / female influenced fraction for P1, P4-log, P4-sqrt
//!   with `B = 30`, `τ = 2`, seeds restricted to a 5000-node candidate pool.
//! * 9b: per-group influenced fraction for quotas `Q ∈ {0.0015, 0.002}`.
//! * 9c: solution set size `|S|` for the same quotas.
//!
//! The surrogate defaults to 10% of the original graph size (pass
//! `--scale 1.0` for the full half-million-node graph); quotas are as in the
//! paper, which are tiny because the graph is extremely sparse.

use std::sync::Arc;

use tcim_core::ConcaveWrapper;
use tcim_datasets::instagram::{
    instagram_surrogate, InstagramConfig, INSTAGRAM_CANDIDATE_POOL, INSTAGRAM_DEADLINE,
};
use tcim_diffusion::Deadline;
use tcim_graph::NodeId;

use crate::{
    budget_summary, build_oracle, fmt4, run_budget_suite, run_cover_suite, Args, FigureOutput,
    Table,
};

/// Runs the Figure 9 experiments (panels selected via `--part`).
pub fn run(args: &Args) -> FigureOutput {
    let scale = args.scale.unwrap_or(if args.full { 0.1 } else { 0.02 });
    let samples = args.sample_count(100, 500);
    let budget = args.budget.unwrap_or(30);
    let graph = Arc::new(
        instagram_surrogate(&InstagramConfig { scale, seed: args.seed })
            .expect("instagram surrogate failed"),
    );
    println!(
        "[fig9] instagram surrogate at scale {scale}: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // The paper restricts seed selection to 5000 randomly chosen nodes while
    // evaluating influence over the whole graph.
    let pool_size = INSTAGRAM_CANDIDATE_POOL.min(graph.num_nodes());
    let candidates: Vec<NodeId> =
        tcim_core::baselines::random_seeds(&graph, pool_size, args.seed ^ 0x5eed);

    let deadline = Deadline::finite(INSTAGRAM_DEADLINE);
    let oracle = build_oracle(Arc::clone(&graph), deadline, samples, args.seed);
    let mut outputs = FigureOutput::new();

    if args.runs_part("a") {
        let reports = run_budget_suite(
            &oracle,
            budget,
            Some(candidates.clone()),
            &[ConcaveWrapper::Log, ConcaveWrapper::Sqrt],
        );
        let mut table = Table::new(
            &format!("fig9a — budget problem on instagram (B = {budget}, tau = 2)"),
            &["algorithm", "total", "female", "male", "disparity"],
        );
        for report in &reports {
            let (total, groups, disparity) = budget_summary(report);
            table.push_row(vec![
                report.label.clone(),
                fmt4(total),
                fmt4(groups[0]),
                fmt4(groups[1]),
                fmt4(disparity),
            ]);
        }
        outputs.push(("fig9a_budget".to_string(), table));
    }

    if args.runs_part("b") || args.runs_part("c") {
        let mut influence_table = Table::new(
            "fig9b — cover problem on instagram: per-group influenced fraction vs quota",
            &["Q", "P2 female", "P2 male", "P6 female", "P6 male"],
        );
        let mut size_table = Table::new(
            "fig9c — cover problem on instagram: solution set size vs quota",
            &["Q", "P2 |S|", "P6 |S|"],
        );
        for &quota in &[0.0015, 0.002] {
            let (unfair, fair) =
                run_cover_suite(&oracle, quota, Some(200), Some(candidates.clone()));
            let u = unfair.fairness();
            let f = fair.fairness();
            influence_table.push_row(vec![
                format!("{quota}"),
                fmt4(u.normalized_utilities[0]),
                fmt4(u.normalized_utilities[1]),
                fmt4(f.normalized_utilities[0]),
                fmt4(f.normalized_utilities[1]),
            ]);
            size_table.push_row(vec![
                format!("{quota}"),
                unfair.num_seeds().to_string(),
                fair.num_seeds().to_string(),
            ]);
        }
        if args.runs_part("b") {
            outputs.push(("fig9b_quota_influence".to_string(), influence_table));
        }
        if args.runs_part("c") {
            outputs.push(("fig9c_quota_sizes".to_string(), size_table));
        }
    }

    outputs
}
