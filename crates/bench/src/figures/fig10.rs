//! Figure 10 — Facebook-SNAP dataset (surrogate), budget and cover problems
//! over five spectral (topological) groups.
//!
//! * 10a: total and per-group influence for P1, P4-log, P4-sqrt (`B = 30`,
//!   `τ = 20`, groups reported for the most disparate pair).
//! * 10b: per-group influenced fraction for quota `Q = 0.1`.
//! * 10c: solution set size `|S|` for the same quota.

use std::sync::Arc;

use tcim_datasets::fbsnap::{fbsnap_spectral_groups, fbsnap_surrogate, FBSNAP_DEADLINE};
use tcim_diffusion::Deadline;

use crate::figures::fig7::run_multigroup_budget_figure;
use crate::{fmt3, run_cover_suite, Args, FigureOutput, Table};

/// Runs the Figure 10 experiments (panels selected via `--part`).
pub fn run(args: &Args) -> FigureOutput {
    let samples = args.sample_count(50, 200);
    let budget = args.budget.unwrap_or(30);
    let base = fbsnap_surrogate(args.seed).expect("facebook-snap surrogate failed");
    // Groups come from spectral clustering, exactly as in Appendix C.
    let graph = Arc::new(
        fbsnap_spectral_groups(&base, args.seed ^ 0xc1u64).expect("spectral regrouping failed"),
    );
    println!(
        "[fig10] facebook-snap surrogate: {} nodes, spectral group sizes {:?}",
        graph.num_nodes(),
        graph.group_sizes()
    );

    let deadline = Deadline::finite(FBSNAP_DEADLINE);
    let mut outputs = run_multigroup_budget_figure(
        args,
        Arc::clone(&graph),
        deadline,
        &[Some(2), Some(5), Some(20), None],
        samples,
        budget,
        "fig10",
        "facebook-snap",
    );
    // Keep only the budget panel (10a) plus the sweeps; the cover panels are
    // generated below with the paper's single quota.
    outputs.retain(|(name, _)| name.starts_with("fig10a"));

    if args.runs_part("b") || args.runs_part("c") {
        let oracle = crate::build_oracle(Arc::clone(&graph), deadline, samples, args.seed);
        let quota = 0.1;
        let (unfair, fair) = run_cover_suite(&oracle, quota, Some(300), None);
        let u = unfair.fairness();
        let f = fair.fairness();

        if args.runs_part("b") {
            let mut table = Table::new(
                "fig10b — cover problem on facebook-snap: per-group influenced fraction, Q = 0.1",
                &["group", "size", "P2 fraction", "P6 fraction"],
            );
            for (i, &size) in u.group_sizes.iter().enumerate() {
                table.push_row(vec![
                    format!("group{i}"),
                    size.to_string(),
                    fmt3(u.normalized_utilities[i]),
                    fmt3(f.normalized_utilities[i]),
                ]);
            }
            outputs.push(("fig10b_quota_influence".to_string(), table));
        }
        if args.runs_part("c") {
            let mut table = Table::new(
                "fig10c — cover problem on facebook-snap: solution set size, Q = 0.1",
                &["algorithm", "|S|", "reached"],
            );
            table.push_row(vec![
                "P2".to_string(),
                unfair.num_seeds().to_string(),
                unfair.cover.as_ref().is_some_and(|c| c.reached).to_string(),
            ]);
            table.push_row(vec![
                "P6".to_string(),
                fair.num_seeds().to_string(),
                fair.cover.as_ref().is_some_and(|c| c.reached).to_string(),
            ]);
            outputs.push(("fig10c_quota_sizes".to_string(), table));
        }
    }

    outputs
}
