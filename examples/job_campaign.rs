//! Time-critical job-advertisement campaign (budget setting).
//!
//! Scenario from the paper's introduction: a job posting with an application
//! deadline is propagated through a university social network. The campaign
//! can only afford to contact `B = 30` students directly; everyone who hears
//! about the posting *before the deadline* can apply. The network has four
//! age cohorts with very different connectivity (the Rice-Facebook setting),
//! so the naive campaign concentrates on the best-connected cohort while the
//! youngest cohort barely hears about it in time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example job_campaign -- [deadline] [budget]
//! ```

use std::sync::Arc;

use fairtcim::datasets::rice::{rice_facebook_surrogate, RICE_SAMPLES};
use fairtcim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let deadline: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let budget: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);

    println!("job-campaign scenario: deadline τ = {deadline}, budget B = {budget}");
    let graph = Arc::new(rice_facebook_surrogate(7)?);
    println!(
        "university network: {} students, {} ties, cohort sizes {:?}",
        graph.num_nodes(),
        graph.num_edges() / 2,
        graph.group_sizes()
    );

    // Fewer worlds than the paper's 500 keep the example fast; pass a higher
    // deadline/budget on the command line to explore.
    let oracle = WorldEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(deadline),
        &WorldsConfig { num_worlds: RICE_SAMPLES.min(200), seed: 3 },
    )?;

    // Baselines the campaign team might try first.
    let degree = evaluate_seed_set(&oracle, &top_degree_seeds(&graph, budget), "top-degree")?;
    let random = evaluate_seed_set(&oracle, &random_seeds(&graph, budget, 11), "random")?;

    // The optimized campaigns: one spec, one fairness variant.
    let p1 = ProblemSpec::budget(budget)?.with_deadline(deadline);
    let p4 = p1.clone().with_fairness_wrapper(ConcaveWrapper::Log)?;
    let unfair = solve(&oracle, &p1)?;
    let fair = solve(&oracle, &p4)?;

    println!(
        "\n{:<14} {:>10} {:>12} {:>12} {:>12}",
        "strategy", "reached", "best cohort", "worst cohort", "disparity"
    );
    for report in [&random, &degree, &unfair, &fair] {
        let fairness = report.fairness();
        let best = fairness.normalized_utilities.iter().cloned().fold(f64::MIN, f64::max);
        let worst = fairness.normalized_utilities.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "{:<14} {:>9.3} {:>12.3} {:>12.3} {:>12.3}",
            report.label, fairness.total_fraction, best, worst, fairness.disparity
        );
    }

    println!(
        "\nThe fair campaign trades {:.1}% of total reach for a {:.1}% reduction in the \
         cohort gap — every cohort hears about the job before the deadline at a comparable rate.",
        100.0 * (1.0 - fair.influence.total() / unfair.influence.total().max(f64::MIN_POSITIVE)),
        100.0 * (1.0 - fair.disparity() / unfair.disparity().max(f64::MIN_POSITIVE)),
    );
    Ok(())
}
