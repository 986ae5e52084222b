//! Public-health outreach with a coverage quota (cover setting).
//!
//! Scenario: a health agency must inform at least a fraction `Q` of the
//! population about a time-limited programme (e.g. a vaccination drive that
//! closes after a few weeks). Outreach workers are expensive, so the agency
//! wants the *smallest* set of initially informed people. The population has
//! a majority and a minority community with little contact between them;
//! the naive plan meets the quota entirely inside the majority community.
//! The fair plan (FAIRTCIM-COVER) requires every community to reach the
//! quota, at the cost of a few more outreach workers (Theorem 2 bounds how
//! many).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example health_outreach -- [quota] [deadline]
//! ```

use std::sync::Arc;

use fairtcim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let quota: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.2);
    let deadline: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);

    println!("health-outreach scenario: quota Q = {quota}, deadline τ = {deadline}");

    // The Section 6.1 synthetic population: 70/30 split, homophilous.
    let config = SyntheticConfig::default();
    let graph = Arc::new(config.build()?);
    let oracle = WorldEstimator::new(
        Arc::clone(&graph),
        Deadline::finite(deadline),
        &WorldsConfig { num_worlds: config.samples, seed: 5 },
    )?;

    // P2 and P6 are one ProblemSpec apart: same objective, different
    // fairness mode. Both run through the single `solve` entrypoint.
    let p2 = ProblemSpec::cover(quota)?.with_deadline(deadline);
    let p6 = p2.clone().with_fairness(FairnessMode::GroupQuota { group: None })?;
    let unfair = solve(&oracle, &p2)?;
    let fair = solve(&oracle, &p6)?;

    for report in [&unfair, &fair] {
        let fairness = report.fairness();
        let outcome = report.cover.as_ref().expect("cover solves carry an outcome");
        println!(
            "\n[{}] {} outreach workers, quota reached: {}",
            report.label,
            report.num_seeds(),
            outcome.reached
        );
        println!("  population covered: {:.3}", fairness.total_fraction);
        for (group, fraction) in fairness.normalized_utilities.iter().enumerate() {
            let met = if *fraction + 1e-9 >= quota { "meets quota" } else { "BELOW quota" };
            println!(
                "  community {group} ({} people): {:.3}  [{met}]",
                fairness.group_sizes[group], fraction
            );
        }
    }

    println!(
        "\nThe fair plan needs {} extra outreach workers ({} vs {}) but leaves no community \
         below the quota.",
        fair.num_seeds().saturating_sub(unfair.num_seeds()),
        fair.num_seeds(),
        unfair.num_seeds()
    );

    // Show the per-iteration trajectory (the Fig. 6a view): how each
    // community's coverage grows as workers are added under the fair plan.
    println!("\nfair plan trajectory (workers -> community coverage):");
    for (i, _) in fair.iterations.iter().enumerate() {
        if let Some(snapshot) = fair.fairness_at(i) {
            let per_group: Vec<String> =
                snapshot.normalized_utilities.iter().map(|f| format!("{f:.3}")).collect();
            println!("  {:>3} workers: [{}]", i + 1, per_group.join(", "));
        }
    }
    Ok(())
}
