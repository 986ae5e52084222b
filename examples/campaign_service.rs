//! Campaign serving: answer a grid of `(deadline τ, budget B, fairness)`
//! queries against one social network through the cached batch engine, and
//! show what the cache saves versus re-building the estimator per query.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example campaign_service
//! ```

use std::time::Instant;

use fairtcim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The serving workload: a campaign planner sweeping deadlines and
    //    budgets over the paper's synthetic network, fair and unfair, as
    //    JSONL protocol requests (exactly what `tcim_serve` reads line by
    //    line from stdin).
    let mut requests = Vec::new();
    for tau in [2u32, 5, 8] {
        for budget in [5usize, 10] {
            for fair in [false, true] {
                let line = format!(
                    r#"{{"id":"tau{tau}-b{budget}-{}","op":"solve_budget","dataset":"synthetic","deadline":{tau},"samples":200,"budget":{budget},"fair":{fair}}}"#,
                    if fair { "fair" } else { "p1" }
                );
                requests.push(Request::parse_line(&line)?);
            }
        }
    }

    // 2. One engine, one shared oracle cache: the live-edge worlds sample
    //    once and every (τ, B, fairness) combination reuses them.
    let engine = ServiceEngine::new(ParallelismConfig::auto());
    #[expect(
        clippy::disallowed_methods,
        reason = "demo-only batch timing printed to the console, never in a response"
    )]
    let started = Instant::now();
    let responses = engine.serve_batch(&requests);
    let batch_ms = started.elapsed().as_secs_f64() * 1e3;

    println!("{:<18} {:>8} {:>10} {:>10}", "query", "seeds", "coverage", "disparity");
    for response in &responses {
        let id = response.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        if response.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            println!("{id:<18} failed: {:?}", response.get("error"));
            continue;
        }
        let seeds = response.get("seeds").and_then(|v| v.as_arr()).map(<[_]>::len).unwrap_or(0);
        let coverage = response.get("total_fraction").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let disparity = response.get("disparity").and_then(|v| v.as_f64()).unwrap_or(0.0);
        println!("{id:<18} {seeds:>8} {coverage:>10.3} {disparity:>10.3}");
        // Every solve response echoes the canonical ProblemSpec it executed:
        // a stored response line is self-describing.
        assert!(response.get("spec").and_then(|v| v.as_str()).is_some());
    }

    // 3. The cache is what makes the sweep cheap: 12 queries, one world
    //    sample. A second identical batch is pure cache hits — and, by the
    //    determinism contract, byte-identical.
    let stats = engine.cache().stats();
    println!(
        "\nserved {} queries in {batch_ms:.0} ms: world pool sampled {} time(s), reused {} time(s)",
        requests.len(),
        stats.world_misses,
        stats.world_hits
    );
    let again = engine.serve_batch(&requests);
    assert_eq!(
        responses.iter().map(ToString::to_string).collect::<Vec<_>>(),
        again.iter().map(ToString::to_string).collect::<Vec<_>>(),
        "cache hits must be byte-identical to cold serves",
    );
    println!("second pass: all {} answers served from cache, byte-identical", again.len());
    Ok(())
}
