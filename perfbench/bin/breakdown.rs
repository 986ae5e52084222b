//! Per-layer metrics from the traced replay's spans.
//!
//! Per-request figures (`*_us`) are medians over every replayed line;
//! build, mutation, sampling and solve figures (`*_ms`) are totals over the
//! whole replay (warm-up, traffic and coverage tail); hit rates and the
//! layer shares cover the traffic lines only, which is what the timed run
//! serves.

use std::time::Duration;

use crate::stats::median;
use crate::trace::{self_times, Layer, Outcome, Section, Traced, Untraced};

/// A metric as it is printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// Work counters of one traced replay. They depend only on the replayed
/// lines, so two replays of one seed must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub gain_evaluations: u64,
    pub worlds_sampled: u64,
    pub world_patches: u64,
    pub rr_sets_sampled: u64,
    pub ris_refreshes: u64,
    pub edges_built: u64,
    pub mutations: u64,
    /// Traffic-only oracle and world-pool lookups and their hits.
    pub oracle_lookups: u64,
    pub oracle_hits: u64,
    pub world_lookups: u64,
    pub world_hits: u64,
}

pub fn counters(traced: &Traced) -> Counters {
    let mut c = Counters::default();
    for span in &traced.spans {
        match (span.layer, span.outcome) {
            (Layer::Solve, _) => c.gain_evaluations += span.work,
            (Layer::Worlds, Outcome::Miss) => c.worlds_sampled += span.work,
            (Layer::Worlds, Outcome::Patch) => c.world_patches += 1,
            (Layer::Oracle, Outcome::Miss) => c.rr_sets_sampled += span.work,
            (Layer::Oracle, Outcome::Refresh) => c.ris_refreshes += 1,
            (Layer::Graph, Outcome::Miss) => c.edges_built += span.work,
            (Layer::Mutate, _) => c.mutations += 1,
            _ => {}
        }
        if matches!(traced.sections[span.request], Section::Traffic) {
            let hit = u64::from(span.outcome == Outcome::Hit);
            match span.layer {
                Layer::Oracle => {
                    c.oracle_lookups += 1;
                    c.oracle_hits += hit;
                }
                Layer::Worlds => {
                    c.world_lookups += 1;
                    c.world_hits += hit;
                }
                _ => {}
            }
        }
    }
    c
}

/// Lines whose traced children take less than this feed `engine.self_us`.
const CHEAP_US: f64 = 250.0;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The layer each span's time is charged to in the traffic shares.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Share {
    Serving,
    Build,
    Churn,
    Core,
    Evaluate,
}

const SHARES: [(Share, &str); 5] = [
    (Share::Serving, "serving"),
    (Share::Build, "build"),
    (Share::Churn, "churn"),
    (Share::Core, "core"),
    (Share::Evaluate, "evaluate"),
];

fn share_of(layer: Layer, outcome: Outcome) -> Option<Share> {
    match (layer, outcome) {
        (Layer::Request, _) => None,
        (Layer::Parse | Layer::Render, _) => Some(Share::Serving),
        (Layer::Graph | Layer::Lt | Layer::Worlds | Layer::Oracle, Outcome::Hit) => {
            Some(Share::Serving)
        }
        (Layer::Mutate, _)
        | (Layer::Worlds, Outcome::Patch)
        | (Layer::Oracle, Outcome::Refresh) => Some(Share::Churn),
        (Layer::Graph | Layer::Lt | Layer::Worlds | Layer::Oracle, _) => Some(Share::Build),
        (Layer::Solve | Layer::Audit, _) => Some(Share::Core),
        (Layer::Evaluate, _) => Some(Share::Evaluate),
    }
}

/// Time shares per layer group, in percent.
pub type Shares = Vec<(&'static str, f64)>;

/// Every per-layer metric, plus the time shares per layer group (serving =
/// protocol + server + engine + cache hits) of the traffic and of its reads,
/// the traffic lines that solve nothing.
pub fn layer_metrics(
    traced: &Traced,
    untraced: &Untraced,
    ping_rtt_us: f64,
) -> (Vec<Metric>, Shares, Shares) {
    let spans = &traced.spans;
    let own = self_times(spans);
    let durations = |keep: &dyn Fn(Layer, Outcome) -> bool| -> Vec<f64> {
        spans.iter().filter(|s| keep(s.layer, s.outcome)).map(|s| us(s.duration())).collect()
    };
    let total = |keep: &dyn Fn(Layer, Outcome) -> bool| -> f64 {
        ms(spans.iter().filter(|s| keep(s.layer, s.outcome)).map(|s| s.duration()).sum())
    };
    let is_cache = |l: Layer| matches!(l, Layer::Graph | Layer::Lt | Layer::Worlds | Layer::Oracle);

    // Engine self time: `serve` (untraced) minus what the traced replay's
    // cache, compute and render spans of the same line cover. The median is
    // taken over cheap lines only, where the jitter of re-running the
    // compute stays small against the engine's own microseconds.
    let self_us: Vec<(f64, f64)> = traced
        .roots
        .iter()
        .enumerate()
        .map(|(ix, &root)| {
            let parse: Duration = spans
                .iter()
                .filter(|s| s.parent == Some(root) && s.layer == Layer::Parse)
                .map(|s| s.duration())
                .sum();
            let children = us(spans[root].duration() - own[root] - parse);
            (us(untraced.serve[ix]) - children, children)
        })
        .collect();
    let mut engine_self: Vec<f64> = self_us
        .iter()
        .filter(|(_, children)| *children < CHEAP_US)
        .map(|(engine, _)| *engine)
        .collect();

    let mut solves = vec![false; traced.roots.len()];
    for span in spans.iter().filter(|s| s.layer == Layer::Solve) {
        solves[span.request] = true;
    }
    // Per group: [all traffic lines, reads only].
    let mut shares = [[0.0f64; 2]; SHARES.len()];
    let mut charge = |request: usize, share: Share, us: f64| {
        if matches!(traced.sections[request], Section::Traffic) {
            shares[share as usize][0] += us;
            if !solves[request] {
                shares[share as usize][1] += us;
            }
        }
    };
    for span in spans {
        if let Some(share) = share_of(span.layer, span.outcome) {
            charge(span.request, share, us(span.duration()));
        }
    }
    for (ix, &(engine, _)) in self_us.iter().enumerate() {
        charge(ix, Share::Serving, engine.max(0.0) + ping_rtt_us);
    }
    let percent = |column: usize| -> Shares {
        let whole: f64 = shares.iter().map(|s| s[column]).sum();
        SHARES
            .iter()
            .map(|&(s, name)| (name, 100.0 * shares[s as usize][column] / whole.max(1e-9)))
            .collect()
    };
    let (shares, read_shares) = (percent(0), percent(1));

    let c = counters(traced);
    let solve_ms = total(&|l, _| l == Layer::Solve);
    let mut metrics = vec![
        metric("protocol.parse_us", median(&mut durations(&|l, _| l == Layer::Parse)), "us"),
        metric("protocol.render_us", median(&mut durations(&|l, _| l == Layer::Render)), "us"),
        metric("server.ping_rtt_us", ping_rtt_us, "us"),
        metric("engine.self_us", median(&mut engine_self), "us"),
        metric(
            "cache.hit_us",
            median(&mut durations(&|l, o| is_cache(l) && o == Outcome::Hit)),
            "us",
        ),
        metric("cache.oracle_hit_rate", ratio(c.oracle_hits, c.oracle_lookups), "ratio"),
        metric("cache.world_hit_rate", ratio(c.world_hits, c.world_lookups), "ratio"),
        metric("cache.bytes_peak_mb", traced.bytes_peak as f64 / (1u64 << 20) as f64, "MiB"),
        metric("cache.evictions", traced.cache.evictions as f64, "count"),
        metric("graph.build_ms", total(&|l, o| l == Layer::Graph && o == Outcome::Miss), "ms"),
        metric("graph.edges_built", c.edges_built as f64, "count"),
        metric("cache.lt_build_ms", total(&|l, o| l == Layer::Lt && o == Outcome::Miss), "ms"),
        metric("graph.mutate_ms", total(&|l, _| l == Layer::Mutate), "ms"),
        metric("graph.mutations", c.mutations as f64, "count"),
        metric(
            "diffusion.worlds_sample_ms",
            total(&|l, o| l == Layer::Worlds && o == Outcome::Miss),
            "ms",
        ),
        metric("diffusion.worlds_sampled", c.worlds_sampled as f64, "count"),
        metric(
            "diffusion.world_patch_ms",
            total(&|l, o| l == Layer::Worlds && o == Outcome::Patch),
            "ms",
        ),
        metric("diffusion.world_patches", c.world_patches as f64, "count"),
        metric(
            "diffusion.ris_build_ms",
            ms(spans
                .iter()
                .filter(|s| s.layer == Layer::Oracle && s.outcome == Outcome::Miss && s.ris)
                .map(|s| s.duration())
                .sum()),
            "ms",
        ),
        metric("diffusion.rr_sets_sampled", c.rr_sets_sampled as f64, "count"),
        metric(
            "diffusion.ris_refresh_ms",
            total(&|l, o| l == Layer::Oracle && o == Outcome::Refresh),
            "ms",
        ),
        metric("diffusion.ris_refreshes", c.ris_refreshes as f64, "count"),
        metric("diffusion.evaluate_us", median(&mut durations(&|l, _| l == Layer::Evaluate)), "us"),
        metric("core.solve_ms", solve_ms, "ms"),
    ];
    for k in 0..6 {
        let problem_ms = ms(spans
            .iter()
            .filter(|s| s.layer == Layer::Solve && s.problem == Some(k))
            .map(|s| s.duration())
            .sum());
        metrics.push(metric(&format!("core.solve_ms.P{}", k + 1), problem_ms, "ms"));
    }
    metrics.push(metric("core.gain_evaluations", c.gain_evaluations as f64, "count"));
    metrics.push(metric(
        "core.us_per_gain_eval",
        1e3 * solve_ms / c.gain_evaluations.max(1) as f64,
        "us",
    ));
    metrics.push(metric(
        "trace.overhead_pct",
        100.0 * (traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0),
        "%",
    ));
    (metrics, shares, read_shares)
}
