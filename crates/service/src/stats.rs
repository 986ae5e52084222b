//! Serving-tier observability: lock-cheap request/latency/connection
//! counters aggregated by [`ServerStats`] and snapshotted on demand.
//!
//! Every counter is a plain atomic — recording a request is a handful of
//! `fetch_add`s plus one histogram bucket increment, cheap enough to sit on
//! the hot serving path of every response. Latencies go into per-op
//! power-of-two histograms ([`LatencyHistogram`]), so p50/p99 come out of a
//! 40-bucket walk instead of a sorted sample buffer.
//!
//! A [`StatsSnapshot`] is the *typed* read side: the `{"op":"stats"}` wire
//! operation renders one as JSON (see [`StatsSnapshot::fields`]), and the
//! server logs one line ([`StatsSnapshot::summary_line`]) on shutdown. The
//! snapshot is telemetry, not protocol state: it depends on load, timing and
//! cache temperature by design, which is exactly why it lives beside — not
//! inside — the deterministic query responses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::cache::{CacheStats, ShardStats};
use crate::minijson::Json;
use crate::protocol::Op;

/// The fixed set of wire operations the stats layer tracks, in the order
/// they render in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `solve_budget` requests (P1 / P3 / P4).
    SolveBudget,
    /// `solve_cover` requests (P2 / P5 / P6).
    SolveCover,
    /// `audit` requests.
    Audit,
    /// `estimate` requests.
    Estimate,
    /// `mutate` requests (graph churn).
    Mutate,
    /// `stats` requests (yes, asking for stats is itself counted).
    Stats,
    /// `ping` requests.
    Ping,
    /// `shutdown` requests.
    Shutdown,
}

impl OpKind {
    /// Every kind, in snapshot render order.
    pub const ALL: [OpKind; 8] = [
        OpKind::SolveBudget,
        OpKind::SolveCover,
        OpKind::Audit,
        OpKind::Estimate,
        OpKind::Mutate,
        OpKind::Stats,
        OpKind::Ping,
        OpKind::Shutdown,
    ];

    /// The protocol name (matches [`Op::label`]).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::SolveBudget => "solve_budget",
            OpKind::SolveCover => "solve_cover",
            OpKind::Audit => "audit",
            OpKind::Estimate => "estimate",
            OpKind::Mutate => "mutate",
            OpKind::Stats => "stats",
            OpKind::Ping => "ping",
            OpKind::Shutdown => "shutdown",
        }
    }

    /// The stats bucket a parsed operation belongs to.
    pub fn of(op: &Op) -> OpKind {
        match op {
            Op::Solve(spec) => match spec.objective {
                tcim_core::Objective::Budget { .. } => OpKind::SolveBudget,
                tcim_core::Objective::Cover { .. } => OpKind::SolveCover,
            },
            Op::Audit { .. } => OpKind::Audit,
            Op::Estimate { .. } => OpKind::Estimate,
            Op::Mutate { .. } => OpKind::Mutate,
            Op::Stats => OpKind::Stats,
            Op::Ping => OpKind::Ping,
            Op::Shutdown => OpKind::Shutdown,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "OpKind::ALL enumerates every variant of this non-exhaustive-proof enum"
    )]
    fn index(self) -> usize {
        OpKind::ALL.iter().position(|k| *k == self).expect("OpKind::ALL covers every kind")
    }
}

/// Number of power-of-two latency buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` microseconds, so 40 buckets span 1 µs to ~12 days.
const BUCKETS: usize = 40;

/// A fixed-size power-of-two latency histogram over microseconds.
///
/// Recording is one atomic increment; quantiles are read by walking the
/// bucket counts and reporting the matched bucket's inclusive upper bound
/// (`2^(i+1) - 1` µs) — a conservative estimate whose resolution tracks
/// magnitude, which is what p50/p99 dashboards actually need.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // A `const` item is promoted per array slot (the usual trick for
        // arrays of non-`Copy` atomics).
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHistogram { buckets: [ZERO; BUCKETS] }
    }

    fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the bucket counts (a relaxed, non-atomic-across-buckets view —
    /// fine for telemetry).
    pub fn counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0u64; BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        counts
    }
}

/// The inclusive upper bound (µs) of bucket `i`.
fn bucket_upper_bound_us(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// The `q`-quantile (`0 < q <= 1`) of a bucket-count array, as the upper
/// bound of the bucket holding the target observation; `None` when empty.
fn quantile_us(counts: &[u64; BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    // ceil(q * total), clamped to [1, total]: the rank of the target sample.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= target {
            return Some(bucket_upper_bound_us(i));
        }
    }
    Some(bucket_upper_bound_us(BUCKETS - 1))
}

#[derive(Default)]
struct OpCounters {
    count: AtomicU64,
    errors: AtomicU64,
    histogram: LatencyHistogram,
}

/// Lock-cheap aggregator of serving metrics: per-op request counts and
/// latency histograms, parse-failure counts, in-flight/connection gauges.
///
/// One instance lives inside every [`ServiceEngine`](crate::ServiceEngine)
/// (which records each served request) and is shared with the socket
/// [`Server`](crate::server::Server) (which records connection lifecycle).
/// All methods take `&self` and are safe to call from any thread.
pub struct ServerStats {
    start: Instant,
    ops: [OpCounters; OpKind::ALL.len()],
    parse_errors: AtomicU64,
    inflight: AtomicU64,
    peak_inflight: AtomicU64,
    active_connections: AtomicU64,
    peak_connections: AtomicU64,
    total_connections: AtomicU64,
    rejected_connections: AtomicU64,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

impl ServerStats {
    /// A zeroed aggregator; uptime counts from this moment.
    pub fn new() -> Self {
        ServerStats {
            #[expect(
                clippy::disallowed_methods,
                reason = "the stats module timestamps requests for the latency histograms"
            )]
            start: Instant::now(),
            ops: Default::default(),
            parse_errors: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            peak_inflight: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            total_connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
        }
    }

    /// Marks a request in flight (bumps the gauge and its peak).
    pub fn request_started(&self) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_inflight.fetch_max(now, Ordering::Relaxed);
    }

    /// Marks a request finished, recording its op, outcome and latency.
    pub fn request_finished(&self, op: OpKind, ok: bool, latency: Duration) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        let counters = &self.ops[op.index()];
        counters.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        counters.histogram.record(latency);
    }

    /// Records a line that never became a request (malformed JSON or an
    /// invalid field set).
    pub fn record_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an accepted connection (bumps active/peak/total).
    pub fn connection_opened(&self) {
        let now = self.active_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
        self.total_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a closed connection.
    pub fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a connection turned away by the `max_connections` cap.
    pub fn connection_rejected(&self) {
        self.rejected_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot joined with the cache's hit/miss/budget
    /// counters and its per-shard breakdown.
    pub fn snapshot(&self, cache: CacheStats, shards: Vec<ShardStats>) -> StatsSnapshot {
        let mut per_op = Vec::new();
        let mut merged = [0u64; BUCKETS];
        let mut total = 0u64;
        let mut errors = 0u64;
        for kind in OpKind::ALL {
            let counters = &self.ops[kind.index()];
            let count = counters.count.load(Ordering::Relaxed);
            let counts = counters.histogram.counts();
            for (slot, c) in merged.iter_mut().zip(&counts) {
                *slot += c;
            }
            total += count;
            let op_errors = counters.errors.load(Ordering::Relaxed);
            errors += op_errors;
            if count > 0 {
                per_op.push(OpSnapshot {
                    op: kind.label(),
                    count,
                    errors: op_errors,
                    p50_us: quantile_us(&counts, 0.50),
                    p99_us: quantile_us(&counts, 0.99),
                });
            }
        }
        StatsSnapshot {
            uptime_ms: self.start.elapsed().as_secs_f64() * 1e3,
            total_requests: total,
            total_errors: errors,
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            p50_us: quantile_us(&merged, 0.50),
            p99_us: quantile_us(&merged, 0.99),
            per_op,
            inflight: self.inflight.load(Ordering::Relaxed),
            peak_inflight: self.peak_inflight.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            total_connections: self.total_connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            cache,
            shards,
        }
    }
}

/// One operation's slice of a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Protocol op name.
    pub op: &'static str,
    /// Requests served (successes and failures).
    pub count: u64,
    /// Requests answered `"ok": false`.
    pub errors: u64,
    /// Median latency (µs, bucket upper bound); `None` when `count` is 0.
    pub p50_us: Option<u64>,
    /// 99th-percentile latency (µs, bucket upper bound).
    pub p99_us: Option<u64>,
}

/// A typed point-in-time view of a [`ServerStats`], as returned by the
/// `{"op":"stats"}` wire operation.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Milliseconds since the engine was created.
    pub uptime_ms: f64,
    /// Requests served across all ops.
    pub total_requests: u64,
    /// Requests answered `"ok": false`.
    pub total_errors: u64,
    /// Lines that never parsed into a request.
    pub parse_errors: u64,
    /// Median latency across all ops (µs).
    pub p50_us: Option<u64>,
    /// 99th-percentile latency across all ops (µs).
    pub p99_us: Option<u64>,
    /// Per-op breakdown (ops with at least one request, in fixed order).
    pub per_op: Vec<OpSnapshot>,
    /// Requests currently executing.
    pub inflight: u64,
    /// High-water mark of `inflight`.
    pub peak_inflight: u64,
    /// Open connections right now (0 in batch mode).
    pub active_connections: u64,
    /// High-water mark of open connections.
    pub peak_connections: u64,
    /// Connections accepted over the server's lifetime.
    pub total_connections: u64,
    /// Connections turned away by the `max_connections` cap.
    pub rejected_connections: u64,
    /// The oracle cache's hit/miss and budget counters.
    pub cache: CacheStats,
    /// The cache's per-shard budget breakdown, in shard order.
    pub shards: Vec<ShardStats>,
}

fn opt_us(us: Option<u64>) -> Json {
    match us {
        Some(us) => Json::Num(us as f64),
        None => Json::Null,
    }
}

fn rate(hits: u64, misses: u64) -> Json {
    let total = hits + misses;
    if total == 0 {
        Json::Null
    } else {
        Json::Num(hits as f64 / total as f64)
    }
}

impl StatsSnapshot {
    /// Renders the snapshot as the result fields of a `stats` response.
    pub fn fields(&self) -> Vec<(String, Json)> {
        let per_op: Vec<(String, Json)> = self
            .per_op
            .iter()
            .map(|op| {
                (
                    op.op.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(op.count as f64)),
                        ("errors".into(), Json::Num(op.errors as f64)),
                        ("p50_us".into(), opt_us(op.p50_us)),
                        ("p99_us".into(), opt_us(op.p99_us)),
                    ]),
                )
            })
            .collect();
        let cache = &self.cache;
        vec![
            ("uptime_ms".into(), Json::Num(self.uptime_ms)),
            (
                "requests".into(),
                Json::Obj(vec![
                    ("total".into(), Json::Num(self.total_requests as f64)),
                    ("errors".into(), Json::Num(self.total_errors as f64)),
                    ("parse_errors".into(), Json::Num(self.parse_errors as f64)),
                    ("p50_us".into(), opt_us(self.p50_us)),
                    ("p99_us".into(), opt_us(self.p99_us)),
                    ("per_op".into(), Json::Obj(per_op)),
                ]),
            ),
            ("inflight".into(), Json::Num(self.inflight as f64)),
            ("peak_inflight".into(), Json::Num(self.peak_inflight as f64)),
            (
                "connections".into(),
                Json::Obj(vec![
                    ("active".into(), Json::Num(self.active_connections as f64)),
                    ("peak".into(), Json::Num(self.peak_connections as f64)),
                    ("total".into(), Json::Num(self.total_connections as f64)),
                    ("rejected".into(), Json::Num(self.rejected_connections as f64)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    (
                        "oracles".into(),
                        Json::Obj(vec![
                            ("hits".into(), Json::Num(cache.oracle_hits as f64)),
                            ("misses".into(), Json::Num(cache.oracle_misses as f64)),
                            ("hit_rate".into(), rate(cache.oracle_hits, cache.oracle_misses)),
                        ]),
                    ),
                    (
                        "worlds".into(),
                        Json::Obj(vec![
                            ("hits".into(), Json::Num(cache.world_hits as f64)),
                            ("misses".into(), Json::Num(cache.world_misses as f64)),
                            ("hit_rate".into(), rate(cache.world_hits, cache.world_misses)),
                        ]),
                    ),
                    (
                        "graphs".into(),
                        Json::Obj(vec![
                            ("hits".into(), Json::Num(cache.graph_hits as f64)),
                            ("misses".into(), Json::Num(cache.graph_misses as f64)),
                        ]),
                    ),
                    (
                        "lt".into(),
                        Json::Obj(vec![
                            ("hits".into(), Json::Num(cache.lt_hits as f64)),
                            ("misses".into(), Json::Num(cache.lt_misses as f64)),
                        ]),
                    ),
                    // Dynamic-graph telemetry: how often solves rode the
                    // incremental refresh/patch paths instead of cold builds.
                    (
                        "churn".into(),
                        Json::Obj(vec![
                            ("mutations".into(), Json::Num(cache.mutations as f64)),
                            ("ris_refreshes".into(), Json::Num(cache.ris_refreshes as f64)),
                            (
                                "ris_sets_resampled".into(),
                                Json::Num(cache.ris_sets_resampled as f64),
                            ),
                            ("world_patches".into(), Json::Num(cache.world_patches as f64)),
                        ]),
                    ),
                    // Aggregate budget figures render before the per-shard
                    // array, so a flat text scan finds the totals first.
                    ("bytes_used".into(), Json::Num(cache.bytes_used as f64)),
                    ("bytes_budget".into(), Json::Num(cache.bytes_budget as f64)),
                    ("evictions".into(), Json::Num(cache.evictions as f64)),
                    (
                        "shards".into(),
                        Json::Arr(
                            self.shards
                                .iter()
                                .map(|shard| {
                                    Json::Obj(vec![
                                        ("bytes_used".into(), Json::Num(shard.bytes_used as f64)),
                                        (
                                            "bytes_budget".into(),
                                            Json::Num(shard.bytes_budget as f64),
                                        ),
                                        ("peak_bytes".into(), Json::Num(shard.peak_bytes as f64)),
                                        ("evictions".into(), Json::Num(shard.evictions as f64)),
                                        ("entries".into(), Json::Num(shard.entries as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]
    }

    /// One human-readable line — what the server logs at shutdown and what
    /// `tcim_serve` prints after a batch.
    pub fn summary_line(&self) -> String {
        let fmt_us = |us: Option<u64>| match us {
            Some(us) => format!("{us}us"),
            None => "-".to_string(),
        };
        format!(
            "served {} request(s) ({} failed, {} unparsable): p50 {} p99 {}; oracle cache {} \
             hit(s) / {} miss(es), world pool {} hit(s) / {} miss(es), {}/{} cache byte(s) used, \
             {} eviction(s); connections {} total, peak {}, {} rejected; peak in-flight {}",
            self.total_requests,
            self.total_errors,
            self.parse_errors,
            fmt_us(self.p50_us),
            fmt_us(self.p99_us),
            self.cache.oracle_hits,
            self.cache.oracle_misses,
            self.cache.world_hits,
            self.cache.world_misses,
            self.cache.bytes_used,
            self.cache.bytes_budget,
            self.cache.evictions,
            self.total_connections,
            self.peak_connections,
            self.rejected_connections,
            self.peak_inflight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude_and_quantiles_walk_upward() {
        let h = LatencyHistogram::new();
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKETS - 1);

        // 99 fast observations and one slow one: p50 stays in the fast
        // bucket, p99 lands in the slow one.
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket 6: [64, 128)
        }
        h.record(Duration::from_micros(100_000)); // bucket 16
        let counts = h.counts();
        assert_eq!(quantile_us(&counts, 0.50), Some(127));
        assert_eq!(quantile_us(&counts, 0.99), Some(127));
        assert_eq!(quantile_us(&counts, 1.0), Some(131_071));
        assert_eq!(quantile_us(&[0; BUCKETS], 0.5), None);
    }

    #[test]
    fn records_roll_up_into_snapshots() {
        let stats = ServerStats::new();
        stats.request_started();
        stats.request_started();
        stats.request_finished(OpKind::SolveBudget, true, Duration::from_micros(80));
        stats.request_finished(OpKind::SolveBudget, false, Duration::from_micros(80));
        stats.request_started();
        stats.request_finished(OpKind::Ping, true, Duration::from_micros(1));
        stats.record_parse_error();
        stats.connection_opened();
        stats.connection_opened();
        stats.connection_closed();
        stats.connection_rejected();

        let snap = stats.snapshot(
            CacheStats {
                oracle_hits: 3,
                oracle_misses: 1,
                lt_hits: 2,
                lt_misses: 1,
                mutations: 2,
                ris_refreshes: 4,
                ris_sets_resampled: 37,
                world_patches: 3,
                bytes_used: 300,
                bytes_budget: 1024,
                evictions: 5,
                ..Default::default()
            },
            vec![
                ShardStats {
                    bytes_used: 300,
                    bytes_budget: 512,
                    peak_bytes: 400,
                    evictions: 5,
                    entries: 2,
                },
                ShardStats { bytes_budget: 512, ..Default::default() },
            ],
        );
        assert_eq!(snap.total_requests, 3);
        assert_eq!(snap.total_errors, 1);
        assert_eq!(snap.parse_errors, 1);
        assert_eq!(snap.inflight, 0);
        assert_eq!(snap.peak_inflight, 2);
        assert_eq!(snap.active_connections, 1);
        assert_eq!(snap.peak_connections, 2);
        assert_eq!(snap.total_connections, 2);
        assert_eq!(snap.rejected_connections, 1);
        // Only ops that saw traffic appear, in fixed order.
        let ops: Vec<&str> = snap.per_op.iter().map(|o| o.op).collect();
        assert_eq!(ops, vec!["solve_budget", "ping"]);
        assert_eq!(snap.per_op[0].count, 2);
        assert_eq!(snap.per_op[0].errors, 1);
        assert!(snap.per_op[0].p50_us.is_some());

        // The JSON rendering carries the acceptance-critical fields.
        let json = Json::Obj(snap.fields());
        assert_eq!(
            json.get("cache").unwrap().get("oracles").unwrap().get("hit_rate").unwrap().as_f64(),
            Some(0.75)
        );
        let cache = json.get("cache").unwrap();
        assert_eq!(cache.get("lt").unwrap().get("hits").unwrap().as_f64(), Some(2.0));
        assert_eq!(cache.get("lt").unwrap().get("misses").unwrap().as_f64(), Some(1.0));
        let churn = cache.get("churn").unwrap();
        assert_eq!(churn.get("mutations").unwrap().as_f64(), Some(2.0));
        assert_eq!(churn.get("ris_refreshes").unwrap().as_f64(), Some(4.0));
        assert_eq!(churn.get("ris_sets_resampled").unwrap().as_f64(), Some(37.0));
        assert_eq!(churn.get("world_patches").unwrap().as_f64(), Some(3.0));
        assert_eq!(cache.get("bytes_used").unwrap().as_f64(), Some(300.0));
        assert_eq!(cache.get("bytes_budget").unwrap().as_f64(), Some(1024.0));
        assert_eq!(cache.get("evictions").unwrap().as_f64(), Some(5.0));
        let Some(Json::Arr(shards)) = cache.get("shards") else {
            panic!("shards must render as an array");
        };
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("peak_bytes").unwrap().as_f64(), Some(400.0));
        assert_eq!(shards[1].get("bytes_budget").unwrap().as_f64(), Some(512.0));
        assert_eq!(shards[1].get("entries").unwrap().as_f64(), Some(0.0));
        assert!(json.get("requests").unwrap().get("p50_us").unwrap().as_f64().is_some());
        assert!(json.get("requests").unwrap().get("p99_us").unwrap().as_f64().is_some());
        let per_op = json.get("requests").unwrap().get("per_op").unwrap();
        assert_eq!(per_op.get("ping").unwrap().get("count").unwrap().as_f64(), Some(1.0));
        // Summary line mentions the headline numbers.
        let line = snap.summary_line();
        assert!(line.contains("served 3 request(s)"), "{line}");
        assert!(line.contains("p50"), "{line}");
        assert!(line.contains("300/1024 cache byte(s) used"), "{line}");
        assert!(line.contains("5 eviction(s)"), "{line}");
    }

    #[test]
    fn op_kinds_cover_the_protocol() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::ALL[kind.index()], kind);
        }
        assert_eq!(OpKind::of(&Op::Ping), OpKind::Ping);
        assert_eq!(OpKind::of(&Op::Stats), OpKind::Stats);
        assert_eq!(OpKind::of(&Op::Shutdown), OpKind::Shutdown);
        assert_eq!(OpKind::of(&Op::Audit { seeds: vec![] }), OpKind::Audit);
        assert_eq!(OpKind::of(&Op::Estimate { seeds: vec![] }), OpKind::Estimate);
    }
}
