//! Long-lived oracle state shared across queries, held under a byte budget.
//!
//! Every figure binary and example builds its graph and estimator from
//! scratch per run; a serving process cannot afford that. The
//! [`OracleCache`] keeps the expensive, *reusable* pieces alive and keyed:
//!
//! * built dataset graphs, keyed by `(dataset, dataset seed)`,
//! * [`LtWeights`] tables, keyed the same way (pure functions of the graph),
//! * live-edge [`WorldCollection`]s, keyed by `(dataset, model, world count,
//!   estimator seed)` — deliberately **not** by deadline: a sampled world is
//!   a set of live edges, and the deadline only bounds the BFS that later
//!   runs on it, so one collection backs oracles for every `τ`,
//! * fully built [`Estimator`]s, keyed by the complete [`OracleSpec`].
//!
//! # Memory budget
//!
//! Keys embed request-controlled seeds and sample counts (and inline
//! scenario specs make the key space effectively unbounded), so an
//! unbounded cache fed adversarial or merely long-lived traffic would grow
//! until OOM. Instead of the old per-map entry counts, the cache enforces a
//! single **byte budget** ([`CacheConfig::max_bytes`]): every entry is
//! charged its approximate resident size, computed by the crate that owns
//! each type (`Graph::approx_bytes`, `LtWeights::approx_bytes`,
//! `WorldCollection::approx_bytes`, `Estimator::approx_bytes` — see
//! `docs/CACHE.md` for the derivations). Entries are spread over
//! [`CacheConfig::shards`] shards by an FNV-1a hash of their fingerprint
//! key; each shard owns its own `Mutex` and an equal slice of the budget,
//! so batch fan-out stops serializing on one global lock.
//!
//! Within a shard, eviction is **cost-aware segmented LRU**: a new entry
//! starts in a probation segment, a re-accessed entry is promoted to a
//! protected segment (capped at 4/5 of the shard's slice, demoting its own
//! LRU tail back to probation when it overflows), and when the shard
//! exceeds its slice it evicts the probation tail first. One-shot traffic
//! therefore churns through probation while the entries that are actually
//! re-used survive. Evicting never changes answers: an evicted entry
//! rebuilds deterministically on its next use, and outstanding `Arc`
//! handles keep in-flight queries alive.
//!
//! # One build path
//!
//! All four levels are served by one private method, `OracleCache::cached`:
//! look the key up, take the key's build lock, re-check, count a miss,
//! build, store. Racing cold requests therefore build an entry once, and
//! the hit and miss counters of every level are kept in one place. Every
//! lock in this crate is taken poison-tolerantly: the shard, head and
//! registry locks guard map operations and counters, and the build lock
//! guards `()`, so a panic leaves no broken invariant behind them. A build
//! that panics fails only its own request: its build-lock registry entry is
//! removed on unwind, and the next request for the key builds afresh.
//!
//! # Dynamic graphs
//!
//! [`OracleCache::mutate`] applies [`MutationOp`]s to a dataset's graph and
//! advances its *mutable head*. Every derived key embeds the head's
//! `graph_version` (`{base}@v{g}` for `g > 0`, the bare fingerprint at
//! version 0 so all pre-mutation keys are unchanged), which makes stale
//! worlds/oracles unreachable the instant a mutation lands: they age out of
//! the byte budget instead of being served. Generation `g-2` entries are
//! purged eagerly (crediting their exact charged bytes); generation `g-1`
//! stays resident as the donor for the two incremental rebuild paths — RIS
//! sketch refresh (`RisEstimator::refresh`, invalidating by mutated edge
//! targets) and IC world-pool patching ([`WorldCollection::patch`],
//! re-drawing mutated source rows; every pool draws keyed coins, so this
//! starts at the first mutation). Both are bitwise-identical to the cold
//! rebuild taken when the donor has been evicted, so cache temperature
//! still never changes answers.
//!
//! # Determinism
//!
//! Estimator configs carry no thread count, and every sampling path derives
//! sample `i` from `seed + i` (see `tcim_diffusion::ParallelismConfig`), so
//! a cache hit returns answers bitwise-identical to a cold build at any
//! thread count and any cache temperature, whichever thread built the entry
//! — the service-level tests and the CI golden files pin this down.

use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "the three request-path maps below say why")]
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use tcim_core::{Estimator, EstimatorConfig};
use tcim_datasets::registry::Dataset;
use tcim_diffusion::{Deadline, LtWeights, WorldCollection, WorldsConfig};
use tcim_graph::{Graph, MutationOp, NodeId};

use crate::error::{Result, ServiceError};

/// Which diffusion model the oracle evaluates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Independent cascade (the paper's default).
    IndependentCascade,
    /// Linear threshold (via LT live-edge worlds).
    LinearThreshold,
}

impl ModelKind {
    /// Protocol name ("ic" / "lt").
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::IndependentCascade => "ic",
            ModelKind::LinearThreshold => "lt",
        }
    }

    /// Parses a protocol name.
    ///
    /// # Errors
    ///
    /// Returns a bad-request error naming the unknown model.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "ic" => Ok(ModelKind::IndependentCascade),
            "lt" => Ok(ModelKind::LinearThreshold),
            other => Err(ServiceError::bad_request(format!(
                "unknown model '{other}' (expected 'ic' or 'lt')"
            ))),
        }
    }
}

/// A dataset reference: which registry entry (a named dataset or an inline
/// [`ScenarioSpec`](tcim_datasets::ScenarioSpec)) plus the generation seed.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Registry entry.
    pub dataset: Dataset,
    /// Seed the surrogate / scenario generators use.
    pub seed: u64,
}

impl DatasetSpec {
    /// Resolves a protocol dataset name ("synthetic", "rice-facebook", …)
    /// against the registry. Scenario datasets are not named — they arrive
    /// as inline `"scenario"` objects and are constructed directly.
    ///
    /// # Errors
    ///
    /// Returns a bad-request error listing the valid names.
    pub fn parse(name: &str, seed: u64) -> Result<Self> {
        for dataset in Dataset::ALL {
            if dataset.name() == name {
                return Ok(DatasetSpec { dataset, seed });
            }
        }
        let known: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
        Err(ServiceError::bad_request(format!(
            "unknown dataset '{name}' (expected one of: {})",
            known.join(", ")
        )))
    }

    fn fingerprint(&self) -> String {
        match &self.dataset {
            // A scenario's cache identity is its canonical fingerprint: two
            // requests inlining the same spec (same family, size, groups,
            // weights) and seed share graphs, LT tables and world pools
            // exactly like two requests naming the same dataset.
            Dataset::Scenario(spec) => format!("scenario:{}#{}", spec.fingerprint(), self.seed),
            named => format!("{}#{}", named.name(), self.seed),
        }
    }
}

/// Everything that identifies one influence oracle: the dataset, the
/// diffusion model, the deadline and the estimator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSpec {
    /// Which graph.
    pub dataset: DatasetSpec,
    /// Which diffusion model.
    pub model: ModelKind,
    /// The deadline `τ`.
    pub deadline: Deadline,
    /// Which estimator backend with which knobs.
    pub estimator: EstimatorConfig,
}

impl OracleSpec {
    /// Derives the oracle identity from a [`tcim_core::ProblemSpec`]: the
    /// spec's declared deadline and estimator become the cache coordinates,
    /// so "which oracle serves this solve" is a pure function of
    /// `(dataset, model, spec)`. Specs without a deadline default to
    /// unbounded; specs without an estimator default to the default worlds
    /// config — exactly the protocol defaults.
    pub fn for_spec(dataset: DatasetSpec, model: ModelKind, spec: &tcim_core::ProblemSpec) -> Self {
        OracleSpec {
            dataset,
            model,
            deadline: spec.deadline.unwrap_or_default(),
            estimator: spec.estimator.clone().unwrap_or_default(),
        }
    }

    /// A canonical cache key. The estimator part is
    /// [`EstimatorConfig::fingerprint`] — the same encoding
    /// `ProblemSpec::canonical` embeds. It holds no thread count: estimation
    /// runs under the serving thread's, which never changes a result.
    pub fn fingerprint(&self) -> String {
        self.fingerprint_with_dataset(&self.dataset.fingerprint())
    }

    /// Same encoding, but over a caller-supplied dataset fingerprint — the
    /// cache substitutes the *versioned* dataset fingerprint here so oracle
    /// keys at every graph version share one format by construction.
    fn fingerprint_with_dataset(&self, dataset_fingerprint: &str) -> String {
        let mut key = dataset_fingerprint.to_string();
        let _ = write!(key, "|{}|tau={}", self.model.label(), self.deadline);
        let _ = write!(key, "|{}", self.estimator.fingerprint());
        key
    }
}

/// The dataset fingerprint at a given mutation generation: bare at version
/// 0 (so every pre-mutation key is unchanged), `{base}@v{g}` afterwards.
/// Every derived key (graph, LT, worlds, oracle) embeds this, which is what
/// makes stale entries unreachable after a mutation instead of merely
/// suspect.
fn versioned_fingerprint(base: &str, version: u64) -> String {
    if version == 0 {
        base.to_string()
    } else {
        format!("{base}@v{version}")
    }
}

/// Mutable head of a dataset that has received `mutate` ops: the current
/// graph (whose `version()` names the generation every derived cache key
/// embeds) plus the `(source, target)` pairs of the edges the *latest* step
/// edited, sorted and deduplicated. The incremental rebuild paths derive
/// what they need from that one list: RR-sketch refresh invalidates by
/// edited **targets** and patches their reverse-adjacency rows (reverse BFS
/// reads in-edge rows), world patching re-draws edited **source** rows
/// (live-edge CSR is source-major).
#[derive(Clone)]
struct MutableHead {
    graph: Arc<Graph>,
    last_edited: Vec<(NodeId, NodeId)>,
}

/// Sizing of an [`OracleCache`]: one global byte budget split over a number
/// of independently locked shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all shards. Entry costs come from each
    /// value's `approx_bytes`; once a shard's slice is exceeded it evicts
    /// (see the module docs for the policy).
    pub max_bytes: usize,
    /// Number of shards (clamped to at least 1). Each shard owns its own
    /// `Mutex` and `max_bytes / shards` of the budget.
    pub shards: usize,
}

impl CacheConfig {
    /// Default budget: 256 MiB. Sized from the old per-map entry counts (up
    /// to 32 world collections at a couple of MiB each, 128 oracles, a
    /// handful of graphs) with generous headroom, so a default-configured
    /// cache retains at least as much as the count-bounded cache did.
    pub const DEFAULT_MAX_BYTES: usize = 256 * 1024 * 1024;
    /// Default shard count: 8 — enough to keep a batch fan-out from
    /// serializing on one lock, few enough that the budget slices stay
    /// large relative to any single entry.
    pub const DEFAULT_SHARDS: usize = 8;
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_bytes: Self::DEFAULT_MAX_BYTES, shards: Self::DEFAULT_SHARDS }
    }
}

/// Hit/miss and budget counters of one [`OracleCache`], for observability
/// (never part of a response — responses must not depend on cache
/// temperature).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Oracle lookups answered from the cache.
    pub oracle_hits: u64,
    /// Oracle lookups that had to build.
    pub oracle_misses: u64,
    /// World-collection lookups answered from the cache (including the
    /// cross-deadline reuse hits that make repeated queries cheap).
    pub world_hits: u64,
    /// World-collection lookups that had to sample.
    pub world_misses: u64,
    /// Dataset-graph lookups answered from the cache.
    pub graph_hits: u64,
    /// Dataset-graph lookups that had to generate.
    pub graph_misses: u64,
    /// LT weight-table lookups answered from the cache.
    pub lt_hits: u64,
    /// LT weight-table lookups that had to build.
    pub lt_misses: u64,
    /// Total bytes currently charged against the budget, summed over shards.
    pub bytes_used: u64,
    /// Total byte budget, summed over shards (the configured `max_bytes`).
    pub bytes_budget: u64,
    /// Entries evicted to stay under the budget, summed over shards.
    pub evictions: u64,
    /// Graph mutations applied (`mutate` requests that advanced a head).
    pub mutations: u64,
    /// RIS sketch pools refreshed incrementally instead of rebuilt cold.
    pub ris_refreshes: u64,
    /// RR sets those refreshes resampled, summed: the sketches of the
    /// previous generation's pool that contained an edited edge's target.
    pub ris_sets_resampled: u64,
    /// World pools patched forward from the previous version instead of
    /// resampled from scratch.
    pub world_patches: u64,
}

impl CacheStats {
    /// Oracle hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn oracle_hit_rate(&self) -> Option<f64> {
        hit_rate(self.oracle_hits, self.oracle_misses)
    }

    /// World-pool hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn world_hit_rate(&self) -> Option<f64> {
        hit_rate(self.world_hits, self.world_misses)
    }
}

fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

/// One shard's budget counters, as reported by [`OracleCache::shard_stats`]
/// and the `stats` wire op. All byte figures are `approx_bytes` estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Bytes currently charged against this shard's slice.
    pub bytes_used: u64,
    /// This shard's slice of the global budget.
    pub bytes_budget: u64,
    /// High-water mark of `bytes_used`, recorded after eviction settles —
    /// by construction it never exceeds `bytes_budget`.
    pub peak_bytes: u64,
    /// Entries this shard has evicted.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// One cached value. The four key namespaces are disjoint (`lt|…`,
/// `…|worlds:…`, `oracle|…` prefixes/infixes never collide with bare
/// dataset fingerprints), so each key's variant is statically known at its
/// call site.
#[derive(Clone)]
enum CacheValue {
    Graph(Arc<Graph>),
    Lt(Arc<LtWeights>),
    Worlds(Arc<WorldCollection>),
    Oracle(Arc<Estimator>),
}

impl CacheValue {
    /// The value's approximate resident bytes, as estimated by the crate
    /// that owns its type: payloads counted by length (not capacity) plus
    /// one `Vec` header per allocation, so the cost is a deterministic
    /// function of the value, never of allocator state or build history.
    fn approx_bytes(&self) -> usize {
        match self {
            CacheValue::Graph(graph) => graph.approx_bytes(),
            CacheValue::Lt(weights) => weights.approx_bytes(),
            CacheValue::Worlds(worlds) => worlds.approx_bytes(),
            CacheValue::Oracle(oracle) => oracle.approx_bytes(),
        }
    }

    fn into_graph(self) -> Arc<Graph> {
        match self {
            CacheValue::Graph(graph) => graph,
            #[expect(
                clippy::unreachable,
                reason = "the `graph:` key namespace stores exactly this variant"
            )]
            _ => unreachable!("graph keys only ever store graphs"),
        }
    }

    fn into_lt(self) -> Arc<LtWeights> {
        match self {
            CacheValue::Lt(weights) => weights,
            #[expect(
                clippy::unreachable,
                reason = "the `lt:` key namespace stores exactly this variant"
            )]
            _ => unreachable!("lt keys only ever store LT tables"),
        }
    }

    fn into_worlds(self) -> Arc<WorldCollection> {
        match self {
            CacheValue::Worlds(worlds) => worlds,
            #[expect(
                clippy::unreachable,
                reason = "the `worlds:` key namespace stores exactly this variant"
            )]
            _ => unreachable!("worlds keys only ever store collections"),
        }
    }

    fn into_oracle(self) -> Arc<Estimator> {
        match self {
            CacheValue::Oracle(oracle) => oracle,
            #[expect(
                clippy::unreachable,
                reason = "the `oracle:` key namespace stores exactly this variant"
            )]
            _ => unreachable!("oracle keys only ever store estimators"),
        }
    }
}

struct Entry {
    value: CacheValue,
    /// Charged cost: the value's `approx_bytes` plus key and
    /// bookkeeping overhead, fixed at insertion.
    cost: usize,
    /// Recency stamp; also the entry's position in its segment map.
    stamp: u64,
    protected: bool,
}

/// One lock's worth of cache: a key -> entry map plus two recency-ordered
/// segments (`BTreeMap` keyed by stamp, so `first_key_value` is the LRU
/// end). New entries join *probation*; a re-access promotes to *protected*.
/// Probation is evicted first, so one-shot keys churn without displacing
/// the entries that are actually re-used.
struct Shard {
    #[expect(
        clippy::disallowed_types,
        reason = "point lookups on the request path; purges sort the keys and recounts sum, \
                  so order never escapes"
    )]
    entries: HashMap<String, Entry>,
    probation: BTreeMap<u64, String>,
    protected: BTreeMap<u64, String>,
    /// Monotone per-shard stamp source (uniqueness makes stamps usable as
    /// segment-map keys).
    clock: u64,
    bytes_used: usize,
    bytes_budget: usize,
    /// Bytes held by protected entries, capped below the slice so probation
    /// always retains room (see [`Shard::rebalance`]).
    protected_bytes: usize,
    peak_bytes: usize,
    evictions: u64,
}

impl Shard {
    fn new(bytes_budget: usize) -> Self {
        Shard {
            #[expect(clippy::disallowed_types, reason = "the `entries` map, see its field")]
            entries: HashMap::new(),
            probation: BTreeMap::new(),
            protected: BTreeMap::new(),
            clock: 0,
            bytes_used: 0,
            bytes_budget,
            protected_bytes: 0,
            peak_bytes: 0,
            evictions: 0,
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`, refreshing its recency and promoting it to the
    /// protected segment (segmented LRU: surviving a second access is the
    /// signal that an entry is worth protecting from one-shot churn).
    fn get(&mut self, key: &str) -> Option<CacheValue> {
        if !self.entries.contains_key(key) {
            return None;
        }
        let stamp = self.next_stamp();
        let entry = self.entries.get_mut(key)?;
        let old_stamp = entry.stamp;
        let was_protected = entry.protected;
        let cost = entry.cost;
        entry.stamp = stamp;
        entry.protected = true;
        let value = entry.value.clone();
        if was_protected {
            self.protected.remove(&old_stamp);
        } else {
            self.probation.remove(&old_stamp);
            self.protected_bytes += cost;
        }
        self.protected.insert(stamp, key.to_string());
        self.rebalance();
        Some(value)
    }

    /// Inserts `value` under `key` unless the key is already present (the
    /// first build wins, so concurrent builders converge on one entry),
    /// then returns the stored value. New entries join probation; the shard
    /// then evicts down to its budget. An entry larger than the whole slice
    /// is evicted immediately, but the returned value stays usable — the
    /// caller's `Arc` keeps it alive for the request in flight.
    fn insert_or_get(&mut self, key: String, value: CacheValue, cost: usize) -> CacheValue {
        if let Some(existing) = self.get(&key) {
            return existing;
        }
        let stamp = self.next_stamp();
        self.entries
            .insert(key.clone(), Entry { value: value.clone(), cost, stamp, protected: false });
        self.probation.insert(stamp, key);
        self.bytes_used += cost;
        self.evict_to_budget();
        // Record the peak after eviction settles, so the reported high-water
        // mark honours the budget invariant the operator relies on.
        self.peak_bytes = self.peak_bytes.max(self.bytes_used);
        value
    }

    /// Demotes the protected segment's LRU tail back to probation while the
    /// segment exceeds its cap (4/5 of the slice). Demoted entries keep
    /// their stamps, so they re-enter probation at their true recency.
    fn rebalance(&mut self) {
        let cap = self.bytes_budget - self.bytes_budget / 5;
        while self.protected_bytes > cap {
            let Some((&stamp, _)) = self.protected.first_key_value() else {
                break;
            };
            #[expect(
                clippy::expect_used,
                reason = "`stamp` was just read from `protected`'s first entry"
            )]
            let key = self.protected.remove(&stamp).expect("stamp listed");
            #[expect(
                clippy::expect_used,
                reason = "segment maps only list keys resident in `entries`"
            )]
            let entry = self.entries.get_mut(&key).expect("segment entry resident");
            entry.protected = false;
            let cost = entry.cost;
            self.protected_bytes -= cost;
            self.probation.insert(stamp, key);
        }
    }

    /// Evicts LRU-first — probation before protected — until the shard fits
    /// its slice again.
    fn evict_to_budget(&mut self) {
        while self.bytes_used > self.bytes_budget {
            let (stamp, from_protected) =
                if let Some((&stamp, _)) = self.probation.first_key_value() {
                    (stamp, false)
                } else if let Some((&stamp, _)) = self.protected.first_key_value() {
                    (stamp, true)
                } else {
                    break;
                };
            #[expect(
                clippy::expect_used,
                reason = "`stamp` came from the victim scan over these same maps"
            )]
            let key = if from_protected {
                self.protected.remove(&stamp)
            } else {
                self.probation.remove(&stamp)
            }
            .expect("stamp listed");
            #[expect(
                clippy::expect_used,
                reason = "segment maps only list keys resident in `entries`"
            )]
            let entry = self.entries.remove(&key).expect("segment entry resident");
            self.bytes_used -= entry.cost;
            if from_protected {
                self.protected_bytes -= entry.cost;
            }
            self.evictions += 1;
        }
    }

    /// Removes every entry whose key satisfies `matches`, crediting the
    /// exact cost each entry was charged at insertion — this is what keeps
    /// `bytes_used` equal to a from-scratch recount across version purges.
    /// Purged entries count as evictions (they left to protect the budget).
    fn purge_matching(&mut self, matches: impl Fn(&str) -> bool) -> u64 {
        let mut keys: Vec<String> = self.entries.keys().filter(|k| matches(k)).cloned().collect();
        keys.sort_unstable();
        for key in &keys {
            #[expect(clippy::expect_used, reason = "`key` was just listed from `entries`")]
            let entry = self.entries.remove(key).expect("listed key resident");
            self.bytes_used -= entry.cost;
            if entry.protected {
                self.protected.remove(&entry.stamp);
                self.protected_bytes -= entry.cost;
            } else {
                self.probation.remove(&entry.stamp);
            }
            self.evictions += 1;
        }
        keys.len() as u64
    }

    /// `bytes_used` recomputed from the resident entries, for drift checks.
    fn recount_bytes(&self) -> usize {
        self.entries.values().map(|entry| entry.cost).sum()
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            bytes_used: self.bytes_used as u64,
            bytes_budget: self.bytes_budget as u64,
            peak_bytes: self.peak_bytes as u64,
            evictions: self.evictions,
            entries: self.entries.len() as u64,
        }
    }
}

/// FNV-1a over the key bytes: tiny, dependency-free, and plenty uniform for
/// spreading fingerprint strings over a handful of shards.
fn fnv1a(key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in key.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Shared, thread-safe cache of graphs, LT weight tables, live-edge world
/// collections and fully built estimators, sharded and held under a byte
/// budget. See the module docs for the keying scheme, the eviction policy
/// and the determinism contract — and `docs/CACHE.md` for the operator's
/// guide.
pub struct OracleCache {
    shards: Vec<Mutex<Shard>>,
    max_bytes: usize,
    /// Per-key in-flight build locks: when several cold requests race for
    /// the same entry, exactly one samples/builds while the rest wait on
    /// its lock and then take the cache hit — without this, a parallel
    /// batch over one world pool would sample it once per worker thread
    /// and throw all but one result away.
    #[expect(clippy::disallowed_types, reason = "point lookups only, never iterated")]
    building: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Mutable heads, keyed by base dataset fingerprint. A dataset appears
    /// here only after its first `mutate`; until then every key is the bare
    /// version-0 fingerprint and this map is never consulted on the hot
    /// path beyond one lock per graph lookup.
    #[expect(clippy::disallowed_types, reason = "point lookups only, never iterated")]
    heads: Mutex<HashMap<String, MutableHead>>,
    /// Lookups answered from the cache, per [`Level`].
    hits: [AtomicU64; 4],
    /// Lookups that had to build, per [`Level`].
    misses: [AtomicU64; 4],
    mutations: AtomicU64,
    ris_refreshes: AtomicU64,
    ris_sets_resampled: AtomicU64,
    world_patches: AtomicU64,
}

/// The four cache levels, indexing [`OracleCache`]'s hit and miss counters.
#[derive(Clone, Copy)]
enum Level {
    Graph,
    Lt,
    Worlds,
    Oracle,
}

/// Removes a key's build-lock registry entry when dropped — on unwind too,
/// so a panicking build cannot leave its key's lock behind.
struct Unregister<'a> {
    cache: &'a OracleCache,
    key: &'a str,
}

impl Drop for Unregister<'_> {
    fn drop(&mut self) {
        self.cache.building.lock().unwrap_or_else(PoisonError::into_inner).remove(self.key);
    }
}

impl Default for OracleCache {
    fn default() -> Self {
        OracleCache::with_config(CacheConfig::default())
    }
}

impl OracleCache {
    /// An empty cache with the default budget ([`CacheConfig::default`]).
    pub fn new() -> Self {
        OracleCache::default()
    }

    /// An empty cache sized by `config`. The budget is sliced exactly over
    /// the shards: each gets `max_bytes / shards`, and the first
    /// `max_bytes % shards` shards get one extra byte, so the slices always
    /// sum to `max_bytes`.
    pub fn with_config(config: CacheConfig) -> Self {
        let shard_count = config.shards.max(1);
        let base = config.max_bytes / shard_count;
        let extra = config.max_bytes % shard_count;
        let shards = (0..shard_count)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
            .collect();
        OracleCache {
            shards,
            max_bytes: config.max_bytes,
            building: Mutex::default(),
            heads: Mutex::default(),
            hits: Default::default(),
            misses: Default::default(),
            mutations: AtomicU64::new(0),
            ris_refreshes: AtomicU64::new(0),
            ris_sets_resampled: AtomicU64::new(0),
            world_patches: AtomicU64::new(0),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        CacheConfig { max_bytes: self.max_bytes, shards: self.shards.len() }
    }

    /// Current hit/miss and budget counters, aggregated over shards.
    pub fn stats(&self) -> CacheStats {
        let mut bytes_used = 0u64;
        let mut bytes_budget = 0u64;
        let mut evictions = 0u64;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            bytes_used += shard.bytes_used as u64;
            bytes_budget += shard.bytes_budget as u64;
            evictions += shard.evictions;
        }
        // Destructured in `Level` order.
        let [graph_hits, lt_hits, world_hits, oracle_hits] =
            self.hits.each_ref().map(|count| count.load(Ordering::Relaxed));
        let [graph_misses, lt_misses, world_misses, oracle_misses] =
            self.misses.each_ref().map(|count| count.load(Ordering::Relaxed));
        CacheStats {
            oracle_hits,
            oracle_misses,
            world_hits,
            world_misses,
            graph_hits,
            graph_misses,
            lt_hits,
            lt_misses,
            bytes_used,
            bytes_budget,
            evictions,
            mutations: self.mutations.load(Ordering::Relaxed),
            ris_refreshes: self.ris_refreshes.load(Ordering::Relaxed),
            ris_sets_resampled: self.ris_sets_resampled.load(Ordering::Relaxed),
            world_patches: self.world_patches.load(Ordering::Relaxed),
        }
    }

    /// Per-shard budget counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner).stats())
            .collect()
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up in its shard, refreshing recency on a hit. Shard
    /// locks are held only for the lookup itself, never across builds.
    fn lookup(&self, key: &str) -> Option<CacheValue> {
        self.shard_for(key).lock().unwrap_or_else(PoisonError::into_inner).get(key)
    }

    /// Stores `value` under `key` (first build wins) and returns the stored
    /// value. The charged cost is the value's `approx_bytes` plus the
    /// key string and fixed per-entry bookkeeping.
    fn store(&self, key: &str, value: CacheValue) -> CacheValue {
        let cost = key.len() + value.approx_bytes() + std::mem::size_of::<Entry>();
        self.shard_for(key).lock().unwrap_or_else(PoisonError::into_inner).insert_or_get(
            key.to_string(),
            value,
            cost,
        )
    }

    /// The entry under `key` at `level`, built by `build` on a miss. A hit
    /// costs one shard lookup. On a miss the per-key build lock is taken and
    /// the lookup re-checked under it, so racing cold requests build once:
    /// the rest wait on the lock and take the stored entry as a hit. Lock
    /// order is strictly outer-entry -> inner-entry (oracle -> worlds ->
    /// graph), so the per-key locks cannot cycle; shard locks are leaf locks
    /// taken only inside `lookup`/`store`.
    fn cached(
        &self,
        level: Level,
        key: &str,
        build: impl FnOnce() -> Result<CacheValue>,
    ) -> Result<CacheValue> {
        if let Some(value) = self.lookup(key) {
            self.hits[level as usize].fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        let lock = {
            let mut building = self.building.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(building.entry(key.to_string()).or_default())
        };
        // Declared before the guard, so it drops after it: the lock is
        // released first, then its registry entry goes, even on unwind.
        // Waiters that already hold the Arc proceed normally; future
        // requests re-check the cache before ever reaching the registry.
        let _unregister = Unregister { cache: self, key };
        let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the lock: a concurrent builder may have finished
        // while this request waited, in which case the wait *was* the build.
        if let Some(value) = self.lookup(key) {
            self.hits[level as usize].fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        self.misses[level as usize].fetch_add(1, Ordering::Relaxed);
        let value = build()?;
        Ok(self.store(key, value))
    }

    /// The head state of `spec`, if it has ever been mutated: the current
    /// graph plus the edges the latest mutation step edited.
    fn head_state(&self, base: &str) -> Option<MutableHead> {
        self.heads.lock().unwrap_or_else(PoisonError::into_inner).get(base).cloned()
    }

    /// The current mutation generation of `spec`'s graph: 0 until the first
    /// `mutate`, then whatever the head has reached.
    pub fn graph_version(&self, spec: &DatasetSpec) -> u64 {
        self.head_state(&spec.fingerprint()).map_or(0, |head| head.graph.version())
    }

    /// The dataset graph for `spec` — the mutated head when one exists, the
    /// version-0 build otherwise — built on first use.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generator failures.
    pub fn graph(&self, spec: &DatasetSpec) -> Result<Arc<Graph>> {
        let key = spec.fingerprint();
        if let Some(head) = self.head_state(&key) {
            self.hits[Level::Graph as usize].fetch_add(1, Ordering::Relaxed);
            return Ok(head.graph);
        }
        let graph = self.cached(Level::Graph, &key, || {
            let bundle = spec.dataset.build(spec.seed).map_err(|err| {
                ServiceError::bad_request(format!(
                    "dataset '{}' failed to build: {err}",
                    spec.dataset.name()
                ))
            })?;
            Ok(CacheValue::Graph(Arc::new(bundle.graph)))
        })?;
        Ok(graph.into_graph())
    }

    /// The LT weight table for `spec`'s graph, built on first use.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generator failures.
    pub fn lt_weights(&self, spec: &DatasetSpec) -> Result<Arc<LtWeights>> {
        let base = spec.fingerprint();
        let key = format!("lt|{}", versioned_fingerprint(&base, self.graph_version(spec)));
        let weights = self.cached(Level::Lt, &key, || {
            let graph = self.graph(spec)?;
            Ok(CacheValue::Lt(Arc::new(LtWeights::from_graph(&graph))))
        })?;
        Ok(weights.into_lt())
    }

    /// A live-edge world collection for `(dataset, model, worlds config)` at
    /// the dataset's current graph version, sampled on first use and shared
    /// across every deadline thereafter.
    ///
    /// Every pool draws **keyed** coins, which makes a patched IC pool
    /// ([`WorldCollection::patch`]) bitwise-identical to a cold resample —
    /// so from the first mutation on, when the previous version's pool is
    /// still resident only the mutated source rows are re-drawn, and when
    /// it has been evicted the cold path gives the exact same bytes.
    ///
    /// # Errors
    ///
    /// Propagates sampling failures (zero worlds).
    pub fn worlds(
        &self,
        spec: &DatasetSpec,
        model: ModelKind,
        config: &WorldsConfig,
    ) -> Result<Arc<WorldCollection>> {
        let base = spec.fingerprint();
        let head = self.head_state(&base);
        let version = head.as_ref().map_or(0, |head| head.graph.version());
        let worlds_key = |v: u64| {
            format!(
                "{}|{}|worlds:n={},s={}",
                versioned_fingerprint(&base, v),
                model.label(),
                config.num_worlds,
                config.seed
            )
        };
        let worlds = self.cached(Level::Worlds, &worlds_key(version), || {
            let graph = self.graph(spec)?;
            let collection = match model {
                ModelKind::IndependentCascade => {
                    // Patch the resident generation g-1 pool, if any.
                    let patched = head.as_ref().and_then(|head| {
                        let donor = self.lookup(&worlds_key(version - 1))?.into_worlds();
                        donor.patch(&graph, &head.last_edited, config).ok()
                    });
                    match patched {
                        Some(patched) => {
                            self.world_patches.fetch_add(1, Ordering::Relaxed);
                            patched
                        }
                        None => WorldCollection::sample(&graph, config)?,
                    }
                }
                // LT picks are keyed by *target* node while world rows are
                // source-major, so a row-wise patch cannot express an LT
                // re-pick: LT pools always sample cold.
                ModelKind::LinearThreshold => {
                    let weights = self.lt_weights(spec)?;
                    WorldCollection::sample_lt(&graph, &weights, config)?
                }
            };
            Ok(CacheValue::Worlds(Arc::new(collection)))
        })?;
        Ok(worlds.into_worlds())
    }

    /// The fully built oracle for `spec`, from cache when warm.
    ///
    /// Worlds-backed oracles reuse the deadline-independent world pool, so a
    /// new `τ` against a warm dataset only pays a view construction; RIS and
    /// Monte-Carlo oracles are cached by their full spec.
    ///
    /// # Errors
    ///
    /// Returns a bad-request error for unsupported combinations (the LT
    /// model requires the worlds estimator) and propagates construction
    /// failures.
    pub fn oracle(&self, spec: &OracleSpec) -> Result<Arc<Estimator>> {
        let version = self.graph_version(&spec.dataset);
        let key = format!(
            "oracle|{}",
            spec.fingerprint_with_dataset(&versioned_fingerprint(
                &spec.dataset.fingerprint(),
                version
            ))
        );
        let oracle = self.cached(Level::Oracle, &key, || {
            Ok(CacheValue::Oracle(Arc::new(self.build_oracle(spec)?)))
        })?;
        Ok(oracle.into_oracle())
    }

    fn build_oracle(&self, spec: &OracleSpec) -> Result<Estimator> {
        let graph = self.graph(&spec.dataset)?;
        match (&spec.estimator, spec.model) {
            (EstimatorConfig::Worlds(config), model) => {
                let worlds = self.worlds(&spec.dataset, model, config)?;
                Ok(spec.estimator.build_with_worlds(graph, worlds, spec.deadline)?)
            }
            (_, ModelKind::LinearThreshold) => Err(ServiceError::bad_request(
                "the linear-threshold model requires the worlds estimator".to_string(),
            )),
            (EstimatorConfig::Ris(config), ModelKind::IndependentCascade)
                if config.adaptive.is_none() && graph.version() > 0 =>
            {
                if let Some(refreshed) = self.refreshed_ris(spec, &graph)? {
                    Ok(refreshed)
                } else {
                    Ok(spec.estimator.build(graph, spec.deadline)?)
                }
            }
            (_, ModelKind::IndependentCascade) => Ok(spec.estimator.build(graph, spec.deadline)?),
        }
    }

    /// Incremental RIS rebuild: when the previous version's oracle for the
    /// same spec is still resident, clone it (the clone shares its pool) and
    /// [`refresh`](tcim_diffusion::RisEstimator::refresh) only the sketches
    /// touching the mutated edge targets. `refresh` reuses `seed + id` per
    /// sketch, so this is bitwise-identical to the cold build the caller
    /// falls back to — which is exactly what the differential churn suite
    /// pins. Adaptive RIS never takes this path: its sketch *count* depends
    /// on sketch content, so only a cold run reproduces the sizing walk.
    fn refreshed_ris(&self, spec: &OracleSpec, graph: &Arc<Graph>) -> Result<Option<Estimator>> {
        let base = spec.dataset.fingerprint();
        let Some(head) = self.head_state(&base) else {
            return Ok(None);
        };
        // The edited list describes exactly the step `version-1 -> version`;
        // any other resident generation must rebuild cold.
        if head.graph.version() != graph.version() {
            return Ok(None);
        }
        let prev_key = format!(
            "oracle|{}",
            spec.fingerprint_with_dataset(&versioned_fingerprint(&base, graph.version() - 1))
        );
        let Some(prev) = self.lookup(&prev_key).map(CacheValue::into_oracle) else {
            return Ok(None);
        };
        let Estimator::Ris(prev_ris) = prev.as_ref() else {
            return Ok(None);
        };
        let mut ris = prev_ris.clone();
        let resampled = ris.refresh(Arc::clone(graph), &head.last_edited)?;
        self.ris_refreshes.fetch_add(1, Ordering::Relaxed);
        self.ris_sets_resampled.fetch_add(resampled as u64, Ordering::Relaxed);
        Ok(Some(Estimator::Ris(ris)))
    }

    /// Applies `ops` to `spec`'s current graph, advancing its head to the
    /// next generation. Every derived cache key embeds the new version, so
    /// stale worlds/oracles become unreachable immediately; entries of
    /// generation `version - 2` are purged outright (crediting their exact
    /// charged bytes), while generation `version - 1` is kept resident as
    /// the donor for incremental world patching and RIS refresh.
    ///
    /// Mutations are serialized by the serving tier (batch execution treats
    /// a `mutate` as a barrier); concurrent out-of-band mutators are
    /// last-writer-wins on the head.
    ///
    /// # Errors
    ///
    /// Rejects empty op lists and propagates graph-side validation
    /// (self-loops, unknown endpoints, duplicate edges, bad probabilities)
    /// as bad requests.
    pub fn mutate(&self, spec: &DatasetSpec, ops: &[MutationOp]) -> Result<Arc<Graph>> {
        if ops.is_empty() {
            return Err(ServiceError::bad_request("mutate requires at least one op".to_string()));
        }
        let base = spec.fingerprint();
        let current = self.graph(spec)?;
        let mutated = Arc::new(
            current
                .apply(ops)
                .map_err(|err| ServiceError::bad_request(format!("mutation rejected: {err}")))?,
        );
        let mut edited: Vec<(NodeId, NodeId)> = ops.iter().map(MutationOp::endpoints).collect();
        edited.sort_unstable_by_key(|&(s, t)| (s.0, t.0));
        edited.dedup();
        let new_version = mutated.version();
        // Charge the new graph against the budget under its versioned key.
        self.store(
            &versioned_fingerprint(&base, new_version),
            CacheValue::Graph(Arc::clone(&mutated)),
        );
        self.heads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(base.clone(), MutableHead { graph: Arc::clone(&mutated), last_edited: edited });
        if new_version >= 2 {
            self.purge_version(&base, new_version - 2);
        }
        self.mutations.fetch_add(1, Ordering::Relaxed);
        Ok(mutated)
    }

    /// Purges every entry keyed at `(base, version)` from all shards: the
    /// graph, the LT table, world pools and oracles of that generation.
    fn purge_version(&self, base: &str, version: u64) {
        let vfp = versioned_fingerprint(base, version);
        let lt = format!("lt|{vfp}");
        let with_sep = format!("{vfp}|");
        let oracle_prefix = format!("oracle|{vfp}|");
        let matches = |key: &str| {
            key == vfp || key == lt || key.starts_with(&with_sep) || key.starts_with(&oracle_prefix)
        };
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).purge_matching(matches);
        }
    }

    /// `bytes_used` recomputed from scratch over every resident entry. The
    /// cache-accounting tests pin `recount_bytes() == stats().bytes_used`
    /// after arbitrary churn; a mismatch means a charge/credit drifted.
    pub fn recount_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| {
                shard.lock().unwrap_or_else(PoisonError::into_inner).recount_bytes() as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_core::{RisConfig, WorldsConfig};
    use tcim_diffusion::{AdaptiveRis, InfluenceOracle};

    fn spec(deadline: u32, num_worlds: usize) -> OracleSpec {
        OracleSpec {
            dataset: DatasetSpec { dataset: Dataset::Illustrative, seed: 1 },
            model: ModelKind::IndependentCascade,
            deadline: Deadline::finite(deadline),
            estimator: EstimatorConfig::Worlds(WorldsConfig { num_worlds, seed: 3 }),
        }
    }

    #[test]
    fn oracles_are_cached_and_worlds_shared_across_deadlines() {
        let cache = OracleCache::new();
        let first = cache.oracle(&spec(2, 16)).unwrap();
        let again = cache.oracle(&spec(2, 16)).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same spec must hit");

        // Different deadline: new oracle, same sampled worlds.
        let other = cache.oracle(&spec(5, 16)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let stats = cache.stats();
        assert_eq!(stats.oracle_hits, 1);
        assert_eq!(stats.oracle_misses, 2);
        assert_eq!(stats.world_misses, 1, "the collection samples once");
        assert_eq!(stats.world_hits, 1, "the second deadline reuses it");
        assert_eq!(stats.graph_misses, 1, "the graph generates once");
        assert!(stats.graph_hits >= 1, "later builds reuse the graph");
        assert_eq!(stats.oracle_hit_rate(), Some(1.0 / 3.0));
        assert_eq!(stats.world_hit_rate(), Some(0.5));
        assert_eq!(CacheStats::default().oracle_hit_rate(), None);
        assert!(stats.bytes_used > 0, "resident entries must be charged");
        assert_eq!(stats.bytes_budget, CacheConfig::DEFAULT_MAX_BYTES as u64);
        assert_eq!(stats.evictions, 0, "the default budget must not thrash");

        let (Estimator::Worlds(a), Estimator::Worlds(b)) = (first.as_ref(), other.as_ref()) else {
            panic!("worlds estimators expected");
        };
        assert!(Arc::ptr_eq(&a.worlds_arc(), &b.worlds_arc()));
    }

    #[test]
    fn fingerprints_separate_configs() {
        let a = spec(2, 16).fingerprint();
        assert_ne!(a, spec(3, 16).fingerprint());
        assert_ne!(a, spec(2, 17).fingerprint());

        let ris = OracleSpec {
            estimator: EstimatorConfig::Ris(RisConfig {
                num_sets: 64,
                seed: 3,
                adaptive: Some(AdaptiveRis::default()),
            }),
            ..spec(2, 16)
        };
        assert_ne!(a, ris.fingerprint());
        assert!(ris.fingerprint().contains("adaptive"));
    }

    #[test]
    fn model_and_dataset_names_parse_and_reject() {
        assert_eq!(ModelKind::parse("ic").unwrap(), ModelKind::IndependentCascade);
        assert_eq!(ModelKind::parse("lt").unwrap(), ModelKind::LinearThreshold);
        assert!(ModelKind::parse("sir").is_err());
        let spec = DatasetSpec::parse("synthetic", 7).unwrap();
        assert_eq!(spec.dataset, Dataset::Synthetic);
        let err = DatasetSpec::parse("twitter", 7).unwrap_err();
        assert!(err.to_string().contains("synthetic"), "should list valid names: {err}");
    }

    #[test]
    fn budget_slices_cover_max_bytes_exactly() {
        let cache = OracleCache::with_config(CacheConfig { max_bytes: 10, shards: 4 });
        let slices: Vec<u64> = cache.shard_stats().iter().map(|s| s.bytes_budget).collect();
        assert_eq!(slices, vec![3, 3, 2, 2]);
        assert_eq!(cache.config(), CacheConfig { max_bytes: 10, shards: 4 });
        // Zero shards clamp to one rather than panicking on modulo.
        let clamped = OracleCache::with_config(CacheConfig { max_bytes: 10, shards: 0 });
        assert_eq!(clamped.config().shards, 1);
    }

    fn probe_value() -> CacheValue {
        let bundle = Dataset::Illustrative.build(0).unwrap();
        CacheValue::Graph(Arc::new(bundle.graph))
    }

    #[test]
    fn cold_racers_build_once() {
        let cache = OracleCache::new();
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Arc<Graph>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let value = cache.cached(Level::Graph, "racer", || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Hold the build until all 8 racers hold the
                            // key's build lock (plus the registry's own
                            // handle), so the other 7 wait on it instead of
                            // arriving after the store.
                            while Arc::strong_count(&cache.building.lock().unwrap()["racer"]) < 9 {
                                std::thread::yield_now();
                            }
                            Ok(probe_value())
                        });
                        value.unwrap().into_graph()
                    })
                })
                .collect();
            racers.into_iter().map(|racer| racer.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one racer builds");
        let stats = cache.stats();
        assert_eq!((stats.graph_misses, stats.graph_hits), (1, 7));
        assert!(results.iter().all(|graph| Arc::ptr_eq(graph, &results[0])));
        assert!(cache.building.lock().unwrap().is_empty(), "the build lock is released");
    }

    #[test]
    fn a_panicking_build_does_not_brick_its_key() {
        let cache = OracleCache::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.cached(Level::Graph, "probe", || panic!("build failed"))
        }));
        assert!(caught.is_err(), "the build's panic propagates");
        assert!(cache.building.lock().unwrap().is_empty(), "unwinding removes the registry entry");
        // The next request for the same key builds afresh and returns.
        let graph = cache.cached(Level::Graph, "probe", || Ok(probe_value())).unwrap();
        assert_eq!(graph.into_graph().num_nodes(), probe_value().into_graph().num_nodes());
        assert_eq!(cache.stats().graph_misses, 2);
        assert!(cache.building.lock().unwrap().is_empty());
    }

    #[test]
    fn reaccessed_entries_survive_eviction() {
        // The old BoundedMap evicted in pure insertion order, so the hottest
        // entry died first under steady mixed traffic. Segmented LRU must
        // keep the re-accessed entry and evict the cold one instead.
        let mut shard = Shard::new(250);
        shard.insert_or_get("a".into(), probe_value(), 100);
        shard.insert_or_get("b".into(), probe_value(), 100);
        assert!(shard.get("a").is_some(), "re-access promotes 'a' to protected");
        // 'c' overflows the slice; the probation tail 'b' — not the older
        // but protected 'a' — must be the victim.
        shard.insert_or_get("c".into(), probe_value(), 100);
        assert!(shard.get("a").is_some(), "hot entry survives");
        assert!(shard.get("b").is_none(), "cold entry is the victim");
        assert!(shard.get("c").is_some(), "new entry stays resident");
        let stats = shard.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes_used <= stats.bytes_budget);
        assert!(stats.peak_bytes <= stats.bytes_budget, "peak records post-eviction");

        // First build wins: re-inserting a resident key returns the stored
        // value and charges nothing extra.
        let before = shard.stats().bytes_used;
        shard.insert_or_get("a".into(), probe_value(), 100);
        assert_eq!(shard.stats().bytes_used, before);

        // An entry larger than the whole slice is evicted immediately but
        // still returned for the request in flight.
        shard.insert_or_get("huge".into(), probe_value(), 10_000);
        assert!(shard.get("huge").is_none());
        assert!(shard.stats().bytes_used <= shard.stats().bytes_budget);

        // A full protected segment demotes its own LRU tail instead of
        // growing past its cap (4/5 of the slice = 200 bytes here).
        assert!(shard.get("a").is_some());
        assert!(shard.get("c").is_some());
        assert!(shard.protected_bytes <= 200, "protected stays under its cap");
    }

    #[test]
    fn byte_budget_evicts_and_rebuilds_deterministically() {
        // A budget far below the working set: 64 distinct world seeds over
        // ~16 KiB forces heavy eviction, yet every answer must match the
        // first build bit-for-bit and the budget must hold at all times.
        let cache = OracleCache::with_config(CacheConfig { max_bytes: 16 * 1024, shards: 2 });
        let overflowing = |seed: u64| {
            let mut s = spec(2, 8);
            s.estimator = EstimatorConfig::Worlds(WorldsConfig { num_worlds: 8, seed });
            s
        };
        let probe = [tcim_graph::NodeId(0)];
        let first: Vec<u64> = (0..64)
            .map(|seed| {
                let oracle = cache.oracle(&overflowing(seed)).unwrap();
                oracle.evaluate(&probe).unwrap().total().to_bits()
            })
            .collect();
        let stats = cache.stats();
        assert!(stats.evictions > 0, "the working set must overflow the budget");
        assert!(stats.bytes_used <= stats.bytes_budget);
        for shard in cache.shard_stats() {
            assert!(shard.peak_bytes <= shard.bytes_budget, "peak honours each slice");
        }
        // Replay: most entries were evicted and rebuild from scratch, and
        // the rebuilt oracles must answer identically.
        let again: Vec<u64> = (0..64)
            .map(|seed| {
                let oracle = cache.oracle(&overflowing(seed)).unwrap();
                oracle.evaluate(&probe).unwrap().total().to_bits()
            })
            .collect();
        assert_eq!(first, again, "eviction must never change answers");
    }

    fn first_edge(graph: &Graph) -> (NodeId, NodeId, f64) {
        graph.edges().next().expect("non-empty graph")
    }

    fn absent_edge(graph: &Graph) -> (NodeId, NodeId) {
        for u in graph.nodes() {
            for v in graph.nodes() {
                if u != v && !graph.out_edges(u).any(|(w, _)| w == v) {
                    return (u, v);
                }
            }
        }
        panic!("complete graph");
    }

    fn assert_no_accounting_drift(cache: &OracleCache) {
        assert_eq!(
            cache.recount_bytes(),
            cache.stats().bytes_used,
            "shard bytes_used drifted from a from-scratch recount"
        );
    }

    #[test]
    fn mutation_versions_cache_keys_and_purges_stale_generations() {
        let cache = OracleCache::new();
        let dataset = DatasetSpec { dataset: Dataset::Illustrative, seed: 1 };
        let v0 = cache.oracle(&spec(2, 16)).unwrap();
        assert_eq!(cache.graph_version(&dataset), 0);
        assert_no_accounting_drift(&cache);

        let graph = cache.graph(&dataset).unwrap();
        let (u, v) = absent_edge(&graph);
        let g1 = cache
            .mutate(&dataset, &[MutationOp::AddEdge { source: u, target: v, probability: 0.5 }])
            .unwrap();
        assert_eq!(g1.version(), 1);
        assert_eq!(cache.graph_version(&dataset), 1);
        assert!(Arc::ptr_eq(&cache.graph(&dataset).unwrap(), &g1), "head graph is served");
        assert_no_accounting_drift(&cache);

        // The same oracle spec now resolves to a different (versioned) entry.
        let v1 = cache.oracle(&spec(2, 16)).unwrap();
        assert!(!Arc::ptr_eq(&v0, &v1), "post-mutation lookups must not serve stale oracles");
        assert_no_accounting_drift(&cache);

        // Two more generations age generation 0 and 1 entirely out.
        let evictions_before = cache.stats().evictions;
        let (a, b, p) = first_edge(&g1);
        let g2 = cache
            .mutate(
                &dataset,
                &[MutationOp::Reweight { source: a, target: b, probability: p / 2.0 }],
            )
            .unwrap();
        let g3 =
            cache.mutate(&dataset, &[MutationOp::RemoveEdge { source: a, target: b }]).unwrap();
        assert_eq!((g2.version(), g3.version()), (2, 3));
        assert!(
            cache.stats().evictions > evictions_before,
            "stale generations must be purged, not kept resident"
        );
        assert_no_accounting_drift(&cache);

        // Invalid mutations are rejected as bad requests, by name.
        let err =
            cache.mutate(&dataset, &[MutationOp::RemoveEdge { source: a, target: b }]).unwrap_err();
        assert!(err.to_string().contains("mutation rejected"), "{err}");
        let err = cache.mutate(&dataset, &[]).unwrap_err();
        assert!(err.to_string().contains("at least one op"), "{err}");
        assert_eq!(cache.stats().mutations, 3, "failed mutations must not advance the head");
        assert_eq!(cache.graph_version(&dataset), 3);
        assert_no_accounting_drift(&cache);
    }

    #[test]
    fn ris_refresh_and_world_patch_match_a_cold_replay_bitwise() {
        let dataset = DatasetSpec { dataset: Dataset::Illustrative, seed: 1 };
        let ris_spec = OracleSpec {
            estimator: EstimatorConfig::Ris(RisConfig {
                num_sets: 256,
                seed: 3,
                ..Default::default()
            }),
            ..spec(2, 16)
        };
        let worlds_spec = spec(2, 16);
        let probe = [tcim_graph::NodeId(0), tcim_graph::NodeId(3)];

        let warm = OracleCache::new();
        warm.oracle(&ris_spec).unwrap();
        warm.oracle(&worlds_spec).unwrap();
        let graph = warm.graph(&dataset).unwrap();
        let (u, v) = absent_edge(&graph);
        let op1 = MutationOp::AddEdge { source: u, target: v, probability: 0.7 };
        let op2 = MutationOp::Reweight { source: u, target: v, probability: 0.2 };
        warm.mutate(&dataset, &[op1]).unwrap();
        warm.oracle(&ris_spec).unwrap();
        warm.oracle(&worlds_spec).unwrap();
        assert_eq!(warm.stats().ris_refreshes, 1, "the incremental RIS path must engage");
        // Every pool is keyed, so generation 1 already patches off the
        // version-0 pool, and generation 2 off generation 1.
        assert_eq!(warm.stats().world_patches, 1, "the world patch path must engage");
        warm.mutate(&dataset, &[op2]).unwrap();
        let warm_ris = warm.oracle(&ris_spec).unwrap();
        let warm_worlds = warm.oracle(&worlds_spec).unwrap();
        assert_eq!(warm.stats().ris_refreshes, 2);
        assert_eq!(warm.stats().world_patches, 2);

        // A cold cache replaying the same mutations must answer identically.
        let cold = OracleCache::new();
        cold.mutate(&dataset, &[op1]).unwrap();
        cold.mutate(&dataset, &[op2]).unwrap();
        let cold_ris = cold.oracle(&ris_spec).unwrap();
        let cold_worlds = cold.oracle(&worlds_spec).unwrap();
        assert_eq!(cold.stats().ris_refreshes, 0);
        assert_eq!(cold.stats().world_patches, 0);
        for (warm_oracle, cold_oracle) in [(&warm_ris, &cold_ris), (&warm_worlds, &cold_worlds)] {
            let a = warm_oracle.evaluate(&probe).unwrap();
            let b = cold_oracle.evaluate(&probe).unwrap();
            for (x, y) in a.values().iter().zip(b.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "incremental and cold rebuild diverged");
            }
        }
        assert_no_accounting_drift(&warm);
        assert_no_accounting_drift(&cold);
    }

    #[test]
    fn ris_sets_resampled_counts_the_old_sketches_holding_an_edited_target() {
        let dataset = DatasetSpec { dataset: Dataset::Illustrative, seed: 1 };
        let ris_spec = OracleSpec {
            estimator: EstimatorConfig::Ris(RisConfig {
                num_sets: 256,
                seed: 3,
                ..Default::default()
            }),
            ..spec(2, 16)
        };
        let cache = OracleCache::new();
        let v0 = cache.oracle(&ris_spec).unwrap();
        let Estimator::Ris(v0_ris) = v0.as_ref() else {
            panic!("a RIS spec must build a RIS oracle");
        };
        let graph = cache.graph(&dataset).unwrap();
        let (u, v) = absent_edge(&graph);
        let (a, b, p) = first_edge(&graph);
        let ops = [
            MutationOp::AddEdge { source: u, target: v, probability: 0.6 },
            MutationOp::Reweight { source: a, target: b, probability: p / 2.0 },
        ];
        let pool = v0_ris.sketches_arc();
        let holding = pool.sets().filter(|set| set.contains(v) || set.contains(b)).count();
        assert!(holding > 0, "the edit must touch some sketch for the check to mean anything");

        cache.mutate(&dataset, &ops).unwrap();
        assert_eq!(cache.stats().ris_sets_resampled, 0, "refresh waits for the next query");
        cache.oracle(&ris_spec).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.ris_refreshes, 1);
        assert_eq!(stats.ris_sets_resampled, holding as u64);
    }

    #[test]
    fn lt_requires_the_worlds_estimator() {
        let cache = OracleCache::new();
        let bad = OracleSpec {
            model: ModelKind::LinearThreshold,
            estimator: EstimatorConfig::MonteCarlo { samples: 8, seed: 0 },
            ..spec(2, 16)
        };
        assert!(cache.oracle(&bad).is_err());
        let good = OracleSpec { model: ModelKind::LinearThreshold, ..spec(2, 16) };
        let oracle = cache.oracle(&good).unwrap();
        assert!(oracle.evaluate(&[tcim_graph::NodeId(0)]).unwrap().total() >= 1.0);

        // Satellite: LT-table traffic is visible in the stats. Building the
        // LT worlds pool built the weight table once (a miss); asking for
        // the table again is a hit.
        let stats = cache.stats();
        assert_eq!(stats.lt_misses, 1, "the LT table builds once");
        assert_eq!(stats.lt_hits, 0);
        cache.lt_weights(&good.dataset).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.lt_hits, 1, "re-asking for the table is a visible hit");
        assert_eq!(stats.lt_misses, 1);
    }
}
