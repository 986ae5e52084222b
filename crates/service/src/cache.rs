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
//! charged its approximate resident size via the [`CacheCost`] trait, whose
//! estimates are computed by the crate that owns each type
//! (`Graph::approx_bytes`, `LtWeights::approx_bytes`,
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
//! # Dynamic graphs
//!
//! [`OracleCache::mutate`] applies [`MutationOp`]s to a dataset's graph and
//! advances its *mutable head*. Every derived key embeds the head's
//! `graph_version` (`{base}@v{g}` for `g > 0`, the bare fingerprint at
//! version 0 so all pre-mutation keys — and the frozen goldens — are
//! unchanged), which makes stale worlds/oracles unreachable the instant a
//! mutation lands: they age out of the byte budget instead of being served.
//! Generation `g-2` entries are purged eagerly (crediting their exact
//! charged bytes); generation `g-1` stays resident as the donor for the two
//! incremental rebuild paths — RIS sketch refresh
//! (`RisEstimator::refresh`, invalidating by mutated edge targets) and
//! keyed world-pool patching ([`WorldCollection::patch`], re-drawing
//! mutated source rows). Both are bitwise-identical to the cold rebuild
//! taken when the donor has been evicted, so cache temperature still never
//! changes answers.
//!
//! # Determinism
//!
//! Cache keys exclude the parallelism knob, and every sampling path derives
//! sample `i` from `seed + i` (see `tcim_diffusion::ParallelismConfig`), so
//! a cache hit returns answers bitwise-identical to a cold build at any
//! thread count and any cache temperature — the service-level tests and the
//! CI golden files pin this down.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// `ProblemSpec::canonical` embeds — and excludes the parallelism knob
    /// on purpose: thread counts never change results, so requests differing
    /// only in parallelism must share an entry.
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
/// 0 (so every pre-mutation key — including the frozen goldens — is
/// unchanged), `{base}@v{g}` afterwards. Every derived key (graph, LT,
/// worlds, oracle) embeds this, which is what makes stale entries
/// unreachable after a mutation instead of merely suspect.
fn versioned_fingerprint(base: &str, version: u64) -> String {
    if version == 0 {
        base.to_string()
    } else {
        format!("{base}@v{version}")
    }
}

/// Mutable head of a dataset that has received `mutate` ops: the current
/// graph (whose `version()` names the generation every derived cache key
/// embeds) plus the edge endpoints touched by the *latest* step, which the
/// incremental rebuild paths need: RR-sketch refresh invalidates by mutated
/// edge **targets** (reverse BFS reads in-edge rows), world patching
/// rebuilds mutated edge **source** rows (live-edge CSR is source-major).
struct MutableHead {
    graph: Arc<Graph>,
    last_touched_targets: Vec<NodeId>,
    last_touched_sources: Vec<NodeId>,
}

/// Per-entry byte cost used for cache-budget accounting.
///
/// Implementations delegate to `approx_bytes` methods defined in the crate
/// that owns each type, so the estimate tracks the type's actual layout:
/// element payloads are counted by *length* (not capacity) plus one `Vec`
/// header per allocation, which makes the cost a deterministic function of
/// the value — never of allocator state or build history.
pub trait CacheCost {
    /// Approximate resident heap bytes of this value.
    fn cost_bytes(&self) -> usize;
}

impl CacheCost for Graph {
    fn cost_bytes(&self) -> usize {
        self.approx_bytes()
    }
}

impl CacheCost for LtWeights {
    fn cost_bytes(&self) -> usize {
        self.approx_bytes()
    }
}

impl CacheCost for WorldCollection {
    fn cost_bytes(&self) -> usize {
        self.approx_bytes()
    }
}

impl CacheCost for Estimator {
    fn cost_bytes(&self) -> usize {
        self.approx_bytes()
    }
}

/// Sizing of an [`OracleCache`]: one global byte budget split over a number
/// of independently locked shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all shards. Entry costs come from
    /// [`CacheCost`]; once a shard's slice is exceeded it evicts (see the
    /// module docs for the policy).
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
/// and the `stats` wire op. All byte figures are [`CacheCost`] estimates.
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
    fn cost_bytes(&self) -> usize {
        match self {
            CacheValue::Graph(graph) => graph.cost_bytes(),
            CacheValue::Lt(weights) => weights.cost_bytes(),
            CacheValue::Worlds(worlds) => worlds.cost_bytes(),
            CacheValue::Oracle(oracle) => oracle.cost_bytes(),
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
    /// Charged cost: the value's [`CacheCost`] bytes plus key and
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
        // lint:allow(hash-iter): the collected keys are sorted before use
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
        // lint:allow(hash-iter): an unordered sum is order-independent
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
    building: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Mutable heads, keyed by base dataset fingerprint. A dataset appears
    /// here only after its first `mutate`; until then every key is the bare
    /// version-0 fingerprint and this map is never consulted on the hot
    /// path beyond one lock per graph lookup.
    heads: Mutex<HashMap<String, MutableHead>>,
    mutations: AtomicU64,
    ris_refreshes: AtomicU64,
    world_patches: AtomicU64,
    oracle_hits: AtomicU64,
    oracle_misses: AtomicU64,
    world_hits: AtomicU64,
    world_misses: AtomicU64,
    graph_hits: AtomicU64,
    graph_misses: AtomicU64,
    lt_hits: AtomicU64,
    lt_misses: AtomicU64,
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
            mutations: AtomicU64::new(0),
            ris_refreshes: AtomicU64::new(0),
            world_patches: AtomicU64::new(0),
            oracle_hits: AtomicU64::new(0),
            oracle_misses: AtomicU64::new(0),
            world_hits: AtomicU64::new(0),
            world_misses: AtomicU64::new(0),
            graph_hits: AtomicU64::new(0),
            graph_misses: AtomicU64::new(0),
            lt_hits: AtomicU64::new(0),
            lt_misses: AtomicU64::new(0),
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
            #[expect(
                clippy::expect_used,
                reason = "shard locks poison only if a holder panicked, which the panic rule forbids"
            )]
            let shard = shard.lock().expect("cache shard");
            bytes_used += shard.bytes_used as u64;
            bytes_budget += shard.bytes_budget as u64;
            evictions += shard.evictions;
        }
        CacheStats {
            oracle_hits: self.oracle_hits.load(Ordering::Relaxed),
            oracle_misses: self.oracle_misses.load(Ordering::Relaxed),
            world_hits: self.world_hits.load(Ordering::Relaxed),
            world_misses: self.world_misses.load(Ordering::Relaxed),
            graph_hits: self.graph_hits.load(Ordering::Relaxed),
            graph_misses: self.graph_misses.load(Ordering::Relaxed),
            lt_hits: self.lt_hits.load(Ordering::Relaxed),
            lt_misses: self.lt_misses.load(Ordering::Relaxed),
            bytes_used,
            bytes_budget,
            evictions,
            mutations: self.mutations.load(Ordering::Relaxed),
            ris_refreshes: self.ris_refreshes.load(Ordering::Relaxed),
            world_patches: self.world_patches.load(Ordering::Relaxed),
        }
    }

    /// Per-shard budget counters, in shard order.
    #[expect(
        clippy::expect_used,
        reason = "shard locks poison only if a holder panicked, which the panic rule forbids"
    )]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|shard| shard.lock().expect("cache shard").stats()).collect()
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up in its shard, refreshing recency on a hit. Shard
    /// locks are held only for the lookup itself, never across builds.
    #[expect(
        clippy::expect_used,
        reason = "shard locks poison only if a holder panicked, which the panic rule forbids"
    )]
    fn lookup(&self, key: &str) -> Option<CacheValue> {
        self.shard_for(key).lock().expect("cache shard").get(key)
    }

    /// Stores `value` under `key` (first build wins) and returns the stored
    /// value. The charged cost is the value's [`CacheCost`] bytes plus the
    /// key string and fixed per-entry bookkeeping.
    #[expect(
        clippy::expect_used,
        reason = "shard locks poison only if a holder panicked, which the panic rule forbids"
    )]
    fn store(&self, key: &str, value: CacheValue) -> CacheValue {
        let cost = key.len() + value.cost_bytes() + std::mem::size_of::<Entry>();
        self.shard_for(key).lock().expect("cache shard").insert_or_get(key.to_string(), value, cost)
    }

    /// Takes the per-key build lock for `key`; `build` runs only if a
    /// re-check under the lock still misses. Lock order is strictly
    /// outer-entry -> inner-entry (oracle -> worlds -> graph), so the
    /// per-key locks cannot cycle; shard locks are leaf locks taken only
    /// inside `lookup`/`store`.
    fn build_once<V: Clone>(
        &self,
        key: &str,
        lookup: impl Fn() -> Option<V>,
        on_hit: impl Fn(),
        on_miss: impl Fn(),
        build: impl FnOnce() -> Result<V>,
        store: impl FnOnce(V) -> V,
    ) -> Result<V> {
        let lock = {
            #[expect(
                clippy::expect_used,
                reason = "the registry lock is held for a map op only; no code inside can panic"
            )]
            let mut building = self.building.lock().expect("build-lock registry");
            Arc::clone(building.entry(key.to_string()).or_default())
        };
        #[expect(
            clippy::expect_used,
            reason = "a poisoned build lock means a builder panicked, which the panic rule forbids"
        )]
        let guard = lock.lock().expect("build lock");
        // Re-check under the lock: a concurrent builder may have finished
        // while this request waited, in which case the wait *was* the build.
        let stored = if let Some(value) = lookup() {
            on_hit();
            Ok(value)
        } else {
            on_miss();
            build().map(store)
        };
        drop(guard);
        // Waiters that already hold the Arc proceed normally; future
        // requests re-check the cache before ever reaching the registry.
        #[expect(
            clippy::expect_used,
            reason = "the registry lock is held for a map op only; no code inside can panic"
        )]
        self.building.lock().expect("build-lock registry").remove(key);
        stored
    }

    /// The head state of `spec`, if it has ever been mutated: the current
    /// graph plus the endpoints touched by the latest mutation step.
    fn head_state(&self, base: &str) -> Option<(Arc<Graph>, Vec<NodeId>, Vec<NodeId>)> {
        #[expect(
            clippy::expect_used,
            reason = "the heads lock is held for a map op only; no code inside can panic"
        )]
        let heads = self.heads.lock().expect("mutable-head registry");
        heads.get(base).map(|head| {
            (
                Arc::clone(&head.graph),
                head.last_touched_targets.clone(),
                head.last_touched_sources.clone(),
            )
        })
    }

    /// The current mutation generation of `spec`'s graph: 0 until the first
    /// `mutate`, then whatever the head has reached.
    pub fn graph_version(&self, spec: &DatasetSpec) -> u64 {
        self.head_state(&spec.fingerprint()).map_or(0, |(graph, _, _)| graph.version())
    }

    /// The dataset graph for `spec` — the mutated head when one exists, the
    /// version-0 build otherwise — built on first use.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generator failures.
    pub fn graph(&self, spec: &DatasetSpec) -> Result<Arc<Graph>> {
        let key = spec.fingerprint();
        if let Some((graph, _, _)) = self.head_state(&key) {
            self.graph_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(graph);
        }
        if let Some(graph) = self.lookup(&key) {
            self.graph_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(graph.into_graph());
        }
        self.build_once(
            &key,
            || self.lookup(&key).map(CacheValue::into_graph),
            || {
                self.graph_hits.fetch_add(1, Ordering::Relaxed);
            },
            || {
                self.graph_misses.fetch_add(1, Ordering::Relaxed);
            },
            || {
                let bundle = spec.dataset.build(spec.seed).map_err(|err| {
                    ServiceError::bad_request(format!(
                        "dataset '{}' failed to build: {err}",
                        spec.dataset.name()
                    ))
                })?;
                Ok(Arc::new(bundle.graph))
            },
            |graph| self.store(&key, CacheValue::Graph(graph)).into_graph(),
        )
    }

    /// The LT weight table for `spec`'s graph, built on first use.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generator failures.
    pub fn lt_weights(&self, spec: &DatasetSpec) -> Result<Arc<LtWeights>> {
        let base = spec.fingerprint();
        let key = format!("lt|{}", versioned_fingerprint(&base, self.graph_version(spec)));
        if let Some(weights) = self.lookup(&key) {
            self.lt_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(weights.into_lt());
        }
        self.build_once(
            &key,
            || self.lookup(&key).map(CacheValue::into_lt),
            || {
                self.lt_hits.fetch_add(1, Ordering::Relaxed);
            },
            || {
                self.lt_misses.fetch_add(1, Ordering::Relaxed);
            },
            || {
                let graph = self.graph(spec)?;
                Ok(Arc::new(LtWeights::from_graph(&graph)))
            },
            |weights| self.store(&key, CacheValue::Lt(weights)).into_lt(),
        )
    }

    /// A live-edge world collection for `(dataset, model, worlds config)` at
    /// the dataset's current graph version, sampled on first use and shared
    /// across every deadline thereafter.
    ///
    /// Version 0 keeps the sequential sampler (the frozen goldens pin its
    /// output). Mutated graphs use **keyed** coins, which makes a patched
    /// pool ([`WorldCollection::patch`]) bitwise-identical to a cold keyed
    /// rebuild — so when the previous version's pool is still resident, only
    /// the mutated source rows are re-drawn, and when it has been evicted
    /// the cold keyed path gives the exact same bytes.
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
        let version = head.as_ref().map_or(0, |(graph, _, _)| graph.version());
        let worlds_key = |v: u64| {
            format!(
                "{}|{}|worlds:n={},s={}",
                versioned_fingerprint(&base, v),
                model.label(),
                config.num_worlds,
                config.seed
            )
        };
        let key = worlds_key(version);
        if let Some(worlds) = self.lookup(&key) {
            self.world_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(worlds.into_worlds());
        }
        self.build_once(
            &key,
            || self.lookup(&key).map(CacheValue::into_worlds),
            || {
                self.world_hits.fetch_add(1, Ordering::Relaxed);
            },
            || {
                self.world_misses.fetch_add(1, Ordering::Relaxed);
            },
            || {
                let graph = self.graph(spec)?;
                let collection = match (model, &head) {
                    (ModelKind::IndependentCascade, None) => {
                        WorldCollection::sample(&graph, config)?
                    }
                    (ModelKind::IndependentCascade, Some((_, _, sources))) => {
                        // The donor must itself be keyed: the version-0 pool
                        // uses the sequential sampler (frozen goldens), so
                        // the first mutated generation always rebuilds cold
                        // and patching starts from generation 2.
                        let predecessor = (version >= 2)
                            .then(|| self.lookup(&worlds_key(version - 1)))
                            .flatten()
                            .map(CacheValue::into_worlds)
                            .and_then(|prev| prev.patch(&graph, sources, config).ok());
                        match predecessor {
                            Some(patched) => {
                                self.world_patches.fetch_add(1, Ordering::Relaxed);
                                patched
                            }
                            None => WorldCollection::sample_keyed(&graph, config)?,
                        }
                    }
                    (ModelKind::LinearThreshold, None) => {
                        let weights = self.lt_weights(spec)?;
                        WorldCollection::sample_lt(&graph, &weights, config)?
                    }
                    // LT picks are keyed by *target* node while world rows
                    // are source-major, so a row-wise patch cannot express
                    // an LT re-pick: mutated LT pools always rebuild cold
                    // (still keyed, still deterministic).
                    (ModelKind::LinearThreshold, Some(_)) => {
                        let weights = self.lt_weights(spec)?;
                        WorldCollection::sample_lt_keyed(&graph, &weights, config)?
                    }
                };
                Ok(Arc::new(collection))
            },
            |collection| self.store(&key, CacheValue::Worlds(collection)).into_worlds(),
        )
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
        if let Some(oracle) = self.lookup(&key) {
            self.oracle_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(oracle.into_oracle());
        }
        self.build_once(
            &key,
            || self.lookup(&key).map(CacheValue::into_oracle),
            || {
                self.oracle_hits.fetch_add(1, Ordering::Relaxed);
            },
            || {
                self.oracle_misses.fetch_add(1, Ordering::Relaxed);
            },
            || Ok(Arc::new(self.build_oracle(spec)?)),
            |oracle| self.store(&key, CacheValue::Oracle(oracle)).into_oracle(),
        )
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
    /// same spec is still resident, clone it (copy-on-write pool) and
    /// [`refresh`](tcim_diffusion::RisEstimator::refresh) only the sketches
    /// touching the mutated edge targets. `refresh` reuses `seed + id` per
    /// sketch, so this is bitwise-identical to the cold build the caller
    /// falls back to — which is exactly what the differential churn suite
    /// pins. Adaptive RIS never takes this path: its sketch *count* depends
    /// on sketch content, so only a cold run reproduces the sizing walk.
    fn refreshed_ris(&self, spec: &OracleSpec, graph: &Arc<Graph>) -> Result<Option<Estimator>> {
        let base = spec.dataset.fingerprint();
        let Some((head, targets, _)) = self.head_state(&base) else {
            return Ok(None);
        };
        // The touched set describes exactly the step `version-1 -> version`;
        // any other resident generation must rebuild cold.
        if head.version() != graph.version() {
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
        ris.refresh(Arc::clone(graph), &targets)?;
        self.ris_refreshes.fetch_add(1, Ordering::Relaxed);
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
        let mut targets: Vec<NodeId> = ops.iter().map(|op| op.endpoints().1).collect();
        targets.sort_unstable_by_key(|n| n.0);
        targets.dedup();
        let mut sources: Vec<NodeId> = ops.iter().map(|op| op.endpoints().0).collect();
        sources.sort_unstable_by_key(|n| n.0);
        sources.dedup();
        let new_version = mutated.version();
        // Charge the new graph against the budget under its versioned key.
        self.store(
            &versioned_fingerprint(&base, new_version),
            CacheValue::Graph(Arc::clone(&mutated)),
        );
        {
            #[expect(
                clippy::expect_used,
                reason = "the heads lock is held for a map op only; no code inside can panic"
            )]
            let mut heads = self.heads.lock().expect("mutable-head registry");
            heads.insert(
                base.clone(),
                MutableHead {
                    graph: Arc::clone(&mutated),
                    last_touched_targets: targets,
                    last_touched_sources: sources,
                },
            );
        }
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
            #[expect(
                clippy::expect_used,
                reason = "shard locks poison only if a holder panicked, which the panic rule forbids"
            )]
            shard.lock().expect("cache shard").purge_matching(matches);
        }
    }

    /// Graph mutations applied so far (the number of `mutate` calls).
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::Relaxed)
    }

    /// RIS oracles rebuilt incrementally instead of cold.
    pub fn ris_refreshes(&self) -> u64 {
        self.ris_refreshes.load(Ordering::Relaxed)
    }

    /// World pools rebuilt by row patching instead of cold sampling.
    pub fn world_patches(&self) -> u64 {
        self.world_patches.load(Ordering::Relaxed)
    }

    /// `bytes_used` recomputed from scratch over every resident entry. The
    /// cache-accounting tests pin `recount_bytes() == stats().bytes_used`
    /// after arbitrary churn; a mismatch means a charge/credit drifted.
    #[expect(
        clippy::expect_used,
        reason = "shard locks poison only if a holder panicked, which the panic rule forbids"
    )]
    pub fn recount_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("cache shard").recount_bytes() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_core::{RisConfig, WorldsConfig};
    use tcim_diffusion::{AdaptiveRis, InfluenceOracle, ParallelismConfig};

    fn spec(deadline: u32, num_worlds: usize) -> OracleSpec {
        OracleSpec {
            dataset: DatasetSpec { dataset: Dataset::Illustrative, seed: 1 },
            model: ModelKind::IndependentCascade,
            deadline: Deadline::finite(deadline),
            estimator: EstimatorConfig::Worlds(WorldsConfig {
                num_worlds,
                seed: 3,
                ..Default::default()
            }),
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
    fn fingerprints_separate_configs_but_not_parallelism() {
        let a = spec(2, 16).fingerprint();
        assert_ne!(a, spec(3, 16).fingerprint());
        assert_ne!(a, spec(2, 17).fingerprint());
        let mut serial = spec(2, 16);
        serial.estimator = EstimatorConfig::Worlds(WorldsConfig {
            num_worlds: 16,
            seed: 3,
            parallelism: ParallelismConfig::serial(),
        });
        assert_eq!(a, serial.fingerprint(), "parallelism must not split cache entries");

        let ris = OracleSpec {
            estimator: EstimatorConfig::Ris(RisConfig {
                num_sets: 64,
                seed: 3,
                adaptive: Some(AdaptiveRis::default()),
                ..Default::default()
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
            s.estimator =
                EstimatorConfig::Worlds(WorldsConfig { num_worlds: 8, seed, ..Default::default() });
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
        assert_eq!(cache.mutations(), 3, "failed mutations must not advance the head");
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
        assert_eq!(warm.ris_refreshes(), 1, "the incremental RIS path must engage");
        // Generation 1 rebuilds worlds cold (the version-0 donor is not
        // keyed); generation 2 patches off the keyed generation-1 pool.
        assert_eq!(warm.world_patches(), 0);
        warm.mutate(&dataset, &[op2]).unwrap();
        let warm_ris = warm.oracle(&ris_spec).unwrap();
        let warm_worlds = warm.oracle(&worlds_spec).unwrap();
        assert_eq!(warm.ris_refreshes(), 2);
        assert_eq!(warm.world_patches(), 1, "the world patch path must engage");

        // A cold cache replaying the same mutations must answer identically.
        let cold = OracleCache::new();
        cold.mutate(&dataset, &[op1]).unwrap();
        cold.mutate(&dataset, &[op2]).unwrap();
        let cold_ris = cold.oracle(&ris_spec).unwrap();
        let cold_worlds = cold.oracle(&worlds_spec).unwrap();
        assert_eq!(cold.ris_refreshes(), 0);
        assert_eq!(cold.world_patches(), 0);
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
