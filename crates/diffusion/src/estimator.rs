//! Group-aware estimation of the time-critical influence utility `f_τ`
//! (Eq. 1 of the paper) and incremental marginal-gain oracles for greedy
//! seed selection.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;
use tcim_graph::{Graph, GroupId, NodeId};

use crate::deadline::Deadline;
use crate::error::{DiffusionError, Result};
use crate::worlds::{
    bounded_bfs, live_ic_row, LiveEdgeWorld, VisitScratch, WorldCollection, WorldsConfig,
};

/// Expected number of influenced nodes per group before the deadline — the
/// vector `(f_τ(S; V_1), …, f_τ(S; V_k))`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupInfluence {
    per_group: Vec<f64>,
}

impl GroupInfluence {
    /// A zero influence vector over `num_groups` groups.
    pub fn zeros(num_groups: usize) -> Self {
        GroupInfluence { per_group: vec![0.0; num_groups] }
    }

    /// Builds an influence vector from raw per-group values.
    pub fn from_values(per_group: Vec<f64>) -> Self {
        GroupInfluence { per_group }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.per_group.len()
    }

    /// Expected influenced nodes in `group`.
    pub fn group(&self, group: GroupId) -> f64 {
        self.per_group.get(group.index()).copied().unwrap_or(0.0)
    }

    /// Raw per-group values.
    pub fn values(&self) -> &[f64] {
        &self.per_group
    }

    /// Total expected influenced nodes `f_τ(S; V) = Σ_i f_τ(S; V_i)`.
    pub fn total(&self) -> f64 {
        self.per_group.iter().sum()
    }

    /// Normalized ("average utility per node") group influences
    /// `f_τ(S; V_i) / |V_i|`; empty groups report 0.
    pub fn normalized(&self, group_sizes: &[usize]) -> Vec<f64> {
        self.per_group
            .iter()
            .zip(group_sizes)
            .map(|(&f, &s)| if s == 0 { 0.0 } else { f / s as f64 })
            .collect()
    }

    /// Adds another influence vector element-wise.
    pub fn add_assign(&mut self, other: &GroupInfluence) {
        for (a, b) in self.per_group.iter_mut().zip(&other.per_group) {
            *a += b;
        }
    }

    /// Scales every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for a in self.per_group.iter_mut() {
            *a *= factor;
        }
    }
}

/// A group-aware oracle for the expected time-critical influence of a seed
/// set. Implementations differ in how the expectation over cascade outcomes
/// is approximated.
pub trait InfluenceOracle {
    /// The underlying graph.
    fn graph(&self) -> &Graph;

    /// The deadline `τ` this oracle evaluates against.
    fn deadline(&self) -> Deadline;

    /// Estimates `(f_τ(S; V_1), …, f_τ(S; V_k))` for the seed set `seeds`.
    ///
    /// # Errors
    ///
    /// Returns an error if a seed is out of bounds.
    fn evaluate(&self, seeds: &[NodeId]) -> Result<GroupInfluence>;

    /// Creates an incremental cursor starting from the empty seed set.
    fn cursor(&self) -> Box<dyn InfluenceCursor + '_>;

    /// Sizes of the graph's groups (convenience accessor).
    fn group_sizes(&self) -> Vec<usize> {
        self.graph().group_sizes()
    }
}

/// Incremental view over a growing seed set: supports cheap marginal-gain
/// queries and committing a chosen seed. This is the interface the greedy /
/// CELF solvers drive.
pub trait InfluenceCursor {
    /// Seeds committed so far, in insertion order.
    fn seeds(&self) -> &[NodeId];

    /// Influence of the current seed set.
    fn current(&self) -> &GroupInfluence;

    /// Per-group marginal gain of adding `candidate` to the current seed set.
    /// Does not modify the cursor state (apart from internal scratch buffers).
    /// A [`WorldCursor`] with at most two committed seeds may also store the
    /// value it returns in its oracle's shared gain rows, so later cursors of
    /// that oracle with the same seeds read it instead of recomputing it.
    fn gain(&mut self, candidate: NodeId) -> GroupInfluence;

    /// The marginal gains of every candidate against the current seed set,
    /// in candidate order: entry `j` equals `gain(candidates[j])` bitwise.
    /// A scan that asks for many gains against one seed set asks here, so a
    /// cursor can spread the batch over threads; the default asks `gain`
    /// once per candidate.
    fn gains(&mut self, candidates: &[NodeId]) -> Vec<GroupInfluence> {
        candidates.iter().map(|&v| self.gain(v)).collect()
    }

    /// Commits `candidate` to the seed set.
    fn add_seed(&mut self, candidate: NodeId);
}

// ---------------------------------------------------------------------------
// Live-edge world estimator (common random numbers)
// ---------------------------------------------------------------------------

/// Influence oracle evaluating seed sets on a fixed collection of pre-sampled
/// live-edge worlds.
///
/// On the fixed sample the utility is an exactly monotone submodular coverage
/// function, so greedy selection driven by [`WorldCursor`] inherits the
/// classical `(1 - 1/e)` and `ln(1 + |V|)` guarantees of Section 3.4 with
/// respect to the sampled objective.
#[derive(Debug, Clone)]
pub struct WorldEstimator {
    graph: Arc<Graph>,
    worlds: Arc<WorldCollection>,
    deadline: Deadline,
    group_of: Vec<u32>,
    group_sizes: Vec<usize>,
    /// The gain rows, shared by every cursor of this estimator and its
    /// clones (never across deadlines: the counts depend on τ). Row `j` is
    /// claimed by the first gain any cursor asks against a `j`-seed set, so
    /// an estimate-only oracle never pays for one.
    rows: Arc<[OnceLock<GainRow>; GAIN_ROWS]>,
}

/// Seed-set sizes with a gain row: 0, 1 and 2. Round 0 of every solve on an
/// oracle asks the same questions, and solves that open with the same seeds
/// (P1 and the fair problems that retrace it) ask the same ones again.
const GAIN_ROWS: usize = 3;

/// Per-candidate, per-group world counts of the marginal gains against one
/// seed set, filled lazily by the gains of every [`WorldCursor`] whose
/// committed seeds are that set. A gain is a pure integer function of the
/// worlds, τ, the set and the candidate, so a stored count is the one the
/// BFS would return. Slot `s`'s counts are `counts[s * k .. (s + 1) * k]`
/// and are valid once `ready[s]` is set: the filler stores the counts, then
/// sets the flag with `Release`; a reader loads the flag with `Acquire`. Two
/// cursors racing to fill one slot store identical values, so no lock is
/// needed.
#[derive(Debug)]
struct GainRow {
    /// The seed set, as sorted ids.
    key: Box<[NodeId]>,
    /// The candidates with a slot, sorted; `None` gives every node `v` the
    /// slot `v.index()`.
    pool: Option<Box<[NodeId]>>,
    counts: Box<[AtomicU64]>,
    ready: Box<[AtomicBool]>,
}

impl GainRow {
    fn new(
        key: &[NodeId],
        pool: Option<Box<[NodeId]>>,
        num_nodes: usize,
        num_groups: usize,
    ) -> Self {
        let slots = pool.as_ref().map_or(num_nodes, |pool| pool.len());
        GainRow {
            key: key.into(),
            pool,
            counts: (0..slots * num_groups).map(|_| AtomicU64::new(0)).collect(),
            ready: (0..slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Bytes of every row at its largest over `num_nodes × num_groups`,
    /// whether or not a cursor has claimed or filled it yet: `n × k` counts
    /// and `n` flags each, up to `n` pool ids for rows 1 and 2, and row `j`'s
    /// `j` key ids.
    fn bytes_of_all(num_nodes: usize, num_groups: usize) -> usize {
        let table = std::mem::size_of::<Self>()
            + num_nodes * num_groups * std::mem::size_of::<AtomicU64>()
            + num_nodes * std::mem::size_of::<AtomicBool>();
        let ids = (GAIN_ROWS - 1) * num_nodes + (0..GAIN_ROWS).sum::<usize>();
        GAIN_ROWS * table + ids * std::mem::size_of::<NodeId>()
    }

    fn slot(&self, v: NodeId) -> Option<usize> {
        match &self.pool {
            None => Some(v.index()),
            Some(pool) => pool.binary_search(&v).ok(),
        }
    }

    /// `v`'s stored counts, if it has a slot and some cursor has filled it.
    fn get(&self, v: NodeId, num_groups: usize) -> Option<&[AtomicU64]> {
        let slot = self.slot(v)?;
        if !self.ready.get(slot)?.load(Ordering::Acquire) {
            return None;
        }
        self.counts.get(slot * num_groups..(slot + 1) * num_groups)
    }

    fn fill(&self, v: NodeId, counts: &[u64]) {
        let Some(slot) = self.slot(v) else { return };
        let start = slot * counts.len();
        if let (Some(slots), Some(ready)) =
            (self.counts.get(start..start + counts.len()), self.ready.get(slot))
        {
            for (cell, &c) in slots.iter().zip(counts) {
                cell.store(c, Ordering::Relaxed);
            }
            ready.store(true, Ordering::Release);
        }
    }
}

/// `candidates` as a row's slot set: their in-range ids, sorted and
/// deduplicated, or `None` when that is every node.
fn slot_set(candidates: &[NodeId], num_nodes: usize) -> Option<Box<[NodeId]>> {
    let mut ids: Vec<NodeId> =
        candidates.iter().copied().filter(|v| v.index() < num_nodes).collect();
    ids.sort_unstable();
    ids.dedup();
    (ids.len() < num_nodes).then(|| ids.into_boxed_slice())
}

impl WorldEstimator {
    /// Samples `config.num_worlds` live-edge worlds from `graph` and builds
    /// the estimator.
    ///
    /// # Errors
    ///
    /// Returns an error when `config.num_worlds` is zero.
    pub fn new(graph: Arc<Graph>, deadline: Deadline, config: &WorldsConfig) -> Result<Self> {
        let worlds = Arc::new(WorldCollection::sample(&graph, config)?);
        Self::from_worlds(graph, worlds, deadline)
    }

    /// Samples `config.num_worlds` **linear-threshold** live-edge worlds from
    /// `graph` and builds the estimator, so the same solvers run under the LT
    /// model (the extension the paper mentions in Section 3.1).
    ///
    /// # Errors
    ///
    /// Returns an error when `config.num_worlds` is zero.
    pub fn new_lt(graph: Arc<Graph>, deadline: Deadline, config: &WorldsConfig) -> Result<Self> {
        let weights = crate::lt::LtWeights::from_graph(&graph);
        let worlds = Arc::new(WorldCollection::sample_lt(&graph, &weights, config)?);
        Self::from_worlds(graph, worlds, deadline)
    }

    /// Builds an estimator over an existing world collection (so several
    /// deadlines can share the same sampled worlds).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] when the collection was
    /// sampled over a different node count than `graph` has.
    pub fn from_worlds(
        graph: Arc<Graph>,
        worlds: Arc<WorldCollection>,
        deadline: Deadline,
    ) -> Result<Self> {
        if worlds.num_nodes() != graph.num_nodes() {
            return Err(DiffusionError::InvalidParameter {
                message: format!(
                    "world collection covers {} nodes but the graph has {}",
                    worlds.num_nodes(),
                    graph.num_nodes()
                ),
            });
        }
        let group_of: Vec<u32> = graph.nodes().map(|v| graph.group_of(v).0).collect();
        let group_sizes = graph.group_sizes();
        Ok(WorldEstimator { graph, worlds, deadline, group_of, group_sizes, rows: Arc::default() })
    }

    /// Returns a copy of this estimator that evaluates against a different
    /// deadline but shares the same sampled worlds (not the gain rows, whose
    /// counts depend on the deadline).
    pub fn with_deadline(&self, deadline: Deadline) -> Self {
        WorldEstimator { deadline, rows: Arc::default(), ..self.clone() }
    }

    /// How many candidates the gain row for `size`-seed sets has a slot for,
    /// once a cursor has claimed it: `n` when its claimant's first batch of
    /// gains covered every node, else that batch's distinct in-range
    /// candidates. `None` before the claim, and for `size` past 2, which
    /// never gets a row.
    pub fn gain_row_slots(&self, size: usize) -> Option<usize> {
        Some(self.rows.get(size)?.get()?.ready.len())
    }

    /// The per-group world counts of the marginal gains of `candidates`
    /// against `seeds`, by the reachability sweep a [`WorldCursor`] runs
    /// instead of its searches where it predicts the sweep cheaper. For
    /// tests that hold the sweep to the searches it replaces.
    #[doc(hidden)]
    pub fn swept_gain_counts(&self, seeds: &[NodeId], candidates: &[NodeId]) -> Vec<Vec<u64>> {
        let mut cursor = WorldCursor::new(self);
        for &seed in seeds {
            cursor.add_seed(seed);
        }
        swept_counts(self, &cursor.distance, candidates)
    }

    /// Number of sampled worlds.
    pub fn num_worlds(&self) -> usize {
        self.worlds.len()
    }

    /// The shared world collection.
    pub fn worlds(&self) -> &WorldCollection {
        &self.worlds
    }

    /// A shared handle to the world collection, for caches that reuse one
    /// sampled collection across many deadlines and queries (cloning the
    /// handle shares, never copies; see [`WorldEstimator::from_worlds`]).
    pub fn worlds_arc(&self) -> Arc<WorldCollection> {
        Arc::clone(&self.worlds)
    }

    /// The shared graph handle.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Approximate heap bytes this estimator owns *beyond* its shared graph
    /// and world-collection `Arc`s: the per-node group lookup, the group
    /// sizes and the three gain rows at their largest (each `n × k` counts of
    /// 8 bytes plus one ready flag per node, rows 1 and 2 up to `n` pool ids,
    /// and the rows' keys). The rows are charged in full up front, whether
    /// or not a cursor has claimed or filled them yet, so the charge is a
    /// function of the graph alone. A worlds-backed estimator is a view: the
    /// serving-tier cache accounts for (and budgets) the collection itself
    /// as its own entry.
    pub fn approx_view_bytes(&self) -> usize {
        2 * std::mem::size_of::<Vec<u8>>()
            + self.group_of.len() * std::mem::size_of::<u32>()
            + self.group_sizes.len() * std::mem::size_of::<usize>()
            + GainRow::bytes_of_all(self.group_of.len(), self.group_sizes.len())
    }

    fn evaluate_worlds(&self, seeds: &[NodeId]) -> GroupInfluence {
        let worlds = self.worlds.worlds();
        let n = self.graph.num_nodes();
        let k = self.group_sizes.len();
        let counts = world_counts(worlds.len(), k, |i, scratch, counts| {
            let world = &worlds[i];
            let row = |v| world.out_neighbors(NodeId(v)).iter().copied();
            bounded_bfs(n, seeds, self.deadline, scratch, row, |node, _| {
                counts[self.group_of[node.index()] as usize] += 1;
                true
            });
        });
        mean_over_worlds(counts, worlds.len())
    }
}

/// The one per-world count behind every forward estimate:
/// `count_world(i, scratch, counts)` adds world `i`'s per-group hits to
/// `counts`, and the totals over worlds `0..num_worlds` come back. The worlds
/// fan out under the ambient thread count, one scratch per worker. Counts
/// stay `u64` until [`mean_over_worlds`] scales them once: integer addition
/// is associative, so chunk boundaries (and hence the thread count) cannot
/// change the result.
fn world_counts(
    num_worlds: usize,
    num_groups: usize,
    count_world: impl Fn(usize, &mut VisitScratch, &mut [u64]) + Sync,
) -> Vec<u64> {
    (0..num_worlds)
        .into_par_iter()
        .fold(
            || (vec![0u64; num_groups], VisitScratch::new(0)),
            |(mut counts, mut scratch), i| {
                count_world(i, &mut scratch, &mut counts);
                (counts, scratch)
            },
        )
        .reduce(
            || (vec![0u64; num_groups], VisitScratch::new(0)),
            |(mut acc, scratch), (partial, _)| {
                for (a, p) in acc.iter_mut().zip(&partial) {
                    *a += p;
                }
                (acc, scratch)
            },
        )
        .0
}

/// The per-world mean of summed per-group `counts`.
fn mean_over_worlds(counts: impl IntoIterator<Item = u64>, num_worlds: usize) -> GroupInfluence {
    let scale = 1.0 / num_worlds as f64;
    GroupInfluence::from_values(counts.into_iter().map(|c| c as f64 * scale).collect())
}

impl InfluenceOracle for WorldEstimator {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn deadline(&self) -> Deadline {
        self.deadline
    }

    fn evaluate(&self, seeds: &[NodeId]) -> Result<GroupInfluence> {
        crate::ic::validate_seeds(&self.graph, seeds)?;
        Ok(self.evaluate_worlds(seeds))
    }

    fn cursor(&self) -> Box<dyn InfluenceCursor + '_> {
        Box::new(WorldCursor::new(self))
    }
}

/// Distance entry of a node the committed seeds do not reach within τ.
const UNCOVERED: u8 = u8::MAX;

/// Distance entry of a node the committed seeds reach, but only at 254 hops
/// or more: covered, with no exact distance stored, so it never prunes.
const FAR: u8 = u8::MAX - 1;

/// Whether a node reached at `hops` from a candidate, with stored distance
/// `distance` from the committed seeds, is already reached at least as
/// soon by them. If so, everything it reaches within τ − `hops` more hops is
/// reached from the seeds within τ, so it is neither counted nor expanded.
#[inline]
fn reached_sooner(distance: u8, hops: u32) -> bool {
    distance < FAR && u32::from(distance) <= hops
}

/// Incremental coverage state over the live-edge worlds of a
/// [`WorldEstimator`]: each node's hop distance from the committed seeds in
/// each world and, once the cursor has bought them, every ground
/// candidate's gain counts.
///
/// A gain query (and `add_seed`) runs the τ-bounded BFS from the candidate
/// but prunes every node the committed seeds reach in at most as many hops
/// as the candidate does. This is exact: on a shortest path from the
/// candidate to a node the seeds do not reach, every node is farther from
/// the seeds than from the candidate, so none is pruned and the counts are
/// the same integers a full BFS gives. The state costs one byte per node
/// per world.
///
/// While its committed seeds, sorted, equal the key of the estimator's gain
/// row for their count (0, 1 or 2 seeds), a gain is read from (or stored
/// in) that row. The first gain any cursor asks against a set of that size
/// claims the row for its set. Row 0 has a slot for every node; rows 1 and
/// 2 have one for each candidate of the claiming cursor's first batch of
/// gains (every node when it was the whole graph), so a solve over a small
/// pool allocates small rows. A gain with no slot, or against another set,
/// is computed and not stored.
///
/// On the fixed worlds a gain is a coverage count: the uncovered (world,
/// node) pairs within τ live hops of the candidate. When a seed newly
/// covers pair `(i, w)`, exactly the candidates within τ hops of `w` in
/// world `i` lose one count in `w`'s group, and a τ-bounded BFS over world
/// `i`'s reversed live edges from `w` finds them. So the cursor can keep
/// the counts of its ground (the candidates of its first batch) current
/// instead of searching forwards, and a gain of a ground candidate becomes
/// a lookup of the integers the pruned BFS returns. Over a whole solve the
/// reverse searches cost at most one more round 0: the reverse balls of all
/// pairs have the sizes of the forward balls of all nodes.
///
/// The cursor buys these counts lazily, so a solve that would not repay
/// them never pays. It buys when a gain misses the rows, the cursor holds
/// seeds, its ground is set, row 0 holds every ground slot, and the BFS
/// node visits its computed gains have paid (round 0 included) reach the
/// work of reversing the worlds' live rows, `2·(W·n + live edges)`. Buying
/// reverses each world and counts the ground against the committed seeds,
/// by one of two routes (below): row 0's counts less every pair the
/// distance array marks covered, or one reachability sweep per world. From
/// then on `add_seed` records the pairs it newly covers, and the next gain
/// that misses the rows subtracts them first; at 1 or 2 seeds it then
/// writes every ground slot of the matching row. The rule decides speed,
/// never an answer. The reversed worlds belong to the cursor and go with
/// it.
///
/// Dense worlds answer a whole ground at once faster than one search per
/// candidate. Per world and per block of 256 targets, a sweep starts each
/// node's row as the node itself and runs τ rounds (fewer if a round
/// changes no row) of `R[u] ← R[u] ∪ ⋃_{u→v live} R[v]`, reading the
/// previous round's rows only, so row `u` ends as `u`'s τ-ball within the
/// block. Popcounts of the rows against per-group masks of the targets the
/// seeds leave uncovered give every candidate's counts: the integers the
/// pruned BFS returns. The sweep costs `⌈n/256⌉ · (W·n + τ·(W·n + live
/// edges))` block operations whatever the batch. A batch against no seeds
/// (round 0) sweeps when that is under 5 times the predicted visits of its
/// searches, `|batch| · W · min(n, Σ_{t≤τ} d̄^t)` with `d̄` the worlds' mean
/// live out-degree, and pays the visits the searches would have paid. A
/// buy sweeps when it is under 8 times the replay's predicted reverse
/// visits, the covered pairs times the ground's mean ball in row 0. Both
/// factors are measured (see `SWEEP_OPS_PER_VISIT`), and both rules are
/// functions of the worlds and the batch or cursor state only; at τ = ∞
/// neither sweeps.
///
/// One gain query runs serially on the cursor's own scratch: a pruned gain
/// typically costs less than the tens of microseconds a fan-out spends
/// starting threads. Threads go across candidates instead:
/// [`InfluenceCursor::gains`] splits a batch it has to search for with a
/// single fan-out once a lower bound on its BFS node visits reaches 50 000,
/// under the calling thread's count (see [`crate::ParallelismConfig`]). A
/// sweep fans out across worlds once its block operations reach that
/// count, one pair of `n × 32`-byte row buffers per worker.
pub struct WorldCursor<'a> {
    estimator: &'a WorldEstimator,
    /// World-major, `num_worlds × num_nodes`: entry `i * n + v` is `v`'s hop
    /// distance from the committed seeds in world `i` when it is at most
    /// 253, [`FAR`] beyond that, and [`UNCOVERED`] past τ.
    distance: Vec<u8>,
    group_totals: Vec<f64>,
    current: GroupInfluence,
    seeds: Vec<NodeId>,
    scratch: VisitScratch,
    /// The slot set of the candidates of this cursor's first batch of gains
    /// (see [`slot_set`]): the slots of a row 1 or 2 this cursor claims, and
    /// the ground whose counts it keeps.
    ground: OnceCell<Option<Box<[NodeId]>>>,
    /// BFS node visits the gains this cursor computed by search have paid.
    visits: u64,
    /// The ground's gain counts, once bought.
    kept: Option<KeptCounts>,
}

/// A batch of gains fans out over threads only when a lower bound on the
/// BFS node visits of the candidates it still has to search for reaches
/// this: each candidate in every world, and past τ = 0 one more per live
/// out-edge there (each leads to another node, save a self-loop). Below
/// it, starting scoped threads (tens of microseconds per operation) would
/// cost more than the BFS work it spreads.
const PARALLEL_GAIN_MIN_WORK: usize = 50_000;

/// [`KeptCounts::slot_of`] entry of a node outside the ground.
const NO_SLOT: u32 = u32::MAX;

/// The gain counts a [`WorldCursor`] keeps current once it has bought them.
struct KeptCounts {
    /// Each world's live edges, turned around.
    reverse: Vec<LiveEdgeWorld>,
    /// Each node's ground slot, [`NO_SLOT`] outside the ground.
    slot_of: Vec<u32>,
    /// Slot `s`'s per-group counts at `s * k .. (s + 1) * k`: its gain
    /// against the committed seeds, less the pairs still in `pending`.
    counts: Vec<u64>,
    /// The distance-array indices `i * n + w` of the pairs newly covered by
    /// seeds committed since the last refresh.
    pending: Vec<usize>,
    /// How many committed seeds the counts reflect: 0 until the first
    /// refresh after buying.
    refreshed: usize,
}

impl KeptCounts {
    /// Buys the counts of `ground` (every node when `None`) against the
    /// seeds whose hop distances `distance` holds. `None`, before any world
    /// is reversed, unless `row0` holds every ground slot. The counts come
    /// from one reachability sweep per world where [`sweeps_buy`] predicts
    /// it cheaper, else from `row0` less every covered pair.
    fn buy(
        estimator: &WorldEstimator,
        ground: Option<&[NodeId]>,
        row0: &GainRow,
        distance: &[u8],
        scratch: &mut VisitScratch,
    ) -> Option<Self> {
        let n = estimator.graph.num_nodes();
        let k = estimator.group_sizes.len();
        let all: Vec<NodeId>;
        let ground = match ground {
            Some(ground) => ground,
            None => {
                all = estimator.graph.nodes().collect();
                &all
            }
        };
        let stored: Vec<&[AtomicU64]> =
            ground.iter().map(|&v| row0.get(v, k)).collect::<Option<_>>()?;
        let stored = || stored.iter().flat_map(|c| c.iter().map(|c| c.load(Ordering::Relaxed)));
        let mut slot_of = vec![NO_SLOT; n];
        for (slot, &v) in ground.iter().enumerate() {
            slot_of[v.index()] = slot as u32;
        }
        let reverse = estimator.worlds.worlds().iter().map(LiveEdgeWorld::reversed).collect();
        let covered = || distance.iter().enumerate().filter(|(_, &d)| d != UNCOVERED);
        let swept = sweeps_buy(estimator, ground.len(), stored().sum(), covered().count());
        let counts = if swept {
            swept_counts(estimator, distance, ground).concat()
        } else {
            stored().collect()
        };
        let mut kept = KeptCounts { reverse, slot_of, counts, pending: Vec::new(), refreshed: 0 };
        if !swept {
            for (index, _) in covered() {
                kept.uncover(estimator, index, scratch);
            }
        }
        Some(kept)
    }

    /// Takes the pair at distance-array index `index` off the counts of
    /// every ground candidate within τ hops of it.
    fn uncover(&mut self, estimator: &WorldEstimator, index: usize, scratch: &mut VisitScratch) {
        let n = estimator.graph.num_nodes();
        let k = estimator.group_sizes.len();
        let (world, node) = (index / n, index % n);
        let group = estimator.group_of[node] as usize;
        let reverse = &self.reverse[world];
        let row = |v| reverse.out_neighbors(NodeId(v)).iter().copied();
        let (slot_of, counts) = (&self.slot_of, &mut self.counts);
        bounded_bfs(n, &[NodeId::from_index(node)], estimator.deadline, scratch, row, |u, _| {
            let slot = slot_of[u.index()];
            if slot != NO_SLOT {
                counts[slot as usize * k + group] -= 1;
            }
            true
        });
    }

    /// `v`'s counts, if it is in the ground.
    fn counts_of(&self, v: NodeId, num_groups: usize) -> Option<&[u64]> {
        let slot = *self.slot_of.get(v.index())?;
        let slot = (slot != NO_SLOT).then_some(slot as usize)?;
        self.counts.get(slot * num_groups..(slot + 1) * num_groups)
    }
}

impl<'a> WorldCursor<'a> {
    fn new(estimator: &'a WorldEstimator) -> Self {
        let n = estimator.graph.num_nodes();
        let k = estimator.group_sizes.len();
        WorldCursor {
            estimator,
            distance: vec![UNCOVERED; estimator.worlds.len() * n],
            group_totals: vec![0.0; k],
            current: GroupInfluence::zeros(k),
            seeds: Vec::new(),
            scratch: VisitScratch::new(n),
            ground: OnceCell::new(),
            visits: 0,
            kept: None,
        }
    }

    /// The oracle's gain row for the committed seeds, claimed for them if no
    /// cursor has asked a gain against a set of their size yet. `None` when
    /// another set holds the row, or past two seeds.
    fn row(&self) -> Option<&'a GainRow> {
        let estimator = self.estimator;
        let size = self.seeds.len();
        let cell = estimator.rows.get(size)?;
        let mut key = [NodeId(0); GAIN_ROWS - 1];
        let key = &mut key[..size];
        key.copy_from_slice(&self.seeds);
        key.sort_unstable();
        let row = cell.get_or_init(|| {
            let pool = if size == 0 { None } else { self.ground.get().cloned().flatten() };
            GainRow::new(key, pool, estimator.graph.num_nodes(), estimator.group_sizes.len())
        });
        (*row.key == *key).then_some(row)
    }

    /// `candidate`'s gain from `row`, if some cursor has stored it.
    fn stored_gain(&self, row: Option<&GainRow>, candidate: NodeId) -> Option<GroupInfluence> {
        let stored = row?.get(candidate, self.estimator.group_sizes.len())?;
        let counts = stored.iter().map(|c| c.load(Ordering::Relaxed));
        Some(mean_over_worlds(counts, self.estimator.worlds.len()))
    }

    /// The kept counts, brought up to the committed seeds, if this cursor
    /// has bought them or buys them now (see [`WorldCursor`] for when). The
    /// first call after a buy or a commit refreshes them, then writes every
    /// ground slot of `row`, the row for the committed seeds, if any.
    fn kept(&mut self, row: Option<&GainRow>) -> Option<&KeptCounts> {
        let estimator = self.estimator;
        if self.kept.is_none() {
            let ground = self.ground.get()?;
            if self.seeds.is_empty() || self.visits < buy_price(estimator) {
                return None;
            }
            let row0 = estimator.rows.first()?.get()?;
            self.kept = Some(KeptCounts::buy(
                estimator,
                ground.as_deref(),
                row0,
                &self.distance,
                &mut self.scratch,
            )?);
        }
        let kept = self.kept.as_mut()?;
        if kept.refreshed == self.seeds.len() {
            return Some(kept);
        }
        for index in std::mem::take(&mut kept.pending) {
            kept.uncover(estimator, index, &mut self.scratch);
        }
        kept.refreshed = self.seeds.len();
        if let Some(row) = row {
            let k = estimator.group_sizes.len();
            for (v, &slot) in kept.slot_of.iter().enumerate().filter(|(_, &s)| s != NO_SLOT) {
                let slot = slot as usize;
                row.fill(NodeId::from_index(v), &kept.counts[slot * k..(slot + 1) * k]);
            }
        }
        Some(kept)
    }

    /// The counts of the gains of `todo`, which missed the rows: read from
    /// the kept counts where the cursor has them, else swept where
    /// [`sweeps_round_zero`] predicts it cheaper, else searched for, all on
    /// the cursor's scratch unless [`fans_out`] says the batch is worth one
    /// fan-out. Every searched node visit, or its swept equivalent, is paid
    /// into `visits`.
    fn computed(&mut self, row: Option<&GainRow>, todo: &[NodeId]) -> Vec<Vec<u64>> {
        let estimator = self.estimator;
        let k = estimator.group_sizes.len();
        if todo.is_empty() {
            return Vec::new();
        }
        if let Some(kept) = self.kept(row) {
            let read: Vec<Option<Vec<u64>>> =
                todo.iter().map(|&v| kept.counts_of(v, k).map(<[u64]>::to_vec)).collect();
            return read
                .into_iter()
                .zip(todo)
                .map(|(read, &v)| read.unwrap_or_else(|| self.searched(v)))
                .collect();
        }
        if self.seeds.is_empty() && todo.len() > 1 && sweeps_round_zero(estimator, todo) {
            // With no seeds every pair is uncovered, so a candidate's counts
            // sum to its τ-ball: the node visits its search would have paid.
            let counts = swept_counts(estimator, &self.distance, todo);
            self.visits += counts.iter().flatten().sum::<u64>();
            return counts;
        }
        if !fans_out(estimator, todo) {
            return todo.iter().map(|&v| self.searched(v)).collect();
        }
        let distance = &self.distance;
        let (counts, _, visits) = todo
            .par_iter()
            .fold(
                || (Vec::new(), VisitScratch::new(0), 0u64),
                |(mut chunk, mut scratch, mut visits), &v| {
                    chunk.push(gain_counts(estimator, distance, v, &mut scratch, &mut visits));
                    (chunk, scratch, visits)
                },
            )
            .reduce(
                || (Vec::new(), VisitScratch::new(0), 0),
                |(mut acc, scratch, visits), (chunk, _, more)| {
                    acc.extend(chunk);
                    (acc, scratch, visits + more)
                },
            );
        self.visits += visits;
        counts
    }

    /// `candidate`'s gain counts by a search on the cursor's own scratch.
    fn searched(&mut self, candidate: NodeId) -> Vec<u64> {
        gain_counts(self.estimator, &self.distance, candidate, &mut self.scratch, &mut self.visits)
    }
}

/// The BFS node visits after which a [`WorldCursor`] buys kept counts: the
/// work of reversing every world's live rows, `2·(W·n + live edges)`.
fn buy_price(estimator: &WorldEstimator) -> u64 {
    2 * (estimator.worlds.len() * estimator.graph.num_nodes() + live_edges(estimator)) as u64
}

/// The live edges of every world.
fn live_edges(estimator: &WorldEstimator) -> usize {
    estimator.worlds.worlds().iter().map(LiveEdgeWorld::num_live_edges).sum()
}

/// Whether searching for the gains of `todo` is worth one fan-out: whether
/// the lower bound on its node visits that [`PARALLEL_GAIN_MIN_WORK`]
/// describes reaches that constant.
fn fans_out(estimator: &WorldEstimator, todo: &[NodeId]) -> bool {
    let n = estimator.graph.num_nodes();
    let expands = estimator.deadline.allows(1);
    let mut work = 0usize;
    todo.len() > 1
        && todo.iter().filter(|v| v.index() < n).any(|&v| {
            for world in estimator.worlds.worlds() {
                work += 1 + if expands { world.out_neighbors(v).len() } else { 0 };
            }
            work >= PARALLEL_GAIN_MIN_WORK
        })
}

/// The per-group world counts of `candidate`'s marginal gain over the seeds
/// whose hop distances `distance` holds, world by world on one scratch;
/// adds the node visits of the search to `visits`.
fn gain_counts(
    estimator: &WorldEstimator,
    distance: &[u8],
    candidate: NodeId,
    scratch: &mut VisitScratch,
    visits: &mut u64,
) -> Vec<u64> {
    let n = estimator.graph.num_nodes();
    let mut counts = vec![0u64; estimator.group_sizes.len()];
    for (i, world) in estimator.worlds.worlds().iter().enumerate() {
        let distance = &distance[i * n..(i + 1) * n];
        let row = |v| world.out_neighbors(NodeId(v)).iter().copied();
        bounded_bfs(n, &[candidate], estimator.deadline, scratch, row, |node, hops| {
            *visits += 1;
            let d = distance[node.index()];
            if reached_sooner(d, hops) {
                return false;
            }
            if d == UNCOVERED {
                counts[estimator.group_of[node.index()] as usize] += 1;
            }
            true
        });
    }
    counts
}

/// Targets per block of a sweep row. One row is one node's reached targets
/// within one block, so a worker's two row buffers take `n × 32` bytes.
const SWEEP_BLOCK: usize = 256;

/// One node's reached targets within one block of [`SWEEP_BLOCK`]: bit `t`
/// of word `t / 64` stands for the block's `t`-th target.
type Block = [u64; SWEEP_BLOCK / 64];

/// Sweep block operations one BFS node visit of round 0 is worth. Timed
/// on `sweep_cold`'s SBM, BA and Watts–Strogatz graphs at 150–600 nodes
/// (64 worlds, τ = 5), the sweep won wherever [`sweep_ops`] over the
/// predicted visits read 4.7 or less, tied at 5.5 and 7.6, and lost at 11.4.
const SWEEP_OPS_PER_VISIT: f64 = 5.0;

/// Sweep block operations one reverse BFS node visit of a buy's replay is
/// worth. On the same graphs the sweep bought 1.9 times faster where
/// [`sweep_ops`] over the predicted replayed visits read 4.8, and lost
/// from 16.7 up.
const SWEEP_OPS_PER_REPLAYED_VISIT: f64 = 8.0;

/// The block operations of one sweep over every world (see
/// [`swept_counts`]): per block of targets, `W·n` to start the rows and at
/// most `min(τ, n)` rounds of `W·n + live edges` (no row changes after
/// `n − 1` rounds, and a round that changes none ends the sweep).
fn sweep_ops(estimator: &WorldEstimator) -> f64 {
    let n = estimator.graph.num_nodes();
    let cells = estimator.worlds.len() * n;
    let rounds = estimator.deadline.horizon().map_or(n, |tau| n.min(tau as usize));
    n.div_ceil(SWEEP_BLOCK) as f64
        * (cells as f64 + rounds as f64 * (cells + live_edges(estimator)) as f64)
}

/// Whether one sweep is predicted to cost less than searching for the
/// gains of `todo` against no seeds: `|todo| × W × min(n, Σ_{t≤τ} d̄^t)`
/// node visits, `d̄` the worlds' mean live out-degree, each worth
/// [`SWEEP_OPS_PER_VISIT`] block operations. A function of the worlds and
/// the batch only; never at τ = ∞, where the rounds are unknown.
fn sweeps_round_zero(estimator: &WorldEstimator, todo: &[NodeId]) -> bool {
    let n = estimator.graph.num_nodes();
    let Some(tau) = estimator.deadline.horizon() else { return false };
    let worlds = estimator.worlds.len() as f64;
    let degree = live_edges(estimator) as f64 / (worlds * n as f64);
    let (mut ball, mut term) = (0.0, 1.0);
    for _ in 0..=n.min(tau as usize) {
        ball += term;
        term *= degree;
        if ball >= n as f64 {
            break;
        }
    }
    let searched = todo.iter().filter(|v| v.index() < n).count() as f64;
    let searched = searched * worlds * ball.min(n as f64);
    searched > 0.0 && sweep_ops(estimator) < SWEEP_OPS_PER_VISIT * searched
}

/// Whether buying the counts of a `ground`-candidate ground by one sweep is
/// predicted to cost less than replaying every covered pair: `covered` pairs
/// times the ground's mean τ-ball in row 0, `row0_total / (W·|ground|)`,
/// reverse node visits, each worth [`SWEEP_OPS_PER_REPLAYED_VISIT`] block
/// operations. Never at τ = ∞.
fn sweeps_buy(estimator: &WorldEstimator, ground: usize, row0_total: u64, covered: usize) -> bool {
    let replayed = covered as f64 * row0_total as f64 / (estimator.worlds.len() * ground) as f64;
    !estimator.deadline.is_unbounded()
        && ground > 0
        && sweep_ops(estimator) < SWEEP_OPS_PER_REPLAYED_VISIT * replayed
}

/// The per-group world counts of the marginal gains of `candidates` over
/// the seeds whose hop distances `distance` holds, in candidate order. One
/// reachability sweep per world (see [`Sweep::add_world`]) fans out over
/// worlds once its [`sweep_ops`] reach [`PARALLEL_GAIN_MIN_WORK`]; the
/// counts are integers, so any thread count sums the same.
fn swept_counts(
    estimator: &WorldEstimator,
    distance: &[u8],
    candidates: &[NodeId],
) -> Vec<Vec<u64>> {
    let k = estimator.group_sizes.len();
    let len = candidates.len() * k;
    let add = |mut sweep: Sweep, i| {
        sweep.add_world(estimator, distance, candidates, i);
        sweep
    };
    let worlds = 0..estimator.worlds.len();
    let sweep = if sweep_ops(estimator) < PARALLEL_GAIN_MIN_WORK as f64 {
        worlds.fold(Sweep::new(len), add)
    } else {
        worlds
            .into_par_iter()
            .fold(|| Sweep::new(len), add)
            .reduce(|| Sweep::new(len), Sweep::merge)
    };
    (0..candidates.len()).map(|j| sweep.counts[j * k..(j + 1) * k].to_vec()).collect()
}

/// One worker's share of a sweep: the counts (candidate-major, `j * k + g`)
/// of the worlds it has added, and the two row buffers it reuses from world
/// to world.
struct Sweep {
    counts: Vec<u64>,
    rows: [Vec<Block>; 2],
}

impl Sweep {
    fn new(len: usize) -> Self {
        Sweep { counts: vec![0; len], rows: [Vec::new(), Vec::new()] }
    }

    fn merge(mut self, other: Sweep) -> Sweep {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self
    }

    /// Adds world `i`. Block by block of targets, row `u` starts as `{u}`
    /// and each round sets it to `R[u] ∪ ⋃_{u→v live} R[v]`, reading the
    /// previous round's rows only, so after `t` rounds it holds exactly the
    /// targets within `t` live hops of `u`. The rounds stop at τ or at the
    /// first that changes no row. A candidate's counts are then its row's
    /// popcounts against the block's per-group masks of targets the seeds
    /// do not reach within τ: the uncovered pairs of its τ-ball, which are
    /// the integers the pruned BFS counts.
    fn add_world(
        &mut self,
        estimator: &WorldEstimator,
        distance: &[u8],
        candidates: &[NodeId],
        i: usize,
    ) {
        let n = estimator.graph.num_nodes();
        let k = estimator.group_sizes.len();
        let world = &estimator.worlds.worlds()[i];
        let distance = &distance[i * n..(i + 1) * n];
        let [mut rows, mut next] = std::mem::take(&mut self.rows);
        rows.resize(n, Block::default());
        next.resize(n, Block::default());
        let mut masks = vec![Block::default(); k];
        for base in (0..n).step_by(SWEEP_BLOCK) {
            rows.fill(Block::default());
            masks.fill(Block::default());
            for t in 0..SWEEP_BLOCK.min(n - base) {
                let (word, bit) = (t / 64, 1u64 << (t % 64));
                rows[base + t][word] |= bit;
                if distance[base + t] == UNCOVERED {
                    masks[estimator.group_of[base + t] as usize][word] |= bit;
                }
            }
            let mut hops = 1;
            while estimator.deadline.allows(hops) && sweep_round(world, &rows, &mut next) {
                std::mem::swap(&mut rows, &mut next);
                hops += 1;
            }
            for (j, &c) in candidates.iter().enumerate() {
                let Some(row) = rows.get(c.index()) else { continue };
                for (count, mask) in self.counts[j * k..(j + 1) * k].iter_mut().zip(&masks) {
                    *count += ones(row, mask);
                }
            }
        }
        self.rows = [rows, next];
    }
}

/// One round of a sweep: `next[u] = rows[u] ∪ ⋃_{u→v live} rows[v]` for
/// every node `u`. Whether any row changed.
fn sweep_round(world: &LiveEdgeWorld, rows: &[Block], next: &mut [Block]) -> bool {
    let mut changed = false;
    for (u, (row, out)) in rows.iter().zip(next.iter_mut()).enumerate() {
        let mut reached = *row;
        for &v in world.out_neighbors(NodeId::from_index(u)) {
            for (r, w) in reached.iter_mut().zip(&rows[v as usize]) {
                *r |= w;
            }
        }
        changed |= reached != *row;
        *out = reached;
    }
    changed
}

/// The set bits of `row & mask`.
#[inline]
fn ones(row: &Block, mask: &Block) -> u64 {
    row.iter().zip(mask).map(|(r, m)| u64::from((r & m).count_ones())).sum()
}

impl InfluenceCursor for WorldCursor<'_> {
    fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    fn current(&self) -> &GroupInfluence {
        &self.current
    }

    fn gain(&mut self, candidate: NodeId) -> GroupInfluence {
        let row = self.row();
        if let Some(stored) = self.stored_gain(row, candidate) {
            return stored;
        }
        let counts = self.computed(row, &[candidate]).pop().unwrap_or_default();
        if let Some(row) = row {
            row.fill(candidate, &counts);
        }
        mean_over_worlds(counts, self.estimator.worlds.len())
    }

    /// The gains of `candidates`, bitwise those of [`InfluenceCursor::gain`]
    /// one by one. Candidates already in the gain row for the committed seeds
    /// are read from it and the rest are stored there if they have a slot.
    /// The first batch also fixes the cursor's ground: the slots of any row
    /// 1 or 2 it claims, and the candidates whose counts it may keep. Against
    /// no seeds, the rest may be counted by one reachability sweep per world
    /// instead (see [`WorldCursor`]). The candidates left to search for run
    /// serially on the cursor's scratch, unless a lower bound on their BFS
    /// node visits reaches 50 000: then one fan-out under the ambient thread
    /// count splits them into contiguous chunks, one scratch per worker, and
    /// the results come back in candidate order.
    fn gains(&mut self, candidates: &[NodeId]) -> Vec<GroupInfluence> {
        let estimator = self.estimator;
        self.ground.get_or_init(|| slot_set(candidates, estimator.graph.num_nodes()));
        let row = self.row();
        let stored: Vec<Option<GroupInfluence>> =
            candidates.iter().map(|&v| self.stored_gain(row, v)).collect();
        let todo: Vec<NodeId> = candidates
            .iter()
            .zip(&stored)
            .filter(|(_, stored)| stored.is_none())
            .map(|(&v, _)| v)
            .collect();
        let counts = self.computed(row, &todo);
        let num_worlds = estimator.worlds.len();
        let mut computed = todo.iter().zip(counts).map(|(&v, counts)| {
            if let Some(row) = row {
                row.fill(v, &counts);
            }
            mean_over_worlds(counts, num_worlds)
        });
        stored.into_iter().filter_map(|gain| gain.or_else(|| computed.next())).collect()
    }

    fn add_seed(&mut self, candidate: NodeId) {
        let group_of = &self.estimator.group_of;
        let deadline = self.estimator.deadline;
        let n = self.estimator.graph.num_nodes();
        let mut pending = self.kept.as_mut().map(|kept| &mut kept.pending);
        for (i, world) in self.estimator.worlds.worlds().iter().enumerate() {
            let distance = &mut self.distance[i * n..(i + 1) * n];
            let row = |v| world.out_neighbors(NodeId(v)).iter().copied();
            bounded_bfs(n, &[candidate], deadline, &mut self.scratch, row, |node, hops| {
                let d = &mut distance[node.index()];
                if reached_sooner(*d, hops) {
                    return false;
                }
                if *d == UNCOVERED {
                    self.group_totals[group_of[node.index()] as usize] += 1.0;
                    if let Some(pending) = pending.as_mut() {
                        pending.push(i * n + node.index());
                    }
                }
                *d = (*d).min(u8::try_from(hops).map_or(FAR, |h| h.min(FAR)));
                true
            });
        }
        let scale = 1.0 / self.estimator.worlds.len() as f64;
        self.current =
            GroupInfluence::from_values(self.group_totals.iter().map(|t| t * scale).collect());
        self.seeds.push(candidate);
    }
}

// ---------------------------------------------------------------------------
// Unstored Monte-Carlo estimator
// ---------------------------------------------------------------------------

/// Influence oracle over the keyed live-edge worlds of a [`WorldEstimator`],
/// computed on the fly instead of stored: each query walks world `i`'s coins
/// (world seed `seed + i`) straight off the graph with the same τ-bounded
/// BFS, so it holds no world in memory and returns, bitwise, what a
/// [`WorldEstimator`] over `WorldsConfig { num_worlds: samples, seed }`
/// returns on the same graph.
///
/// Every query re-walks every world, so [`NaiveCursor`] drives the solvers
/// here at one full evaluation per marginal gain; the gains are exact
/// coverage differences (`S` and `S ∪ {v}` see the same coins), just slow.
/// Its job is the paper's held-out re-estimate of a chosen seed set, which
/// needs a seed range disjoint from the pool that chose the seeds (see
/// [`MonteCarloEstimator::new`]).
#[derive(Debug, Clone)]
pub struct MonteCarloEstimator {
    graph: Arc<Graph>,
    deadline: Deadline,
    samples: usize,
    seed: u64,
}

impl MonteCarloEstimator {
    /// Creates a Monte-Carlo estimator over the `samples` keyed IC worlds
    /// with world seeds `[seed, seed + samples)` (wrapping).
    ///
    /// Those are the worlds a [`WorldCollection`] sampled with the same
    /// `seed` and `num_worlds` holds, so a held-out re-score of seeds chosen
    /// on such a pool must start from a base whose range does not overlap
    /// the pool's; otherwise it judges the seeds partly on the sample that
    /// picked them.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DiffusionError::NoSamples`] if `samples` is zero.
    pub fn new(graph: Arc<Graph>, deadline: Deadline, samples: usize, seed: u64) -> Result<Self> {
        if samples == 0 {
            return Err(crate::error::DiffusionError::NoSamples);
        }
        Ok(MonteCarloEstimator { graph, deadline, samples, seed })
    }

    /// Number of worlds per query.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

impl InfluenceOracle for MonteCarloEstimator {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn deadline(&self) -> Deadline {
        self.deadline
    }

    fn evaluate(&self, seeds: &[NodeId]) -> Result<GroupInfluence> {
        crate::ic::validate_seeds(&self.graph, seeds)?;
        let graph = &*self.graph;
        let k = graph.num_groups();
        let counts = world_counts(self.samples, k, |i, scratch, counts| {
            let world_seed = self.seed.wrapping_add(i as u64);
            let row = |v| live_ic_row(graph, v, world_seed);
            bounded_bfs(graph.num_nodes(), seeds, self.deadline, scratch, row, |node, _| {
                counts[graph.group_of(node).index()] += 1;
                true
            });
        });
        Ok(mean_over_worlds(counts, self.samples))
    }

    fn cursor(&self) -> Box<dyn InfluenceCursor + '_> {
        Box::new(NaiveCursor::new(self))
    }
}

/// Fallback cursor that recomputes the full estimate for every marginal-gain
/// query. Correct for any oracle but quadratically slower than the
/// world-based cursor; used by the Monte-Carlo estimator and in tests.
pub struct NaiveCursor<'a> {
    oracle: &'a dyn InfluenceOracle,
    seeds: Vec<NodeId>,
    current: GroupInfluence,
}

impl<'a> NaiveCursor<'a> {
    /// Creates a naive cursor over `oracle`, starting from the empty set.
    pub fn new(oracle: &'a dyn InfluenceOracle) -> Self {
        let current = GroupInfluence::zeros(oracle.graph().num_groups());
        NaiveCursor { oracle, seeds: Vec::new(), current }
    }
}

impl InfluenceCursor for NaiveCursor<'_> {
    fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    fn current(&self) -> &GroupInfluence {
        &self.current
    }

    fn gain(&mut self, candidate: NodeId) -> GroupInfluence {
        let mut with: Vec<NodeId> = self.seeds.clone();
        with.push(candidate);
        let value = self
            .oracle
            .evaluate(&with)
            .unwrap_or_else(|_| GroupInfluence::zeros(self.current.num_groups()));
        // Clamp at zero: for an oracle that samples afresh per query a
        // difference of two estimates can dip below zero, which would
        // confuse the lazy-greedy heap invariants downstream.
        GroupInfluence::from_values(
            value
                .values()
                .iter()
                .zip(self.current.values())
                .map(|(&v, &c)| (v - c).max(0.0))
                .collect(),
        )
    }

    fn add_seed(&mut self, candidate: NodeId) {
        self.seeds.push(candidate);
        self.current = self
            .oracle
            .evaluate(&self.seeds)
            .unwrap_or_else(|_| GroupInfluence::zeros(self.current.num_groups()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::{GraphBuilder, GroupId};

    /// Deterministic two-group graph: hub 0 (group 0) -> leaves 1..=3 (group 0),
    /// plus a chain 0 -> 4 -> 5 into group 1, all probability 1.
    fn deterministic_graph() -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(GroupId(0));
        let leaves = b.add_nodes(3, GroupId(0));
        let bridge = b.add_node(GroupId(1));
        let far = b.add_node(GroupId(1));
        for &leaf in &leaves {
            b.add_edge(hub, leaf, 1.0).unwrap();
        }
        b.add_edge(hub, bridge, 1.0).unwrap();
        b.add_edge(bridge, far, 1.0).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn world_estimator_is_exact_on_deterministic_graphs() {
        let g = deterministic_graph();
        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 8, seed: 0 },
        )
        .unwrap();
        let inf = est.evaluate(&[NodeId(0)]).unwrap();
        assert!((inf.group(GroupId(0)) - 4.0).abs() < 1e-12);
        assert!((inf.group(GroupId(1)) - 2.0).abs() < 1e-12);
        assert!((inf.total() - 6.0).abs() < 1e-12);

        let tight = est.with_deadline(Deadline::finite(1));
        let inf1 = tight.evaluate(&[NodeId(0)]).unwrap();
        assert!((inf1.group(GroupId(1)) - 1.0).abs() < 1e-12);
        assert!((inf1.total() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_world_estimator_on_deterministic_graphs() {
        let g = deterministic_graph();
        let deadline = Deadline::finite(1);
        let world =
            WorldEstimator::new(Arc::clone(&g), deadline, &WorldsConfig { num_worlds: 4, seed: 1 })
                .unwrap();
        // World seeds 2^32.. are disjoint from the pool's 1..5.
        let mc = MonteCarloEstimator::new(Arc::clone(&g), deadline, 16, 1 << 32).unwrap();
        let a = world.evaluate(&[NodeId(0)]).unwrap();
        let b = mc.evaluate(&[NodeId(0)]).unwrap();
        assert!((a.total() - b.total()).abs() < 1e-9);
        assert_eq!(a.values().len(), 2);
    }

    #[test]
    fn cursor_gains_match_evaluate_differences() {
        let g = deterministic_graph();
        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::finite(1),
            &WorldsConfig { num_worlds: 8, seed: 2 },
        )
        .unwrap();
        let mut cursor = est.cursor();
        let gain_hub = cursor.gain(NodeId(0));
        assert!((gain_hub.total() - 5.0).abs() < 1e-12);
        cursor.add_seed(NodeId(0));
        assert_eq!(cursor.seeds(), &[NodeId(0)]);
        assert!((cursor.current().total() - 5.0).abs() < 1e-12);

        // Node 5 is not reachable within deadline 1 from the hub, so adding it
        // gains exactly 1 (itself).
        let gain_far = cursor.gain(NodeId(5));
        assert!((gain_far.total() - 1.0).abs() < 1e-12);
        // A leaf already covered gains nothing.
        let gain_leaf = cursor.gain(NodeId(1));
        assert!(gain_leaf.total().abs() < 1e-12);
    }

    /// Where the sweep spends its time, the kept counts pay: on a
    /// supercritical 600-node SBM with 64 worlds at τ = 5, round 0 alone
    /// pays more BFS visits than reversing the worlds costs, so a lazy
    /// greedy run to a 40% cover quota buys the counts with its first lazy
    /// gain and reads them from then on.
    #[test]
    fn a_cover_run_on_a_supercritical_sbm_buys_kept_counts() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use tcim_graph::generators::{stochastic_block_model, SbmConfig};

        let config = SbmConfig::two_group(600, 0.7, 0.05, 0.005, 0.1, 7);
        let graph = Arc::new(stochastic_block_model(&config).unwrap());
        let worlds = WorldsConfig { num_worlds: 64, seed: 7 };
        let est = WorldEstimator::new(graph, Deadline::finite(5), &worlds).unwrap();
        let mut cursor = WorldCursor::new(&est);
        let all: Vec<NodeId> = est.graph().nodes().collect();
        let round_zero = cursor.gains(&all);
        assert!(cursor.visits >= buy_price(&est), "{} visits", cursor.visits);
        // Max-heap on (gain, smallest id), each entry tagged with the seed
        // count it was computed against; gains are non-negative, so their
        // bits order as they do.
        let mut heap: BinaryHeap<(u64, Reverse<NodeId>, usize)> = all
            .iter()
            .zip(&round_zero)
            .map(|(&v, g)| (g.total().to_bits(), Reverse(v), 0))
            .collect();
        let mut lazy_gains = 0;
        while cursor.current().total() < 240.0 {
            let Some((_, Reverse(v), at)) = heap.pop() else { break };
            if at == cursor.seeds().len() {
                cursor.add_seed(v);
                continue;
            }
            let gain = cursor.gain(v).total();
            lazy_gains += 1;
            assert!(cursor.kept.is_some(), "lazy gain {lazy_gains} at {} seeds", at + 1);
            heap.push((gain.to_bits(), Reverse(v), cursor.seeds().len()));
        }
        let seeds = cursor.seeds().len();
        assert!(seeds > 2 && lazy_gains > seeds, "{lazy_gains} lazy gains for {seeds} seeds");
    }

    /// Whether a buy by `cursor` now would sweep, from the inputs its rule
    /// reads: the ground, row 0's counts of it and the covered pairs.
    fn buy_would_sweep(cursor: &WorldCursor<'_>, ground: &[NodeId]) -> bool {
        let est = cursor.estimator;
        let row0 = est.rows[0].get().unwrap();
        let k = est.group_sizes.len();
        let total = ground.iter().flat_map(|&v| row0.get(v, k).unwrap());
        let total = total.map(|c| c.load(Ordering::Relaxed)).sum();
        let covered = cursor.distance.iter().filter(|&&d| d != UNCOVERED).count();
        sweeps_buy(est, ground.len(), total, covered)
    }

    /// Round 0 over `ground` on a fresh cursor of `est`, then the best
    /// `seeds` by round-0 gain committed: the state a lazy solve buys in.
    fn after_round_zero<'a>(
        est: &'a WorldEstimator,
        ground: &[NodeId],
        seeds: usize,
    ) -> WorldCursor<'a> {
        let mut cursor = WorldCursor::new(est);
        let gains = cursor.gains(ground);
        let mut order: Vec<usize> = (0..ground.len()).collect();
        order.sort_by(|&a, &b| gains[b].total().total_cmp(&gains[a].total()).then(a.cmp(&b)));
        for &j in &order[..seeds] {
            cursor.add_seed(ground[j]);
        }
        cursor
    }

    /// The supercritical 600-node SBM (mean τ-ball about 45 nodes) sweeps
    /// both its round 0 and its buy.
    #[test]
    fn a_supercritical_sbm_sweeps_round_zero_and_its_buy() {
        use tcim_graph::generators::{stochastic_block_model, SbmConfig};

        let config = SbmConfig::two_group(600, 0.7, 0.05, 0.005, 0.1, 7);
        let graph = Arc::new(stochastic_block_model(&config).unwrap());
        let worlds = WorldsConfig { num_worlds: 64, seed: 7 };
        let est = WorldEstimator::new(graph, Deadline::finite(5), &worlds).unwrap();
        let all: Vec<NodeId> = est.graph().nodes().collect();
        assert!(sweeps_round_zero(&est, &all));
        let cursor = after_round_zero(&est, &all, 1);
        assert!(cursor.visits >= buy_price(&est), "{} visits", cursor.visits);
        assert!(buy_would_sweep(&cursor, &all));
    }

    /// Sparse worlds keep the searches: a 600-node Watts–Strogatz graph at
    /// edge probability 0.1 (mean τ-ball about 2.4 nodes) in round 0 and at
    /// any buy, and a 200-candidate pool on a 2·10^4-node one with 8 worlds,
    /// whose sweep would cover the whole graph for 200 small balls.
    #[test]
    fn sparse_worlds_and_small_pools_keep_the_searches() {
        use tcim_graph::generators::{watts_strogatz, WattsStrogatzConfig};

        let small_world = |num_nodes, seed| {
            let config = WattsStrogatzConfig {
                num_nodes,
                neighbors: 3,
                rewire_probability: 0.1,
                minority_fraction: 0.3,
                edge_probability: 0.1,
                seed,
            };
            Arc::new(watts_strogatz(&config).unwrap())
        };
        let worlds = WorldsConfig { num_worlds: 64, seed: 7 };
        let est = WorldEstimator::new(small_world(600, 7), Deadline::finite(5), &worlds).unwrap();
        let all: Vec<NodeId> = est.graph().nodes().collect();
        assert!(!sweeps_round_zero(&est, &all));
        for seeds in [1, 10, 60] {
            assert!(!buy_would_sweep(&after_round_zero(&est, &all, seeds), &all), "{seeds} seeds");
        }

        let worlds = WorldsConfig { num_worlds: 8, seed: 7 };
        let est =
            WorldEstimator::new(small_world(20_000, 7), Deadline::finite(5), &worlds).unwrap();
        let pool: Vec<NodeId> = (0..200).map(|i| NodeId(i * 97)).collect();
        assert!(!sweeps_round_zero(&est, &pool));
        for seeds in [1, 10, 60] {
            assert!(
                !buy_would_sweep(&after_round_zero(&est, &pool, seeds), &pool),
                "{seeds} seeds"
            );
        }
    }

    #[test]
    fn empty_seed_set_has_zero_influence() {
        let g = deterministic_graph();
        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 4, seed: 5 },
        )
        .unwrap();
        assert_eq!(est.evaluate(&[]).unwrap().total(), 0.0);
        let mc = MonteCarloEstimator::new(g, Deadline::unbounded(), 4, 0).unwrap();
        assert_eq!(mc.evaluate(&[]).unwrap().total(), 0.0);
    }

    #[test]
    fn out_of_bounds_seeds_are_rejected() {
        let g = deterministic_graph();
        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 2, seed: 0 },
        )
        .unwrap();
        assert!(est.evaluate(&[NodeId(99)]).is_err());
        let mc = MonteCarloEstimator::new(g, Deadline::unbounded(), 2, 0).unwrap();
        assert!(mc.evaluate(&[NodeId(99)]).is_err());
    }

    #[test]
    fn a_pool_over_another_node_count_is_an_error() {
        let mut b = GraphBuilder::new();
        b.add_nodes(5, GroupId(0));
        let five = b.build().unwrap();
        let pool = Arc::new(
            WorldCollection::sample(&five, &WorldsConfig { num_worlds: 3, seed: 0 }).unwrap(),
        );
        let mut b = GraphBuilder::new();
        b.add_nodes(4, GroupId(0));
        let four = Arc::new(b.build().unwrap());
        let err = WorldEstimator::from_worlds(four, pool, Deadline::unbounded()).unwrap_err();
        assert!(matches!(err, DiffusionError::InvalidParameter { .. }), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("covers 5 nodes") && message.contains("has 4"), "{message}");
    }

    #[test]
    fn zero_samples_are_rejected() {
        let g = deterministic_graph();
        assert!(MonteCarloEstimator::new(g, Deadline::unbounded(), 0, 0).is_err());
    }

    #[test]
    fn group_influence_helpers() {
        let mut inf = GroupInfluence::from_values(vec![4.0, 1.0]);
        assert_eq!(inf.num_groups(), 2);
        assert_eq!(inf.total(), 5.0);
        assert_eq!(inf.group(GroupId(1)), 1.0);
        assert_eq!(inf.group(GroupId(9)), 0.0);
        assert_eq!(inf.normalized(&[8, 4]), vec![0.5, 0.25]);
        assert_eq!(inf.normalized(&[8, 0]), vec![0.5, 0.0]);
        inf.add_assign(&GroupInfluence::from_values(vec![1.0, 1.0]));
        inf.scale(0.5);
        assert_eq!(inf.values(), &[2.5, 1.0]);
    }

    #[test]
    fn naive_cursor_tracks_seed_set() {
        let g = deterministic_graph();
        let mc = MonteCarloEstimator::new(Arc::clone(&g), Deadline::unbounded(), 8, 7).unwrap();
        let mut cursor = mc.cursor();
        let gain = cursor.gain(NodeId(0));
        assert!(gain.total() > 0.0);
        cursor.add_seed(NodeId(0));
        assert_eq!(cursor.seeds().len(), 1);
        assert!((cursor.current().total() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn lt_estimator_matches_lt_simulation_on_deterministic_graphs() {
        // Single chain with probability 1: LT weights are 1, so every world
        // keeps every edge and the estimate is exact.
        let g = deterministic_graph();
        let est = WorldEstimator::new_lt(
            Arc::clone(&g),
            Deadline::finite(1),
            &WorldsConfig { num_worlds: 8, seed: 3 },
        )
        .unwrap();
        let inf = est.evaluate(&[NodeId(0)]).unwrap();
        assert!((inf.total() - 5.0).abs() < 1e-12);
        assert!((inf.group(GroupId(1)) - 1.0).abs() < 1e-12);

        // And the LT estimator exposes the same cursor machinery.
        let mut cursor = est.cursor();
        assert!((cursor.gain(NodeId(0)).total() - 5.0).abs() < 1e-12);
        cursor.add_seed(NodeId(0));
        assert!((cursor.current().total() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lt_estimator_tracks_the_lt_simulation_on_stochastic_graphs() {
        // Star with p = 0.4: under LT each leaf has a single in-edge of
        // weight 0.4, so E[activated leaves] = 80, same as simulation.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(GroupId(0));
        let leaves = b.add_nodes(200, GroupId(0));
        for &leaf in &leaves {
            b.add_edge(hub, leaf, 0.4).unwrap();
        }
        let g = Arc::new(b.build().unwrap());
        let est = WorldEstimator::new_lt(
            Arc::clone(&g),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 500, seed: 9 },
        )
        .unwrap();
        let estimate = est.evaluate(&[NodeId(0)]).unwrap().total();
        assert!((estimate - 81.0).abs() < 8.0, "estimate {estimate}");

        let weights = crate::lt::LtWeights::from_graph(&g);
        let mut simulated = 0.0;
        for seed in 0..200 {
            simulated += crate::lt::simulate_lt_seeded(&g, &weights, &[NodeId(0)], seed)
                .unwrap()
                .num_activated_by(Deadline::unbounded()) as f64;
        }
        simulated /= 200.0;
        assert!((estimate - simulated).abs() < 8.0, "estimate {estimate} vs simulated {simulated}");
    }

    #[test]
    fn stochastic_estimates_converge_to_expectation() {
        // Single edge with p = 0.4: E[influence of {0}] = 1 + 0.4.
        let mut b = GraphBuilder::new();
        let a = b.add_node(GroupId(0));
        let c = b.add_node(GroupId(0));
        b.add_edge(a, c, 0.4).unwrap();
        let g = Arc::new(b.build().unwrap());

        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 4000, seed: 11 },
        )
        .unwrap();
        let inf = est.evaluate(&[a]).unwrap();
        assert!((inf.total() - 1.4).abs() < 0.05, "estimate {}", inf.total());

        // World seeds 2^32.. are disjoint from the pool's 11..4011, so the
        // two estimates are independent checks of the expectation.
        let mc = MonteCarloEstimator::new(g, Deadline::unbounded(), 4000, 1 << 32).unwrap();
        let inf = mc.evaluate(&[a]).unwrap();
        assert!((inf.total() - 1.4).abs() < 0.05, "estimate {}", inf.total());
    }

    #[test]
    fn keyed_monte_carlo_matches_the_stream_simulator() {
        // The stream simulator draws its coins from a `StdRng`, independently
        // of the keyed coins, so it is the reference answer the keyed MC (and
        // with it every worlds pool) must agree with. Two groups, mixed
        // probabilities (including 0 and 1), a cross-group cycle and paths
        // long enough that every deadline below cuts a different cascade.
        let mut b = GraphBuilder::new();
        let g0 = b.add_nodes(6, GroupId(0));
        let g1 = b.add_nodes(6, GroupId(1));
        let edges = [
            (g0[0], g0[1], 0.9),
            (g0[1], g0[2], 0.8),
            (g0[2], g0[3], 0.7),
            (g0[3], g0[4], 0.9),
            (g0[4], g0[0], 0.5),
            (g0[0], g1[0], 0.3),
            (g0[1], g1[1], 0.15),
            (g0[2], g1[3], 0.2),
            (g1[0], g1[1], 1.0),
            (g1[1], g1[2], 0.5),
            (g1[2], g1[3], 0.95),
            (g1[3], g1[4], 0.6),
            (g1[4], g1[5], 0.85),
            (g1[5], g0[5], 0.4),
            (g0[5], g1[5], 0.0),
        ];
        for (u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = Arc::new(b.build().unwrap());
        let seeds = [g0[0], g1[2]];
        let trials = 40_000;
        let deadlines = [Deadline::finite(0), Deadline::finite(1), Deadline::finite(2)];
        let deadlines = deadlines.into_iter().chain([Deadline::unbounded()]);
        let traces: Vec<_> = (0..trials as u64)
            .map(|seed| crate::ic::simulate_ic_seeded(&g, &seeds, seed).unwrap())
            .collect();
        // A per-group count lies in [0, 6], so each cascade's keyed-minus-
        // stream difference spans 12; Hoeffding with a union bound over the
        // 4 × 2 checks leaves a correct estimator inside `eps` with
        // probability at least 1 − 1e-9, whatever the seeds.
        let checks = 8.0_f64;
        let eps = 12.0 * ((2.0 * checks / 1e-9).ln() / (2.0 * trials as f64)).sqrt();
        for deadline in deadlines {
            let keyed = MonteCarloEstimator::new(Arc::clone(&g), deadline, trials, 1 << 32)
                .unwrap()
                .evaluate(&seeds)
                .unwrap();
            let mut stream = [0usize; 2];
            for trace in &traces {
                for v in g.nodes().filter(|&v| trace.activated_by(v, deadline)) {
                    stream[g.group_of(v).index()] += 1;
                }
            }
            for (group, &count) in stream.iter().enumerate() {
                let reference = count as f64 / trials as f64;
                let estimate = keyed.values()[group];
                assert!(
                    (estimate - reference).abs() < eps,
                    "{deadline}, group {group}: keyed {estimate} vs stream {reference} (eps {eps})"
                );
            }
        }
    }
}
