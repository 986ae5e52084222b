//! Reverse-reachable (RR) sketches for time-critical influence estimation.
//!
//! The reverse-influence-sampling idea (Borgs et al., later RIS/TIM/IMM): pick
//! a uniformly random target node `v`, sample the incoming coin flips lazily
//! by a *reverse* BFS from `v`, and record the set of nodes that reach `v`
//! within `τ` live-edge hops. The probability that a seed set `S` intersects a
//! random RR set equals `f_τ(S; V) / |V|`, so
//!
//! ```text
//! f_τ(S; V) ≈ |V| · (# RR sets hit by S) / (# RR sets)
//! ```
//!
//! Group-aware estimation follows by conditioning on the target's group:
//! `f_τ(S; V_i) ≈ |V_i| · (hit sets with target in V_i) / (sets with target in V_i)`.
//!
//! The engine is **solver-grade**:
//!
//! * sketch `i` is always generated from `StdRng::seed_from_u64(seed + i)`,
//!   so sketch collections are bitwise-identical at every thread count and
//!   can be *extended* deterministically ([`RisEstimator::extend_to`]),
//! * marginal gains are served by [`RisCursor`], an incremental inverted-index
//!   cursor whose per-query cost is `O(#sketches containing the candidate)`
//!   instead of a full re-scan, so greedy/CELF run directly on sketches,
//! * sample sizes can be chosen adaptively with an IMM-style doubling rule
//!   ([`AdaptiveRis`]): double the sketch count until a greedy solution
//!   certifies a lower bound on `OPT`, then extend to the `(ε, δ)` budget
//!   `θ = λ*(ε, δ) / LB`.
//!
//! On the fixed sketch sample the estimate `|V_i| · hits_i / count_i` is an
//! exactly monotone submodular function of the seed set (a weighted coverage
//! function over sketches), so the classical greedy guarantees hold on the
//! sample just as they do for [`WorldEstimator`]. RIS wins on large sparse
//! graphs where forward live-edge worlds would be wasteful: building `θ` RR
//! sets costs `O(θ · E[sketch size])` independent of `|V|`.
//!
//! [`WorldEstimator`]: crate::WorldEstimator

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use tcim_graph::{Graph, GroupId, NodeId, Rows};

use crate::bitset::BitSet;
use crate::deadline::Deadline;
use crate::error::{DiffusionError, Result};
use crate::estimator::{GroupInfluence, InfluenceCursor, InfluenceOracle};
use crate::worlds::VisitScratch;

/// One reverse-reachable set, as a view into its [`RrSketches`] pool: the
/// nodes that reach the target within the deadline in one sampled world,
/// plus the target's group.
///
/// # Invariant
///
/// `nodes` is sorted ascending and duplicate-free. The reverse BFS marks
/// each node once and the sampler sorts a sketch's nodes as it writes them,
/// so the inverted index of [`RisEstimator`] can never double-count a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrSet<'a> {
    /// Group of the randomly chosen target node.
    pub target_group: GroupId,
    /// Nodes that would activate the target before the deadline if seeded.
    nodes: &'a [NodeId],
}

impl<'a> RrSet<'a> {
    /// The nodes of the sketch, sorted ascending and duplicate-free.
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Number of nodes in the sketch (at least 1: the target itself).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the sketch is empty (never the case for sampled sketches).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` can activate the target before the deadline.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search_by_key(&node.0, |n| n.0).is_ok()
    }
}

/// IMM-style adaptive sample sizing for [`RisEstimator`].
///
/// Instead of fixing the sketch count up front, the estimator doubles it
/// until a greedy size-`budget` solution on the current sketches certifies a
/// lower bound `LB ≤ OPT`, then extends the collection to
/// `θ = λ*(ε, δ) / LB` sketches (Tang et al.'s IMM sampling phase, with
/// `ln C(n, k)` computed exactly).
///
/// The sizing rule is IMM-*flavoured* but heuristic: phase 2 extends the
/// phase-1 sketches instead of resampling them, so the lower bound is not
/// independent of the final sample and the classical `(ε, δ)` concentration
/// guarantee does not strictly carry over. Treat `epsilon` and `delta` as
/// knobs trading sketch count against estimation accuracy.
///
/// Adaptivity is **deterministic**: sketch `i` depends only on `seed + i`,
/// so the doubling trajectory — and therefore the final sketch count — is
/// identical at every thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRis {
    /// Relative estimation error target `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1)`.
    pub delta: f64,
    /// Seed-set size `k` the `(ε, δ)` guarantee targets.
    pub budget: usize,
    /// Hard cap on the sketch count, so adversarial parameters cannot
    /// exhaust memory.
    pub max_sets: usize,
}

impl Default for AdaptiveRis {
    fn default() -> Self {
        AdaptiveRis { epsilon: 0.1, delta: 0.01, budget: 10, max_sets: 2_000_000 }
    }
}

impl AdaptiveRis {
    fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) || self.epsilon.is_nan() {
            return Err(DiffusionError::InvalidParameter {
                message: format!("adaptive RIS epsilon {} must be in (0, 1)", self.epsilon),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) || self.delta.is_nan() {
            return Err(DiffusionError::InvalidParameter {
                message: format!("adaptive RIS delta {} must be in (0, 1)", self.delta),
            });
        }
        if self.budget == 0 {
            return Err(DiffusionError::InvalidParameter {
                message: "adaptive RIS budget must be at least 1".to_string(),
            });
        }
        if self.max_sets == 0 {
            return Err(DiffusionError::InvalidParameter {
                message: "adaptive RIS max_sets must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Configuration for [`RisEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RisConfig {
    /// Number of RR sets to sample. Under [`RisConfig::adaptive`] this is the
    /// *initial* (and minimum) sketch count the doubling starts from.
    pub num_sets: usize,
    /// RNG seed; sketch `i` is generated from `seed + i` so collections are
    /// thread-count independent and can be extended deterministically.
    pub seed: u64,
    /// Optional IMM-style adaptive sample sizing; `None` keeps the fixed
    /// `num_sets` count.
    pub adaptive: Option<AdaptiveRis>,
}

impl Default for RisConfig {
    fn default() -> Self {
        RisConfig { num_sets: 10_000, seed: 0, adaptive: None }
    }
}

/// Reverse adjacency (in-edges) of a graph, shared by every sketch so
/// repeated sampling and incremental extension never rebuild it.
///
/// Row `v` lists the in-edges of `v` as `(source, probability)` by source
/// ascending; parallel edges of a raw `Graph::from_csr` graph keep their
/// out-row order. The rows are copy-on-write blocks ([`Rows`]), so a patched
/// adjacency shares every block the edit did not touch.
#[derive(Debug, Clone, PartialEq)]
struct InEdges {
    rows: Rows<(u32, f64)>,
}

impl InEdges {
    fn build(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut counts = vec![0u32; n + 1];
        for (_, t, _) in graph.edges() {
            counts[t.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut edges = vec![(0u32, 0.0f64); counts[n] as usize];
        let mut cursor = counts.clone();
        for (s, t, p) in graph.edges() {
            edges[cursor[t.index()] as usize] = (s.0, p);
            cursor[t.index()] += 1;
        }
        let rows = Rows::from_fn(n, |v, row| {
            row.extend_from_slice(&edges[counts[v] as usize..counts[v + 1] as usize]);
        });
        InEdges { rows }
    }

    /// The reverse adjacency of `graph`, a mutation of the graph `self` was
    /// built from whose edited edges are `edited` (`(source, target)` pairs;
    /// order and repeats do not matter). Equal to `InEdges::build(graph)`,
    /// at the cost of the edit: each edited target's row is rebuilt by
    /// scanning, in ascending order, the `graph` out-rows of its old
    /// in-sources and of the edited sources into it, and every block of rows
    /// without an edited target is shared with `self`.
    fn patch(&self, graph: &Graph, edited: &[(NodeId, NodeId)]) -> Self {
        let n = graph.num_nodes();
        let mut edited: Vec<(u32, u32)> = edited
            .iter()
            .filter(|(s, t)| s.index() < n && t.index() < n)
            .map(|&(s, t)| (t.0, s.0))
            .collect();
        edited.sort_unstable();
        edited.dedup();
        let mut candidates = Vec::new();
        let targets = edited.chunk_by(|a, b| a.0 == b.0).map(|into| (into[0].0 as usize, into));
        let rows = self.rows.replaced(targets, |into_target, old, row| {
            let t = into_target[0].0;
            candidates.clear();
            candidates.extend(old.iter().map(|&(s, _)| s));
            candidates.extend(into_target.iter().map(|&(_, s)| s));
            candidates.sort_unstable();
            candidates.dedup();
            for &s in &candidates {
                row.extend(
                    graph.out_edges(NodeId(s)).filter(|(w, _)| w.0 == t).map(|(_, p)| (s, p)),
                );
            }
        });
        InEdges { rows }
    }

    #[inline]
    fn of(&self, v: usize) -> &[(u32, f64)] {
        self.rows.row(v)
    }

    /// Approximate resident heap bytes, as the logical size of a flat CSR:
    /// `n + 1` `u32` offsets, a `u32` source and an `f64` probability per
    /// edge, and three `Vec` headers.
    fn approx_bytes(&self) -> usize {
        let edges = self.rows.num_items();
        3 * std::mem::size_of::<Vec<u8>>()
            + (self.rows.len() + 1 + edges) * std::mem::size_of::<u32>()
            + edges * std::mem::size_of::<f64>()
    }
}

/// Sketches are generated in chunks so a worker can amortize one scratch
/// buffer (an `O(|V|)` zeroed marks array) over many sketches. The chunk
/// size grows with the graph so the per-sketch share of scratch
/// initialization stays bounded on large sparse graphs, and shrinks with the
/// request so small batches still fan out; it depends only on `(n, count)` —
/// never on the thread count — and sketch `i` derives from `seed + i`
/// regardless of chunking, so the output is identical at any thread count.
fn sketch_chunk_size(n: usize, count: usize) -> usize {
    (n / 64).clamp(64, count.div_ceil(16).max(64))
}

/// Sketches sampled by one chunk, in flat form: sketch `k` of the batch
/// has target group `groups[k]` and nodes `nodes[ends[k - 1]..ends[k]]`
/// (from 0 when `k = 0`).
#[derive(Debug, Default)]
struct SketchBatch {
    groups: Vec<GroupId>,
    ends: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl SketchBatch {
    /// The batch's sketches in order.
    fn sketches(&self) -> impl Iterator<Item = RrSet<'_>> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.groups
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&target_group, (lo, &hi))| RrSet { target_group, nodes: &self.nodes[lo..hi] })
    }
}

/// Samples `count` sketches of the collection seeded by `base_seed`, the
/// `k`-th with global id `id(k)`, and returns them as one flat batch per
/// chunk, in order. The chunks fan out under the ambient thread count; sketch
/// `id` depends only on `base_seed + id`.
fn sample_sketches(
    graph: &Graph,
    in_edges: &InEdges,
    deadline: Deadline,
    base_seed: u64,
    count: usize,
    id: impl Fn(usize) -> usize + Sync,
) -> Vec<SketchBatch> {
    if count == 0 {
        return Vec::new();
    }
    let chunk_size = sketch_chunk_size(graph.num_nodes(), count);
    let num_chunks = count.div_ceil(chunk_size);
    (0..num_chunks)
        .into_par_iter()
        .map(|chunk| {
            let lo = chunk * chunk_size;
            let hi = (lo + chunk_size).min(count);
            let mut scratch = VisitScratch::new(graph.num_nodes());
            let mut batch = SketchBatch::default();
            for k in lo..hi {
                let sketch_seed = base_seed.wrapping_add(id(k) as u64);
                sample_one_sketch(graph, in_edges, deadline, sketch_seed, &mut scratch, &mut batch);
            }
            batch
        })
        .collect()
}

/// Samples one RR sketch into `out`: pick a uniform target, then run a
/// reverse BFS bounded by the deadline, flipping each in-edge coin lazily
/// exactly once (each edge is encountered at most once in a BFS, so lazy
/// flipping matches the live-edge distribution).
fn sample_one_sketch(
    graph: &Graph,
    in_edges: &InEdges,
    deadline: Deadline,
    sketch_seed: u64,
    scratch: &mut VisitScratch,
    out: &mut SketchBatch,
) {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(sketch_seed);
    let target = NodeId::from_index(rng.random_range(0..n));

    scratch.begin(n);
    let start = out.nodes.len();
    scratch.mark(target.index());
    out.nodes.push(target);
    // The sketch's nodes, in the order the BFS reaches them, are its FIFO
    // queue: `head` walks them and `level_end` closes each hop.
    let (mut head, mut hops) = (start, 0u32);
    while head < out.nodes.len() {
        hops += 1;
        if !deadline.allows(hops) {
            break;
        }
        let level_end = out.nodes.len();
        while head < level_end {
            let v = out.nodes[head].index();
            head += 1;
            for &(u, p) in in_edges.of(v) {
                // Visited check first so edges into visited nodes never flip
                // a coin (lazy flipping); the final `mark` records the visit.
                if !scratch.is_marked(u as usize)
                    && p > 0.0
                    && (p >= 1.0 || rng.random_bool(p))
                    && scratch.mark(u as usize)
                {
                    out.nodes.push(NodeId(u));
                }
            }
        }
    }
    // The BFS marks every node once, so the sorted sketch is duplicate-free.
    out.nodes[start..].sort_unstable_by_key(|n| n.0);
    out.ends.push(out.nodes.len());
    out.groups.push(graph.group_of(target));
}

/// The sketch pool of a [`RisEstimator`]: the sampled RR sets, their
/// per-group target counts and the node→sketch inverted index.
///
/// * Sketch `i`'s nodes are row `i` of `sets`, sorted ascending; its target
///   group is `groups[i]`.
/// * The ids of the sketches containing node `v` are row `v` of `index`,
///   ascending.
///
/// Both are copy-on-write [`Rows`], so a refreshed pool shares every block
/// of sketches and of index rows that the refresh did not rewrite, and the
/// target groups (which a refresh never changes: a sketch's target is its
/// first draw) are shared whole.
///
/// Estimators hold the pool behind an [`Arc`], so cloning an estimator (or
/// handing the pool to a long-lived cache that serves many queries) shares
/// the sketches instead of copying them. The pool is a deterministic function
/// of `(graph, deadline, seed, count)` — sketch `i` always derives from
/// `seed + i` — so shared, freshly sampled and refreshed pools are
/// interchangeable, and equal field for field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrSketches {
    /// Target group of each sketch; sketch `i` derives from the base seed
    /// plus `i`.
    groups: Arc<Vec<GroupId>>,
    /// Row `i` holds sketch `i`'s nodes.
    sets: Rows<NodeId>,
    /// Number of RR sets whose target lies in each group.
    sets_per_group: Vec<usize>,
    /// Inverted index: row `v` holds the ids of the sketches containing `v`.
    index: Rows<u32>,
}

impl RrSketches {
    fn new(num_nodes: usize, num_groups: usize) -> Self {
        RrSketches {
            groups: Arc::default(),
            sets: Rows::default(),
            sets_per_group: vec![0; num_groups],
            index: Rows::from_fn(num_nodes, |_, _| {}),
        }
    }

    /// Appends freshly sampled sketches as ids `len()..`, then rebuilds the
    /// inverted index by one counting pass over the whole pool, which lists
    /// each node's sketch ids ascending.
    fn extend(&mut self, fresh: &[SketchBatch]) {
        let groups = Arc::make_mut(&mut self.groups);
        for set in fresh.iter().flat_map(SketchBatch::sketches) {
            groups.push(set.target_group);
            self.sets_per_group[set.target_group.index()] += 1;
            self.sets.push_row(set.nodes);
        }
        let n = self.index.len();
        let mut offsets = vec![0usize; n + 1];
        for v in self.sets.items() {
            offsets[v.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut ids = vec![0u32; self.sets.num_items()];
        for (id, set) in self.sets.iter().enumerate() {
            for v in set {
                ids[cursor[v.index()]] = id as u32;
                cursor[v.index()] += 1;
            }
        }
        self.index =
            Rows::from_fn(n, |v, row| row.extend_from_slice(&ids[offsets[v]..offsets[v + 1]]));
    }

    /// The pool with the sketches `ids` (ascending) replaced by `fresh`
    /// (same count, same order). Only the blocks of sketches holding a
    /// replaced one are rebuilt, and only the blocks of index rows of nodes
    /// in a replaced sketch's old or new node list (old row minus the
    /// replaced ids, plus the ids that now contain the node, ascending).
    /// Every other block is shared with `self`. The result lists everything
    /// in the order [`RrSketches::extend`] does, so a refreshed pool equals a
    /// cold one.
    fn replaced(&self, ids: &[u32], fresh: &[SketchBatch]) -> Self {
        let fresh: Vec<RrSet<'_>> = fresh.iter().flat_map(SketchBatch::sketches).collect();
        let mut groups = Arc::clone(&self.groups);
        let mut sets_per_group = self.sets_per_group.clone();
        // The (node, id) memberships the fresh sketches bring, and the nodes
        // whose index rows change.
        let mut entering: Vec<(u32, u32)> = Vec::new();
        let mut rows: Vec<u32> = Vec::new();
        for (&id, set) in ids.iter().zip(&fresh) {
            let i = id as usize;
            // A sketch's target is its first draw, so a graph mutation keeps
            // it; only a regrouped graph could move it.
            if groups[i] != set.target_group {
                sets_per_group[groups[i].index()] -= 1;
                sets_per_group[set.target_group.index()] += 1;
                Arc::make_mut(&mut groups)[i] = set.target_group;
            }
            rows.extend(self.sets.row(i).iter().map(|v| v.0));
            entering.extend(set.nodes.iter().map(|v| (v.0, id)));
        }
        let replaced = ids.iter().map(|&id| id as usize).zip(&fresh);
        let sets = self.sets.replaced(replaced, |set, _, row| row.extend_from_slice(set.nodes));

        entering.sort_unstable();
        rows.extend(entering.iter().map(|&(v, _)| v));
        rows.sort_unstable();
        rows.dedup();
        let mut entering = entering.as_slice();
        let index = self.index.replaced(rows.iter().map(|&v| (v as usize, v)), |v, old, row| {
            let start = row.len();
            row.extend(old.iter().filter(|id| ids.binary_search(id).is_err()));
            let arriving = entering.partition_point(|&(w, _)| w == v);
            row.extend(entering[..arriving].iter().map(|&(_, id)| id));
            entering = &entering[arriving..];
            row[start..].sort_unstable();
        });
        RrSketches { groups, sets, sets_per_group, index }
    }

    /// Number of sketches in the pool.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the pool holds no sketches.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Sketch `id` (`id < len()`).
    fn set(&self, id: usize) -> RrSet<'_> {
        RrSet { target_group: self.groups[id], nodes: self.sets.row(id) }
    }

    /// The RR sets, in id order.
    pub fn sets(&self) -> impl ExactSizeIterator<Item = RrSet<'_>> + '_ {
        (0..self.len()).map(|id| self.set(id))
    }

    /// Number of RR sets whose target lies in each group.
    pub fn sets_per_group(&self) -> &[usize] {
        &self.sets_per_group
    }

    /// Ids of the sketches containing `node`, ascending (empty for
    /// out-of-range nodes).
    pub fn sets_containing(&self, node: NodeId) -> &[u32] {
        if node.index() < self.index.len() {
            self.index.row(node.index())
        } else {
            &[]
        }
    }

    /// Approximate resident heap bytes of the pool, as the logical size of
    /// its flat form: the target groups, `len() + 1` and `n + 1` `usize`
    /// offsets for the sketches and the index, the per-group counts, a
    /// `NodeId` per membership and a `u32` sketch id per index entry, plus
    /// six `Vec` headers. Deterministic, so the serving-tier cache can budget
    /// RIS oracles by their sketch bytes; blocks shared with another
    /// generation count in full for each.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        6 * size_of::<Vec<u8>>()
            + self.groups.len() * size_of::<GroupId>()
            + (self.len() + 1 + self.index.len() + 1 + self.sets_per_group.len())
                * size_of::<usize>()
            + self.sets.num_items() * size_of::<NodeId>()
            + self.index.num_items() * size_of::<u32>()
    }
}

/// Influence oracle backed by reverse-reachable sketches.
///
/// Construction samples the sketches (in parallel, deterministically — see
/// [`RisConfig`]); [`RisEstimator::cursor`] returns the incremental
/// [`RisCursor`] the greedy/CELF solvers drive, so RIS is a drop-in
/// solver-facing alternative to the live-edge [`WorldEstimator`].
///
/// The sketch pool and the reverse adjacency live behind [`Arc`]s, so
/// cloning the estimator is cheap and clones share the sampled state
/// (mutating one via [`RisEstimator::extend_to`] copies-on-write instead of
/// disturbing the others).
///
/// [`WorldEstimator`]: crate::WorldEstimator
#[derive(Debug, Clone)]
pub struct RisEstimator {
    graph: Arc<Graph>,
    deadline: Deadline,
    base_seed: u64,
    in_edges: Arc<InEdges>,
    /// Shared sketch pool; see [`RrSketches`].
    sketches: Arc<RrSketches>,
    /// Cached group sizes of the graph.
    group_sizes: Vec<usize>,
}

/// Sketch ids are stored as `u32` in the inverted index; collections larger
/// than this are rejected.
const MAX_SKETCHES: usize = u32::MAX as usize;

impl RisEstimator {
    /// Samples reverse-reachable sketches from `graph` according to `config`
    /// (a fixed `num_sets` count, or adaptively sized when
    /// `config.adaptive` is set).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty, `num_sets` is zero, or the
    /// adaptive parameters are out of range.
    pub fn new(graph: Arc<Graph>, deadline: Deadline, config: &RisConfig) -> Result<Self> {
        if config.num_sets == 0 {
            return Err(DiffusionError::NoSamples);
        }
        if graph.num_nodes() == 0 {
            return Err(DiffusionError::InvalidParameter {
                message: "cannot build RR sets on an empty graph".to_string(),
            });
        }
        if let Some(adaptive) = &config.adaptive {
            adaptive.validate()?;
        }

        let in_edges = Arc::new(InEdges::build(&graph));
        let n = graph.num_nodes();
        let mut estimator = RisEstimator {
            sketches: Arc::new(RrSketches::new(n, graph.num_groups())),
            group_sizes: graph.group_sizes(),
            graph,
            deadline,
            base_seed: config.seed,
            in_edges,
        };
        match config.adaptive {
            None => estimator.extend_to(config.num_sets),
            Some(adaptive) => estimator.sample_adaptively(config.num_sets, &adaptive),
        }
        Ok(estimator)
    }

    /// Extends the collection to `target` sketches (no-op if it already has
    /// at least that many). Sketch `i` always derives from `seed + i`, so
    /// extending is deterministic: the first `len` sketches are unchanged and
    /// the result is identical to sampling `target` sketches up front.
    pub fn extend_to(&mut self, target: usize) {
        let target = target.min(MAX_SKETCHES);
        let current = self.sketches.len();
        if target <= current {
            return;
        }
        let fresh = sample_sketches(
            &self.graph,
            &self.in_edges,
            self.deadline,
            self.base_seed,
            target - current,
            |k| current + k,
        );
        // Copy-on-write: clones sharing the pool keep their view while this
        // estimator grows its own (construction-time extension never copies,
        // the pool is unshared until the estimator is handed out).
        Arc::make_mut(&mut self.sketches).extend(&fresh);
    }

    /// Incremental sketch maintenance after a graph mutation: `graph` is
    /// this estimator's graph with the edges `edited` (`(source, target)`
    /// pairs: every edge the batch added, removed or reweighted) changed.
    /// Resamples only the sketches that contain an edited edge's **target**
    /// and leaves every other sketch untouched.
    ///
    /// Why this is exact and not an approximation: sketch `i` is a reverse
    /// BFS seeded by `seed + i`, and the only per-node state it reads is the
    /// in-edge row of each visited node. A mutation of edge `u → v` changes
    /// only `v`'s row, so a sketch that never visited `v` replays the exact
    /// same RNG trajectory on the new graph — its result is already correct.
    /// Resampled sketches reuse their original `seed + id`, so the refreshed
    /// pool is **bitwise-identical** to a cold [`RisEstimator::new`] on the
    /// mutated graph with the same configuration.
    ///
    /// What it copies and what it recomputes: the reverse adjacency
    /// rebuilds only the edited targets' rows and copies the rest in spans;
    /// the pool ([`RrSketches`]) writes only the resampled sketches' node
    /// ranges and the index rows of the nodes they held or now hold, and
    /// copies the rest in spans. The new pool is a fresh allocation, so
    /// clones sharing the old one keep serving the pre-mutation sketches.
    /// Returns the number of sketches resampled.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] when `graph` disagrees
    /// with the current graph on node or group count — mutations never
    /// change the node set, so a mismatch means `graph` is not a mutated
    /// version of this estimator's graph.
    pub fn refresh(&mut self, graph: Arc<Graph>, edited: &[(NodeId, NodeId)]) -> Result<usize> {
        if graph.num_nodes() != self.graph.num_nodes()
            || graph.num_groups() != self.graph.num_groups()
        {
            return Err(DiffusionError::InvalidParameter {
                message: format!(
                    "refresh graph has {} nodes / {} groups but the estimator was built on {} \
                     nodes / {} groups",
                    graph.num_nodes(),
                    graph.num_groups(),
                    self.graph.num_nodes(),
                    self.graph.num_groups()
                ),
            });
        }
        let mut affected: Vec<u32> = edited
            .iter()
            .flat_map(|&(_, t)| self.sketches.sets_containing(t).iter().copied())
            .collect();
        affected.sort_unstable();
        affected.dedup();

        let in_edges = Arc::new(self.in_edges.patch(&graph, edited));
        if !affected.is_empty() {
            let fresh = sample_sketches(
                &graph,
                &in_edges,
                self.deadline,
                self.base_seed,
                affected.len(),
                |k| affected[k] as usize,
            );
            self.sketches = Arc::new(self.sketches.replaced(&affected, &fresh));
        }
        self.group_sizes = graph.group_sizes();
        self.graph = graph;
        self.in_edges = in_edges;
        Ok(affected.len())
    }

    /// The IMM sampling phase: double the sketch count until the greedy
    /// size-`k` coverage certifies `LB ≤ OPT`, then extend to `λ*/LB`.
    fn sample_adaptively(&mut self, min_sets: usize, adaptive: &AdaptiveRis) {
        let n = self.graph.num_nodes() as f64;
        let k = adaptive.budget.min(self.graph.num_nodes());
        let cap = adaptive.max_sets.max(min_sets);
        if self.graph.num_nodes() < 2 {
            // ln(n) degenerates; a single-node graph needs no adaptivity.
            self.extend_to(min_sets.min(cap));
            return;
        }

        let ln_n = n.ln();
        let logcnk = ln_binomial(self.graph.num_nodes(), k);
        // δ = n^{-ℓ}  ⇔  ℓ = ln(1/δ) / ln(n).
        let ell = (1.0 / adaptive.delta).ln() / ln_n;
        let eps_prime = std::f64::consts::SQRT_2 * adaptive.epsilon;
        let lambda_prime =
            (2.0 + 2.0 * eps_prime / 3.0) * (logcnk + ell * ln_n + n.log2().max(1.0).ln()) * n
                / (eps_prime * eps_prime);

        // Phase 1: geometric search for a lower bound on OPT.
        let mut lower_bound = 1.0;
        let max_rounds = (n.log2().ceil() as usize).max(1);
        for round in 1..=max_rounds {
            let x = n / 2f64.powi(round as i32);
            let theta = ((lambda_prime / x).ceil() as usize).max(min_sets).min(cap);
            self.extend_to(theta);
            let covered = self.greedy_cover_count(k);
            let fraction = covered as f64 / self.sketches.len() as f64;
            if n * fraction >= (1.0 + eps_prime) * x {
                lower_bound = n * fraction / (1.0 + eps_prime);
                break;
            }
            if self.sketches.len() >= cap {
                return;
            }
        }

        // Phase 2: the (ε, δ) sample budget against the certified bound.
        let e = std::f64::consts::E;
        let alpha = (ell * ln_n + 2f64.ln()).sqrt();
        let beta = ((1.0 - 1.0 / e) * (logcnk + ell * ln_n + 2f64.ln())).sqrt();
        let lambda_star =
            2.0 * n * ((1.0 - 1.0 / e) * alpha + beta).powi(2) / (adaptive.epsilon.powi(2));
        let theta = (lambda_star / lower_bound).ceil() as usize;
        self.extend_to(theta.max(min_sets).min(cap));
    }

    /// Greedy max-coverage over the current sketches: picks `k` nodes (ties
    /// towards the smallest id) and returns how many sketches they cover.
    /// Used by the adaptive stopping rule; deterministic.
    fn greedy_cover_count(&self, k: usize) -> usize {
        let pool = &self.sketches;
        let mut gain: Vec<u64> = pool.index.iter().map(|row| row.len() as u64).collect();
        let mut covered = BitSet::new(self.sketches.len());
        let mut total = 0usize;
        for _ in 0..k {
            let mut best = usize::MAX;
            let mut best_gain = 0u64;
            for (v, &g) in gain.iter().enumerate() {
                if g > best_gain {
                    best = v;
                    best_gain = g;
                }
            }
            if best_gain == 0 {
                break;
            }
            for &set_id in pool.index.row(best) {
                if covered.insert(set_id as usize) {
                    total += 1;
                    for &node in pool.set(set_id as usize).nodes {
                        gain[node.index()] -= 1;
                    }
                }
            }
        }
        total
    }

    /// Converts per-group hit counts into the influence estimate
    /// `|V_i| · hits_i / count_i`. Counts stay integral until this single
    /// conversion, so serial and parallel runs agree bitwise.
    fn influence_from_hits(&self, hits: &[u64]) -> GroupInfluence {
        let values = hits
            .iter()
            .zip(&self.sketches.sets_per_group)
            .zip(&self.group_sizes)
            .map(
                |((&h, &count), &size)| {
                    if count == 0 {
                        0.0
                    } else {
                        size as f64 * h as f64 / count as f64
                    }
                },
            )
            .collect();
        GroupInfluence::from_values(values)
    }

    /// Number of sampled RR sets.
    pub fn num_sets(&self) -> usize {
        self.sketches.len()
    }

    /// The RR sets, in id order.
    pub fn sets(&self) -> impl ExactSizeIterator<Item = RrSet<'_>> + '_ {
        self.sketches.sets()
    }

    /// Number of RR sets whose target lies in each group.
    pub fn sets_per_group(&self) -> &[usize] {
        self.sketches.sets_per_group()
    }

    /// A shared handle to the sketch pool, for caches that keep sketch state
    /// alive across many queries (cloning the handle shares, never copies).
    pub fn sketches_arc(&self) -> Arc<RrSketches> {
        Arc::clone(&self.sketches)
    }

    /// The shared graph handle.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Approximate resident heap bytes this estimator *owns*: the sketch
    /// pool ([`RrSketches::approx_bytes`]), the reverse adjacency it samples
    /// from, and the cached group sizes. The shared graph `Arc` is excluded
    /// on purpose — the serving-tier cache holds (and budgets) the graph as
    /// its own entry.
    pub fn approx_owned_bytes(&self) -> usize {
        self.sketches.approx_bytes()
            + self.in_edges.approx_bytes()
            + std::mem::size_of::<Vec<usize>>()
            + self.group_sizes.len() * std::mem::size_of::<usize>()
    }
}

impl InfluenceOracle for RisEstimator {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn deadline(&self) -> Deadline {
        self.deadline
    }

    fn evaluate(&self, seeds: &[NodeId]) -> Result<GroupInfluence> {
        crate::ic::validate_seeds(&self.graph, seeds)?;
        // Mark which RR sets are hit by any seed.
        let mut hit = BitSet::new(self.sketches.len());
        let mut hits_per_group = vec![0u64; self.graph.num_groups()];
        for &s in seeds {
            for &set_id in self.sketches.sets_containing(s) {
                if hit.insert(set_id as usize) {
                    hits_per_group[self.sketches.groups[set_id as usize].index()] += 1;
                }
            }
        }
        Ok(self.influence_from_hits(&hits_per_group))
    }

    fn cursor(&self) -> Box<dyn InfluenceCursor + '_> {
        Box::new(RisCursor::new(self))
    }
}

/// Incremental coverage cursor over the sketches of a [`RisEstimator`].
///
/// Tracks which sketches the committed seed set already covers in a bitset;
/// a marginal-gain query for candidate `v` walks only the inverted-index
/// entry of `v` (`O(#sketches containing v)`) and counts the *uncovered*
/// sketches per target group — no re-scan of the whole collection. This is
/// what makes greedy/CELF on RIS asymptotically cheaper than re-evaluating
/// the estimator per candidate.
pub struct RisCursor<'a> {
    estimator: &'a RisEstimator,
    /// Sketches covered by the committed seed set.
    covered: BitSet,
    /// Covered sketches per target group (integral until converted).
    hits_per_group: Vec<u64>,
    current: GroupInfluence,
    seeds: Vec<NodeId>,
}

impl<'a> RisCursor<'a> {
    fn new(estimator: &'a RisEstimator) -> Self {
        let k = estimator.graph.num_groups();
        RisCursor {
            covered: BitSet::new(estimator.sketches.len()),
            hits_per_group: vec![0; k],
            current: GroupInfluence::zeros(k),
            seeds: Vec::new(),
            estimator,
        }
    }
}

impl InfluenceCursor for RisCursor<'_> {
    fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    fn current(&self) -> &GroupInfluence {
        &self.current
    }

    fn gain(&mut self, candidate: NodeId) -> GroupInfluence {
        if candidate.index() >= self.estimator.graph.num_nodes() {
            // Out-of-bounds candidates gain nothing (mirrors NaiveCursor).
            return GroupInfluence::zeros(self.hits_per_group.len());
        }
        let sketches = &self.estimator.sketches;
        let mut marginal = vec![0u64; self.hits_per_group.len()];
        for &set_id in sketches.sets_containing(candidate) {
            if !self.covered.contains(set_id as usize) {
                marginal[sketches.groups[set_id as usize].index()] += 1;
            }
        }
        self.estimator.influence_from_hits(&marginal)
    }

    fn add_seed(&mut self, candidate: NodeId) {
        if candidate.index() < self.estimator.graph.num_nodes() {
            let sketches = &self.estimator.sketches;
            for &set_id in sketches.sets_containing(candidate) {
                if self.covered.insert(set_id as usize) {
                    self.hits_per_group[sketches.groups[set_id as usize].index()] += 1;
                }
            }
            self.current = self.estimator.influence_from_hits(&self.hits_per_group);
        }
        self.seeds.push(candidate);
    }
}

/// `ln C(n, k)` computed exactly as a sum of logs (no overflow for any n).
fn ln_binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k.min(n));
    (0..k).map(|i| (((n - i) as f64) / ((k - i) as f64)).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{InfluenceOracle, NaiveCursor, WorldEstimator};
    use crate::worlds::WorldsConfig;
    use tcim_graph::generators::{stochastic_block_model, SbmConfig};
    use tcim_graph::{GraphBuilder, GroupId, MutationOp};

    fn two_group_sbm() -> Arc<Graph> {
        let cfg = SbmConfig::two_group(120, 0.7, 0.08, 0.01, 0.2, 3);
        Arc::new(stochastic_block_model(&cfg).unwrap())
    }

    #[test]
    fn ris_agrees_with_world_estimator_within_tolerance() {
        let g = two_group_sbm();
        let deadline = Deadline::finite(3);
        let seeds = [NodeId(0), NodeId(5), NodeId(80)];

        let world = WorldEstimator::new(
            Arc::clone(&g),
            deadline,
            &WorldsConfig { num_worlds: 2000, seed: 1 },
        )
        .unwrap();
        let ris = RisEstimator::new(
            Arc::clone(&g),
            deadline,
            &RisConfig { num_sets: 40_000, seed: 2, ..Default::default() },
        )
        .unwrap();

        let a = world.evaluate(&seeds).unwrap();
        let b = ris.evaluate(&seeds).unwrap();
        let rel = (a.total() - b.total()).abs() / a.total().max(1.0);
        assert!(rel < 0.15, "world {} vs ris {}", a.total(), b.total());
    }

    #[test]
    fn deterministic_chain_is_estimated_exactly() {
        // 0 -> 1 -> 2 with probability 1; deadline 1.
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes(3, GroupId(0));
        b.add_edge(nodes[0], nodes[1], 1.0).unwrap();
        b.add_edge(nodes[1], nodes[2], 1.0).unwrap();
        let g = Arc::new(b.build().unwrap());
        let ris = RisEstimator::new(
            Arc::clone(&g),
            Deadline::finite(1),
            &RisConfig { num_sets: 3000, seed: 7, ..Default::default() },
        )
        .unwrap();
        let inf = ris.evaluate(&[NodeId(0)]).unwrap();
        // Exactly nodes {0, 1} are within one hop; estimate ≈ 2.
        assert!((inf.total() - 2.0).abs() < 0.15, "estimate {}", inf.total());
    }

    #[test]
    fn rejects_empty_and_invalid_inputs() {
        let g = two_group_sbm();
        assert!(RisEstimator::new(
            Arc::clone(&g),
            Deadline::unbounded(),
            &RisConfig { num_sets: 0, ..Default::default() }
        )
        .is_err());
        let empty = Arc::new(GraphBuilder::new().build().unwrap());
        assert!(RisEstimator::new(
            empty,
            Deadline::unbounded(),
            &RisConfig { num_sets: 10, ..Default::default() }
        )
        .is_err());
        for bad in [
            AdaptiveRis { epsilon: 0.0, ..Default::default() },
            AdaptiveRis { epsilon: 1.5, ..Default::default() },
            AdaptiveRis { delta: 0.0, ..Default::default() },
            AdaptiveRis { delta: 2.0, ..Default::default() },
            AdaptiveRis { budget: 0, ..Default::default() },
            AdaptiveRis { max_sets: 0, ..Default::default() },
        ] {
            assert!(
                RisEstimator::new(
                    Arc::clone(&g),
                    Deadline::unbounded(),
                    &RisConfig { num_sets: 10, adaptive: Some(bad), ..Default::default() }
                )
                .is_err(),
                "accepted invalid adaptive config {bad:?}"
            );
        }
        assert!(RisEstimator::new(
            g,
            Deadline::unbounded(),
            &RisConfig { num_sets: 10, ..Default::default() }
        )
        .unwrap()
        .evaluate(&[NodeId(9999)])
        .is_err());
    }

    #[test]
    fn rr_set_view_answers_membership() {
        let nodes = [NodeId(1), NodeId(3), NodeId(5)];
        let set = RrSet { target_group: GroupId(0), nodes: &nodes };
        assert_eq!(set.nodes(), &[NodeId(1), NodeId(3), NodeId(5)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.contains(NodeId(3)));
        assert!(!set.contains(NodeId(2)));
    }

    #[test]
    fn sampled_sketches_are_sorted_and_unique() {
        let g = two_group_sbm();
        let ris = RisEstimator::new(
            g,
            Deadline::finite(4),
            &RisConfig { num_sets: 200, seed: 11, ..Default::default() },
        )
        .unwrap();
        for set in ris.sets() {
            let nodes = set.nodes();
            assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0), "unsorted sketch {nodes:?}");
        }
    }

    #[test]
    fn extend_to_matches_sampling_up_front() {
        let g = two_group_sbm();
        let deadline = Deadline::finite(3);
        let config = RisConfig { num_sets: 300, seed: 13, ..Default::default() };
        let full = RisEstimator::new(Arc::clone(&g), deadline, &config).unwrap();
        let mut grown =
            RisEstimator::new(Arc::clone(&g), deadline, &RisConfig { num_sets: 100, ..config })
                .unwrap();
        grown.extend_to(300);
        assert_eq!(grown.num_sets(), 300);
        assert_eq!(*grown.sketches, *full.sketches);
        let seeds = [NodeId(0), NodeId(60)];
        let a = full.evaluate(&seeds).unwrap();
        let b = grown.evaluate(&seeds).unwrap();
        for (x, y) in a.values().iter().zip(b.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Shrinking is a no-op.
        grown.extend_to(10);
        assert_eq!(grown.num_sets(), 300);
    }

    #[test]
    fn cursor_gains_match_naive_rescan() {
        let g = two_group_sbm();
        let ris = RisEstimator::new(
            g,
            Deadline::finite(3),
            &RisConfig { num_sets: 800, seed: 17, ..Default::default() },
        )
        .unwrap();
        let mut fast = ris.cursor();
        let mut naive = NaiveCursor::new(&ris);
        for candidate in [NodeId(3), NodeId(40), NodeId(90), NodeId(3)] {
            let a = fast.gain(candidate);
            let b = naive.gain(candidate);
            for (x, y) in a.values().iter().zip(b.values()) {
                assert!((x - y).abs() < 1e-9, "gain mismatch at {candidate:?}: {x} vs {y}");
            }
            fast.add_seed(candidate);
            naive.add_seed(candidate);
            for (x, y) in fast.current().values().iter().zip(naive.current().values()) {
                assert!((x - y).abs() < 1e-9, "state mismatch after {candidate:?}: {x} vs {y}");
            }
        }
        assert_eq!(fast.seeds().len(), 4);
        // The committed state must equal a fresh evaluation bitwise.
        let direct = ris.evaluate(fast.seeds()).unwrap();
        for (x, y) in fast.current().values().iter().zip(direct.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cursor_ignores_out_of_bounds_candidates() {
        let g = two_group_sbm();
        let ris = RisEstimator::new(
            g,
            Deadline::finite(2),
            &RisConfig { num_sets: 50, seed: 1, ..Default::default() },
        )
        .unwrap();
        let mut cursor = ris.cursor();
        assert_eq!(cursor.gain(NodeId(100_000)).total(), 0.0);
    }

    #[test]
    fn adaptive_sizing_grows_the_collection_and_stays_deterministic() {
        let g = two_group_sbm();
        let adaptive = AdaptiveRis { epsilon: 0.3, delta: 0.1, budget: 5, max_sets: 50_000 };
        let config = RisConfig { num_sets: 64, seed: 23, adaptive: Some(adaptive) };
        let a = RisEstimator::new(Arc::clone(&g), Deadline::finite(3), &config).unwrap();
        let b = RisEstimator::new(Arc::clone(&g), Deadline::finite(3), &config).unwrap();
        assert!(a.num_sets() > 64, "adaptive sizing never grew past the floor");
        assert!(a.num_sets() <= 50_000);
        assert_eq!(a.num_sets(), b.num_sets());
        let x = a.evaluate(&[NodeId(0)]).unwrap();
        let y = b.evaluate(&[NodeId(0)]).unwrap();
        for (p, q) in x.values().iter().zip(y.values()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // The cap is honored even when the budget formula asks for more.
        let capped = RisEstimator::new(
            g,
            Deadline::finite(3),
            &RisConfig {
                num_sets: 64,
                seed: 23,
                adaptive: Some(AdaptiveRis { max_sets: 500, ..adaptive }),
            },
        )
        .unwrap();
        assert!(capped.num_sets() <= 500);
    }

    fn assert_pools_bitwise_eq(a: &RisEstimator, b: &RisEstimator) {
        assert_eq!(*a.sketches, *b.sketches);
        assert_eq!(*a.in_edges, *b.in_edges);
        assert_eq!(a.approx_owned_bytes(), b.approx_owned_bytes());
        let seeds = [NodeId(0), NodeId(7), NodeId(63)];
        let x = a.evaluate(&seeds).unwrap();
        let y = b.evaluate(&seeds).unwrap();
        for (p, q) in x.values().iter().zip(y.values()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn refresh_matches_a_cold_rebuild_bitwise() {
        use tcim_graph::MutationOp;
        let g = two_group_sbm();
        let config = RisConfig { num_sets: 512, seed: 11, ..Default::default() };
        let deadline = Deadline::finite(3);
        let ops = [
            MutationOp::AddEdge { source: NodeId(0), target: NodeId(90), probability: 0.9 },
            MutationOp::RemoveEdge { source: NodeId(0), target: NodeId(90) },
            MutationOp::Reweight { source: NodeId(2), target: NodeId(1), probability: 0.99 },
        ];
        let mut current = Arc::clone(&g);
        let mut incremental = RisEstimator::new(Arc::clone(&g), deadline, &config).unwrap();
        for op in ops {
            // Reweight targets an edge of the SBM draw; make sure it exists.
            let mutated = Arc::new(match op {
                MutationOp::Reweight { source, target, .. }
                    if !current.out_edges(source).any(|(w, _)| w == target) =>
                {
                    current.add_edge(source, target, 0.99).unwrap()
                }
                _ => current.apply(&[op]).unwrap(),
            });
            let resampled = incremental.refresh(Arc::clone(&mutated), &[op.endpoints()]).unwrap();
            assert!(resampled > 0, "mutation {op:?} touched no sketch");
            assert!(resampled < config.num_sets, "refresh resampled the whole pool");
            let cold = RisEstimator::new(Arc::clone(&mutated), deadline, &config).unwrap();
            assert_pools_bitwise_eq(&incremental, &cold);
            current = mutated;
        }
    }

    /// Asserts that block `b` of `new` is `old`'s allocation exactly when
    /// none of `rows` falls in it, and that some block is shared.
    fn assert_shares_untouched<T: Clone + std::fmt::Debug>(
        new: &Rows<T>,
        old: &Rows<T>,
        rows: &[usize],
    ) {
        let blocks = old.num_blocks();
        for b in 0..blocks {
            let touched = rows.iter().any(|&r| r / tcim_graph::BLOCK_ROWS == b);
            assert_eq!(new.shares_block(old, b), !touched, "block {b} of {blocks}");
        }
        assert!((0..blocks).any(|b| new.shares_block(old, b)), "no block was shared");
    }

    #[test]
    fn a_one_edge_refresh_shares_every_untouched_block() {
        use tcim_graph::BLOCK_ROWS;
        let cfg = SbmConfig::two_group(6 * BLOCK_ROWS, 0.7, 0.02, 0.002, 0.2, 3);
        let g = Arc::new(stochastic_block_model(&cfg).unwrap());
        let config = RisConfig { num_sets: 8 * BLOCK_ROWS, seed: 5, ..Default::default() };
        let before = RisEstimator::new(Arc::clone(&g), Deadline::finite(3), &config).unwrap();
        let (u, v) = (NodeId(1), NodeId(3 * BLOCK_ROWS as u32 + 7));
        let mutated = Arc::new(g.add_edge(u, v, 0.8).unwrap());
        let mut after = before.clone();
        let resampled = after.refresh(mutated, &[(u, v)]).unwrap();
        let affected = before.sketches.sets_containing(v);
        assert_eq!(resampled, affected.len());
        assert!(resampled > 0 && resampled < BLOCK_ROWS);
        // Rows whose blocks may be rebuilt: the edited target's in-row, the
        // resampled sketches, and the index rows of every node they held or
        // now hold.
        let index_rows: Vec<usize> = affected
            .iter()
            .flat_map(|&id| {
                let id = id as usize;
                before.sketches.set(id).nodes.iter().chain(after.sketches.set(id).nodes)
            })
            .map(|w| w.index())
            .collect();
        let ids: Vec<usize> = affected.iter().map(|&id| id as usize).collect();
        let (sets, index) = (&after.sketches.sets, &after.sketches.index);
        assert_shares_untouched(&after.in_edges.rows, &before.in_edges.rows, &[v.index()]);
        assert_shares_untouched(sets, &before.sketches.sets, &ids);
        assert_shares_untouched(index, &before.sketches.index, &index_rows);
        assert!(Arc::ptr_eq(&after.sketches.groups, &before.sketches.groups));
    }

    #[test]
    fn refresh_is_copy_on_write_for_clones() {
        let g = two_group_sbm();
        let config = RisConfig { num_sets: 256, seed: 5, ..Default::default() };
        let mut a = RisEstimator::new(Arc::clone(&g), Deadline::finite(3), &config).unwrap();
        let b = a.clone();
        let before = RrSketches::clone(&b.sketches);
        let mutated = Arc::new(g.add_edge(NodeId(1), NodeId(100), 0.8).unwrap());
        a.refresh(Arc::clone(&mutated), &[(NodeId(1), NodeId(100))]).unwrap();
        // The clone still serves the pre-mutation pool, untouched.
        assert_eq!(*b.sketches, before);
        assert_ne!(*a.sketches, before);
        assert_eq!(b.graph_arc().version(), 0);
        assert_eq!(a.graph_arc().version(), 1);
    }

    #[test]
    fn refresh_rejects_shape_mismatches_and_tolerates_empty_touch_sets() {
        let g = two_group_sbm();
        let config = RisConfig { num_sets: 64, seed: 9, ..Default::default() };
        let mut ris = RisEstimator::new(Arc::clone(&g), Deadline::finite(2), &config).unwrap();
        let mut b = GraphBuilder::new();
        b.add_nodes(3, GroupId(0));
        let small = Arc::new(b.build().unwrap());
        assert!(ris.refresh(small, &[]).is_err());
        // An empty batch edits nothing: the refresh resamples nothing but
        // still swaps in the new graph version.
        let mutated = Arc::new(g.apply(&[]).unwrap());
        assert_eq!(ris.refresh(Arc::clone(&mutated), &[]).unwrap(), 0);
        assert_eq!(ris.graph_arc().version(), 1);
    }

    #[test]
    fn patched_in_edges_equal_a_rebuild_including_parallel_edges() {
        use tcim_graph::MutationOp::{AddEdge, RemoveEdge, Reweight};
        // A raw CSR with parallel edges 0 -> 2 (twice, around 0 -> 1) and
        // 3 -> 2 (twice): the in-row of 2 lists 0, 0, 1, 3, 3 in out-row
        // order, and patching must keep that order.
        let g = Graph::from_csr(
            vec![0, 3, 5, 6, 8],
            vec![2, 1, 2, 2, 3, 0, 2, 2],
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            vec![GroupId(0); 4],
        )
        .unwrap();
        let before = InEdges::build(&g);
        let n = |v| NodeId(v);
        let batches: [&[MutationOp]; 4] = [
            &[Reweight { source: n(0), target: n(2), probability: 0.9 }],
            &[RemoveEdge { source: n(3), target: n(2) }],
            &[
                AddEdge { source: n(1), target: n(0), probability: 0.5 },
                AddEdge { source: n(3), target: n(1), probability: 0.25 },
                RemoveEdge { source: n(0), target: n(1) },
            ],
            &[
                RemoveEdge { source: n(1), target: n(2) },
                AddEdge { source: n(1), target: n(2), probability: 0.35 },
                AddEdge { source: n(2), target: n(3), probability: 1.0 },
            ],
        ];
        for ops in batches {
            let mutated = g.apply(ops).unwrap();
            let edited: Vec<_> = ops.iter().map(MutationOp::endpoints).collect();
            assert_eq!(before.patch(&mutated, &edited), InEdges::build(&mutated), "{ops:?}");
        }
        // Along a chain on a builder graph, patch after patch.
        let mut graph = two_group_sbm();
        let mut in_edges = InEdges::build(&graph);
        for step in 0..6u32 {
            let (u, v) = (NodeId(step * 17 % 120), NodeId((step * 29 + 1) % 120));
            let mut ops = vec![Reweight {
                source: u,
                target: graph.out_neighbors(u).next().unwrap(),
                probability: 0.4,
            }];
            if u != v && !graph.out_neighbors(u).any(|w| w == v) {
                ops.push(AddEdge { source: u, target: v, probability: 0.3 });
            }
            if let Some(w) = graph.out_neighbors(NodeId(u.0 + 1)).next() {
                ops.push(RemoveEdge { source: NodeId(u.0 + 1), target: w });
            }
            let mutated = Arc::new(graph.apply(&ops).unwrap());
            let edited: Vec<_> = ops.iter().map(MutationOp::endpoints).collect();
            in_edges = in_edges.patch(&mutated, &edited);
            assert_eq!(in_edges, InEdges::build(&mutated), "step {step}");
            graph = mutated;
        }
    }

    #[test]
    fn ln_binomial_matches_direct_computation() {
        // C(10, 3) = 120.
        assert!((ln_binomial(10, 3) - 120f64.ln()).abs() < 1e-9);
        // Symmetry: C(10, 7) = C(10, 3).
        assert!((ln_binomial(10, 7) - 120f64.ln()).abs() < 1e-9);
        assert_eq!(ln_binomial(5, 0), 0.0);
        assert_eq!(ln_binomial(5, 5), 0.0);
    }
}
