//! Group-aware estimation of the time-critical influence utility `f_τ`
//! (Eq. 1 of the paper) and incremental marginal-gain oracles for greedy
//! seed selection.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use tcim_graph::{Graph, GroupId, NodeId};

use crate::bitset::BitSet;
use crate::deadline::Deadline;
use crate::error::Result;
use crate::ic::simulate_ic;
use crate::parallel::ParallelismConfig;
use crate::worlds::{VisitScratch, WorldCollection, WorldsConfig};

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
    fn gain(&mut self, candidate: NodeId) -> GroupInfluence;

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
    parallelism: ParallelismConfig,
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
        Ok(Self::from_worlds(graph, worlds, deadline).with_parallelism(config.parallelism))
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
        Ok(Self::from_worlds(graph, worlds, deadline).with_parallelism(config.parallelism))
    }

    /// Builds an estimator over an existing world collection (so several
    /// deadlines can share the same sampled worlds).
    pub fn from_worlds(
        graph: Arc<Graph>,
        worlds: Arc<WorldCollection>,
        deadline: Deadline,
    ) -> Self {
        let group_of: Vec<u32> = graph.nodes().map(|v| graph.group_of(v).0).collect();
        let group_sizes = graph.group_sizes();
        WorldEstimator {
            graph,
            worlds,
            deadline,
            group_of,
            group_sizes,
            parallelism: ParallelismConfig::auto(),
        }
    }

    /// Returns a copy of this estimator that evaluates against a different
    /// deadline but shares the same sampled worlds.
    pub fn with_deadline(&self, deadline: Deadline) -> Self {
        WorldEstimator { deadline, ..self.clone() }
    }

    /// Returns a copy of this estimator with a different parallelism setting.
    /// Estimates are bitwise identical at every thread count; this only
    /// changes throughput.
    pub fn with_parallelism(&self, parallelism: ParallelismConfig) -> Self {
        WorldEstimator { parallelism, ..self.clone() }
    }

    /// The parallelism setting evaluation runs with.
    pub fn parallelism(&self) -> ParallelismConfig {
        self.parallelism
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
    /// and world-collection `Arc`s: the per-node group lookup and the group
    /// sizes. Cheap by design — a worlds-backed estimator is a view, and the
    /// serving-tier cache accounts for (and budgets) the collection itself
    /// as its own entry.
    pub fn approx_view_bytes(&self) -> usize {
        2 * std::mem::size_of::<Vec<u8>>()
            + self.group_of.len() * std::mem::size_of::<u32>()
            + self.group_sizes.len() * std::mem::size_of::<usize>()
    }

    fn evaluate_worlds(&self, seeds: &[NodeId]) -> GroupInfluence {
        let k = self.group_sizes.len();
        // Per-group activations are counted in u64 and only converted to f64
        // once at the end: integer addition is associative, so chunk
        // boundaries (and hence the thread count) cannot change the result.
        let counts: Vec<u64> = self.parallelism.run(|| {
            self.worlds
                .worlds()
                .par_iter()
                .fold(
                    || (vec![0u64; k], VisitScratch::new(self.graph.num_nodes())),
                    |(mut counts, mut scratch), world| {
                        world.bounded_bfs(seeds, self.deadline, &mut scratch, |node, _| {
                            counts[self.group_of[node.index()] as usize] += 1;
                        });
                        (counts, scratch)
                    },
                )
                .reduce(
                    || (vec![0u64; k], VisitScratch::new(0)),
                    |(mut acc, scratch), (partial, _)| {
                        for (a, p) in acc.iter_mut().zip(&partial) {
                            *a += p;
                        }
                        (acc, scratch)
                    },
                )
                .0
        });

        let scale = 1.0 / self.worlds.len() as f64;
        GroupInfluence::from_values(counts.into_iter().map(|c| c as f64 * scale).collect())
    }
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

/// Incremental coverage state over the live-edge worlds of a
/// [`WorldEstimator`].
pub struct WorldCursor<'a> {
    estimator: &'a WorldEstimator,
    covered: Vec<BitSet>,
    group_totals: Vec<f64>,
    current: GroupInfluence,
    seeds: Vec<NodeId>,
    scratch: VisitScratch,
    /// Whether `gain` queries should fan out. Decided once at construction:
    /// it re-checks neither the environment (env-var read per query) nor the
    /// workload, and stays `false` when `worlds × nodes` is too small for
    /// per-query thread spawning to pay for itself. Either path returns
    /// bitwise-identical results, so this is purely a throughput heuristic.
    parallel_gain: bool,
}

/// Below this many node-visits upper bound (`num_worlds × num_nodes`) a
/// marginal-gain query runs serially even under a parallel
/// [`ParallelismConfig`]: spawning scoped threads costs tens of microseconds,
/// which dwarfs the BFS work on small instances.
const PARALLEL_GAIN_MIN_WORK: usize = 50_000;

impl<'a> WorldCursor<'a> {
    fn new(estimator: &'a WorldEstimator) -> Self {
        let n = estimator.graph.num_nodes();
        let k = estimator.group_sizes.len();
        let parallel_gain = !estimator.parallelism.is_serial()
            && estimator.worlds.len().saturating_mul(n) >= PARALLEL_GAIN_MIN_WORK;
        WorldCursor {
            estimator,
            covered: vec![BitSet::new(n); estimator.worlds.len()],
            group_totals: vec![0.0; k],
            current: GroupInfluence::zeros(k),
            seeds: Vec::new(),
            scratch: VisitScratch::new(n),
            parallel_gain,
        }
    }
}

impl InfluenceCursor for WorldCursor<'_> {
    fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    fn current(&self) -> &GroupInfluence {
        &self.current
    }

    fn gain(&mut self, candidate: NodeId) -> GroupInfluence {
        // Marginal-gain queries dominate every greedy/CELF solve (they run
        // once per candidate per round, `add_seed` once per round), so this
        // is the hot path the parallelism knob must reach. Counts accumulate
        // as u64 exactly like `evaluate_worlds`, so serial and parallel
        // queries agree bitwise.
        let k = self.estimator.group_sizes.len();
        let group_of = &self.estimator.group_of;
        let deadline = self.estimator.deadline;
        let worlds = self.estimator.worlds.worlds();
        let counts: Vec<u64> = if !self.parallel_gain {
            // Serial fast path: reuse the cursor's epoch scratch instead of
            // zeroing a fresh visited buffer per query.
            let mut counts = vec![0u64; k];
            for (world, covered) in worlds.iter().zip(&self.covered) {
                world.bounded_bfs(&[candidate], deadline, &mut self.scratch, |node, _| {
                    if !covered.contains(node.index()) {
                        counts[group_of[node.index()] as usize] += 1;
                    }
                });
            }
            counts
        } else {
            let covered = &self.covered;
            let n = self.estimator.graph.num_nodes();
            self.estimator.parallelism.run(|| {
                (0..worlds.len())
                    .into_par_iter()
                    .fold(
                        || (vec![0u64; k], VisitScratch::new(n)),
                        |(mut counts, mut scratch), i| {
                            worlds[i].bounded_bfs(
                                &[candidate],
                                deadline,
                                &mut scratch,
                                |node, _| {
                                    if !covered[i].contains(node.index()) {
                                        counts[group_of[node.index()] as usize] += 1;
                                    }
                                },
                            );
                            (counts, scratch)
                        },
                    )
                    .reduce(
                        || (vec![0u64; k], VisitScratch::new(0)),
                        |(mut acc, scratch), (partial, _)| {
                            for (a, p) in acc.iter_mut().zip(&partial) {
                                *a += p;
                            }
                            (acc, scratch)
                        },
                    )
                    .0
            })
        };
        let scale = 1.0 / worlds.len() as f64;
        GroupInfluence::from_values(counts.into_iter().map(|c| c as f64 * scale).collect())
    }

    fn add_seed(&mut self, candidate: NodeId) {
        let group_of = &self.estimator.group_of;
        let deadline = self.estimator.deadline;
        for (world, covered) in self.estimator.worlds.worlds().iter().zip(self.covered.iter_mut()) {
            world.bounded_bfs(&[candidate], deadline, &mut self.scratch, |node, _| {
                if covered.insert(node.index()) {
                    self.group_totals[group_of[node.index()] as usize] += 1.0;
                }
            });
        }
        let scale = 1.0 / self.estimator.worlds.len() as f64;
        self.current =
            GroupInfluence::from_values(self.group_totals.iter().map(|t| t * scale).collect());
        self.seeds.push(candidate);
    }
}

// ---------------------------------------------------------------------------
// Fresh Monte-Carlo estimator
// ---------------------------------------------------------------------------

/// Influence oracle that runs fresh independent-cascade simulations for every
/// query.
///
/// Simpler and unbiased, but marginal gains computed by differencing two
/// independent estimates are noisy, so the live-edge [`WorldEstimator`] is
/// the default choice for the solvers; this estimator serves as the
/// cross-check in tests and as the final "held-out" evaluator of a chosen
/// seed set (the paper re-estimates the influence of the selected seeds with
/// fresh samples).
#[derive(Debug, Clone)]
pub struct MonteCarloEstimator {
    graph: Arc<Graph>,
    deadline: Deadline,
    samples: usize,
    seed: u64,
    parallelism: ParallelismConfig,
}

impl MonteCarloEstimator {
    /// Creates a Monte-Carlo estimator running `samples` cascades per query.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DiffusionError::NoSamples`] if `samples` is zero.
    pub fn new(graph: Arc<Graph>, deadline: Deadline, samples: usize, seed: u64) -> Result<Self> {
        if samples == 0 {
            return Err(crate::error::DiffusionError::NoSamples);
        }
        Ok(MonteCarloEstimator {
            graph,
            deadline,
            samples,
            seed,
            parallelism: ParallelismConfig::auto(),
        })
    }

    /// Number of cascades per query.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Returns a copy of this estimator with a different parallelism setting.
    /// Cascade `i` is always driven by `StdRng::seed_from_u64(seed + i)`, so
    /// estimates are bitwise identical at every thread count.
    pub fn with_parallelism(&self, parallelism: ParallelismConfig) -> Self {
        MonteCarloEstimator { parallelism, ..self.clone() }
    }

    /// The parallelism setting evaluation runs with.
    pub fn parallelism(&self) -> ParallelismConfig {
        self.parallelism
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
        let k = self.graph.num_groups();
        // Cascade `i` is seeded from `seed + i` and activation counts are
        // accumulated as integers, so the thread count cannot change the
        // estimate (see `ParallelismConfig`).
        let counts: Vec<u64> = self.parallelism.run(|| {
            (0..self.samples)
                .into_par_iter()
                .fold(
                    || vec![0u64; k],
                    |mut counts, i| {
                        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
                        #[expect(
                            clippy::expect_used,
                            reason = "seeds are range-checked before entering the parallel region"
                        )]
                        let trace = simulate_ic(&self.graph, seeds, &mut rng)
                            .expect("seeds validated before the parallel region");
                        let activations = trace.group_activations(&self.graph, self.deadline);
                        for (c, a) in counts.iter_mut().zip(activations) {
                            *c += a as u64;
                        }
                        counts
                    },
                )
                .reduce(
                    || vec![0u64; k],
                    |mut acc, partial| {
                        for (a, p) in acc.iter_mut().zip(&partial) {
                            *a += p;
                        }
                        acc
                    },
                )
        });
        let scale = 1.0 / self.samples as f64;
        Ok(GroupInfluence::from_values(counts.into_iter().map(|c| c as f64 * scale).collect()))
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
        // Clamp at zero: with independent sampling noise a difference of two
        // estimates can dip below zero, which would confuse the lazy-greedy
        // heap invariants downstream.
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
            &WorldsConfig { num_worlds: 8, seed: 0, ..Default::default() },
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
        let world = WorldEstimator::new(
            Arc::clone(&g),
            deadline,
            &WorldsConfig { num_worlds: 4, seed: 1, ..Default::default() },
        )
        .unwrap();
        let mc = MonteCarloEstimator::new(Arc::clone(&g), deadline, 16, 3).unwrap();
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
            &WorldsConfig { num_worlds: 8, seed: 2, ..Default::default() },
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

    #[test]
    fn empty_seed_set_has_zero_influence() {
        let g = deterministic_graph();
        let est = WorldEstimator::new(
            Arc::clone(&g),
            Deadline::unbounded(),
            &WorldsConfig { num_worlds: 4, seed: 5, ..Default::default() },
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
            &WorldsConfig { num_worlds: 2, seed: 0, ..Default::default() },
        )
        .unwrap();
        assert!(est.evaluate(&[NodeId(99)]).is_err());
        let mc = MonteCarloEstimator::new(g, Deadline::unbounded(), 2, 0).unwrap();
        assert!(mc.evaluate(&[NodeId(99)]).is_err());
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
            &WorldsConfig { num_worlds: 8, seed: 3, ..Default::default() },
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
            &WorldsConfig { num_worlds: 500, seed: 9, ..Default::default() },
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
            &WorldsConfig { num_worlds: 4000, seed: 11, ..Default::default() },
        )
        .unwrap();
        let inf = est.evaluate(&[a]).unwrap();
        assert!((inf.total() - 1.4).abs() < 0.05, "estimate {}", inf.total());

        let mc = MonteCarloEstimator::new(g, Deadline::unbounded(), 4000, 13).unwrap();
        let inf = mc.evaluate(&[a]).unwrap();
        assert!((inf.total() - 1.4).abs() < 0.05, "estimate {}", inf.total());
    }
}
