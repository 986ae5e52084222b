//! Live-edge worlds: pre-sampled realisations of the independent-cascade
//! coin flips.
//!
//! Kempe et al.'s live-edge interpretation of the IC model flips every edge's
//! coin once up front: an edge is *live* with its activation probability and
//! *blocked* otherwise. A node `u` is activated at time `t` iff the shortest
//! live-edge path from the seed set to `u` has `t` hops, so the time-critical
//! utility of a seed set in one world is simply the number of nodes within
//! `τ` live-edge hops of the seeds.
//!
//! Sampling a fixed collection of worlds once and evaluating every candidate
//! seed set on the same collection ("common random numbers") has two crucial
//! properties the solvers rely on:
//!
//! 1. the sampled objective is an *exactly* monotone submodular function of
//!    the seed set (an average of bounded-radius coverage functions), so the
//!    greedy/CELF guarantees hold exactly on the sample;
//! 2. comparisons between solvers (fair vs unfair) are not polluted by
//!    independent sampling noise.
//!
//! Every coin is **keyed**: the coin of edge `u → v` in world `i` is a pure
//! function of `(seed + i, u, v)`, never a position in a sequential RNG
//! stream. Mutating a graph therefore leaves the coins of every untouched
//! edge unchanged, which is what lets [`WorldCollection::patch`] re-draw only
//! the mutated rows and still equal a cold resample bitwise.

use rayon::prelude::*;
use tcim_graph::{Graph, NodeId};

use crate::csr::copy_span;
use crate::deadline::Deadline;
use crate::error::{DiffusionError, Result};

/// One sampled live-edge world: the subgraph of live edges in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveEdgeWorld {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl LiveEdgeWorld {
    /// Builds a world from an explicit list of live directed edges.
    ///
    /// Used by the linear-threshold sampler, which selects edges per *target*
    /// node and therefore cannot stream them in CSR source order.
    pub fn from_edges(num_nodes: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.sort_unstable();
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut targets = Vec::with_capacity(edges.len());
        offsets.push(0u32);
        let mut cursor = 0usize;
        for v in 0..num_nodes as u32 {
            while cursor < edges.len() && edges[cursor].0 == v {
                targets.push(edges[cursor].1);
                cursor += 1;
            }
            offsets.push(targets.len() as u32);
        }
        LiveEdgeWorld { offsets, targets }
    }

    /// Samples an **independent cascade** world: edge `u → v` is live iff
    /// its keyed coin `(world_seed, u, v)` falls below the edge probability.
    pub fn sample(graph: &Graph, world_seed: u64) -> Self {
        let mut offsets = Vec::with_capacity(graph.num_nodes() + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for v in graph.nodes() {
            targets.extend(live_ic_row(graph, v.0, world_seed));
            offsets.push(targets.len() as u32);
        }
        LiveEdgeWorld { offsets, targets }
    }

    /// Samples a world under the **linear threshold** model: every node
    /// independently selects at most one of its incoming edges, picking
    /// in-neighbour `u` with probability equal to its normalised LT weight
    /// (and no edge with the remaining probability). Node `v`'s pick is keyed
    /// by `(world_seed, v)`. Kempe et al.'s coupling shows cascades in this
    /// world have the same distribution as LT cascades, and the activation
    /// time of a node equals its live-edge hop distance from the seed set —
    /// so the same τ-bounded BFS machinery estimates the time-critical LT
    /// utility.
    pub fn sample_lt(graph: &Graph, weights: &crate::lt::LtWeights, world_seed: u64) -> Self {
        let n = graph.num_nodes();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n);
        for v in graph.nodes() {
            if let Some(u) = lt_pick(weights, v, world_seed) {
                edges.push((u.0, v.0));
            }
        }
        LiveEdgeWorld::from_edges(n, edges)
    }

    /// Number of nodes the world covers.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of live edges in this world.
    pub fn num_live_edges(&self) -> usize {
        self.targets.len()
    }

    /// Approximate resident bytes of this world: its inline struct (two
    /// `Vec` headers) plus the CSR payloads. Summed by
    /// [`WorldCollection::approx_bytes`] for cache budgeting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.offsets.len() + self.targets.len()) * std::mem::size_of::<u32>()
    }

    /// Live out-neighbours of `node`.
    #[inline]
    pub fn out_neighbors(&self, node: NodeId) -> &[u32] {
        let v = node.index();
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// This world with every live edge turned around, so that row `w` lists
    /// the live in-neighbours of `w` in ascending order. A counting sort by
    /// target: one pass to count, one to place, `O(n + live edges)`.
    pub(crate) fn reversed(&self) -> LiveEdgeWorld {
        let n = self.num_nodes();
        let mut offsets = vec![0u32; n + 1];
        for &w in &self.targets {
            offsets[w as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut sources = vec![0u32; self.targets.len()];
        for v in 0..n {
            for &w in self.out_neighbors(NodeId::from_index(v)) {
                sources[next[w as usize] as usize] = v as u32;
                next[w as usize] += 1;
            }
        }
        LiveEdgeWorld { offsets, targets: sources }
    }
}

/// The one τ-bounded forward BFS: searches from `sources` over the live
/// out-neighbours `row(v)` of each reached node `v`, stopping at `deadline`
/// hops, and calls `visit(node, hops)` for every newly reached node
/// (including the sources at hop 0; sources at or past `num_nodes` are
/// skipped). `visit` returns whether to expand the node: a node it declines
/// stays marked but its row is never read, which is how the world cursor
/// prunes nodes the committed seeds already reach sooner. A stored world
/// passes its live row, the unstored Monte-Carlo estimator passes
/// [`live_ic_row`]; `row` is generic, not `dyn`, because this is the
/// marginal-gain hot loop. `scratch` marks visited nodes and is reset lazily
/// via its epoch, so repeated calls reuse it without clearing.
///
/// The search walks one FIFO queue. Every node of a hop sits before every
/// node of the next, so a level boundary (the queue's length when the hop
/// began) gives each node its hop, and `visit` sees nodes in the order a
/// level-by-level search would. Only a node whose next hop the deadline
/// allows is queued, so the search ends when the queue drains.
pub(crate) fn bounded_bfs<I: IntoIterator<Item = u32>>(
    num_nodes: usize,
    sources: &[NodeId],
    deadline: Deadline,
    scratch: &mut VisitScratch,
    mut row: impl FnMut(u32) -> I,
    mut visit: impl FnMut(NodeId, u32) -> bool,
) {
    scratch.begin(num_nodes);
    let mut queue = std::mem::take(&mut scratch.queue);
    queue.clear();
    let mut expands = deadline.allows(1);
    for &s in sources {
        if s.index() < num_nodes && scratch.mark(s.index()) && visit(s, 0) && expands {
            queue.push(s.0);
        }
    }
    let (mut head, mut hops) = (0, 0u32);
    while head < queue.len() {
        hops += 1;
        expands = deadline.allows(hops + 1);
        let level_end = queue.len();
        while head < level_end {
            let v = queue[head];
            head += 1;
            for w in row(v) {
                if scratch.mark(w as usize) && visit(NodeId(w), hops) && expands {
                    queue.push(w);
                }
            }
        }
    }
    scratch.queue = queue;
}

/// The keyed coin of edge `u → v` in the world seeded by `world_seed`: a
/// splitmix64-style finalizer over the packed inputs, mapped to `[0, 1)`.
/// A pure function of its arguments — never a stream position — so graph
/// mutations cannot shift the coins of untouched edges.
#[inline]
fn keyed_draw(world_seed: u64, u: u32, v: u32) -> f64 {
    let mut x = world_seed ^ (((u as u64) << 32) | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The live out-neighbours of `v` in the IC world seeded by `world_seed`:
/// edge `v → w` is live iff its keyed coin falls below its probability.
/// This is the one IC coin — sampling, patching and the unstored
/// Monte-Carlo estimator all draw liveness here, so a re-drawn row is the
/// row a cold sample would draw, and an on-the-fly BFS walks the same
/// worlds a stored pool holds.
#[inline]
pub(crate) fn live_ic_row(
    graph: &Graph,
    v: u32,
    world_seed: u64,
) -> impl Iterator<Item = u32> + '_ {
    graph
        .out_edges(NodeId(v))
        .filter(move |&(w, p)| p > 0.0 && (p >= 1.0 || keyed_draw(world_seed, v, w.0) < p))
        .map(|(w, _)| w.0)
}

/// The linear-threshold in-edge pick of node `v` in the world seeded by
/// `world_seed`: `None` when no edge is selected. Self-loops never exist, so
/// the `(v, v)` key is free for the per-node draw without colliding with any
/// IC edge key.
fn lt_pick(weights: &crate::lt::LtWeights, v: NodeId, world_seed: u64) -> Option<NodeId> {
    let in_edges = weights.in_edges(v);
    if in_edges.is_empty() {
        return None;
    }
    let mut pick = keyed_draw(world_seed, v.0, v.0);
    for &(u, w) in in_edges {
        if pick < w {
            return Some(u);
        }
        pick -= w;
    }
    None
}

/// Reusable visited-marker buffer for [`bounded_bfs`] and the reverse BFS of
/// RR-sketch sampling, and the queue of [`bounded_bfs`] (a sketch queues its
/// nodes in the sketch itself).
///
/// Uses an epoch counter so that consecutive BFS runs do not need to clear the
/// whole buffer, which matters when the estimator runs hundreds of thousands
/// of bounded searches; the queue keeps its capacity across runs for the same
/// reason (a pruned marginal-gain search often touches only a handful of
/// nodes, so an allocation per world would dominate it).
#[derive(Debug, Clone)]
pub(crate) struct VisitScratch {
    epoch: u32,
    marks: Vec<u32>,
    /// The BFS queue; a search takes it and hands it back when it ends.
    queue: Vec<u32>,
}

impl VisitScratch {
    /// Creates a scratch buffer for graphs with up to `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        VisitScratch { epoch: 0, marks: vec![0; n], queue: Vec::new() }
    }

    /// Starts a new search over up to `n` nodes: every mark of the previous
    /// search goes stale at once.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Whether the current search has already marked `index`.
    #[inline]
    pub(crate) fn is_marked(&self, index: usize) -> bool {
        self.marks[index] == self.epoch
    }

    /// Marks `index`; `true` if the current search had not marked it yet.
    #[inline]
    pub(crate) fn mark(&mut self, index: usize) -> bool {
        if self.is_marked(index) {
            false
        } else {
            self.marks[index] = self.epoch;
            true
        }
    }
}

/// Configuration for sampling a [`WorldCollection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldsConfig {
    /// Number of live-edge worlds (Monte-Carlo samples).
    pub num_worlds: usize,
    /// Base world seed; world `i` draws its keyed coins from `seed + i`, so
    /// collections can be extended deterministically and parallel sampling
    /// is order-independent. A pool therefore spans the world seeds
    /// `[seed, seed + num_worlds)` (wrapping), the same worlds a
    /// [`crate::MonteCarloEstimator`] with this `seed` and `samples = num_worlds`
    /// walks; a held-out re-score of seeds chosen on this pool needs a
    /// disjoint range.
    pub seed: u64,
}

impl Default for WorldsConfig {
    fn default() -> Self {
        // 200 samples is the paper's default for the synthetic experiments.
        WorldsConfig { num_worlds: 200, seed: 0 }
    }
}

/// The live-edge model a [`WorldCollection`] was drawn under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorldModel {
    IndependentCascade,
    LinearThreshold,
}

/// A fixed collection of live-edge worlds sampled from one graph.
#[derive(Debug, Clone)]
pub struct WorldCollection {
    worlds: Vec<LiveEdgeWorld>,
    num_nodes: usize,
    seed: u64,
    model: WorldModel,
}

impl WorldCollection {
    /// Samples `config.num_worlds` worlds from `graph` under the independent
    /// cascade model; world `i` uses the world seed `config.seed + i`
    /// ([`LiveEdgeWorld::sample`]).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::NoSamples`] when `num_worlds` is zero.
    pub fn sample(graph: &Graph, config: &WorldsConfig) -> Result<Self> {
        Self::draw(graph, config, WorldModel::IndependentCascade, |_, world_seed| {
            LiveEdgeWorld::sample(graph, world_seed)
        })
    }

    /// Samples `config.num_worlds` worlds from `graph` under the linear
    /// threshold model (each node keeps at most one incoming live edge,
    /// chosen with probability proportional to its normalised LT weight);
    /// see [`LiveEdgeWorld::sample_lt`].
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::NoSamples`] when `num_worlds` is zero.
    pub fn sample_lt(
        graph: &Graph,
        weights: &crate::lt::LtWeights,
        config: &WorldsConfig,
    ) -> Result<Self> {
        Self::draw(graph, config, WorldModel::LinearThreshold, |_, world_seed| {
            LiveEdgeWorld::sample_lt(graph, weights, world_seed)
        })
    }

    /// The one construction path: world `i` is `world(i, config.seed + i)`.
    /// World `i` depends only on its own seed, so the parallel map (under the
    /// ambient thread count) is trivially identical to the serial loop
    /// (collect preserves order).
    fn draw(
        graph: &Graph,
        config: &WorldsConfig,
        model: WorldModel,
        world: impl Fn(usize, u64) -> LiveEdgeWorld + Sync,
    ) -> Result<Self> {
        if config.num_worlds == 0 {
            return Err(DiffusionError::NoSamples);
        }
        let worlds = (0..config.num_worlds)
            .into_par_iter()
            .map(|i| world(i, config.seed.wrapping_add(i as u64)))
            .collect();
        Ok(WorldCollection { worlds, num_nodes: graph.num_nodes(), seed: config.seed, model })
    }

    /// Patches an independent-cascade collection onto a mutated graph:
    /// `graph` is the collection's graph with the edges `edited`
    /// (`(source, target)` pairs) changed. In every world only the rows of
    /// the edited sources are re-drawn from their keyed coins; each run of
    /// untouched rows between them is copied as one span, its offsets
    /// shifted. Because the coins are pure functions of `(seed + i, u, v)`,
    /// the result is bitwise-identical to [`WorldCollection::sample`] on the
    /// new graph — patching is a latency optimisation, never a semantic one.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::NoSamples`] when `config.num_worlds` is
    /// zero, or [`DiffusionError::InvalidParameter`] when the collection was
    /// built for a different node count, world count or seed (re-drawing
    /// under another seed would splice two seeds' coins), or under the
    /// linear threshold model (whose per-target picks a source row cannot
    /// re-draw).
    pub fn patch(
        &self,
        graph: &Graph,
        edited: &[(NodeId, NodeId)],
        config: &WorldsConfig,
    ) -> Result<Self> {
        if config.num_worlds == 0 {
            return Err(DiffusionError::NoSamples);
        }
        let invalid = |message: String| Err(DiffusionError::InvalidParameter { message });
        if self.num_nodes != graph.num_nodes() || self.worlds.len() != config.num_worlds {
            return invalid(format!(
                "cannot patch a {}-world collection over {} nodes onto a graph with {} nodes \
                 and a config asking for {} worlds",
                self.worlds.len(),
                self.num_nodes,
                graph.num_nodes(),
                config.num_worlds
            ));
        }
        if self.seed != config.seed {
            return invalid(format!(
                "cannot patch a collection sampled with seed {} under seed {}",
                self.seed, config.seed
            ));
        }
        if self.model != WorldModel::IndependentCascade {
            return invalid(
                "cannot patch a linear-threshold collection: its picks are keyed by target node"
                    .to_string(),
            );
        }
        let n = graph.num_nodes();
        let mut sources: Vec<u32> =
            edited.iter().filter(|(s, _)| s.index() < n).map(|(s, _)| s.0).collect();
        sources.sort_unstable();
        sources.dedup();
        Self::draw(graph, config, self.model, |i, world_seed| {
            let old = &self.worlds[i];
            let mut offsets = Vec::with_capacity(n + 1);
            let mut targets = Vec::with_capacity(old.targets.len() + sources.len());
            offsets.push(0u32);
            let mut next = 0;
            for &s in &sources {
                let span = copy_span(&old.offsets, next..s as usize, &mut offsets);
                targets.extend_from_slice(&old.targets[span]);
                targets.extend(live_ic_row(graph, s, world_seed));
                // Never truncates: a world holds at most the graph's edges,
                // whose count `Graph` keeps within `u32`.
                offsets.push(targets.len() as u32);
                next = s as usize + 1;
            }
            let span = copy_span(&old.offsets, next..n, &mut offsets);
            targets.extend_from_slice(&old.targets[span]);
            LiveEdgeWorld { offsets, targets }
        })
    }

    /// Number of worlds in the collection.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// Returns `true` if there are no worlds (never the case for sampled
    /// collections).
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The individual worlds.
    pub fn worlds(&self) -> &[LiveEdgeWorld] {
        &self.worlds
    }

    /// Mean number of live edges per world.
    pub fn mean_live_edges(&self) -> f64 {
        if self.worlds.is_empty() {
            return 0.0;
        }
        self.worlds.iter().map(|w| w.num_live_edges() as f64).sum::<f64>()
            / self.worlds.len() as f64
    }

    /// Approximate resident heap bytes of the whole collection — the sum of
    /// its worlds' CSR arrays, which is the dominant allocation of the
    /// serving tier. Deterministic (lengths, not capacities), so the
    /// service-layer cache can budget collections with it.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Vec<LiveEdgeWorld>>()
            + self.worlds.iter().map(LiveEdgeWorld::approx_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelismConfig;
    use proptest::prelude::*;
    use tcim_graph::{GraphBuilder, GroupId};

    fn path(p: f64) -> Graph {
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes(4, GroupId(0));
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], p).unwrap();
        }
        b.build().unwrap()
    }

    /// Two incoming edges into node 2, each normalised to LT weight 0.5.
    fn lt_fan_in() -> Graph {
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes(3, GroupId(0));
        b.add_edge(nodes[0], nodes[2], 0.9).unwrap();
        b.add_edge(nodes[1], nodes[2], 0.9).unwrap();
        b.build().unwrap()
    }

    fn assert_worlds_bitwise_eq(a: &WorldCollection, b: &WorldCollection) {
        assert_eq!(a.len(), b.len());
        for (wa, wb) in a.worlds().iter().zip(b.worlds()) {
            assert_eq!(wa.offsets, wb.offsets);
            assert_eq!(wa.targets, wb.targets);
        }
    }

    #[test]
    fn probability_one_world_keeps_every_edge() {
        let g = path(1.0);
        let world = LiveEdgeWorld::sample(&g, 0);
        assert_eq!(world.num_live_edges(), 3);
        assert_eq!(world.num_nodes(), 4);
        assert_eq!(world.out_neighbors(NodeId(0)), &[1]);
    }

    #[test]
    fn probability_zero_world_keeps_no_edge() {
        let g = path(0.0);
        let world = LiveEdgeWorld::sample(&g, 0);
        assert_eq!(world.num_live_edges(), 0);
    }

    /// [`bounded_bfs`] from node 0 over `world`'s stored live rows.
    fn bfs_from_zero(
        world: &LiveEdgeWorld,
        deadline: Deadline,
        scratch: &mut VisitScratch,
        visit: impl FnMut(NodeId, u32) -> bool,
    ) {
        let row = |v| world.out_neighbors(NodeId(v)).iter().copied();
        bounded_bfs(world.num_nodes(), &[NodeId(0)], deadline, scratch, row, visit);
    }

    #[test]
    fn bounded_bfs_respects_the_deadline() {
        let g = path(1.0);
        let world = LiveEdgeWorld::sample(&g, 0);
        let mut scratch = VisitScratch::new(world.num_nodes());
        let mut reached = |deadline| {
            let mut count = 0;
            bfs_from_zero(&world, deadline, &mut scratch, |_, _| {
                count += 1;
                true
            });
            count
        };
        assert_eq!(reached(Deadline::finite(2)), 3);
        assert_eq!(reached(Deadline::unbounded()), 4);
        assert_eq!(reached(Deadline::finite(0)), 1);
    }

    #[test]
    fn bfs_reports_hop_counts() {
        let g = path(1.0);
        let world = LiveEdgeWorld::sample(&g, 0);
        let mut scratch = VisitScratch::new(world.num_nodes());
        let mut hops = vec![u32::MAX; 4];
        bfs_from_zero(&world, Deadline::unbounded(), &mut scratch, |n, h| {
            hops[n.index()] = h;
            true
        });
        assert_eq!(hops, vec![0, 1, 2, 3]);
    }

    #[test]
    fn declined_nodes_are_reached_but_not_expanded() {
        let g = path(1.0);
        let world = LiveEdgeWorld::sample(&g, 0);
        let mut scratch = VisitScratch::new(world.num_nodes());
        let mut reached = Vec::new();
        bfs_from_zero(&world, Deadline::unbounded(), &mut scratch, |n, _| {
            reached.push(n.0);
            n.0 != 1
        });
        assert_eq!(reached, vec![0, 1]);
        reached.clear();
        bfs_from_zero(&world, Deadline::unbounded(), &mut scratch, |n, _| {
            reached.push(n.0);
            false
        });
        assert_eq!(reached, vec![0]);
    }

    #[test]
    fn scratch_epochs_avoid_stale_marks() {
        let g = path(1.0);
        let world = LiveEdgeWorld::sample(&g, 0);
        let mut scratch = VisitScratch::new(world.num_nodes());
        let mut first = 0;
        bfs_from_zero(&world, Deadline::unbounded(), &mut scratch, |_, _| {
            first += 1;
            true
        });
        let mut second = 0;
        bfs_from_zero(&world, Deadline::unbounded(), &mut scratch, |_, _| {
            second += 1;
            true
        });
        assert_eq!(first, 4);
        assert_eq!(second, 4);
    }

    #[test]
    fn from_edges_builds_a_valid_csr_view() {
        let world = LiveEdgeWorld::from_edges(4, vec![(2, 0), (0, 1), (0, 3)]);
        assert_eq!(world.num_nodes(), 4);
        assert_eq!(world.num_live_edges(), 3);
        assert_eq!(world.out_neighbors(NodeId(0)), &[1, 3]);
        assert_eq!(world.out_neighbors(NodeId(1)), &[] as &[u32]);
        assert_eq!(world.out_neighbors(NodeId(2)), &[0]);
    }

    #[test]
    fn reversed_worlds_list_in_neighbours() {
        let edges = vec![(2, 0), (0, 1), (0, 3), (3, 1), (1, 1)];
        let world = LiveEdgeWorld::from_edges(4, edges.clone());
        let reverse = world.reversed();
        assert_eq!(reverse.num_live_edges(), 5);
        assert_eq!(reverse.out_neighbors(NodeId(0)), &[2]);
        assert_eq!(reverse.out_neighbors(NodeId(1)), &[0, 1, 3]);
        assert_eq!(reverse.out_neighbors(NodeId(2)), &[] as &[u32]);
        assert_eq!(reverse.out_neighbors(NodeId(3)), &[0]);
        let turned = edges.into_iter().map(|(u, v)| (v, u)).collect();
        assert_eq!(reverse, LiveEdgeWorld::from_edges(4, turned));
        assert_eq!(reverse.reversed(), world);
    }

    #[test]
    fn lt_worlds_keep_at_most_one_in_edge_per_node() {
        let g = lt_fan_in();
        let weights = crate::lt::LtWeights::from_graph(&g);
        for seed in 0..50 {
            let world = LiveEdgeWorld::sample_lt(&g, &weights, seed);
            let in_degree_of_2 = world.out_neighbors(NodeId(0)).contains(&2) as usize
                + world.out_neighbors(NodeId(1)).contains(&2) as usize;
            assert!(in_degree_of_2 <= 1);
        }
    }

    #[test]
    fn lt_world_collections_are_deterministic() {
        let g = lt_fan_in();
        let weights = crate::lt::LtWeights::from_graph(&g);
        let cfg = WorldsConfig { num_worlds: 12, seed: 5 };
        let a = WorldCollection::sample_lt(&g, &weights, &cfg).unwrap();
        let b = ParallelismConfig::fixed(1)
            .run(|| WorldCollection::sample_lt(&g, &weights, &cfg))
            .unwrap();
        assert_eq!(a.len(), 12);
        assert_worlds_bitwise_eq(&a, &b);
        assert!(matches!(
            WorldCollection::sample_lt(&g, &weights, &WorldsConfig { num_worlds: 0, seed: 0 }),
            Err(DiffusionError::NoSamples)
        ));
    }

    #[test]
    fn world_collection_is_deterministic_and_validates_size() {
        let g = path(0.5);
        let cfg = WorldsConfig { num_worlds: 16, seed: 9 };
        let a = WorldCollection::sample(&g, &cfg).unwrap();
        let b = WorldCollection::sample(&g, &cfg).unwrap();
        assert_eq!(a.len(), 16);
        assert_eq!(a.num_nodes(), 4);
        assert!(!a.is_empty());
        assert_worlds_bitwise_eq(&a, &b);
        assert!(a.mean_live_edges() >= 0.0 && a.mean_live_edges() <= 3.0);
        assert!(matches!(
            WorldCollection::sample(&g, &WorldsConfig { num_worlds: 0, seed: 0 }),
            Err(DiffusionError::NoSamples)
        ));
    }

    #[test]
    fn keyed_sampling_is_deterministic_and_independent_of_thread_count() {
        let g = path(0.5);
        let cfg = WorldsConfig { num_worlds: 16, seed: 9 };
        let a = WorldCollection::sample(&g, &cfg).unwrap();
        let b = ParallelismConfig::fixed(1).run(|| WorldCollection::sample(&g, &cfg)).unwrap();
        assert_worlds_bitwise_eq(&a, &b);
        // World `i` is keyed by `seed + i` alone.
        for (i, world) in a.worlds().iter().enumerate() {
            let alone = LiveEdgeWorld::sample(&g, cfg.seed + i as u64);
            assert_eq!(world.offsets, alone.offsets);
            assert_eq!(world.targets, alone.targets);
        }
    }

    #[test]
    fn keyed_lt_worlds_keep_at_most_one_in_edge_and_match_patchless_rebuild() {
        let g = lt_fan_in();
        let weights = crate::lt::LtWeights::from_graph(&g);
        let cfg = WorldsConfig { num_worlds: 50, seed: 5 };
        let worlds = WorldCollection::sample_lt(&g, &weights, &cfg).unwrap();
        for (i, world) in worlds.worlds().iter().enumerate() {
            let in_degree_of_2 = world.out_neighbors(NodeId(0)).contains(&2) as usize
                + world.out_neighbors(NodeId(1)).contains(&2) as usize;
            assert!(in_degree_of_2 <= 1);
            let alone = LiveEdgeWorld::sample_lt(&g, &weights, cfg.seed + i as u64);
            assert_eq!(world.offsets, alone.offsets);
            assert_eq!(world.targets, alone.targets);
        }
    }

    #[test]
    fn live_edge_fraction_tracks_probability() {
        // 200-edge star with p = 0.3: each world keeps ~60 edges.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(GroupId(0));
        let leaves = b.add_nodes(200, GroupId(0));
        for &leaf in &leaves {
            b.add_edge(hub, leaf, 0.3).unwrap();
        }
        let g = b.build().unwrap();
        let worlds =
            WorldCollection::sample(&g, &WorldsConfig { num_worlds: 100, seed: 4 }).unwrap();
        let mean = worlds.mean_live_edges();
        assert!((mean - 60.0).abs() < 6.0, "mean live edges {mean}");
    }

    /// Hoeffding half-width for `checks` frequency estimates over `trials`
    /// Bernoulli draws each: by a union bound, a correct sampler leaves every
    /// estimate within it of its mean with probability at least `1 − 1e-9`,
    /// whatever the seed.
    fn hoeffding_half_width(trials: usize, checks: usize) -> f64 {
        ((2.0 * checks as f64 / 1e-9).ln() / (2.0 * trials as f64)).sqrt()
    }

    #[test]
    fn keyed_ic_coins_match_edge_probabilities_and_pair_independently() {
        // A fan-out (0 → 1..=4), a fan-in (5..=8 → 9) and a reverse pair
        // 10 ⇄ 11, every edge with its own probability.
        let mut b = GraphBuilder::new();
        let n = b.add_nodes(12, GroupId(0));
        let mut edges = Vec::new();
        for (k, &leaf) in n[1..=4].iter().enumerate() {
            edges.push((n[0], leaf, 0.15 + 0.2 * k as f64));
        }
        for (k, &source) in n[5..=8].iter().enumerate() {
            edges.push((source, n[9], 0.1 + 0.25 * k as f64));
        }
        edges.push((n[10], n[11], 0.3));
        edges.push((n[11], n[10], 0.6));
        for &(u, v, p) in &edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let trials = 20_000;
        let worlds =
            WorldCollection::sample(&g, &WorldsConfig { num_worlds: trials, seed: 31 }).unwrap();
        let live = |w: &LiveEdgeWorld, u: NodeId, v: NodeId| w.out_neighbors(u).contains(&v.0);
        let eps = hoeffding_half_width(trials, edges.len() + 1);
        for &(u, v, p) in &edges {
            let hits = worlds.worlds().iter().filter(|w| live(w, u, v)).count();
            let freq = hits as f64 / trials as f64;
            assert!((freq - p).abs() < eps, "edge {u:?}->{v:?}: frequency {freq} vs p {p}");
        }
        let both = worlds
            .worlds()
            .iter()
            .filter(|w| live(w, n[10], n[11]) && live(w, n[11], n[10]))
            .count();
        let joint = both as f64 / trials as f64;
        assert!((joint - 0.3 * 0.6).abs() < eps, "reverse pair joint frequency {joint}");
    }

    #[test]
    fn keyed_lt_picks_match_normalised_weights() {
        // Node 3's in-weights sum to 0.6 (kept raw, so 0.4 no-pick mass);
        // node 7's sum to 2.0 and normalise to 0.45 / 0.30 / 0.25.
        let mut b = GraphBuilder::new();
        let n = b.add_nodes(8, GroupId(0));
        for (&u, p) in n[0..3].iter().zip([0.1, 0.2, 0.3]) {
            b.add_edge(u, n[3], p).unwrap();
        }
        for (&u, p) in n[4..7].iter().zip([0.9, 0.6, 0.5]) {
            b.add_edge(u, n[7], p).unwrap();
        }
        let g = b.build().unwrap();
        let weights = crate::lt::LtWeights::from_graph(&g);
        let trials = 20_000;
        let worlds = WorldCollection::sample_lt(
            &g,
            &weights,
            &WorldsConfig { num_worlds: trials, seed: 47 },
        )
        .unwrap();
        let eps = hoeffding_half_width(trials, 8);
        for target in [n[3], n[7]] {
            let in_edges = weights.in_edges(target);
            let mut picked = 0;
            for &(u, w) in in_edges {
                let hits = worlds
                    .worlds()
                    .iter()
                    .filter(|x| x.out_neighbors(u).contains(&target.0))
                    .count();
                picked += hits;
                let freq = hits as f64 / trials as f64;
                assert!((freq - w).abs() < eps, "pick {u:?}->{target:?}: {freq} vs weight {w}");
            }
            let none = 1.0 - picked as f64 / trials as f64;
            let expected = 1.0 - in_edges.iter().map(|&(_, w)| w).sum::<f64>();
            assert!(
                (none - expected).abs() < eps,
                "no-pick mass of {target:?}: {none} vs {expected}"
            );
        }
    }

    #[test]
    fn patch_matches_a_cold_keyed_rebuild_after_each_mutation_kind() {
        use tcim_graph::MutationOp;
        let g = path(0.5);
        let cfg = WorldsConfig { num_worlds: 24, seed: 7 };
        let base = WorldCollection::sample(&g, &cfg).unwrap();
        let cases = [
            MutationOp::AddEdge { source: NodeId(0), target: NodeId(2), probability: 0.6 },
            MutationOp::RemoveEdge { source: NodeId(1), target: NodeId(2) },
            MutationOp::Reweight { source: NodeId(2), target: NodeId(3), probability: 0.05 },
        ];
        for op in cases {
            let mutated = g.apply(&[op]).unwrap();
            let patched = base.patch(&mutated, &[op.endpoints()], &cfg).unwrap();
            let cold = WorldCollection::sample(&mutated, &cfg).unwrap();
            assert_worlds_bitwise_eq(&patched, &cold);
        }
    }

    #[test]
    fn patch_rejects_mismatched_shapes() {
        let g = path(0.5);
        let cfg = WorldsConfig { num_worlds: 8, seed: 3 };
        let base = WorldCollection::sample(&g, &cfg).unwrap();
        let wrong_count = WorldsConfig { num_worlds: 9, seed: 3 };
        assert!(matches!(
            base.patch(&g, &[], &wrong_count),
            Err(DiffusionError::InvalidParameter { .. })
        ));
        assert!(matches!(
            base.patch(&g, &[], &WorldsConfig { num_worlds: 0, seed: 3 }),
            Err(DiffusionError::NoSamples)
        ));
        let mut b = GraphBuilder::new();
        b.add_nodes(5, GroupId(0));
        let bigger = b.build().unwrap();
        assert!(base.patch(&bigger, &[], &cfg).is_err());
    }

    #[test]
    fn patch_rejects_a_config_with_another_seed() {
        let g = path(0.5);
        let cfg = WorldsConfig { num_worlds: 8, seed: 3 };
        let base = WorldCollection::sample(&g, &cfg).unwrap();
        let reseeded = WorldsConfig { seed: 4, ..cfg };
        let err = base.patch(&g, &[(NodeId(0), NodeId(1))], &reseeded).unwrap_err();
        assert!(matches!(err, DiffusionError::InvalidParameter { .. }), "{err:?}");
        assert!(err.to_string().contains("seed 3"), "{err}");
    }

    #[test]
    fn patch_rejects_linear_threshold_collections() {
        let g = lt_fan_in();
        let weights = crate::lt::LtWeights::from_graph(&g);
        let cfg = WorldsConfig { num_worlds: 8, seed: 3 };
        let base = WorldCollection::sample_lt(&g, &weights, &cfg).unwrap();
        let err = base.patch(&g, &[(NodeId(0), NodeId(2))], &cfg).unwrap_err();
        assert!(matches!(err, DiffusionError::InvalidParameter { .. }), "{err:?}");
        assert!(err.to_string().contains("linear-threshold"), "{err}");
    }

    /// The `(node, hop)` calls of a search that goes level by level: each
    /// hop's frontier is expanded in full, in order, into the next one, and
    /// a node `visit` declines is reached but never expanded.
    fn level_by_level(
        world: &LiveEdgeWorld,
        sources: &[NodeId],
        deadline: Deadline,
        declined: &[bool],
    ) -> Vec<(u32, u32)> {
        let n = world.num_nodes();
        let mut seen = vec![false; n];
        let mut calls = Vec::new();
        let mut frontier = Vec::new();
        for s in sources.iter().filter(|s| s.index() < n) {
            if !std::mem::replace(&mut seen[s.index()], true) {
                calls.push((s.0, 0));
                if !declined[s.index()] {
                    frontier.push(s.0);
                }
            }
        }
        let mut hops = 1;
        while !frontier.is_empty() && deadline.allows(hops) {
            let mut next = Vec::new();
            for &v in &frontier {
                for &w in world.out_neighbors(NodeId(v)) {
                    if !std::mem::replace(&mut seen[w as usize], true) {
                        calls.push((w, hops));
                        if !declined[w as usize] {
                            next.push(w);
                        }
                    }
                }
            }
            frontier = next;
            hops += 1;
        }
        calls
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-queue search calls `visit` with the same `(node, hop)`
        /// sequence as a level-by-level one, from several sources (repeated
        /// and out-of-range ones included), with `visit` declining some
        /// nodes, at every deadline edge. One scratch serves every search,
        /// so its queue and marks must not leak between them.
        #[test]
        fn one_queue_visits_as_levels_do(
            (n, edges, declined) in (1usize..40).prop_flat_map(|n| (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..=3 * n),
                proptest::collection::vec((0u8..5).prop_map(|d| d == 0), n),
            )),
            sources in proptest::collection::vec(0u32..48, 0..6),
        ) {
            let world = LiveEdgeWorld::from_edges(n, edges);
            // The first source once more, so every run with one repeats it.
            let sources: Vec<NodeId> = sources.iter().chain(sources.first()).map(|&s| NodeId(s)).collect();
            let deadlines = [0, 1, 2, 5].map(Deadline::finite);
            let mut scratch = VisitScratch::new(0);
            for deadline in deadlines.into_iter().chain([Deadline::unbounded()]) {
                let mut calls = Vec::new();
                let row = |v| world.out_neighbors(NodeId(v)).iter().copied();
                bounded_bfs(n, &sources, deadline, &mut scratch, row, |node, hops| {
                    calls.push((node.0, hops));
                    !declined[node.index()]
                });
                let expected = level_by_level(&world, &sources, deadline, &declined);
                prop_assert_eq!(calls, expected);
            }
        }
    }
}
