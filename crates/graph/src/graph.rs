//! Compressed sparse row (CSR) directed graph with node groups and per-edge
//! activation probabilities.
//!
//! The influence-propagation hot loops (Monte-Carlo cascades, live-edge BFS)
//! only ever need "iterate over the out-neighbours of `v` together with the
//! activation probability of each edge". A CSR layout keeps that access
//! pattern contiguous in memory: row `v` of a [`Rows`] is one slice of
//! `(target, probability)` pairs. The rows are chunked into copy-on-write
//! blocks, so a mutation copies only the blocks it edits.

use std::sync::Arc;

use crate::error::{GraphError, Result};
use crate::ids::{GroupId, NodeId};
use crate::rows::Rows;

/// A directed edge during graph assembly: `(source, target, probability)`.
pub type EdgeRecord = (NodeId, NodeId, f64);

/// One deterministic graph mutation, applied by [`Graph::apply`].
///
/// Mutations never add or remove nodes: the node set (and therefore the
/// group assignment) is fixed at build time, which is what makes incremental
/// sketch refresh sound — a reverse-reachable sketch whose nodes never touch
/// a mutated edge replays the exact same RNG trajectory on the new graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MutationOp {
    /// Insert the directed edge `source → target` with `probability`.
    /// Fails if the edge already exists or is a self-loop.
    AddEdge {
        /// Edge source.
        source: NodeId,
        /// Edge target.
        target: NodeId,
        /// Activation probability in `[0, 1]`.
        probability: f64,
    },
    /// Delete the directed edge `source → target`. Fails if absent.
    RemoveEdge {
        /// Edge source.
        source: NodeId,
        /// Edge target.
        target: NodeId,
    },
    /// Replace the activation probability of the existing directed edge
    /// `source → target`. Fails if the edge is absent.
    Reweight {
        /// Edge source.
        source: NodeId,
        /// Edge target.
        target: NodeId,
        /// New activation probability in `[0, 1]`.
        probability: f64,
    },
}

impl MutationOp {
    /// The `(source, target)` endpoints the mutation touches.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            MutationOp::AddEdge { source, target, .. }
            | MutationOp::RemoveEdge { source, target }
            | MutationOp::Reweight { source, target, .. } => (source, target),
        }
    }

    /// The protocol name of the mutation kind.
    pub fn label(&self) -> &'static str {
        match self {
            MutationOp::AddEdge { .. } => "add",
            MutationOp::RemoveEdge { .. } => "remove",
            MutationOp::Reweight { .. } => "reweight",
        }
    }
}

/// A directed graph in CSR form with disjoint node groups and per-edge
/// influence (activation) probabilities, as used by the independent-cascade
/// model of Kempe et al. and the time-critical variant of Chen et al.
///
/// The out-rows are a copy-on-write [`Rows`]: a graph derived by
/// [`Graph::apply`] shares every untouched block of rows, and the node-side
/// state (groups and member lists) with its parent.
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder) or one of the
/// generators in [`crate::generators`].
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Row `v` lists the out-edges of `v` as `(target, probability)`.
    out: Rows<(u32, f64)>,
    /// Group assignment and member lists, fixed at build time and shared by
    /// every mutation of the graph.
    nodes: Arc<NodeGroups>,
    /// Mutation generation: 0 for freshly built graphs, bumped by one on
    /// every [`Graph::apply`]. Part of `PartialEq` on purpose — two graphs
    /// with identical CSR content but different mutation histories are
    /// distinct cache citizens.
    version: u64,
}

/// The node side of a [`Graph`], which mutations never change.
#[derive(Debug, PartialEq)]
struct NodeGroups {
    /// Group membership of each node.
    groups: Vec<GroupId>,
    /// Number of distinct groups (`max(groups) + 1`, or 1 for an empty graph).
    num_groups: usize,
    /// Cached member lists per group.
    members: Vec<Vec<NodeId>>,
}

impl NodeGroups {
    fn new(groups: Vec<GroupId>) -> Self {
        let num_groups = groups.iter().map(|g| g.index() + 1).max().unwrap_or(1);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_groups];
        for (idx, group) in groups.iter().enumerate() {
            members[group.index()].push(NodeId::from_index(idx));
        }
        NodeGroups { groups, num_groups, members }
    }
}

impl Graph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// This is the low-level constructor used by [`GraphBuilder`]; prefer the
    /// builder in application code.
    ///
    /// # Errors
    ///
    /// Returns an error if the arrays are inconsistent, a probability is
    /// outside `[0, 1]`, or an edge target is out of bounds.
    ///
    /// [`GraphBuilder`]: crate::GraphBuilder
    pub fn from_csr(
        offsets: Vec<u32>,
        targets: Vec<u32>,
        probabilities: Vec<f64>,
        groups: Vec<GroupId>,
    ) -> Result<Self> {
        let num_nodes = groups.len();
        if num_nodes > u32::MAX as usize {
            return Err(GraphError::TooManyNodes { requested: num_nodes });
        }
        if offsets.len() != num_nodes + 1 {
            return Err(GraphError::InvalidParameter {
                message: format!(
                    "offsets length {} does not match node count {} + 1",
                    offsets.len(),
                    num_nodes
                ),
            });
        }
        if targets.len() != probabilities.len() {
            return Err(GraphError::InvalidParameter {
                message: format!(
                    "targets length {} does not match probabilities length {}",
                    targets.len(),
                    probabilities.len()
                ),
            });
        }
        if offsets.first().copied().unwrap_or(0) != 0
            || offsets.last().copied().unwrap_or(0) as usize != targets.len()
        {
            return Err(GraphError::InvalidParameter {
                message: "offsets must start at 0 and end at the edge count".to_string(),
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidParameter {
                message: "offsets must be non-decreasing".to_string(),
            });
        }
        for &t in &targets {
            if t as usize >= num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: t, num_nodes });
            }
        }
        for &p in &probabilities {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(GraphError::InvalidProbability { value: p });
            }
        }
        let out = Rows::from_fn(num_nodes, |v, row| {
            let span = offsets[v] as usize..offsets[v + 1] as usize;
            row.extend(
                targets[span.clone()].iter().copied().zip(probabilities[span].iter().copied()),
            );
        });
        Ok(Graph { out, nodes: Arc::new(NodeGroups::new(groups)), version: 0 })
    }

    /// Mutation generation of this graph: 0 for freshly built graphs,
    /// incremented by every [`Graph::apply`]. Monotonically increasing along
    /// any mutation chain, so version-keyed caches never serve stale state.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies a batch of [`MutationOp`]s, producing a new graph with
    /// `version() + 1`. The receiver is untouched (mutation is functional:
    /// estimators holding the old graph behind an `Arc` keep a consistent
    /// snapshot).
    ///
    /// Ops apply in order, each against the result of the previous one. The
    /// node set, group assignment and CSR row ordering are preserved:
    /// inserted edges land at their target-sorted position within the
    /// source's row, so a graph built by `GraphBuilder` (whose rows are
    /// target-sorted and parallel-edge-free) stays canonical — applying
    /// `AddEdge` yields byte-for-byte the CSR a from-scratch rebuild with
    /// the extra edge would produce.
    ///
    /// Cost follows the edit, not the graph: only the rows of the batch's
    /// source nodes are expanded and edited, and only the blocks of rows
    /// holding them are rebuilt. Every other block of out-rows, and the
    /// node groups, are shared with `self`.
    ///
    /// # Errors
    ///
    /// Returns an error (and leaves no partial state) if any op names an
    /// out-of-bounds node, a self-loop, a probability outside `[0, 1]`, adds
    /// an edge that already exists, or removes/reweights one that does not,
    /// or if the result would hold more than `u32::MAX` edges.
    pub fn apply(&self, ops: &[MutationOp]) -> Result<Self> {
        let n = self.num_nodes();
        let check = |node: NodeId| -> Result<usize> {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfBounds { node: node.0, num_nodes: n });
            }
            Ok(node.index())
        };
        let check_p = |p: f64| -> Result<f64> {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(GraphError::InvalidProbability { value: p });
            }
            Ok(p)
        };
        // The edited rows, sorted by source: a row is expanded the first
        // time an op names its source, then edited in place.
        let mut rows: Vec<(usize, Vec<(u32, f64)>)> = Vec::new();
        for op in ops {
            let (source, target) = op.endpoints();
            let (s, t) = (check(source)?, check(target)?);
            let slot = rows.binary_search_by_key(&s, |&(v, _)| v).unwrap_or_else(|slot| {
                rows.insert(slot, (s, self.out.row(s).to_vec()));
                slot
            });
            let row = &mut rows[slot].1;
            let hit = row.iter().position(|&(w, _)| w == target.0);
            match *op {
                MutationOp::AddEdge { probability, .. } => {
                    if s == t {
                        return Err(GraphError::InvalidParameter {
                            message: format!("cannot add self-loop {source:?} -> {target:?}"),
                        });
                    }
                    let p = check_p(probability)?;
                    if hit.is_some() {
                        return Err(GraphError::InvalidParameter {
                            message: format!("edge {source:?} -> {target:?} already exists"),
                        });
                    }
                    let at = row.iter().position(|&(w, _)| w > target.0).unwrap_or(row.len());
                    row.insert(at, (target.0, p));
                }
                MutationOp::RemoveEdge { .. } => {
                    let Some(at) = hit else {
                        return Err(GraphError::InvalidParameter {
                            message: format!("edge {source:?} -> {target:?} does not exist"),
                        });
                    };
                    // Builder-built graphs carry no parallel edges, but a raw
                    // from_csr graph may: remove every copy.
                    row.remove(at);
                    row.retain(|&(w, _)| w != target.0);
                }
                MutationOp::Reweight { probability, .. } => {
                    if hit.is_none() {
                        return Err(GraphError::InvalidParameter {
                            message: format!("edge {source:?} -> {target:?} does not exist"),
                        });
                    }
                    let p = check_p(probability)?;
                    for slot in row.iter_mut().filter(|(w, _)| *w == target.0) {
                        slot.1 = p;
                    }
                }
            }
        }
        let edges = rows.iter().fold(self.num_edges(), |e, (s, row)| {
            e - self.out_degree(NodeId::from_index(*s)) + row.len()
        });
        if edges > u32::MAX as usize {
            return Err(GraphError::InvalidParameter {
                message: "mutation would grow the graph past u32::MAX edges".to_string(),
            });
        }
        let out = self.out.replaced(rows.iter().map(|(s, row)| (*s, row)), |row, _, out| {
            out.extend_from_slice(row);
        });
        Ok(Graph { out, nodes: Arc::clone(&self.nodes), version: self.version + 1 })
    }

    /// [`Graph::apply`] with a single [`MutationOp::AddEdge`].
    ///
    /// # Errors
    ///
    /// See [`Graph::apply`].
    pub fn add_edge(&self, source: NodeId, target: NodeId, probability: f64) -> Result<Self> {
        self.apply(&[MutationOp::AddEdge { source, target, probability }])
    }

    /// [`Graph::apply`] with a single [`MutationOp::RemoveEdge`].
    ///
    /// # Errors
    ///
    /// See [`Graph::apply`].
    pub fn remove_edge(&self, source: NodeId, target: NodeId) -> Result<Self> {
        self.apply(&[MutationOp::RemoveEdge { source, target }])
    }

    /// [`Graph::apply`] with a single [`MutationOp::Reweight`].
    ///
    /// # Errors
    ///
    /// See [`Graph::apply`].
    pub fn reweight(&self, source: NodeId, target: NodeId, probability: f64) -> Result<Self> {
        self.apply(&[MutationOp::Reweight { source, target, probability }])
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges in the graph.
    ///
    /// An undirected social tie added via
    /// [`GraphBuilder::add_undirected_edge`](crate::GraphBuilder::add_undirected_edge)
    /// counts as two directed edges, matching the paper's modelling convention.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_items()
    }

    /// Number of socially salient groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.nodes.num_groups
    }

    /// Approximate resident heap footprint in bytes, as the logical size of
    /// a flat CSR: `n + 1` `u32` offsets, a `u32` target and an `f64`
    /// probability per edge, the group assignment and the per-group
    /// membership lists, plus one `Vec` header per array. Not allocator
    /// slack, block layout or sharing with other generations, so the
    /// estimate is a deterministic function of the graph itself. The
    /// serving-tier cache budgets graph entries with this.
    pub fn approx_bytes(&self) -> usize {
        let vec_header = std::mem::size_of::<Vec<u8>>();
        let members: usize = self
            .nodes
            .members
            .iter()
            .map(|m| vec_header + m.len() * std::mem::size_of::<NodeId>())
            .sum();
        5 * vec_header
            + (self.num_nodes() + 1) * std::mem::size_of::<u32>()
            + self.num_edges() * std::mem::size_of::<u32>()
            + self.num_edges() * std::mem::size_of::<f64>()
            + self.num_nodes() * std::mem::size_of::<GroupId>()
            + members
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all group ids `0..k`.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.num_groups() as u32).map(GroupId)
    }

    /// Group membership of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds; use [`Graph::try_group_of`] for a
    /// fallible variant.
    #[inline]
    pub fn group_of(&self, node: NodeId) -> GroupId {
        self.nodes.groups[node.index()]
    }

    /// Fallible variant of [`Graph::group_of`].
    pub fn try_group_of(&self, node: NodeId) -> Result<GroupId> {
        self.nodes
            .groups
            .get(node.index())
            .copied()
            .ok_or(GraphError::NodeOutOfBounds { node: node.0, num_nodes: self.num_nodes() })
    }

    /// All nodes belonging to `group`.
    pub fn group_members(&self, group: GroupId) -> Result<&[NodeId]> {
        self.nodes
            .members
            .get(group.index())
            .map(|v| v.as_slice())
            .ok_or(GraphError::GroupOutOfBounds { group: group.0, num_groups: self.num_groups() })
    }

    /// Number of nodes in `group` (0 for unknown groups).
    pub fn group_size(&self, group: GroupId) -> usize {
        self.nodes.members.get(group.index()).map(|v| v.len()).unwrap_or(0)
    }

    /// Sizes of every group, indexed by group id.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.nodes.members.iter().map(|v| v.len()).collect()
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out.row(node.index()).len()
    }

    /// Iterator over `(target, probability)` pairs of the out-edges of `node`.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.out.row(node.index()).iter().map(|&(t, p)| (NodeId(t), p))
    }

    /// Iterator over the out-neighbour ids of `node` (without probabilities).
    #[inline]
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out.row(node.index()).iter().map(|&(t, _)| NodeId(t))
    }

    /// Iterator over all edges as `(source, target, probability)` triples.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRecord> + '_ {
        self.nodes().flat_map(move |v| self.out_edges(v).map(move |(t, p)| (v, t, p)))
    }

    /// Returns a copy of this graph with every edge probability replaced by
    /// `probability`.
    ///
    /// The paper's experiments use a single activation probability `p_e`
    /// shared by all edges; sweeping it (Fig. 5a) is a common operation.
    ///
    /// # Errors
    ///
    /// Returns an error if `probability` is outside `[0, 1]`.
    pub fn with_uniform_probability(&self, probability: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&probability) || probability.is_nan() {
            return Err(GraphError::InvalidProbability { value: probability });
        }
        let out = self.out.map(|&(t, _)| (t, probability));
        Ok(Graph { out, nodes: Arc::clone(&self.nodes), version: self.version })
    }

    /// Returns a copy of this graph with every edge probability replaced by
    /// the weighted-cascade normalization `p(u → v) = 1 / indeg(v)`.
    ///
    /// Weighted cascade is the classic degree-normalized influence model
    /// (high-in-degree nodes are harder to activate through any single tie);
    /// the same normalization is the standard edge-weight choice for the
    /// linear-threshold model, where the weights into every node must sum to
    /// at most one — which `1 / indeg(v)` satisfies exactly.
    pub fn with_weighted_cascade_probabilities(&self) -> Self {
        let mut in_degree = vec![0u64; self.num_nodes()];
        for &(target, _) in self.out.items() {
            in_degree[target as usize] += 1;
        }
        // Every edge's target has in-degree >= 1 by construction.
        let out = self.out.map(|&(t, _)| (t, 1.0 / in_degree[t as usize] as f64));
        Graph { out, nodes: Arc::clone(&self.nodes), version: self.version }
    }

    /// Returns a copy of this graph with the group assignment replaced.
    ///
    /// Used when re-grouping a graph by a clustering algorithm (Appendix C of
    /// the paper groups Facebook-SNAP by spectral clustering) or when loading
    /// node attributes from a separate file.
    ///
    /// # Errors
    ///
    /// Returns an error if `groups.len()` differs from the node count.
    pub fn with_groups(&self, groups: Vec<GroupId>) -> Result<Self> {
        if groups.len() != self.num_nodes() {
            return Err(GraphError::InvalidParameter {
                message: format!(
                    "group assignment has {} entries for {} nodes",
                    groups.len(),
                    self.num_nodes()
                ),
            });
        }
        Ok(Graph { out: self.out.clone(), nodes: Arc::new(NodeGroups::new(groups)), version: 0 })
    }

    /// Total number of directed edges whose endpoints are both in `group`.
    pub fn within_group_edges(&self, group: GroupId) -> usize {
        self.edges()
            .filter(|(s, t, _)| self.group_of(*s) == group && self.group_of(*t) == group)
            .count()
    }

    /// Total number of directed edges whose endpoints are in different groups.
    pub fn across_group_edges(&self) -> usize {
        self.edges().filter(|(s, t, _)| self.group_of(*s) != self.group_of(*t)).count()
    }

    /// Sum of all edge probabilities (expected number of live edges).
    pub fn expected_live_edges(&self) -> f64 {
        self.out.items().map(|&(_, p)| p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(GroupId(0));
        let c = b.add_node(GroupId(0));
        let d = b.add_node(GroupId(1));
        b.add_edge(a, c, 0.5).unwrap();
        b.add_edge(c, d, 0.25).unwrap();
        b.add_edge(d, a, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn csr_counts_are_consistent() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_groups(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn out_edges_report_targets_and_probabilities() {
        let g = triangle();
        let edges: Vec<_> = g.out_edges(NodeId(0)).collect();
        assert_eq!(edges, vec![(NodeId(1), 0.5)]);
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.out_degree(NodeId(2)), 1);
    }

    #[test]
    fn group_membership_queries() {
        let g = triangle();
        assert_eq!(g.group_of(NodeId(0)), GroupId(0));
        assert_eq!(g.group_of(NodeId(2)), GroupId(1));
        assert_eq!(g.group_members(GroupId(0)).unwrap(), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.group_size(GroupId(1)), 1);
        assert_eq!(g.group_sizes(), vec![2, 1]);
        assert!(g.group_members(GroupId(9)).is_err());
    }

    #[test]
    fn edge_iteration_covers_every_edge_once() {
        let g = triangle();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&(NodeId(2), NodeId(0), 1.0)));
    }

    #[test]
    fn uniform_probability_rewrites_all_edges() {
        let g = triangle().with_uniform_probability(0.1).unwrap();
        assert!(g.edges().all(|(_, _, p)| (p - 0.1).abs() < 1e-12));
        assert!(triangle().with_uniform_probability(1.5).is_err());
    }

    #[test]
    fn weighted_cascade_normalizes_by_in_degree() {
        // Add a second edge into node 0 so one target has in-degree 2.
        let mut b = GraphBuilder::new();
        let a = b.add_node(GroupId(0));
        let c = b.add_node(GroupId(0));
        let d = b.add_node(GroupId(1));
        b.add_edge(a, c, 0.5).unwrap();
        b.add_edge(c, a, 0.25).unwrap();
        b.add_edge(d, a, 1.0).unwrap();
        let g = b.build().unwrap().with_weighted_cascade_probabilities();
        let into_a: Vec<f64> = g.edges().filter(|(_, t, _)| *t == a).map(|(_, _, p)| p).collect();
        assert_eq!(into_a, vec![0.5, 0.5], "indeg(a) = 2");
        let into_c: Vec<f64> = g.edges().filter(|(_, t, _)| *t == c).map(|(_, _, p)| p).collect();
        assert_eq!(into_c, vec![1.0], "indeg(c) = 1");
        // Weights into every node sum to at most 1 (the LT admissibility
        // condition the normalization exists to satisfy).
        for v in g.nodes() {
            let sum: f64 = g.edges().filter(|(_, t, _)| *t == v).map(|(_, _, p)| p).sum();
            assert!(sum <= 1.0 + 1e-12, "weights into {v:?} sum to {sum}");
        }
    }

    #[test]
    fn regrouping_validates_length() {
        let g = triangle();
        let regrouped = g.with_groups(vec![GroupId(1), GroupId(1), GroupId(0)]).unwrap();
        assert_eq!(regrouped.group_size(GroupId(1)), 2);
        assert!(g.with_groups(vec![GroupId(0)]).is_err());
    }

    #[test]
    fn from_csr_rejects_inconsistent_arrays() {
        // offsets wrong length
        assert!(
            Graph::from_csr(vec![0, 1], vec![0], vec![0.5], vec![GroupId(0), GroupId(0)]).is_err()
        );
        // target out of bounds
        assert!(Graph::from_csr(vec![0, 1, 1], vec![5], vec![0.5], vec![GroupId(0), GroupId(0)])
            .is_err());
        // bad probability
        assert!(Graph::from_csr(vec![0, 1, 1], vec![1], vec![1.5], vec![GroupId(0), GroupId(0)])
            .is_err());
        // decreasing offsets
        assert!(Graph::from_csr(vec![0, 1, 0], vec![1], vec![0.5], vec![GroupId(0), GroupId(0)])
            .is_err());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Graph::from_csr(vec![0], vec![], vec![], vec![]).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn within_and_across_group_edge_counts() {
        let g = triangle();
        assert_eq!(g.within_group_edges(GroupId(0)), 1); // a -> c
        assert_eq!(g.across_group_edges(), 2); // c -> d, d -> a
    }

    #[test]
    fn expected_live_edges_sums_probabilities() {
        let g = triangle();
        assert!((g.expected_live_edges() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn mutations_bump_the_version_monotonically() {
        let g = triangle();
        assert_eq!(g.version(), 0);
        let g1 = g.add_edge(NodeId(0), NodeId(2), 0.4).unwrap();
        assert_eq!(g1.version(), 1);
        let g2 = g1.reweight(NodeId(0), NodeId(2), 0.9).unwrap();
        assert_eq!(g2.version(), 2);
        let g3 = g2.remove_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g3.version(), 3);
        // The receiver is untouched each time (functional mutation).
        assert_eq!(g.version(), 0);
        assert_eq!(g.num_edges(), 3);
        // A batch of ops is one version step.
        let batch = g
            .apply(&[
                MutationOp::AddEdge { source: NodeId(0), target: NodeId(2), probability: 0.4 },
                MutationOp::RemoveEdge { source: NodeId(0), target: NodeId(2) },
            ])
            .unwrap();
        assert_eq!(batch.version(), 1);
    }

    #[test]
    fn add_edge_matches_a_from_scratch_rebuild() {
        // Mutating a builder-built graph stays canonical: the CSR equals the
        // one a rebuild with the extra edge produces.
        let g = triangle();
        let mutated = g.add_edge(NodeId(0), NodeId(2), 0.4).unwrap();
        let mut b = GraphBuilder::new();
        let a = b.add_node(GroupId(0));
        let c = b.add_node(GroupId(0));
        let d = b.add_node(GroupId(1));
        b.add_edge(a, c, 0.5).unwrap();
        b.add_edge(a, d, 0.4).unwrap();
        b.add_edge(c, d, 0.25).unwrap();
        b.add_edge(d, a, 1.0).unwrap();
        let rebuilt = b.build().unwrap();
        let lhs: Vec<_> = mutated.edges().collect();
        let rhs: Vec<_> = rebuilt.edges().collect();
        assert_eq!(lhs, rhs);
        assert_eq!(mutated.group_sizes(), rebuilt.group_sizes());
    }

    #[test]
    fn a_one_row_apply_shares_every_untouched_block_and_the_groups() {
        use crate::rows::BLOCK_ROWS;
        let n = 4 * BLOCK_ROWS + 3;
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes(n, GroupId(0));
        for (i, &v) in nodes.iter().enumerate() {
            b.add_edge(v, nodes[(i + 1) % n], 0.5).unwrap();
        }
        let g = b.build().unwrap();
        for edited in [0, BLOCK_ROWS - 1, 2 * BLOCK_ROWS, n - 1] {
            let target = NodeId::from_index((edited + 2) % n);
            let mutated = g.add_edge(NodeId::from_index(edited), target, 0.3).unwrap();
            assert!(Arc::ptr_eq(&g.nodes, &mutated.nodes));
            for block in 0..g.out.num_blocks() {
                let shared = mutated.out.shares_block(&g.out, block);
                assert_eq!(shared, block != edited / BLOCK_ROWS, "row {edited}, block {block}");
            }
        }
    }

    #[test]
    fn remove_and_reweight_edit_exactly_one_edge() {
        let g = triangle();
        let removed = g.remove_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(removed.num_edges(), 2);
        assert!(removed.edges().all(|(s, t, _)| (s, t) != (NodeId(1), NodeId(2))));
        let reweighted = g.reweight(NodeId(1), NodeId(2), 0.75).unwrap();
        assert_eq!(reweighted.num_edges(), 3);
        let p = reweighted
            .edges()
            .find(|(s, t, _)| (*s, *t) == (NodeId(1), NodeId(2)))
            .map(|(_, _, p)| p);
        assert_eq!(p, Some(0.75));
        // Other edges keep their exact probabilities.
        assert_eq!(
            reweighted.edges().find(|(s, _, _)| *s == NodeId(0)).map(|(_, _, p)| p),
            Some(0.5)
        );
    }

    #[test]
    fn invalid_mutations_are_rejected_by_name() {
        let g = triangle();
        // Duplicate add, missing remove/reweight, self-loop, bad probability,
        // out-of-bounds node.
        assert!(g.add_edge(NodeId(0), NodeId(1), 0.3).is_err());
        assert!(g.remove_edge(NodeId(0), NodeId(2)).is_err());
        assert!(g.reweight(NodeId(0), NodeId(2), 0.3).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(0), 0.3).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(2), 1.5).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(9), 0.3).is_err());
        assert!(g.remove_edge(NodeId(9), NodeId(0)).is_err());
        // A failing op in a batch leaves no partial result to observe.
        let err = g.apply(&[
            MutationOp::RemoveEdge { source: NodeId(0), target: NodeId(1) },
            MutationOp::RemoveEdge { source: NodeId(0), target: NodeId(1) },
        ]);
        assert!(err.is_err());
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn ops_in_a_batch_apply_in_order() {
        let g = triangle();
        let out = g
            .apply(&[
                MutationOp::AddEdge { source: NodeId(0), target: NodeId(2), probability: 0.1 },
                MutationOp::Reweight { source: NodeId(0), target: NodeId(2), probability: 0.6 },
            ])
            .unwrap();
        let p = out.edges().find(|(s, t, _)| (*s, *t) == (NodeId(0), NodeId(2))).unwrap().2;
        assert_eq!(p, 0.6);
        assert_eq!(
            MutationOp::AddEdge { source: NodeId(0), target: NodeId(2), probability: 0.1 }
                .endpoints(),
            (NodeId(0), NodeId(2))
        );
        for (op, label) in [
            (MutationOp::AddEdge { source: NodeId(0), target: NodeId(2), probability: 0.1 }, "add"),
            (MutationOp::RemoveEdge { source: NodeId(0), target: NodeId(1) }, "remove"),
            (
                MutationOp::Reweight { source: NodeId(0), target: NodeId(1), probability: 0.2 },
                "reweight",
            ),
        ] {
            assert_eq!(op.label(), label);
        }
    }
}
