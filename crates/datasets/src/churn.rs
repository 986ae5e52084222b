//! Deterministic edge-churn sequences — the temporal side of the scenario
//! space.
//!
//! A [`ChurnConfig`] turns any base graph into a reproducible stream of
//! mutation steps: each step is a batch of [`MutationOp`]s that is valid
//! against the graph produced by the previous step (no dangling endpoints,
//! no self-loops, no duplicate parallel edges, removals and reweights only
//! of edges that exist). Steps map one-to-one onto `Graph::apply` calls, so
//! replaying a sequence advances `graph_version` by exactly one per step.
//!
//! The generator is a pure function of `(base graph, ChurnConfig)`: like
//! every generator in this crate it draws from a [`StdRng`] seeded only
//! from configuration, so a churn workload can be named in a test or a
//! benchmark by its config alone and replayed bitwise anywhere. The service
//! layer's differential harness (`crates/service/tests/churn.rs`) leans on
//! this to drive the same mutation stream through an incremental engine and
//! a cold-rebuild engine and compare responses.
//!
//! ```
//! use tcim_datasets::churn::ChurnConfig;
//! use tcim_datasets::scenario::ScenarioSpec;
//!
//! let base = ScenarioSpec::barabasi_albert(60, 2).unwrap().build(7).unwrap();
//! let sequence = ChurnConfig::new(4, 3, 11).generate(&base).unwrap();
//! assert_eq!(sequence.steps.len(), 4);
//! let graphs = sequence.replay(&base).unwrap();
//! assert_eq!(graphs.last().unwrap().version(), 4);
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tcim_graph::{Graph, MutationOp, NodeId, Result};

/// Probability assigned to inserted and reweighted edges: drawn uniformly
/// from this range, bounded away from 0 and 1 so mutated edges neither
/// vanish from nor saturate the live-edge distribution.
const CHURN_PROBABILITY_RANGE: std::ops::Range<f64> = 0.05..0.95;

/// How many random `(source, target)` draws an `add` attempts before the
/// step falls back to reweighting an existing edge (only reachable on
/// near-complete graphs).
const ADD_ATTEMPTS: usize = 64;

/// Shape of a deterministic churn sequence: how many version steps, how
/// many edits per step, and the seed naming the exact edit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Number of mutation steps (each advances `graph_version` by one).
    pub steps: usize,
    /// Number of edge edits bundled into each step.
    pub ops_per_step: usize,
    /// Seed of the edit stream.
    pub seed: u64,
}

impl ChurnConfig {
    /// A config with the given shape.
    pub fn new(steps: usize, ops_per_step: usize, seed: u64) -> ChurnConfig {
        ChurnConfig { steps, ops_per_step, seed }
    }

    /// Generates the churn sequence for `base`.
    ///
    /// Every emitted op is valid at its position: the generator tracks the
    /// evolving edge set, so adds never duplicate an existing edge and
    /// removals/reweights always name a live one. The op-kind mix leans on
    /// the current state — an empty or nearly drained graph only grows.
    ///
    /// # Errors
    ///
    /// Returns an error when the base graph has fewer than two nodes (no
    /// non-self-loop edge can be named) or the config asks for steps with
    /// zero ops.
    pub fn generate(&self, base: &Graph) -> Result<ChurnSequence> {
        let n = base.num_nodes() as u32;
        if n < 2 {
            return Err(tcim_graph::GraphError::InvalidParameter {
                message: format!("churn requires at least 2 nodes, got {n}"),
            });
        }
        if self.steps > 0 && self.ops_per_step == 0 {
            return Err(tcim_graph::GraphError::InvalidParameter {
                message: "churn steps must carry at least one op".to_string(),
            });
        }
        // The evolving edge set: a dense membership check for adds plus a
        // flat list for uniform removal/reweight picks.
        let mut edges: Vec<(u32, u32)> =
            base.edges().map(|(source, target, _)| (source.0, target.0)).collect();
        #[expect(
            clippy::disallowed_types,
            reason = "membership-only edge set: never iterated, so order never escapes"
        )]
        let mut present: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        let mut steps = Vec::with_capacity(self.steps);
        for step in 0..self.steps {
            // One RNG per step, derived from seed + step index (the same
            // `base + index` discipline the diffusion samplers follow), so a
            // prefix of the sequence never depends on how long it runs.
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(step as u64));
            let mut ops = Vec::with_capacity(self.ops_per_step);
            for _ in 0..self.ops_per_step {
                ops.push(next_op(&mut rng, n, &mut edges, &mut present));
            }
            steps.push(ops);
        }
        Ok(ChurnSequence { steps })
    }
}

/// Draws the next valid mutation, updating the tracked edge set.
#[expect(
    clippy::disallowed_types,
    reason = "`present` is the membership-only set `generate` builds"
)]
fn next_op(
    rng: &mut StdRng,
    n: u32,
    edges: &mut Vec<(u32, u32)>,
    present: &mut std::collections::HashSet<(u32, u32)>,
) -> MutationOp {
    // Keep the graph from draining: with two or fewer edges left, only grow.
    let kind = if edges.len() <= 2 { 0 } else { rng.random_range(0u32..3) };
    match kind {
        0 => {
            for _ in 0..ADD_ATTEMPTS {
                let source = rng.random_range(0u32..n);
                let target = rng.random_range(0u32..n);
                if source == target || present.contains(&(source, target)) {
                    continue;
                }
                edges.push((source, target));
                present.insert((source, target));
                return MutationOp::AddEdge {
                    source: NodeId(source),
                    target: NodeId(target),
                    probability: rng.random_range(CHURN_PROBABILITY_RANGE),
                };
            }
            // Near-complete graph: fall back to a reweight (always valid
            // here — a graph this dense has edges to spare).
            let (source, target) = edges[rng.random_range(0..edges.len())];
            MutationOp::Reweight {
                source: NodeId(source),
                target: NodeId(target),
                probability: rng.random_range(CHURN_PROBABILITY_RANGE),
            }
        }
        1 => {
            let at = rng.random_range(0..edges.len());
            let (source, target) = edges.swap_remove(at);
            present.remove(&(source, target));
            MutationOp::RemoveEdge { source: NodeId(source), target: NodeId(target) }
        }
        _ => {
            let (source, target) = edges[rng.random_range(0..edges.len())];
            MutationOp::Reweight {
                source: NodeId(source),
                target: NodeId(target),
                probability: rng.random_range(CHURN_PROBABILITY_RANGE),
            }
        }
    }
}

/// A generated churn sequence: one op batch per version step.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSequence {
    /// The mutation batches, in application order. Batch `i` is valid
    /// against the graph produced by batches `0..i` applied to the base.
    pub steps: Vec<Vec<MutationOp>>,
}

impl ChurnSequence {
    /// Replays the sequence against `base`, returning the graph after each
    /// step (`result[i]` has `version() == base.version() + i + 1`).
    ///
    /// # Errors
    ///
    /// Propagates `Graph::apply` errors — unreachable for a sequence
    /// generated against the same base, but a sequence is plain data and a
    /// caller may replay it against anything.
    pub fn replay(&self, base: &Graph) -> Result<Vec<Graph>> {
        let mut graphs = Vec::with_capacity(self.steps.len());
        let mut current = base.clone();
        for ops in &self.steps {
            current = current.apply(ops)?;
            graphs.push(current.clone());
        }
        Ok(graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scenario::ScenarioSpec;

    fn base() -> Graph {
        ScenarioSpec::sbm(80, 0.08, 0.02).unwrap().build(5).unwrap()
    }

    #[test]
    fn sequences_are_deterministic_and_seed_sensitive() {
        let graph = base();
        let a = ChurnConfig::new(6, 4, 9).generate(&graph).unwrap();
        let b = ChurnConfig::new(6, 4, 9).generate(&graph).unwrap();
        assert_eq!(a, b);
        let c = ChurnConfig::new(6, 4, 10).generate(&graph).unwrap();
        assert_ne!(a, c);
        // Step prefixes are stable: a longer run starts with the short one.
        let long = ChurnConfig::new(8, 4, 9).generate(&graph).unwrap();
        assert_eq!(long.steps[..6], a.steps[..]);
    }

    #[test]
    fn every_step_applies_cleanly_and_bumps_the_version_once() {
        let graph = base();
        let sequence = ChurnConfig::new(10, 5, 3).generate(&graph).unwrap();
        assert_eq!(sequence.steps.len(), 10);
        assert!(sequence.steps.iter().all(|ops| ops.len() == 5));
        // All three kinds appear in a mixed run of this size.
        let labels: std::collections::BTreeSet<&str> =
            sequence.steps.iter().flatten().map(|op| op.label()).collect();
        assert_eq!(labels.len(), 3, "expected add/remove/reweight, got {labels:?}");
        let graphs = sequence.replay(&graph).unwrap();
        for (i, mutated) in graphs.iter().enumerate() {
            assert_eq!(mutated.version(), i as u64 + 1);
            assert_eq!(mutated.num_nodes(), graph.num_nodes());
        }
    }

    #[test]
    fn churn_grows_a_drained_graph_instead_of_failing() {
        // A 2-node, 1-edge graph: removals are fenced off, so a long run
        // only ever adds the missing reverse edge or reweights.
        let tiny = ScenarioSpec::sbm(2, 1.0, 1.0).unwrap().build(1).unwrap();
        let sequence = ChurnConfig::new(5, 2, 2).generate(&tiny).unwrap();
        sequence.replay(&tiny).unwrap();
        assert!(sequence.steps.iter().flatten().all(|op| op.label() != "remove"));
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let single = ScenarioSpec::sbm(2, 1.0, 1.0).unwrap().build(1).unwrap();
        let err = ChurnConfig::new(3, 0, 1).generate(&single).unwrap_err().to_string();
        assert!(err.contains("at least one op"), "{err}");
    }
}
