//! Adapters turning a group-aware influence cursor into the scalar
//! incremental objectives consumed by the submodular solvers.
//!
//! All four problem variants optimize *some* scalar function of the per-group
//! influence vector `(f_τ(S; V_1), …, f_τ(S; V_k))`:
//!
//! | Problem | Scalarization |
//! |---------|---------------|
//! | P1 (TCIM-BUDGET) | `Σ_i f_i` |
//! | P4 (FAIRTCIM-BUDGET) | `Σ_i λ_i · H(f_i)` |
//! | P2 (TCIM-COVER) | `f / |V|`, covered to quota `Q` |
//! | P6 (FAIRTCIM-COVER) | `Σ_i min(f_i / |V_i|, Q)`, covered to `k·Q` |
//!
//! Each scalarization is a concave, coordinate-wise non-decreasing function of
//! the influence vector, so composed with the monotone submodular group
//! influences the resulting set function stays monotone submodular and the
//! greedy guarantees apply.

use tcim_diffusion::{GroupInfluence, InfluenceCursor};
use tcim_graph::NodeId;
use tcim_submodular::IncrementalObjective;

use crate::concave::ConcaveWrapper;

/// How a per-group influence vector is collapsed into the scalar objective.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalarization {
    /// Total influence `Σ_i f_i` (problems P1 and, normalized, P2).
    Total,
    /// Fraction of the whole population influenced, `Σ_i f_i / |V|`; the
    /// quantity the TCIM-COVER quota constrains.
    NormalizedTotal {
        /// Total population size `|V|`.
        population: usize,
    },
    /// The FAIRTCIM-BUDGET surrogate `Σ_i λ_i · H(f_i)`.
    Concave {
        /// The concave wrapper `H`.
        wrapper: ConcaveWrapper,
        /// Optional per-group weights `λ_i` (all 1 when `None`).
        weights: Option<Vec<f64>>,
    },
    /// The FAIRTCIM-COVER potential `Σ_i min(f_i / |V_i|, Q)`.
    TruncatedQuota {
        /// The per-group quota `Q`.
        quota: f64,
        /// Group sizes `|V_i|`.
        group_sizes: Vec<usize>,
    },
}

impl Scalarization {
    /// Applies the scalarization to a per-group influence vector.
    pub fn value(&self, influence: &[f64]) -> f64 {
        match self {
            Scalarization::Total => influence.iter().sum(),
            Scalarization::NormalizedTotal { population } => {
                if *population == 0 {
                    0.0
                } else {
                    influence.iter().sum::<f64>() / *population as f64
                }
            }
            Scalarization::Concave { wrapper, weights } => influence
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    let w = weights.as_ref().and_then(|w| w.get(i)).copied().unwrap_or(1.0);
                    w * wrapper.apply(f)
                })
                .sum(),
            Scalarization::TruncatedQuota { quota, group_sizes } => influence
                .iter()
                .zip(group_sizes)
                .map(|(&f, &size)| if size == 0 { 0.0 } else { (f / size as f64).min(*quota) })
                .sum(),
        }
    }

    /// Value after adding a per-group gain vector to the current influence.
    pub fn value_with_gain(&self, current: &[f64], gain: &[f64]) -> f64 {
        let combined: Vec<f64> = current.iter().zip(gain).map(|(c, g)| c + g).collect();
        self.value(&combined)
    }
}

/// An incremental scalar objective over seed nodes, driven by an
/// [`InfluenceCursor`]. Ground-set items are node indices
/// (`NodeId::index()`).
///
/// It keeps each ground item's last per-group gain so that
/// [`IncrementalObjective::bound`] can re-scalarize it at the current
/// influence `f` as `φ(f + δ_last) − φ(f)`. A cursor's per-group gains only
/// shrink as seeds are added, and every scalarization is non-decreasing in
/// each group, so that is an upper bound on the item's gain; it costs `k`
/// flops, not a BFS. The ground is the first [`IncrementalObjective::gains`]
/// batch's items (round 0 of a solve scores them all in one batch), so the
/// storage is `|ground| × k`, never `n × k`.
pub struct InfluenceObjective<'a> {
    cursor: Box<dyn InfluenceCursor + 'a>,
    scalarization: Scalarization,
    cached_value: f64,
    /// The items of the first `gains` batch, sorted and deduplicated.
    ground: Option<Box<[usize]>>,
    /// `ground[s]`'s last per-group gain is `last_gains[s * k..(s + 1) * k]`.
    last_gains: Vec<f64>,
    /// The influence after each committed seed, in insertion order.
    history: Vec<GroupInfluence>,
}

impl<'a> InfluenceObjective<'a> {
    /// Wraps `cursor` with the given scalarization, starting from the empty
    /// seed set.
    pub fn new(cursor: Box<dyn InfluenceCursor + 'a>, scalarization: Scalarization) -> Self {
        let cached_value = scalarization.value(cursor.current().values());
        InfluenceObjective {
            cursor,
            scalarization,
            cached_value,
            ground: None,
            last_gains: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Influence of the currently committed seed set.
    pub fn influence(&self) -> &GroupInfluence {
        self.cursor.current()
    }

    /// The influence after each committed seed: entry `i` is the influence
    /// of the first `i + 1` seeds.
    pub(crate) fn history(&self) -> &[GroupInfluence] {
        &self.history
    }

    /// Seeds committed so far.
    pub fn seeds(&self) -> Vec<NodeId> {
        self.cursor.seeds().to_vec()
    }

    /// The scalarization in use.
    pub fn scalarization(&self) -> &Scalarization {
        &self.scalarization
    }

    /// The scalar gain of a per-group gain vector against the committed
    /// seeds, clamped at zero.
    fn scalar_gain(&self, gain: &[f64]) -> f64 {
        let new_value = self.scalarization.value_with_gain(self.cursor.current().values(), gain);
        (new_value - self.cached_value).max(0.0)
    }

    /// `item`'s slot in `last_gains`, if it is in the ground.
    fn slot(&self, item: usize) -> Option<std::ops::Range<usize>> {
        let s = self.ground.as_ref()?.binary_search(&item).ok()?;
        let k = self.cursor.current().num_groups();
        Some(s * k..(s + 1) * k)
    }

    /// Records `gain` as `item`'s last per-group gain, if it has a slot.
    fn record(&mut self, item: usize, gain: &GroupInfluence) {
        if let Some(slot) = self.slot(item) {
            if let Some(last) = self.last_gains.get_mut(slot) {
                for (last, &g) in last.iter_mut().zip(gain.values()) {
                    *last = g;
                }
            }
        }
    }
}

impl IncrementalObjective for InfluenceObjective<'_> {
    fn current_value(&self) -> f64 {
        self.cached_value
    }

    fn gain(&mut self, item: usize) -> f64 {
        let gain = self.cursor.gain(NodeId::from_index(item));
        self.record(item, &gain);
        self.scalar_gain(gain.values())
    }

    /// One [`InfluenceCursor::gains`] batch, each result scalarized as
    /// `gain` scalarizes it. The first batch fixes the ground whose gains
    /// are kept for [`IncrementalObjective::bound`].
    fn gains(&mut self, items: &[usize]) -> Vec<f64> {
        if self.ground.is_none() {
            let mut ground = items.to_vec();
            ground.sort_unstable();
            ground.dedup();
            self.last_gains = vec![0.0; ground.len() * self.cursor.current().num_groups()];
            self.ground = Some(ground.into_boxed_slice());
        }
        let candidates: Vec<NodeId> = items.iter().map(|&item| NodeId::from_index(item)).collect();
        let gains = self.cursor.gains(&candidates);
        for (&item, gain) in items.iter().zip(&gains) {
            self.record(item, gain);
        }
        gains.iter().map(|gain| self.scalar_gain(gain.values())).collect()
    }

    fn insert(&mut self, item: usize) {
        self.cursor.add_seed(NodeId::from_index(item));
        self.cached_value = self.scalarization.value(self.cursor.current().values());
        self.history.push(self.cursor.current().clone());
    }

    /// `item`'s last per-group gain re-scalarized at the current influence.
    /// `None` before its first gain, or outside the ground.
    fn bound(&self, item: usize) -> Option<f64> {
        let last = self.last_gains.get(self.slot(item)?)?;
        Some(self.scalar_gain(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcim_diffusion::{Deadline, InfluenceOracle, WorldEstimator, WorldsConfig};
    use tcim_graph::{GraphBuilder, GroupId};

    /// Deterministic graph: hub 0 (group 0) -> 3 leaves (group 0) and a
    /// two-hop chain into group 1, all probability 1.
    fn oracle() -> WorldEstimator {
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
        let g = Arc::new(b.build().unwrap());
        WorldEstimator::new(g, Deadline::unbounded(), &WorldsConfig { num_worlds: 4, seed: 0 })
            .unwrap()
    }

    #[test]
    fn scalarizations_compute_expected_values() {
        let influence = vec![4.0, 1.0];
        assert_eq!(Scalarization::Total.value(&influence), 5.0);
        assert_eq!(Scalarization::NormalizedTotal { population: 10 }.value(&influence), 0.5);
        let concave = Scalarization::Concave { wrapper: ConcaveWrapper::Sqrt, weights: None };
        assert!((concave.value(&influence) - 3.0).abs() < 1e-12);
        let weighted = Scalarization::Concave {
            wrapper: ConcaveWrapper::Identity,
            weights: Some(vec![1.0, 10.0]),
        };
        assert!((weighted.value(&influence) - 14.0).abs() < 1e-12);
        let truncated = Scalarization::TruncatedQuota { quota: 0.3, group_sizes: vec![10, 10] };
        assert!((truncated.value(&influence) - (0.3 + 0.1)).abs() < 1e-12);
        // Empty group contributes zero rather than NaN.
        let truncated = Scalarization::TruncatedQuota { quota: 0.3, group_sizes: vec![10, 0] };
        assert!((truncated.value(&influence) - 0.3).abs() < 1e-12);
        assert_eq!(Scalarization::NormalizedTotal { population: 0 }.value(&influence), 0.0);
    }

    #[test]
    fn value_with_gain_matches_direct_evaluation() {
        let s = Scalarization::Concave { wrapper: ConcaveWrapper::Log, weights: None };
        let direct = s.value(&[3.0, 2.0]);
        let incremental = s.value_with_gain(&[1.0, 2.0], &[2.0, 0.0]);
        assert!((direct - incremental).abs() < 1e-12);
    }

    #[test]
    fn objective_tracks_cursor_state() {
        let est = oracle();
        let mut obj = InfluenceObjective::new(est.cursor(), Scalarization::Total);
        assert_eq!(obj.current_value(), 0.0);
        let gain_hub = obj.gain(0);
        assert!((gain_hub - 6.0).abs() < 1e-12);
        obj.insert(0);
        assert_eq!(obj.seeds(), vec![NodeId(0)]);
        assert!((obj.current_value() - 6.0).abs() < 1e-12);
        assert!((obj.influence().total() - 6.0).abs() < 1e-12);
        // Already-covered leaf gains nothing.
        assert_eq!(obj.gain(1), 0.0);
        // A batch scalarizes each cursor gain exactly as `gain` does.
        let singles: Vec<f64> = [1, 5, 0, 9].iter().map(|&v| obj.gain(v)).collect();
        assert_eq!(obj.gains(&[1, 5, 0, 9]), singles);
    }

    #[test]
    fn concave_objective_prefers_the_underinfluenced_group() {
        // After seeding the hub, group 0 has 4 influenced, group 1 has 2.
        // Under identity both a fresh group-0 node and a fresh group-1 node
        // would gain equally (zero here since all covered); use a tighter
        // deadline so group 1 is NOT covered and compare gains.
        let est = oracle().with_deadline(Deadline::finite(1));
        let mut total = InfluenceObjective::new(est.cursor(), Scalarization::Total);
        let mut fair = InfluenceObjective::new(
            est.cursor(),
            Scalarization::Concave { wrapper: ConcaveWrapper::Log, weights: None },
        );
        total.insert(0);
        fair.insert(0);
        // Candidate 5 (group 1, uncovered within the deadline) gains; the
        // already-covered majority candidate 1 does not. Under the fair
        // objective the minority candidate is strictly preferred, and the
        // unfair objective still sees its raw +1 gain.
        assert!((total.gain(5) - 1.0).abs() < 1e-12);
        let fair_gain_minority = fair.gain(5);
        let fair_gain_majority = fair.gain(1);
        assert!(fair_gain_minority > fair_gain_majority);
        assert!(fair.scalarization() != total.scalarization());
    }
}
