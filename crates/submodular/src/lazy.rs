//! CELF lazy greedy maximization (Leskovec et al., 2007).
//!
//! For submodular objectives an item's marginal gain can only shrink as the
//! selected set grows, so stale gains stored in a max-heap are valid upper
//! bounds. Lazily re-evaluating only the top of the heap gives the same
//! selection as plain greedy while typically issuing orders of magnitude
//! fewer oracle calls — which matters because each call here is a Monte-Carlo
//! influence estimate over hundreds of sampled worlds.
//!
//! Before it pays for a stale top entry's gain, CELF asks the objective for
//! a cheap [`bound`](IncrementalObjective::bound) once per entry per round
//! and re-pushes the entry under the smaller of its stale gain and that
//! bound. The entry is evaluated only if it is still on top. A valid bound
//! is an upper bound like a stale gain, so it saves evaluations without
//! changing the selection; an objective without one runs plain CELF.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{Result, SubmodularError};
use crate::function::IncrementalObjective;
use crate::trace::SelectionTrace;

/// Heap entry: a cached (possibly stale) upper bound on an item's gain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    pub(crate) gain: f64,
    pub(crate) item: usize,
    /// Selection round in which `gain` was computed; an entry is fresh iff
    /// this equals the current round.
    pub(crate) round: usize,
    /// Last round in which `gain` was computed or tightened by the
    /// objective's bound; a stale entry is re-bounded at most once a round.
    bounded: usize,
}

impl HeapEntry {
    /// An entry whose gain was computed in `round`.
    pub(crate) fn fresh(gain: f64, item: usize, round: usize) -> Self {
        HeapEntry { gain, item, round, bounded: round }
    }

    /// `self` under the objective's bound in `round`, if it is stale, not yet
    /// re-bounded in `round` and the objective has a bound for it.
    pub(crate) fn rebound<O: IncrementalObjective>(
        self,
        objective: &O,
        round: usize,
    ) -> Option<Self> {
        if self.round == round || self.bounded == round {
            return None;
        }
        let bound = objective.bound(self.item)?;
        Some(HeapEntry { gain: self.gain.min(bound), bounded: round, ..self })
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.item == other.item
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; ties broken towards the smaller item id so the
        // selection is deterministic.
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.item.cmp(&self.item))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Maximizes `objective` over subsets of `ground` with at most `budget` items
/// using the CELF lazy-greedy strategy.
///
/// Produces exactly the same selection as [`maximize_greedy`] on submodular
/// objectives (up to ties), with far fewer gain evaluations.
///
/// # Errors
///
/// Returns an error if `ground` is empty or `budget` is zero.
///
/// [`maximize_greedy`]: crate::maximize_greedy
pub fn maximize_lazy<O: IncrementalObjective>(
    objective: &mut O,
    ground: &[usize],
    budget: usize,
) -> Result<SelectionTrace> {
    if ground.is_empty() {
        return Err(SubmodularError::EmptyGroundSet);
    }
    if budget == 0 {
        return Err(SubmodularError::ZeroBudget);
    }

    let mut items: Vec<usize> = ground.to_vec();
    items.sort_unstable();
    items.dedup();

    let mut trace = SelectionTrace::default();
    let mut heap = round_zero(objective, &items, &mut trace);

    let mut round = 0usize;
    while trace.len() < budget {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Fresh entry: this really is the best remaining item.
            if top.gain <= 0.0 {
                break;
            }
            objective.insert(top.item);
            round += 1;
            trace.push(top.item, top.gain, objective.current_value());
        } else if let Some(bounded) = top.rebound(objective, round) {
            // Stale entry: tighten it first; it is paid for only if it is
            // still on top.
            heap.push(bounded);
        } else {
            // Stale entry: re-evaluate and push back.
            let gain = objective.gain(top.item);
            trace.gain_evaluations += 1;
            heap.push(HeapEntry::fresh(gain, top.item, round));
        }
    }
    Ok(trace)
}

/// Round 0 of a CELF run: every item scored in one batch, each entry fresh
/// in round 0.
pub(crate) fn round_zero<O: IncrementalObjective>(
    objective: &mut O,
    items: &[usize],
    trace: &mut SelectionTrace,
) -> BinaryHeap<HeapEntry> {
    let gains = objective.gains(items);
    trace.gain_evaluations += items.len();
    items.iter().zip(gains).map(|(&item, gain)| HeapEntry::fresh(gain, item, 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::maximize_greedy;
    use crate::testing::{ModularFunction, WeightedCoverage};

    fn coverage_instance() -> WeightedCoverage {
        WeightedCoverage::new(
            vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5, 6],
                vec![0, 6],
                vec![7],
                vec![1, 4, 7, 8],
            ],
            vec![1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 5.0, 1.0],
        )
    }

    #[test]
    fn lazy_matches_plain_greedy_selection_and_value() {
        let ground: Vec<usize> = (0..6).collect();
        for budget in 1..=6 {
            let mut plain = coverage_instance();
            let mut lazy = coverage_instance();
            let a = maximize_greedy(&mut plain, &ground, budget).unwrap();
            let b = maximize_lazy(&mut lazy, &ground, budget).unwrap();
            assert_eq!(a.selected, b.selected, "budget {budget}");
            assert!((a.final_value() - b.final_value()).abs() < 1e-12);
        }
    }

    #[test]
    fn lazy_issues_no_more_evaluations_than_plain_greedy() {
        let ground: Vec<usize> = (0..6).collect();
        let mut plain = coverage_instance();
        let mut lazy = coverage_instance();
        let a = maximize_greedy(&mut plain, &ground, 4).unwrap();
        let b = maximize_lazy(&mut lazy, &ground, 4).unwrap();
        assert!(b.gain_evaluations <= a.gain_evaluations);
    }

    #[test]
    fn lazy_stops_when_gains_vanish() {
        let mut f = WeightedCoverage::uniform(vec![vec![0], vec![0], vec![0]], 1);
        let trace = maximize_lazy(&mut f, &[0, 1, 2], 3).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.final_value(), 1.0);
    }

    #[test]
    fn lazy_handles_modular_functions() {
        let mut f = ModularFunction::new(vec![1.0, 5.0, 3.0]);
        let trace = maximize_lazy(&mut f, &[0, 1, 2], 2).unwrap();
        assert_eq!(trace.selected, vec![1, 2]);
        assert_eq!(trace.final_value(), 8.0);
    }

    #[test]
    fn degenerate_inputs_error() {
        let mut f = ModularFunction::new(vec![1.0]);
        assert!(maximize_lazy(&mut f, &[], 1).is_err());
        assert!(maximize_lazy(&mut f, &[0], 0).is_err());
    }
}
