//! Plain greedy maximization under a cardinality constraint.

use crate::error::{Result, SubmodularError};
use crate::function::IncrementalObjective;
use crate::trace::SelectionTrace;

/// Maximizes `objective` over subsets of `ground` with at most `budget`
/// items using the classic greedy heuristic: at every step, commit the item
/// with the largest marginal gain.
///
/// For non-negative monotone submodular objectives the returned set `Ŝ`
/// satisfies `F(Ŝ) ≥ (1 − 1/e) · F(S*)` (Nemhauser–Wolsey–Fisher), which is
/// the guarantee quoted in Section 3.4 of the paper.
///
/// Items whose best gain is not strictly positive are not selected, so the
/// result can contain fewer than `budget` items when the objective saturates.
///
/// # Errors
///
/// Returns an error if `ground` is empty or `budget` is zero.
pub fn maximize_greedy<O: IncrementalObjective>(
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

    let mut trace = SelectionTrace::default();
    let mut remaining: Vec<usize> = ground.to_vec();
    remaining.sort_unstable();
    remaining.dedup();

    for _ in 0..budget {
        let gains = objective.gains(&remaining);
        trace.gain_evaluations += remaining.len();
        match best_of_scan(&remaining, &gains) {
            Some((pos, gain)) if gain > 0.0 => {
                let item = remaining.swap_remove(pos);
                objective.insert(item);
                trace.push(item, gain, objective.current_value());
            }
            _ => break,
        }
        if remaining.is_empty() {
            break;
        }
    }
    Ok(trace)
}

/// The position and gain of the best of `items` scored by `gains`: the
/// largest gain, ties going to the smallest item id so the selection is
/// deterministic and matches the lazy solvers' tie-breaking.
pub(crate) fn best_of_scan(items: &[usize], gains: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (pos, (&item, &gain)) in items.iter().zip(gains).enumerate() {
        let better = match best {
            None => true,
            Some((best_pos, best_gain)) => {
                gain > best_gain || (gain == best_gain && item < items[best_pos])
            }
        };
        if better {
            best = Some((pos, gain));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ModularFunction, WeightedCoverage};

    #[test]
    fn greedy_is_optimal_on_modular_functions() {
        let mut f = ModularFunction::new(vec![5.0, 1.0, 3.0, 4.0]);
        let trace = maximize_greedy(&mut f, &[0, 1, 2, 3], 2).unwrap();
        assert_eq!(trace.selected, vec![0, 3]);
        assert_eq!(trace.final_value(), 9.0);
        assert_eq!(trace.steps[0].gain, 5.0);
        assert_eq!(trace.gain_evaluations, 4 + 3);
    }

    #[test]
    fn greedy_respects_the_budget_and_stops_at_saturation() {
        let mut f = WeightedCoverage::uniform(vec![vec![0, 1], vec![0, 1], vec![2]], 3);
        let trace = maximize_greedy(&mut f, &[0, 1, 2], 3).unwrap();
        // After picking items 0 and 2 everything is covered; the duplicate
        // item 1 contributes nothing and is not selected.
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.final_value(), 3.0);
    }

    #[test]
    fn greedy_achieves_the_classical_bound_on_coverage() {
        // Hand-built instance where greedy is suboptimal but within (1 - 1/e).
        let covers = vec![
            vec![0, 1, 2, 3],       // big generalist set
            vec![0, 1, 2, 3, 4, 5], // overlapping bigger set
            vec![6, 7, 8],
            vec![4, 5, 6, 7, 8],
        ];
        let mut f = WeightedCoverage::uniform(covers, 9);
        let trace = maximize_greedy(&mut f, &[0, 1, 2, 3], 2).unwrap();
        let optimal = 9.0; // items 1 and 3 cover everything
        assert!(trace.final_value() >= (1.0 - 1.0 / std::f64::consts::E) * optimal);
    }

    #[test]
    fn duplicate_ground_items_are_deduplicated() {
        let mut f = ModularFunction::new(vec![2.0, 1.0]);
        let trace = maximize_greedy(&mut f, &[0, 0, 1, 1], 4).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.final_value(), 3.0);
    }

    #[test]
    fn degenerate_inputs_error() {
        let mut f = ModularFunction::new(vec![1.0]);
        assert_eq!(maximize_greedy(&mut f, &[], 1).unwrap_err(), SubmodularError::EmptyGroundSet);
        assert_eq!(maximize_greedy(&mut f, &[0], 0).unwrap_err(), SubmodularError::ZeroBudget);
    }

    #[test]
    fn zero_gain_items_are_never_selected() {
        let mut f = ModularFunction::new(vec![0.0, 0.0]);
        let trace = maximize_greedy(&mut f, &[0, 1], 2).unwrap();
        assert!(trace.is_empty());
    }
}
