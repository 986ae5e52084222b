//! Greedy submodular cover: select the smallest set whose objective value
//! reaches a target.
//!
//! This is the solver behind the TCIM-COVER (P2) and FAIRTCIM-COVER (P6)
//! problems: the objective is the (truncated, possibly per-group) coverage
//! potential, and the target is `Q` (resp. `k · Q`). Wolsey's analysis gives
//! the `ln(1 + |V|)`-style multiplicative bound on the selected set size
//! quoted in Section 3.4 and Theorem 2 of the paper.
//!
//! [`cover_greedy`] rescans every remaining item each round; [`cover_lazy`]
//! is its CELF twin, selecting exactly the same items with far fewer gain
//! evaluations.

use std::collections::BinaryHeap;

use crate::error::{Result, SubmodularError};
use crate::function::IncrementalObjective;
use crate::greedy::best_of_scan;
use crate::lazy::{round_zero, HeapEntry};
use crate::trace::{CoverResult, SelectionTrace};

/// Relative width of the tie band [`cover_lazy`] re-evaluates before each
/// pick.
///
/// Scalarized gains are differences of floating-point sums, so a recomputed
/// gain may exceed its stale upper bound by a few ulps of the objective
/// value (about `1e-16` relative each). `1e-9 · max(1, |value|)` is millions
/// of ulps wide yet far below any gain difference that decides a pick, so
/// every item that could win or tie the round is re-evaluated.
const TIE_BAND: f64 = 1e-9;

/// Configuration of the greedy cover solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverConfig {
    /// Target objective value to reach.
    pub target: f64,
    /// Numerical slack: the run stops once `value ≥ target − tolerance`.
    /// Useful because Monte-Carlo objectives only approximate the true value.
    pub tolerance: f64,
    /// Hard cap on the number of selected items (defaults to the ground-set
    /// size when `None`).
    pub max_items: Option<usize>,
}

impl CoverConfig {
    /// Creates a configuration with the given target, zero tolerance and no
    /// item cap.
    pub fn new(target: f64) -> Self {
        CoverConfig { target, tolerance: 0.0, max_items: None }
    }
}

/// Validates a cover run and returns its sorted, deduplicated ground set.
fn sorted_ground(ground: &[usize], config: &CoverConfig) -> Result<Vec<usize>> {
    if ground.is_empty() {
        return Err(SubmodularError::EmptyGroundSet);
    }
    if config.target < 0.0 || config.target.is_nan() {
        return Err(SubmodularError::InvalidParameter {
            message: format!("cover target {} must be non-negative", config.target),
        });
    }
    if config.tolerance < 0.0 || config.tolerance.is_nan() {
        return Err(SubmodularError::InvalidParameter {
            message: format!("tolerance {} must be non-negative", config.tolerance),
        });
    }
    let mut items = ground.to_vec();
    items.sort_unstable();
    items.dedup();
    Ok(items)
}

/// Greedily selects items from `ground` until the objective value reaches the
/// target (within tolerance), the ground set is exhausted, the item cap is
/// hit, or no remaining item has positive gain.
///
/// The returned [`CoverResult::reached`] flag records whether the target was
/// met; an unreachable target is *not* an error because the experiment
/// harness deliberately probes infeasible quotas.
///
/// # Errors
///
/// Returns an error if `ground` is empty or the target is negative / NaN.
pub fn cover_greedy<O: IncrementalObjective>(
    objective: &mut O,
    ground: &[usize],
    config: &CoverConfig,
) -> Result<CoverResult> {
    let mut remaining = sorted_ground(ground, config)?;
    let max_items = config.max_items.unwrap_or(remaining.len());

    let mut trace = SelectionTrace::default();
    let threshold = config.target - config.tolerance;

    while objective.current_value() < threshold && trace.len() < max_items && !remaining.is_empty()
    {
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
    }

    let reached = objective.current_value() >= threshold;
    Ok(CoverResult { trace, reached, target: config.target })
}

/// CELF lazy greedy cover: the same result as [`cover_greedy`] — selection,
/// per-step gains and values, `reached` — with far fewer gain evaluations.
///
/// Submodularity makes every gain computed in an earlier round an upper
/// bound on the item's current gain, so stale gains wait in a max-heap and
/// only entries near the top are re-evaluated. A stale entry that reaches
/// the top is first tightened, once per round, by the objective's
/// [`bound`](IncrementalObjective::bound) and re-pushed; it is evaluated
/// only if it still reaches the top. Before each pick, every entry whose
/// bound lies within a tie band of `1e-9 · max(1, |value|)` below the best
/// fresh gain is re-evaluated too. The pick is then made among gains
/// computed in this round, ties going to the smallest item id, so rounding
/// noise in stale bounds cannot change the selection. The stop rules are
/// those of [`cover_greedy`].
///
/// # Errors
///
/// Returns an error if `ground` is empty or the target is negative / NaN.
pub fn cover_lazy<O: IncrementalObjective>(
    objective: &mut O,
    ground: &[usize],
    config: &CoverConfig,
) -> Result<CoverResult> {
    let items = sorted_ground(ground, config)?;
    let max_items = config.max_items.unwrap_or(items.len());

    let mut trace = SelectionTrace::default();
    let threshold = config.target - config.tolerance;

    // Whether another pick may be made, the plain scan's stop rules.
    let open = |value: f64, picked: usize| value < threshold && picked < max_items;

    // Round 0 scores every item in one batch, as the plain scan does. Those
    // entries are fresh in round 0 only: an entry is fresh iff its `round`
    // equals `trace.len()`, and later rounds push back only older entries.
    let mut heap = if open(objective.current_value(), 0) {
        round_zero(objective, &items, &mut trace)
    } else {
        BinaryHeap::new()
    };
    let mut band: Vec<HeapEntry> = Vec::new();

    while open(objective.current_value(), trace.len()) && !heap.is_empty() {
        let slack = TIE_BAND * objective.current_value().abs().max(1.0);
        let mut best: Option<HeapEntry> = None;
        while let Some(&top) = heap.peek() {
            if best.is_some_and(|b| top.gain < b.gain - slack) {
                break;
            }
            heap.pop();
            if let Some(bounded) = top.rebound(objective, trace.len()) {
                heap.push(bounded);
                continue;
            }
            let fresh = if top.round == trace.len() {
                top
            } else {
                trace.gain_evaluations += 1;
                HeapEntry::fresh(objective.gain(top.item), top.item, trace.len())
            };
            let (gain, item) = (fresh.gain, fresh.item);
            let better = match best {
                None => true,
                Some(b) => gain > b.gain || (gain == b.gain && item < b.item),
            };
            if better {
                best = Some(fresh);
            }
            band.push(fresh);
        }
        match best {
            Some(pick) if pick.gain > 0.0 => {
                objective.insert(pick.item);
                trace.push(pick.item, pick.gain, objective.current_value());
                heap.extend(band.drain(..).filter(|entry| entry.item != pick.item));
            }
            _ => break,
        }
    }

    let reached = objective.current_value() >= threshold;
    Ok(CoverResult { trace, reached, target: config.target })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ModularFunction, WeightedCoverage};

    #[test]
    fn covers_the_target_with_a_small_set() {
        let mut f = WeightedCoverage::uniform(
            vec![vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![0, 4, 6]],
            7,
        );
        let result = cover_greedy(&mut f, &[0, 1, 2, 3], &CoverConfig::new(6.0)).unwrap();
        assert!(result.reached);
        assert!(result.achieved() >= 6.0);
        assert!(result.seed_count() <= 3);
    }

    #[test]
    fn reports_unreachable_targets_without_erroring() {
        let mut f = WeightedCoverage::uniform(vec![vec![0], vec![1]], 5);
        let result = cover_greedy(&mut f, &[0, 1], &CoverConfig::new(4.0)).unwrap();
        assert!(!result.reached);
        assert_eq!(result.achieved(), 2.0);
        assert_eq!(result.seed_count(), 2);
        assert_eq!(result.target, 4.0);
    }

    #[test]
    fn zero_target_selects_nothing() {
        let mut f = ModularFunction::new(vec![1.0, 1.0]);
        let result = cover_greedy(&mut f, &[0, 1], &CoverConfig::new(0.0)).unwrap();
        assert!(result.reached);
        assert_eq!(result.seed_count(), 0);
    }

    #[test]
    fn tolerance_allows_stopping_slightly_early() {
        let mut f = ModularFunction::new(vec![1.0, 1.0, 1.0]);
        let config = CoverConfig { target: 2.05, tolerance: 0.1, max_items: None };
        let result = cover_greedy(&mut f, &[0, 1, 2], &config).unwrap();
        assert!(result.reached);
        assert_eq!(result.seed_count(), 2);
    }

    #[test]
    fn max_items_caps_the_selection() {
        let mut f = ModularFunction::new(vec![1.0; 10]);
        let config = CoverConfig { target: 10.0, tolerance: 0.0, max_items: Some(3) };
        let result = cover_greedy(&mut f, &(0..10).collect::<Vec<_>>(), &config).unwrap();
        assert!(!result.reached);
        assert_eq!(result.seed_count(), 3);
    }

    #[test]
    fn wolsey_style_bound_holds_on_coverage_instances() {
        // Universe of 12 elements; optimal cover of the 0.9 * 12 target needs
        // 2 sets; greedy must stay within ln(1 + 12) * 2 ≈ 5.1 sets.
        let covers = vec![
            vec![0, 1, 2, 3, 4, 5],
            vec![6, 7, 8, 9, 10, 11],
            vec![0, 6],
            vec![1, 7],
            vec![2, 8],
            vec![3, 9],
        ];
        let mut f = WeightedCoverage::uniform(covers, 12);
        let result = cover_greedy(&mut f, &[0, 1, 2, 3, 4, 5], &CoverConfig::new(11.0)).unwrap();
        assert!(result.reached);
        let bound = ((1.0 + 12.0f64).ln() * 2.0).ceil() as usize;
        assert!(result.seed_count() <= bound);
    }

    #[test]
    fn invalid_inputs_error() {
        let mut f = ModularFunction::new(vec![1.0]);
        let bad_tol = CoverConfig { target: 1.0, tolerance: -0.5, max_items: None };
        for solver in [cover_greedy::<ModularFunction>, cover_lazy::<ModularFunction>] {
            assert!(solver(&mut f, &[], &CoverConfig::new(1.0)).is_err());
            assert!(solver(&mut f, &[0], &CoverConfig::new(-1.0)).is_err());
            assert!(solver(&mut f, &[0], &bad_tol).is_err());
        }
    }

    /// Runs both solvers on copies of `f` and checks that the lazy one
    /// reproduces the plain scan with no more gain evaluations.
    fn assert_lazy_matches<O: IncrementalObjective + Clone>(
        f: &O,
        ground: &[usize],
        config: &CoverConfig,
    ) -> CoverResult {
        let plain = cover_greedy(&mut f.clone(), ground, config).unwrap();
        let lazy = cover_lazy(&mut f.clone(), ground, config).unwrap();
        assert_eq!(lazy.trace.selected, plain.trace.selected);
        assert_eq!(lazy.trace.steps, plain.trace.steps);
        assert_eq!(lazy.reached, plain.reached);
        assert!(lazy.trace.gain_evaluations <= plain.trace.gain_evaluations);
        lazy
    }

    #[test]
    fn lazy_breaks_ties_towards_the_smallest_item() {
        let flat = ModularFunction::new(vec![1.0; 6]);
        let result = assert_lazy_matches(&flat, &[5, 3, 1, 0, 4, 2], &CoverConfig::new(3.0));
        assert_eq!(result.trace.selected, vec![0, 1, 2]);
    }

    /// Item gains from a table keyed by the number of committed items, so a
    /// test can make a recomputed gain exceed its stale bound by one ulp —
    /// the rounding noise scalarized influence gains show.
    #[derive(Clone)]
    struct UlpDrift {
        gains: Vec<[f64; 3]>,
        committed: Vec<usize>,
        value: f64,
    }

    impl IncrementalObjective for UlpDrift {
        fn current_value(&self) -> f64 {
            self.value
        }
        fn gain(&mut self, item: usize) -> f64 {
            if self.committed.contains(&item) {
                0.0
            } else {
                self.gains[self.committed.len()][item]
            }
        }
        fn insert(&mut self, item: usize) {
            self.value += self.gain(item);
            self.committed.push(item);
        }
    }

    #[test]
    fn tie_band_absorbs_gains_that_exceed_their_stale_bound() {
        let below = 1.0f64.next_down();
        // After item 0 is committed, item 2 drops from 1 to one ulp below it
        // and item 1 rises an ulp above its stale bound to the same gain. The
        // plain scan breaks that tie towards item 1; without the band the
        // lazy run would stop at item 2's fresh gain, which exceeds item 1's
        // stale bound, and pick item 2.
        let f = UlpDrift {
            gains: vec![[2.0, below.next_down(), 1.0], [0.0, below, below], [0.0, 0.5, 0.5]],
            committed: Vec::new(),
            value: 0.0,
        };
        let result = assert_lazy_matches(&f, &[0, 1, 2], &CoverConfig::new(3.0));
        assert_eq!(result.trace.selected, vec![0, 1]);
    }
}
