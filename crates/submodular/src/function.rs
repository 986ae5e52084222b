//! Objective-function traits for incremental set-function maximization.

/// An incrementally evaluable set function `F : 2^Ω → ℝ` over a ground set of
/// items identified by `usize` indices.
///
/// The solvers in this crate only ever grow the current set one item at a
/// time, so the interface is deliberately minimal: query the current value,
/// query the marginal gain of an item (or of a batch of items), and commit
/// an item. Implementations typically cache per-item state so that `gain` is
/// much cheaper than re-evaluating the function from scratch.
///
/// The maximization guarantees of [`greedy`](crate::maximize_greedy) and
/// [`lazy greedy`](crate::maximize_lazy) require `F` to be non-negative,
/// monotone and submodular; the algorithms themselves run on any
/// implementation (and [`verify_submodular`](crate::testing::verify_submodular)
/// can check the property empirically on small instances).
pub trait IncrementalObjective {
    /// Value of the currently committed set.
    fn current_value(&self) -> f64;

    /// Marginal gain `F(S ∪ {item}) − F(S)` of adding `item` to the current
    /// set `S`. Must not change the committed set, although implementations
    /// may mutate internal scratch space (hence `&mut self`).
    fn gain(&mut self, item: usize) -> f64;

    /// The marginal gains of `items` against the current set, in item order:
    /// entry `j` equals `gain(items[j])`. The solvers ask here whenever they
    /// scan many items against one set, so an implementation can spread the
    /// batch over threads; the default asks `gain` once per item.
    fn gains(&mut self, items: &[usize]) -> Vec<f64> {
        items.iter().map(|&item| self.gain(item)).collect()
    }

    /// Commits `item` to the current set.
    fn insert(&mut self, item: usize);

    /// A cheap upper bound on `gain(item)` against the current set, or
    /// `None` when the objective has none. The lazy solvers ask here before
    /// they pay for a stale entry's gain and keep the smaller of the bound
    /// and the stale gain, so a bound only has to be valid, not tight. The
    /// default has none, which leaves plain CELF.
    fn bound(&self, _item: usize) -> Option<f64> {
        None
    }
}

/// Blanket helper implemented for every objective: evaluates a whole set from
/// scratch by inserting into a clone. Only available for cloneable objectives
/// and mainly used in tests.
pub trait EvaluateSet: IncrementalObjective + Clone {
    /// Value of `items` evaluated on a fresh copy of the objective.
    fn evaluate_set(&self, items: &[usize]) -> f64 {
        let mut copy = self.clone();
        for &item in items {
            copy.insert(item);
        }
        copy.current_value()
    }
}

impl<T: IncrementalObjective + Clone> EvaluateSet for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ModularFunction;

    #[test]
    fn evaluate_set_runs_on_a_copy() {
        let objective = ModularFunction::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(objective.evaluate_set(&[0, 2]), 4.0);
        // The original is untouched.
        assert_eq!(objective.current_value(), 0.0);
    }
}
