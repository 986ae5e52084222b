//! Stochastic greedy maximization (Mirzasoleiman et al., 2015).
//!
//! Instead of scanning the whole ground set at every step, stochastic greedy
//! evaluates a random subsample of size `(n / B) · ln(1 / ε)` and picks the
//! best item from it, achieving a `(1 − 1/e − ε)` guarantee in expectation
//! with a near-linear number of oracle calls. Used as the cheap alternative
//! on the large Instagram surrogate and in the solver ablation benches.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::{Result, SubmodularError};
use crate::function::IncrementalObjective;
use crate::trace::SelectionTrace;

/// Configuration of the stochastic greedy solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticGreedyConfig {
    /// Accuracy parameter ε in `(0, 1)`; smaller values mean larger samples.
    pub epsilon: f64,
    /// RNG seed for the per-step subsampling.
    pub seed: u64,
}

impl Default for StochasticGreedyConfig {
    fn default() -> Self {
        StochasticGreedyConfig { epsilon: 0.1, seed: 0 }
    }
}

/// Maximizes `objective` over subsets of `ground` with at most `budget` items
/// using stochastic greedy subsampling.
///
/// # Errors
///
/// Returns an error if `ground` is empty, `budget` is zero, or `epsilon` is
/// outside `(0, 1)`.
pub fn maximize_stochastic<O: IncrementalObjective>(
    objective: &mut O,
    ground: &[usize],
    budget: usize,
    config: &StochasticGreedyConfig,
) -> Result<SelectionTrace> {
    if ground.is_empty() {
        return Err(SubmodularError::EmptyGroundSet);
    }
    if budget == 0 {
        return Err(SubmodularError::ZeroBudget);
    }
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(SubmodularError::InvalidParameter {
            message: format!("epsilon {} must be in (0, 1)", config.epsilon),
        });
    }

    let mut remaining: Vec<usize> = ground.to_vec();
    remaining.sort_unstable();
    remaining.dedup();

    let n = remaining.len();
    let sample_size =
        (((n as f64) / (budget as f64)) * (1.0 / config.epsilon).ln()).ceil() as usize;
    let sample_size = sample_size.clamp(1, n);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut trace = SelectionTrace::default();

    for _ in 0..budget {
        if remaining.is_empty() {
            break;
        }
        // Sample without replacement by shuffling a prefix.
        remaining.shuffle(&mut rng);
        let window = sample_size.min(remaining.len());
        let mut best = first_max(&objective.gains(&remaining[..window]));
        trace.gain_evaluations += window;
        if !best.is_some_and(|(_, gain)| gain > 0.0) {
            // The sampled window had no useful item; plain greedy would stop
            // only when *no* item helps, so fall back to a full scan once
            // before giving up.
            best = first_max(&objective.gains(&remaining));
            trace.gain_evaluations += remaining.len();
        }
        match best {
            Some((pos, gain)) if gain > 0.0 => {
                let item = remaining.swap_remove(pos);
                objective.insert(item);
                trace.push(item, gain, objective.current_value());
            }
            _ => break,
        }
    }
    Ok(trace)
}

/// The position and value of the first largest of `gains`.
fn first_max(gains: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (pos, &gain) in gains.iter().enumerate() {
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((pos, gain));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::maximize_greedy;
    use crate::testing::{ModularFunction, WeightedCoverage};

    fn coverage() -> WeightedCoverage {
        let covers: Vec<Vec<usize>> =
            (0..40).map(|i| (0..5).map(|j| (i * 3 + j * 7) % 60).collect()).collect();
        WeightedCoverage::uniform(covers, 60)
    }

    #[test]
    fn stochastic_greedy_gets_close_to_plain_greedy() {
        let ground: Vec<usize> = (0..40).collect();
        let mut plain = coverage();
        let greedy_value = maximize_greedy(&mut plain, &ground, 8).unwrap().final_value();

        let mut stoch = coverage();
        let value = maximize_stochastic(
            &mut stoch,
            &ground,
            8,
            &StochasticGreedyConfig { epsilon: 0.05, seed: 3 },
        )
        .unwrap()
        .final_value();
        assert!(value >= 0.85 * greedy_value, "stochastic {value} vs greedy {greedy_value}");
    }

    #[test]
    fn uses_fewer_evaluations_than_plain_greedy_on_large_ground_sets() {
        let ground: Vec<usize> = (0..40).collect();
        let mut plain = coverage();
        let plain_trace = maximize_greedy(&mut plain, &ground, 8).unwrap();
        let mut stoch = coverage();
        let stoch_trace = maximize_stochastic(
            &mut stoch,
            &ground,
            8,
            &StochasticGreedyConfig { epsilon: 0.2, seed: 1 },
        )
        .unwrap();
        assert!(stoch_trace.gain_evaluations < plain_trace.gain_evaluations);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ground: Vec<usize> = (0..40).collect();
        let cfg = StochasticGreedyConfig { epsilon: 0.1, seed: 11 };
        let mut a = coverage();
        let mut b = coverage();
        assert_eq!(
            maximize_stochastic(&mut a, &ground, 5, &cfg).unwrap().selected,
            maximize_stochastic(&mut b, &ground, 5, &cfg).unwrap().selected
        );
    }

    #[test]
    fn rejects_invalid_epsilon_and_degenerate_inputs() {
        let mut f = ModularFunction::new(vec![1.0, 2.0]);
        assert!(maximize_stochastic(
            &mut f,
            &[0, 1],
            1,
            &StochasticGreedyConfig { epsilon: 1.0, seed: 0 }
        )
        .is_err());
        assert!(maximize_stochastic(&mut f, &[], 1, &StochasticGreedyConfig::default()).is_err());
        assert!(maximize_stochastic(&mut f, &[0], 0, &StochasticGreedyConfig::default()).is_err());
    }

    #[test]
    fn saturated_objectives_stop_early() {
        let mut f = WeightedCoverage::uniform(vec![vec![0], vec![0], vec![0], vec![0]], 1);
        let trace = maximize_stochastic(
            &mut f,
            &[0, 1, 2, 3],
            4,
            &StochasticGreedyConfig { epsilon: 0.5, seed: 0 },
        )
        .unwrap();
        assert_eq!(trace.len(), 1);
    }
}
