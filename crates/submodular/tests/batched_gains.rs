//! The solvers ask for a scan's gains in one `gains` batch, which an
//! objective may spread over threads. Batching must change nothing a run
//! reports: every driver selects the same items with the same per-step gains
//! and counts the same `gain_evaluations` as when the objective answers the
//! batch one item at a time through the trait's default.

use tcim_submodular::testing::WeightedCoverage;
use tcim_submodular::{
    cover_greedy, cover_lazy, maximize_greedy, maximize_lazy, maximize_stochastic, CoverConfig,
    CoverResult, IncrementalObjective, SelectionTrace, StochasticGreedyConfig,
};

/// Logs every batch and counts every single gain it is asked for, then
/// answers from the wrapped objective.
#[derive(Clone)]
struct Recording<O> {
    inner: O,
    batches: Vec<Vec<usize>>,
    singles: usize,
}

impl<O> Recording<O> {
    fn new(inner: O) -> Self {
        Recording { inner, batches: Vec::new(), singles: 0 }
    }

    fn asked(&self) -> usize {
        self.singles + self.batches.iter().map(Vec::len).sum::<usize>()
    }
}

impl<O: IncrementalObjective> IncrementalObjective for Recording<O> {
    fn current_value(&self) -> f64 {
        self.inner.current_value()
    }
    fn gain(&mut self, item: usize) -> f64 {
        self.singles += 1;
        self.inner.gain(item)
    }
    fn gains(&mut self, items: &[usize]) -> Vec<f64> {
        self.batches.push(items.to_vec());
        items.iter().map(|&item| self.inner.gain(item)).collect()
    }
    fn insert(&mut self, item: usize) {
        self.inner.insert(item);
    }
}

/// Keeps the trait's default `gains`, so every batch becomes one `gain`
/// call per item, each counted.
#[derive(Clone)]
struct PerItem<O> {
    inner: O,
    calls: usize,
}

impl<O: IncrementalObjective> IncrementalObjective for PerItem<O> {
    fn current_value(&self) -> f64 {
        self.inner.current_value()
    }
    fn gain(&mut self, item: usize) -> f64 {
        self.calls += 1;
        self.inner.gain(item)
    }
    fn insert(&mut self, item: usize) {
        self.inner.insert(item);
    }
}

/// 30 items over 40 weighted elements, with overlaps and repeated gains.
fn instance() -> WeightedCoverage {
    let covers = (0..30).map(|i| (0..1 + i % 5).map(|j| (i * 7 + j * 11) % 40).collect()).collect();
    let weights = (0..40).map(|e| 1.0 + (e % 3) as f64).collect();
    WeightedCoverage::new(covers, weights)
}

/// Every item twice, out of order.
fn ground() -> Vec<usize> {
    (0..30).rev().chain((0..30).step_by(2)).collect()
}

fn sorted_ground() -> Vec<usize> {
    (0..30).collect()
}

fn same_trace(batched: &SelectionTrace, per_item: &SelectionTrace, context: &str) {
    assert_eq!(batched.selected, per_item.selected, "{context}: selection");
    assert_eq!(batched.steps, per_item.steps, "{context}: per-step gains");
    assert_eq!(batched.gain_evaluations, per_item.gain_evaluations, "{context}: evaluations");
}

#[test]
fn maximizers_match_the_per_item_run() {
    type Solver<O> = fn(&mut O, &[usize], usize) -> tcim_submodular::Result<SelectionTrace>;
    let solvers: [(&str, Solver<Recording<_>>, Solver<PerItem<_>>); 2] =
        [("greedy", maximize_greedy, maximize_greedy), ("lazy", maximize_lazy, maximize_lazy)];
    for (name, batched_solver, per_item_solver) in solvers {
        for budget in [1, 4, 30] {
            let context = format!("{name}, budget {budget}");
            let mut batched = Recording::new(instance());
            let mut per_item = PerItem { inner: instance(), calls: 0 };
            let a = batched_solver(&mut batched, &ground(), budget).unwrap();
            let b = per_item_solver(&mut per_item, &ground(), budget).unwrap();
            same_trace(&a, &b, &context);
            assert_eq!(a.gain_evaluations, batched.asked(), "{context}");
            assert_eq!(b.gain_evaluations, per_item.calls, "{context}");
            if name == "lazy" {
                assert_eq!(batched.batches, vec![sorted_ground()], "{context}: round 0");
            } else {
                assert_eq!(batched.singles, 0, "{context}: greedy asks in batches only");
                assert_eq!(batched.batches[0], sorted_ground(), "{context}: round 0");
            }
        }
    }
}

#[test]
fn stochastic_greedy_matches_the_per_item_run() {
    for (budget, epsilon) in [(3, 0.1), (8, 0.5), (30, 0.9)] {
        let config = StochasticGreedyConfig { epsilon, seed: 5 };
        let mut batched = Recording::new(instance());
        let mut per_item = PerItem { inner: instance(), calls: 0 };
        let a = maximize_stochastic(&mut batched, &ground(), budget, &config).unwrap();
        let b = maximize_stochastic(&mut per_item, &ground(), budget, &config).unwrap();
        let context = format!("stochastic, budget {budget}, ε {epsilon}");
        same_trace(&a, &b, &context);
        assert_eq!((a.gain_evaluations, batched.singles), (batched.asked(), 0), "{context}");
        assert_eq!(b.gain_evaluations, per_item.calls, "{context}");
    }
}

#[test]
fn covers_match_the_per_item_run() {
    type Solver<O> = fn(&mut O, &[usize], &CoverConfig) -> tcim_submodular::Result<CoverResult>;
    let solvers: [(&str, Solver<Recording<_>>, Solver<PerItem<_>>); 2] =
        [("greedy", cover_greedy, cover_greedy), ("lazy", cover_lazy, cover_lazy)];
    let full = instance().max_coverage();
    for (name, batched_solver, per_item_solver) in solvers {
        for target in [0.3 * full, 0.8 * full, full, 2.0 * full] {
            let context = format!("cover {name}, target {target}");
            let config = CoverConfig::new(target);
            let mut batched = Recording::new(instance());
            let mut per_item = PerItem { inner: instance(), calls: 0 };
            let a = batched_solver(&mut batched, &ground(), &config).unwrap();
            let b = per_item_solver(&mut per_item, &ground(), &config).unwrap();
            same_trace(&a.trace, &b.trace, &context);
            assert_eq!(a.reached, b.reached, "{context}");
            assert_eq!(a.trace.gain_evaluations, batched.asked(), "{context}");
            assert_eq!(b.trace.gain_evaluations, per_item.calls, "{context}");
            assert_eq!(batched.batches[0], sorted_ground(), "{context}: round 0");
            if name == "lazy" {
                assert_eq!(batched.batches.len(), 1, "{context}: one batch, in round 0");
            } else {
                assert_eq!(batched.singles, 0, "{context}: greedy asks in batches only");
            }
        }
    }
}

#[test]
fn a_cover_met_at_the_empty_set_asks_for_nothing() {
    let met = [
        CoverConfig::new(0.0),
        CoverConfig { target: 1.0, tolerance: 1.0, max_items: None },
        CoverConfig { target: 5.0, tolerance: 0.0, max_items: Some(0) },
    ];
    for config in met {
        for solver in [cover_greedy::<Recording<_>>, cover_lazy::<Recording<_>>] {
            let mut objective = Recording::new(instance());
            let result = solver(&mut objective, &ground(), &config).unwrap();
            assert_eq!(result.trace.gain_evaluations, 0, "{config:?}");
            assert_eq!(objective.asked(), 0, "{config:?}");
            assert!(objective.batches.is_empty(), "{config:?}");
        }
    }
}

#[test]
fn lazy_round_zero_picks_from_the_batch_alone() {
    let mut probe = instance();
    let best = (0..30).map(|item| probe.gain(item)).fold(0.0, f64::max);
    let mut objective = Recording::new(instance());
    let result = cover_lazy(&mut objective, &ground(), &CoverConfig::new(best)).unwrap();
    assert_eq!(result.seed_count(), 1);
    assert_eq!(result.trace.gain_evaluations, 30);
    assert_eq!((objective.batches, objective.singles), (vec![sorted_ground()], 0));
    let mut objective = Recording::new(instance());
    let trace = maximize_lazy(&mut objective, &ground(), 1).unwrap();
    assert_eq!(trace.gain_evaluations, 30);
    assert_eq!((objective.batches, objective.singles), (vec![sorted_ground()], 0));
}
