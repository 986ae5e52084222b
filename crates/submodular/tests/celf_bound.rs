//! CELF asks an objective's `bound` before it pays for a stale gain. A valid
//! bound may only save gain evaluations: on per-group coverage under a
//! concave or truncated scalarization, the lazy solvers select the same
//! items with the same per-step gains as plain CELF and as the plain greedy
//! scan, whether or not the objective exposes its bound.
//!
//! Every value here is exact in `f64` (integer weights, dyadic slopes), so
//! equal gains tie exactly and the comparison is bitwise. Under `ln` a
//! stale gain can sit an ulp below the same item's current gain, and CELF
//! then may break an exact tie differently from the scan with or without
//! the bound.

use tcim_submodular::{
    cover_greedy, cover_lazy, maximize_greedy, maximize_lazy, CoverConfig, CoverResult,
    IncrementalObjective, SelectionTrace,
};

/// How per-group covered weight becomes the scalar objective.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `Σ_i λ_i · H(c_i)` for the piecewise-linear concave
    /// `H(c) = min(c, 4) + min(c, 10) / 2 + c / 4`.
    Concave,
    /// `Σ_i min(c_i, quota)`.
    Truncated { quota: f64 },
}

/// Weighted coverage whose elements fall into groups, scalarized by
/// [`Shape`]. It keeps each item's last per-group gain and bounds an item
/// by re-scalarizing that gain at the current per-group coverage, the bound
/// the influence objectives give.
#[derive(Clone)]
struct GroupCoverage {
    covers: Vec<Vec<usize>>,
    group_of: Vec<usize>,
    weight: Vec<f64>,
    lambda: Vec<f64>,
    shape: Shape,
    covered: Vec<bool>,
    filled: Vec<f64>,
    last: Vec<Option<Vec<f64>>>,
}

impl GroupCoverage {
    fn phi(&self, filled: &[f64]) -> f64 {
        filled
            .iter()
            .zip(&self.lambda)
            .map(|(&c, &l)| match self.shape {
                Shape::Concave => l * (c.min(4.0) + c.min(10.0) / 2.0 + c / 4.0),
                Shape::Truncated { quota } => c.min(quota),
            })
            .sum()
    }

    fn scalar_gain(&self, delta: &[f64]) -> f64 {
        let with: Vec<f64> = self.filled.iter().zip(delta).map(|(c, d)| c + d).collect();
        (self.phi(&with) - self.phi(&self.filled)).max(0.0)
    }

    fn delta(&self, item: usize) -> Vec<f64> {
        let mut delta = vec![0.0; self.lambda.len()];
        for &e in &self.covers[item] {
            if !self.covered[e] {
                delta[self.group_of[e]] += self.weight[e];
            }
        }
        delta
    }

    /// The value of `items` on a fresh copy.
    fn value_of(&self, items: &[usize]) -> f64 {
        let mut copy = self.clone();
        for &item in items {
            copy.insert(item);
        }
        copy.current_value()
    }
}

impl IncrementalObjective for GroupCoverage {
    fn current_value(&self) -> f64 {
        self.phi(&self.filled)
    }
    fn gain(&mut self, item: usize) -> f64 {
        let delta = self.delta(item);
        let gain = self.scalar_gain(&delta);
        self.last[item] = Some(delta);
        gain
    }
    fn insert(&mut self, item: usize) {
        for &e in &self.covers[item] {
            if !self.covered[e] {
                self.covered[e] = true;
                self.filled[self.group_of[e]] += self.weight[e];
            }
        }
    }
    fn bound(&self, item: usize) -> Option<f64> {
        Some(self.scalar_gain(self.last[item].as_ref()?))
    }
}

/// Forwards everything but `bound`, so the solvers run plain CELF on it.
#[derive(Clone)]
struct Hidden<O>(O);

impl<O: IncrementalObjective> IncrementalObjective for Hidden<O> {
    fn current_value(&self) -> f64 {
        self.0.current_value()
    }
    fn gain(&mut self, item: usize) -> f64 {
        self.0.gain(item)
    }
    fn gains(&mut self, items: &[usize]) -> Vec<f64> {
        self.0.gains(items)
    }
    fn insert(&mut self, item: usize) {
        self.0.insert(item);
    }
}

/// A deterministic instance: `items` items over `elements` elements with
/// small integer weights in `groups` groups, the minority groups smaller.
fn instance(
    seed: u64,
    items: usize,
    elements: usize,
    groups: usize,
    shape: Shape,
) -> GroupCoverage {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let group_of: Vec<usize> =
        (0..elements).map(|_| if next(4) == 0 { 1 + next(groups - 1) } else { 0 }).collect();
    let weight: Vec<f64> = (0..elements).map(|_| (1 + next(3)) as f64).collect();
    let covers: Vec<Vec<usize>> =
        (0..items).map(|_| (0..1 + next(6)).map(|_| next(elements)).collect()).collect();
    let lambda: Vec<f64> =
        (0..groups).map(|g| if g == 0 { 1.0 } else { (1 + next(4)) as f64 }).collect();
    GroupCoverage {
        covers,
        group_of,
        weight,
        lambda,
        shape,
        covered: vec![false; elements],
        filled: vec![0.0; groups],
        last: vec![None; items],
    }
}

/// `bounded` selects what `plain` and the plain scan `scan` select, with
/// the same per-step gains and no more gain evaluations than `plain`.
fn same_trace(
    bounded: &SelectionTrace,
    plain: &SelectionTrace,
    scan: &SelectionTrace,
    context: &str,
) {
    assert_eq!(bounded.selected, plain.selected, "{context}: selection");
    assert_eq!(bounded.steps, plain.steps, "{context}: per-step gains");
    assert_eq!(plain.selected, scan.selected, "{context}: plain CELF against the scan");
    assert!(bounded.gain_evaluations <= plain.gain_evaluations, "{context}: evaluations");
}

fn shapes() -> [Shape; 3] {
    [Shape::Concave, Shape::Truncated { quota: 6.0 }, Shape::Truncated { quota: 20.0 }]
}

#[test]
fn bounded_celf_selects_what_plain_celf_selects() {
    let (mut saved, mut runs) = (0usize, 0usize);
    for shape in shapes() {
        for seed in 0..12 {
            let f = instance(seed, 60, 90, 3, shape);
            let ground: Vec<usize> = (0..60).collect();
            for budget in [1, 5, 20, 60] {
                let context = format!("{shape:?}, seed {seed}, budget {budget}");
                let bounded = maximize_lazy(&mut f.clone(), &ground, budget).unwrap();
                let plain = maximize_lazy(&mut Hidden(f.clone()), &ground, budget).unwrap();
                let scan = maximize_greedy(&mut f.clone(), &ground, budget).unwrap();
                same_trace(&bounded, &plain, &scan, &context);
                saved += plain.gain_evaluations - bounded.gain_evaluations;
                runs += 1;
            }
        }
    }
    assert!(saved > runs, "the bound should skip re-evaluations: {saved} over {runs} runs");
}

#[test]
fn bounded_cover_selects_what_plain_cover_selects() {
    let mut saved = 0usize;
    for shape in shapes() {
        for seed in 0..12 {
            let f = instance(seed, 60, 90, 3, shape);
            let ground: Vec<usize> = (0..60).rev().collect();
            let full = f.value_of(&ground);
            for fraction in [0.3, 0.8, 1.0, 2.0] {
                let context = format!("{shape:?}, seed {seed}, target {fraction} of {full}");
                let config = CoverConfig::new(fraction * full);
                let bounded: CoverResult = cover_lazy(&mut f.clone(), &ground, &config).unwrap();
                let plain = cover_lazy(&mut Hidden(f.clone()), &ground, &config).unwrap();
                let scan = cover_greedy(&mut f.clone(), &ground, &config).unwrap();
                same_trace(&bounded.trace, &plain.trace, &scan.trace, &context);
                assert_eq!(bounded.reached, plain.reached, "{context}");
                saved += plain.trace.gain_evaluations - bounded.trace.gain_evaluations;
            }
        }
    }
    assert!(saved > 0, "the bound should skip re-evaluations");
}
