//! Checks for the paper's theoretical guarantees.
//!
//! * **Theorem 1** (FAIRTCIM-BUDGET): the greedy solution `Ŝ` of P4 satisfies
//!   `f_τ(Ŝ; V) ≥ (1 − 1/e) · H(f_τ(S*; V))` where `S*` is an optimal
//!   solution of the *unfair* problem P1.
//! * **Theorem 2** (FAIRTCIM-COVER): the greedy solution `Ŝ` of P6 satisfies
//!   `|Ŝ| ≤ ln(1 + |V|) · Σ_i |S*_i|` where `S*_i` is an optimal solution of
//!   the per-group cover problem.
//!
//! Optimal solutions are intractable on real instances; the experiment
//! harness substitutes the exhaustive optimum on the illustrative graph and
//! certified over-estimates (per-group greedy solutions) elsewhere (see the
//! `theory` figure module of `tcim-bench`).

use crate::concave::ConcaveWrapper;

/// Outcome of a Theorem 1 verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem1Check {
    /// Total influence achieved by the fair greedy solution `f_τ(Ŝ; V)`.
    pub achieved_total: f64,
    /// Reference total influence `f_τ(S*; V)` of the (near-)optimal unfair
    /// solution used for the bound.
    pub reference_total: f64,
    /// The guaranteed lower bound `(1 − 1/e) · H(f_τ(S*; V))`.
    pub bound: f64,
    /// Whether the achieved value satisfies the bound (with numerical slack).
    pub satisfied: bool,
}

/// Verifies the Theorem 1 lower bound.
///
/// `achieved_total` is the total influence of the greedy FAIRTCIM-BUDGET
/// solution, `reference_total` the total influence of an optimal (or upper
/// bounding) solution of TCIM-BUDGET, and `wrapper` the concave `H` used.
pub fn theorem1_check(
    achieved_total: f64,
    reference_total: f64,
    wrapper: ConcaveWrapper,
) -> Theorem1Check {
    let bound = (1.0 - 1.0 / std::f64::consts::E) * wrapper.apply(reference_total);
    Theorem1Check {
        achieved_total,
        reference_total,
        bound,
        satisfied: achieved_total + 1e-9 >= bound,
    }
}

/// Outcome of a Theorem 2 verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem2Check {
    /// Seed-set size of the greedy FAIRTCIM-COVER solution `|Ŝ|`.
    pub achieved_size: usize,
    /// Sizes of the per-group reference cover solutions `|S*_i|`.
    pub per_group_sizes: Vec<usize>,
    /// The guaranteed upper bound `ln(1 + |V|) · Σ_i |S*_i|`.
    pub bound: f64,
    /// Whether the achieved size satisfies the bound.
    pub satisfied: bool,
}

/// Verifies the Theorem 2 upper bound.
///
/// `achieved_size` is the number of seeds the greedy FAIRTCIM-COVER solution
/// used, `per_group_sizes` the sizes of (upper bounds on) optimal per-group
/// cover solutions, and `num_nodes` the population size `|V|`.
pub fn theorem2_check(
    achieved_size: usize,
    per_group_sizes: &[usize],
    num_nodes: usize,
) -> Theorem2Check {
    let total: usize = per_group_sizes.iter().sum();
    let bound = (1.0 + num_nodes as f64).ln() * total as f64;
    Theorem2Check {
        achieved_size,
        per_group_sizes: per_group_sizes.to_vec(),
        bound,
        satisfied: (achieved_size as f64) <= bound + 1e-9,
    }
}

/// The multiplicative approximation factor discussed after Theorem 1:
/// `(1 − 1/e) · H(f*) / f*`, i.e. how much of the optimal unfair influence
/// the fair solution is guaranteed to retain. Returns 0 for `f* = 0`.
pub fn theorem1_approximation_factor(reference_total: f64, wrapper: ConcaveWrapper) -> f64 {
    if reference_total <= 0.0 {
        return 0.0;
    }
    (1.0 - 1.0 / std::f64::consts::E) * wrapper.apply(reference_total) / reference_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_bound_is_computed_and_checked() {
        let check = theorem1_check(50.0, 60.0, ConcaveWrapper::Log);
        let expected = (1.0 - 1.0 / std::f64::consts::E) * (61.0f64).ln();
        assert!((check.bound - expected).abs() < 1e-12);
        assert!(check.satisfied);

        let failing = theorem1_check(0.5, 60.0, ConcaveWrapper::Identity);
        assert!(!failing.satisfied);
    }

    #[test]
    fn theorem1_identity_recovers_the_classical_guarantee() {
        let check = theorem1_check(40.0, 60.0, ConcaveWrapper::Identity);
        assert!((check.bound - (1.0 - 1.0 / std::f64::consts::E) * 60.0).abs() < 1e-12);
        assert!(check.satisfied);
    }

    #[test]
    fn theorem2_bound_scales_with_group_solutions() {
        let check = theorem2_check(12, &[3, 4], 500);
        let expected = (501.0f64).ln() * 7.0;
        assert!((check.bound - expected).abs() < 1e-12);
        assert!(check.satisfied);

        let failing = theorem2_check(10_000, &[1, 1], 500);
        assert!(!failing.satisfied);
    }

    #[test]
    fn approximation_factor_orders_wrappers_by_curvature() {
        let f = 100.0;
        let id = theorem1_approximation_factor(f, ConcaveWrapper::Identity);
        let sqrt = theorem1_approximation_factor(f, ConcaveWrapper::Sqrt);
        let log = theorem1_approximation_factor(f, ConcaveWrapper::Log);
        assert!(id > sqrt && sqrt > log, "id {id}, sqrt {sqrt}, log {log}");
        assert!((id - (1.0 - 1.0 / std::f64::consts::E)).abs() < 1e-12);
        assert_eq!(theorem1_approximation_factor(0.0, ConcaveWrapper::Log), 0.0);
    }
}
