// Fixture: panic-reachability stays quiet when the reachable assert states
// its invariant with an annotation, and ignores debug_assert (compiled out
// of release builds, so not part of the release panic surface).

pub fn select_budgeted(budget: u32, cost: u32) -> u32 {
    remaining(budget, cost)
}

fn remaining(budget: u32, cost: u32) -> u32 {
    // lint:allow(panic-reachability): callers validate cost <= budget at the API boundary
    assert!(cost <= budget, "cost {cost} exceeds budget {budget}");
    debug_assert!(budget < u32::MAX / 2);
    budget - cost
}
