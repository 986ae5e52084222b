// Fixture: panic-reachability must fire when a public API function reaches
// an unannotated assert through a private helper. The assert is invisible
// to clippy (which has lints for panic macros and unwrap/expect, but none
// for assertions), and the reachability only exists across the call edge.

pub fn select_budgeted(budget: u32, cost: u32) -> u32 {
    remaining(budget, cost)
}

fn remaining(budget: u32, cost: u32) -> u32 {
    assert!(cost <= budget, "cost {cost} exceeds budget {budget}");
    budget - cost
}
