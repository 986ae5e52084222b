// Fixture: unused-suppression stays quiet on annotations that suppress a
// live finding, and on deliberately-kept annotations shielded with an
// unused-suppression allowance of their own.

pub fn total(counts: &std::collections::HashMap<u32, u32>) -> u32 {
    // lint:allow(hash-iter): an unordered sum is order-independent
    counts.values().sum()
}

// lint:allow(unused-suppression): retained as the documentation example
// lint:allow(hash-iter): intentionally unused, shielded above
pub fn noop() {}
