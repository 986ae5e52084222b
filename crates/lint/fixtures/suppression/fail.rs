// Fixture: the suppression grammar is itself checked.

use std::collections::HashMap;

pub fn bad_rule(values: &[u32]) -> u32 {
    // lint:allow(no-such-rule): misspelled rule names must be rejected
    values.first().copied().unwrap_or(0)
}

pub fn missing_reason(counts: &HashMap<u32, u32>) -> u32 {
    // lint:allow(hash-iter)
    counts.values().sum()
}

pub fn empty_reason(counts: &HashMap<u32, u32>) -> u32 {
    // lint:allow(hash-iter):
    counts.values().sum()
}
