// Fixture: a well-formed suppression names a known rule and gives a reason.

use std::collections::HashMap;

pub fn invariant(counts: &HashMap<u32, u32>) -> u32 {
    // lint:allow(hash-iter): an unordered sum is order-independent
    counts.values().sum()
}

pub fn same_line(counts: &HashMap<u32, u32>) -> u32 {
    counts.values().sum() // lint:allow(hash-iter): same-line form of the annotation
}
