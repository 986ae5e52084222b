// Fixture: the suppression grammar is itself checked.

pub fn bad_rule(values: &[u32]) -> u32 {
    // lint:allow(no-such-rule): misspelled rule names must be rejected
    values.first().copied().unwrap_or(0)
}

pub fn fingerprint(k: usize) -> String {
    // lint:allow(debug-format)
    format!("{:?}", k)
}

pub fn canonical(k: usize) -> String {
    // lint:allow(debug-format):
    format!("{:?}", k)
}
