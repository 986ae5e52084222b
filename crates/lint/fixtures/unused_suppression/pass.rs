// Fixture: unused-suppression stays quiet on annotations that suppress a
// live finding, and on deliberately-kept annotations shielded with an
// unused-suppression allowance of their own.

pub fn fingerprint(k: usize) -> String {
    // lint:allow(debug-format): integer Debug output is its Display output
    format!("{k:?}")
}

// lint:allow(unused-suppression): retained as the documentation example
// lint:allow(debug-format): intentionally unused, shielded above
pub fn noop() {}
