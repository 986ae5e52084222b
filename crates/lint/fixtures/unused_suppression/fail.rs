// Fixture: unused-suppression must fire on an annotation whose rule never
// produces a finding at the annotated site — stale allowances rot into
// false documentation.

// lint:allow(debug-format): left over from a deleted Debug encoding
pub fn total(values: &[u32]) -> u32 {
    values.iter().sum()
}
