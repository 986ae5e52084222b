// Fixture: one documented `unsafe` block, for the unsafe-count pin tests.

pub fn read_first(ptr: *const u8) -> u8 {
    // SAFETY: callers guarantee `ptr` is non-null, aligned, and points to
    // at least one initialized byte for the duration of the call.
    unsafe { *ptr }
}
