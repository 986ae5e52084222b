//! The benchmark's one wall-clock source.

pub use std::time::Instant;

pub fn now() -> Instant {
    // lint:allow(wall-clock): the benchmark's own timer; readings never reach a request or a response
    Instant::now()
}
