//! Parallelism control for Monte-Carlo estimation.
//!
//! Every parallel code path in this crate is **deterministic**: world `i` is
//! always sampled from `StdRng::seed_from_u64(base_seed + i)` and per-world
//! activation counts are accumulated as integers (`u64`) before the single
//! final conversion to `f64`, so serial and parallel runs — at *any* thread
//! count — produce bitwise-identical [`crate::GroupInfluence`] vectors.
//! Parallelism is therefore purely a throughput knob, safe to flip anywhere.

use rayon::{ThreadPool, ThreadPoolBuilder};

/// How many worker threads Monte-Carlo sampling and evaluation may use.
///
/// The default is [`ParallelismConfig::auto`], which follows the machine
/// (`RAYON_NUM_THREADS` or the number of available cores). Solvers thread
/// this knob through [`crate::WorldsConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelismConfig {
    /// Requested worker threads; `0` means "decide from the environment".
    num_threads: usize,
}

impl ParallelismConfig {
    /// Follow the environment (all available cores unless `RAYON_NUM_THREADS`
    /// caps them).
    pub const fn auto() -> Self {
        ParallelismConfig { num_threads: 0 }
    }

    /// Single-threaded execution.
    pub const fn serial() -> Self {
        ParallelismConfig { num_threads: 1 }
    }

    /// Exactly `num_threads` workers; `0` is equivalent to [`Self::auto`].
    pub const fn fixed(num_threads: usize) -> Self {
        ParallelismConfig { num_threads }
    }

    /// The thread count this configuration resolves to on this machine.
    pub fn resolved_threads(&self) -> usize {
        if self.num_threads == 0 {
            rayon::current_num_threads()
        } else {
            self.num_threads
        }
    }

    /// `true` when the configuration resolves to exactly one thread.
    pub fn is_serial(&self) -> bool {
        self.resolved_threads() <= 1
    }

    /// Runs `op` under a thread pool sized by this configuration.
    ///
    /// Public so higher layers (the campaign-serving batch engine, custom
    /// experiment harnesses) can fan work out under the same knob the
    /// estimators use. Rayon parallel iterators inside `op` pick up the pool
    /// automatically.
    pub fn run<R>(&self, op: impl FnOnce() -> R) -> R {
        #[expect(
            clippy::expect_used,
            reason = "the vendored rayon stand-in's build() is infallible by construction"
        )]
        let pool: ThreadPool = ThreadPoolBuilder::new()
            .num_threads(self.resolved_threads())
            .build()
            .expect("thread pool construction cannot fail");
        pool.install(op)
    }
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig::auto()
    }
}

impl From<usize> for ParallelismConfig {
    /// `0` maps to [`ParallelismConfig::auto`], anything else to
    /// [`ParallelismConfig::fixed`].
    fn from(num_threads: usize) -> Self {
        ParallelismConfig::fixed(num_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resolves_to_one_thread() {
        assert_eq!(ParallelismConfig::serial().resolved_threads(), 1);
        assert!(ParallelismConfig::serial().is_serial());
    }

    #[test]
    fn fixed_resolves_to_the_requested_count() {
        assert_eq!(ParallelismConfig::fixed(7).resolved_threads(), 7);
        assert!(!ParallelismConfig::fixed(7).is_serial());
        assert_eq!(ParallelismConfig::from(3), ParallelismConfig::fixed(3));
    }

    #[test]
    fn auto_resolves_to_at_least_one_thread() {
        assert!(ParallelismConfig::auto().resolved_threads() >= 1);
        assert_eq!(ParallelismConfig::default(), ParallelismConfig::auto());
        assert_eq!(ParallelismConfig::from(0), ParallelismConfig::auto());
    }

    #[test]
    fn run_executes_under_the_requested_pool() {
        let got = ParallelismConfig::fixed(2).run(rayon::current_num_threads);
        assert_eq!(got, 2);
    }
}
