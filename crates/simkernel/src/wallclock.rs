//! Wall-clock timing utilities (host time, never simulated time).
//!
//! The kernel's simulated clock ([`crate::SimTime`]) is deterministic and
//! must stay free of host-time contamination; profiling, on the other
//! hand, needs real elapsed time. This module is the one sanctioned place
//! where `std::time::Instant` enters the workspace: span profiles
//! (`bgpscale-obs`) and the bench harness build on it, and nothing here
//! may feed back into simulation results.

// The one sanctioned home for host-clock reads (mirrored by clippy.toml's
// disallowed-methods and det.toml's `[wall-side]` modules).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

/// A started wall-clock stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since start.
    pub fn elapsed_ns(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }

    /// Elapsed time since start as a [`std::time::Duration`], for callers
    /// that do duration arithmetic (e.g. the bench harness budgets).
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// Times a closure, returning its result and the elapsed wall time in
/// nanoseconds.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn time_it_returns_result_and_duration() {
        let (value, ns) = time_it(|| (0..1000u64).sum::<u64>());
        assert_eq!(value, 499_500);
        // Duration is measured; zero is theoretically possible on coarse
        // clocks, so only assert it is not absurd.
        assert!(ns < 10_000_000_000);
    }
}
