//! The wall side of the workspace: the host clock and the log verbosity.
//!
//! A cell is a pure function of `(config, seed)` for any `--jobs`. What
//! may not feed into one — elapsed host time, the `BGPSCALE_LOG`
//! environment variable — lives here, in the one crate that depends on
//! all six deterministic crates. None of them can call into this module:
//! their dependency on `bgpscale-experiments` would be a cycle, which
//! cargo refuses to build. `repro profile` times the harness's phases
//! through the hook [`bgpscale_core::run_cell`] takes, not from inside it.
//!
//! * [`Stopwatch`] — elapsed host time, for progress lines, profiles and
//!   the run ledger's wall tier.
//! * [`crate::log!`] — progress chatter on stderr, controlled by
//!   `BGPSCALE_LOG`:
//!
//! ```text
//! BGPSCALE_LOG=quiet  errors only (macro output fully suppressed)
//! BGPSCALE_LOG=info   progress lines (the default)
//! ```
//!
//! The variable is read once per process (`OnceLock`); `0` and `off`
//! mean `quiet`, and any other value means `info`. Hard errors (usage,
//! failed writes) stay on plain `eprintln!` — they are the program's
//! interface, not diagnostics.

#![expect(
    clippy::disallowed_methods,
    reason = "the one home of host-clock and environment reads; no deterministic crate can depend on this one"
)]

use std::sync::OnceLock;
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

    /// Seconds elapsed since start.
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Whether a `BGPSCALE_LOG` value silences [`crate::log!`].
fn is_quiet(value: &str) -> bool {
    matches!(value.trim().to_ascii_lowercase().as_str(), "quiet" | "0" | "off")
}

/// True unless `BGPSCALE_LOG` silences progress lines (read once).
pub fn enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| !std::env::var("BGPSCALE_LOG").is_ok_and(|v| is_quiet(&v)))
}

/// Logs a progress line to stderr unless `BGPSCALE_LOG` is `quiet`:
///
/// ```
/// bgpscale_experiments::log!("running {} cells", 5);
/// ```
#[macro_export]
macro_rules! log {
    ($($arg:tt)*) => {
        if $crate::wall::enabled() {
            eprintln!($($arg)*);
        }
    };
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
    fn quiet_values() {
        for quiet in ["quiet", "OFF", " 0 "] {
            assert!(is_quiet(quiet), "{quiet:?}");
        }
        // `debug` is gone: like any other value it means `info`.
        for info in ["info", "1", "debug", "verbose", ""] {
            assert!(!is_quiet(info), "{info:?}");
        }
    }

    #[test]
    fn log_macro_formats_its_arguments() {
        crate::log!("info {}", 2);
    }
}
