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
//! * [`crate::log!`] — leveled progress chatter on stderr, controlled by
//!   `BGPSCALE_LOG`:
//!
//! ```text
//! BGPSCALE_LOG=quiet  errors only (macro output fully suppressed)
//! BGPSCALE_LOG=info   progress lines (the default)
//! BGPSCALE_LOG=debug  everything, including per-cell detail
//! ```
//!
//! The level is read once per process (`OnceLock`); unrecognized values
//! fall back to `info`. Hard errors (usage, failed writes) stay on plain
//! `eprintln!` — they are the program's interface, not diagnostics.

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

/// Verbosity levels, ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Suppress all `log!` output.
    Quiet = 0,
    /// Progress lines (default).
    Info = 1,
    /// Detailed diagnostics.
    Debug = 2,
}

impl Level {
    /// Parses a `BGPSCALE_LOG` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "quiet" | "0" | "off" => Some(Level::Quiet),
            "info" | "1" => Some(Level::Info),
            "debug" | "2" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// The process-wide maximum level, from `BGPSCALE_LOG` (default `info`).
fn max_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("BGPSCALE_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Info)
    })
}

/// True if messages at `level` should be emitted. Messages tagged
/// `Quiet` are never emitted (it is a threshold, not a message level).
pub fn enabled(level: Level) -> bool {
    level != Level::Quiet && level <= max_level()
}

/// Logs a line to stderr if the given level is enabled:
///
/// ```
/// bgpscale_experiments::log!(Info, "running {} cells", 5);
/// bgpscale_experiments::log!(Debug, "cache state: {:?}", ());
/// ```
#[macro_export]
macro_rules! log {
    ($lvl:ident, $($arg:tt)*) => {
        if $crate::wall::enabled($crate::wall::Level::$lvl) {
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
    fn level_parsing() {
        assert_eq!(Level::parse("quiet"), Some(Level::Quiet));
        assert_eq!(Level::parse("OFF"), Some(Level::Quiet));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("2"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Quiet < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn log_macro_compiles_with_all_levels() {
        crate::log!(Quiet, "never shown {}", 1);
        crate::log!(Info, "info {}", 2);
        crate::log!(Debug, "debug {:?}", (3, 4));
    }
}
