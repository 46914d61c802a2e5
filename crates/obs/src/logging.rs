//! Leveled stderr logging controlled by `BGPSCALE_LOG`.
//!
//! The binaries (`repro`, `topogen`) route their progress and diagnostic
//! chatter through [`crate::log!`] so scripted runs can silence stderr:
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

use std::sync::OnceLock;

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
pub fn max_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        // det::allow(det-closure, reason = "log verbosity only; gates stderr output, never simulated behavior or artifacts")
        std::env::var("BGPSCALE_LOG") // det::allow(env-read, reason = "log verbosity only; gates stderr output, never simulated behavior or artifacts")
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
/// bgpscale_obs::log!(Info, "running {} cells", 5);
/// bgpscale_obs::log!(Debug, "cache state: {:?}", ());
/// ```
#[macro_export]
macro_rules! log {
    ($lvl:ident, $($arg:tt)*) => {
        if $crate::logging::enabled($crate::logging::Level::$lvl) {
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn quiet_disables_everything_by_construction() {
        // `enabled` can't be tested against the env var here (OnceLock is
        // process-global), but the quiet rule is pure: nothing is <= Quiet
        // except Quiet itself, and Quiet short-circuits to false.
        assert!(Level::Quiet <= Level::Quiet);
    }

    #[test]
    fn log_macro_compiles_with_all_levels() {
        crate::log!(Quiet, "never shown {}", 1);
        crate::log!(Info, "info {}", 2);
        crate::log!(Debug, "debug {:?}", (3, 4));
    }
}
