//! Peak resident-set-size sampling (wall-side telemetry only).
//!
//! Reads the process high-water RSS mark (`VmHWM`) from
//! `/proc/self/status`. Like the host clock and the optional allocation
//! counters, peak RSS is **never** allowed into a
//! deterministic artifact: it depends on the machine, the allocator and
//! the worker count, so it is reported only by the benchmark
//! (`peak_rss_mb`) and in the run ledger's `wall` tier (which carries a
//! tolerance band at most, never an equality gate).

/// The process's peak resident set size in bytes, or `None` when the
/// platform does not expose it (non-Linux, or an unparsable
/// `/proc/self/status`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts `VmHWM` (reported by the kernel in kibibytes) as bytes.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_typical_status_line() {
        let status = "Name:\trepro\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), Some(20480 * 1024));
    }

    #[test]
    fn missing_field_yields_none() {
        assert_eq!(parse_vm_hwm("Name:\trepro\nThreads:\t8\n"), None);
    }

    #[test]
    fn malformed_value_yields_none() {
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the wall-side reading under test")]
    fn live_reading_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("linux exposes VmHWM");
        assert!(rss > 0);
    }
}
