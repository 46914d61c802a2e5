//! Seeded violation: wall-clock date reads. A `SystemTime`-derived value
//! in an artifact makes two otherwise-identical runs differ by when they
//! were launched.

pub fn report_stamp() -> u64 {
    std::time::SystemTime::now() //~ wall-clock det-closure
        .duration_since(std::time::UNIX_EPOCH) //~ wall-clock
        .map(|d| d.as_secs())
        .unwrap_or(0)
}
