//! Seeded violation: environment reads on a deterministic path. A run
//! must be a pure function of explicit config + seed — `SOURCE_DATE`,
//! locale, or any other ambient state must not leak in.

pub fn build_date() -> String {
    std::env::var("SOURCE_DATE").unwrap_or_default() //~ env-read det-closure
}

pub fn all_ambient() -> usize {
    std::env::vars().count() //~ env-read det-closure
}

pub fn os_flavored() -> bool {
    std::env::var_os("TZ").is_some() //~ env-read det-closure
}
