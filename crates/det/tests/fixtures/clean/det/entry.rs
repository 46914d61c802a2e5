//! Deterministic entry whose only wall-side reach is audited at the
//! crossing site, over in util/helper.rs.

pub fn simulate(seed: u64) -> u64 {
    util::helper::ticks(seed)
}

/// Hazard names in comments (Instant::now, std::env::var) and strings
/// never become edges, even in a literal that spans lines; the code after
/// its closing quote is ordinary code again.
pub fn usage() -> String {
    let head = "usage: sim [--seed N] \
        (never reads Instant::now or std::env::var)"; let tail = "see getrandom
        notes in the docs"; format!("{head}{tail}")
}

#[cfg(test)]
mod tests {
    // Unit tests are exercised by `cargo test`, not replayed, so the
    // scanner skips this block: no entry point, no edge.
    #[test]
    pub fn scratch() {
        let _ = std::time::Instant::now();
    }
}
