//! Clean fixture: idiomatic deterministic-tier code. Every construct here
//! is the sanctioned counterpart of a hazard in `../bad/`, plus one
//! audited allow that **is** used — the scan must report zero findings
//! (false positives fail the self-test).

use std::collections::{BTreeMap, BTreeSet};

/// Ordered fold: BTreeMap iteration order is the key order, always.
pub fn churn_by_type(counts: &BTreeMap<u32, u64>) -> Vec<(u32, u64)> {
    counts.iter().map(|(t, c)| (*t, *c)).collect()
}

/// Ordered dedup.
pub fn dedup_links(links: &[(u32, u32)]) -> usize {
    let mut seen = BTreeSet::new();
    links.iter().filter(|l| seen.insert(**l)).count()
}

/// Integer-only counters (this file is declared integer-only): exact sums
/// merge bit-identically in any order.
pub struct Counter {
    total_e9: u64,
    events: u64,
}

impl Counter {
    pub fn add(&mut self, micros: u64) {
        self.total_e9 += micros * 1000;
        self.events += 1;
    }
}

/// Seeded randomness via the workspace PRNG — replayable from the seed.
pub fn jitter(seed: u64) -> u64 {
    splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The audited escape hatch in action: a wall-clock type on a
/// deterministic path, suppressed by a counted, reasoned allow (fixtures
/// are scanner input, never compiled, so the path need not resolve).
pub fn profile_hook() {
    let _watch = sanctioned::Stopwatch::start(); // det::allow(wall-clock, reason = "bench-only profiling scope; never enters deterministic artifacts")
}

// Hazard names in comments (Instant::now, HashMap, thread_rng) and in
// strings must never fire:
pub fn describe() -> &'static str {
    "avoid Instant::now(), HashMap iteration, and thread_rng() in sim code"
}

// …including in a literal that spans lines, with or without a trailing
// backslash; the code after its closing quote is ordinary code again.
pub fn usage() -> String {
    let head = "usage: sim [--seed N] \
        (never reads Instant::now or std::env::var)"; let tail = "see HashMap
        notes in the docs"; format!("{head}{tail}")
}

#[cfg(test)]
mod tests {
    // Unit tests are exercised by `cargo test`, not replayed; hazards in
    // them cannot corrupt artifacts, so the scanner skips this block.
    use std::collections::HashSet;
    use std::time::Instant;

    #[test]
    fn scratch() {
        let _ = Instant::now();
        let _: HashSet<u32> = HashSet::new();
    }
}
