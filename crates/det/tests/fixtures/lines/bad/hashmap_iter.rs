//! Seeded violation: folding over an unordered map on a deterministic
//! path. Iteration order is unspecified, so the fold result (and any
//! artifact derived from it) depends on the hasher — exactly the class of
//! bug the jobs-1/4/8 runtime tests can only catch by luck.
//!
//! NOTE: fixtures are scanner input, never compiled.

use std::collections::HashMap; //~ unordered-collection

pub fn churn_by_type(counts: &HashMap<u32, u64>) -> Vec<(u32, u64)> { //~ unordered-collection
    let mut out = Vec::new();
    for (ty, count) in counts.iter() {
        out.push((*ty, *count));
    }
    out
}

pub fn dedup_links(links: &[(u32, u32)]) -> usize {
    let mut seen = std::collections::HashSet::new(); //~ unordered-collection
    links.iter().filter(|l| seen.insert(**l)).count()
}

// A mention of HashMap in a comment, and one in a string, must NOT fire:
pub fn describe() -> &'static str {
    "prefer BTreeMap over HashMap on deterministic paths"
}
