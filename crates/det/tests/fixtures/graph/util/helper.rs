//! Mid-tier helpers: scanned, but in neither the deterministic tier nor
//! a sanctioned wall-side module. The crossings below are exactly what a
//! token-level ban cannot attribute to the deterministic tier; det-closure
//! anchors them here via the call graph, with a witness path.

pub fn ticks(seed: u64) -> u64 {
    let base = wall::clock::now_us(); //~ det-closure
    base.wrapping_add(seed)
}

pub fn stamp(seed: u64) -> u64 {
    let t = std::time::Instant::now(); //~ det-closure
    mix(seed, t.elapsed().as_secs())
}

/// The crossing sits in the arguments *after* a format string that
/// continues over a line break: the lexer must know the literal closed
/// mid-line, or the call below is swallowed as string text.
pub fn describe(seed: u64) -> String {
    format!("seed {} traced at \
        {} us", seed, wall::clock::now_us()) //~ det-closure
}

fn mix(a: u64, b: u64) -> u64 {
    a ^ b.rotate_left(7)
}
