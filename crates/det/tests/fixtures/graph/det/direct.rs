//! Crossings written in the deterministic tier itself. The sanctioned
//! `Stopwatch` is legal for clippy (only `Instant::now` is banned), so
//! det-closure is what keeps it out of the deterministic closure; the env
//! and entropy reads are external wall/env APIs it knows by name.

use wall::Stopwatch;

pub fn timed(seed: u64) -> u64 {
    let _watch = Stopwatch::start(); //~ det-closure
    seed.rotate_left(3)
}

pub fn seed_from_env() -> u64 {
    std::env::var("SEED").map_or(0, |v| v.len() as u64) //~ det-closure
}

pub fn fresh_seed(buf: &mut [u8]) {
    getrandom(buf); //~ det-closure
}
