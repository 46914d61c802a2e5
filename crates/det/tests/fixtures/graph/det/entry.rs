//! Deterministic-tier entry points. No wall-clock call is written in
//! this file — the reads live two hops away, behind a plain function
//! call into another crate — so no token-level ban sees them here. Only
//! the call-graph closure can.

pub fn simulate(seed: u64) -> u64 {
    util::helper::ticks(seed)
}

pub fn checkpoint(seed: u64) -> u64 {
    util::helper::stamp(seed)
}

pub fn trace(seed: u64) -> String {
    util::helper::describe(seed)
}
