//! Deterministic-tier entry points. No banned token appears anywhere in
//! this file — the wall-clock reads live two hops away, behind a plain
//! function call into another crate — so the line rules have
//! nothing to flag here. Only the call-graph closure can see it.

pub fn simulate(seed: u64) -> u64 {
    util::helper::ticks(seed)
}

pub fn checkpoint(seed: u64) -> u64 {
    util::helper::stamp(seed)
}

pub fn trace(seed: u64) -> String {
    util::helper::describe(seed)
}
