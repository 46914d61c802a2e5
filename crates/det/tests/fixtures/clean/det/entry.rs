//! Deterministic entry whose only wall-side reach is audited at the
//! crossing site, over in util/helper.rs.

pub fn simulate(seed: u64) -> u64 {
    util::helper::ticks(seed)
}
