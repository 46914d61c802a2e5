//! The audited crossing: reading the sanctioned wall-side module is
//! fine here because the result never feeds a deterministic artifact.

pub fn ticks(seed: u64) -> u64 {
    let base = wall::clock::now_us(); // det::allow(det-closure, reason = "diagnostic timing only; never feeds a deterministic artifact")
    base.wrapping_add(seed)
}
