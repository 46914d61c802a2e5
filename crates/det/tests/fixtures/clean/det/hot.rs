//! Hot-path root; the reachable panic is an audited invariant.

pub fn step(frame: u64) -> u64 {
    pick(frame).wrapping_mul(3)
}

// det::allow(panic-surface, reason = "slot is frame % 4, always within the 4-entry table")
fn pick(frame: u64) -> u64 {
    let table = [2u64, 3, 5, 8];
    let slot = (frame % 4) as usize;
    table[slot]
}
