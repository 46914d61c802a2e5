//! Seeded violation: allow-comment hygiene. A suppression that outlives
//! the hazard it audited must be removed (stale-allow), and a suppression
//! without an auditable reason never counts (bad-allow).

// det::allow(wall-clock, reason = "nothing on the next line reads a clock") //~ stale-allow
pub fn perfectly_fine() -> u64 {
    7
}

pub fn also_fine() -> u64 { 8 } // det::allow(env-read) //~ bad-allow

pub fn wrong_rule() {
    // The allow names a different rule than the violation, so the hazard
    // still fires and the allow is stale.
    let m = std::collections::HashMap::<u32, u32>::new(); // det::allow(wall-clock, reason = "mismatched rule") //~ unordered-collection stale-allow
    let _ = m;
}
