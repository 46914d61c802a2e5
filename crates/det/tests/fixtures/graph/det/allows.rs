//! Allow hygiene: one suppression that audits nothing (stale) and one
//! whose rule id does not exist (bad).

// det::allow(det-closure, reason = "audits nothing: no crossing anchors below") //~ stale-allow
pub fn idle(x: u64) -> u64 {
    x.rotate_left(1)
}

// det::allow(no-such-rule, reason = "the rule id is unknown") //~ bad-allow
pub fn spin(x: u64) -> u64 {
    x.rotate_right(1)
}
