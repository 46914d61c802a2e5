//! Churn accounting: who received how many updates from whom.
//!
//! The collector mirrors the paper's measurement methodology: every UPDATE
//! **received** counts one unit, attributed to the `(receiver, neighbor
//! session)` pair so that the m/q/e factors of Eq. 1 can be extracted
//! afterwards ([`crate::factors`]). Counting happens at delivery (arrival
//! in the input queue), matching "the number of routing updates received
//! by nodes" (§2).

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use std::sync::Arc;

use bgpscale_bgp::{SessionSlab, Stripe};
use bgpscale_topology::AsId;

/// Per-(receiver, neighbor-slot) update counters with a global toggle.
#[derive(Clone, Debug)]
pub struct ChurnCollector {
    enabled: bool,
    /// The session id space the counters are laid out in.
    slab: Arc<SessionSlab>,
    /// One counter per session, in the slab's global session id space:
    /// the entry of `slot` in `node`'s stripe = updates received by `node`
    /// from the neighbor at `slot` while enabled. One allocation for the
    /// whole topology, and a delivery touches one word of it.
    per_edge: Vec<u32>,
    /// Withdrawals among those (announcements = total − withdrawals).
    withdrawals: u64,
    total: u64,
}

impl ChurnCollector {
    /// Creates a disabled collector with one counter per session of
    /// `slab`, whose node `i` must be `AsId(i)`.
    pub fn new(slab: Arc<SessionSlab>) -> ChurnCollector {
        ChurnCollector {
            enabled: false,
            per_edge: vec![0; slab.total_sessions()],
            slab,
            withdrawals: 0,
            total: 0,
        }
    }

    /// Enables or disables counting. Disabled deliveries are invisible.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True while counting.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one delivered update over the receiver's session `slot`.
    #[inline]
    pub fn record(&mut self, to: Stripe, slot: u32, is_withdrawal: bool) {
        if self.enabled {
            *to.entry_mut(&mut self.per_edge, slot) += 1;
            self.total += 1;
            self.withdrawals += u64::from(is_withdrawal);
        }
    }

    /// Total updates recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Withdrawals among [`ChurnCollector::total`].
    pub fn withdrawals(&self) -> u64 {
        self.withdrawals
    }

    /// Announcements among [`ChurnCollector::total`].
    pub fn announcements(&self) -> u64 {
        self.total - self.withdrawals
    }

    /// Per-neighbor-slot counts for `node`, in session order.
    pub fn node_counts(&self, node: AsId) -> &[u32] {
        self.slab.stripe(node.0).share(&self.per_edge)
    }

    /// Total updates received by `node`.
    pub fn node_total(&self, node: AsId) -> u64 {
        self.node_counts(node).iter().map(|&c| c as u64).sum()
    }

    /// Zeroes all counters (does not change the enabled flag).
    pub fn reset(&mut self) {
        self.per_edge.fill(0);
        self.total = 0;
        self.withdrawals = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_bgp::node::Session;
    use bgpscale_topology::Relationship;

    /// A collector over T0 with two customers, C1 and C2.
    fn tiny() -> ChurnCollector {
        let session = |peer, rel| Session {
            peer: AsId(peer),
            rel,
        };
        let sessions = [
            vec![session(1, Relationship::Customer), session(2, Relationship::Customer)],
            vec![session(0, Relationship::Provider)],
            vec![session(0, Relationship::Provider)],
        ];
        ChurnCollector::new(SessionSlab::build((0..).map(AsId).zip(sessions)))
    }

    #[test]
    fn disabled_collector_ignores_records() {
        let mut c = tiny();
        c.record(c.slab.stripe(0), 0, false);
        assert_eq!(c.total(), 0);
        assert_eq!(c.node_total(AsId(0)), 0);
    }

    #[test]
    fn enabled_collector_attributes_per_slot() {
        let mut c = tiny();
        c.set_enabled(true);
        c.record(c.slab.stripe(0), 0, false);
        c.record(c.slab.stripe(0), 0, true);
        c.record(c.slab.stripe(0), 1, false);
        assert_eq!(c.total(), 3);
        assert_eq!(c.withdrawals(), 1);
        assert_eq!(c.announcements(), 2);
        assert_eq!(c.node_counts(AsId(0)), &[2, 1]);
        assert_eq!(c.node_total(AsId(0)), 3);
        assert_eq!(c.node_total(AsId(1)), 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_enabled() {
        let mut c = tiny();
        c.set_enabled(true);
        c.record(c.slab.stripe(1), 0, false);
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.node_counts(AsId(1)), &[0]);
        assert!(c.enabled());
    }

    #[test]
    fn rows_match_node_degrees() {
        let c = tiny();
        assert_eq!(c.node_counts(AsId(0)).len(), 2);
        assert_eq!(c.node_counts(AsId(1)).len(), 1);
    }
}
