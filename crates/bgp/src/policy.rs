//! Routing policies: Gao–Rexford export rules and local preference.
//!
//! The paper's configuration (§2): *"Routes learned from customers are
//! announced to all neighbors, while routes learned from peers or providers
//! are only announced to customers. A node prefers a route learned from a
//! customer over a route learned from a peer, over a route learned from a
//! provider."*
//!
//! Sender-side loop detection lives in the export loop of
//! [`crate::BgpNode`], after [`export_allowed`]: a node never exports a
//! route to a neighbor already on its AS path — the neighbor would
//! discard it anyway, and the paper's update accounting assumes such
//! sends are suppressed ("N will always send an update to its customers,
//! unless its preferred path to Z goes through the customer itself",
//! §4.1). The test is [`crate::PathArena::contains`], which reads the
//! path's hop mask.

use bgpscale_topology::Relationship;

/// Where a node's best route for a prefix comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteSource {
    /// The node originates the prefix itself.
    SelfOriginated,
    /// Learned from a neighbor with the given relationship (our view of
    /// the neighbor).
    Learned(Relationship),
}

/// LOCAL_PREF encoding of the prefer-customer policy. Higher is better.
/// Self-originated routes outrank everything.
pub fn local_pref(source: RouteSource) -> u8 {
    match source {
        RouteSource::SelfOriginated => 3,
        RouteSource::Learned(Relationship::Customer) => 2,
        RouteSource::Learned(Relationship::Peer) => 1,
        RouteSource::Learned(Relationship::Provider) => 0,
    }
}

/// The Gao–Rexford export filter: may a route from `source` be announced
/// to a neighbor we regard as `to`?
///
/// * Customer-learned and self-originated routes are exported to everyone
///   (they earn or cost nothing extra).
/// * Peer- and provider-learned routes are exported **only to customers**
///   (exporting them elsewhere would provide free transit).
pub fn export_allowed(source: RouteSource, to: Relationship) -> bool {
    match source {
        RouteSource::SelfOriginated | RouteSource::Learned(Relationship::Customer) => true,
        RouteSource::Learned(Relationship::Peer) | RouteSource::Learned(Relationship::Provider) => {
            to == Relationship::Customer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUST: RouteSource = RouteSource::Learned(Relationship::Customer);
    const PEER: RouteSource = RouteSource::Learned(Relationship::Peer);
    const PROV: RouteSource = RouteSource::Learned(Relationship::Provider);

    #[test]
    fn local_pref_orders_customer_over_peer_over_provider() {
        assert!(local_pref(RouteSource::SelfOriginated) > local_pref(CUST));
        assert!(local_pref(CUST) > local_pref(PEER));
        assert!(local_pref(PEER) > local_pref(PROV));
    }

    #[test]
    fn customer_routes_export_everywhere() {
        for to in Relationship::ALL {
            assert!(export_allowed(CUST, to), "customer route to {to:?}");
            assert!(export_allowed(RouteSource::SelfOriginated, to));
        }
    }

    #[test]
    fn peer_and_provider_routes_export_only_to_customers() {
        for src in [PEER, PROV] {
            assert!(export_allowed(src, Relationship::Customer));
            assert!(!export_allowed(src, Relationship::Peer), "{src:?}→peer leaks");
            assert!(!export_allowed(src, Relationship::Provider), "{src:?}→provider leaks");
        }
    }

    /// The export matrix is exactly the one that guarantees valley-free
    /// paths: composing allowed exports can never produce down-up or
    /// peer-peer-peer shapes.
    #[test]
    fn export_matrix_is_valley_free() {
        // A route arriving at a node came over a link whose "shape" is
        // up (from customer), flat (from peer), or down (from provider)
        // as seen along the path direction of propagation. Export to a
        // customer = the update flows down; to a peer = flat; to a
        // provider = up. Valley-freedom requires: once flat or down,
        // only down is allowed.
        for src in [PEER, PROV] {
            // After a flat/down step, the only allowed next step is down
            // (export to customer = update flows to customer = path goes
            // provider→customer = down).
            assert!(export_allowed(src, Relationship::Customer));
            assert!(!export_allowed(src, Relationship::Peer));
            assert!(!export_allowed(src, Relationship::Provider));
        }
    }
}
