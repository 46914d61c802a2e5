//! Fundamental vocabulary types: AS identifiers, node types, business
//! relationships, and geographic regions.

use std::fmt;

/// Identifier of an autonomous system within a generated topology.
///
/// IDs are dense indices `0..n` assigned in creation order (tier-1 nodes
/// first, then mid-level, then stubs), which lets per-node state live in
/// flat vectors throughout the simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u32);

impl AsId {
    /// The dense index of this AS.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The four AS classes of the paper's model (§3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeType {
    /// Tier-1 transit provider: no providers, full peering clique.
    T,
    /// Mid-level transit provider.
    M,
    /// Content provider stub: no customers, but may peer.
    Cp,
    /// Customer stub: no customers, never peers.
    C,
}

impl NodeType {
    /// All node types, in hierarchy order.
    pub const ALL: [NodeType; 4] = [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C];

    /// This type's position in [`NodeType::ALL`] (T=0, M=1, CP=2, C=3):
    /// the index of its cell in every per-type array of the workspace.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True for the transit classes (T and M) that carry other ASes'
    /// traffic and therefore maintain full routing tables.
    pub fn is_transit(self) -> bool {
        matches!(self, NodeType::T | NodeType::M)
    }

    /// True for the stub classes (CP and C).
    pub fn is_stub(self) -> bool {
        !self.is_transit()
    }

    /// Short label used in reports ("T", "M", "CP", "C").
    pub fn label(self) -> &'static str {
        match self {
            NodeType::T => "T",
            NodeType::M => "M",
            NodeType::Cp => "CP",
            NodeType::C => "C",
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The business relationship a node has with one of its neighbors, from the
/// node's own perspective.
///
/// A single physical link appears twice, once in each endpoint's adjacency:
/// if X buys transit from Y, then X records Y as `Provider` and Y records X
/// as `Customer`; a settlement-free link is `Peer` on both sides.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Relationship {
    /// The neighbor is this node's customer (it pays us for transit).
    Customer,
    /// The neighbor is a settlement-free peer.
    Peer,
    /// The neighbor is this node's provider (we pay it for transit).
    Provider,
}

impl Relationship {
    /// The same link as seen from the other endpoint.
    pub fn reverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
        }
    }

    /// All relationships, in the paper's preference order
    /// (customer > peer > provider).
    pub const ALL: [Relationship; 3] = [
        Relationship::Customer,
        Relationship::Peer,
        Relationship::Provider,
    ];

    /// This relationship's position in [`Relationship::ALL`] (customer = 0,
    /// peer = 1, provider = 2 — the paper's `c`, `p`, `d` subscripts): the
    /// index of its cell in every per-relation array of the workspace.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports ("cust", "peer", "prov").
    pub fn label(self) -> &'static str {
        match self {
            Relationship::Customer => "cust",
            Relationship::Peer => "peer",
            Relationship::Provider => "prov",
        }
    }
}

impl fmt::Display for Relationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The set of geographic regions an AS is present in, as a bitset.
///
/// The paper uses 5 regions; up to 16 are supported. Two ASes may only
/// connect if their region sets intersect (tier-1 nodes are present in all
/// regions, so they can connect to anyone).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegionSet(u16);

impl RegionSet {
    /// Maximum number of distinct regions supported.
    pub const MAX_REGIONS: usize = 16;

    /// The empty region set (no presence anywhere). Only valid transiently
    /// during construction.
    pub const EMPTY: RegionSet = RegionSet(0);

    /// A set containing the single region `r`.
    ///
    /// # Panics
    /// Panics if `r >= MAX_REGIONS`.
    pub fn single(r: usize) -> RegionSet {
        assert!(r < Self::MAX_REGIONS, "region {r} out of range");
        RegionSet(1 << r)
    }

    /// The set of all of the first `count` regions (used for tier-1 nodes,
    /// which are present everywhere).
    ///
    /// # Panics
    /// Panics if `count` is zero or exceeds `MAX_REGIONS`.
    pub fn all(count: usize) -> RegionSet {
        assert!(
            count > 0 && count <= Self::MAX_REGIONS,
            "region count {count} out of range"
        );
        if count == Self::MAX_REGIONS {
            RegionSet(u16::MAX)
        } else {
            RegionSet((1u16 << count) - 1)
        }
    }

    /// Adds region `r` to the set.
    pub fn insert(&mut self, r: usize) {
        assert!(r < Self::MAX_REGIONS, "region {r} out of range");
        self.0 |= 1 << r;
    }

    /// True if the set contains region `r`.
    pub fn contains(self, r: usize) -> bool {
        r < Self::MAX_REGIONS && self.0 & (1 << r) != 0
    }

    /// True if the two sets share at least one region — the condition for
    /// two ASes being allowed to interconnect.
    pub fn intersects(self, other: RegionSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of regions in the set.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the region indices in the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..Self::MAX_REGIONS).filter(move |&r| self.contains(r))
    }
}

impl fmt::Debug for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Regions{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_id_roundtrips_index() {
        assert_eq!(AsId(7).index(), 7);
        assert_eq!(format!("{}", AsId(3)), "AS3");
        assert_eq!(format!("{:?}", AsId(3)), "AS3");
    }

    #[test]
    fn node_type_classification() {
        assert!(NodeType::T.is_transit());
        assert!(NodeType::M.is_transit());
        assert!(NodeType::Cp.is_stub());
        assert!(NodeType::C.is_stub());
        assert_eq!(NodeType::Cp.label(), "CP");
    }

    #[test]
    fn index_is_the_position_in_all() {
        assert!(NodeType::ALL.iter().enumerate().all(|(i, ty)| ty.index() == i));
        assert!(Relationship::ALL.iter().enumerate().all(|(i, rel)| rel.index() == i));
    }

    #[test]
    fn relationship_reverse_is_involutive() {
        for rel in Relationship::ALL {
            assert_eq!(rel.reverse().reverse(), rel);
        }
        assert_eq!(Relationship::Customer.reverse(), Relationship::Provider);
        assert_eq!(Relationship::Peer.reverse(), Relationship::Peer);
    }

    #[test]
    fn region_single_and_contains() {
        let r = RegionSet::single(3);
        assert!(r.contains(3));
        assert!(!r.contains(2));
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn region_all_covers_count() {
        let r = RegionSet::all(5);
        assert_eq!(r.count(), 5);
        for i in 0..5 {
            assert!(r.contains(i));
        }
        assert!(!r.contains(5));
        assert_eq!(RegionSet::all(16).count(), 16);
    }

    #[test]
    fn region_insert_accumulates() {
        let mut r = RegionSet::EMPTY;
        assert!(r.is_empty());
        r.insert(0);
        r.insert(4);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 4]);
    }

    #[test]
    fn region_intersection_rules() {
        let a = RegionSet::single(1);
        let mut b = RegionSet::single(2);
        assert!(!a.intersects(b));
        b.insert(1);
        assert!(a.intersects(b));
        // Tier-1 (all regions) intersects everything non-empty.
        assert!(RegionSet::all(5).intersects(a));
        assert!(!RegionSet::all(5).intersects(RegionSet::EMPTY));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn region_single_bounds_checked() {
        let _ = RegionSet::single(16);
    }

    #[test]
    fn region_debug_formatting() {
        let mut r = RegionSet::single(0);
        r.insert(2);
        assert_eq!(format!("{r:?}"), "Regions{0,2}");
    }
}
