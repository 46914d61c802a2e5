//! BGP UPDATE messages.
//!
//! The simulator models the two UPDATE flavors that matter for churn
//! accounting: **announcements** (a reachable route with its AS path) and
//! **explicit withdrawals**. Every [`Update`] received by a node counts as
//! one unit of churn, exactly as in the paper's measurements.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use bgpscale_obs::Provenance;
use bgpscale_topology::AsId;

/// A routable destination. The paper studies single-prefix events, so a
/// prefix is an opaque identifier; library users announcing real address
/// blocks can maintain their own mapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix(pub u32);

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// An AS path: the sequence of ASes a route has traversed, **nearest AS
/// first, origin last**. A node prepends its own id when exporting.
///
/// Interned behind an `Arc<[AsId]>`: once built, a path is immutable and
/// [`Clone`] is a reference-count bump. This matters on the per-update hot
/// path — a single best-route change fans the same export path out to every
/// neighbor queue, and each RIB install, Adj-RIB-out entry, and wire
/// message shares one allocation instead of copying the hop list.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AsPath(Arc<[AsId]>);

impl AsPath {
    /// The empty path (self-originated routes). Allocation-free: all empty
    /// paths share one static backing buffer.
    pub fn new() -> AsPath {
        static EMPTY: OnceLock<Arc<[AsId]>> = OnceLock::new();
        AsPath(EMPTY.get_or_init(|| Arc::from([])).clone())
    }

    /// Builds the export path `head · tail` (ourselves prepended to the
    /// best path) in a single pass and a single allocation: the chained
    /// iterator reports its exact length, so `Arc<[_]>` is sized once and
    /// filled in place, with no intermediate `Vec`.
    pub fn prepended(head: AsId, tail: &[AsId]) -> AsPath {
        AsPath(std::iter::once(head).chain(tail.iter().copied()).collect())
    }

    /// The hops as a slice (also available through [`Deref`]).
    pub fn as_slice(&self) -> &[AsId] {
        &self.0
    }

    /// True if both paths share one backing allocation (interned clones of
    /// the same build). Used by tests to pin the Adj-RIB-out interning
    /// invariant: exporting one best route to k neighbors must be k
    /// refcount bumps of a single `prepended` allocation, never k copies.
    pub fn ptr_eq(a: &AsPath, b: &AsPath) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for AsPath {
    fn default() -> Self {
        AsPath::new()
    }
}

impl Deref for AsPath {
    type Target = [AsId];

    fn deref(&self) -> &[AsId] {
        &self.0
    }
}

impl From<Vec<AsId>> for AsPath {
    fn from(hops: Vec<AsId>) -> AsPath {
        AsPath(hops.into())
    }
}

impl From<&[AsId]> for AsPath {
    fn from(hops: &[AsId]) -> AsPath {
        AsPath(hops.into())
    }
}

impl FromIterator<AsId> for AsPath {
    fn from_iter<I: IntoIterator<Item = AsId>>(iter: I) -> AsPath {
        AsPath(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a AsPath {
    type Item = &'a AsId;
    type IntoIter = std::slice::Iter<'a, AsId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// The payload of an UPDATE message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// The sender announces reachability with the given AS path (the
    /// sender itself is the first path element).
    Announce(AsPath),
    /// The sender explicitly withdraws its previously announced route.
    Withdraw,
}

impl UpdateKind {
    /// True for announcements.
    pub fn is_announce(&self) -> bool {
        matches!(self, UpdateKind::Announce(_))
    }

    /// True for withdrawals.
    pub fn is_withdraw(&self) -> bool {
        matches!(self, UpdateKind::Withdraw)
    }

    /// The announced path, if any.
    pub fn path(&self) -> Option<&AsPath> {
        match self {
            UpdateKind::Announce(p) => Some(p),
            UpdateKind::Withdraw => None,
        }
    }
}

/// One UPDATE message concerning one prefix.
#[derive(Clone, Debug)]
pub struct Update {
    /// The prefix the message is about.
    pub prefix: Prefix,
    /// Announcement or withdrawal.
    pub kind: UpdateKind,
    /// Causal attribution stamp (telemetry metadata, see below). Cheap to
    /// clone: the root set is interned behind an `Arc`.
    pub provenance: Provenance,
}

/// Equality covers the wire content only (`prefix` + `kind`). The
/// provenance stamp is telemetry metadata — two updates that would be
/// byte-identical on the wire compare equal regardless of which root
/// cause produced them, so structural assertions in tests and the MRAI
/// no-op suppression logic are unaffected by stamping.
impl PartialEq for Update {
    fn eq(&self, other: &Update) -> bool {
        self.prefix == other.prefix && self.kind == other.kind
    }
}

impl Eq for Update {}

impl Update {
    /// Convenience constructor for an announcement. Accepts anything
    /// convertible to an [`AsPath`] (a `Vec<AsId>`, a slice, or an
    /// already-interned path, which is reused without copying). The
    /// update starts unstamped; use [`Update::stamped`] to attach
    /// provenance.
    pub fn announce(prefix: Prefix, path: impl Into<AsPath>) -> Update {
        Update {
            prefix,
            kind: UpdateKind::Announce(path.into()),
            provenance: Provenance::none(),
        }
    }

    /// Convenience constructor for a withdrawal (unstamped).
    pub fn withdraw(prefix: Prefix) -> Update {
        Update {
            prefix,
            kind: UpdateKind::Withdraw,
            provenance: Provenance::none(),
        }
    }

    /// Attaches a provenance stamp (builder style).
    pub fn stamped(mut self, provenance: Provenance) -> Update {
        self.provenance = provenance;
        self
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            UpdateKind::Announce(path) => {
                write!(f, "ANNOUNCE {} via ", self.prefix)?;
                let mut first = true;
                for hop in path {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{hop}")?;
                    first = false;
                }
                Ok(())
            }
            UpdateKind::Withdraw => write!(f, "WITHDRAW {}", self.prefix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let a = Update::announce(Prefix(1), vec![AsId(2), AsId(3)]);
        assert!(a.kind.is_announce());
        assert!(!a.kind.is_withdraw());
        assert_eq!(a.kind.path(), Some(&AsPath::from(vec![AsId(2), AsId(3)])));
        let w = Update::withdraw(Prefix(1));
        assert!(w.kind.is_withdraw());
        assert_eq!(w.kind.path(), None);
    }

    #[test]
    fn path_clone_shares_the_backing_buffer() {
        let a = AsPath::from(vec![AsId(1), AsId(2)]);
        let b = a.clone();
        assert!(std::sync::Arc::ptr_eq(&a.0, &b.0), "clone must not copy hops");
        assert_eq!(a, b);
    }

    #[test]
    fn empty_paths_share_one_static_buffer() {
        let a = AsPath::new();
        let b = AsPath::default();
        assert!(std::sync::Arc::ptr_eq(&a.0, &b.0));
        assert!(a.is_empty());
    }

    #[test]
    fn prepended_builds_the_export_path() {
        let tail = AsPath::from(vec![AsId(5), AsId(9)]);
        let export = AsPath::prepended(AsId(1), &tail);
        assert_eq!(export.as_slice(), &[AsId(1), AsId(5), AsId(9)]);
        assert_eq!(AsPath::prepended(AsId(3), &[]).as_slice(), &[AsId(3)]);
    }

    #[test]
    fn display_formats_both_kinds() {
        let a = Update::announce(Prefix(7), vec![AsId(1), AsId(9)]);
        assert_eq!(a.to_string(), "ANNOUNCE P7 via AS1 AS9");
        let w = Update::withdraw(Prefix(7));
        assert_eq!(w.to_string(), "WITHDRAW P7");
    }

    #[test]
    fn updates_compare_structurally() {
        assert_eq!(
            Update::announce(Prefix(1), vec![AsId(2)]),
            Update::announce(Prefix(1), vec![AsId(2)])
        );
        assert_ne!(
            Update::announce(Prefix(1), vec![AsId(2)]),
            Update::announce(Prefix(1), vec![AsId(3)])
        );
        assert_ne!(Update::withdraw(Prefix(1)), Update::withdraw(Prefix(2)));
    }

    #[test]
    fn equality_ignores_the_provenance_stamp() {
        let plain = Update::withdraw(Prefix(1));
        let stamped = Update::withdraw(Prefix(1)).stamped(Provenance::root(9));
        assert_eq!(plain, stamped, "provenance is telemetry, not wire content");
        assert!(!plain.provenance.is_stamped());
        assert_eq!(stamped.provenance.roots(), &[9]);
        assert_eq!(stamped.clone().provenance.roots(), &[9]);
    }
}
