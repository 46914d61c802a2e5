//! BGP UPDATE messages.
//!
//! The simulator models the two UPDATE flavors that matter for churn
//! accounting: **announcements** (a reachable route with its AS path) and
//! **explicit withdrawals**. Every [`Update`] received by a node counts as
//! one unit of churn, exactly as in the paper's measurements.

use std::fmt;

use bgpscale_obs::Provenance;

use crate::path::{PathArena, PathId};

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

/// The payload of an UPDATE message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// The sender announces reachability with the given AS path (the
    /// sender itself is the first path element).
    Announce(PathId),
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
    pub fn path(&self) -> Option<PathId> {
        match self {
            UpdateKind::Announce(p) => Some(*p),
            UpdateKind::Withdraw => None,
        }
    }
}

/// One UPDATE message concerning one prefix.
///
/// ## Memory layout
///
/// Twenty bytes, `Copy`, and nothing behind a pointer: the path is a
/// [`PathId`] into the simulator's [`PathArena`] and the stamp carries its
/// root cause inline. Sending a message, queueing it at the receiver and
/// dropping it touch no allocator and no reference count.
#[derive(Clone, Copy, Debug)]
pub struct Update {
    /// The prefix the message is about.
    pub prefix: Prefix,
    /// Announcement or withdrawal.
    pub kind: UpdateKind,
    /// Causal attribution stamp (telemetry metadata, see below).
    pub provenance: Provenance,
}

const _: () = assert!(std::mem::size_of::<Update>() <= 24);

/// Equality covers the wire content only (`prefix` + `kind`; two paths of
/// one arena are equal exactly when their ids are). The provenance stamp is telemetry metadata — two updates that would be
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
    /// Convenience constructor for an announcement of `path`. The
    /// update starts unstamped; use [`Update::stamped`] to attach
    /// provenance.
    pub fn announce(prefix: Prefix, path: PathId) -> Update {
        Update {
            prefix,
            kind: UpdateKind::Announce(path),
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

impl Update {
    /// The message in words (`ANNOUNCE P7 via AS1 AS9`), its path resolved
    /// through `paths`, the arena the id was minted by.
    pub fn display<'a>(&'a self, paths: &'a PathArena) -> impl fmt::Display + 'a {
        struct Shown<'a>(&'a Update, &'a PathArena);
        impl fmt::Display for Shown<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let Shown(update, paths) = self;
                match update.kind {
                    UpdateKind::Announce(path) => {
                        write!(f, "ANNOUNCE {} via", update.prefix)?;
                        paths.hops(path).try_for_each(|hop| write!(f, " {hop}"))
                    }
                    UpdateKind::Withdraw => write!(f, "WITHDRAW {}", update.prefix),
                }
            }
        }
        Shown(self, paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let mut paths = PathArena::new();
        let route = paths.of(&[2, 3]);
        let a = Update::announce(Prefix(1), route);
        assert!(a.kind.is_announce());
        assert!(!a.kind.is_withdraw());
        assert_eq!(a.kind.path(), Some(route));
        let w = Update::withdraw(Prefix(1));
        assert!(w.kind.is_withdraw());
        assert_eq!(w.kind.path(), None);
    }

    #[test]
    fn display_formats_both_kinds() {
        let mut paths = PathArena::new();
        let a = Update::announce(Prefix(7), paths.of(&[1, 9]));
        assert_eq!(a.display(&paths).to_string(), "ANNOUNCE P7 via AS1 AS9");
        let w = Update::withdraw(Prefix(7));
        assert_eq!(w.display(&paths).to_string(), "WITHDRAW P7");
    }

    #[test]
    fn updates_compare_structurally() {
        let mut paths = PathArena::new();
        assert_eq!(
            Update::announce(Prefix(1), paths.of(&[2])),
            Update::announce(Prefix(1), paths.of(&[2]))
        );
        assert_ne!(
            Update::announce(Prefix(1), paths.of(&[2])),
            Update::announce(Prefix(1), paths.of(&[3]))
        );
        assert_ne!(Update::withdraw(Prefix(1)), Update::withdraw(Prefix(2)));
    }

    #[test]
    fn equality_ignores_the_provenance_stamp() {
        let plain = Update::withdraw(Prefix(1));
        let stamped = Update::withdraw(Prefix(1)).stamped(Provenance::root(9));
        assert_eq!(plain, stamped, "provenance is telemetry, not wire content");
        assert!(!plain.provenance.is_stamped());
        assert_eq!(stamped.provenance.roots(&Default::default()), &[9]);
    }
}
