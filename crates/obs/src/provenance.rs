//! Churn provenance: causal attribution stamps for UPDATE messages.
//!
//! Every UPDATE the simulator delivers can be traced back to the **root
//! cause** that set the network in motion — an origination, an origin
//! withdrawal, a session reset, or a damping reuse event. A
//! [`Provenance`] stamp travels with the message and records:
//!
//! * the set of root-cause event ids that contributed to it (usually one;
//!   more when MRAI coalescing folded updates from different causes into
//!   one transmission),
//! * the **causal depth**: how many receive→decide→export hops separate
//!   the message from the root cause (0 for messages sent directly by the
//!   root-cause node),
//! * the sending edge's Gao–Rexford relation, as seen by the *sender*
//!   (`Customer` = "sent to our customer").
//!
//! Stamps are telemetry metadata, not protocol content: they are excluded
//! from message equality, never influence the decision process, and a
//! simulation with stamping produces bit-identical churn reports to one
//! without. Root ids are allocated sequentially by the simulator, so the
//! stamp stream is a pure function of the simulated trajectory and all
//! derived artifacts stay byte-identical across `--jobs` levels.

use bgpscale_topology::Relationship;

/// Why a root-cause event happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RootCauseKind {
    /// A node started originating a prefix (the "UP" action, including
    /// the uncounted warm-up announcement of a C-event).
    Originate,
    /// A node stopped originating a prefix (the "DOWN" action).
    WithdrawOrigin,
    /// A link failed: both BGP sessions dropped (an L-event half).
    SessionDown,
    /// A failed link was restored: both sessions re-established.
    SessionUp,
    /// A Route-Flap-Damping reuse wake-up re-ran a decision process.
    RfdReuse,
}

impl RootCauseKind {
    /// All kinds, in stable index order.
    pub const ALL: [RootCauseKind; 5] = [
        RootCauseKind::Originate,
        RootCauseKind::WithdrawOrigin,
        RootCauseKind::SessionDown,
        RootCauseKind::SessionUp,
        RootCauseKind::RfdReuse,
    ];

    /// Stable dense index (0..5), used by counters.
    pub fn index(self) -> usize {
        match self {
            RootCauseKind::Originate => 0,
            RootCauseKind::WithdrawOrigin => 1,
            RootCauseKind::SessionDown => 2,
            RootCauseKind::SessionUp => 3,
            RootCauseKind::RfdReuse => 4,
        }
    }

    /// Stable lowercase name, used in metric keys and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RootCauseKind::Originate => "originate",
            RootCauseKind::WithdrawOrigin => "withdraw_origin",
            RootCauseKind::SessionDown => "session_down",
            RootCauseKind::SessionUp => "session_up",
            RootCauseKind::RfdReuse => "rfd_reuse",
        }
    }
}

/// The interned root sets of coalesced stamps.
///
/// A stamp with one root cause carries it inline; only a stamp that
/// MRAI coalescing folded two or more causes into (L-events, flap storms)
/// names a set here, by id. Sets are sorted, duplicate-free and interned:
/// equal sets get equal ids, and ids are handed out in first-seen order,
/// so they are a pure function of the simulated trajectory. The simulator
/// keeps one table beside its path arena and [clears](RootSets::clear) it
/// when it is recycled — a stamp's set id lives as long as the run.
#[derive(Clone, Debug, Default)]
pub struct RootSets {
    /// Every set's roots, concatenated in id order.
    roots: Vec<u32>,
    /// Set `id` is `roots[ends[id - 1]..ends[id]]` (from 0 for set 0).
    ends: Vec<u32>,
    /// The set ids ordered by their contents: the lookup index.
    by_content: Vec<u32>,
}

impl RootSets {
    /// An empty table. Allocates nothing until the first set is interned.
    pub fn new() -> RootSets {
        RootSets::default()
    }

    /// Number of distinct sets interned since the last clear.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no set has been interned since the last clear.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every set, keeping the buffers: ids restart at 0.
    pub fn clear(&mut self) {
        self.roots.clear();
        self.ends.clear();
        self.by_content.clear();
    }

    // det::allow(panic-surface, reason = "id was returned by intern since the last clear, so ends[id] exists and bounds a range inside roots by construction")
    fn get(&self, id: u32) -> &[u32] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] as usize };
        &self.roots[start..self.ends[id] as usize]
    }

    /// The id of `set` (sorted, duplicate-free), interning it if new.
    // det::allow(panic-surface, reason = "binary_search's Ok index is inside by_content by contract")
    fn intern(&mut self, set: &[u32]) -> u32 {
        match self.by_content.binary_search_by(|&id| self.get(id).cmp(set)) {
            Ok(at) => self.by_content[at],
            Err(at) => {
                let id = self.ends.len() as u32;
                self.roots.extend_from_slice(set);
                self.ends.push(self.roots.len() as u32);
                self.by_content.insert(at, id);
                id
            }
        }
    }
}

/// How many root causes a stamp names, and so what its `roots` word is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Arity {
    /// Unstamped.
    None,
    /// One root cause: `roots` is its id.
    One,
    /// Two or more: `roots` is the id of a set in a [`RootSets`] table.
    Many,
}

/// The provenance stamp carried by every UPDATE message.
///
/// Twelve bytes and `Copy`: a single root cause — every stamp of a
/// C-event — is stored inline, so stamping a message, queueing it and
/// handing it on touch no heap and no reference count. Only a stamp that
/// [`Provenance::coalesce_with`] folded a second cause into refers to a
/// [`RootSets`] table, which [`Provenance::roots`] resolves it against.
///
/// The root set is always sorted and duplicate-free, an invariant every
/// constructor and [`Provenance::coalesce_with`] maintain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Provenance {
    roots: u32,
    depth: u32,
    arity: Arity,
    rel: Option<Relationship>,
}

const _: () = assert!(std::mem::size_of::<Provenance>() <= 16);

impl Provenance {
    /// The unstamped provenance (no root cause attached). Used by direct
    /// `BgpNode` entry points outside a simulator, so unit tests of the
    /// protocol machine need not invent causes.
    pub const fn none() -> Provenance {
        Provenance {
            roots: 0,
            depth: 0,
            arity: Arity::None,
            rel: None,
        }
    }

    /// A fresh stamp for root-cause event `id`, at causal depth 0.
    pub const fn root(id: u32) -> Provenance {
        Provenance {
            roots: id,
            depth: 0,
            arity: Arity::One,
            rel: None,
        }
    }

    /// True when at least one root cause is attached.
    pub fn is_stamped(&self) -> bool {
        self.arity != Arity::None
    }

    /// The contributing root-cause ids, sorted and duplicate-free. `sets`
    /// must be the table this stamp was coalesced against (any table will
    /// do for a stamp that names fewer than two causes).
    pub fn roots<'a>(&'a self, sets: &'a RootSets) -> &'a [u32] {
        match self.arity {
            Arity::None => &[],
            Arity::One => std::slice::from_ref(&self.roots),
            Arity::Many => sets.get(self.roots),
        }
    }

    /// The lowest (oldest) contributing root id, if stamped.
    pub fn primary_root(&self, sets: &RootSets) -> Option<u32> {
        self.roots(sets).first().copied()
    }

    /// Hops between the root-cause node's own transmissions (depth 0) and
    /// this message.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The sending edge's Gao–Rexford relation, from the sender's view
    /// (`Customer` = sent to the sender's customer). `None` until the
    /// export phase stamps it.
    pub fn rel(&self) -> Option<Relationship> {
        self.rel
    }

    /// The stamp for an export *triggered by* a message carrying this
    /// stamp: same roots, depth + 1, relation cleared (each edge stamps
    /// its own).
    pub fn child(&self) -> Provenance {
        Provenance {
            depth: self.depth.saturating_add(1),
            rel: None,
            ..*self
        }
    }

    /// A copy of this stamp with the sending edge's relation recorded.
    pub fn with_rel(&self, rel: Relationship) -> Provenance {
        Provenance {
            rel: Some(rel),
            ..*self
        }
    }

    /// Folds the stamp of a *displaced* queued update into this one: the
    /// root sets union (MRAI coalescing must not lose attribution — the
    /// flushed transmission answers for every cause it absorbed), while
    /// depth and relation stay those of `self`, the newest intent. This
    /// is what keeps WRATE and NO-WRATE runs comparable: rate-limiting
    /// changes how many messages carry a root, never which roots are
    /// accounted for. A union of two or more roots is interned in `sets`.
    pub fn coalesce_with(&mut self, displaced: &Provenance, sets: &mut RootSets) {
        let same = (self.arity, self.roots) == (displaced.arity, displaced.roots);
        if !displaced.is_stamped() || same {
            return;
        }
        // Off the C-event path: only distinct causes meet here.
        let mut union: Vec<u32> = self
            .roots(sets)
            .iter()
            .chain(displaced.roots(sets))
            .copied()
            .collect();
        union.sort_unstable();
        union.dedup();
        (self.arity, self.roots) = match union[..] {
            [only] => (Arity::One, only),
            _ => (Arity::Many, sets.intern(&union)),
        };
    }
}

impl Default for Provenance {
    fn default() -> Self {
        Provenance::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_unstamped() {
        let sets = RootSets::new();
        let a = Provenance::none();
        assert!(!a.is_stamped());
        assert_eq!(a.roots(&sets), &[] as &[u32]);
        assert_eq!(a.primary_root(&sets), None);
        assert_eq!(a, Provenance::default());
    }

    #[test]
    fn root_and_child_track_depth() {
        let sets = RootSets::new();
        let r = Provenance::root(7);
        assert!(r.is_stamped());
        assert_eq!(r.roots(&sets), &[7]);
        assert_eq!(r.depth(), 0);
        let c = r.child().child();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.roots(&sets), &[7], "roots propagate unchanged");
        assert_eq!(c.rel(), None);
    }

    #[test]
    fn with_rel_stamps_the_edge() {
        let p = Provenance::root(1).with_rel(Relationship::Peer);
        assert_eq!(p.rel(), Some(Relationship::Peer));
        assert_eq!(p.child().rel(), None, "children stamp their own edge");
    }

    #[test]
    fn coalesce_unions_roots_and_keeps_newest_depth() {
        let mut sets = RootSets::new();
        let mut newest = Provenance::root(5).child();
        let displaced = Provenance::root(2).child().child();
        newest.coalesce_with(&displaced, &mut sets);
        assert_eq!(newest.roots(&sets), &[2, 5], "sorted union");
        assert_eq!(newest.primary_root(&sets), Some(2));
        assert_eq!(newest.depth(), 1, "depth of the newest intent wins");
        // Coalescing with an equal, a contained or an empty set is a no-op.
        let before = newest;
        newest.coalesce_with(&Provenance::none(), &mut sets);
        newest.coalesce_with(&before, &mut sets);
        newest.coalesce_with(&Provenance::root(5), &mut sets);
        assert_eq!(newest, before);
        assert_eq!(sets.len(), 1);
    }

    /// A single cause stays inline whichever side brings it; only a union
    /// of two or more touches the table, and equal unions share an id.
    #[test]
    fn single_roots_stay_inline_and_equal_sets_are_interned_once() {
        let mut sets = RootSets::new();
        let mut unstamped = Provenance::none();
        unstamped.coalesce_with(&Provenance::root(3), &mut sets);
        assert_eq!(unstamped.roots(&sets), &[3]);
        let mut same = Provenance::root(3);
        same.coalesce_with(&Provenance::root(3).child(), &mut sets);
        assert_eq!(same, Provenance::root(3));
        assert!(sets.is_empty(), "no set for fewer than two roots");

        let mut a = Provenance::root(9);
        a.coalesce_with(&Provenance::root(4), &mut sets);
        let mut b = Provenance::root(4);
        b.coalesce_with(&Provenance::root(9), &mut sets);
        assert_eq!(a, b, "equal sets, equal stamps");
        let mut c = a;
        c.coalesce_with(&Provenance::root(1), &mut sets);
        assert_eq!(c.roots(&sets), &[1, 4, 9]);
        assert_eq!(a.roots(&sets), &[4, 9], "an interned set never changes");
        assert_eq!(sets.len(), 2);

        // A cleared table hands out the ids of a new one.
        sets.clear();
        let mut again = Provenance::root(4);
        again.coalesce_with(&Provenance::root(9), &mut sets);
        assert_eq!(again, b);
    }

    #[test]
    fn root_cause_kind_indices_are_dense_and_stable() {
        for (i, k) in RootCauseKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(RootCauseKind::Originate.name(), "originate");
        assert_eq!(RootCauseKind::SessionDown.name(), "session_down");
    }
}
