//! Hash-consed AS paths.
//!
//! An AS path is immutable once built and is only ever extended at the
//! front: a node exports its best path with its own id prepended. The
//! [`PathArena`] stores every path as one cell `(head, tail, len)` — the
//! nearest AS, the id of the rest of the path, the hop count — and hands
//! out a [`PathId`], four bytes and `Copy`, that stands for the path
//! everywhere a route is held: the Adj-RIB-in cell, the Loc-RIB, the
//! Adj-RIB-out, a queued update, an [`crate::Update`] on the wire.
//!
//! The arena is **hash-consed**: [`PathArena::prepend`] looks the pair
//! `(head, tail)` up before it stores it, so equal paths get equal ids
//! however they were built, and path equality — no-op suppression against
//! the Adj-RIB-out, Route Flap Damping's attribute-change test, `Update`
//! equality — is id equality. An export is one lookup-or-insert; nothing
//! is allocated per path and nothing is reference-counted.
//!
//! ## Ids are deterministic, and live for one run
//!
//! The lookup is open addressing over a power-of-two table, probed from
//! the simkernel hash of the pair: no `HashMap`, no per-process seed. Ids
//! are cell indices, handed out in first-seen order, so a run's ids are a
//! pure function of its trajectory. Index 0 is the empty path (what a node
//! holds for a prefix it originates); a `PathId` stores index + 1 so that
//! `Option<PathId>` is still four bytes.
//!
//! One arena serves one simulator, which lends it to every
//! [`crate::BgpNode`] entry point the way it lends `Actions`, and
//! [clears](PathArena::clear) it — buffers kept — when it is recycled: an
//! id means something only until then, and a recycled run hands out the
//! ids a fresh one would. The arena also keeps the simulator's
//! [`RootSets`], the one other table whose ids ride on updates.

use std::fmt;
use std::num::NonZeroU32;

use bgpscale_obs::RootSets;
use bgpscale_simkernel::rng::hash64;
use bgpscale_topology::AsId;

/// A handle to an AS path in a [`PathArena`]: **nearest AS first, origin
/// last**. Two ids of one arena are equal exactly when their paths are.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(NonZeroU32);

const _: () = assert!(std::mem::size_of::<Option<PathId>>() == 4);

impl PathId {
    /// The empty path (self-originated routes), in every arena.
    pub const EMPTY: PathId = PathId(NonZeroU32::MIN);

    fn from_index(index: u32) -> PathId {
        PathId(NonZeroU32::MIN.saturating_add(index))
    }

    /// The path's cell index in its arena: 0 for the empty path, then in
    /// the order the paths were first built.
    pub fn index(self) -> u32 {
        self.0.get() - 1
    }
}

impl fmt::Debug for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path#{}", self.index())
    }
}

/// One path: `head` prepended to the path `tail`.
#[derive(Clone, Copy, Debug)]
struct Cell {
    head: AsId,
    tail: PathId,
    len: u32,
}

/// The table starts at, and never shrinks below, this many slots.
const MIN_SLOTS: usize = 64;

/// Where the probe for `head · tail` starts, before masking.
fn home(head: AsId, tail: PathId) -> usize {
    hash64(u64::from(head.0) << 32 | u64::from(tail.index())) as usize
}

/// The per-simulator store of AS paths (see the module docs).
#[derive(Clone, Debug)]
pub struct PathArena {
    /// Every path built since the last clear; cell 0 is the empty path.
    cells: Vec<Cell>,
    /// Open-addressing lookup of `(head, tail)`: a cell index, or 0 for a
    /// vacant slot (the empty path is never looked up). A power of two
    /// long, and at most half full.
    slots: Vec<u32>,
    /// The hops of one path, laid out flat for a step that tests many
    /// neighbors against it ([`PathArena::take_hops`]).
    hops: Vec<AsId>,
    root_sets: RootSets,
}

impl Default for PathArena {
    fn default() -> Self {
        PathArena::new()
    }
}

impl PathArena {
    /// An arena holding the empty path only.
    pub fn new() -> PathArena {
        let empty = Cell {
            head: AsId(0),
            tail: PathId::EMPTY,
            len: 0,
        };
        PathArena {
            cells: vec![empty],
            slots: vec![0; MIN_SLOTS],
            hops: Vec::new(),
            root_sets: RootSets::new(),
        }
    }

    /// Number of distinct paths held, the empty one included.
    pub fn paths(&self) -> usize {
        self.cells.len()
    }

    /// The root sets of the coalesced provenance stamps of this run.
    pub fn root_sets(&self) -> &RootSets {
        &self.root_sets
    }

    /// The table [`bgpscale_obs::Provenance::coalesce_with`] interns into.
    pub fn root_sets_mut(&mut self) -> &mut RootSets {
        &mut self.root_sets
    }

    /// Forgets every path and root set, keeping the buffers: ids restart,
    /// and a run on the cleared arena hands out exactly the ids it would
    /// on a new one. Every id handed out before is dangling afterwards.
    pub fn clear(&mut self) {
        self.cells.truncate(1);
        self.slots.fill(0);
        self.root_sets.clear();
    }

    /// The path `head · tail`: the id it already has if some step built
    /// it before, a new cell otherwise. The one place paths are made.
    // det::allow(panic-surface, reason = "slots is a power of two long and probed under its mask; a non-zero slot is the index of a pushed cell, and tail is an id this arena handed out since its last clear")
    pub fn prepend(&mut self, head: AsId, tail: PathId) -> PathId {
        let mask = self.slots.len() - 1;
        let mut at = home(head, tail) & mask;
        // At most half the slots are taken, so the probe ends.
        while self.slots[at] != 0 {
            let held = self.cells[self.slots[at] as usize];
            if held.head == head && held.tail == tail {
                return PathId::from_index(self.slots[at]);
            }
            at = (at + 1) & mask;
        }
        let index = u32::try_from(self.cells.len()).expect("path count fits u32");
        let len = self.cells[tail.index() as usize].len + 1;
        self.cells.push(Cell { head, tail, len });
        self.slots[at] = index;
        if self.cells.len() * 2 > self.slots.len() {
            self.grow();
        }
        PathId::from_index(index)
    }

    /// Doubles the table and re-inserts every cell, in index order.
    // det::allow(panic-surface, reason = "slots is a power of two long and probed under its mask")
    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, 0);
        for (index, cell) in self.cells.iter().enumerate().skip(1) {
            let mut at = home(cell.head, cell.tail) & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = index as u32;
        }
    }

    /// The id of the path with exactly these hops, nearest first: built
    /// from the origin end, one [`PathArena::prepend`] per hop.
    pub fn intern(&mut self, hops: &[AsId]) -> PathId {
        hops.iter()
            .rev()
            .fold(PathId::EMPTY, |tail, &head| self.prepend(head, tail))
    }

    // det::allow(panic-surface, reason = "id is one this arena handed out since its last clear, which indexes a pushed cell")
    fn path_cell(&self, id: PathId) -> Cell {
        self.cells[id.index() as usize]
    }

    /// The number of hops of `id`.
    pub fn len(&self, id: PathId) -> usize {
        self.path_cell(id).len as usize
    }

    /// The hops of `id`, nearest AS first, origin last.
    pub fn hops(&self, id: PathId) -> impl Iterator<Item = AsId> + '_ {
        let mut at = id;
        std::iter::from_fn(move || {
            (at != PathId::EMPTY).then(|| {
                let cell = self.path_cell(at);
                at = cell.tail;
                cell.head
            })
        })
    }

    /// The hops of `id` as an owned list (reports and tests; the
    /// simulation itself never materializes a path).
    pub fn to_vec(&self, id: PathId) -> Vec<AsId> {
        self.hops(id).collect()
    }

    /// True if `asn` is on the path: the loop check, a walk of at most
    /// [`PathArena::len`] cells.
    pub fn contains(&self, id: PathId, asn: AsId) -> bool {
        self.hops(id).any(|hop| hop == asn)
    }

    /// Lends out the arena's hop buffer filled with the hops of `id`, for
    /// a step that tests every neighbor against one path: the path is
    /// walked once, and each test scans a flat list. Hand the buffer back
    /// with [`PathArena::give_hops`], or the next call allocates anew.
    pub(crate) fn take_hops(&mut self, id: PathId) -> Vec<AsId> {
        let mut hops = std::mem::take(&mut self.hops);
        hops.clear();
        hops.extend(self.hops(id));
        hops
    }

    /// Takes back the buffer [`PathArena::take_hops`] lent out.
    pub(crate) fn give_hops(&mut self, hops: Vec<AsId>) {
        self.hops = hops;
    }
}

#[cfg(test)]
impl PathArena {
    /// The id of the path through the ASes numbered `hops`: how this
    /// crate's unit tests write a path down.
    pub(crate) fn of(&mut self, hops: &[u32]) -> PathId {
        let hops: Vec<AsId> = hops.iter().map(|&h| AsId(h)).collect();
        self.intern(&hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(hops: &[u32]) -> Vec<AsId> {
        hops.iter().map(|&h| AsId(h)).collect()
    }

    #[test]
    fn the_empty_path_is_index_zero_everywhere() {
        let mut arena = PathArena::new();
        assert_eq!(PathId::EMPTY.index(), 0);
        assert_eq!(arena.intern(&[]), PathId::EMPTY);
        assert_eq!((arena.len(PathId::EMPTY), arena.paths()), (0, 1));
        assert!(arena.to_vec(PathId::EMPTY).is_empty());
        assert!(!arena.contains(PathId::EMPTY, AsId(0)));
    }

    #[test]
    fn prepend_builds_the_export_path_once() {
        let mut arena = PathArena::new();
        let tail = arena.intern(&ids(&[5, 9]));
        let export = arena.prepend(AsId(1), tail);
        assert_eq!(arena.to_vec(export), ids(&[1, 5, 9]));
        assert_eq!(arena.len(export), 3);
        assert_eq!(arena.paths(), 4, "the empty path, [9], [5 9], [1 5 9]");
        assert_eq!(arena.prepend(AsId(1), tail), export, "a second build is a lookup");
        assert_eq!(arena.intern(&ids(&[1, 5, 9])), export);
        assert_eq!(arena.paths(), 4);
        assert_ne!(arena.prepend(AsId(2), tail), export);
        assert!(arena.contains(export, AsId(9)) && !arena.contains(export, AsId(2)));
    }

    /// Ids survive the table doubling, and the doubled table still finds
    /// every path.
    #[test]
    fn growth_keeps_every_id_findable() {
        let mut arena = PathArena::new();
        let built: Vec<PathId> = (0..10 * MIN_SLOTS as u32)
            .map(|i| arena.intern(&ids(&[i, i / 7, 1_000_000])))
            .collect();
        assert!(arena.slots.len() >= 2 * arena.paths());
        for (i, &id) in built.iter().enumerate() {
            let i = i as u32;
            assert_eq!(arena.to_vec(id), ids(&[i, i / 7, 1_000_000]));
            assert_eq!(arena.intern(&ids(&[i, i / 7, 1_000_000])), id);
        }
    }

    #[test]
    fn clear_restarts_the_ids_and_keeps_the_buffers() {
        let mut arena = PathArena::new();
        let first: Vec<PathId> = (0..500).map(|i| arena.intern(&ids(&[i, 7]))).collect();
        let slots = arena.slots.len();
        arena.clear();
        assert_eq!(arena.paths(), 1);
        assert_eq!(arena.slots.len(), slots, "the table keeps its size");
        let again: Vec<PathId> = (0..500).map(|i| arena.intern(&ids(&[i, 7]))).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn the_hop_buffer_is_lent_and_returned() {
        let mut arena = PathArena::new();
        let path = arena.intern(&ids(&[3, 2, 1]));
        let hops = arena.take_hops(path);
        assert_eq!(hops, ids(&[3, 2, 1]));
        let capacity = hops.capacity();
        arena.give_hops(hops);
        let hops = arena.take_hops(PathId::EMPTY);
        assert!(hops.is_empty() && hops.capacity() == capacity);
    }
}
