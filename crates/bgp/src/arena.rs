//! Dense, `u32`-indexed arena storage for per-node BGP state.
//!
//! The first-generation [`crate::node::BgpNode`] kept three pointer-heavy
//! maps per node — `slot_of: BTreeMap<AsId, u32>`, `prefixes:
//! BTreeMap<Prefix, PrefixState>` and `damp: BTreeMap<(u32, Prefix),
//! DampState>` — which at Internet scale (50k–70k ASes) means millions of
//! scattered tree nodes, cache-hostile walks on every update, and a large
//! constant allocation overhead per simulated C-event. This module
//! replaces them with three flat structures sharing one id-space
//! discipline:
//!
//! * **AS id** (`AsId`) — the global, topology-wide node index. Only ever
//!   translated at the edge of a node (who sent me this update?), and in
//!   the simulator not even there: the sender reads the receiver's slot
//!   off the slab ([`SessionSlab::far_end`]).
//! * **slot** (`u32`) — a node-local session index, `0..degree`. All hot
//!   per-neighbor state (Adj-RIB-in columns, output queues, liveness) is
//!   slot-indexed.
//! * **prefix row** (`usize`) — a node-local index into the sorted prefix
//!   column of the [`PrefixTable`]; all per-prefix state lives in
//!   structure-of-arrays columns addressed by row.
//!
//! [`SessionSlab`] is the AS-id ↔ slot translation table, built **once**
//! from the topology and shared by every node (and the simulator's churn
//! counters) through an `Arc`: per-node session state
//! costs zero allocations at instantiation time.
//!
//! ## Memory layout
//!
//! [`PrefixTable`] stores per-prefix state as parallel columns keyed by a
//! sorted prefix row index, with the Adj-RIB-in laid out **prefix-major**
//! (`row * slots + slot`) so the decision process scans one contiguous
//! stripe. An Adj-RIB-in cell is twelve bytes in two columns: the route,
//! a four-byte [`PathId`] into the simulator's path arena
//! ([`crate::path`]), and its eight-byte preference key
//! ([`crate::decision::rank_key`]) — short enough because the slab keeps,
//! per session, the rank that stands in for the next hop's hash and id
//! ([`SessionSlab::rank`]). The Loc-RIB's best path is a `PathId` too: no
//! column of the table owns heap memory beyond its own buffer. Iterating rows yields prefixes in sorted order — the same
//! deterministic order the `BTreeMap` gave, which whole-table operations
//! (session resets, session-up replays) rely on for bit-identical
//! artifacts.
//!
//! Damping state ([`DampTable`]) stays sparse — entries exist only for
//! routes with flap history, and the paper's configuration disables RFD
//! entirely — so it is a flat sorted `Vec` with binary-search access
//! rather than a dense row×slot matrix, and it allocates nothing until
//! the first flap is charged.

use std::sync::Arc;

use bgpscale_simkernel::rng::hash64;
use bgpscale_topology::AsId;

use crate::message::Prefix;
use crate::node::Session;
use crate::path::PathId;
use crate::rfd::DampState;

/// Sentinel slot index meaning "the route is self-originated".
pub const SELF_SLOT: u32 = u32::MAX;

/// Sentinel slot index meaning "no best route" in the best-slot column.
pub(crate) const NO_BEST: u32 = u32::MAX - 1;

/// Documented per-element byte costs for the deterministic arena-size
/// estimate (see [`PrefixTable::arena_bytes`]). These are *fixed model
/// constants*, deliberately not `size_of` (which could drift between
/// toolchains and break bit-identical op counts), and they follow the
/// columns that exist: a slot cell models its four-byte path id plus its
/// cached eight-byte preference key, a row models the prefix, originated,
/// best-slot and best-path columns (thirteen bytes, charged as sixteen).
/// The model is part of every pinned op-count baseline (it feeds
/// `arena_bytes_reserved`), so it moves only in a diff that adds, deletes
/// or re-types a per-prefix column; the slab's mirror and rank columns
/// are not charged at all.
const BYTES_PER_RIB_CELL: u64 = 12;
const BYTES_PER_ROW: u64 = 16;
const BYTES_PER_SESSION: u64 = 16;
const BYTES_PER_DAMP_ENTRY: u64 = 40;

/// The topology-wide session arena: every node's sessions and its
/// AS-id → slot lookup live in two shared concatenated columns, built
/// once and shared by all nodes via `Arc`.
#[derive(Clone, Debug)]
pub struct SessionSlab {
    /// All sessions, concatenated per node in slot order.
    sessions: Vec<Session>,
    /// Per node, the `(peer, slot)` pairs sorted by peer AS id — the
    /// dense replacement for the per-node `BTreeMap<AsId, u32>`.
    lookup: Vec<(AsId, u32)>,
    /// Per node: offset into both columns (length = next offset). The
    /// extra trailing entry makes `range(i)` branch-free.
    offsets: Vec<u32>,
    /// Per session (indexed like `sessions`): the slot the session's own
    /// node holds at the peer, i.e. the receiver-side slot of a message
    /// sent over it. Filled only for a *closed* slab — node `i` is
    /// `AsId(i)` and every session has its mirror session in the slab, as
    /// in a slab built from a topology; empty otherwise (a standalone
    /// node's one-node slab).
    mirror: Vec<u32>,
    /// Per session (indexed like `sessions`): the slot's rank among its
    /// node's sessions in ascending `(hash64(peer), peer)` order — the
    /// decision process's tie-break between next hops, worked out once
    /// here so that a route's preference key can carry four bytes of rank
    /// instead of twelve of hash and id ([`crate::decision::rank_key`]).
    rank: Vec<u32>,
}

impl SessionSlab {
    /// Builds the slab from every node's AS id and sessions, nodes in
    /// index order (node `i`'s id is normally `AsId(i)`), sessions in slot
    /// order.
    ///
    /// # Panics
    /// Panics if any node has a session with itself or a duplicate peer.
    pub fn build<I, S>(nodes: I) -> Arc<SessionSlab>
    where
        I: IntoIterator<Item = (AsId, S)>,
        S: IntoIterator<Item = Session>,
    {
        let mut slab = SessionSlab {
            sessions: Vec::new(),
            lookup: Vec::new(),
            offsets: vec![0],
            mirror: Vec::new(),
            rank: Vec::new(),
        };
        // Scratch for one node's slots in tie-break order.
        let mut by_tie_break: Vec<u32> = Vec::new();
        let mut ids_are_indices = true;
        for (i, (id, sess)) in nodes.into_iter().enumerate() {
            ids_are_indices &= id == AsId(i as u32);
            let base = slab.sessions.len();
            slab.sessions.extend(sess);
            let sess = &slab.sessions[base..];
            for (slot, s) in sess.iter().enumerate() {
                assert_ne!(s.peer, id, "session with self at {id}");
                slab.lookup.push((s.peer, slot as u32));
            }
            let node_lookup = &mut slab.lookup[base..];
            node_lookup.sort_unstable_by_key(|&(peer, _)| peer);
            for pair in node_lookup.windows(2) {
                assert_ne!(pair[0].0, pair[1].0, "duplicate session {id}–{}", pair[0].0);
            }
            by_tie_break.clear();
            by_tie_break.extend(0..sess.len() as u32);
            by_tie_break.sort_unstable_by_key(|&slot| {
                let peer = sess[slot as usize].peer.0;
                (hash64(u64::from(peer)), peer)
            });
            slab.rank.resize(base + sess.len(), 0);
            for (rank, &slot) in by_tie_break.iter().enumerate() {
                slab.rank[base + slot as usize] = rank as u32;
            }
            slab.offsets
                .push(u32::try_from(slab.sessions.len()).expect("session count fits u32"));
        }
        // The columns live as long as the topology: no growth slack.
        slab.sessions.shrink_to_fit();
        slab.lookup.shrink_to_fit();
        slab.rank.shrink_to_fit();
        slab.offsets.shrink_to_fit();
        if ids_are_indices {
            slab.mirror = slab.mirror_slots().unwrap_or_default();
        }
        Arc::new(slab)
    }

    /// The mirror column of a slab whose node `i` is `AsId(i)`, or `None`
    /// if some session has no mirror session. One pass over the lookup
    /// stripes and no searching: node `i`'s peers come up in ascending
    /// id order, and so — as `i` ascends — do the entries of each peer's
    /// own sorted stripe, so a cursor per node always points at the
    /// mirror of the session at hand.
    fn mirror_slots(&self) -> Option<Vec<u32>> {
        let n = self.len();
        let mut mirror = vec![0u32; self.sessions.len()];
        // The next unmatched entry of each node's lookup stripe.
        let mut cursor: Vec<usize> = self.offsets[..n].iter().map(|&o| o as usize).collect();
        for i in 0..n {
            let first = self.offsets[i] as usize;
            for &(peer, slot) in &self.lookup[self.range(i as u32)] {
                let j = peer.index();
                if j >= n || cursor[j] >= self.offsets[j + 1] as usize {
                    return None;
                }
                let (back, peer_slot) = self.lookup[cursor[j]];
                if back != AsId(i as u32) {
                    return None;
                }
                cursor[j] += 1;
                mirror[first + slot as usize] = peer_slot;
            }
        }
        Some(mirror)
    }

    /// Builds a one-node slab (unit tests and standalone nodes).
    pub fn for_single(id: AsId, sessions: Vec<Session>) -> Arc<SessionSlab> {
        Self::build([(id, sessions)])
    }

    /// Number of nodes in the slab.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the slab holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // det::allow(panic-surface, reason = "node < len() is the caller contract; offsets has len()+1 entries by construction so node and node+1 are in bounds")
    fn range(&self, node: u32) -> std::ops::Range<usize> {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        lo..hi
    }

    /// Node `node`'s sessions, in slot order.
    // det::allow(panic-surface, reason = "range() returns offsets bounded by sessions.len() (the final offsets entry) by construction")
    pub fn sessions(&self, node: u32) -> &[Session] {
        &self.sessions[self.range(node)]
    }

    /// Node `node`'s degree (session count).
    pub fn degree(&self, node: u32) -> u32 {
        let r = self.range(node);
        (r.end - r.start) as u32
    }

    /// The slot of `peer` on node `node`, if it is a neighbor — a binary
    /// search over the node's sorted lookup stripe.
    pub fn slot_of(&self, node: u32, peer: AsId) -> Option<u32> {
        let stripe = &self.lookup[self.range(node)];
        stripe
            .binary_search_by_key(&peer, |&(p, _)| p)
            .ok()
            .map(|i| stripe[i].1)
    }

    /// The far end of node `node`'s session `slot`: the peer, and the slot
    /// `node` holds at that peer — where a message sent over the session
    /// arrives. Lets the sender address the receiver's slot directly, so
    /// no delivery has to search for it.
    ///
    /// # Panics
    /// Panics on a slab that is not closed (see the `mirror` column).
    // det::allow(panic-surface, reason = "node < len() and slot < degree(node) are the caller contract, and the simulator's slab is built from a topology, whose adjacency is symmetric: the mirror column is filled")
    pub fn far_end(&self, node: u32, slot: u32) -> (AsId, u32) {
        let session = (self.offsets[node as usize] + slot) as usize;
        (self.sessions[session].peer, self.mirror[session])
    }

    /// The rank of node `node`'s session `slot` in the decision process's
    /// tie-break order among that node's sessions: 0 for the next hop that
    /// wins every tie (smallest hashed id, then smallest id).
    // det::allow(panic-surface, reason = "node < len() and slot < degree(node) are the caller contract; rank has one entry per session")
    pub fn rank(&self, node: u32, slot: u32) -> u32 {
        self.rank[(self.offsets[node as usize] + slot) as usize]
    }

    /// Index of node `node`'s slot 0 in the global session id space —
    /// the base for flat per-session side tables (the churn collector's
    /// counters index `first_session(node) + slot`).
    // det::allow(panic-surface, reason = "node <= len() is the caller contract and offsets has len()+1 entries by construction")
    pub fn first_session(&self, node: u32) -> u32 {
        self.offsets[node as usize]
    }

    /// Total sessions across all nodes.
    pub fn total_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Deterministic estimate of the slab's resident bytes (model
    /// constants, not `size_of`; see module docs).
    pub fn arena_bytes(&self) -> u64 {
        self.sessions.len() as u64 * BYTES_PER_SESSION * 2 // sessions + lookup
            + self.offsets.len() as u64 * 4
    }
}

/// Structure-of-arrays per-prefix state for one node: parallel columns
/// addressed by a sorted prefix row index, plus a prefix-major
/// Adj-RIB-in matrix.
#[derive(Clone, Debug)]
pub struct PrefixTable {
    slots: u32,
    /// Sorted prefix column: the row index.
    prefixes: Vec<Prefix>,
    /// True while this node originates the row's prefix.
    originated: Vec<bool>,
    /// Loc-RIB best: a slot, [`SELF_SLOT`], or [`NO_BEST`].
    best_slot: Vec<u32>,
    /// The best AS path as received (empty for self-originated routes
    /// and for [`NO_BEST`] rows).
    best_path: Vec<PathId>,
    /// Cached preference key per Adj-RIB-in cell (same indexing as
    /// `rib_in`; meaningful only while the cell holds a route), written
    /// with the route by [`PrefixTable::set_rib_in`]. Lets the decision
    /// process compare candidates by one integer compare instead of
    /// re-deriving the full preference tuple from the path.
    rib_key: Vec<u64>,
    /// Adj-RIB-in, prefix-major: `rib_in[row * slots + slot]`.
    rib_in: Vec<Option<PathId>>,
}

// An Adj-RIB-in cell is its key and its path id, in two columns.
const _: () = assert!(std::mem::size_of::<u64>() + std::mem::size_of::<Option<PathId>>() <= 16);

impl PrefixTable {
    /// Creates an empty table for a node with `slots` sessions.
    pub fn new(slots: u32) -> Self {
        PrefixTable {
            slots,
            prefixes: Vec::new(),
            originated: Vec::new(),
            best_slot: Vec::new(),
            best_path: Vec::new(),
            rib_key: Vec::new(),
            rib_in: Vec::new(),
        }
    }

    /// Number of prefix rows.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True if no prefix has any state.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The row of `prefix`, if present.
    pub fn row(&self, prefix: Prefix) -> Option<usize> {
        self.prefixes.binary_search(&prefix).ok()
    }

    /// The row of `prefix`, inserting an empty row if absent.
    pub fn row_or_insert(&mut self, prefix: Prefix) -> usize {
        match self.prefixes.binary_search(&prefix) {
            Ok(row) => row,
            Err(row) => {
                let slots = self.slots as usize;
                self.prefixes.insert(row, prefix);
                self.originated.insert(row, false);
                self.best_slot.insert(row, NO_BEST);
                self.best_path.insert(row, PathId::EMPTY);
                self.rib_in
                    .splice(row * slots..row * slots, std::iter::repeat_n(None, slots));
                self.rib_key
                    .splice(row * slots..row * slots, std::iter::repeat_n(0, slots));
                row
            }
        }
    }

    /// The prefix at `row`.
    pub fn prefix_at(&self, row: usize) -> Prefix {
        self.prefixes[row]
    }

    /// The Adj-RIB-in stripe of `row`: one cell per slot.
    // det::allow(panic-surface, reason = "row is a live row index, and rib_in holds exactly len()*slots cells by construction")
    pub fn rib_in(&self, row: usize) -> &[Option<PathId>] {
        let slots = self.slots as usize;
        &self.rib_in[row * slots..(row + 1) * slots]
    }

    /// One Adj-RIB-in cell.
    // det::allow(panic-surface, reason = "row is a live row index and slot < slots is the session-slot contract; the cell index is inside the row's stripe")
    pub fn rib_in_cell(&self, row: usize, slot: u32) -> Option<PathId> {
        self.rib_in[row * self.slots as usize + slot as usize]
    }

    /// Overwrites one Adj-RIB-in cell: the route with its preference key
    /// ([`crate::decision::rank_key`]), or `None` for a withdrawal (the
    /// stale key stays behind, unread).
    // det::allow(panic-surface, reason = "row is a live row index and slot < slots is the session-slot contract; the cell index is inside the row's stripe")
    pub fn set_rib_in(&mut self, row: usize, slot: u32, route: Option<(PathId, u64)>) {
        let cell = row * self.slots as usize + slot as usize;
        self.rib_in[cell] = match route {
            Some((path, key)) => {
                self.rib_key[cell] = key;
                Some(path)
            }
            None => None,
        };
    }

    /// The cached preference keys of `row`, one per slot like
    /// [`PrefixTable::rib_in`]; a key means something only while its cell
    /// holds a route.
    // det::allow(panic-surface, reason = "row is a live row index, and rib_key holds exactly len()*slots cells by construction")
    pub(crate) fn rib_keys(&self, row: usize) -> &[u64] {
        let slots = self.slots as usize;
        &self.rib_key[row * slots..(row + 1) * slots]
    }

    /// True while the node originates the row's prefix.
    // det::allow(panic-surface, reason = "row is a live row index; the originated column parallels the prefix column")
    pub fn originated(&self, row: usize) -> bool {
        self.originated[row]
    }

    /// Marks/unmarks the row's prefix as self-originated.
    // det::allow(panic-surface, reason = "row is a live row index; the originated column parallels the prefix column")
    pub fn set_originated(&mut self, row: usize, on: bool) {
        self.originated[row] = on;
    }

    /// The Loc-RIB best for `row`: `None` if unreachable, else
    /// `(slot-or-SELF_SLOT, path as received)`.
    // det::allow(panic-surface, reason = "row is a live row index; best columns parallel the prefix column")
    pub fn best(&self, row: usize) -> Option<(u32, PathId)> {
        match self.best_slot[row] {
            NO_BEST => None,
            slot => Some((slot, self.best_path[row])),
        }
    }

    /// Replaces the Loc-RIB best for `row`.
    // det::allow(panic-surface, reason = "row is a live row index; best columns parallel the prefix column")
    pub fn set_best(&mut self, row: usize, best: Option<(u32, PathId)>) {
        match best {
            None => {
                self.best_slot[row] = NO_BEST;
                self.best_path[row] = PathId::EMPTY;
            }
            Some((slot, path)) => {
                debug_assert_ne!(slot, NO_BEST);
                self.best_slot[row] = slot;
                self.best_path[row] = path;
            }
        }
    }

    /// Iterates `(row, prefix)` in sorted prefix order — the same
    /// deterministic order the former `BTreeMap` iteration gave.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, Prefix)> + '_ {
        self.prefixes.iter().copied().enumerate()
    }

    /// Drops all rows (columns keep their allocations).
    pub fn clear(&mut self) {
        self.prefixes.clear();
        self.originated.clear();
        self.best_slot.clear();
        self.best_path.clear();
        self.rib_key.clear();
        self.rib_in.clear();
    }

    /// Deterministic estimate of the table's resident bytes (model
    /// constants, not `size_of`; see module docs).
    pub fn arena_bytes(&self) -> u64 {
        self.prefixes.len() as u64 * (BYTES_PER_ROW + self.slots as u64 * BYTES_PER_RIB_CELL)
    }
}

/// Sparse per-(slot, prefix) damping state: a flat sorted vector with
/// binary-search access. Iteration and retention run in (slot, prefix)
/// order, matching the former `BTreeMap<(u32, Prefix), DampState>`.
/// Allocates nothing until the first flap is charged.
#[derive(Clone, Debug, Default)]
pub struct DampTable {
    entries: Vec<((u32, Prefix), DampState)>,
}

impl DampTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        DampTable::default()
    }

    /// True if no route has flap history.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of (slot, prefix) pairs with flap history.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The damping state for `(slot, prefix)`, if any.
    // det::allow(panic-surface, reason = "binary_search's Ok index is inside entries by contract")
    pub fn get(&self, slot: u32, prefix: Prefix) -> Option<&DampState> {
        self.entries
            .binary_search_by_key(&(slot, prefix), |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Mutable damping state for `(slot, prefix)`, if any.
    // det::allow(panic-surface, reason = "binary_search's Ok index is inside entries by contract")
    pub fn get_mut(&mut self, slot: u32, prefix: Prefix) -> Option<&mut DampState> {
        self.entries
            .binary_search_by_key(&(slot, prefix), |&(k, _)| k)
            .ok()
            .map(|i| &mut self.entries[i].1)
    }

    /// The damping state for `(slot, prefix)`, default-inserting.
    // det::allow(panic-surface, reason = "on Ok the index is a hit inside entries; on Err it is the sorted insertion point just inserted at")
    pub fn get_or_insert(&mut self, slot: u32, prefix: Prefix) -> &mut DampState {
        let key = (slot, prefix);
        let i = match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, DampState::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Drops every entry for `slot` (session reset).
    pub fn clear_slot(&mut self, slot: u32) {
        self.entries.retain(|&((s, _), _)| s != slot);
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Deterministic estimate of resident bytes (model constants).
    pub fn arena_bytes(&self) -> u64 {
        self.entries.len() as u64 * BYTES_PER_DAMP_ENTRY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::Relationship;

    fn session(peer: u32, rel: Relationship) -> Session {
        Session {
            peer: AsId(peer),
            rel,
        }
    }

    /// The slab of nodes `AsId(first)`, `AsId(first + 1)`, … with these
    /// sessions.
    fn slab_from(first: u32, sessions_of: Vec<Vec<Session>>) -> Arc<SessionSlab> {
        SessionSlab::build((first..).map(AsId).zip(sessions_of))
    }

    #[test]
    fn slab_translates_ids_to_slots_per_node() {
        let slab = slab_from(
            0,
            vec![
                vec![session(1, Relationship::Peer), session(2, Relationship::Customer)],
                vec![session(0, Relationship::Peer)],
                vec![session(0, Relationship::Provider)],
            ],
        );
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.total_sessions(), 4);
        assert_eq!(slab.degree(0), 2);
        assert_eq!(slab.slot_of(0, AsId(1)), Some(0));
        assert_eq!(slab.slot_of(0, AsId(2)), Some(1));
        assert_eq!(slab.slot_of(0, AsId(3)), None);
        assert_eq!(slab.slot_of(1, AsId(0)), Some(0));
        assert_eq!(slab.sessions(2)[0].peer, AsId(0));
        assert!(slab.arena_bytes() > 0);
    }

    #[test]
    fn slab_mirror_column_addresses_the_receivers_slot() {
        let slab = slab_from(
            0,
            vec![
                vec![session(3, Relationship::Customer), session(1, Relationship::Peer)],
                vec![session(2, Relationship::Customer), session(0, Relationship::Peer)],
                vec![session(3, Relationship::Peer), session(1, Relationship::Provider)],
                vec![session(2, Relationship::Peer), session(0, Relationship::Provider)],
            ],
        );
        for node in 0..4u32 {
            for slot in 0..slab.degree(node) {
                let (peer, at_peer) = slab.far_end(node, slot);
                assert_eq!(peer, slab.sessions(node)[slot as usize].peer);
                assert_eq!(slab.slot_of(peer.0, AsId(node)), Some(at_peer));
                assert_eq!(slab.far_end(peer.0, at_peer), (AsId(node), slot), "mirror of the mirror");
            }
        }
        // Open slabs — a standalone node, a one-way session — have none.
        assert!(SessionSlab::for_single(AsId(0), vec![session(1, Relationship::Peer)]).mirror.is_empty());
        let one_way = slab_from(0, vec![vec![session(1, Relationship::Peer)], vec![]]);
        assert!(one_way.mirror.is_empty());
    }

    /// The rank column orders each node's slots as the decision process
    /// breaks ties between next hops: by hashed id, then id.
    #[test]
    fn slab_ranks_each_nodes_slots_in_tie_break_order() {
        let peers = [9u32, 3, 7, 65_000, 1];
        let slab = slab_from(
            100,
            vec![
                peers.iter().map(|&p| session(p, Relationship::Peer)).collect(),
                vec![session(3, Relationship::Customer)],
            ],
        );
        let mut by_tie_break: Vec<u32> = (0..peers.len() as u32).collect();
        by_tie_break.sort_by_key(|&slot| (hash64(u64::from(peers[slot as usize])), peers[slot as usize]));
        for (rank, &slot) in by_tie_break.iter().enumerate() {
            assert_eq!(slab.rank(0, slot), rank as u32);
        }
        assert_ne!(by_tie_break, vec![4, 1, 2, 0, 3], "the hash, not the id, leads the order");
        assert_eq!(slab.rank(1, 0), 0, "ranks are per node");
    }

    #[test]
    fn slab_lookup_is_sorted_independently_of_slot_order() {
        // Slots keep declaration order; the lookup stripe sorts by peer.
        let slab = SessionSlab::for_single(
            AsId(0),
            vec![
                session(9, Relationship::Peer),
                session(3, Relationship::Customer),
                session(7, Relationship::Provider),
            ],
        );
        assert_eq!(slab.slot_of(0, AsId(9)), Some(0));
        assert_eq!(slab.slot_of(0, AsId(3)), Some(1));
        assert_eq!(slab.slot_of(0, AsId(7)), Some(2));
        assert_eq!(slab.sessions(0)[1].peer, AsId(3));
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn slab_rejects_duplicate_peers() {
        SessionSlab::for_single(
            AsId(0),
            vec![session(1, Relationship::Peer), session(1, Relationship::Customer)],
        );
    }

    #[test]
    #[should_panic(expected = "session with self")]
    fn slab_rejects_self_sessions() {
        SessionSlab::for_single(AsId(5), vec![session(5, Relationship::Peer)]);
    }

    #[test]
    fn prefix_table_rows_stay_sorted_and_isolated() {
        let mut t = PrefixTable::new(2);
        let r9 = t.row_or_insert(Prefix(9));
        let r3 = t.row_or_insert(Prefix(3));
        assert_eq!((r9, r3), (0, 0), "later smaller prefix shifts the row");
        let rows: Vec<Prefix> = t.iter_rows().map(|(_, p)| p).collect();
        assert_eq!(rows, vec![Prefix(3), Prefix(9)]);

        let r3 = t.row(Prefix(3)).unwrap();
        let r9 = t.row(Prefix(9)).unwrap();
        let route = crate::PathArena::new().intern(&[AsId(7)]);
        t.set_rib_in(r3, 1, Some((route, 42)));
        t.set_originated(r9, true);
        t.set_best(r9, Some((SELF_SLOT, PathId::EMPTY)));

        assert!(t.rib_in(r3)[0].is_none());
        assert!(t.rib_in(r3)[1].is_some());
        assert!(t.rib_in(r9).iter().all(Option::is_none), "rows are isolated");
        assert!(t.originated(r9) && !t.originated(r3));
        assert_eq!(t.best(r3), None);
        assert_eq!(t.best(r9), Some((SELF_SLOT, PathId::EMPTY)));

        // Inserting a middle row shifts the stripes coherently.
        let r5 = t.row_or_insert(Prefix(5));
        assert_eq!(r5, 1);
        assert!(t.rib_in(r5).iter().all(Option::is_none));
        let r3 = t.row(Prefix(3)).unwrap();
        assert!(t.rib_in(r3)[1].is_some(), "row 3's stripe survived the shift");
        let r9 = t.row(Prefix(9)).unwrap();
        assert_eq!(t.best(r9), Some((SELF_SLOT, PathId::EMPTY)));

        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.row(Prefix(3)), None);
    }

    #[test]
    fn prefix_table_arena_bytes_scale_with_rows_and_slots() {
        let mut t = PrefixTable::new(8);
        assert_eq!(t.arena_bytes(), 0);
        t.row_or_insert(Prefix(1));
        let one = t.arena_bytes();
        t.row_or_insert(Prefix(2));
        assert_eq!(t.arena_bytes(), 2 * one, "bytes are a pure row count model");
    }

    #[test]
    fn damp_table_orders_like_the_old_btreemap() {
        let mut d = DampTable::new();
        assert!(d.is_empty());
        d.get_or_insert(1, Prefix(5)).suppressed = true;
        d.get_or_insert(0, Prefix(9)).suppressed = false;
        d.get_or_insert(1, Prefix(2)).suppressed = true;
        assert_eq!(d.len(), 3);
        assert!(d.get(1, Prefix(5)).unwrap().suppressed);
        assert!(d.get(2, Prefix(5)).is_none());
        d.get_mut(0, Prefix(9)).unwrap().suppressed = true;
        assert!(d.get(0, Prefix(9)).unwrap().suppressed);
        d.clear_slot(1);
        assert_eq!(d.len(), 1);
        assert!(d.get(1, Prefix(2)).is_none());
        assert!(d.get(0, Prefix(9)).is_some());
        d.clear();
        assert!(d.is_empty());
    }
}
