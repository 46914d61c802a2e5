//! Dense, `u32`-indexed arena storage for the BGP state of a whole
//! network.
//!
//! The first-generation [`crate::node::BgpNode`] kept three pointer-heavy
//! maps per node — `slot_of: BTreeMap<AsId, u32>`, `prefixes:
//! BTreeMap<Prefix, PrefixState>` and `damp: BTreeMap<(u32, Prefix),
//! DampState>` — which at Internet scale (50k–70k ASes) means millions of
//! scattered tree nodes, cache-hostile walks on every update, and a large
//! constant allocation overhead per simulated C-event. This module
//! replaces them with flat columns shared by every node, in four id
//! spaces:
//!
//! * **AS id** (`AsId`) — the global, topology-wide node index. Only ever
//!   translated at the edge of a node (who sent me this update?), and in
//!   the simulator not even there: the sender reads the receiver's slot
//!   off the slab ([`SessionSlab::far_end`]).
//! * **slot** (`u32`) — a node-local session index, `0..degree`: what a
//!   node's protocol code and its [`crate::node::Actions`] speak.
//! * **global session id** (`u32`) — the index of a session among all
//!   sessions of the topology. Node `i`'s sessions are the contiguous
//!   [`Stripe`] `SessionSlab::stripe(i)` of this space, the one place a
//!   slot becomes such an id and a per-session column is indexed.
//! * **prefix row** (`u32`) — a network-wide index, handed out in the
//!   order prefixes are first touched by any node and never moved. Below
//!   a node's entry points a route cell, an MRAI timer and a damping
//!   entry are named by their row alone: `PrefixRows` maps a prefix to
//!   its row where a prefix comes in, and back only where an update is
//!   built.
//!
//! [`SessionSlab`] is the AS-id ↔ slot ↔ [`Stripe`] translation table,
//! built **once** from the topology and shared through an `Arc`.
//! [`RouteSlab`] holds every route of the network in columns indexed by
//! those ids, so a simulator's routing state is a fixed handful of heap
//! blocks however many nodes it has.
//!
//! ## Memory layout
//!
//! [`RouteSlab`] keeps three kinds of column:
//!
//! * **per session** (global session id): the MRAI session timer, the
//!   count of queued updates and liveness, twenty-four bytes
//!   ([`crate::mrai`]);
//! * **per (row, node)**: the Loc-RIB entry — best slot, best path, and
//!   whether the node originates the prefix — at `row * nodes + node`;
//! * **per (row, session)**: the Adj-RIB-in and the output cells, laid
//!   out row-major (`row * sessions + global session id`) so that one
//!   node's cells for one prefix are one contiguous stripe to scan. An
//!   Adj-RIB-in cell is twelve bytes in two columns: the route, a
//!   four-byte [`PathId`] into the simulator's path arena
//!   ([`crate::path`]), and its eight-byte preference key
//!   ([`crate::decision::rank_key`]) — short enough because the slab
//!   keeps, per session, the rank that stands in for the next hop's hash
//!   and id ([`SessionSlab::rank`]). An output cell is the Adj-RIB-out
//!   and the queued update, eight bytes unobserved ([`crate::mrai`]).
//!
//! A row is appended for every prefix of the network, and a sorted
//! `(prefix, row)` index (`PrefixRows`) walks the rows in prefix order —
//! the same deterministic order the per-node `BTreeMap` gave, which
//! whole-table operations (session resets, session-up replays) rely on
//! for bit-identical artifacts. One prefix or four hundred (`ext_tablesize`),
//! the same columns serve. A node that never touched a row holds it
//! *unheld*: it has no route there, replays nothing, and the byte model
//! charges it nothing.
//!
//! Damping state ([`DampTable`]) stays sparse — entries exist only for
//! routes with flap history, and the paper's configuration disables RFD
//! entirely — so it is one flat sorted `Vec` keyed by (global session,
//! row) with binary-search access rather than a dense row × session
//! matrix, and it allocates nothing until the first flap is charged.

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use std::ops::Range;
use std::slice::SliceIndex;
use std::sync::Arc;

use bgpscale_obs::Stamp;
use bgpscale_simkernel::rng::hash64;
use bgpscale_simkernel::{EventKey, SimTime};
use bgpscale_topology::AsId;

use crate::message::Prefix;
use crate::mrai::{OutQueue, QueueView, RibOut, SessionState};
use crate::node::Session;
use crate::path::PathId;
use crate::rfd::DampState;

/// Sentinel slot index meaning "the route is self-originated".
pub const SELF_SLOT: u32 = u32::MAX;

/// Sentinel slot index meaning "no best route" in a Loc-RIB entry.
pub(crate) const NO_BEST: u32 = u32::MAX - 1;

/// Sentinel slot index of a Loc-RIB entry whose node never touched the
/// row's prefix: no route, and not the node's row in the byte model.
const UNHELD: u32 = u32::MAX - 2;

/// Documented per-element byte costs for the deterministic arena-size
/// estimate (see [`RouteSlab::arena_bytes`]). These are *fixed model
/// constants*, deliberately not `size_of` (which could drift between
/// toolchains and break bit-identical op counts), and they follow the
/// columns that exist: a slot cell models its four-byte path id plus its
/// cached eight-byte preference key, a row models the prefix, originated,
/// best-slot and best-path columns (thirteen bytes, charged as sixteen).
/// Both are charged per node that holds the row, for its own sessions.
/// The model is part of every pinned op-count baseline (it feeds
/// `arena_bytes_reserved`), so it moves only in a diff that adds, deletes
/// or re-types a per-prefix column; the slab's mirror and rank columns
/// are not charged at all. They are now a fixed convention, not a model:
/// the slab is charged for a peer-lookup column it no longer keeps and no
/// output cell is charged; the schema bump of ROADMAP items 3–5 re-models.
const BYTES_PER_RIB_CELL: u64 = 12;
const BYTES_PER_ROW: u64 = 16;
const BYTES_PER_SESSION: u64 = 16;
const BYTES_PER_DAMP_ENTRY: u64 = 40;

/// The topology-wide session arena: every node's sessions in one
/// concatenated column, built once and shared by all nodes via `Arc`.
#[derive(Clone, Debug)]
pub struct SessionSlab {
    /// All sessions, concatenated per node in slot order.
    sessions: Vec<Session>,
    /// Per node: offset into the per-session columns (length = next
    /// offset). The extra trailing entry makes `stripe(i)` branch-free.
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
    #[expect(
        clippy::expect_used,
        reason = "a slab of more than u32::MAX sessions cannot be addressed, and is refused here"
    )]
    pub fn build<I, S>(nodes: I) -> Arc<SessionSlab>
    where
        I: IntoIterator<Item = (AsId, S)>,
        S: IntoIterator<Item = Session>,
    {
        let mut slab = SessionSlab {
            sessions: Vec::new(),
            offsets: vec![0],
            mirror: Vec::new(),
            rank: Vec::new(),
        };
        // Per node, the `(peer, slot)` pairs sorted by peer AS id: what
        // finds duplicates and mirrors, dropped once the slab is built.
        let mut lookup: Vec<(AsId, u32)> = Vec::new();
        // Scratch for one node's `(hash, peer, slot)` in tie-break order.
        let mut by_tie_break: Vec<(u64, u32, u32)> = Vec::new();
        let mut ids_are_indices = true;
        for (i, (id, sess)) in nodes.into_iter().enumerate() {
            ids_are_indices &= id == AsId(i as u32);
            slab.sessions.extend(sess);
            slab.offsets
                .push(u32::try_from(slab.sessions.len()).expect("session count fits u32"));
            let stripe = slab.stripe(i as u32);
            let sessions = stripe.share(&slab.sessions);
            for (slot, s) in (0..).zip(sessions) {
                assert_ne!(s.peer, id, "session with self at {id}");
                lookup.push((s.peer, slot));
            }
            let node_lookup = stripe.share_mut(&mut lookup);
            node_lookup.sort_unstable_by_key(|&(peer, _)| peer);
            for (&(a, _), &(b, _)) in node_lookup.iter().zip(node_lookup.iter().skip(1)) {
                assert_ne!(a, b, "duplicate session {id}–{a}");
            }
            by_tie_break.clear();
            by_tie_break.extend((0..).zip(sessions).map(|(slot, s)| (hash64(u64::from(s.peer.0)), s.peer.0, slot)));
            by_tie_break.sort_unstable();
            slab.rank.resize(slab.sessions.len(), 0);
            for (rank, &(_, _, slot)) in (0..).zip(&by_tie_break) {
                *stripe.entry_mut(&mut slab.rank, slot) = rank;
            }
        }
        // The columns live as long as the topology: no growth slack.
        slab.sessions.shrink_to_fit();
        slab.rank.shrink_to_fit();
        slab.offsets.shrink_to_fit();
        if ids_are_indices {
            slab.mirror = slab.mirror_slots(&lookup).unwrap_or_default();
        }
        Arc::new(slab)
    }

    /// The mirror column of a slab whose node `i` is `AsId(i)`, or `None`
    /// if some session has no mirror session. One pass over the stripes
    /// of `lookup` (sorted by peer) and no searching: node `i`'s peers
    /// come up in ascending id order, and so — as `i` ascends — do the
    /// entries of each peer's own stripe, so a cursor per node always
    /// points at the mirror of the session at hand.
    fn mirror_slots(&self, lookup: &[(AsId, u32)]) -> Option<Vec<u32>> {
        let n = self.len();
        let mut mirror = vec![0u32; self.sessions.len()];
        // Per node, the next unmatched entry of its lookup stripe.
        let mut cursor = vec![0u32; n];
        for i in 0..n as u32 {
            let stripe = self.stripe(i);
            for &(peer, slot) in stripe.share(lookup) {
                let next = cursor.get_mut(peer.index())?;
                let (back, peer_slot) = *self.stripe(peer.0).share(lookup).get(*next as usize)?;
                if back != AsId(i) {
                    return None;
                }
                *next += 1;
                *stripe.entry_mut(&mut mirror, slot) = peer_slot;
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

    /// Node `node`'s sessions in the global session id space: the one
    /// maker of a [`Stripe`]. Panics if `node` is not one of the slab's.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "the stripe contract is checked here: node < len() is the caller's, and offsets has len() + 1 entries, so node and node + 1 index it"
    )]
    pub fn stripe(&self, node: u32) -> Stripe {
        let (base, end) = (self.offsets[node as usize], self.offsets[node as usize + 1]);
        Stripe { base, degree: end - base }
    }

    /// The sessions of the node owning `stripe`, in slot order.
    pub fn sessions(&self, stripe: Stripe) -> &[Session] {
        stripe.share(&self.sessions)
    }

    /// The slot of `peer` on the node owning `stripe`, if it is a
    /// neighbor — a scan of the node's sessions, for the link failures
    /// and restores that ask.
    pub fn slot_of(&self, stripe: Stripe, peer: AsId) -> Option<u32> {
        (0..).zip(stripe.share(&self.sessions)).find(|(_, s)| s.peer == peer).map(|(slot, _)| slot)
    }

    /// Session `slot` of the node owning `stripe`.
    #[inline]
    pub fn session(&self, stripe: Stripe, slot: u32) -> Session {
        *stripe.entry(&self.sessions, slot)
    }

    /// The far end of session `slot` of the node owning `stripe`: the
    /// peer, and the slot the node holds at that peer — where a message
    /// sent over the session arrives. Lets the sender address the
    /// receiver's slot directly, so no delivery has to search for it.
    ///
    /// # Panics
    /// Panics on a slab that is not closed (see the `mirror` column).
    pub fn far_end(&self, stripe: Stripe, slot: u32) -> (AsId, u32) {
        (stripe.entry(&self.sessions, slot).peer, *stripe.entry(&self.mirror, slot))
    }

    /// The rank of session `slot` of the node owning `stripe` in the
    /// decision process's tie-break order among that node's sessions: 0
    /// for the next hop that wins every tie (smallest hashed id, then
    /// smallest id).
    pub fn rank(&self, stripe: Stripe, slot: u32) -> u32 {
        *stripe.entry(&self.rank, slot)
    }

    /// Total sessions across all nodes.
    pub fn total_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Deterministic estimate of the slab's resident bytes (model
    /// constants, not `size_of`; see `BYTES_PER_ROW`).
    pub fn arena_bytes(&self) -> u64 {
        self.sessions.len() as u64 * BYTES_PER_SESSION * 2 // sessions + the lookup of the convention
            + self.offsets.len() as u64 * 4
    }
}

/// One node's sessions in the global session id space: ids `base..base +
/// degree`, slot `s` at `base + s`. Only [`SessionSlab::stripe`] makes one,
/// after checking the node, so a stripe lies inside every per-session
/// column sized for the slab. It is the one place a slot becomes a global
/// session id and a per-session column is cut; a slot at or past the
/// degree is a caller bug and panics here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stripe {
    base: u32,
    degree: u32,
}

impl Stripe {
    /// The global session id of `slot`.
    #[inline]
    pub fn id(self, slot: u32) -> u32 {
        assert!(slot < self.degree, "slot {slot} of a node of degree {}", self.degree);
        self.base + slot
    }

    /// The node's share of `column`, a per-session column.
    pub fn share<T>(self, column: &[T]) -> &[T] {
        Stripe::cut(column, self.cells(0))
    }

    /// The node's share of `column`, writable.
    pub fn share_mut<T>(self, column: &mut [T]) -> &mut [T] {
        Stripe::cut_mut(column, self.cells(0))
    }

    /// The entry of `slot` in `column`, a per-session column.
    pub fn entry<T>(self, column: &[T], slot: u32) -> &T {
        Stripe::cut(column, self.slot_cell(0, slot))
    }

    /// The entry of `slot` in `column`, writable.
    pub fn entry_mut<T>(self, column: &mut [T], slot: u32) -> &mut T {
        Stripe::cut_mut(column, self.slot_cell(0, slot))
    }

    /// The node's cells in the row at `row_start` of a row-major per-session column.
    #[inline]
    fn cells(self, row_start: usize) -> Range<usize> {
        let start = row_start + self.base as usize;
        start..start + self.degree as usize
    }

    /// The cell of `slot` in that row.
    #[inline]
    pub(crate) fn slot_cell(self, row_start: usize, slot: u32) -> usize {
        row_start + self.id(slot) as usize
    }

    /// `column[at]`, for `at` the [`Stripe::cells`] or [`Stripe::slot_cell`] of a stripe.
    #[expect(
        clippy::indexing_slicing,
        reason = "the stripe contract: at is a stripe's cells or checked cell (Stripe::id refused a slot past the degree) in a row that touch/row returned (an OutQueue, Actions or SimEvent row included: each is one of those), or in the one row of a per-session column; SessionSlab::stripe checked the node, so that lies inside a column sized for the slab"
    )]
    pub(crate) fn cut<T, I: SliceIndex<[T]>>(column: &[T], at: I) -> &I::Output {
        &column[at]
    }

    /// [`Stripe::cut`], writable.
    #[expect(
        clippy::indexing_slicing,
        reason = "the stripe contract: at is a stripe's cells or checked cell (Stripe::id refused a slot past the degree) in a row that touch/row returned (an OutQueue, Actions or SimEvent row included: each is one of those), or in the one row of a per-session column; SessionSlab::stripe checked the node, so that lies inside a column sized for the slab"
    )]
    pub(crate) fn cut_mut<T, I: SliceIndex<[T]>>(column: &mut [T], at: I) -> &mut I::Output {
        &mut column[at]
    }
}

/// One node's Loc-RIB entry for one prefix row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LocRib {
    /// A slot, [`SELF_SLOT`], [`NO_BEST`], or [`UNHELD`].
    slot: u32,
    /// The best AS path as received (empty for self-originated routes
    /// and when there is no best).
    path: PathId,
    /// True while the node originates the row's prefix.
    pub(crate) originated: bool,
}

impl LocRib {
    const UNHELD: LocRib = LocRib {
        slot: UNHELD,
        path: PathId::EMPTY,
        originated: false,
    };

    /// The best route: `None` if unreachable, else `(slot-or-SELF_SLOT,
    /// path as received)`.
    pub(crate) fn best(&self) -> Option<(u32, PathId)> {
        match self.slot {
            NO_BEST | UNHELD => None,
            slot => Some((slot, self.path)),
        }
    }

    /// Replaces the best route.
    pub(crate) fn set_best(&mut self, best: Option<(u32, PathId)>) {
        (self.slot, self.path) = match best {
            None => (NO_BEST, PathId::EMPTY),
            Some((slot, path)) => {
                debug_assert!(slot != NO_BEST && slot != UNHELD);
                (slot, path)
            }
        };
    }
}

/// Every route of a network: the Adj-RIBs-in, Loc-RIBs, output queues
/// (Adj-RIBs-out and MRAI timers), session liveness and damping history
/// of all its nodes, in simulator-wide columns (see the module docs).
///
/// Built once per simulator from its [`SessionSlab`] — one allocation,
/// however many nodes, until the first row — and cleared, buffers kept,
/// between runs. A node's
/// protocol code reads and writes its share through a
/// [`crate::BgpNode`] view. `S` is the stamp queued updates carry (see
/// [`crate::Update`]).
#[derive(Clone, Debug)]
pub struct RouteSlab<S = ()> {
    /// Nodes and sessions of the slab the columns were sized for.
    nodes: usize,
    sessions: usize,
    /// Per session: the MRAI session timer, the count of queued updates
    /// and liveness.
    pub(crate) state: Vec<SessionState>,
    /// Per (row, session): the Adj-RIB-out, queued updates and per-prefix
    /// timers.
    pub(crate) out: RibOut<S>,
    /// Every row's prefix, both ways.
    rows: PrefixRows,
    /// Per (row, node): the Loc-RIB entry, at `row * nodes + node`.
    loc: Vec<LocRib>,
    /// Per (row, session): the cached preference key of the Adj-RIB-in
    /// cell (meaningful only while the cell holds a route), written with
    /// the route by [`RouteSlab::set_rib_in`]. Lets the decision process
    /// compare candidates by one integer compare instead of re-deriving
    /// the full preference tuple from the path.
    rib_key: Vec<u64>,
    /// Per (row, session): the Adj-RIB-in, at `row * sessions + session`.
    rib_in: Vec<Option<PathId>>,
    /// Damping state per (global session, row); entries exist only for
    /// routes with flap history (none while [`crate::BgpConfig::rfd`] is
    /// off).
    pub(crate) damp: DampTable,
    /// The byte model's tallies: (node, row) pairs held, and the sessions
    /// of their nodes (one Adj-RIB-in cell each).
    held_rows: u64,
    held_cells: u64,
}

// An Adj-RIB-in cell is its key and its path id, in two columns.
const _: () = assert!(std::mem::size_of::<u64>() + std::mem::size_of::<Option<PathId>>() <= 16);

impl<S: Stamp> RouteSlab<S> {
    /// Empty route columns for the nodes and sessions of `slab`: every
    /// session up with an idle queue, no prefix rows.
    pub fn new(slab: &SessionSlab) -> RouteSlab<S> {
        let sessions = slab.total_sessions();
        RouteSlab {
            nodes: slab.len(),
            sessions,
            state: vec![SessionState::UP; sessions],
            out: RibOut::new(sessions),
            rows: PrefixRows::default(),
            loc: Vec::new(),
            rib_key: Vec::new(),
            rib_in: Vec::new(),
            damp: DampTable::new(),
            held_rows: 0,
            held_cells: 0,
        }
    }

    /// Number of prefix rows.
    pub fn rows(&self) -> usize {
        self.rows.prefix.len()
    }

    /// The row of `prefix`, if any node touched it.
    pub fn row(&self, prefix: Prefix) -> Option<u32> {
        self.rows.row(prefix)
    }

    /// Every row in sorted prefix order.
    pub fn rows_by_prefix(&self) -> impl Iterator<Item = u32> + '_ {
        self.rows.by_prefix()
    }

    /// The row of `prefix` for node `node`, whose sessions are `stripe`,
    /// appending an empty row if no node touched the prefix before, and
    /// making the row the node's — held, and charged to it in the byte
    /// model — if it was not.
    pub fn touch(&mut self, prefix: Prefix, node: u32, stripe: Stripe) -> u32 {
        let row = match self.row(prefix) {
            Some(row) => row,
            None => {
                let row = self.rows.push(prefix);
                self.loc.extend(std::iter::repeat_n(LocRib::UNHELD, self.nodes));
                self.rib_key.extend(std::iter::repeat_n(0, self.sessions));
                self.rib_in.extend(std::iter::repeat_n(None, self.sessions));
                self.out.push_row();
                row
            }
        };
        let loc = self.loc_mut(row, node);
        if loc.slot == UNHELD {
            loc.slot = NO_BEST;
            self.held_rows += 1;
            self.held_cells += u64::from(stripe.degree);
        }
        row
    }

    /// Node `node`'s Loc-RIB entry for `row`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the row contract: a row index is one that touch/row returned, and node < nodes held when the caller's stripe was made; loc holds nodes entries per row"
    )]
    pub(crate) fn loc(&self, row: u32, node: u32) -> &LocRib {
        &self.loc[row as usize * self.nodes + node as usize]
    }

    /// Node `node`'s Loc-RIB entry for `row`, writable.
    #[expect(
        clippy::indexing_slicing,
        reason = "the row contract: a row index is one that touch/row returned, and node < nodes held when the caller's stripe was made; loc holds nodes entries per row"
    )]
    pub(crate) fn loc_mut(&mut self, row: u32, node: u32) -> &mut LocRib {
        &mut self.loc[row as usize * self.nodes + node as usize]
    }

    /// The Adj-RIB-in of the node owning `stripe` for `row`: one route
    /// and one cached preference key per slot. A key means something only
    /// while its cell holds a route.
    pub(crate) fn adj_rib_in(&self, row: u32, stripe: Stripe) -> (&[Option<PathId>], &[u64]) {
        let cells = stripe.cells(row as usize * self.sessions);
        (Stripe::cut(&self.rib_in, cells.clone()), Stripe::cut(&self.rib_key, cells))
    }

    /// One Adj-RIB-in cell of the node owning `stripe`: the route, and
    /// the preference key cached beside it (meaningful only while the
    /// cell holds a route).
    pub(crate) fn rib_in(&self, row: u32, stripe: Stripe, slot: u32) -> (Option<PathId>, u64) {
        let cell = stripe.slot_cell(row as usize * self.sessions, slot);
        (*Stripe::cut(&self.rib_in, cell), *Stripe::cut(&self.rib_key, cell))
    }

    /// Overwrites one Adj-RIB-in cell of the node owning `stripe`: the
    /// route with its preference key ([`crate::decision::rank_key`]), or
    /// `None` for a withdrawal (the stale key stays behind, unread).
    ///
    /// # Panics
    /// Panics if `slot` is not one of the node's sessions.
    pub(crate) fn set_rib_in(&mut self, row: u32, stripe: Stripe, slot: u32, route: Option<(PathId, u64)>) {
        let cell = stripe.slot_cell(row as usize * self.sessions, slot);
        *Stripe::cut_mut(&mut self.rib_in, cell) = route.map(|(path, _)| path);
        if let Some((_, key)) = route {
            *Stripe::cut_mut(&mut self.rib_key, cell) = key;
        }
    }

    /// The output queue of session `slot` of the node owning `stripe`,
    /// read-only.
    pub fn queue(&self, stripe: Stripe, slot: u32) -> QueueView<'_, S> {
        let state = stripe.entry(&self.state, slot);
        QueueView { state, out: &self.out, rows: &self.rows, stripe, slot }
    }

    /// The output queue of session `slot` of the node owning `stripe`.
    pub fn queue_mut(&mut self, stripe: Stripe, slot: u32) -> OutQueue<'_, S> {
        let state = stripe.entry_mut(&mut self.state, slot);
        OutQueue { state, out: &mut self.out, rows: &self.rows, stripe, slot }
    }

    /// True if the route of global session `session` in `row` is
    /// currently damped.
    pub(crate) fn suppressed(&self, session: u32, row: u32) -> bool {
        self.damp.get(session, row).is_some_and(|s| s.suppressed)
    }

    /// The key reserved for every MRAI timer of the network.
    fn timer_keys(&self) -> impl Iterator<Item = EventKey> + '_ {
        self.state.iter().map(|s| s.until).chain(self.out.timers.iter().map(|t| t.until))
    }

    /// The latest key reserved for any MRAI timer of the network that is
    /// not after `deadline` (see [`QueueView::latest_key_by`]): one pass
    /// over the timer columns.
    pub fn latest_timer_key_by(&self, deadline: SimTime) -> EventKey {
        let due = self.timer_keys().filter(|key| key.time <= deadline);
        due.max().unwrap_or(EventKey::ZERO)
    }

    /// Clears all routing state (RIBs, damping history, output queues),
    /// keeping session liveness and every buffer. Used between C-events.
    ///
    /// # Panics
    /// Panics if any MRAI timer is still armed at `now` — a neighbor
    /// would see the next announcement too early.
    pub fn reset_routing(&mut self, now: EventKey) {
        assert!(self.timer_keys().all(|key| key <= now), "reset with an armed MRAI timer");
        for state in &mut self.state {
            *state = state.idle();
        }
        self.clear_rows();
    }

    /// Returns every route to the state [`RouteSlab::new`] built, from
    /// any state: RIBs, damping history, Adj-RIB-outs and queued updates
    /// cleared, every MRAI timer disarmed, every session up. Every buffer
    /// is kept. Unlike [`RouteSlab::reset_routing`] this does not require
    /// quiescence: the caller discards its scheduled expiry events along
    /// with everything else.
    pub fn recycle(&mut self) {
        self.state.fill(SessionState::UP);
        self.clear_rows();
    }

    fn clear_rows(&mut self) {
        self.rows.clear();
        self.loc.clear();
        self.rib_key.clear();
        self.rib_in.clear();
        self.out.clear();
        self.damp.clear();
        self.held_rows = 0;
        self.held_cells = 0;
    }

    /// Deterministic estimate of the network's route-resident bytes
    /// (model constants, not `size_of`; see `BYTES_PER_ROW`): each
    /// node's held rows with a cell per session of the node, plus the
    /// damping entries. The shared session slab is counted by its owner.
    pub fn arena_bytes(&self) -> u64 {
        self.held_rows * BYTES_PER_ROW
            + self.held_cells * BYTES_PER_RIB_CELL
            + self.damp.arena_bytes()
    }
}

/// Every row's prefix, both ways: a row → prefix column, read only where
/// an update is built, and the `(prefix, row)` pairs sorted by prefix,
/// searched where a prefix comes in and walked wherever the rows must go
/// in prefix order.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixRows {
    /// Per row: its prefix.
    prefix: Vec<Prefix>,
    /// `(prefix, row)` for every row, sorted by prefix.
    by_prefix: Vec<(Prefix, u32)>,
}

impl PrefixRows {
    /// The row of `prefix`, if any node touched it.
    pub(crate) fn row(&self, prefix: Prefix) -> Option<u32> {
        let at = self.by_prefix.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
        self.by_prefix.get(at).map(|&(_, row)| row)
    }

    /// The prefix of `row`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the row contract: a row index is one that touch/row returned, and push gave it its prefix"
    )]
    pub(crate) fn prefix(&self, row: u32) -> Prefix {
        self.prefix[row as usize]
    }

    /// Every row in sorted prefix order.
    pub(crate) fn by_prefix(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_prefix.iter().map(|&(_, row)| row)
    }

    /// Appends the row of `prefix`, which has none, and returns it.
    fn push(&mut self, prefix: Prefix) -> u32 {
        let row = self.prefix.len() as u32;
        let at = self.by_prefix.partition_point(|&(p, _)| p < prefix);
        self.by_prefix.insert(at, (prefix, row));
        self.prefix.push(prefix);
        row
    }

    fn clear(&mut self) {
        self.prefix.clear();
        self.by_prefix.clear();
    }
}

/// Sparse per-(session, row) damping state: a flat sorted vector with
/// binary-search access, keyed by global session id and prefix row.
/// Allocates nothing until the first flap is charged.
#[derive(Clone, Debug, Default)]
pub struct DampTable {
    entries: Vec<((u32, u32), DampState)>,
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

    /// Number of (session, row) pairs with flap history.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    fn search(&self, session: u32, row: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&(session, row), |&(k, _)| k)
    }

    /// The damping state for `(session, row)`, if any.
    pub fn get(&self, session: u32, row: u32) -> Option<&DampState> {
        let at = self.search(session, row).ok()?;
        self.entries.get(at).map(|e| &e.1)
    }

    /// Mutable damping state for `(session, row)`, if any.
    pub fn get_mut(&mut self, session: u32, row: u32) -> Option<&mut DampState> {
        let at = self.search(session, row).ok()?;
        self.entries.get_mut(at).map(|e| &mut e.1)
    }

    /// The damping state for `(session, row)`, default-inserting.
    #[expect(
        clippy::indexing_slicing,
        reason = "on Ok the index is a hit inside entries; on Err it is the sorted insertion point just inserted at"
    )]
    pub fn get_or_insert(&mut self, session: u32, row: u32) -> &mut DampState {
        let i = match self.search(session, row) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, ((session, row), DampState::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Drops every entry for `session` (session reset).
    pub fn clear_session(&mut self, session: u32) {
        self.entries.retain(|&((s, _), _)| s != session);
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
    use crate::mrai::Lender;
    use crate::node::BgpNode;
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
        assert_eq!(slab.stripe(0).degree, 2);
        assert_eq!(slab.stripe(1), Stripe { base: 2, degree: 1 }, "node 1's sessions follow node 0's two");
        assert_eq!(slab.slot_of(slab.stripe(0), AsId(1)), Some(0));
        assert_eq!(slab.slot_of(slab.stripe(0), AsId(2)), Some(1));
        assert_eq!(slab.slot_of(slab.stripe(0), AsId(3)), None);
        assert_eq!(slab.slot_of(slab.stripe(1), AsId(0)), Some(0));
        assert_eq!(slab.sessions(slab.stripe(2))[0].peer, AsId(0));
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
            for slot in 0..slab.stripe(node).degree {
                let (peer, at_peer) = slab.far_end(slab.stripe(node), slot);
                assert_eq!(peer, slab.sessions(slab.stripe(node))[slot as usize].peer);
                assert_eq!(slab.slot_of(slab.stripe(peer.0), AsId(node)), Some(at_peer));
                assert_eq!(slab.far_end(slab.stripe(peer.0), at_peer), (AsId(node), slot), "mirror of the mirror");
            }
        }
        // Open slabs — a standalone node, a one-way session — have none.
        assert!(SessionSlab::for_single(AsId(0), vec![session(1, Relationship::Peer)]).mirror.is_empty());
        let one_way = slab_from(0, vec![vec![session(1, Relationship::Peer)], vec![]]);
        assert!(one_way.mirror.is_empty());
    }

    /// On a generated topology the stripes of nodes `0..len` are
    /// contiguous and disjoint and cover the whole session id space, and
    /// every session's far end lies inside its peer's stripe.
    #[test]
    fn slab_stripes_tile_the_session_space() {
        let g = bgpscale_topology::generate(bgpscale_topology::GrowthScenario::Baseline, 500, 7);
        let slab = SessionSlab::build(g.node_ids().map(|id| {
            let sessions = g.neighbors(id).iter().map(|nb| Session {
                peer: nb.id,
                rel: nb.rel,
            });
            (id, sessions)
        }));
        assert_eq!(slab.len(), 500);
        let mut next = 0;
        for node in 0..slab.len() as u32 {
            let stripe = slab.stripe(node);
            assert_eq!(stripe.base, next, "node {node}'s stripe starts where the last one ended");
            for slot in 0..stripe.degree {
                assert_eq!(stripe.id(slot), next + slot);
                let (peer, at_peer) = slab.far_end(stripe, slot);
                let there = slab.stripe(peer.0);
                assert!(at_peer < there.degree, "{node}:{slot} lands outside {peer}'s stripe");
                assert_eq!(slab.far_end(there, at_peer), (AsId(node), slot));
            }
            next += stripe.degree;
        }
        assert_eq!(next as usize, slab.total_sessions(), "the stripes cover every session");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_stripe_past_the_last_node_panics() {
        let slab = slab_from(0, vec![vec![session(1, Relationship::Peer)], vec![session(0, Relationship::Peer)]]);
        slab.stripe(slab.len() as u32);
    }

    /// Slot `degree` of node 0 would be node 1's first session: the
    /// stripe, not the column's length, must refuse it.
    #[test]
    #[should_panic(expected = "slot 1 of a node of degree 1")]
    fn a_slot_at_the_degree_panics() {
        let slab = slab_from(0, vec![vec![session(1, Relationship::Peer)], vec![session(0, Relationship::Peer)]]);
        let column = vec![0u8; slab.total_sessions()];
        let stripe = slab.stripe(0);
        stripe.entry(&column, stripe.degree);
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
            assert_eq!(slab.rank(slab.stripe(0), slot), rank as u32);
        }
        assert_ne!(by_tie_break, vec![4, 1, 2, 0, 3], "the hash, not the id, leads the order");
        assert_eq!(slab.rank(slab.stripe(1), 0), 0, "ranks are per node");
    }

    #[test]
    fn slot_of_finds_each_peer_whatever_the_slot_order() {
        // Slots keep declaration order, which is not peer order.
        let slab = SessionSlab::for_single(
            AsId(0),
            vec![
                session(9, Relationship::Peer),
                session(3, Relationship::Customer),
                session(7, Relationship::Provider),
            ],
        );
        assert_eq!(slab.slot_of(slab.stripe(0), AsId(9)), Some(0));
        assert_eq!(slab.slot_of(slab.stripe(0), AsId(3)), Some(1));
        assert_eq!(slab.slot_of(slab.stripe(0), AsId(7)), Some(2));
        assert_eq!(slab.sessions(slab.stripe(0))[1].peer, AsId(3));
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

    /// Rows are network-wide and appended on a prefix's first touch by
    /// any node. Two nodes of different degree — AS0 with a customer AS1
    /// and a peer AS2, AS1 with its provider AS0 only, AS2 with its peer
    /// AS0 only — touch prefixes 9, 3 and 5 in turn.
    #[test]
    fn network_rows_stay_sorted_and_isolated_per_node() {
        let slab = slab_from(
            0,
            vec![
                vec![session(1, Relationship::Customer), session(2, Relationship::Peer)],
                vec![session(0, Relationship::Provider)],
                vec![session(0, Relationship::Peer)],
            ],
        );
        let mut routes = RouteSlab::new(&slab);
        let mut w = Lender::default();
        let route = w.paths.intern(&[AsId(7)]);
        let t0 = EventKey::ZERO;
        // One step at node `id`, its timers given keys half a minute on.
        type Entry<'e> = &'e dyn Fn(&mut BgpNode, &mut crate::mrai::Step);
        let mut act = |routes: &mut RouteSlab, id: u32, entry: Entry| {
            let mut node = BgpNode::new(AsId(id), &slab, routes);
            let a = w.act(t0, |s| entry(&mut node, s));
            for (i, &(slot, which)) in a.arms.iter().enumerate() {
                let key = EventKey {
                    time: SimTime::from_secs(30),
                    seq: i as u64,
                };
                node.timer_armed_at(slot, which, key);
            }
            a
        };
        let (p3, p5, p9) = (Prefix(3), Prefix(5), Prefix(9));
        // AS1 learns 9 from AS0; AS0 learns 3 from its peer AS2.
        act(&mut routes, 1, &|n, s| n.receive(0, crate::Update::announce(p9, route), s));
        act(&mut routes, 0, &|n, s| n.receive(1, crate::Update::announce(p3, route), s));
        assert_eq!((routes.row(p9), routes.row(p3)), (Some(0), Some(1)), "rows in first-touch order");
        let walk: Vec<u32> = routes.rows_by_prefix().collect();
        assert_eq!(walk, vec![1, 0], "the walk ascends by prefix");
        // Held: AS1 row 9 (one cell), AS0 row 3 (two cells).
        let held = 2 * BYTES_PER_ROW + 3 * BYTES_PER_RIB_CELL;
        assert_eq!(routes.arena_bytes(), held, "only the nodes that touched a row are charged");

        // AS0 originates 5, which lands in a new last row but sorts
        // between the others; the earlier rows' cells are untouched.
        act(&mut routes, 0, &|n, s| n.originate_caused(p5, s));
        assert_eq!(routes.row(p5), Some(2));
        let walk: Vec<Prefix> = routes.rows_by_prefix().map(|row| routes.rows.prefix(row)).collect();
        assert_eq!(walk, vec![p3, p5, p9]);
        let as0_stripe = slab.stripe(0);
        let as1_stripe = slab.stripe(1);
        assert_eq!(routes.adj_rib_in(1, as0_stripe).0, &[None, Some(route)], "AS0's row-3 cells survived");
        assert_eq!(routes.adj_rib_in(0, as1_stripe).0, &[Some(route)], "AS1's row-9 cell survived");
        assert_eq!(routes.adj_rib_in(0, as0_stripe).0, &[None, None], "rows are isolated per node");
        assert_eq!(routes.adj_rib_in(1, as1_stripe).0, &[None]);
        let view = |routes: &RouteSlab, id: u32, p| {
            crate::NodeView::new(AsId(id), &slab, routes).best_route(p)
        };
        assert_eq!(view(&routes, 0, p5), Some((None, PathId::EMPTY)));
        assert_eq!(view(&routes, 0, p3).map(|r| r.0), Some(Some(AsId(2))));
        assert_eq!(view(&routes, 1, p9).map(|r| r.0), Some(Some(AsId(0))));
        // AS2 never heard of any prefix: no route, and a session that
        // comes back up replays nothing.
        for p in [p3, p5, p9] {
            assert_eq!(view(&routes, 2, p), None);
        }
        act(&mut routes, 2, &|n, s| n.session_down_caused(0, s));
        let replay = act(&mut routes, 2, &|n, s| n.session_up_caused(0, s));
        assert!(replay.sends.is_empty() && replay.arms.is_empty(), "AS2 replays nothing: {replay:?}");
        assert_eq!(routes.arena_bytes(), held + BYTES_PER_ROW + 2 * BYTES_PER_RIB_CELL);

        // Both clears leave no row, and no byte charged.
        let mut recycled = routes.clone();
        recycled.recycle();
        assert_eq!((recycled.rows(), recycled.row(p3), recycled.arena_bytes()), (0, None, 0));
        let mut reset = routes;
        reset.reset_routing(EventKey {
            time: SimTime::from_secs(3600),
            seq: 0,
        });
        assert_eq!((reset.rows(), reset.row(p9), reset.arena_bytes()), (0, None, 0));
        assert_eq!(crate::NodeView::new(AsId(0), &slab, &reset).best_route(p5), None);
    }

    #[test]
    fn damp_table_orders_like_the_old_btreemap() {
        let mut d = DampTable::new();
        assert!(d.is_empty());
        d.get_or_insert(1, 5).suppressed = true;
        d.get_or_insert(0, 9).suppressed = false;
        d.get_or_insert(1, 2).suppressed = true;
        assert_eq!(d.len(), 3);
        assert!(d.get(1, 5).unwrap().suppressed);
        assert!(d.get(2, 5).is_none());
        d.get_mut(0, 9).unwrap().suppressed = true;
        assert!(d.get(0, 9).unwrap().suppressed);
        d.clear_session(1);
        assert_eq!(d.len(), 1);
        assert!(d.get(1, 2).is_none());
        assert!(d.get(0, 9).is_some());
        d.clear();
        assert!(d.is_empty());
    }
}
