//! The per-AS BGP speaker: the node model of the paper's Fig. 2.
//!
//! A [`BgpNode`] holds routes and nothing else: per neighbor session, an
//! Adj-RIB-in slot and an MRAI-limited output queue
//! ([`crate::mrai::OutQueue`]); per prefix, the selected best route
//! (Loc-RIB); session liveness and damping history. It is a **pure
//! protocol machine**: every entry point is `node.method(<what happened>,
//! &mut step)`, and the [`Step`] the caller lends it (the event-driven
//! simulator in `bgpscale-core`, or a unit test) carries everything that
//! is not a route — the one protocol configuration of the network, the
//! [`EventKey`] of the event being handled (the node keeps no clock; the
//! key is all an MRAI timer needs to know whether it is still armed, see
//! [`crate::mrai`]), the cause to stamp on exports, the [`PathArena`] the
//! node's [`PathId`]s are ids of, the work tallies, and the [`Actions`]
//! buffer the step's transmissions and timer requests are appended to as
//! plain data. The caller decides when those happen; the simulator keeps
//! one buffer, drains it after every step and lends it again, so a
//! protocol step allocates nothing.
//!
//! Pipeline per received update (Fig. 2): update the neighbor's Adj-RIB-in
//! → re-run the decision process → if the best route changed, run the
//! export filter for every neighbor and submit the new intent (announce /
//! withdraw / nothing) to that neighbor's output queue.
//!
//! ## Memory layout
//!
//! All per-node state is arena-backed (see [`crate::arena`]): sessions
//! and the AS-id → slot lookup live in a [`SessionSlab`] shared by every
//! node of a topology through an `Arc`; per-prefix state lives in the
//! structure-of-arrays [`PrefixTable`]; damping history in the flat
//! [`DampTable`]. A standalone node built with [`BgpNode::new`] owns a
//! private one-node slab; the simulator builds one topology-wide slab and
//! hands every node a clone of the `Arc` via [`BgpNode::from_slab`].
//!
//! A route is a four-byte [`PathId`] wherever the node keeps one: an
//! Adj-RIB-in cell is that id beside an eight-byte preference key
//! ([`crate::decision::rank_key`]), the Loc-RIB and each session's
//! Adj-RIB-out hold the id alone, and every session's [`OutQueue`] is one
//! cache line. The hops themselves live once, in the caller's arena.

use std::sync::Arc;

use bgpscale_simkernel::{EventKey, SimTime};
use bgpscale_topology::{AsId, Relationship};

use crate::arena::{DampTable, PrefixTable, SessionSlab, SELF_SLOT};
use crate::config::MraiScope;
use crate::decision::rank_key;
use crate::message::{Prefix, Update, UpdateKind};
use crate::mrai::{governing, OutQueue, Step, Submit};
use crate::path::PathId;
use crate::policy::{export_allowed, would_loop, RouteSource};
use crate::rfd::FlapKind;

/// One configured neighbor session.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    /// The neighbor AS.
    pub peer: AsId,
    /// Our relationship to the neighbor.
    pub rel: Relationship,
}

/// The transmissions and timer requests produced by one protocol step.
///
/// `sends` are messages to put on the wire immediately (the simulator adds
/// link latency); for every entry of `arms`, in order, the caller must
/// reserve the key of an expiry one jittered MRAI interval away and hand
/// it to [`BgpNode::timer_armed_at`] — no event yet; for every entry of
/// `expiries` it must schedule the expiry event at the given key and,
/// when it pops and [`BgpNode::expiry_due`] still holds of it, call
/// [`BgpNode::mrai_flush`].
///
/// A step appends to the `Actions` it is lent and never clears them: the
/// caller drains the lists once it has acted on them.
#[derive(Clone, Debug, Default)]
pub struct Actions {
    /// `(neighbor slot, message)` pairs to transmit now.
    pub sends: Vec<(u32, Update)>,
    /// MRAI timers to arm now: `(slot, None)` is the session timer,
    /// `(slot, Some(prefix))` a per-prefix timer (the scope is the
    /// network's, so one step lists one kind).
    pub arms: Vec<(u32, Option<Prefix>)>,
    /// Expiry events to schedule: an update now waits behind the timer of
    /// `(slot, prefix or the session timer)`, armed in an earlier step
    /// under the given key.
    pub expiries: Vec<(u32, Option<Prefix>, EventKey)>,
    /// Route-flap-damping reuse wake-ups to schedule: at the given time,
    /// call [`BgpNode::rfd_reuse_caused`] for the (slot, prefix) pair.
    pub rfd_wakeups: Vec<(u32, Prefix, SimTime)>,
}

impl Actions {
    /// True if nothing needs to happen.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.arms.is_empty()
            && self.expiries.is_empty()
            && self.rfd_wakeups.is_empty()
    }

    /// Records what `submit`, the answer of `slot`'s queue to an intent
    /// for `prefix`, obliges the caller to do.
    fn absorb(&mut self, slot: u32, prefix: Prefix, submit: Submit, scope: MraiScope) {
        match submit {
            Submit::SendNow { update, arm_timer } => {
                if arm_timer {
                    self.arms.push((slot, governing(scope, prefix)));
                }
                self.sends.push((slot, update));
            }
            Submit::Queued {
                expire_at: Some(key),
            } => self.expiries.push((slot, governing(scope, prefix), key)),
            Submit::Queued { expire_at: None } | Submit::Suppressed => {}
        }
    }
}

/// What changed since the row's last decision run.
///
/// With damping off (the paper's configuration), a change confined to one
/// Adj-RIB-in slot cannot displace the incumbent best route without
/// beating it head-to-head — [`crate::decision::preference_key`] is a
/// strict total order — so the decision costs one comparison instead of
/// a rescan, unless the incumbent itself was withdrawn or got worse.
/// `Full` always rescans: originations and RFD eligibility changes.
#[derive(Clone, Copy, Debug)]
enum Reeval {
    /// Rescan every Adj-RIB-in slot.
    Full,
    /// Only this slot's Adj-RIB-in entry changed since the last run.
    SlotChanged(u32),
}

/// A BGP speaker for one AS.
#[derive(Clone, Debug)]
pub struct BgpNode {
    id: AsId,
    /// The topology-wide session arena; this node reads its own stripe.
    slab: Arc<SessionSlab>,
    /// This node's index into the slab's id spaces.
    slab_idx: u32,
    /// Per-prefix SoA state: Adj-RIB-in columns, origination flags and the
    /// Loc-RIB best, addressed by sorted prefix row.
    table: PrefixTable,
    out: Vec<OutQueue>,
    /// Per-slot session liveness. A down session receives no exports and
    /// contributes no routes; see [`BgpNode::session_down_caused`].
    active: Vec<bool>,
    /// Damping state per (slot, prefix); entries exist only for routes
    /// with flap history (none while [`crate::BgpConfig::rfd`] is off).
    damp: DampTable,
}

// One per AS of the topology: routes only — no configuration, no tallies.
const _: () = assert!(std::mem::size_of::<BgpNode>() <= 256);

/// Monotone operation tallies of the BGP speakers of one network,
/// feeding the workspace-wide deterministic cost model
/// (`obs::costmodel`). The caller owns the one struct and lends it with
/// every [`Step`]: a node tallies its decision and path handling into it,
/// its output queues their Adj-RIB-out writes and MRAI coalescing. Never
/// reset by routing-state clears, so phase-boundary snapshots can be
/// diffed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCostCounters {
    /// Decision-process runs (one per `reevaluate` of a prefix).
    pub decision_runs: u64,
    /// Candidate-route preference comparisons inside the decision process.
    pub route_comparisons: u64,
    /// Sessions that took a built export path (its id, four bytes).
    pub path_intern_hits: u64,
    /// Export paths built: one [`PathArena::prepend`], a lookup-or-insert.
    pub path_intern_misses: u64,
    /// Adj-RIB-out mutations across all output queues.
    pub rib_out_writes: u64,
    /// MRAI-coalesced pending updates across all output queues.
    pub mrai_coalesced: u64,
}

impl BgpNode {
    /// Creates a standalone speaker with the given neighbor sessions,
    /// backed by a private one-node [`SessionSlab`].
    ///
    /// # Panics
    /// Panics if a neighbor appears twice or equals `id`.
    pub fn new(id: AsId, sessions: Vec<Session>) -> Self {
        let slab = SessionSlab::for_single(id, sessions);
        Self::from_slab(id, slab, 0)
    }

    /// Creates a speaker reading its sessions from stripe `slab_idx` of a
    /// shared [`SessionSlab`]. This is the simulator's constructor: one
    /// slab is built per topology and every node holds an `Arc` clone, so
    /// instantiating a node allocates no per-session lookup state.
    pub fn from_slab(id: AsId, slab: Arc<SessionSlab>, slab_idx: u32) -> Self {
        let degree = slab.degree(slab_idx);
        BgpNode {
            id,
            table: PrefixTable::new(degree),
            out: (0..degree).map(|_| OutQueue::new()).collect(),
            active: vec![true; degree as usize],
            slab,
            slab_idx,
            damp: DampTable::new(),
        }
    }

    /// True if the route from `slot` for `prefix` is currently damped.
    pub fn is_suppressed(&self, slot: u32, prefix: Prefix) -> bool {
        self.damp.get(slot, prefix).is_some_and(|s| s.suppressed)
    }

    /// This node's AS id.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// The configured sessions, in slot order.
    pub fn sessions(&self) -> &[Session] {
        self.slab.sessions(self.slab_idx)
    }

    /// The shared session slab this node reads its stripe from.
    pub fn slab(&self) -> &Arc<SessionSlab> {
        &self.slab
    }

    /// Deterministic estimate of this node's arena-resident bytes (prefix
    /// table plus damping table; the shared session slab is counted once
    /// by its owner, not per node).
    pub fn arena_bytes(&self) -> u64 {
        self.table.arena_bytes() + self.damp.arena_bytes()
    }

    /// The slot of neighbor `peer`, if it is one.
    pub fn slot_of(&self, peer: AsId) -> Option<u32> {
        self.slab.slot_of(self.slab_idx, peer)
    }

    /// The best route for `prefix`: `None` if unreachable, otherwise the
    /// next-hop neighbor (`None` when self-originated) and the AS path as
    /// learned (the next hop is its first element), an id of the arena the
    /// node's entry points were lent.
    pub fn best_route(&self, prefix: Prefix) -> Option<(Option<AsId>, PathId)> {
        let row = self.table.row(prefix)?;
        let (slot, path) = self.table.best(row)?;
        if slot == SELF_SLOT {
            Some((None, path))
        } else {
            Some((Some(self.sessions()[slot as usize].peer), path))
        }
    }

    /// The path we last transmitted to `slot` for `prefix` (Adj-RIB-out).
    pub fn advertised(&self, slot: u32, prefix: Prefix) -> Option<PathId> {
        self.out.get(slot as usize)?.advertised(prefix)
    }

    /// True while an MRAI timer of `slot` is armed at `now`.
    // det::allow(panic-surface, reason = "slot is a session index minted by this node's own slab lookup; out holds one queue per session by construction")
    pub fn timer_armed(&self, slot: u32, now: EventKey) -> bool {
        self.out[slot as usize].timer_armed(now)
    }

    /// Delivers the key reserved for the expiry of the timer `(slot,
    /// which)` this step listed in [`Actions::arms`]. Returns true if an
    /// update already waits behind the timer: the caller must then
    /// schedule the expiry event at `key` right away.
    // det::allow(panic-surface, reason = "slot is a session index this node's own step put into Actions; out holds one queue per session by construction")
    pub fn timer_armed_at(&mut self, slot: u32, which: Option<Prefix>, key: EventKey) -> bool {
        self.out[slot as usize].arm_at(which, key)
    }

    /// True if the expiry event of `(slot, which)` popping at `key` is
    /// still the one that timer waits for (see [`OutQueue::expiry_due`]):
    /// false of every event scheduled before a session reset.
    pub fn expiry_due(&self, slot: u32, which: Option<Prefix>, key: EventKey) -> bool {
        self.out.get(slot as usize).is_some_and(|queue| queue.expiry_due(which, key))
    }

    /// Number of expiry events scheduled for `slot`'s output queue and not
    /// yet popped. The simulator uses this to keep its timer-occupancy
    /// accounting exact across session resets.
    pub fn scheduled_expiries(&self, slot: u32) -> u32 {
        self.out[slot as usize].scheduled_expiries() as u32
    }

    /// The timers of `slot` armed at `now` with no expiry event
    /// scheduled, each with its reserved key (see
    /// [`OutQueue::silent_timers`]).
    pub fn silent_timers(
        &self,
        slot: u32,
        now: EventKey,
    ) -> impl Iterator<Item = (Option<Prefix>, EventKey)> + '_ {
        self.out[slot as usize].silent_timers(now)
    }

    /// The latest key reserved for any MRAI timer of this speaker that is
    /// not after `deadline` (see [`OutQueue::latest_key_by`]).
    pub fn latest_timer_key_by(&self, deadline: SimTime) -> EventKey {
        let due = self.out.iter().map(|q| q.latest_key_by(deadline));
        due.max().unwrap_or(EventKey::ZERO)
    }

    /// Starts originating `prefix`. `step.cause` stamps the resulting
    /// exports, which are appended to `step.out`.
    pub fn originate_caused(&mut self, prefix: Prefix, step: &mut Step) {
        let row = self.table.row_or_insert(prefix);
        self.table.set_originated(row, true);
        self.reevaluate(row, prefix, Reeval::Full, step);
    }

    /// Stops originating `prefix` (the "DOWN" half of a C-event), stamping
    /// the resulting exports with `step.cause`.
    pub fn withdraw_origin_caused(&mut self, prefix: Prefix, step: &mut Step) {
        let row = self.table.row_or_insert(prefix);
        self.table.set_originated(row, false);
        self.reevaluate(row, prefix, Reeval::Full, step);
    }

    /// Processes one UPDATE that arrived over session `slot`, appending
    /// the resulting transmissions, timer arms and damping wake-ups to
    /// `step.out`. The simulator resolves the slot once, when the message
    /// is delivered, and queues it with the message. An announced path is
    /// an id of `step.paths`. The cause of the step is the message: this
    /// sets `step.cause` to its stamp, one hop further on.
    ///
    /// # Panics
    /// Panics if `slot` is not one of this node's sessions.
    pub fn receive(&mut self, slot: u32, update: Update, step: &mut Step) {
        let prefix = update.prefix;
        // Exports triggered by this message are one causal hop further from
        // the root cause than the message itself.
        step.cause = update.provenance.child();
        let row = self.table.row_or_insert(prefix);

        // Receiver-side loop detection: a path containing our own AS is
        // ineligible (RFC 4271) and supersedes whatever the neighbor
        // previously announced — treat it as a withdrawal. Unreachable
        // while senders filter, but load-bearing when sender-side
        // detection is ablated off.
        let incoming: Option<PathId> = match update.kind {
            UpdateKind::Announce(path) if !step.paths.contains(path, self.id) => Some(path),
            _ => None,
        };

        // Route Flap Damping: charge the figure of merit before
        // installing. Initial advertisements are free; withdrawals,
        // re-advertisements and path changes are flaps (RFC 2439).
        if let Some(cfg) = &step.cfg.rfd {
            let prev = self.table.rib_in_cell(row, slot);
            let flap = match (prev, incoming) {
                (Some(_), None) => Some(FlapKind::Withdrawal),
                (Some(old), Some(new)) if old != new => Some(FlapKind::AttributeChange),
                (None, Some(_)) if self.damp.get(slot, prefix).is_some() => {
                    Some(FlapKind::Readvertisement)
                }
                _ => None,
            };
            if let Some(kind) = flap {
                let state = self.damp.get_or_insert(slot, prefix);
                if state.charge(kind, step.now.time, cfg) {
                    if let Some(at) = state.reuse_time(cfg) {
                        step.out.rfd_wakeups.push((slot, prefix, at));
                    }
                }
            }
        }

        let route = incoming.map(|path| (path, self.route_key(slot, step.paths.len(path))));
        self.table.set_rib_in(row, slot, route);

        self.reevaluate(row, prefix, Reeval::SlotChanged(slot), step);
    }

    /// Handles a Route Flap Damping reuse wake-up for `(slot, prefix)`:
    /// if the decayed penalty has fallen below the reuse threshold, the
    /// damped route becomes eligible again and the decision process
    /// re-runs. Early wake-ups (obsoleted by later flaps that extended
    /// suppression) are no-ops — the later flap scheduled its own wake-up.
    pub fn rfd_reuse_caused(&mut self, slot: u32, prefix: Prefix, step: &mut Step) {
        let Some(cfg) = &step.cfg.rfd else { return };
        let Some(state) = self.damp.get_mut(slot, prefix) else {
            return;
        };
        if !state.maybe_reuse(step.now.time, cfg) {
            return;
        }
        // Eligibility changed, so the incumbent may now lose: full run.
        if let Some(row) = self.table.row(prefix) {
            self.reevaluate(row, prefix, Reeval::Full, step);
        }
    }

    /// True while the session at `slot` is established.
    pub fn session_active(&self, slot: u32) -> bool {
        self.active[slot as usize]
    }

    /// Tears down the session at `slot` (link failure / session reset —
    /// the "L-event" extension of the paper's future work).
    ///
    /// All routes learned from the neighbor are invalidated at once (a
    /// BGP session drop implicitly withdraws the whole Adj-RIB-in), the
    /// output queue is cleared (the neighbor has likewise discarded our
    /// routes), and the decision process re-runs for every affected
    /// prefix; the actions appended to `step.out` notify the *other*
    /// neighbors.
    ///
    /// An MRAI expiry event scheduled for this slot is stale from here
    /// on: [`BgpNode::expiry_due`] is false of it.
    ///
    /// # Panics
    /// Panics if the session is already down.
    pub fn session_down_caused(&mut self, slot: u32, step: &mut Step) {
        assert!(self.active[slot as usize], "{}: session {slot} already down", self.id);
        self.active[slot as usize] = false;
        self.out[slot as usize].force_reset();
        self.damp.clear_slot(slot);
        // Rows are only ever appended by row_or_insert, never removed, so
        // the indices collected here stay valid across the reevaluations.
        let affected: Vec<(usize, Prefix)> = self
            .table
            .iter_rows()
            .filter(|&(row, _)| self.table.rib_in_cell(row, slot).is_some())
            .collect();
        for (row, prefix) in affected {
            self.table.set_rib_in(row, slot, None);
            self.reevaluate(row, prefix, Reeval::SlotChanged(slot), step);
        }
    }

    /// Re-establishes the session at `slot` and re-advertises the current
    /// table to the neighbor (the initial full RIB exchange of a fresh
    /// BGP session), subject to the usual export filters. The neighbor's
    /// routes arrive through its own `session_up`.
    ///
    /// # Panics
    /// Panics if the session is already up.
    pub fn session_up_caused(&mut self, slot: u32, step: &mut Step) {
        assert!(!self.active[slot as usize], "{}: session {slot} already up", self.id);
        self.active[slot as usize] = true;
        debug_assert!(!self.out[slot as usize].timer_armed(step.now));
        // The replay is whatever this call appends past `first`.
        let first = step.out.sends.len();
        let session = self.sessions()[slot as usize];
        // Iterating rows walks prefixes in sorted order — the same
        // deterministic replay order the BTreeMap-backed table produced.
        let snapshot: Vec<(Prefix, u32, PathId)> = self
            .table
            .iter_rows()
            .filter_map(|(row, p)| self.table.best(row).map(|(s, path)| (p, s, path)))
            .collect();
        for (prefix, best_slot, path) in snapshot {
            let source = if best_slot == SELF_SLOT {
                RouteSource::SelfOriginated
            } else {
                RouteSource::Learned(self.sessions()[best_slot as usize].rel)
            };
            if !export_allowed(source, session.rel)
                || (step.cfg.sender_side_loop_detection && step.paths.contains(path, session.peer))
            {
                continue;
            }
            let export_path = step.paths.prepend(self.id, path);
            step.costs.path_intern_misses += 1;
            // The initial table exchange is not rate-limited; MRAI governs
            // subsequent updates only.
            let queue = &mut self.out[slot as usize];
            if let Some(update) = queue.send_unlimited(prefix, export_path, session.rel, step) {
                step.out.sends.push((slot, update));
            }
        }
        // One arm for the session, or one per prefix replayed.
        let scope = step.cfg.mrai_scope;
        let replayed = &step.out.sends[first..];
        let timers = match scope {
            MraiScope::PerInterface => replayed.len().min(1),
            MraiScope::PerPrefix => replayed.len(),
        };
        for (_, update) in &replayed[..timers] {
            let which = governing(scope, update.prefix);
            self.out[slot as usize].arm_timer(which);
            step.out.arms.push((slot, which));
        }
    }

    /// Handles the MRAI expiry event of `slot` popping at `step.now`, the
    /// key it was asked for at ([`Actions::expiries`]) and still due
    /// ([`BgpNode::expiry_due`]) — the session timer when `trigger` is
    /// `None`, the per-prefix timer of `Some(prefix)` (only under
    /// [`MraiScope::PerPrefix`]) — appending the flushed transmissions to
    /// `step.out`, plus one timer arm iff something was sent: the caller
    /// re-arms exactly the timers `step.out` lists.
    // det::allow(panic-surface, reason = "slot comes from this node's own armed-timer bookkeeping; out holds one queue per session by construction")
    pub fn mrai_flush(&mut self, slot: u32, trigger: Option<Prefix>, step: &mut Step) {
        debug_assert_eq!(trigger.is_some(), step.cfg.mrai_scope == MraiScope::PerPrefix);
        if self.out[slot as usize].flush(trigger, slot, step) {
            step.out.arms.push((slot, trigger));
        }
    }

    /// Clears all routing state (RIBs, output queues), keeping the session
    /// configuration. Used between C-events.
    ///
    /// # Panics
    /// Panics if any MRAI timer is still armed at `now` (see
    /// [`crate::mrai::OutQueue::reset`]).
    pub fn reset_routing(&mut self, now: EventKey) {
        self.table.clear();
        self.damp.clear();
        for q in &mut self.out {
            q.reset(now);
        }
    }

    /// Returns the speaker to the state it was constructed in, from any
    /// state: RIBs, damping history, Adj-RIB-outs and queued updates
    /// cleared, every MRAI timer disarmed, every session up. The table's
    /// column buffers are kept. Unlike [`BgpNode::reset_routing`] this does not
    /// require quiescence: the caller discards its scheduled expiry events
    /// along with everything else.
    pub fn recycle(&mut self) {
        self.table.clear();
        self.damp.clear();
        for q in &mut self.out {
            q.force_reset();
        }
        self.active.fill(true);
    }

    /// The preference key of a path of `path_len` hops as a route learned
    /// over session `slot` — what the Adj-RIB-in caches beside the route.
    // det::allow(panic-surface, reason = "slot is one of this node's session slots, which index the slab stripe by construction")
    fn route_key(&self, slot: u32, path_len: usize) -> u64 {
        let rel = self.sessions()[slot as usize].rel;
        rank_key(rel, path_len, self.slab.rank(self.slab_idx, slot))
    }

    /// The decision process proper (§2: LOCAL_PREF, shortest AS path,
    /// hashed tie-break — all folded into the cached `rib_key`): the slot
    /// holding the row's best eligible learned route. Counts every key
    /// comparison into `route_comparisons`.
    // det::allow(panic-surface, reason = "row is a live row index whose rib_in/rib_key stripes are one cell per session slot; the changed slot and a learned incumbent are such slots")
    fn decide(&self, row: usize, prefix: Prefix, hint: Reeval, step: &mut Step) -> Option<u32> {
        let routes = self.table.rib_in(row);
        let keys = self.table.rib_keys(row);
        // With damping off the incumbent is still the best of every slot
        // but `s`, so it only has to face the route at `s`; if `s` is its
        // own slot, it stands as long as it did not get worse. (Rows that
        // originate the prefix never get here, so the incumbent is a
        // learned route.)
        if let (Reeval::SlotChanged(s), None, Some((incumbent, old_path))) =
            (hint, &step.cfg.rfd, self.table.best(row))
        {
            let announced = routes[s as usize].is_some();
            if s != incumbent {
                if !announced {
                    return Some(incumbent);
                }
                step.costs.route_comparisons += 1;
                let wins = keys[s as usize] > keys[incumbent as usize];
                return Some(if wins { s } else { incumbent });
            }
            if announced {
                step.costs.route_comparisons += 1;
                if keys[s as usize] >= self.route_key(s, step.paths.len(old_path)) {
                    return Some(s);
                }
            }
        }
        // Everything else rescans the row: suppressed routes are stored
        // but ineligible (RFC 2439), and the damping table is empty while
        // damping is off.
        let mut winner: Option<u32> = None;
        for (slot, route) in routes.iter().enumerate() {
            if route.is_none() || self.is_suppressed(slot as u32, prefix) {
                continue;
            }
            let better = match winner {
                None => true,
                Some(w) => {
                    step.costs.route_comparisons += 1;
                    keys[slot] > keys[w as usize]
                }
            };
            if better {
                winner = Some(slot as u32);
            }
        }
        winner
    }

    /// Re-runs the decision process for row `row` (holding `prefix`); on a
    /// best-route change, runs the export filters and submits new intents
    /// to every output queue. Each submission is stamped with `step.cause`
    /// plus the sending edge's Gao–Rexford relation, so attribution
    /// survives MRAI coalescing downstream.
    ///
    /// `hint` says what changed since the last run (see [`Reeval`]).
    // det::allow(panic-surface, reason = "every caller resolves the prefix to a live row before delegating here; slot indices enumerate the slab stripe, and rib_in/out/active are sized to the node's degree at construction")
    fn reevaluate(&mut self, row: usize, prefix: Prefix, hint: Reeval, step: &mut Step) {
        step.costs.decision_runs += 1;

        let new_best: Option<(u32, PathId)> = if self.table.originated(row) {
            Some((SELF_SLOT, PathId::EMPTY))
        } else {
            self.decide(row, prefix, hint, step).map(|slot| {
                let path = self
                    .table
                    .rib_in_cell(row, slot)
                    .expect("the winning slot holds a route");
                (slot, path)
            })
        };

        if self.table.best(row) == new_best {
            return;
        }
        self.table.set_best(row, new_best);

        // Export phase: the Gao–Rexford filter plus sender-side loop
        // detection (the best path necessarily contains the neighbor it
        // was learned from, so this also prevents echoing a route back to
        // its sender) decide, per live session, between the export path
        // and a withdrawal. Most submissions are suppressed as no-ops.
        let sessions = self.slab.sessions(self.slab_idx);
        // The exported path: ourselves prepended to the best path. Built
        // once — one lookup-or-insert — and every queue that keeps it
        // keeps its id. The best path's hops are walked once, into a flat
        // list every neighbor is tested against.
        let export = new_best.map(|(best_slot, best_path)| {
            let source = if best_slot == SELF_SLOT {
                RouteSource::SelfOriginated
            } else {
                RouteSource::Learned(sessions[best_slot as usize].rel)
            };
            step.costs.path_intern_misses += 1;
            (source, step.paths.prepend(self.id, best_path))
        });
        let best_hops = step.paths.take_hops(new_best.map_or(PathId::EMPTY, |(_, path)| path));
        let loop_check = step.cfg.sender_side_loop_detection;
        for (slot, session) in sessions.iter().enumerate() {
            if !self.active[slot] {
                continue;
            }
            let intent = match export {
                Some((source, export_path))
                    if export_allowed(source, session.rel)
                        && !(loop_check && would_loop(&best_hops, session.peer)) =>
                {
                    step.costs.path_intern_hits += 1;
                    Some(export_path)
                }
                _ => None,
            };
            let submit = self.out[slot].submit(prefix, intent, session.rel, step);
            step.out.absorb(slot as u32, prefix, submit, step.cfg.mrai_scope);
        }
        step.paths.give_hops(best_hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BgpConfig;
    use crate::mrai::Lender;
    use bgpscale_obs::Provenance;
    use crate::path::PathArena;
    use crate::rfd::RfdConfig;
    use bgpscale_simkernel::SimDuration;

    const P: Prefix = Prefix(1);

    fn session(peer: u32, rel: Relationship) -> Session {
        Session {
            peer: AsId(peer),
            rel,
        }
    }

    /// A node AS0 with a customer AS1, a peer AS2, and a provider AS3.
    fn node() -> BgpNode {
        BgpNode::new(
            AsId(0),
            vec![
                session(1, Relationship::Customer),
                session(2, Relationship::Peer),
                session(3, Relationship::Provider),
            ],
        )
    }

    /// What the steps of a test under damping are lent.
    fn damped() -> Lender {
        Lender::new(BgpConfig {
            rfd: Some(RfdConfig::default()),
            ..BgpConfig::default()
        })
    }

    /// An announcement of `prefix` over that path.
    fn ann(paths: &mut PathArena, prefix: Prefix, hops: &[u32]) -> Update {
        Update::announce(prefix, paths.of(hops))
    }

    fn sends_to(actions: &Actions) -> Vec<u32> {
        actions.sends.iter().map(|(s, _)| *s).collect()
    }

    /// The slots whose session timer `actions` arms.
    fn arms_of(actions: &Actions) -> Vec<u32> {
        let session_timer = |&(slot, which): &(u32, Option<Prefix>)| {
            assert_eq!(which, None, "a per-prefix arm under the per-interface scope");
            slot
        };
        actions.arms.iter().map(session_timer).collect()
    }

    /// The key of the step every test starts in.
    const T0: EventKey = EventKey::ZERO;
    const MRAI: SimDuration = SimDuration::from_secs(30);

    /// A step at time `t`.
    fn at(t: SimTime) -> EventKey {
        EventKey { time: t, seq: 0 }
    }

    /// The caller's side of the timer contract for the step at `now` that
    /// produced `a`: reserves a key one MRAI later for every session timer
    /// `a` arms and hands it to the node. Returns the expiry events to
    /// schedule — those `a` lists and those `timer_armed_at` asks for.
    fn settle(n: &mut BgpNode, a: &Actions, now: EventKey) -> Vec<(u32, Option<Prefix>, EventKey)> {
        let mut expiries = a.expiries.clone();
        for (i, slot) in arms_of(a).into_iter().enumerate() {
            let key = EventKey {
                time: now.time + MRAI,
                seq: now.seq + 1 + i as u64,
            };
            if n.timer_armed_at(slot, None, key) {
                expiries.push((slot, None, key));
            }
        }
        expiries
    }

    /// A step after every timer armed at or before `now` has run out.
    fn after_mrai(now: EventKey) -> EventKey {
        EventKey {
            time: now.time + MRAI + MRAI,
            seq: 0,
        }
    }

    #[test]
    fn origination_announces_to_everyone() {
        let mut w = Lender::default();
        let mut n = node();
        let a = w.act(T0, |s| n.originate_caused(P, s));
        assert_eq!(sends_to(&a), vec![0, 1, 2]);
        assert_eq!(arms_of(&a), vec![0, 1, 2]);
        for (_, u) in &a.sends {
            assert_eq!(u.kind.path(), Some(w.paths.of(&[0])), "path is just the origin");
        }
        assert_eq!(n.best_route(P), Some((None, PathId::EMPTY)));
    }

    #[test]
    fn customer_route_exports_to_everyone_else() {
        let mut w = Lender::default();
        let mut n = node();
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // Export to peer and provider (customer route), but not back to the
        // customer (loop detection: AS1 is on the path).
        assert_eq!(sends_to(&a), vec![1, 2]);
        let (_, u) = &a.sends[0];
        assert_eq!(u.kind.path(), Some(w.paths.of(&[0, 1, 9])));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn provider_route_exports_only_to_customers() {
        let mut w = Lender::default();
        let mut n = node();
        let a = w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert_eq!(sends_to(&a), vec![0], "only the customer hears about it");
    }

    #[test]
    fn peer_route_exports_only_to_customers() {
        let mut w = Lender::default();
        let mut n = node();
        let a = w.act(T0, |s| n.receive(1, ann(s.paths, P, &[2, 9]), s));
        assert_eq!(sends_to(&a), vec![0]);
    }

    #[test]
    fn better_route_triggers_reexport_with_new_path() {
        let mut w = Lender::default();
        let mut n = node();
        // Provider route first: exported to customer only.
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        // Customer route arrives: better (prefer-customer). Peers and
        // providers hear the new path immediately (their timers are idle).
        // The customer itself cannot be given its own route back (loop
        // detection) — instead the stale provider route we advertised to it
        // is withdrawn, immediately under NO-WRATE.
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 7, 9]), s));
        assert_eq!(sends_to(&a), vec![0, 1, 2]);
        assert!(a.sends[0].1.kind.is_withdraw(), "stale route to customer revoked");
        assert_eq!(
            a.sends[1].1,
            ann(&mut w.paths, P, &[0, 1, 7, 9])
        );
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
        // Slot 0's timer (armed by the earlier provider-route export) has
        // nothing waiting behind it: no expiry event is asked for.
        assert!(a.expiries.is_empty());
    }

    #[test]
    fn worse_route_does_not_displace_best() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // A provider route arrives; best (customer) unchanged → no exports.
        let a = w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert!(a.is_empty());
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn withdrawal_falls_back_to_alternate_route() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        // Customer withdraws; best falls back to the provider route, which
        // may only be exported to customers. Slot 0's timer is idle (the
        // customer was never sent anything — loop detection), so the new
        // announcement goes out at once; slots 1 and 2, which previously
        // got the customer route, receive withdrawals immediately
        // (NO-WRATE).
        let a = w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        let withdraws: Vec<u32> = a
            .sends
            .iter()
            .filter(|(_, u)| u.kind.is_withdraw())
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(withdraws, vec![1, 2]);
        let announces: Vec<u32> = a
            .sends
            .iter()
            .filter(|(_, u)| u.kind.is_announce())
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(announces, vec![0], "customer hears the fallback route");
        assert_eq!(arms_of(&a), vec![0], "only the announcement arms a timer");
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(3)));
        assert!(a.expiries.is_empty(), "nothing waits behind slot 0's new timer");
    }

    #[test]
    fn total_loss_withdraws_from_everyone_reached() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        let a = w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        // No alternate: withdraw goes to the peers/providers that heard
        // the announcement. The customer never got it (loop), so no
        // withdrawal there.
        let withdraws: Vec<u32> = a.sends.iter().map(|(s, _)| *s).collect();
        assert_eq!(withdraws, vec![1, 2]);
        assert!(a.sends.iter().all(|(_, u)| u.kind.is_withdraw()));
        assert_eq!(n.best_route(P), None);
        // NO-WRATE: withdrawals did not arm timers.
        assert!(a.arms.is_empty());
    }

    #[test]
    fn wrate_queues_withdrawals_behind_timer() {
        let mut w = Lender::new(BgpConfig::wrate());
        let mut n = BgpNode::new(
            AsId(0),
            vec![session(1, Relationship::Customer), session(2, Relationship::Peer)],
        );
        let first = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(settle(&mut n, &first, T0).is_empty());
        // Announcement armed slot 1's timer; the withdrawal must queue,
        // and asks for the expiry at the timer's key.
        let a = w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        assert!(a.sends.is_empty(), "WRATE withdrawal must wait for MRAI");
        let [(1, None, key)] = a.expiries[..] else {
            panic!("one expiry for slot 1's session timer, got {:?}", a.expiries);
        };
        assert_eq!(key.time, T0.time + MRAI);
        let f = w.act(key, |s| n.mrai_flush(1, None, s));
        assert_eq!(f.sends.len(), 1);
        assert!(f.sends[0].1.kind.is_withdraw());
        assert_eq!(arms_of(&f), vec![1], "withdrawal re-arms under WRATE");
    }

    #[test]
    fn flap_within_mrai_window_is_absorbed() {
        let mut w = Lender::default();
        let mut n = node();
        let first = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        settle(&mut n, &first, T0);
        // Withdraw + identical re-announce before any timer expires.
        let down = w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        assert_eq!(down.sends.len(), 2, "withdrawals go out immediately (NO-WRATE)");
        let r = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // Timers on slots 1,2 are armed, so the re-announcements queue.
        assert!(r.sends.is_empty());
        let [(1, None, key), (2, None, _)] = r.expiries[..] else {
            panic!("one expiry per waiting session, got {:?}", r.expiries);
        };
        let f1 = w.act(key, |s| n.mrai_flush(1, None, s));
        assert_eq!(f1.sends.len(), 1);
        assert!(f1.sends[0].1.kind.is_announce());
    }

    #[test]
    fn self_origination_beats_any_learned_route() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        w.act(T0, |s| n.originate_caused(P, s));
        assert_eq!(n.best_route(P), Some((None, PathId::EMPTY)));
        // Withdrawing the origin falls back to the learned route.
        w.act(T0, |s| n.withdraw_origin_caused(P, s));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn decision_prefers_shorter_path_among_customers() {
        let mut w = Lender::default();
        let mut n = BgpNode::new(
            AsId(0),
            vec![
                session(1, Relationship::Customer),
                session(2, Relationship::Customer),
            ],
        );
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 8, 9]), s));
        w.act(T0, |s| n.receive(1, ann(s.paths, P, &[2, 9]), s));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(2)));
    }

    #[test]
    fn looping_announcement_is_ignored() {
        let mut w = Lender::default();
        let mut n = node();
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 0, 9]), s));
        assert!(a.is_empty());
        assert_eq!(n.best_route(P), None);
    }

    #[test]
    fn reset_routing_clears_ribs_but_keeps_sessions() {
        let mut w = Lender::default();
        let mut n = node();
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // Slots 1 and 2 were armed (the customer route was exported to the
        // peer and provider) and run out with nothing behind them.
        settle(&mut n, &a, T0);
        n.reset_routing(after_mrai(T0));
        assert_eq!(n.best_route(P), None);
        assert_eq!(n.sessions().len(), 3);
        assert_eq!(n.advertised(1, P), None);
    }

    #[test]
    #[should_panic]
    fn update_on_an_unknown_slot_panics() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(3, Update::withdraw(P), s));
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn duplicate_sessions_rejected() {
        BgpNode::new(
            AsId(0),
            vec![session(1, Relationship::Peer), session(1, Relationship::Customer)],
        );
    }

    #[test]
    fn session_down_invalidates_learned_routes_and_notifies_others() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
        // The customer session drops: its route is gone, and the peers/
        // providers that heard the customer route get withdrawals.
        let a = w.act(T0, |s| n.session_down_caused(0, s));
        assert!(!n.session_active(0));
        assert_eq!(n.best_route(P), None);
        let withdraws: Vec<u32> = a.sends.iter().map(|(s, _)| *s).collect();
        assert_eq!(withdraws, vec![1, 2]);
        assert!(a.sends.iter().all(|(_, u)| u.kind.is_withdraw()));
    }

    #[test]
    fn down_session_receives_no_exports() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.session_down_caused(0, s));
        // A new best route arrives from the provider; normally the
        // customer (slot 0) would hear it, but the session is down.
        let a = w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert!(a.sends.iter().all(|(s, _)| *s != 0));
        assert_eq!(n.advertised(0, P), None);
    }

    #[test]
    fn session_up_replays_the_table() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        w.act(T0, |s| n.originate_caused(Prefix(7), s));
        // Drop and restore the customer session: on restore it must learn
        // both the provider-learned route and the originated prefix
        // (customers receive everything).
        w.act(T0, |s| n.session_down_caused(0, s));
        let a = w.act(T0, |s| n.session_up_caused(0, s));
        assert!(n.session_active(0));
        let mut prefixes: Vec<Prefix> = a.sends.iter().map(|(_, u)| u.prefix).collect();
        prefixes.sort();
        assert_eq!(prefixes, vec![P, Prefix(7)]);
        assert!(a.sends.iter().all(|(s, u)| *s == 0 && u.kind.is_announce()));
        // The full-table replay arms the MRAI timer once.
        assert_eq!(arms_of(&a), vec![0]);
    }

    #[test]
    fn session_up_respects_export_policy() {
        let mut w = Lender::default();
        // A provider-learned route must not be replayed to a peer session
        // that comes back up.
        let mut n = node();
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        w.act(T0, |s| n.session_down_caused(1, s)); // peer
        let a = w.act(T0, |s| n.session_up_caused(1, s));
        assert!(a.sends.is_empty(), "provider route leaked to peer on replay");
    }

    #[test]
    fn session_down_clears_output_queue_state() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(n.advertised(1, P).is_some());
        w.act(T0, |s| n.session_down_caused(1, s));
        assert_eq!(n.advertised(1, P), None);
        assert!(!n.timer_armed(1, T0));
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_session_down_panics() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.session_down_caused(0, s));
        w.act(T0, |s| n.session_down_caused(0, s));
    }

    #[test]
    fn rfd_suppresses_flapping_route_and_falls_back() {
        let mut w = damped();
        let mut n = node();
        // A stable alternate via the provider.
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        // The customer route flaps: announce, withdraw, announce, withdraw…
        let mut t = SimTime::from_secs(1);
        for _ in 0..3 {
            w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
            t += SimDuration::from_secs(1);
            w.act(at(t), |s| n.receive(0, Update::withdraw(P), s));
            t += SimDuration::from_secs(1);
        }
        // Withdrawal(1000) ×3 + readvert(1000) ×2 ≫ suppress threshold.
        assert!(n.is_suppressed(0, P));
        // A further announcement installs the route but the decision
        // sticks with the stable provider route.
        w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert_eq!(
            n.best_route(P).unwrap().0,
            Some(AsId(3)),
            "damped customer route must not win despite higher local-pref"
        );
    }

    #[test]
    fn rfd_reuse_restores_eligibility() {
        let mut w = damped();
        let mut n = node();
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        let mut t = SimTime::from_secs(1);
        let mut wake = None;
        let mut expiries = Vec::new();
        for _ in 0..4 {
            let a = w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
            expiries.extend(settle(&mut n, &a, at(t)));
            t += SimDuration::from_secs(1);
            let a = w.act(at(t), |s| n.receive(0, Update::withdraw(P), s));
            expiries.extend(settle(&mut n, &a, at(t)));
            if let Some(&(_, _, reuse_at)) = a.rfd_wakeups.last() {
                wake = Some(reuse_at);
            }
            t += SimDuration::from_secs(1);
        }
        // Final state: suppressed, route re-announced and stored.
        w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(n.is_suppressed(0, P));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(3)));
        // Too-early wake-up: still suppressed.
        let early = w.act(at(t + SimDuration::from_secs(60)), |s| n.rfd_reuse_caused(0, P, s));
        assert!(early.is_empty());
        assert!(n.is_suppressed(0, P));
        // The MRAI windows of the flapping close, flushing what queued
        // behind them.
        assert!(!expiries.is_empty(), "the flapping queued updates");
        while !expiries.is_empty() {
            let (slot, which, key) = expiries.remove(0);
            let f = w.act(key, |s| n.mrai_flush(slot, which, s));
            expiries.extend(settle(&mut n, &f, key));
        }
        // Well past the scheduled reuse time the customer route wins
        // again, and with every timer run out the re-selection is
        // announced at once.
        let wake = wake.expect("a wake-up was scheduled") + SimDuration::from_secs(3600);
        let a = w.act(at(wake), |s| n.rfd_reuse_caused(0, P, s));
        assert!(!n.is_suppressed(0, P));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
        assert!(
            a.sends.iter().any(|(_, u)| u.kind.is_announce()),
            "re-selection must announce the change"
        );
    }

    #[test]
    fn rfd_initial_advertisement_is_free() {
        let mut w = damped();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(!n.is_suppressed(0, P));
        // Stable routes never accumulate penalty: identical re-announce
        // is a no-op, not a flap.
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(!n.is_suppressed(0, P));
        assert_eq!(n.best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn rfd_disabled_means_no_suppression_ever() {
        let mut w = Lender::default();
        let mut n = node();
        for _ in 0..20 {
            w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
            w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        }
        assert!(!n.is_suppressed(0, P));
    }

    #[test]
    fn cost_counters_attribute_decision_and_path_work() {
        let mut w = Lender::default();
        let mut n = node();
        assert_eq!(w.costs, NodeCostCounters::default());
        // One update → one decision run, a fresh export path, and a
        // refcount hit per session it is exported to (peer + provider).
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        settle(&mut n, &a, T0);
        let c = w.costs;
        assert_eq!(c.decision_runs, 1);
        assert_eq!(c.path_intern_misses, 1);
        assert_eq!(c.path_intern_hits, 2);
        assert_eq!(c.rib_out_writes, 2, "announced to peer and provider");
        // A competing provider route triggers exactly one comparison:
        // the incremental decision challenges the incumbent head-to-head.
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert_eq!(w.costs.decision_runs, 2);
        assert_eq!(w.costs.route_comparisons, 1);
    }

    #[test]
    fn advertised_tracks_what_was_sent() {
        let mut w = Lender::default();
        let mut n = node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert_eq!(
            n.advertised(1, P),
            Some(w.paths.of(&[0, 1, 9]))
        );
        assert_eq!(n.advertised(0, P), None, "never sent back to learner");
        assert!(n.timer_armed(1, T0));
        assert!(!n.timer_armed(0, T0));
    }

    /// The Adj-RIB-out interning invariant: one best-route change builds
    /// the export path once — one new arena cell — and every neighbor's
    /// Adj-RIB-out entry holds that cell's id.
    #[test]
    fn export_to_many_neighbors_shares_one_path_id() {
        let mut w = Lender::default();
        let mut n = BgpNode::new(
            AsId(0),
            vec![
                session(1, Relationship::Customer),
                session(2, Relationship::Peer),
                session(3, Relationship::Provider),
                session(4, Relationship::Peer),
            ],
        );
        let learned = ann(&mut w.paths, P, &[1, 9]);
        let held = w.paths.paths();
        w.act(T0, |s| n.receive(0, learned, s));
        assert_eq!(w.paths.paths(), held + 1, "the export path is built once");
        let exported: Vec<PathId> = (1..4).filter_map(|s| n.advertised(s, P)).collect();
        assert_eq!(exported, vec![w.paths.of(&[0, 1, 9]); 3], "customer route reaches the other three");
    }

    /// The sends, session-timer arms and expiry requests of `a`,
    /// comparable.
    #[allow(clippy::type_complexity)]
    fn flat(a: &Actions) -> (Vec<(u32, Update)>, Vec<u32>, Vec<(u32, Option<Prefix>, EventKey)>) {
        assert!(a.rfd_wakeups.is_empty());
        (a.sends.clone(), arms_of(a), a.expiries.clone())
    }

    /// The entry points append to the buffer they are lent — never
    /// clearing it — exactly what they produce on an empty one.
    #[test]
    fn entry_points_append_to_a_shared_buffer_what_they_produce_on_an_empty_one() {
        let mut w = Lender::default();
        let customer = ann(&mut w.paths, P, &[1, 9]);
        let provider = ann(&mut w.paths, P, &[3, 9]);
        let longer = ann(&mut w.paths, P, &[1, 8, 9]);
        // The key of slot 1's timer: the longer customer path waits behind
        // it and is flushed at that key.
        let key = EventKey {
            time: T0.time + MRAI,
            seq: 1,
        };
        type Entry = Box<dyn Fn(&mut BgpNode, &mut Step)>;
        let script: Vec<(EventKey, Entry)> = vec![
            (T0, Box::new(move |n, s| n.receive(2, provider, s))),
            (T0, Box::new(move |n, s| n.receive(0, customer, s))),
            (T0, Box::new(move |n, _| {
                assert!(!n.timer_armed_at(1, None, key));
                n.timer_armed_at(2, None, key);
            })),
            (T0, Box::new(move |n, s| n.receive(0, longer, s))),
            (key, Box::new(|n, s| n.mrai_flush(1, None, s))),
            (T0, Box::new(|n, s| n.originate_caused(Prefix(7), s))),
            (T0, Box::new(|n, s| n.session_down_caused(0, s))),
            (T0, Box::new(|n, s| n.session_up_caused(0, s))),
            (T0, Box::new(|n, s| n.withdraw_origin_caused(Prefix(7), s))),
        ];

        let (mut by_value, mut in_place) = (node(), node());
        let mut want = Actions::default();
        for (now, entry) in &script {
            let a = w.act(*now, |s| entry(&mut by_value, s));
            want.sends.extend(a.sends);
            want.arms.extend(a.arms);
            want.expiries.extend(a.expiries);
        }
        let by_value_costs = std::mem::take(&mut w.costs);
        for (now, entry) in &script {
            entry(&mut in_place, &mut w.step(*now, Provenance::none()));
        }

        assert!(want.sends.len() >= 8, "the script must exercise the export path");
        assert_eq!(flat(&w.out), flat(&want));
        assert_eq!(w.costs, by_value_costs);
    }

    /// `recycle` from a state with armed timers, a queued update and a
    /// session down leaves a node that replays a script exactly as a
    /// newly built one does, at the same cost.
    #[test]
    fn recycle_restores_the_constructed_state_from_any_state() {
        let mut w = Lender::default();
        let none = Provenance::none();
        let script = |n: &mut BgpNode, w: &mut Lender| {
            n.receive(0, ann(&mut w.paths, P, &[1, 9]), &mut w.step(T0, none));
            assert!(settle(n, &w.out, T0).is_empty(), "slots 1 and 2 armed, nothing waiting");
            n.receive(2, ann(&mut w.paths, P, &[3, 9]), &mut w.step(T0, none));
            // A longer customer path waits behind both timers.
            n.receive(0, ann(&mut w.paths, P, &[1, 8, 9]), &mut w.step(T0, none));
            let (slot, which, key) = w.out.expiries[0];
            n.mrai_flush(slot, which, &mut w.step(key, none));
            n.receive(0, Update::withdraw(P), &mut w.step(T0, none));
            (flat(&std::mem::take(&mut w.out)), n.best_route(P), std::mem::take(&mut w.costs))
        };
        let mut fresh = node();
        let want = script(&mut fresh, &mut w);

        let mut used = node();
        w.act(T0, |s| used.receive(0, ann(s.paths, Prefix(4), &[1, 8]), s));
        w.act(T0, |s| used.receive(0, ann(s.paths, Prefix(4), &[1, 7, 8]), s));
        w.act(T0, |s| used.session_down_caused(2, s));
        assert!(used.timer_armed(1, T0), "recycled mid-window, timers armed");
        used.recycle();
        assert_eq!(used.best_route(Prefix(4)), None);
        assert!((0..3).all(|s| used.session_active(s) && !used.timer_armed(s, T0)));
        assert!((0..3).all(|s| used.advertised(s, Prefix(4)).is_none()));
        assert_eq!(used.arena_bytes(), 0);

        w.costs = NodeCostCounters::default();
        assert_eq!(script(&mut used, &mut w), want, "same routes, same work after recycling");
    }

    #[test]
    fn nodes_share_one_session_slab() {
        let mut w = Lender::default();
        let slab = SessionSlab::build([
            (AsId(0), [session(1, Relationship::Peer)]),
            (AsId(1), [session(0, Relationship::Peer)]),
        ]);
        let mut a = BgpNode::from_slab(AsId(0), slab.clone(), 0);
        let b = BgpNode::from_slab(AsId(1), slab.clone(), 1);
        assert!(Arc::ptr_eq(a.slab(), b.slab()), "one slab serves every node");
        assert_eq!(a.slot_of(AsId(1)), Some(0));
        assert_eq!(b.slot_of(AsId(0)), Some(0));
        assert_eq!(a.sessions().len(), 1);
        let acts = w.act(T0, |s| a.originate_caused(P, s));
        assert_eq!(sends_to(&acts), vec![0]);
        assert!(a.arena_bytes() > 0, "prefix rows are accounted");
        assert_eq!(b.arena_bytes(), 0, "untouched node holds no prefix state");
    }

    /// The cost shape of the decision process in exact
    /// `route_comparisons`: one comparison while the incumbent stands,
    /// and otherwise one per route held after the first — never one per
    /// session slot.
    #[test]
    fn decision_costs_one_comparison_or_a_rescan_of_the_routes_held() {
        let mut w = Lender::default();
        let sessions = (1..=64)
            .map(|peer| session(peer, if peer == 1 { Relationship::Customer } else { Relationship::Provider }))
            .collect();
        let mut n = BgpNode::new(AsId(0), sessions);
        let route = |slot: u32, len: u32| {
            let hops = std::iter::once(AsId(slot + 1)).chain((1..len).map(|i| AsId(100 + i)));
            Some(hops.collect::<Vec<_>>())
        };
        // `None` withdraws.
        let mut cost = |slot: u32, hops: Option<Vec<AsId>>| {
            let update = match hops {
                Some(hops) => Update::announce(P, w.paths.intern(&hops)),
                None => Update::withdraw(P),
            };
            let before = w.costs.route_comparisons;
            w.act(T0, |s| n.receive(slot, update, s));
            w.costs.route_comparisons - before
        };
        assert_eq!(cost(0, route(0, 3)), 0, "the first route has no rival");
        for loser in [20, 40, 63] {
            assert_eq!(cost(loser, route(loser, 2)), 1, "a loser meets the incumbent only");
        }
        assert_eq!(cost(0, route(0, 2)), 1, "an improving incumbent meets its old key only");
        assert_eq!(cost(40, None), 0, "a withdrawn loser meets nobody");
        assert_eq!(cost(40, route(40, 2)), 1);
        assert_eq!(cost(0, route(0, 4)), 1 + 3, "a worsened incumbent: its old key, then a rescan of 4 routes");
        assert_eq!(cost(0, None), 2, "a rescan of the 3 routes left, not of 64 slots");
        assert_eq!(w.costs.decision_runs, 9);
    }

    /// The decision process must be observationally identical to a
    /// brute-force rescan under the full `preference_key` (not the `u64`
    /// rank key the node caches): drive one node through a long seeded
    /// announce/withdraw trace while mirroring the Adj-RIB-in in the
    /// test — as plain hop lists, outside the arena — and after every
    /// step recompute the best route from scratch and compare. The cached
    /// keys are held to the same reference: every pair of routes the node
    /// holds must be ordered by its keys exactly as `preference_key`
    /// orders them. The second pass runs the same trace with damping on,
    /// the clock advancing and every reuse wake-up offered: the mirror
    /// then skips the slots the node reports suppressed.
    #[test]
    fn incremental_decision_matches_a_brute_force_mirror() {
        use crate::decision::{preference_key, Candidate};
        use bgpscale_simkernel::{Rng, Xoshiro256StarStar};
        let sessions = vec![
            session(1, Relationship::Customer),
            session(2, Relationship::Customer),
            session(3, Relationship::Peer),
            session(4, Relationship::Provider),
            session(5, Relationship::Provider),
        ];
        for damped in [false, true] {
            let mut w = if damped { self::damped() } else { Lender::default() };
            let mut n = BgpNode::new(AsId(0), sessions.clone());
            let mut mirror: Vec<Option<Vec<AsId>>> = vec![None; sessions.len()];
            let mut g = Xoshiro256StarStar::new(0xA11_0CA7);
            let mut now = SimTime::ZERO;
            let suppressed = |n: &BgpNode| (0..5).filter(|&s| n.is_suppressed(s, P)).count();
            let (mut suppressions, mut reuses, mut pairs) = (0, 0, 0);
            for _ in 0..400 {
                now += SimDuration::from_secs(120);
                let slot = g.next_below(5) as usize;
                let peer = sessions[slot].peer;
                let before = suppressed(&n);
                for s in 0..5 {
                    w.act(at(now), |step| n.rfd_reuse_caused(s, P, step));
                }
                let between = suppressed(&n);
                reuses += before - between;
                if g.next_below(3) == 0 {
                    w.act(at(now), |s| n.receive(slot as u32, Update::withdraw(P), s));
                    mirror[slot] = None;
                } else {
                    // One to three hops: the incumbent's own route both
                    // improves and worsens along the trace.
                    let mut hops = vec![peer, AsId(6 + g.next_below(4) as u32), AsId(9)];
                    hops.truncate(1 + g.next_below(3) as usize);
                    let update = Update::announce(P, w.paths.intern(&hops));
                    w.act(at(now), |s| n.receive(slot as u32, update, s));
                    mirror[slot] = Some(hops);
                }
                suppressions += suppressed(&n) - between;
                let key = |i: usize, path: &[AsId]| {
                    preference_key(&Candidate {
                        neighbor: sessions[i].peer,
                        rel: sessions[i].rel,
                        path,
                    })
                };
                let held = || mirror.iter().enumerate().filter_map(|(i, e)| Some((i, e.as_deref()?)));
                let cached = n.table.rib_keys(n.table.row(P).expect("the prefix has a row"));
                for (i, a) in held() {
                    for (j, b) in held() {
                        assert_eq!(cached[i].cmp(&cached[j]), key(i, a).cmp(&key(j, b)), "slots {i} and {j}");
                        pairs += 1;
                    }
                }
                let mut want: Option<(usize, &[AsId])> = None;
                for (i, path) in held() {
                    if n.is_suppressed(i as u32, P) {
                        continue;
                    }
                    if want.is_none_or(|(w, wp)| key(i, path) > key(w, wp)) {
                        want = Some((i, path));
                    }
                }
                let got = n.best_route(P).map(|(nh, p)| (nh, w.paths.to_vec(p)));
                let want = want.map(|(s, p)| (Some(sessions[s].peer), p.to_vec()));
                assert_eq!(got, want, "decision diverged from the brute-force rescan (damped: {damped})");
            }
            assert!(pairs > 2_000, "the trace must hold several routes at once ({pairs} pairs)");
            if damped {
                assert!(
                    suppressions > 10 && reuses > 10,
                    "the damped trace must suppress and reuse routes ({suppressions}, {reuses})"
                );
            } else {
                assert_eq!((suppressions, reuses), (0, 0));
            }
        }
    }
}
