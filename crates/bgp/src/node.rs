//! The per-AS BGP speaker: the node model of the paper's Fig. 2.
//!
//! A node holds routes and nothing else: per neighbor session, an
//! MRAI-limited output queue ([`crate::mrai::OutQueue`]) and, per prefix,
//! an Adj-RIB-in and an Adj-RIB-out cell; per prefix, the selected best
//! route (Loc-RIB); session liveness and damping history. None of it lives in a
//! per-node object: every route of the network sits in the columns of one
//! [`RouteSlab`], and a [`BgpNode`] is the view of one node's share that
//! the caller builds for one protocol step — the node's AS id, the
//! [`SessionSlab`] that maps its slots to global session ids, and the
//! slab's columns, borrowed mutably. [`NodeView`] is the same view
//! borrowed shared: `Copy`, and what a simulator hands out for reading.
//!
//! The node is a **pure protocol machine**: every entry point is
//! `node.method(<what happened>, &mut step)`, and the [`Step`] the caller
//! lends it (the event-driven simulator in `bgpscale-core`, or a unit
//! test) carries everything that is not a route — the one protocol
//! configuration of the network, the [`EventKey`] of the event being
//! handled (the key is all an MRAI timer needs to know whether it is
//! still armed, see [`crate::mrai`]), the cause to stamp on exports (of
//! the stamp type `S` every view, step and message is generic over: `()`
//! unless the simulator is observed, see [`crate::Update`]), the
//! [`PathArena`](crate::PathArena) the node's [`PathId`]s are ids of, the
//! work tallies, the list the step's transmissions are appended to, and
//! the network's event clock ([`crate::mrai::Clock`]). The node keeps no
//! clock of its own: a timer it arms takes its key from the lent one at
//! once, and an expiry event or a damping wake-up it needs is scheduled
//! there as the step runs. The caller puts the sends on the wire after
//! the step; the simulator keeps one send list, drains it after every
//! step and lends it again, so a protocol step allocates nothing.
//!
//! Pipeline per received update (Fig. 2): update the neighbor's Adj-RIB-in
//! → re-run the decision process → if the best route changed, run the
//! export filter for every neighbor and submit the new intent (announce /
//! withdraw / nothing) to that neighbor's output queue.
//!
//! The export filter is the Gao–Rexford rule first, then the sender-side
//! loop check: is the neighbor on the best path
//! ([`crate::path::PathArena::contains`], a hop-mask test that walks the
//! path only on a mask hit)? The export path (this AS prepended to the
//! best path) is built by the first session that passes both, and every
//! later one takes the same id; a change no session takes — a stub's
//! provider route — builds nothing. The receiver checks an announced
//! path for its own AS the same way.
//!
//! ## Memory layout
//!
//! A view is an AS id, two references and a [`Stripe`]: nothing is
//! allocated to build one. Node `i`'s sessions are the stripe
//! `SessionSlab::stripe(i)` of the global session id space, made and
//! checked once when the view is built; its session timers and liveness
//! flags and, per prefix row, its Adj-RIB-in and output cells are that
//! stripe of the slab's per-session columns, cut by the stripe alone, and
//! its Loc-RIB is entry `i` of each row (see [`crate::arena`]).
//!
//! A prefix comes in at the entry points — an origination, a withdrawal
//! of the origin, a received update — and is turned into its row there.
//! Below them a route cell, an MRAI timer and a damping entry are named by
//! the row alone, and so are the expiries and wake-ups a step asks the
//! clock for, which come back to [`BgpNode::mrai_flush`] and
//! [`BgpNode::rfd_reuse_caused`] as rows.
//!
//! A route is a four-byte [`PathId`] wherever the node keeps one: an
//! Adj-RIB-in cell is that id beside an eight-byte preference key
//! ([`crate::decision::rank_key`]), and the Loc-RIB and each
//! Adj-RIB-out cell hold the id alone. A session keeps 24 bytes whatever
//! it carries, and eight more per prefix row unobserved (the Adj-RIB-out
//! and the queued update; see [`crate::mrai`]). The hops themselves live
//! once, in the caller's arena.
//!
//! A test that drives one node owns what a simulator would: a one-node
//! [`SessionSlab::for_single`], its [`RouteSlab`], and the things a
//! [`Step`] lends; it builds the view with [`BgpNode::new`] and reads
//! through [`BgpNode::view`].

use std::sync::Arc;

use bgpscale_obs::Stamp;
use bgpscale_simkernel::{EventKey, SimTime};
use bgpscale_topology::{AsId, Relationship};

use crate::arena::{RouteSlab, SessionSlab, Stripe, SELF_SLOT};
use crate::config::MraiScope;
use crate::decision::rank_key;
use crate::message::{Prefix, Update, UpdateKind};
use crate::mrai::{governing, OutQueue, QueueView, Step};
use crate::path::PathId;
use crate::policy::{export_allowed, RouteSource};
use crate::rfd::FlapKind;

/// One configured neighbor session.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    /// The neighbor AS.
    pub peer: AsId,
    /// Our relationship to the neighbor.
    pub rel: Relationship,
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

/// A BGP speaker for one AS, for one protocol step: the view of its
/// routes in a network's [`RouteSlab`] (see the module docs).
#[derive(Debug)]
pub struct BgpNode<'a, S = ()> {
    id: AsId,
    /// The topology-wide session arena; node `id` reads its own stripe.
    slab: &'a Arc<SessionSlab>,
    /// This node's sessions in the global session id space.
    stripe: Stripe,
    /// Every route of the network; this node writes its own share.
    routes: &'a mut RouteSlab<S>,
}

/// A read-only view of one node's routes in a network's [`RouteSlab`]:
/// what [`BgpNode::view`] and a simulator's `node(id)` hand out.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a, S = ()> {
    id: AsId,
    slab: &'a Arc<SessionSlab>,
    stripe: Stripe,
    routes: &'a RouteSlab<S>,
}

impl<'a, S: Stamp> NodeView<'a, S> {
    /// The view of node `id` — stripe `id` of `slab` — in `routes`, the
    /// route columns built for `slab`. Panics if `id` is not one of the
    /// slab's nodes.
    pub fn new(id: AsId, slab: &'a Arc<SessionSlab>, routes: &'a RouteSlab<S>) -> NodeView<'a, S> {
        let stripe = slab.stripe(id.0);
        NodeView { id, slab, stripe, routes }
    }

    /// The configured sessions, in slot order.
    pub fn sessions(self) -> &'a [Session] {
        self.slab.sessions(self.stripe)
    }

    /// The shared session slab this node reads its stripe from.
    pub fn slab(self) -> &'a Arc<SessionSlab> {
        self.slab
    }

    /// The slot of neighbor `peer`, if it is one.
    pub fn slot_of(self, peer: AsId) -> Option<u32> {
        self.slab.slot_of(self.stripe, peer)
    }

    /// The output queue of `slot`, read-only: its Adj-RIB-out, queued
    /// updates, timers and liveness.
    pub fn queue(self, slot: u32) -> QueueView<'a, S> {
        self.routes.queue(self.stripe, slot)
    }

    /// The best route for `prefix`: `None` if unreachable, otherwise the
    /// next-hop neighbor (`None` when self-originated) and the AS path as
    /// learned (the next hop is its first element), an id of the arena the
    /// node's entry points were lent.
    pub fn best_route(self, prefix: Prefix) -> Option<(Option<AsId>, PathId)> {
        let row = self.routes.row(prefix)?;
        let (slot, path) = self.routes.loc(row, self.id.0).best()?;
        if slot == SELF_SLOT {
            Some((None, path))
        } else {
            Some((Some(self.slab.session(self.stripe, slot).peer), path))
        }
    }

    /// The route held for `prefix` in the Adj-RIB-in of `slot`: what the
    /// neighbor last announced there, `None` once it withdrew, while the
    /// session is down, or if the announced path carried this AS.
    pub fn adj_rib_in(self, slot: u32, prefix: Prefix) -> Option<PathId> {
        self.routes.rib_in(self.routes.row(prefix)?, self.stripe, slot).0
    }

    /// The latest key reserved for any MRAI timer of this speaker that is
    /// not after `deadline` (see [`QueueView::latest_key_by`]).
    pub fn latest_timer_key_by(self, deadline: SimTime) -> EventKey {
        let due = (0..self.sessions().len() as u32).map(|slot| self.queue(slot).latest_key_by(deadline));
        due.max().unwrap_or(EventKey::ZERO)
    }

    /// True if the route from `slot` for `prefix` is currently damped.
    pub fn is_suppressed(self, slot: u32, prefix: Prefix) -> bool {
        let row = self.routes.row(prefix);
        row.is_some_and(|row| self.routes.suppressed(self.stripe.id(slot), row))
    }
}

impl<'a, S: Stamp> BgpNode<'a, S> {
    /// The speaker `id` — stripe `id` of `slab` — writing its routes into
    /// `routes`, the route columns built for `slab`. The simulator builds
    /// one per protocol step; building one allocates nothing.
    pub fn new(
        id: AsId,
        slab: &'a Arc<SessionSlab>,
        routes: &'a mut RouteSlab<S>,
    ) -> BgpNode<'a, S> {
        let stripe = slab.stripe(id.0);
        debug_assert_eq!(routes.state.len(), slab.total_sessions(), "route columns of another slab");
        BgpNode { id, slab, stripe, routes }
    }

    /// The read-only view of this speaker.
    pub fn view(&self) -> NodeView<'_, S> {
        NodeView { id: self.id, slab: self.slab, stripe: self.stripe, routes: self.routes }
    }

    /// The output queue of `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is not one of this node's sessions.
    fn queue_mut(&mut self, slot: u32) -> OutQueue<'_, S> {
        self.routes.queue_mut(self.stripe, slot)
    }

    /// The row of `prefix`, made this node's if it was not.
    fn touch(&mut self, prefix: Prefix) -> u32 {
        self.routes.touch(prefix, self.id.0, self.stripe)
    }

    /// Starts originating `prefix`. `step.cause` stamps the resulting
    /// exports, which are appended to `step.out`.
    pub fn originate_caused(&mut self, prefix: Prefix, step: &mut Step<S>) {
        let row = self.touch(prefix);
        self.routes.loc_mut(row, self.id.0).originated = true;
        self.reevaluate(row, Reeval::Full, step);
    }

    /// Stops originating `prefix` (the "DOWN" half of a C-event), stamping
    /// the resulting exports with `step.cause`.
    pub fn withdraw_origin_caused(&mut self, prefix: Prefix, step: &mut Step<S>) {
        let row = self.touch(prefix);
        self.routes.loc_mut(row, self.id.0).originated = false;
        self.reevaluate(row, Reeval::Full, step);
    }

    /// Processes one UPDATE that arrived over session `slot`: the
    /// resulting transmissions go to `step.out`, and the timer arms,
    /// expiries and damping wake-ups to `step.clock`. The simulator
    /// resolves the slot once, when the message
    /// is delivered, and queues it with the message. An announced path is
    /// an id of `step.paths`. The cause of the step is the message: this
    /// sets `step.cause` to its stamp, one hop further on.
    ///
    /// # Panics
    /// Panics if `slot` is not one of this node's sessions.
    pub fn receive(&mut self, slot: u32, update: Update<S>, step: &mut Step<S>) {
        // Exports triggered by this message are one causal hop further from
        // the root cause than the message itself.
        step.cause = update.stamp.child();
        let row = self.touch(update.prefix);

        // Receiver-side loop detection: a path containing our own AS is
        // ineligible (RFC 4271) and supersedes whatever the neighbor
        // previously announced — treat it as a withdrawal. Senders filter
        // such paths already, so this is the guard behind them, not a
        // path the simulation takes.
        let incoming: Option<PathId> = match update.kind {
            UpdateKind::Announce(path) if !step.paths.contains(path, self.id) => Some(path),
            _ => None,
        };

        // Route Flap Damping: charge the figure of merit before
        // installing. Initial advertisements are free; withdrawals,
        // re-advertisements and path changes are flaps (RFC 2439).
        if step.cfg.rfd.is_some() {
            let session = self.stripe.id(slot);
            let (prev, _) = self.routes.rib_in(row, self.stripe, slot);
            let flap = match (prev, incoming) {
                (Some(_), None) => Some(FlapKind::Withdrawal),
                (Some(old), Some(new)) if old != new => Some(FlapKind::AttributeChange),
                (None, Some(_)) if self.routes.damp.get(session, row).is_some() => {
                    Some(FlapKind::Readvertisement)
                }
                _ => None,
            };
            if let Some(kind) = flap {
                let state = self.routes.damp.get_or_insert(session, row);
                if state.charge(kind, step.now.time) {
                    if let Some(at) = state.reuse_time() {
                        step.clock.wake(slot, row, at);
                    }
                }
            }
        }

        let route = incoming.map(|path| (path, self.route_key(slot, step.paths.len(path))));
        self.routes.set_rib_in(row, self.stripe, slot, route);

        self.reevaluate(row, Reeval::SlotChanged(slot), step);
    }

    /// Handles a Route Flap Damping reuse wake-up for `(slot, row)`:
    /// if the decayed penalty has fallen below the reuse threshold, the
    /// damped route becomes eligible again and the decision process
    /// re-runs. Early wake-ups (obsoleted by later flaps that extended
    /// suppression) are no-ops — the later flap scheduled its own wake-up.
    pub fn rfd_reuse_caused(&mut self, slot: u32, row: u32, step: &mut Step<S>) {
        if step.cfg.rfd.is_none() {
            return;
        }
        let Some(state) = self.routes.damp.get_mut(self.stripe.id(slot), row) else {
            return;
        };
        if state.maybe_reuse(step.now.time) {
            // Eligibility changed, so the incumbent may now lose: full run.
            self.reevaluate(row, Reeval::Full, step);
        }
    }

    /// Tears down the session at `slot` (link failure / session reset —
    /// the "L-event" extension of the paper's future work).
    ///
    /// All routes learned from the neighbor are invalidated at once (a
    /// BGP session drop implicitly withdraws the whole Adj-RIB-in), the
    /// output queue is cleared (the neighbor has likewise discarded our
    /// routes), and the decision process re-runs for every affected
    /// prefix; the sends appended to `step.out` notify the *other*
    /// neighbors.
    ///
    /// An MRAI expiry event scheduled for this slot is stale from here
    /// on: [`QueueView::expiry_due`] is false of it.
    ///
    /// # Panics
    /// Panics if the session is already down.
    pub fn session_down_caused(&mut self, slot: u32, step: &mut Step<S>) {
        let mut queue = self.routes.queue_mut(self.stripe, slot);
        assert!(queue.view().is_up(), "{}: session {slot} already down", self.id);
        queue.state.up = false;
        queue.force_reset();
        self.routes.damp.clear_session(self.stripe.id(slot));
        // Rows are only ever appended, never removed, so the indices
        // collected here stay valid across the reevaluations.
        let affected: Vec<u32> = self
            .routes
            .rows_by_prefix()
            .filter(|&row| self.routes.rib_in(row, self.stripe, slot).0.is_some())
            .collect();
        for row in affected {
            self.routes.set_rib_in(row, self.stripe, slot, None);
            self.reevaluate(row, Reeval::SlotChanged(slot), step);
        }
    }

    /// Re-establishes the session at `slot` and re-advertises the current
    /// table to the neighbor (the initial full RIB exchange of a fresh
    /// BGP session), subject to the usual export filters. The neighbor's
    /// routes arrive through its own `session_up`.
    ///
    /// # Panics
    /// Panics if the session is already up.
    pub fn session_up_caused(&mut self, slot: u32, step: &mut Step<S>) {
        let queue = self.routes.queue_mut(self.stripe, slot);
        assert!(!queue.view().is_up(), "{}: session {slot} already up", self.id);
        // A fresh session starts idle: the timer governs only what
        // follows the initial exchange.
        assert!(!queue.view().timer_armed(step.now), "initial exchange on a rate-limited session");
        queue.state.up = true;
        let neighbor = self.slab.session(self.stripe, slot);
        // The rows walk in sorted prefix order — the same deterministic
        // replay order the BTreeMap-backed table produced; a row this node
        // never touched has no best route and replays nothing.
        let snapshot: Vec<(u32, u32, PathId)> = self
            .routes
            .rows_by_prefix()
            .filter_map(|row| self.routes.loc(row, self.id.0).best().map(|(s, path)| (row, s, path)))
            .collect();
        let scope = step.cfg.mrai_scope;
        let mut replayed = false;
        for (row, best_slot, path) in snapshot {
            let source = if best_slot == SELF_SLOT {
                RouteSource::SelfOriginated
            } else {
                RouteSource::Learned(self.slab.session(self.stripe, best_slot).rel)
            };
            if !export_allowed(source, neighbor.rel) || step.paths.contains(path, neighbor.peer) {
                continue;
            }
            let export_path = step.paths.prepend(self.id, path);
            step.costs.path_intern_misses += 1;
            // The initial table exchange is not rate-limited; MRAI governs
            // subsequent updates only.
            let mut queue = self.queue_mut(slot);
            if queue.send_unlimited(row, export_path, neighbor.rel, step) {
                // One arm for the session, or one per prefix replayed.
                let which = governing(scope, row);
                if which.is_some() || !replayed {
                    queue.arm_timer(which, step);
                }
                replayed = true;
            }
        }
    }

    /// Handles the MRAI expiry event of `slot` popping at `step.now`, the
    /// key it was asked for at ([`crate::mrai::Clock::expire`]) and still
    /// due ([`QueueView::expiry_due`]) — the session timer when `trigger`
    /// is `None`, the per-prefix timer of `Some(row)` (only under
    /// [`MraiScope::PerPrefix`]) — appending the flushed transmissions to
    /// `step.out` and re-arming the timer iff something was sent.
    pub fn mrai_flush(&mut self, slot: u32, trigger: Option<u32>, step: &mut Step<S>) {
        debug_assert_eq!(trigger.is_some(), step.cfg.mrai_scope == MraiScope::PerPrefix);
        self.queue_mut(slot).flush(trigger, step);
    }

    /// The preference key of a path of `path_len` hops as a route learned
    /// over session `slot` — what the Adj-RIB-in caches beside the route.
    fn route_key(&self, slot: u32, path_len: usize) -> u64 {
        let rel = self.slab.session(self.stripe, slot).rel;
        rank_key(rel, path_len, self.slab.rank(self.stripe, slot))
    }

    /// The decision process proper (§2: LOCAL_PREF, shortest AS path,
    /// hashed tie-break — all folded into the cached `rib_key`): the row's
    /// best eligible learned route and the slot holding it. Counts every
    /// key comparison into `route_comparisons`.
    fn decide(&self, row: u32, hint: Reeval, step: &mut Step<S>) -> Option<(u32, PathId)> {
        // With damping off the incumbent is still the best of every slot
        // but `s`, so it only has to face the route at `s`; if `s` is its
        // own slot, it stands as long as it did not get worse. (Rows that
        // originate the prefix never get here: the incumbent is a learned
        // route, and its unchanged cell still holds `old_path`.)
        if let (Reeval::SlotChanged(s), None, Some((incumbent, old_path))) =
            (hint, &step.cfg.rfd, self.routes.loc(row, self.id.0).best())
        {
            let (announced, key) = self.routes.rib_in(row, self.stripe, s);
            if s != incumbent {
                let Some(path) = announced else {
                    return Some((incumbent, old_path));
                };
                step.costs.route_comparisons += 1;
                let (_, held) = self.routes.rib_in(row, self.stripe, incumbent);
                return Some(if key > held { (s, path) } else { (incumbent, old_path) });
            }
            if let Some(path) = announced {
                step.costs.route_comparisons += 1;
                if key >= self.route_key(s, step.paths.len(old_path)) {
                    return Some((s, path));
                }
            }
        }
        // Everything else rescans the row: suppressed routes are stored
        // but ineligible (RFC 2439), and the damping table is empty while
        // damping is off.
        let (routes, keys) = self.routes.adj_rib_in(row, self.stripe);
        let mut winner: Option<(u32, PathId, u64)> = None;
        for (slot, (&route, &key)) in (0..).zip(routes.iter().zip(keys)) {
            let Some(path) = route else { continue };
            if self.routes.suppressed(self.stripe.id(slot), row) {
                continue;
            }
            let better = match winner {
                None => true,
                Some((_, _, best)) => {
                    step.costs.route_comparisons += 1;
                    key > best
                }
            };
            if better {
                winner = Some((slot, path, key));
            }
        }
        winner.map(|(slot, path, _)| (slot, path))
    }

    /// Re-runs the decision process for row `row`; on a best-route change,
    /// runs the export filters and submits new intents to every output
    /// queue. Each submission is stamped with `step.cause` plus the sending
    /// edge's Gao–Rexford relation, so attribution survives MRAI coalescing
    /// downstream.
    ///
    /// `hint` says what changed since the last run (see [`Reeval`]).
    fn reevaluate(&mut self, row: u32, hint: Reeval, step: &mut Step<S>) {
        step.costs.decision_runs += 1;

        let held = *self.routes.loc(row, self.id.0);
        let new_best: Option<(u32, PathId)> = if held.originated {
            Some((SELF_SLOT, PathId::EMPTY))
        } else {
            self.decide(row, hint, step)
        };

        if held.best() == new_best {
            return;
        }
        self.routes.loc_mut(row, self.id.0).set_best(new_best);

        // Export phase: the Gao–Rexford filter plus sender-side loop
        // detection (the best path necessarily contains the neighbor it
        // was learned from, so this also prevents echoing a route back to
        // its sender) decide, per live session, between the export path
        // and a withdrawal. Most submissions are suppressed as no-ops.
        let best = new_best.map(|(best_slot, best_path)| {
            let source = if best_slot == SELF_SLOT {
                RouteSource::SelfOriginated
            } else {
                RouteSource::Learned(self.slab.session(self.stripe, best_slot).rel)
            };
            (source, best_path)
        });
        // The exported path, ourselves prepended to the best path: built
        // by the first session that takes it — one lookup-or-insert — and
        // the same id for every later taker. A stub's provider route is
        // taken by no one and builds nothing.
        let mut export: Option<PathId> = None;
        for (slot, session) in (0..).zip(self.slab.sessions(self.stripe)) {
            let mut queue = self.routes.queue_mut(self.stripe, slot);
            if !queue.view().is_up() {
                continue;
            }
            let intent = match best {
                Some((source, best_path))
                    if export_allowed(source, session.rel)
                        && !step.paths.contains(best_path, session.peer) =>
                {
                    step.costs.path_intern_hits += 1;
                    Some(*export.get_or_insert_with(|| {
                        step.costs.path_intern_misses += 1;
                        step.paths.prepend(self.id, best_path)
                    }))
                }
                _ => None,
            };
            queue.submit(row, intent, session.rel, step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BgpConfig;
    use crate::mrai::{Lender, StepLog, TestClock};
    use crate::path::PathArena;
    use crate::rfd::RfdConfig;
    use bgpscale_obs::OpCounts;
    use bgpscale_simkernel::SimDuration;

    const P: Prefix = Prefix(1);

    fn session(peer: u32, rel: Relationship) -> Session {
        Session {
            peer: AsId(peer),
            rel,
        }
    }

    /// What a test of one node owns in place of a simulator: the node's
    /// one-node slab and the route columns built for it.
    struct Net {
        slab: Arc<SessionSlab>,
        routes: RouteSlab,
    }

    impl Net {
        /// Node AS0 with these sessions.
        fn new(sessions: Vec<Session>) -> Net {
            let slab = SessionSlab::for_single(AsId(0), sessions);
            Net {
                routes: RouteSlab::new(&slab),
                slab,
            }
        }

        /// The view a protocol step of AS0 is run on.
        fn node(&mut self) -> BgpNode<'_> {
            BgpNode::new(AsId(0), &self.slab, &mut self.routes)
        }
    }

    /// A node AS0 with a customer AS1, a peer AS2, and a provider AS3.
    fn node() -> Net {
        Net::new(vec![
            session(1, Relationship::Customer),
            session(2, Relationship::Peer),
            session(3, Relationship::Provider),
        ])
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

    fn sends_to(log: &StepLog) -> Vec<u32> {
        log.sends.iter().map(|(s, _)| *s).collect()
    }

    /// The slots whose session timer holds a key the clock handed out in
    /// the steps `log` covers: the session timers they armed.
    fn arms_of(n: &BgpNode, log: &StepLog) -> Vec<u32> {
        let view = n.view();
        let slots = 0..view.sessions().len() as u32;
        let armed: Vec<u32> = slots.filter(|&s| log.arms.contains(&view.queue(s).latest_key_by(SimTime::MAX))).collect();
        assert_eq!(armed.len(), log.arms.len(), "an arm no session timer holds");
        armed
    }

    /// The key of the step every test starts in.
    const T0: EventKey = EventKey::ZERO;
    const MRAI: SimDuration = SimDuration::from_secs(30);

    /// A step at time `t`.
    fn at(t: SimTime) -> EventKey {
        EventKey { time: t, seq: 0 }
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
        let mut net = node();
        let mut n = net.node();
        let a = w.act(T0, |s| n.originate_caused(P, s));
        assert_eq!(sends_to(&a), vec![0, 1, 2]);
        assert_eq!(arms_of(&n, &a), vec![0, 1, 2]);
        for (_, u) in &a.sends {
            assert_eq!(u.kind.path(), Some(w.paths.of(&[0])), "path is just the origin");
        }
        assert_eq!(n.view().best_route(P), Some((None, PathId::EMPTY)));
    }

    #[test]
    fn customer_route_exports_to_everyone_else() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // Export to peer and provider (customer route), but not back to the
        // customer (loop detection: AS1 is on the path).
        assert_eq!(sends_to(&a), vec![1, 2]);
        let (_, u) = &a.sends[0];
        assert_eq!(u.kind.path(), Some(w.paths.of(&[0, 1, 9])));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn provider_route_exports_only_to_customers() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        let a = w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert_eq!(sends_to(&a), vec![0], "only the customer hears about it");
    }

    #[test]
    fn peer_route_exports_only_to_customers() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        let a = w.act(T0, |s| n.receive(1, ann(s.paths, P, &[2, 9]), s));
        assert_eq!(sends_to(&a), vec![0]);
    }

    #[test]
    fn better_route_triggers_reexport_with_new_path() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
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
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
        // Slot 0's timer (armed by the earlier provider-route export) has
        // nothing waiting behind it: no expiry event is asked for.
        assert!(a.expiries.is_empty());
    }

    #[test]
    fn worse_route_does_not_displace_best() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // A provider route arrives; best (customer) unchanged → no exports.
        let a = w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert!(a.is_empty());
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn withdrawal_falls_back_to_alternate_route() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
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
        assert_eq!(arms_of(&n, &a), vec![0], "only the announcement arms a timer");
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(3)));
        assert!(a.expiries.is_empty(), "nothing waits behind slot 0's new timer");
    }

    #[test]
    fn total_loss_withdraws_from_everyone_reached() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        let a = w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        // No alternate: withdraw goes to the peers/providers that heard
        // the announcement. The customer never got it (loop), so no
        // withdrawal there.
        let withdraws: Vec<u32> = a.sends.iter().map(|(s, _)| *s).collect();
        assert_eq!(withdraws, vec![1, 2]);
        assert!(a.sends.iter().all(|(_, u)| u.kind.is_withdraw()));
        assert_eq!(n.view().best_route(P), None);
        // NO-WRATE: withdrawals did not arm timers.
        assert!(a.arms.is_empty());
    }

    #[test]
    fn wrate_queues_withdrawals_behind_timer() {
        let mut w = Lender::new(BgpConfig::wrate());
        let mut net = Net::new(vec![session(1, Relationship::Customer), session(2, Relationship::Peer)]);
        let mut n = net.node();
        let first = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(first.expiries.is_empty());
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
        assert_eq!(arms_of(&n, &f), vec![1], "withdrawal re-arms under WRATE");
    }

    #[test]
    fn flap_within_mrai_window_is_absorbed() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
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
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        w.act(T0, |s| n.originate_caused(P, s));
        assert_eq!(n.view().best_route(P), Some((None, PathId::EMPTY)));
        // Withdrawing the origin falls back to the learned route.
        w.act(T0, |s| n.withdraw_origin_caused(P, s));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn decision_prefers_shorter_path_among_customers() {
        let mut w = Lender::default();
        let mut net = Net::new(vec![
                session(1, Relationship::Customer),
                session(2, Relationship::Customer),
            ]);
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 8, 9]), s));
        w.act(T0, |s| n.receive(1, ann(s.paths, P, &[2, 9]), s));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(2)));
    }

    #[test]
    fn looping_announcement_is_ignored() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        let a = w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 0, 9]), s));
        assert!(a.is_empty());
        assert_eq!(n.view().best_route(P), None);
    }

    #[test]
    fn reset_routing_clears_ribs_but_keeps_sessions() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        // Slots 1 and 2 were armed (the customer route was exported to the
        // peer and provider) and run out with nothing behind them.
        net.routes.reset_routing(after_mrai(T0));
        let n = net.node();
        assert_eq!(n.view().best_route(P), None);
        assert_eq!(n.view().sessions().len(), 3);
        assert_eq!(n.view().queue(1).advertised(P), None);
    }

    #[test]
    #[should_panic]
    fn update_on_an_unknown_slot_panics() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(3, Update::withdraw(P), s));
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn duplicate_sessions_rejected() {
        Net::new(vec![session(1, Relationship::Peer), session(1, Relationship::Customer)]);
    }

    #[test]
    fn session_down_invalidates_learned_routes_and_notifies_others() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
        // The customer session drops: its route is gone, and the peers/
        // providers that heard the customer route get withdrawals.
        let a = w.act(T0, |s| n.session_down_caused(0, s));
        assert!(!n.view().queue(0).is_up());
        assert_eq!(n.view().best_route(P), None);
        let withdraws: Vec<u32> = a.sends.iter().map(|(s, _)| *s).collect();
        assert_eq!(withdraws, vec![1, 2]);
        assert!(a.sends.iter().all(|(_, u)| u.kind.is_withdraw()));
    }

    #[test]
    fn down_session_receives_no_exports() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.session_down_caused(0, s));
        // A new best route arrives from the provider; normally the
        // customer (slot 0) would hear it, but the session is down.
        let a = w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        assert!(a.sends.iter().all(|(s, _)| *s != 0));
        assert_eq!(n.view().queue(0).advertised(P), None);
    }

    #[test]
    fn session_up_replays_the_table() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        w.act(T0, |s| n.originate_caused(Prefix(7), s));
        // Drop and restore the customer session: on restore it must learn
        // both the provider-learned route and the originated prefix
        // (customers receive everything).
        w.act(T0, |s| n.session_down_caused(0, s));
        let a = w.act(T0, |s| n.session_up_caused(0, s));
        assert!(n.view().queue(0).is_up());
        let mut prefixes: Vec<Prefix> = a.sends.iter().map(|(_, u)| u.prefix).collect();
        prefixes.sort();
        assert_eq!(prefixes, vec![P, Prefix(7)]);
        assert!(a.sends.iter().all(|(s, u)| *s == 0 && u.kind.is_announce()));
        // The full-table replay arms the MRAI timer once.
        assert_eq!(arms_of(&n, &a), vec![0]);
    }

    #[test]
    fn session_up_respects_export_policy() {
        let mut w = Lender::default();
        // A provider-learned route must not be replayed to a peer session
        // that comes back up.
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        w.act(T0, |s| n.session_down_caused(1, s)); // peer
        let a = w.act(T0, |s| n.session_up_caused(1, s));
        assert!(a.sends.is_empty(), "provider route leaked to peer on replay");
    }

    #[test]
    fn session_down_clears_output_queue_state() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(n.view().queue(1).advertised(P).is_some());
        w.act(T0, |s| n.session_down_caused(1, s));
        assert_eq!(n.view().queue(1).advertised(P), None);
        assert!(!n.view().queue(1).timer_armed(T0));
    }

    /// A session that goes down forgets what it sent, what it queued and
    /// every per-prefix timer, in every row; the other sessions' cells in
    /// the same rows are untouched.
    #[test]
    fn session_down_clears_the_sessions_cells_in_every_row() {
        let mut w = Lender::new(BgpConfig {
            mrai_scope: MraiScope::PerPrefix,
            ..BgpConfig::default()
        });
        let mut net = node();
        let mut n = net.node();
        let prefixes = [Prefix(4), Prefix(9), Prefix(2)];
        // Customer routes, exported to the peer (slot 1) and the provider
        // (slot 2), arm one timer per (slot, prefix).
        for &p in &prefixes {
            let a = w.act(T0, |s| n.receive(0, ann(s.paths, p, &[1, 9]), s));
            assert_eq!((a.arms.len(), a.expiries.len()), (2, 0), "{p:?}: two arms, nothing waiting");
            for slot in [1, 2] {
                let queue = n.view().queue(slot);
                assert!(queue.is_armed(p, MraiScope::PerPrefix, T0), "{p:?}'s own timer");
                assert!(!queue.is_armed(p, MraiScope::PerInterface, T0), "not the session timer");
            }
        }
        // Longer paths queue behind those timers.
        for &p in &prefixes {
            let a = w.act(T0, |s| n.receive(0, ann(s.paths, p, &[1, 7, 9]), s));
            assert_eq!(a.expiries.len(), 2, "slots 1 and 2 wait for {p:?}");
        }
        for slot in [1, 2] {
            let queue = n.view().queue(slot);
            assert_eq!((queue.pending_len(), queue.scheduled_expiries()), (3, 3));
        }

        w.act(T0, |s| n.session_down_caused(1, s));
        let (down, up) = (n.view().queue(1), n.view().queue(2));
        for &p in &prefixes {
            assert_eq!((down.advertised(p), down.queued_update(p)), (None, None), "{p:?}");
            assert!(!down.is_armed(p, MraiScope::PerPrefix, T0), "{p:?}'s timer outlived the session");
            assert!(up.advertised(p).is_some() && up.queued_update(p).is_some(), "slot 2 lost {p:?}");
        }
        assert_eq!((down.pending_len(), down.scheduled_expiries(), down.timer_armed(T0)), (0, 0, false));
        assert_eq!((up.pending_len(), up.scheduled_expiries(), up.armed_count(T0)), (3, 3, 3));
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_session_down_panics() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.session_down_caused(0, s));
        w.act(T0, |s| n.session_down_caused(0, s));
    }

    #[test]
    fn rfd_suppresses_flapping_route_and_falls_back() {
        let mut w = damped();
        let mut net = node();
        let mut n = net.node();
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
        assert!(n.view().is_suppressed(0, P));
        // A further announcement installs the route but the decision
        // sticks with the stable provider route.
        w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert_eq!(
            n.view().best_route(P).unwrap().0,
            Some(AsId(3)),
            "damped customer route must not win despite higher local-pref"
        );
    }

    #[test]
    fn rfd_reuse_restores_eligibility() {
        let mut w = damped();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(2, ann(s.paths, P, &[3, 9]), s));
        let mut t = SimTime::from_secs(1);
        let mut wake = None;
        let mut expiries = Vec::new();
        for _ in 0..4 {
            let a = w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
            expiries.extend(a.expiries);
            t += SimDuration::from_secs(1);
            let a = w.act(at(t), |s| n.receive(0, Update::withdraw(P), s));
            expiries.extend(a.expiries);
            if let Some(&(_, _, reuse_at)) = a.wakeups.last() {
                wake = Some(reuse_at);
            }
            t += SimDuration::from_secs(1);
        }
        // Final state: suppressed, route re-announced and stored.
        w.act(at(t), |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(n.view().is_suppressed(0, P));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(3)));
        // Too-early wake-up: still suppressed.
        let p_row = n.routes.row(P).expect("P has a row");
        let early = w.act(at(t + SimDuration::from_secs(60)), |s| n.rfd_reuse_caused(0, p_row, s));
        assert!(early.is_empty());
        assert!(n.view().is_suppressed(0, P));
        // The MRAI windows of the flapping close, flushing what queued
        // behind them.
        assert!(!expiries.is_empty(), "the flapping queued updates");
        while !expiries.is_empty() {
            let (slot, which, key) = expiries.remove(0);
            let f = w.act(key, |s| n.mrai_flush(slot, which, s));
            expiries.extend(f.expiries);
        }
        // Well past the scheduled reuse time the customer route wins
        // again, and with every timer run out the re-selection is
        // announced at once.
        let wake = wake.expect("a wake-up was scheduled") + SimDuration::from_secs(3600);
        let a = w.act(at(wake), |s| n.rfd_reuse_caused(0, p_row, s));
        assert!(!n.view().is_suppressed(0, P));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
        assert!(
            a.sends.iter().any(|(_, u)| u.kind.is_announce()),
            "re-selection must announce the change"
        );
    }

    #[test]
    fn rfd_initial_advertisement_is_free() {
        let mut w = damped();
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(!n.view().is_suppressed(0, P));
        // Stable routes never accumulate penalty: identical re-announce
        // is a no-op, not a flap.
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert!(!n.view().is_suppressed(0, P));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(1)));
    }

    #[test]
    fn rfd_disabled_means_no_suppression_ever() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        for _ in 0..20 {
            w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
            w.act(T0, |s| n.receive(0, Update::withdraw(P), s));
        }
        assert!(!n.view().is_suppressed(0, P));
    }

    #[test]
    fn cost_counters_attribute_decision_and_path_work() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        assert_eq!(w.costs, OpCounts::default());
        // One update → one decision run, a fresh export path, and a
        // refcount hit per session it is exported to (peer + provider).
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
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
        let mut net = node();
        let mut n = net.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, P, &[1, 9]), s));
        assert_eq!(
            n.view().queue(1).advertised(P),
            Some(w.paths.of(&[0, 1, 9]))
        );
        assert_eq!(n.view().queue(0).advertised(P), None, "never sent back to learner");
        assert!(n.view().queue(1).timer_armed(T0));
        assert!(!n.view().queue(0).timer_armed(T0));
    }

    /// Delivers `update` over `slot` and returns the step's sends with
    /// what it built: the `path_intern_misses` it counted and the cells it
    /// added to the arena.
    fn builds(n: &mut BgpNode, w: &mut Lender, slot: u32, update: Update) -> (StepLog, u64, usize) {
        let (misses, cells) = (w.costs.path_intern_misses, w.paths.paths());
        let a = w.act(T0, |s| n.receive(slot, update, s));
        (a, w.costs.path_intern_misses - misses, w.paths.paths() - cells)
    }

    /// The Adj-RIB-out interning invariant: one best-route change builds
    /// the export path once — one new arena cell — and every neighbor's
    /// Adj-RIB-out entry holds that cell's id.
    #[test]
    fn export_to_many_neighbors_shares_one_path_id() {
        let mut w = Lender::default();
        let mut net = Net::new(vec![
                session(1, Relationship::Customer),
                session(2, Relationship::Peer),
                session(3, Relationship::Provider),
                session(4, Relationship::Peer),
            ]);
        let mut n = net.node();
        let learned = ann(&mut w.paths, P, &[1, 9]);
        let hits = w.costs.path_intern_hits;
        let (a, misses, cells) = builds(&mut n, &mut w, 0, learned);
        assert_eq!((misses, cells), (1, 1), "the export path is built once");
        assert_eq!(w.costs.path_intern_hits - hits, 3, "and taken three times");
        let export = w.paths.of(&[0, 1, 9]);
        assert!(a.sends.iter().all(|(_, u)| u.kind.path() == Some(export)));
        let exported: Vec<PathId> = (1..4).filter_map(|s| n.view().queue(s).advertised(P)).collect();
        assert_eq!(exported, vec![export; 3], "customer route reaches the other three");
    }

    /// A stub's provider route goes to no one (peer- and provider-learned
    /// routes go to customers only), so changing it builds no path.
    #[test]
    fn a_provider_only_stub_builds_no_export_path() {
        let mut w = Lender::default();
        let mut net = Net::new(vec![session(3, Relationship::Provider), session(4, Relationship::Provider)]);
        let mut n = net.node();
        for (slot, hops) in [(0, &[3, 9][..]), (1, &[4, 9]), (0, &[3, 5, 9])] {
            let update = ann(&mut w.paths, P, hops);
            let (a, misses, cells) = builds(&mut n, &mut w, slot, update);
            assert!(a.is_empty());
            assert_eq!((misses, cells), (0, 0), "best route via {hops:?} built a path");
        }
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(4)));
        assert_eq!(w.costs.path_intern_hits, 0);
    }

    /// A change whose only session the export filter allows is on the best
    /// path is taken by no one: the loop check runs first, nothing is
    /// built.
    #[test]
    fn a_change_only_its_own_path_could_take_builds_nothing() {
        let mut w = Lender::default();
        let mut net = node();
        let mut n = net.node();
        // A provider route through our customer AS1: only customers may
        // hear it, and the one customer is on it.
        let update = ann(&mut w.paths, P, &[3, 1, 9]);
        let (a, misses, cells) = builds(&mut n, &mut w, 2, update);
        assert!(a.is_empty(), "nothing to send: {:?}", a.sends);
        assert_eq!((misses, cells), (0, 0));
        assert_eq!(n.view().best_route(P).unwrap().0, Some(AsId(3)));
    }

    /// The sends, arms and expiry requests of `a`, comparable.
    #[expect(clippy::type_complexity, reason = "a test's flat tuple view of a step log, compared whole")]
    fn flat(a: &StepLog) -> (Vec<(u32, Update)>, Vec<EventKey>, Vec<(u32, Option<u32>, EventKey)>) {
        assert!(a.wakeups.is_empty());
        (a.sends.clone(), a.arms.clone(), a.expiries.clone())
    }

    /// The entry points append to the send list they are lent — never
    /// clearing it — exactly what they produce on an empty one, and ask
    /// the clock for the same arms and expiries.
    #[test]
    fn entry_points_append_to_a_shared_buffer_what_they_produce_on_an_empty_one() {
        let mut w = Lender::default();
        let customer = ann(&mut w.paths, P, &[1, 9]);
        let provider = ann(&mut w.paths, P, &[3, 9]);
        let longer = ann(&mut w.paths, P, &[1, 8, 9]);
        // The key of slot 1's timer, the clock's second (slot 0 took the
        // first): the longer customer path waits behind it and is flushed
        // at that key.
        let key = EventKey {
            time: T0.time + MRAI,
            seq: 2,
        };
        type Entry = Box<dyn Fn(&mut BgpNode, &mut Step)>;
        let script: Vec<(EventKey, Entry)> = vec![
            (T0, Box::new(move |n, s| n.receive(2, provider, s))),
            (T0, Box::new(move |n, s| n.receive(0, customer, s))),
            (T0, Box::new(move |n, s| n.receive(0, longer, s))),
            (key, Box::new(|n, s| {
                assert!(n.view().queue(1).expiry_due(None, s.now), "slot 1's timer took the second key");
                n.mrai_flush(1, None, s);
            })),
            (T0, Box::new(|n, s| n.originate_caused(Prefix(7), s))),
            (T0, Box::new(|n, s| n.session_down_caused(0, s))),
            (T0, Box::new(|n, s| n.session_up_caused(0, s))),
            (T0, Box::new(|n, s| n.withdraw_origin_caused(Prefix(7), s))),
        ];

        let (mut by_value, mut in_place) = (node(), node());
        let mut want = StepLog::default();
        for (now, entry) in &script {
            let a = w.act(*now, |s| entry(&mut by_value.node(), s));
            want.sends.extend(a.sends);
            want.arms.extend(a.arms);
            want.expiries.extend(a.expiries);
        }
        let by_value_costs = std::mem::take(&mut w.costs);
        w.clock = TestClock::default();
        for (now, entry) in &script {
            entry(&mut in_place.node(), &mut w.step(*now, ()));
        }

        assert!(want.sends.len() >= 8, "the script must exercise the export path");
        assert_eq!(flat(&w.take()), flat(&want));
        assert_eq!(w.costs, by_value_costs);
    }

    /// `recycle` from a state with armed timers, a queued update and a
    /// session down leaves a node that replays a script exactly as a
    /// newly built one does, at the same cost.
    #[test]
    fn recycle_restores_the_constructed_state_from_any_state() {
        let mut w = Lender::default();
        let script = |n: &mut BgpNode, w: &mut Lender| {
            w.clock = TestClock::default();
            n.receive(0, ann(&mut w.paths, P, &[1, 9]), &mut w.step(T0, ()));
            assert!(w.clock.expiries.is_empty(), "slots 1 and 2 armed, nothing waiting");
            n.receive(2, ann(&mut w.paths, P, &[3, 9]), &mut w.step(T0, ()));
            // A longer customer path waits behind both timers.
            n.receive(0, ann(&mut w.paths, P, &[1, 8, 9]), &mut w.step(T0, ()));
            let (slot, which, key) = w.clock.expiries[0];
            n.mrai_flush(slot, which, &mut w.step(key, ()));
            n.receive(0, Update::withdraw(P), &mut w.step(T0, ()));
            (flat(&w.take()), n.view().best_route(P), std::mem::take(&mut w.costs))
        };
        let want = script(&mut node().node(), &mut w);

        let mut used = node();
        let mut n = used.node();
        w.act(T0, |s| n.receive(0, ann(s.paths, Prefix(4), &[1, 8]), s));
        w.act(T0, |s| n.receive(0, ann(s.paths, Prefix(4), &[1, 7, 8]), s));
        w.act(T0, |s| n.session_down_caused(2, s));
        assert!(n.view().queue(1).timer_armed(T0), "recycled mid-window, timers armed");
        used.routes.recycle();
        let n = used.node();
        assert_eq!(n.view().best_route(Prefix(4)), None);
        assert!((0..3).all(|s| n.view().queue(s).is_up() && !n.view().queue(s).timer_armed(T0)));
        assert!((0..3).all(|s| n.view().queue(s).advertised(Prefix(4)).is_none()));
        assert_eq!(used.routes.arena_bytes(), 0);

        w.costs = OpCounts::default();
        assert_eq!(script(&mut used.node(), &mut w), want, "same routes, same work after recycling");
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
        let mut net = Net::new(sessions);
        let mut n = net.node();
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
            let mut net = Net::new(sessions.clone());
            let mut n = net.node();
            let mut mirror: Vec<Option<Vec<AsId>>> = vec![None; sessions.len()];
            let mut g = Xoshiro256StarStar::new(0xA11_0CA7);
            let mut now = SimTime::ZERO;
            let suppressed = |n: &BgpNode| (0..5).filter(|&s| n.view().is_suppressed(s, P)).count();
            let (mut suppressions, mut reuses, mut pairs) = (0, 0, 0);
            for _ in 0..400 {
                now += SimDuration::from_secs(120);
                let slot = g.next_below(5) as usize;
                let peer = sessions[slot].peer;
                let before = suppressed(&n);
                for s in 0..5 {
                    let Some(row) = n.routes.row(P) else { break };
                    w.act(at(now), |step| n.rfd_reuse_caused(s, row, step));
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
                let row = n.routes.row(P).expect("the prefix has a row");
                let (_, cached) = n.routes.adj_rib_in(row, n.stripe);
                for (i, a) in held() {
                    for (j, b) in held() {
                        assert_eq!(cached[i].cmp(&cached[j]), key(i, a).cmp(&key(j, b)), "slots {i} and {j}");
                        pairs += 1;
                    }
                }
                let mut want: Option<(usize, &[AsId])> = None;
                for (i, path) in held() {
                    if n.view().is_suppressed(i as u32, P) {
                        continue;
                    }
                    if want.is_none_or(|(w, wp)| key(i, path) > key(w, wp)) {
                        want = Some((i, path));
                    }
                }
                let got = n.view().best_route(P).map(|(nh, p)| (nh, w.paths.to_vec(p)));
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
