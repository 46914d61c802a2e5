//! The per-interface MRAI output queue.
//!
//! Each neighbor session has one output queue ([`OutQueue`], read through
//! [`QueueView`]) implementing the rate limiting of §2: *"two route
//! announcements from an AS to the same neighbor must be separated in
//! time by at least one MRAI timer interval"*, implemented per interface
//! as router vendors do (not per prefix as RFC 4271 suggests).
//!
//! State machine per queue:
//!
//! * **Timer idle** → an announcement is sent immediately and arms the
//!   timer. (Invariant: nothing is pending whenever the timer is idle.)
//! * **Timer armed** → updates are *queued*; a newer update for the same
//!   prefix replaces the queued one ("if a queued update becomes invalid
//!   by a new update, the former is removed from the output queue").
//! * **Timer expiry** → all still-valid pending updates are flushed, in
//!   prefix order; the timer re-arms iff something was sent.
//!
//! ## Lazy timers
//!
//! A timer is not a flag that an expiry event clears. Arming it stores
//! the [`EventKey`] its expiry *would* pop at — the step's [`Clock`]
//! reserves that place in the event order at every arm, jitter drawn,
//! whether or not an event is ever put there — and the timer is armed
//! exactly while that key is after the key of the event being processed
//! ([`Step::now`]). Most timers run out with nothing queued behind them;
//! those lapse by comparison alone and cost the event loop nothing. Only
//! the first update queued in a window asks the clock for the expiry
//! event ([`Clock::expire`]), at the stored key, so the flush happens at
//! the instant, and at the rank among simultaneous events, at which an
//! eagerly scheduled expiry would have fired.
//!
//! The stored key is also what makes an expiry event *valid*: it is the
//! one its timer waits for iff the timer still has an expiry scheduled
//! and the event pops at exactly the stored key
//! ([`QueueView::expiry_due`]). Keys never repeat, so an event left over
//! from before a session reset ([`OutQueue::force_reset`]) matches no
//! timer armed since, and the caller keeps no epoch to tell them apart.
//!
//! Withdrawals depend on the [`MraiMode`](crate::MraiMode):
//!
//! * **NO-WRATE** (RFC 1771): withdrawals bypass the queue entirely — sent
//!   at once, never arming the timer — and invalidate any queued
//!   announcement for the prefix.
//! * **WRATE** (RFC 4271): withdrawals queue exactly like announcements.
//!
//! The queue also maintains the **Adj-RIB-out**: the last update
//! actually transmitted per prefix. Flushes and submissions are suppressed
//! when they would repeat what the neighbor already knows, which both
//! matches real BGP implementations and keeps the paper's update counts
//! honest.
//!
//! ## Memory layout
//!
//! A queue is split like the Adj-RIB-in ([`crate::arena`]): a 24-byte
//! `SessionState` per session (session timer, pending count, liveness),
//! and per (row, session) the cells of `RibOut` — Adj-RIB-out and
//! queued update, four bytes each, plus the stamp `S` (nothing
//! unobserved) and, once a per-prefix timer is armed, that timer. A queue
//! names a cell and a per-prefix timer by its row alone, and reads the
//! row's prefix only where it builds an [`Update`]; a session-timer flush
//! walks the rows in prefix order while the pending count is non-zero.

use bgpscale_obs::{OpCounts, Stamp};
use bgpscale_simkernel::{EventKey, SimTime};
use bgpscale_topology::Relationship;

use crate::arena::{PrefixRows, Stripe};
use crate::config::{BgpConfig, MraiScope};
use crate::message::{Prefix, Update, UpdateKind};
use crate::path::{PathArena, PathId};

/// The network's event clock as a protocol step sees it: what becomes of
/// a timer a queue arms, of the first update queued behind it, and of a
/// damped route that will need waking. The node keeps no clock; the
/// caller lends its own for the step ([`Step::clock`]), one for the whole
/// network.
pub trait Clock: std::fmt::Debug {
    /// Arms an MRAI timer now: draws its jittered interval and reserves
    /// the key its expiry pops at, whether or not an event is ever put
    /// there. Returns that key.
    fn arm(&mut self) -> EventKey;

    /// Schedules the expiry event of the timer `which` names on session
    /// `slot` (`None`: the session timer, `Some(row)`: that row's) at
    /// `key`, the key its arm took: an update now waits behind it. When
    /// it pops and [`QueueView::expiry_due`] still holds of it, call
    /// [`crate::BgpNode::mrai_flush`].
    fn expire(&mut self, slot: u32, which: Option<u32>, key: EventKey);

    /// Schedules a Route Flap Damping reuse wake-up for `(slot, row)` at
    /// `at`, when [`crate::BgpNode::rfd_reuse_caused`] is to be called.
    fn wake(&mut self, slot: u32, row: u32, at: SimTime);
}

/// Everything the caller lends a node for one protocol step — the
/// handling of one event — and through the node every queue the step
/// touches. A node and its queues hold routes; the configuration, the
/// clock, the arena the routes' paths live in, the list the step's
/// transmissions go to and the tallies of its work are the caller's, one
/// of each for the whole network. `S` is the stamp the step's messages
/// carry (see [`crate::Update`]).
#[derive(Debug)]
pub struct Step<'a, S = ()> {
    /// The protocol configuration. One configuration governs a node for
    /// as long as it holds routes: a route chosen under one damping
    /// regime, or a timer armed under one scope, means nothing under
    /// another.
    pub cfg: &'a BgpConfig,
    /// The key of the event this step handles
    /// (`EventQueue::last_key`): a timer whose key is after it is armed.
    pub now: EventKey,
    /// The stamp of whatever triggered the step's exports (`()` when
    /// nobody reads stamps — a stamp never changes what is sent, queued,
    /// or suppressed).
    pub cause: S,
    /// The arena every [`PathId`] the node holds or is handed lives in.
    pub paths: &'a mut PathArena,
    /// Where the step's timer arms, expiry events and damping wake-ups
    /// go, as they happen.
    pub clock: &'a mut dyn Clock,
    /// The step's transmissions, `(neighbor slot, message)` in the order
    /// they were sent, for the caller to put on the wire; appended to,
    /// never cleared by the node.
    pub out: &'a mut Vec<(u32, Update<S>)>,
    /// Where the step's work is tallied: its decision runs and route
    /// comparisons, export paths built and taken, Adj-RIB-out writes,
    /// MRAI arms and coalescing. The caller's one table of the network's
    /// work ([`OpCounts`]), never reset by routing-state clears, so
    /// phase-boundary snapshots can be diffed.
    pub costs: &'a mut OpCounts,
}

/// A queued update in the four bytes of an `Option<PathId>`: `None` when
/// nothing waits, the empty path for a withdrawal, any other path for its
/// announcement. An announcement to a neighbor carries the sender
/// prepended, so it is never the empty path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Queued(Option<PathId>);

impl Queued {
    fn of(kind: UpdateKind) -> Queued {
        debug_assert!(kind != UpdateKind::Announce(PathId::EMPTY), "an announcement of the empty path");
        Queued(Some(kind.path().unwrap_or(PathId::EMPTY)))
    }

    fn kind(self) -> Option<UpdateKind> {
        self.0.map(|path| if path == PathId::EMPTY { UpdateKind::Withdraw } else { UpdateKind::Announce(path) })
    }
}

/// One MRAI timer. A per-prefix timer is one of these; the session timer
/// keeps the same two fields in its [`SessionState`] itself (see there).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Timer {
    /// The key this timer's expiry pops at, reserved when the timer was
    /// armed; the timer is armed while it is after the current event's
    /// key.
    pub(crate) until: EventKey,
    /// True while an expiry event is scheduled at `until` and has not
    /// popped: from the first update queued in the window to the flush.
    expiry_scheduled: bool,
}

impl Timer {
    const IDLE: Timer = Timer {
        until: EventKey::ZERO,
        expiry_scheduled: false,
    };

    fn armed(&self, now: EventKey) -> bool {
        self.until > now
    }
}

/// The two fields of one timer, writable wherever the timer lives.
type TimerMut<'a> = (&'a mut EventKey, &'a mut bool);

/// What one session keeps of its output side however many prefixes it
/// carries. The timer's two fields sit here, not in a [`Timer`], whose
/// padding would cost eight bytes more.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SessionState {
    /// The key the session timer's expiry pops at (see [`Timer`]).
    pub(crate) until: EventKey,
    /// The session's non-empty [`Queued`] cells, over every row.
    pending: u32,
    /// True while an expiry event is scheduled at `until` and has not
    /// popped.
    expiry_scheduled: bool,
    /// True while the session is established: a down one receives no
    /// exports ([`crate::BgpNode::session_down_caused`]).
    pub(crate) up: bool,
}

// One per session of the topology.
const _: () = assert!(std::mem::size_of::<SessionState>() <= 24);

impl SessionState {
    /// An established session with an idle queue.
    pub(crate) const UP: SessionState = SessionState {
        until: EventKey::ZERO,
        pending: 0,
        expiry_scheduled: false,
        up: true,
    };

    fn timer(&self) -> Timer {
        Timer {
            until: self.until,
            expiry_scheduled: self.expiry_scheduled,
        }
    }

    /// This state with the queue emptied and the timer forgotten,
    /// liveness kept.
    pub(crate) fn idle(self) -> SessionState {
        SessionState { up: self.up, ..SessionState::UP }
    }
}

/// The output side of every (row, session) cell of a network: the columns
/// of a [`crate::RouteSlab`] laid out like its Adj-RIB-in, at `row *
/// sessions + global session id`.
#[derive(Clone, Debug, Default)]
pub(crate) struct RibOut<S> {
    /// Sessions per row: the stride of every column.
    sessions: usize,
    /// The Adj-RIB-out: the path last actually sent. `None` means the
    /// neighbor holds no route from us (withdrawn or never announced).
    sent: Vec<Option<PathId>>,
    /// The update waiting for a timer, at most one per cell.
    queued: Vec<Queued>,
    /// The stamp a queued update will carry; a displaced update's stamp
    /// is coalesced into it. Zero-sized, and never allocated, for `()`.
    stamps: Vec<S>,
    /// Per-prefix scope: each cell's timer. Empty until the first arm
    /// since the rows were cleared, then as long as the other columns.
    pub(crate) timers: Vec<Timer>,
}

// Per (row, session) unobserved: the Adj-RIB-out and the queued update.
const _: () = assert!(
    std::mem::size_of::<Option<PathId>>() + std::mem::size_of::<Queued>() + std::mem::size_of::<()>() <= 8
);

impl<S: Stamp> RibOut<S> {
    /// No rows, for `sessions` sessions.
    pub(crate) fn new(sessions: usize) -> RibOut<S> {
        RibOut { sessions, ..RibOut::default() }
    }

    /// Appends a row of empty cells.
    pub(crate) fn push_row(&mut self) {
        self.sent.extend(std::iter::repeat_n(None, self.sessions));
        self.queued.extend(std::iter::repeat_n(Queued::default(), self.sessions));
        self.stamps.extend(std::iter::repeat_n(S::default(), self.sessions));
        if !self.timers.is_empty() {
            self.timers.extend(std::iter::repeat_n(Timer::IDLE, self.sessions));
        }
    }

    /// Drops every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.sent.clear();
        self.queued.clear();
        self.stamps.clear();
        self.timers.clear();
    }

    /// The cell of session `slot` of the node owning `stripe` in `row`:
    /// the one place an output cell is cut out of a row.
    fn out_cell(&self, row: u32, stripe: Stripe, slot: u32) -> usize {
        let row = row as usize;
        stripe.slot_cell(row * self.sessions, slot)
    }

    /// The per-prefix timer at cell `at`, allocating the column on the
    /// first arm.
    fn timer_mut(&mut self, at: usize) -> &mut Timer {
        if self.timers.is_empty() {
            self.timers.resize(self.sent.len(), Timer::IDLE);
        }
        Stripe::cut_mut(&mut self.timers, at)
    }
}

/// The read-only face of one session's output queue: its
/// `SessionState` and its cells of every row (see the module docs).
/// Made by [`crate::RouteSlab::queue`].
#[derive(Clone, Copy, Debug)]
pub struct QueueView<'a, S = ()> {
    pub(crate) state: &'a SessionState,
    pub(crate) out: &'a RibOut<S>,
    pub(crate) rows: &'a PrefixRows,
    pub(crate) stripe: Stripe,
    pub(crate) slot: u32,
}

impl<'a, S: Stamp> QueueView<'a, S> {
    /// True while the session is established.
    pub fn is_up(self) -> bool {
        self.state.up
    }

    fn out_cell(self, row: u32) -> usize {
        self.out.out_cell(row, self.stripe, self.slot)
    }

    fn sent(self, at: usize) -> Option<PathId> {
        *Stripe::cut(&self.out.sent, at)
    }

    fn queued(self, at: usize) -> Option<UpdateKind> {
        Stripe::cut(&self.out.queued, at).kind()
    }

    /// What the neighbor will believe of cell `at` once the queue drains:
    /// the queued intent if any, else the Adj-RIB-out.
    fn intent_at(self, at: usize) -> Option<PathId> {
        match self.queued(at) {
            Some(kind) => kind.path(),
            None => self.sent(at),
        }
    }

    /// The timer `which` names: the session timer, or the per-prefix
    /// timer of row `which` (idle if none was armed since the last reset).
    fn timer(self, which: Option<u32>) -> Timer {
        match which {
            None => self.state.timer(),
            Some(_) if self.out.timers.is_empty() => Timer::IDLE,
            Some(row) => *Stripe::cut(&self.out.timers, self.out_cell(row)),
        }
    }

    /// Every timer of this queue with the row it governs (`None`: the
    /// session timer), per-prefix ones in prefix order.
    fn timers(self) -> impl Iterator<Item = (Option<u32>, Timer)> + 'a {
        let rows = (!self.out.timers.is_empty()).then(|| self.rows.by_prefix()).into_iter().flatten();
        let per_prefix = rows.map(move |row| (Some(row), self.timer(Some(row))));
        std::iter::once((None, self.state.timer())).chain(per_prefix)
    }

    /// True while the MRAI timer governing `prefix` under `scope` is
    /// armed at `now`; a prefix no row holds has no timer of its own.
    pub fn is_armed(self, prefix: Prefix, scope: MraiScope, now: EventKey) -> bool {
        match governing(scope, prefix) {
            None => self.state.timer().armed(now),
            Some(prefix) => self.rows.row(prefix).is_some_and(|row| self.timer(Some(row)).armed(now)),
        }
    }

    /// True if the expiry event popping at `key` is the one the timer
    /// `which` names (`None`: the session timer, `Some(row)`: that row's)
    /// asked for and still waits for. Keys are unique, so an event
    /// scheduled before a [`OutQueue::force_reset`] matches no timer
    /// armed after it.
    pub fn expiry_due(self, which: Option<u32>, key: EventKey) -> bool {
        let timer = self.timer(which);
        timer.expiry_scheduled && timer.until == key
    }

    /// True while any MRAI timer of this queue is armed at `now`.
    pub fn timer_armed(self, now: EventKey) -> bool {
        self.timers().any(|(_, t)| t.armed(now))
    }

    /// Number of timers armed at `now` (0 or 1 for the per-interface
    /// scope; one per armed prefix otherwise).
    pub fn armed_count(self, now: EventKey) -> usize {
        self.timers().filter(|(_, t)| t.armed(now)).count()
    }

    /// Number of expiry events scheduled for this queue and not yet
    /// popped: the timers something is queued behind.
    pub fn scheduled_expiries(self) -> usize {
        self.timers().filter(|(_, t)| t.expiry_scheduled).count()
    }

    /// The timers armed at `now` that no expiry event is scheduled for,
    /// each with the key reserved for it. A caller about to
    /// [`OutQueue::force_reset`] this queue uses them to keep the clock
    /// passing those keys.
    pub fn silent_timers(self, now: EventKey) -> impl Iterator<Item = (Option<u32>, EventKey)> + 'a {
        self.timers()
            .filter(move |(_, t)| t.armed(now) && !t.expiry_scheduled)
            .map(|(which, t)| (which, t.until))
    }

    /// The latest key reserved for a timer of this queue that is not
    /// after `deadline` ([`EventKey::ZERO`] if there is none): where the
    /// clock stands once every timer due by then has run out, scheduled
    /// or not.
    pub fn latest_key_by(self, deadline: SimTime) -> EventKey {
        let due = self.timers().map(|(_, t)| t.until).filter(|key| key.time <= deadline);
        due.max().unwrap_or(EventKey::ZERO)
    }

    /// Number of queued (pending) updates.
    pub fn pending_len(self) -> usize {
        self.state.pending as usize
    }

    /// The path the neighbor currently holds from us for `prefix`
    /// (Adj-RIB-out), ignoring anything still queued.
    pub fn advertised(self, prefix: Prefix) -> Option<PathId> {
        self.sent(self.out_cell(self.rows.row(prefix)?))
    }

    /// What the neighbor will believe once the queue drains: the queued
    /// intent if any, else the Adj-RIB-out.
    pub fn intent(self, prefix: Prefix) -> Option<PathId> {
        self.intent_at(self.out_cell(self.rows.row(prefix)?))
    }

    /// [`QueueView::intent`] of the prefix in `row`.
    pub(crate) fn row_intent(self, row: u32) -> Option<PathId> {
        self.intent_at(self.out_cell(row))
    }

    /// The update queued for `prefix`, if one waits.
    pub fn queued_update(self, prefix: Prefix) -> Option<UpdateKind> {
        self.queued(self.out_cell(self.rows.row(prefix)?))
    }
}

/// One session's output queue, writable: its `SessionState` and its
/// cells of every row (see the module docs). Made by
/// [`crate::RouteSlab::queue_mut`]; building one allocates nothing. A
/// cell and a per-prefix timer are named by the row
/// [`crate::RouteSlab::touch`] returned, alone.
#[derive(Debug)]
pub struct OutQueue<'a, S = ()> {
    pub(crate) state: &'a mut SessionState,
    pub(crate) out: &'a mut RibOut<S>,
    /// Every row's prefix: what an update is built with, and the order a
    /// flush walks.
    pub(crate) rows: &'a PrefixRows,
    pub(crate) stripe: Stripe,
    /// The session's slot at its node, which flushed updates are tagged
    /// with.
    pub(crate) slot: u32,
}

impl<S: Stamp> OutQueue<'_, S> {
    /// The read-only face of this queue.
    pub fn view(&self) -> QueueView<'_, S> {
        let (state, out, rows) = (&*self.state, &*self.out, self.rows);
        QueueView { state, out, rows, stripe: self.stripe, slot: self.slot }
    }

    fn out_cell(&self, row: u32) -> usize {
        self.out.out_cell(row, self.stripe, self.slot)
    }

    /// The timer `which` names (see [`QueueView::timer`]), writable.
    fn timer_mut(&mut self, which: Option<u32>) -> TimerMut<'_> {
        match which {
            None => (&mut self.state.until, &mut self.state.expiry_scheduled),
            Some(row) => {
                let at = self.out_cell(row);
                let timer = self.out.timer_mut(at);
                (&mut timer.until, &mut timer.expiry_scheduled)
            }
        }
    }

    /// Empties cell `at`'s queued update, handing it back with its stamp.
    fn take_queued(&mut self, at: usize) -> Option<(UpdateKind, S)> {
        let kind = std::mem::take(Stripe::cut_mut(&mut self.out.queued, at)).kind()?;
        self.state.pending -= 1;
        Some((kind, *Stripe::cut(&self.out.stamps, at)))
    }

    /// Queues `kind` in cell `at` of `row` behind the armed timer
    /// governing it, folding the stamp of any update it displaces into its
    /// own so no root loses its attribution, and asks the clock for the
    /// timer's expiry event if this is the first update to wait for it.
    fn park(&mut self, row: u32, at: usize, kind: UpdateKind, mut stamp: S, step: &mut Step<S>) {
        let queued = Stripe::cut_mut(&mut self.out.queued, at);
        let held = Stripe::cut_mut(&mut self.out.stamps, at);
        if *queued == Queued::default() {
            self.state.pending += 1;
        } else {
            stamp.coalesce_with(held, step.paths.root_sets_mut());
            step.costs.mrai_coalesced += 1;
        }
        (*queued, *held) = (Queued::of(kind), stamp);
        let (slot, which) = (self.slot, governing(step.cfg.mrai_scope, row));
        let (until, expiry_scheduled) = self.timer_mut(which);
        if !*expiry_scheduled {
            *expiry_scheduled = true;
            step.clock.expire(slot, which, *until);
        }
    }

    /// Submits a new intent for the prefix of `row`: `Some(path)` to
    /// announce, `None` to withdraw. `rel` is the relation of this
    /// session's edge; the resulting update carries
    /// `step.cause.with_rel(rel)`. `intent` is an id of `step.paths`,
    /// whose root-set table a coalesced stamp is interned in. An update
    /// sent now goes onto `step.out` tagged with this queue's slot and, if
    /// it is rate-limited, arms the timer; one that waits behind an armed
    /// timer asks `step.clock` for the expiry if it is the window's first;
    /// one the neighbor needs not hear is dropped. Adj-RIB-out writes,
    /// arms and coalesced updates are tallied into `step.costs`.
    pub fn submit(&mut self, row: u32, intent: Option<PathId>, rel: Relationship, step: &mut Step<S>) {
        let at = self.out_cell(row);
        // Drop no-ops against the eventual neighbor state.
        if self.view().intent_at(at) == intent {
            return;
        }
        let stamp = step.cause.with_rel(rel);
        let which = governing(step.cfg.mrai_scope, row);
        let armed = self.view().timer(which).armed(step.now);
        let Some(path) = intent else {
            // A queued announcement that never went out is invalidated: if
            // the neighbor holds nothing, removing it finishes the job
            // silently.
            self.take_queued(at);
            if self.view().sent(at).is_none() {
                return;
            }
            // RFC 1771 (NO-WRATE): withdrawals are never rate-limited and
            // do not arm the timer. RFC 4271 (WRATE): they queue like
            // announcements.
            let rate_limited = step.cfg.mrai_mode.rate_limits_withdrawals();
            if rate_limited && armed {
                return self.park(row, at, UpdateKind::Withdraw, stamp, step);
            }
            self.write_sent(at, None, step);
            step.out.push((self.slot, Update::withdraw(self.rows.prefix(row)).stamped(stamp)));
            if rate_limited {
                self.arm_timer(which, step);
            }
            return;
        };
        if armed {
            return self.park(row, at, UpdateKind::Announce(path), stamp, step);
        }
        debug_assert!(self.view().queued(at).is_none(), "pending update with an idle timer");
        self.write_sent(at, Some(path), step);
        step.out.push((self.slot, Update::announce(self.rows.prefix(row), path).stamped(stamp)));
        self.arm_timer(which, step);
    }

    /// Handles the expiry event of the timer `trigger` names (`None`: the
    /// per-interface session timer, `Some(row)`: the per-prefix timer of
    /// that row), popping at `step.now`:
    /// drains the pending updates that timer governs, in prefix order
    /// (skipping any that have become no-ops against the Adj-RIB-out),
    /// pushes the ones that go on the wire now onto `step.out` tagged with
    /// this queue's slot, and re-arms the timer iff something was sent.
    ///
    /// # Panics
    /// Panics (in debug builds) unless [`QueueView::expiry_due`] holds of
    /// the trigger and `step.now`.
    pub fn flush(&mut self, trigger: Option<u32>, step: &mut Step<S>) {
        let before = step.out.len();
        match trigger {
            Some(row) => self.emit(row, step),
            None => {
                let rows = self.rows;
                for row in rows.by_prefix() {
                    if self.state.pending == 0 {
                        break;
                    }
                    self.emit(row, step);
                }
            }
        }
        let (until, expiry_scheduled) = self.timer_mut(trigger);
        debug_assert!(
            *expiry_scheduled && *until == step.now,
            "flush at {:?} of a timer expiring at {:?}",
            step.now,
            until
        );
        *expiry_scheduled = false;
        // A flush that sent nothing leaves the timer run out: its key is
        // `now`.
        if step.out.len() > before {
            self.arm_timer(trigger, step);
        }
    }

    /// Puts the update queued in `row` on `step.out`, unless nothing is
    /// queued there or it is a no-op against the Adj-RIB-out, which it
    /// updates on emission. The stored (possibly coalesced) stamp rides out
    /// on the message.
    fn emit(&mut self, row: u32, step: &mut Step<S>) {
        let at = self.out_cell(row);
        if let Some((kind, stamp)) = self.take_queued(at) {
            if self.write_sent(at, kind.path(), step) {
                let prefix = self.rows.prefix(row);
                step.out.push((self.slot, Update { prefix, kind, stamp }));
            }
        }
    }

    /// Writes `path` into cell `at`'s Adj-RIB-out, tallied; false, and no
    /// write, if the neighbor holds it already.
    fn write_sent(&mut self, at: usize, path: Option<PathId>, step: &mut Step<S>) -> bool {
        let sent = Stripe::cut_mut(&mut self.out.sent, at);
        if *sent == path {
            return false;
        }
        *sent = path;
        step.costs.rib_out_writes += 1;
        true
    }

    /// Transmits `path` for the prefix of `row` immediately onto
    /// `step.out`, bypassing the rate limiter — used only for the initial
    /// full-table exchange of a freshly established session, which real
    /// BGP does not MRAI-limit (the timer governs *subsequent*
    /// advertisements). The caller checks that no timer is armed. The
    /// message is stamped like a [`OutQueue::submit`] over an edge of
    /// relation `rel`. Returns false, sending nothing, if the neighbor
    /// already holds an identical route. The caller arms the timer
    /// afterwards via [`OutQueue::arm_timer`].
    pub fn send_unlimited(&mut self, row: u32, path: PathId, rel: Relationship, step: &mut Step<S>) -> bool {
        let written = self.write_sent(self.out_cell(row), Some(path), step);
        if written {
            let update = Update::announce(self.rows.prefix(row), path).stamped(step.cause.with_rel(rel));
            step.out.push((self.slot, update));
        }
        written
    }

    /// Arms a timer with the key `step.clock` reserves for its expiry (a
    /// send does it itself; the caller does after an initial table
    /// exchange): the per-interface session timer when `which` is `None`,
    /// the per-prefix timer of row `which` otherwise. Tallied as an MRAI
    /// arm.
    pub fn arm_timer(&mut self, which: Option<u32>, step: &mut Step<S>) {
        let key = step.clock.arm();
        step.costs.mrai_armed += 1;
        let (until, expiry_scheduled) = self.timer_mut(which);
        debug_assert!(!*expiry_scheduled, "arming over a scheduled expiry");
        *until = key;
    }

    /// Clears the session's Adj-RIB-out, queued updates and timers in
    /// every row unconditionally — used on a **session reset** (the TCP
    /// session to the neighbor dropped, so the neighbor has discarded
    /// everything we sent and any queued updates are moot). An expiry
    /// event scheduled for this queue is stale from here on:
    /// [`QueueView::expiry_due`] is false of it. Liveness is kept.
    pub fn force_reset(&mut self) {
        *self.state = self.state.idle();
        let rows = self.rows;
        for row in rows.by_prefix() {
            let at = self.out_cell(row);
            *Stripe::cut_mut(&mut self.out.sent, at) = None;
            *Stripe::cut_mut(&mut self.out.queued, at) = Queued::default();
            if !self.out.timers.is_empty() {
                *Stripe::cut_mut(&mut self.out.timers, at) = Timer::IDLE;
            }
        }
    }
}

/// Which timer of a session governs a prefix (named by its row, or by
/// itself where it comes in) under `scope`: `None` is the session's one
/// timer, `Some(_)` the prefix's own.
pub(crate) fn governing<T>(scope: MraiScope, prefix: T) -> Option<T> {
    match scope {
        MraiScope::PerInterface => None,
        MraiScope::PerPrefix => Some(prefix),
    }
}

/// The caller's clock for this crate's unit tests: it hands out keys one
/// MRAI after the step's, each ranked after every key before it, and
/// records what it was asked for.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct TestClock {
    /// The key of the step being run; [`Lender::step`] sets it.
    pub now: EventKey,
    /// The sequence number of the latest key handed out.
    seq: u64,
    /// The keys of the timers armed, in arm order.
    pub arms: Vec<EventKey>,
    /// The expiry events asked for: `(slot, timer, key)`.
    pub expiries: Vec<(u32, Option<u32>, EventKey)>,
    /// The damping wake-ups asked for: `(slot, row, time)`.
    pub wakeups: Vec<(u32, u32, SimTime)>,
}

#[cfg(test)]
impl Default for TestClock {
    fn default() -> TestClock {
        TestClock {
            now: EventKey::ZERO,
            seq: 0,
            arms: Vec::new(),
            expiries: Vec::new(),
            wakeups: Vec::new(),
        }
    }
}

#[cfg(test)]
impl TestClock {
    /// A key at `time`, ranked after every key handed out so far.
    pub fn reserve(&mut self, time: SimTime) -> EventKey {
        self.seq += 1;
        EventKey { time, seq: self.seq }
    }
}

#[cfg(test)]
impl Clock for TestClock {
    fn arm(&mut self) -> EventKey {
        let key = self.reserve(self.now.time + crate::config::MRAI);
        self.arms.push(key);
        key
    }

    fn expire(&mut self, slot: u32, which: Option<u32>, key: EventKey) {
        assert!(key > self.now, "an expiry at {key:?}, not after the step at {:?}", self.now);
        self.expiries.push((slot, which, key));
    }

    fn wake(&mut self, slot: u32, row: u32, at: SimTime) {
        self.wakeups.push((slot, row, at));
    }
}

/// What the steps since the last look produced, as their lender saw it:
/// the sends, and the arms, expiries and wake-ups the clock was asked for.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct StepLog<S = ()> {
    pub sends: Vec<(u32, Update<S>)>,
    pub arms: Vec<EventKey>,
    pub expiries: Vec<(u32, Option<u32>, EventKey)>,
    pub wakeups: Vec<(u32, u32, SimTime)>,
}

#[cfg(test)]
impl<S> StepLog<S> {
    /// True if the steps did nothing the caller must act on.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.arms.is_empty() && self.expiries.is_empty() && self.wakeups.is_empty()
    }
}

/// The caller's side of a [`Step`] for this crate's unit tests: owns what
/// a simulator would own and lends it the same way.
#[cfg(test)]
pub(crate) struct Lender<S = ()> {
    pub cfg: BgpConfig,
    pub paths: PathArena,
    pub costs: OpCounts,
    pub clock: TestClock,
    pub out: Vec<(u32, Update<S>)>,
}

#[cfg(test)]
impl Default for Lender {
    fn default() -> Lender {
        Lender::new(BgpConfig::default())
    }
}

#[cfg(test)]
impl<S: Stamp> Lender<S> {
    pub fn new(cfg: BgpConfig) -> Lender<S> {
        Lender {
            cfg,
            paths: PathArena::new(),
            costs: OpCounts::default(),
            clock: TestClock::default(),
            out: Vec::new(),
        }
    }

    /// The step of the event keyed `now`; what it produces stays in
    /// `self.out` and `self.clock`.
    pub fn step(&mut self, now: EventKey, cause: S) -> Step<'_, S> {
        self.clock.now = now;
        Step {
            cfg: &self.cfg,
            now,
            cause,
            paths: &mut self.paths,
            clock: &mut self.clock,
            out: &mut self.out,
            costs: &mut self.costs,
        }
    }

    /// Takes what the steps since the last call produced.
    pub fn take(&mut self) -> StepLog<S> {
        StepLog {
            sends: std::mem::take(&mut self.out),
            arms: std::mem::take(&mut self.clock.arms),
            expiries: std::mem::take(&mut self.clock.expiries),
            wakeups: std::mem::take(&mut self.clock.wakeups),
        }
    }

    /// Runs `f` in a step at `now` that no cause stamps, and returns what
    /// it produced.
    pub fn act(&mut self, now: EventKey, f: impl FnOnce(&mut Step<S>)) -> StepLog<S> {
        f(&mut self.step(now, S::default()));
        self.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MraiMode;
    use crate::node::Session;
    use crate::{RouteSlab, SessionSlab};
    use bgpscale_simkernel::SimDuration;
    use bgpscale_topology::AsId;
    use std::sync::Arc;

    const P: Prefix = Prefix(1);
    const Q: Prefix = Prefix(2);

    /// Every queue under test is slot 3 of its node, over a peer edge.
    const SLOT: u32 = 3;
    const REL: Relationship = Relationship::Peer;
    const MRAI: SimDuration = SimDuration::from_secs(30);

    /// What one submission did, as the caller sees it.
    #[derive(Debug, PartialEq)]
    enum Did<S = ()> {
        /// Sent `update` now, arming the timer iff `armed`.
        Sent { update: Update<S>, armed: bool },
        /// Queued behind the armed timer; `expire_at` is the expiry it
        /// asked the clock for, if it was the first to wait in the window.
        Queued { expire_at: Option<EventKey> },
        /// Dropped: the neighbor has, or will get, equivalent state.
        Suppressed,
    }

    /// A queue with the caller's side of the contract around it, as the
    /// simulator keeps it: the node's slab and route columns, what a step
    /// is lent (its clock the key counter), the key of the current event
    /// and the expiry events asked for.
    struct Driven<S = ()> {
        slab: Arc<SessionSlab>,
        routes: RouteSlab<S>,
        lent: Lender<S>,
        now: EventKey,
        expiries: Vec<EventKey>,
    }

    impl Driven {
        fn new(mrai_scope: MraiScope) -> Driven {
            Driven::stamped(mrai_scope)
        }

        fn per_interface() -> Driven {
            Driven::new(MraiScope::PerInterface)
        }
    }

    impl<S: Stamp> Driven<S> {
        /// A queue whose updates carry stamps of type `S`: slot 3 of AS0,
        /// whose sessions are peers AS1 to AS4.
        fn stamped(mrai_scope: MraiScope) -> Driven<S> {
            let sessions = (1..=4).map(|peer| Session { peer: AsId(peer), rel: REL }).collect();
            let slab = SessionSlab::for_single(AsId(0), sessions);
            Driven {
                routes: RouteSlab::new(&slab),
                slab,
                lent: Lender::new(BgpConfig {
                    mrai_scope,
                    ..BgpConfig::default()
                }),
                now: EventKey::ZERO,
                expiries: Vec::new(),
            }
        }

        /// The queue under test, read-only.
        fn q(&self) -> QueueView<'_, S> {
            self.routes.queue(self.slab.stripe(0), SLOT)
        }

        /// The queue under test, writable.
        fn q_mut(&mut self) -> OutQueue<'_, S> {
            self.routes.queue_mut(self.slab.stripe(0), SLOT)
        }

        /// The row of `prefix`, appended on its first use.
        fn row(&mut self, prefix: Prefix) -> u32 {
            self.routes.touch(prefix, 0, self.slab.stripe(0))
        }

        /// Some later event pops `after` from now.
        fn advance(&mut self, after: SimDuration) {
            self.now = self.lent.clock.reserve(self.now.time + after);
        }

        /// The id of the path with these hops.
        fn path(&mut self, hops: &[u32]) -> PathId {
            self.lent.paths.of(hops)
        }

        fn submit_caused(&mut self, prefix: Prefix, intent: Option<&[u32]>, mode: MraiMode, cause: S) -> Did<S> {
            self.lent.cfg.mrai_mode = mode;
            let intent = intent.map(|hops| self.path(hops));
            let row = self.row(prefix);
            let before = self.q().queued_update(prefix);
            let mut q = self.routes.queue_mut(self.slab.stripe(0), SLOT);
            q.submit(row, intent, REL, &mut self.lent.step(self.now, cause));
            let log = self.lent.take();
            for &(slot, which, key) in &log.expiries {
                assert_eq!((slot, which), (SLOT, governing(self.lent.cfg.mrai_scope, row)), "another timer's expiry");
                self.expiries.push(key);
            }
            let after = self.q().queued_update(prefix);
            match <[_; 1]>::try_from(log.sends) {
                Ok([(slot, update)]) => {
                    assert_eq!(slot, SLOT);
                    Did::Sent { update, armed: !log.arms.is_empty() }
                }
                Err(sends) => {
                    assert!(sends.is_empty() && log.arms.is_empty(), "one submission, one send at most");
                    if after.is_some() && after != before {
                        Did::Queued { expire_at: log.expiries.first().map(|&(_, _, key)| key) }
                    } else {
                        assert!(log.expiries.is_empty());
                        Did::Suppressed
                    }
                }
            }
        }

        fn submit(&mut self, prefix: Prefix, intent: Option<&[u32]>, mode: MraiMode) -> Did<S> {
            self.submit_caused(prefix, intent, mode, S::default())
        }

        /// Pops the earliest expiry event asked for and flushes the timer
        /// `trigger` names at its key: the flushed updates (each tagged
        /// with the queue's slot) and whether the flush re-armed the timer.
        fn expire(&mut self, trigger: Option<Prefix>) -> (Vec<Update<S>>, bool) {
            self.expiries.sort();
            self.now = self.expiries.remove(0);
            let trigger_row = trigger.map(|prefix| self.row(prefix));
            let mut q = self.routes.queue_mut(self.slab.stripe(0), SLOT);
            q.flush(trigger_row, &mut self.lent.step(self.now, S::default()));
            let log = self.lent.take();
            assert!(log.sends.iter().all(|(slot, _)| *slot == SLOT));
            assert!(log.expiries.is_empty(), "a flush asks for no expiry");
            assert!(log.arms.len() <= 1, "a flush re-arms its one timer");
            (log.sends.into_iter().map(|(_, u)| u).collect(), !log.arms.is_empty())
        }

        fn armed(&self) -> bool {
            self.q().timer_armed(self.now)
        }
    }

    fn sent_now(did: &Did) -> bool {
        matches!(did, Did::Sent { .. })
    }

    fn queued(did: &Did) -> bool {
        matches!(did, Did::Queued { .. })
    }

    /// A queued cell holds nothing, a withdrawal or an announcement in the
    /// four bytes of an `Option<PathId>`.
    #[test]
    fn a_queued_cell_holds_either_kind_in_four_bytes() {
        let path = PathArena::new().of(&[1]);
        assert_eq!(std::mem::size_of::<Queued>(), 4);
        assert_eq!(Queued::default().kind(), None);
        assert_eq!(Queued::of(UpdateKind::Withdraw).kind(), Some(UpdateKind::Withdraw));
        assert_eq!(Queued::of(UpdateKind::Announce(path)).kind(), Some(UpdateKind::Announce(path)));
    }

    /// A session's cells are its own in every row: one prefix's
    /// Adj-RIB-out and queued update never show in another's, nor in
    /// another session's, and the pending count is the number of its
    /// non-empty queued cells.
    #[test]
    fn each_prefix_and_session_has_its_own_cells() {
        let mut d = Driven::per_interface();
        d.submit(Q, Some(&[1]), MraiMode::NoWrate); // sends, arms
        d.submit(P, Some(&[2]), MraiMode::NoWrate); // queues
        d.submit(Prefix(0), Some(&[3]), MraiMode::NoWrate); // queues
        let (one, two, three) = (d.path(&[1]), d.path(&[2]), d.path(&[3]));
        assert_eq!(d.routes.rows(), 3);
        assert_eq!((d.q().advertised(Q), d.q().advertised(P)), (Some(one), None));
        assert_eq!((d.q().intent(P), d.q().intent(Prefix(0))), (Some(two), Some(three)));
        assert_eq!(d.q().queued_update(P), Some(UpdateKind::Announce(two)));
        assert_eq!(d.q().pending_len(), 2);
        let other = d.routes.queue(d.slab.stripe(0), SLOT - 1);
        assert!([P, Q, Prefix(0)].iter().all(|&p| other.intent(p).is_none()), "slot 2 shares no cell");
        assert_eq!((other.pending_len(), d.q().advertised(Prefix(9))), (0, None));
        assert!(d.routes.out.timers.is_empty(), "the per-interface scope arms no per-prefix timer");
    }

    #[test]
    fn first_announcement_sends_and_arms() {
        let mut d = Driven::per_interface();
        let r = d.submit(P, Some(&[1, 2]), MraiMode::NoWrate);
        assert_eq!(
            r,
            Did::Sent {
                update: Update::announce(P, d.path(&[1, 2])),
                armed: true
            }
        );
        assert!(d.armed());
        assert_eq!(d.q().advertised(P), Some(d.path(&[1, 2])));
        assert!(d.expiries.is_empty(), "nothing waits: no expiry event");
    }

    #[test]
    fn second_announcement_queues_behind_timer() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        let r = d.submit(P, Some(&[1, 3]), MraiMode::NoWrate);
        assert!(queued(&r));
        assert_eq!(d.q().pending_len(), 1);
        // Adj-RIB-out still shows the transmitted route; intent shows the
        // queued one.
        assert_eq!(d.q().advertised(P), Some(d.path(&[1])));
        assert_eq!(d.q().intent(P), Some(d.path(&[1, 3])));
    }

    #[test]
    fn newer_update_replaces_queued_one() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.submit(P, Some(&[1, 3]), MraiMode::NoWrate);
        d.submit(P, Some(&[1, 4]), MraiMode::NoWrate);
        assert_eq!(d.q().pending_len(), 1, "replaced, not accumulated");
        let (sent, rearm) = d.expire(None);
        assert_eq!(sent, vec![Update::announce(P, d.path(&[1, 4]))]);
        assert!(rearm);
    }

    #[test]
    fn duplicate_announcement_is_suppressed() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        let r = d.submit(P, Some(&[1]), MraiMode::NoWrate);
        assert_eq!(r, Did::Suppressed);
        assert_eq!(d.q().pending_len(), 0);
    }

    #[test]
    fn flush_skips_updates_that_became_noops() {
        // Send A; queue B; queue A again (flap back). At expiry the
        // neighbor already holds A → nothing goes out, timer idles.
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.submit(P, Some(&[2]), MraiMode::NoWrate);
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        let (sent, rearm) = d.expire(None);
        assert!(sent.is_empty());
        assert!(!rearm);
        assert!(!d.armed());
    }

    #[test]
    fn no_wrate_withdrawal_bypasses_timer() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        assert!(d.armed());
        let r = d.submit(P, None, MraiMode::NoWrate);
        assert_eq!(
            r,
            Did::Sent {
                update: Update::withdraw(P),
                armed: false
            }
        );
        assert_eq!(d.q().advertised(P), None);
        // Timer stays armed from the earlier announcement.
        assert!(d.armed());
    }

    #[test]
    fn no_wrate_withdrawal_cancels_queued_announcement_silently() {
        // Announce A (sent), queue announcement for Q, then withdraw Q
        // before it ever goes out: the neighbor never learned Q, so no
        // withdrawal is needed at all. The expiry asked for when Q queued
        // still pops, and finds nothing.
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.submit(Q, Some(&[2]), MraiMode::NoWrate);
        let r = d.submit(Q, None, MraiMode::NoWrate);
        assert_eq!(r, Did::Suppressed);
        let (sent, rearm) = d.expire(None);
        assert!(sent.is_empty(), "queued announcement must be invalidated");
        assert!(!rearm && !d.armed());
    }

    #[test]
    fn wrate_withdrawal_queues_behind_timer() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::Wrate);
        let r = d.submit(P, None, MraiMode::Wrate);
        assert!(queued(&r));
        let (sent, rearm) = d.expire(None);
        assert_eq!(sent, vec![Update::withdraw(P)]);
        assert!(rearm, "a transmitted withdrawal re-arms under WRATE");
    }

    #[test]
    fn wrate_withdrawal_sends_immediately_when_idle_and_arms() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::Wrate);
        d.advance(MRAI); // the timer runs out
        let r = d.submit(P, None, MraiMode::Wrate);
        assert_eq!(
            r,
            Did::Sent {
                update: Update::withdraw(P),
                armed: true
            }
        );
    }

    #[test]
    fn withdraw_of_never_announced_prefix_is_suppressed() {
        let mut d = Driven::per_interface();
        assert_eq!(d.submit(P, None, MraiMode::NoWrate), Did::Suppressed);
        assert_eq!(d.submit(P, None, MraiMode::Wrate), Did::Suppressed);
    }

    #[test]
    fn announce_after_queued_withdraw_restores_without_traffic() {
        // A sent; withdraw queued (WRATE); re-announce identical A. The
        // queued withdraw is replaced by Announce(A), which the flush then
        // suppresses against the Adj-RIB-out.
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::Wrate);
        d.submit(P, None, MraiMode::Wrate);
        let r = d.submit(P, Some(&[1]), MraiMode::Wrate);
        assert!(queued(&r));
        let (sent, rearm) = d.expire(None);
        assert!(sent.is_empty());
        assert!(!rearm);
        assert_eq!(d.q().advertised(P), Some(d.path(&[1])));
    }

    #[test]
    fn multiple_prefixes_flush_together_in_prefix_order() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate); // sends, arms
        d.submit(Q, Some(&[2]), MraiMode::NoWrate); // queues
        d.submit(Prefix(0), Some(&[3]), MraiMode::NoWrate); // queues
        let (sent, rearm) = d.expire(None);
        assert_eq!(
            sent,
            vec![
                Update::announce(Prefix(0), d.path(&[3])),
                Update::announce(Q, d.path(&[2])),
            ]
        );
        assert!(rearm);
    }

    /// A timer nothing queues behind runs out by itself: no flush, no
    /// expiry event, and the next announcement goes straight out.
    #[test]
    fn a_timer_lapses_with_no_flush_call_and_the_next_announce_sends() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        assert!(d.armed());
        d.advance(MRAI);
        assert!(!d.armed());
        assert!(d.expiries.is_empty(), "no expiry was ever asked for");
        let r = d.submit(P, Some(&[9]), MraiMode::NoWrate);
        assert!(sent_now(&r));
        assert!(d.armed(), "and arms the next window");
    }

    /// Armed means "the stored key is after the current event's key" —
    /// time first, then rank among the events of that instant.
    #[test]
    fn a_submit_just_before_the_stored_key_parks_and_just_after_it_sends() {
        for (earlier_seq, parks) in [(true, true), (false, false)] {
            let mut d = Driven::per_interface();
            d.submit(P, Some(&[1]), MraiMode::NoWrate);
            let until = d.q().latest_key_by(SimTime::MAX);
            assert_eq!(until.time, SimTime::ZERO + MRAI);
            // An event of the expiry's own instant, scheduled before or
            // after the timer was armed.
            d.now = EventKey {
                time: until.time,
                seq: if earlier_seq { until.seq - 1 } else { until.seq + 1 },
            };
            let r = d.submit(P, Some(&[2]), MraiMode::NoWrate);
            if parks {
                assert_eq!(r, Did::Queued { expire_at: Some(until) });
                let (sent, _) = d.expire(None);
                assert_eq!(sent, vec![Update::announce(P, d.path(&[2]))]);
                assert_eq!(d.now, until, "flushed at the stored key");
            } else {
                assert!(sent_now(&r));
            }
        }
    }

    #[test]
    fn parking_asks_for_exactly_one_expiry_per_window() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        let first = d.submit(P, Some(&[2]), MraiMode::NoWrate);
        let Did::Queued { expire_at: Some(key) } = first else {
            panic!("the first update to wait asks for the expiry, got {first:?}");
        };
        assert_eq!(d.q().scheduled_expiries(), 1);
        // More updates in the window, and a NO-WRATE withdrawal that
        // empties the queue again, ask for nothing.
        assert_eq!(d.submit(Q, Some(&[3]), MraiMode::NoWrate), Did::Queued { expire_at: None });
        assert_eq!(d.submit(P, Some(&[4]), MraiMode::NoWrate), Did::Queued { expire_at: None });
        d.submit(P, None, MraiMode::NoWrate);
        d.submit(Q, None, MraiMode::NoWrate);
        assert_eq!(d.q().pending_len(), 0);
        assert_eq!(d.submit(P, Some(&[5]), MraiMode::NoWrate), Did::Queued { expire_at: None });
        assert_eq!(d.expiries, vec![key]);
        // The flush re-arms; the next window asks again, at its own key.
        let (_, rearm) = d.expire(None);
        assert!(rearm);
        assert_eq!(d.q().scheduled_expiries(), 0);
        let again = d.submit(P, Some(&[6]), MraiMode::NoWrate);
        assert!(matches!(again, Did::Queued { expire_at: Some(k) } if k > key));
    }

    /// Two prefixes exported in one step: the first send arms the session
    /// timer, and the second, submitted later in the same step, parks
    /// behind it. The clock is asked for exactly one expiry, at the key
    /// the arm took, and the flush at that key sends the parked update.
    #[test]
    fn a_submit_later_in_the_step_that_armed_the_timer_parks_behind_its_key() {
        let mut d = Driven::per_interface();
        let (one, two) = (d.path(&[1]), d.path(&[2]));
        let (p_row, q_row) = (d.row(P), d.row(Q));
        let mut q = d.routes.queue_mut(d.slab.stripe(0), SLOT);
        let mut step = d.lent.step(EventKey::ZERO, ());
        q.submit(p_row, Some(one), REL, &mut step);
        q.submit(q_row, Some(two), REL, &mut step);
        let log = d.lent.take();
        let [key] = log.arms[..] else {
            panic!("the send arms the session timer once, got {:?}", log.arms);
        };
        assert_eq!(log.sends, vec![(SLOT, Update::announce(P, one))]);
        assert_eq!(log.expiries, vec![(SLOT, None, key)], "one expiry, at the arm's key");
        assert_eq!(d.q().scheduled_expiries(), 1);
        assert!(d.q().expiry_due(None, key));
        let mut q = d.routes.queue_mut(d.slab.stripe(0), SLOT);
        q.flush(None, &mut d.lent.step(key, ()));
        let flushed = d.lent.take();
        assert_eq!(flushed.sends, vec![(SLOT, Update::announce(Q, two))]);
        assert_eq!(flushed.arms.len(), 1, "the flush re-arms");
    }

    /// An expiry event is due exactly from the ask to the flush, at the
    /// asked key and for the asked timer only — which is what lets the
    /// event loop tell a stale event from a live one without counting
    /// session resets.
    #[test]
    fn an_expiry_is_due_from_the_ask_to_the_flush_at_its_own_key_only() {
        for scope in [MraiScope::PerInterface, MraiScope::PerPrefix] {
            let mut d = Driven::new(scope);
            let (p_row, q_row) = (d.row(P), d.row(Q));
            let which = governing(scope, p_row);
            let anywhere = EventKey {
                time: SimTime::ZERO + MRAI,
                seq: 2,
            };
            assert!(!d.q().expiry_due(which, anywhere), "an idle timer waits for nothing");
            d.submit(P, Some(&[1]), MraiMode::NoWrate);
            let until = d.q().latest_key_by(SimTime::MAX);
            assert!(d.armed() && !d.q().expiry_due(which, until), "armed, but no event was asked for");

            assert_eq!(d.submit(P, Some(&[2]), MraiMode::NoWrate), Did::Queued { expire_at: Some(until) });
            assert!(d.q().expiry_due(which, until));
            for seq in [until.seq - 1, until.seq + 1] {
                assert!(!d.q().expiry_due(which, EventKey { seq, ..until }), "one seq off is another event");
            }
            let other = if which.is_none() { Some(p_row) } else { None };
            assert!(!d.q().expiry_due(other, until), "the other scope's timer was never armed");
            assert!(!d.q().expiry_due(Some(q_row), until));

            let (sent, rearm) = d.expire(governing(scope, P));
            assert!(sent.len() == 1 && rearm);
            assert!(!d.q().expiry_due(which, until), "flushed: the event is spent");
            let next = d.q().latest_key_by(SimTime::MAX);
            assert!(next > until && !d.q().expiry_due(which, next), "re-armed, nothing waiting yet");

            // A session reset forgets an asked-for expiry, and a timer
            // armed after it gets a key of its own.
            d.submit(P, Some(&[3]), MraiMode::NoWrate);
            assert!(d.q().expiry_due(which, next));
            d.q_mut().force_reset();
            assert!(!d.q().expiry_due(which, next), "stale after the reset");
            d.expiries.clear();
            d.submit(P, Some(&[4]), MraiMode::NoWrate);
            d.submit(P, Some(&[5]), MraiMode::NoWrate);
            let [fresh] = d.expiries[..] else {
                panic!("the new window asked once, got {:?}", d.expiries);
            };
            assert!(d.q().expiry_due(which, fresh) && !d.q().expiry_due(which, next));
        }
    }

    #[test]
    fn reset_clears_state_once_the_timer_has_run_out() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.advance(MRAI);
        d.routes.reset_routing(d.now);
        assert_eq!(d.q().advertised(P), None);
        assert_eq!(d.q().pending_len(), 0);
    }

    #[test]
    fn per_prefix_scope_does_not_couple_prefixes() {
        // Under PerPrefix, announcing P must not rate-limit Q.
        let mut d = Driven::new(MraiScope::PerPrefix);
        assert!(sent_now(&d.submit(P, Some(&[1]), MraiMode::NoWrate)));
        assert!(
            sent_now(&d.submit(Q, Some(&[2]), MraiMode::NoWrate)),
            "a different prefix must not queue behind P's timer"
        );
        // But a second update for P itself queues.
        assert!(queued(&d.submit(P, Some(&[1, 3]), MraiMode::NoWrate)));
        let armed = |d: &Driven, prefix| d.q().is_armed(prefix, MraiScope::PerPrefix, d.now);
        assert!(armed(&d, P));
        assert!(armed(&d, Q));
        assert!(!armed(&d, Prefix(99)));
    }

    #[test]
    fn per_prefix_flush_only_touches_its_prefix() {
        let mut d = Driven::new(MraiScope::PerPrefix);
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.submit(Q, Some(&[2]), MraiMode::NoWrate);
        d.submit(P, Some(&[1, 3]), MraiMode::NoWrate); // queued
        d.submit(Q, Some(&[2, 4]), MraiMode::NoWrate); // queued
        assert_eq!(d.q().scheduled_expiries(), 2, "one expiry per prefix timer");
        let (sent, rearm) = d.expire(Some(P));
        assert_eq!(sent, vec![Update::announce(P, d.path(&[1, 3]))]);
        assert!(rearm);
        // Q's pending update is untouched.
        assert_eq!(d.q().pending_len(), 1);
        assert_eq!(d.q().intent(Q), Some(d.path(&[2, 4])));
        let (sent_q, _) = d.expire(Some(Q));
        assert_eq!(sent_q, vec![Update::announce(Q, d.path(&[2, 4]))]);
    }

    /// A prefix's timer is its cell of the timer column, which outlives
    /// its window and is the one its next arm writes: a session flapping
    /// one prefix holds one cell. The column is made on the first
    /// per-prefix arm, grows with the rows, and a reset drops it.
    #[test]
    fn per_prefix_timers_are_cells_made_on_the_first_arm_and_reused() {
        let timer_cells = |d: &Driven| d.routes.out.timers.len();
        let mut d = Driven::new(MraiScope::PerPrefix);
        d.row(P);
        assert_eq!(timer_cells(&d), 0, "nothing armed: no column");
        for round in 0..5 {
            d.submit(P, Some(&[1, round]), MraiMode::NoWrate);
            assert_eq!(d.q().armed_count(d.now), 1);
            d.advance(MRAI);
            assert!(!d.q().is_armed(P, MraiScope::PerPrefix, d.now));
        }
        assert_eq!(timer_cells(&d), 4, "one row of cells, rewritten by every arm");
        d.submit(Q, Some(&[2]), MraiMode::NoWrate);
        assert_eq!(timer_cells(&d), 8, "a new row brings its cells");
        assert!(d.expiries.is_empty());
        d.advance(MRAI);
        d.routes.reset_routing(d.now);
        assert_eq!(timer_cells(&d), 0, "a reset drops the column");
    }

    #[test]
    fn per_prefix_wrate_withdrawal_queues_only_its_prefix() {
        let mut d = Driven::new(MraiScope::PerPrefix);
        d.submit(P, Some(&[1]), MraiMode::Wrate);
        assert!(queued(&d.submit(P, None, MraiMode::Wrate)));
        // A prefix whose timer has run out withdraws at once.
        d.submit(Q, Some(&[2]), MraiMode::Wrate);
        d.advance(MRAI + MRAI);
        let r = d.submit(Q, None, MraiMode::Wrate);
        assert!(matches!(r, Did::Sent { armed: true, .. }));
    }

    #[test]
    #[should_panic(expected = "armed MRAI timer")]
    fn reset_rejects_armed_timer() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.routes.reset_routing(d.now);
    }

    #[test]
    fn coalesced_flush_carries_the_union_of_contributing_roots() {
        use bgpscale_obs::Provenance;
        // Root 1 sends the first announcement (arming the timer), then
        // roots 2 and 3 each replace the queued update. The flushed
        // message must answer for roots 2 and 3 — the displaced intents —
        // with the depth of the newest one.
        let mut d = Driven::<Provenance>::stamped(MraiScope::PerInterface);
        let first = d.submit_caused(P, Some(&[1]), MraiMode::NoWrate, Provenance::root(1));
        match first {
            Did::Sent { update, .. } => assert_eq!(update.stamp.roots(d.lent.paths.root_sets()), &[1]),
            other => panic!("expected SendNow, got {other:?}"),
        }
        d.submit_caused(P, Some(&[2]), MraiMode::NoWrate, Provenance::root(2));
        d.submit_caused(P, Some(&[3]), MraiMode::NoWrate, Provenance::root(3).child());
        let (sent, _) = d.expire(None);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].stamp.roots(d.lent.paths.root_sets()), &[2, 3], "displaced root kept");
        assert_eq!(sent[0].stamp.depth(), 1, "newest intent's depth");
        assert_eq!(sent[0].stamp.rel(), Some(REL), "stamped with the session's edge");
    }

    #[test]
    fn cost_counters_tally_rib_writes_and_coalescing() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate); // sends: 1 write
        d.submit(P, Some(&[2]), MraiMode::NoWrate); // queues
        d.submit(P, Some(&[3]), MraiMode::NoWrate); // displaces: coalesce
        assert_eq!(d.lent.costs.rib_out_writes, 1);
        assert_eq!(d.lent.costs.mrai_coalesced, 1);
        let (sent, _) = d.expire(None); // emits the announce: 1 more write
        assert_eq!(sent.len(), 1);
        assert_eq!(d.lent.costs.rib_out_writes, 2);
        // A withdrawal that reaches the wire is a write too.
        d.submit(P, None, MraiMode::NoWrate);
        assert_eq!(d.lent.costs.rib_out_writes, 3);
    }

    #[test]
    fn armed_count_matches_scope() {
        let mut d = Driven::per_interface();
        assert_eq!(d.q().armed_count(d.now), 0);
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        assert_eq!(d.q().armed_count(d.now), 1);
        let mut pp = Driven::new(MraiScope::PerPrefix);
        pp.submit(P, Some(&[1]), MraiMode::NoWrate);
        pp.submit(Q, Some(&[2]), MraiMode::NoWrate);
        assert_eq!(pp.q().armed_count(pp.now), 2);
    }

    /// What a caller about to reset the session needs: the armed timers
    /// no event stands for, and the latest key due by a deadline.
    #[test]
    fn silent_timers_and_latest_key_see_every_timer() {
        let mut d = Driven::new(MraiScope::PerPrefix);
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.advance(SimDuration::from_secs(1));
        d.submit(Q, Some(&[2]), MraiMode::NoWrate);
        d.submit(Q, Some(&[3]), MraiMode::NoWrate); // queues: Q's expiry is scheduled
        let silent: Vec<_> = d.q().silent_timers(d.now).collect();
        let p_key = d.q().latest_key_by(SimTime::from_secs(30));
        assert_eq!(silent, vec![(Some(d.row(P)), p_key)]);
        assert_eq!(p_key.time, SimTime::from_secs(30));
        assert_eq!(d.q().latest_key_by(SimTime::from_secs(31)).time, SimTime::from_secs(31));
        assert_eq!(d.q().latest_key_by(SimTime::from_secs(29)), EventKey::ZERO, "none due yet");
        d.q_mut().force_reset();
        assert_eq!(d.q().silent_timers(d.now).count(), 0);
        assert_eq!((d.q().armed_count(d.now), d.q().scheduled_expiries()), (0, 0));
    }
}
