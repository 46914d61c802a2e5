//! The per-interface MRAI output queue.
//!
//! Each neighbor session has one [`OutQueue`] — an element of the
//! network's per-session queue column ([`crate::RouteSlab`]) —
//! implementing the rate limiting of §2: *"two route announcements from
//! an AS to the same neighbor must be separated in time by at least one
//! MRAI timer interval"*, implemented per interface as router vendors do
//! (not per prefix as RFC 4271 suggests).
//!
//! State machine per queue:
//!
//! * **Timer idle** → an announcement is sent immediately and arms the
//!   timer. (Invariant: the pending map is empty whenever the timer is
//!   idle.)
//! * **Timer armed** → updates are *queued*; a newer update for the same
//!   prefix replaces the queued one ("if a queued update becomes invalid
//!   by a new update, the former is removed from the output queue").
//! * **Timer expiry** → all still-valid pending updates are flushed; the
//!   timer re-arms iff something was sent.
//!
//! ## Lazy timers
//!
//! A timer is not a flag that an expiry event clears. Arming it stores
//! the [`EventKey`] its expiry *would* pop at — the caller reserves that
//! place in the event order at every arm, jitter drawn, whether or not an
//! event is ever put there — and the timer is armed exactly while that
//! key is after the key of the event being processed ([`Step::now`]).
//! Most timers run out with nothing queued behind them; those lapse by
//! comparison alone and cost the event loop nothing. Only the first
//! update queued in a window asks for the expiry event
//! (`expire_at` of [`Submit::Queued`]), at the stored key, so the flush
//! happens at the instant, and at the rank among simultaneous events, at
//! which an eagerly scheduled expiry would have fired.
//!
//! The stored key is also what makes an expiry event *valid*: it is the
//! one its timer waits for iff the timer still has an expiry scheduled
//! and the event pops at exactly the stored key
//! ([`OutQueue::expiry_due`]). Keys never repeat, so an event left over
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
//! The queue also maintains the **Adj-RIB-out** (`sent`): the last update
//! actually transmitted per prefix. Flushes and submissions are suppressed
//! when they would repeat what the neighbor already knows, which both
//! matches real BGP implementations and keeps the paper's update counts
//! honest.

use bgpscale_obs::{OpCounts, Stamp};
use bgpscale_simkernel::{EventKey, SimTime};
use bgpscale_topology::Relationship;

use crate::config::{BgpConfig, MraiScope};
use crate::message::{Prefix, Update, UpdateKind};
use crate::node::Actions;
use crate::path::{PathArena, PathId};

/// Everything the caller lends a node for one protocol step — the
/// handling of one event — and through the node every queue the step
/// touches. A node and its queues hold routes; the configuration, the
/// clock, the arena the routes' paths live in, the buffer the step's
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
    /// Where the step's transmissions and timer requests are appended;
    /// never cleared by the node.
    pub out: &'a mut Actions<S>,
    /// Where the step's work is tallied: its decision runs and route
    /// comparisons, export paths built and taken, Adj-RIB-out writes and
    /// MRAI coalescing. The caller's one table of the network's work
    /// ([`OpCounts`]), never reset by routing-state clears, so
    /// phase-boundary snapshots can be diffed.
    pub costs: &'a mut OpCounts,
}

/// Result of submitting an update to an [`OutQueue`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Submit<S = ()> {
    /// Send the update on the wire now. If `arm_timer` is true the caller
    /// must reserve the key of a (jittered) MRAI expiry for this queue and
    /// hand it over with [`OutQueue::arm_at`] before the step ends.
    SendNow {
        /// The message to transmit.
        update: Update<S>,
        /// Whether this transmission arms the MRAI timer.
        arm_timer: bool,
    },
    /// The update was queued behind the running MRAI timer.
    Queued {
        /// `Some(key)` when this is the first update waiting in the
        /// timer's window: the caller must schedule the expiry event at
        /// `key`, the place reserved when the timer was armed. `None` when
        /// the expiry is already scheduled, or when the timer was armed
        /// earlier in this very step and [`OutQueue::arm_at`] will ask.
        expire_at: Option<EventKey>,
    },
    /// The update was redundant (the neighbor already has, or will get,
    /// equivalent state) and was dropped.
    Suppressed,
}

/// An update waiting for a timer, with the stamp it will carry.
type Pending<S> = (UpdateKind, S);

/// Binary search of entries sorted by prefix.
fn search<V>(entries: &[(Prefix, V)], prefix: Prefix) -> Result<usize, usize> {
    entries.binary_search_by_key(&prefix, |e| e.0)
}

/// The value `prefix` has among entries sorted by prefix.
fn find<V>(entries: &[(Prefix, V)], prefix: Prefix) -> Option<&V> {
    let at = search(entries, prefix).ok()?;
    entries.get(at).map(|e| &e.1)
}

/// One of a session's maps from prefix to `V`, where it lives right now:
/// in the queue's inline room for one entry, or — once the session has
/// carried a second prefix — in a `Vec` of the queue's [`Multi`], sorted
/// by prefix, at most one entry per prefix.
enum PrefixMap<'a, V> {
    One(&'a mut Option<(Prefix, V)>),
    Many(&'a mut Vec<(Prefix, V)>),
}

impl<'a, V> PrefixMap<'a, V> {
    fn get_mut(self, prefix: Prefix) -> Option<&'a mut V> {
        match self {
            PrefixMap::One(one) => one.as_mut().filter(|e| e.0 == prefix).map(|e| &mut e.1),
            PrefixMap::Many(entries) => search(entries, prefix)
                .ok()
                .and_then(|i| entries.get_mut(i))
                .map(|e| &mut e.1),
        }
    }

    /// Sets the entry for `prefix`, replacing any previous value. Hands
    /// the value back if the inline room is taken by another prefix: the
    /// queue must spill first.
    fn insert(self, prefix: Prefix, value: V) -> Result<(), V> {
        match self {
            PrefixMap::One(one) => match one {
                Some((held, _)) if *held != prefix => return Err(value),
                _ => *one = Some((prefix, value)),
            },
            PrefixMap::Many(entries) => match search(entries, prefix) {
                Ok(at) => {
                    if let Some(entry) = entries.get_mut(at) {
                        entry.1 = value;
                    }
                }
                Err(at) => entries.insert(at, (prefix, value)),
            },
        }
        Ok(())
    }

    fn remove(self, prefix: Prefix) -> Option<V> {
        match self {
            PrefixMap::One(one) => one.take_if(|e| e.0 == prefix).map(|e| e.1),
            PrefixMap::Many(entries) => search(entries, prefix).ok().map(|i| entries.remove(i).1),
        }
    }
}

/// The read-only face of [`PrefixMap`]: the inline entry, or — once
/// spilled — the sorted entries.
fn lookup<'a, V>(
    one: &'a Option<(Prefix, V)>,
    many: Option<&'a Vec<(Prefix, V)>>,
    prefix: Prefix,
) -> Option<&'a V> {
    match many {
        None => one.as_ref().filter(|e| e.0 == prefix).map(|e| &e.1),
        Some(entries) => find(entries, prefix),
    }
}

/// One MRAI timer. A per-prefix timer is one of these; the session timer
/// keeps the same two fields in its [`OutQueue`] itself (see there).
#[derive(Clone, Copy, Debug)]
struct Timer {
    /// The key this timer's expiry pops at, reserved when the timer was
    /// armed; the timer is armed while it is after the current event's
    /// key. [`EventKey::NEVER`] from the send that arms the timer until
    /// [`OutQueue::arm_at`] delivers the key later in the same step.
    until: EventKey,
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

/// Everything a session holds once one prefix and one timer are not
/// enough: the state of a multi-prefix session (`ext_tablesize`, table
/// replays) or of the per-prefix MRAI scope.
#[derive(Clone, Debug, Default)]
struct Multi<S = ()> {
    /// Per-prefix scope: the timer of every prefix armed since the last
    /// reset, sorted by prefix. A lapsed entry stays and is overwritten by
    /// its prefix's next arm.
    prefix_timers: Vec<(Prefix, Timer)>,
    /// The pending updates of every prefix, sorted by prefix.
    pending: Vec<(Prefix, Pending<S>)>,
    /// The Adj-RIB-out of every prefix, sorted by prefix.
    sent: Vec<(Prefix, PathId)>,
}

/// One neighbor session's rate-limited output queue plus Adj-RIB-out.
///
/// ## Memory layout
///
/// Forty-eight bytes in an unobserved run. A session of a C-event
/// experiment only ever carries the event's one prefix under the one
/// session timer, so that much lives inline: the timer's reserved key and
/// its expiry flag, one Adj-RIB-out entry (prefix and [`PathId`]) and one
/// pending update (prefix, kind, and the stamp `S` it will carry: nothing
/// unobserved, a twelve-byte `Provenance` under a `Recorder`, which makes
/// the queue 56 bytes). The session timer's two fields sit in the queue
/// itself, not in a `Timer`, whose padding would cost eight bytes more.
/// There is one queue per session of the topology — a node's queues are
/// its [`crate::arena::Stripe`] of the per-session `out` column of the
/// network's [`crate::RouteSlab`] — and every export visits all of a node's queues, so its size
/// is the stride of the hottest scan in the simulator. A session that
/// carries a second prefix, or arms a
/// per-prefix timer, *spills*: all its per-prefix state moves behind the
/// one `multi` pointer, into `Vec`s sorted by prefix (which keep the
/// flush order of the `BTreeMap` this once was), and stays there — buffers
/// kept across resets — for the life of the queue.
#[derive(Clone, Debug)]
pub struct OutQueue<S = ()> {
    /// The key the session timer's expiry pops at, reserved when the
    /// timer was armed (see [`Timer`]).
    until: EventKey,
    /// True while an expiry event is scheduled at `until` and has not
    /// popped.
    expiry_scheduled: bool,
    /// Adj-RIB-out: the path last actually sent, per prefix. Absent means
    /// the neighbor holds no route from us (withdrawn or never
    /// announced). `None` while the queue is spilled.
    sent: Option<(Prefix, PathId)>,
    /// Updates waiting for a timer; at most one per prefix, each with the
    /// stamp it will carry when flushed. When a newer update replaces a
    /// queued one, the stamps coalesce (root sets union) so attribution
    /// survives rate-limiting. `None` while the queue is spilled.
    pending: Option<(Prefix, Pending<S>)>,
    /// Where both maps and the per-prefix timers live once spilled.
    multi: Option<Box<Multi<S>>>,
}

// One per session of the topology: the stride of the export scan.
const _: () = assert!(std::mem::size_of::<OutQueue>() <= 48);

impl<S: Stamp> Default for OutQueue<S> {
    fn default() -> Self {
        OutQueue::new()
    }
}

impl<S: Stamp> OutQueue<S> {
    /// Creates an idle queue.
    pub fn new() -> Self {
        let Timer {
            until,
            expiry_scheduled,
        } = Timer::IDLE;
        OutQueue {
            until,
            expiry_scheduled,
            sent: None,
            pending: None,
            multi: None,
        }
    }

    /// Moves the inline entries behind the `multi` pointer (if they are
    /// not there yet), making room for any number of prefixes.
    fn spill(&mut self) -> &mut Multi<S> {
        self.multi.get_or_insert_with(|| {
            Box::new(Multi {
                prefix_timers: Vec::new(),
                pending: self.pending.take().into_iter().collect(),
                sent: self.sent.take().into_iter().collect(),
            })
        })
    }

    fn sent_map(&mut self) -> PrefixMap<'_, PathId> {
        match &mut self.multi {
            Some(multi) => PrefixMap::Many(&mut multi.sent),
            None => PrefixMap::One(&mut self.sent),
        }
    }

    fn pending_map(&mut self) -> PrefixMap<'_, Pending<S>> {
        match &mut self.multi {
            Some(multi) => PrefixMap::Many(&mut multi.pending),
            None => PrefixMap::One(&mut self.pending),
        }
    }

    fn set_sent(&mut self, prefix: Prefix, path: PathId) {
        if self.sent_map().insert(prefix, path).is_err() {
            self.spill();
            let _ = self.sent_map().insert(prefix, path);
        }
    }

    fn set_pending(&mut self, prefix: Prefix, update: Pending<S>) {
        if let Err(update) = self.pending_map().insert(prefix, update) {
            self.spill();
            let _ = self.pending_map().insert(prefix, update);
        }
    }

    fn pending(&self, prefix: Prefix) -> Option<&Pending<S>> {
        lookup(&self.pending, self.multi.as_ref().map(|m| &m.pending), prefix)
    }

    /// The session timer, read out of its two fields.
    fn session_timer(&self) -> Timer {
        Timer {
            until: self.until,
            expiry_scheduled: self.expiry_scheduled,
        }
    }

    /// Every timer of this queue with the prefix it governs (`None`: the
    /// session timer).
    fn timers(&self) -> impl Iterator<Item = (Option<Prefix>, Timer)> + '_ {
        let prefix_timers = self.multi.iter().flat_map(|m| &m.prefix_timers);
        std::iter::once((None, self.session_timer()))
            .chain(prefix_timers.map(|&(p, t)| (Some(p), t)))
    }

    /// The timer `which` names, created idle if it is a prefix's first.
    // det::allow(panic-surface, reason = "at is the index binary_search found the prefix at, or the one its timer was just inserted at")
    fn timer_mut(&mut self, which: Option<Prefix>) -> TimerMut<'_> {
        let Some(prefix) = which else {
            return (&mut self.until, &mut self.expiry_scheduled);
        };
        let prefix_timers = &mut self.spill().prefix_timers;
        let at = match search(prefix_timers, prefix) {
            Ok(at) => at,
            Err(at) => {
                prefix_timers.insert(at, (prefix, Timer::IDLE));
                at
            }
        };
        let timer = &mut prefix_timers[at].1;
        (&mut timer.until, &mut timer.expiry_scheduled)
    }

    /// The timer `which` names, if it exists: a prefix that was never
    /// armed since the last reset has none.
    fn timer(&self, which: Option<Prefix>) -> Option<Timer> {
        match which {
            None => Some(self.session_timer()),
            Some(prefix) => find(&self.multi.as_ref()?.prefix_timers, prefix).copied(),
        }
    }

    /// True while the MRAI timer governing `prefix` under `scope` is
    /// armed at `now`.
    pub fn is_armed(&self, prefix: Prefix, scope: MraiScope, now: EventKey) -> bool {
        self.timer(governing(scope, prefix)).is_some_and(|timer| timer.armed(now))
    }

    /// True if the expiry event popping at `key` is the one the timer
    /// `which` names (`None`: the session timer) asked for and still
    /// waits for. Keys are unique, so an event scheduled before a
    /// [`OutQueue::force_reset`] matches no timer armed after it.
    pub fn expiry_due(&self, which: Option<Prefix>, key: EventKey) -> bool {
        self.timer(which).is_some_and(|timer| timer.expiry_scheduled && timer.until == key)
    }

    /// True while any MRAI timer of this queue is armed at `now`.
    pub fn timer_armed(&self, now: EventKey) -> bool {
        self.timers().any(|(_, t)| t.armed(now))
    }

    /// Number of timers armed at `now` (0 or 1 for the per-interface
    /// scope; one per armed prefix otherwise).
    pub fn armed_count(&self, now: EventKey) -> usize {
        self.timers().filter(|(_, t)| t.armed(now)).count()
    }

    /// Number of expiry events scheduled for this queue and not yet
    /// popped: the timers something is queued behind.
    pub fn scheduled_expiries(&self) -> usize {
        self.timers().filter(|(_, t)| t.expiry_scheduled).count()
    }

    /// The timers armed at `now` that no expiry event is scheduled for,
    /// each with the key reserved for it. A caller about to
    /// [`OutQueue::force_reset`] this queue uses them to keep the clock
    /// passing those keys.
    pub fn silent_timers(
        &self,
        now: EventKey,
    ) -> impl Iterator<Item = (Option<Prefix>, EventKey)> + '_ {
        self.timers()
            .filter(move |(_, t)| t.armed(now) && !t.expiry_scheduled)
            .map(|(which, t)| (which, t.until))
    }

    /// The latest key reserved for a timer of this queue that is not
    /// after `deadline` ([`EventKey::ZERO`] if there is none): where the
    /// clock stands once every timer due by then has run out, scheduled
    /// or not.
    pub fn latest_key_by(&self, deadline: SimTime) -> EventKey {
        let due = self.timers().map(|(_, t)| t.until).filter(|key| key.time <= deadline);
        due.max().unwrap_or(EventKey::ZERO)
    }

    /// Number of queued (pending) updates.
    pub fn pending_len(&self) -> usize {
        match &self.multi {
            Some(multi) => multi.pending.len(),
            None => usize::from(self.pending.is_some()),
        }
    }

    /// The path the neighbor currently holds from us for `prefix`
    /// (Adj-RIB-out), ignoring anything still queued.
    pub fn advertised(&self, prefix: Prefix) -> Option<PathId> {
        lookup(&self.sent, self.multi.as_ref().map(|m| &m.sent), prefix).copied()
    }

    /// What the neighbor will believe once the queue drains: the queued
    /// intent if any, else the Adj-RIB-out.
    pub fn intent(&self, prefix: Prefix) -> Option<PathId> {
        match self.pending(prefix) {
            Some((kind, _)) => kind.path(),
            None => self.advertised(prefix),
        }
    }

    /// Queues `kind` behind the armed timer governing `prefix`, folding
    /// the stamp of any update it displaces into its own so no root loses
    /// its attribution, and asks for the timer's expiry event if this is
    /// the first update to wait for it.
    fn park(
        &mut self,
        prefix: Prefix,
        kind: UpdateKind,
        mut stamp: S,
        step: &mut Step<S>,
    ) -> Submit<S> {
        match self.pending_map().get_mut(prefix) {
            Some(queued) => {
                stamp.coalesce_with(&queued.1, step.paths.root_sets_mut());
                step.costs.mrai_coalesced += 1;
                *queued = (kind, stamp);
            }
            None => self.set_pending(prefix, (kind, stamp)),
        }
        let (until, expiry_scheduled) = self.timer_mut(governing(step.cfg.mrai_scope, prefix));
        // A timer armed earlier in this step has no key yet; `arm_at`
        // delivers it and finds this update waiting.
        let ask = !*expiry_scheduled && *until != EventKey::NEVER;
        *expiry_scheduled |= ask;
        Submit::Queued {
            expire_at: ask.then_some(*until),
        }
    }

    /// Submits a new intent for `prefix`: `Some(path)` to announce, `None`
    /// to withdraw. `rel` is the relation of this session's edge; the
    /// resulting update carries `step.cause.with_rel(rel)`. `intent` is an
    /// id of `step.paths`, whose root-set table a coalesced stamp is
    /// interned in. Adj-RIB-out writes and coalesced updates are tallied
    /// into `step.costs`. Returns what the caller must do.
    pub fn submit(
        &mut self,
        prefix: Prefix,
        intent: Option<PathId>,
        rel: Relationship,
        step: &mut Step<S>,
    ) -> Submit<S> {
        // Drop no-ops against the eventual neighbor state.
        if self.intent(prefix) == intent {
            return Submit::Suppressed;
        }
        let stamp = step.cause.with_rel(rel);
        match intent {
            None => self.submit_withdraw(prefix, stamp, step),
            Some(path) => self.submit_announce(prefix, path, stamp, step),
        }
    }

    fn submit_withdraw(&mut self, prefix: Prefix, stamp: S, step: &mut Step<S>) -> Submit<S> {
        // A queued announcement that never went out is invalidated: if the
        // neighbor holds nothing, removing it finishes the job silently.
        self.pending_map().remove(prefix);
        if self.advertised(prefix).is_none() {
            return Submit::Suppressed;
        }
        // RFC 1771 (NO-WRATE): withdrawals are never rate-limited and do
        // not arm the timer. RFC 4271 (WRATE): they queue like
        // announcements.
        let scope = step.cfg.mrai_scope;
        let rate_limited = step.cfg.mrai_mode.rate_limits_withdrawals();
        if rate_limited && self.is_armed(prefix, scope, step.now) {
            return self.park(prefix, UpdateKind::Withdraw, stamp, step);
        }
        self.sent_map().remove(prefix);
        step.costs.rib_out_writes += 1;
        if rate_limited {
            self.arm_timer(governing(scope, prefix));
        }
        Submit::SendNow {
            update: Update::withdraw(prefix).stamped(stamp),
            arm_timer: rate_limited,
        }
    }

    fn submit_announce(
        &mut self,
        prefix: Prefix,
        path: PathId,
        stamp: S,
        step: &mut Step<S>,
    ) -> Submit<S> {
        let scope = step.cfg.mrai_scope;
        if self.is_armed(prefix, scope, step.now) {
            self.park(prefix, UpdateKind::Announce(path), stamp, step)
        } else {
            debug_assert!(
                self.pending(prefix).is_none(),
                "pending update with an idle timer"
            );
            self.set_sent(prefix, path);
            step.costs.rib_out_writes += 1;
            self.arm_timer(governing(scope, prefix));
            Submit::SendNow {
                update: Update::announce(prefix, path).stamped(stamp),
                arm_timer: true,
            }
        }
    }

    /// Delivers the key reserved for the expiry of the timer `which`
    /// names (`None`: the session timer), which a send or
    /// [`OutQueue::arm_timer`] armed earlier in this step. Returns true
    /// if an update was queued behind the timer in the meantime: the
    /// caller must then schedule the expiry event at `key` right away.
    pub fn arm_at(&mut self, which: Option<Prefix>, key: EventKey) -> bool {
        let waiting = match which {
            None => self.pending_len() > 0,
            Some(prefix) => self.pending(prefix).is_some(),
        };
        let (until, expiry_scheduled) = self.timer_mut(which);
        debug_assert!(*until == EventKey::NEVER, "a key for a timer nothing armed");
        (*until, *expiry_scheduled) = (key, waiting);
        waiting
    }

    /// Handles the expiry event of the timer `trigger` names (`None`: the
    /// per-interface session timer, `Some(prefix)`: a per-prefix timer),
    /// popping at `step.now`: drains the pending updates that timer
    /// governs (skipping any that have become no-ops against the
    /// Adj-RIB-out), pushes the ones that go on the wire now onto
    /// `step.out.sends` tagged with `slot` (this queue's session slot at
    /// its node), and returns whether the timer re-arms. When it does the
    /// caller must reserve the next expiry's key and hand it over with
    /// [`OutQueue::arm_at`].
    ///
    /// # Panics
    /// Panics (in debug builds) unless [`OutQueue::expiry_due`] holds of
    /// `trigger` and `step.now`.
    pub fn flush(&mut self, trigger: Option<Prefix>, slot: u32, step: &mut Step<S>) -> bool {
        let before = step.out.sends.len();
        match trigger {
            None => match &mut self.multi {
                None => {
                    if let Some((prefix, (kind, stamp))) = self.pending.take() {
                        self.emit(prefix, kind, stamp, slot, step);
                    }
                }
                Some(multi) => {
                    // Taken out so `emit` can write the Adj-RIB-out while
                    // the drain runs, in prefix order, and put back
                    // emptied: the buffer serves the next window.
                    let mut pending = std::mem::take(&mut multi.pending);
                    for (prefix, (kind, stamp)) in pending.drain(..) {
                        self.emit(prefix, kind, stamp, slot, step);
                    }
                    if let Some(multi) = &mut self.multi {
                        multi.pending = pending;
                    }
                }
            },
            Some(prefix) => {
                if let Some((kind, stamp)) = self.pending_map().remove(prefix) {
                    self.emit(prefix, kind, stamp, slot, step);
                }
            }
        }
        let rearm = step.out.sends.len() > before;
        let (until, expiry_scheduled) = self.timer_mut(trigger);
        debug_assert!(
            *expiry_scheduled && *until == step.now,
            "flush at {:?} of a timer expiring at {:?}",
            step.now,
            until
        );
        *expiry_scheduled = false;
        // Otherwise the timer has run out: its key is `now`.
        if rearm {
            *until = EventKey::NEVER;
        }
        rearm
    }

    /// Puts one pending update on `step.out.sends`, tagged with `slot`,
    /// unless it is a no-op against the Adj-RIB-out, which it updates on
    /// emission. The stored (possibly coalesced) stamp rides out on the
    /// message.
    fn emit(
        &mut self,
        prefix: Prefix,
        kind: UpdateKind,
        stamp: S,
        slot: u32,
        step: &mut Step<S>,
    ) {
        let update = match kind {
            UpdateKind::Announce(path) => {
                if self.advertised(prefix) == Some(path) {
                    return; // neighbor already has it
                }
                self.set_sent(prefix, path);
                Update::announce(prefix, path)
            }
            UpdateKind::Withdraw => {
                if self.sent_map().remove(prefix).is_none() {
                    return;
                }
                Update::withdraw(prefix)
            }
        };
        step.costs.rib_out_writes += 1;
        step.out.sends.push((slot, update.stamped(stamp)));
    }

    /// Clears all routing state (Adj-RIB-out, pending updates, run-out
    /// timers).
    ///
    /// # Panics
    /// Panics if a timer is still armed at `now` — the neighbor would see
    /// the next announcement too early.
    pub fn reset(&mut self, now: EventKey) {
        assert!(!self.timer_armed(now), "reset with an armed MRAI timer");
        self.force_reset();
    }

    /// Transmits `path` immediately, bypassing the rate limiter — used
    /// only for the initial full-table exchange of a freshly established
    /// session, which real BGP does not MRAI-limit (the timer governs
    /// *subsequent* advertisements). Returns the message to send, stamped
    /// like a [`OutQueue::submit`] over an edge of relation `rel`, or
    /// `None` if the neighbor already holds an identical route. The
    /// caller arms the timer once afterwards via [`OutQueue::arm_timer`].
    ///
    /// # Panics
    /// Panics if a timer is armed at `step.now` (a fresh session starts
    /// idle).
    pub fn send_unlimited(
        &mut self,
        prefix: Prefix,
        path: PathId,
        rel: Relationship,
        step: &mut Step<S>,
    ) -> Option<Update<S>> {
        assert!(!self.timer_armed(step.now), "initial exchange on a rate-limited session");
        if self.advertised(prefix) == Some(path) {
            return None;
        }
        self.set_sent(prefix, path);
        step.costs.rib_out_writes += 1;
        Some(Update::announce(prefix, path).stamped(step.cause.with_rel(rel)))
    }

    /// Arms a timer (a send does it itself; the caller does after an
    /// initial table exchange): the per-interface session timer when
    /// `which` is `None`, a per-prefix timer otherwise. The caller must
    /// reserve the expiry's key and hand it over with [`OutQueue::arm_at`].
    pub fn arm_timer(&mut self, which: Option<Prefix>) {
        let (until, expiry_scheduled) = self.timer_mut(which);
        debug_assert!(!*expiry_scheduled, "arming over a scheduled expiry");
        *until = EventKey::NEVER;
    }

    /// Clears all state unconditionally, disarming every timer — used on a
    /// **session reset** (the TCP session to the neighbor dropped, so the
    /// neighbor has discarded everything we sent and any queued updates
    /// are moot). An expiry event scheduled for this queue is stale from
    /// here on: [`OutQueue::expiry_due`] is false of it.
    /// A spilled queue stays spilled and keeps its buffers.
    pub fn force_reset(&mut self) {
        Timer {
            until: self.until,
            expiry_scheduled: self.expiry_scheduled,
        } = Timer::IDLE;
        self.sent = None;
        self.pending = None;
        if let Some(multi) = &mut self.multi {
            multi.prefix_timers.clear();
            multi.pending.clear();
            multi.sent.clear();
        }
    }
}

/// Which timer of a session governs `prefix` under `scope`: `None` is the
/// session's one timer, `Some(prefix)` that prefix's own.
pub(crate) fn governing(scope: MraiScope, prefix: Prefix) -> Option<Prefix> {
    match scope {
        MraiScope::PerInterface => None,
        MraiScope::PerPrefix => Some(prefix),
    }
}

/// The caller's side of a [`Step`] for this crate's unit tests: owns what
/// a simulator would own and lends it the same way.
#[cfg(test)]
pub(crate) struct Lender<S = ()> {
    pub cfg: BgpConfig,
    pub paths: PathArena,
    pub costs: OpCounts,
    pub out: Actions<S>,
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
            out: Actions::default(),
        }
    }

    /// The step of the event keyed `now`; what it produces stays in
    /// `self.out`.
    pub fn step(&mut self, now: EventKey, cause: S) -> Step<'_, S> {
        Step {
            cfg: &self.cfg,
            now,
            cause,
            paths: &mut self.paths,
            out: &mut self.out,
            costs: &mut self.costs,
        }
    }

    /// Runs `f` in a step at `now` that no cause stamps, and returns what
    /// it produced.
    pub fn act(&mut self, now: EventKey, f: impl FnOnce(&mut Step<S>)) -> Actions<S> {
        f(&mut self.step(now, S::default()));
        std::mem::take(&mut self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MraiMode;
    use bgpscale_simkernel::SimDuration;

    const P: Prefix = Prefix(1);
    const Q: Prefix = Prefix(2);

    /// Every queue under test is slot 3 of its node, over a peer edge.
    const SLOT: u32 = 3;
    const REL: Relationship = Relationship::Peer;
    const MRAI: SimDuration = SimDuration::from_secs(30);

    /// A queue with the caller's side of the contract around it, as the
    /// simulator keeps it: what a step is lent, a clock, a sequence
    /// counter to reserve keys from and the expiry events asked for.
    struct Driven<S = ()> {
        q: OutQueue<S>,
        lent: Lender<S>,
        now: EventKey,
        next_seq: u64,
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
        /// A queue whose updates carry stamps of type `S`.
        fn stamped(mrai_scope: MraiScope) -> Driven<S> {
            Driven {
                q: OutQueue::new(),
                lent: Lender::new(BgpConfig {
                    mrai_scope,
                    ..BgpConfig::default()
                }),
                now: EventKey::ZERO,
                next_seq: 1,
                expiries: Vec::new(),
            }
        }

        /// The key of an event scheduled now to pop `after` from now.
        fn reserve(&mut self, after: SimDuration) -> EventKey {
            self.next_seq += 1;
            EventKey {
                time: self.now.time + after,
                seq: self.next_seq,
            }
        }

        /// Some later event pops `after` from now.
        fn advance(&mut self, after: SimDuration) {
            self.now = self.reserve(after);
        }

        fn arm_at(&mut self, which: Option<Prefix>) {
            let key = self.reserve(MRAI);
            if self.q.arm_at(which, key) {
                self.expiries.push(key);
            }
        }

        /// The id of the path with these hops.
        fn path(&mut self, hops: &[u32]) -> PathId {
            self.lent.paths.of(hops)
        }

        fn submit_caused(
            &mut self,
            prefix: Prefix,
            intent: Option<&[u32]>,
            mode: MraiMode,
            cause: S,
        ) -> Submit<S> {
            self.lent.cfg.mrai_mode = mode;
            let intent = intent.map(|hops| self.path(hops));
            let submit = self.q.submit(prefix, intent, REL, &mut self.lent.step(self.now, cause));
            match &submit {
                Submit::SendNow { arm_timer: true, .. } => self.arm_at(governing(self.lent.cfg.mrai_scope, prefix)),
                Submit::Queued { expire_at: Some(key) } => self.expiries.push(*key),
                _ => {}
            }
            submit
        }

        fn submit(&mut self, prefix: Prefix, intent: Option<&[u32]>, mode: MraiMode) -> Submit<S> {
            self.submit_caused(prefix, intent, mode, S::default())
        }

        /// Pops the earliest expiry event asked for and flushes the timer
        /// `trigger` names at its key: the flushed updates (each tagged
        /// with the queue's slot) and the re-arm flag.
        fn expire(&mut self, trigger: Option<Prefix>) -> (Vec<Update<S>>, bool) {
            self.expiries.sort();
            self.now = self.expiries.remove(0);
            let rearm = self.q.flush(trigger, SLOT, &mut self.lent.step(self.now, S::default()));
            if rearm {
                self.arm_at(trigger);
            }
            let sends = std::mem::take(&mut self.lent.out.sends);
            assert!(sends.iter().all(|(slot, _)| *slot == SLOT));
            (sends.into_iter().map(|(_, u)| u).collect(), rearm)
        }

        fn armed(&self) -> bool {
            self.q.timer_armed(self.now)
        }
    }

    fn sent_now(submit: &Submit) -> bool {
        matches!(submit, Submit::SendNow { .. })
    }

    fn queued(submit: &Submit) -> bool {
        matches!(submit, Submit::Queued { .. })
    }

    /// The queue's two maps across the inline-to-spilled boundary: one
    /// prefix lives inline, a second moves everything behind `multi`,
    /// sorted, and there it stays.
    #[test]
    fn the_maps_stay_sorted_across_the_inline_to_spilled_boundary() {
        let mut q = OutQueue::new();
        let mut paths = PathArena::new();
        let route: Vec<PathId> = (0..4).map(|i| paths.of(&[i])).collect();
        let waiting = |i: usize| (UpdateKind::Announce(route[i]), ());
        assert_eq!((q.advertised(P), q.pending_len()), (None, 0));
        q.set_sent(Q, route[0]);
        q.set_sent(Q, route[1]); // replace in the inline room
        assert_eq!((q.advertised(Q), q.advertised(P)), (Some(route[1]), None));
        assert_eq!(q.sent_map().remove(P), None);
        // The inline room, emptied, takes another prefix.
        assert_eq!(q.sent_map().remove(Q), Some(route[1]));
        q.set_sent(P, route[2]);
        q.set_pending(Q, waiting(3));
        assert!(q.multi.is_none(), "one prefix per map is no reason to spill");
        assert_eq!((q.intent(P), q.intent(Q), q.pending_len()), (Some(route[2]), Some(route[3]), 1));

        q.set_sent(Prefix(0), route[0]); // spills, smaller key first
        assert!(q.sent.is_none() && q.pending.is_none());
        q.set_pending(Prefix(0), waiting(1));
        q.set_pending(Prefix(0), waiting(0));
        q.pending_map().get_mut(Q).expect("moved with the rest").0 = UpdateKind::Withdraw;
        let multi = q.multi.as_ref().expect("spilled");
        assert_eq!(multi.sent, vec![(Prefix(0), route[0]), (P, route[2])]);
        assert_eq!(multi.pending, vec![(Prefix(0), waiting(0)), (Q, (UpdateKind::Withdraw, ()))]);
        assert_eq!((q.advertised(P), q.intent(Q), q.pending_len()), (Some(route[2]), None, 2));
        assert_eq!(q.pending_map().remove(Prefix(0)), Some(waiting(0)));
        assert_eq!(q.pending_map().remove(Prefix(0)), None);

        q.force_reset();
        let multi = q.multi.as_ref().expect("a spilled queue stays spilled");
        assert!(multi.sent.is_empty() && multi.pending.is_empty() && multi.sent.capacity() >= 2);
        assert_eq!((q.advertised(P), q.pending_len()), (None, 0));
    }

    #[test]
    fn first_announcement_sends_and_arms() {
        let mut d = Driven::per_interface();
        let r = d.submit(P, Some(&[1, 2]), MraiMode::NoWrate);
        assert_eq!(
            r,
            Submit::SendNow {
                update: Update::announce(P, d.path(&[1, 2])),
                arm_timer: true
            }
        );
        assert!(d.armed());
        assert_eq!(d.q.advertised(P), Some(d.path(&[1, 2])));
        assert!(d.expiries.is_empty(), "nothing waits: no expiry event");
    }

    #[test]
    fn second_announcement_queues_behind_timer() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        let r = d.submit(P, Some(&[1, 3]), MraiMode::NoWrate);
        assert!(queued(&r));
        assert_eq!(d.q.pending_len(), 1);
        // Adj-RIB-out still shows the transmitted route; intent shows the
        // queued one.
        assert_eq!(d.q.advertised(P), Some(d.path(&[1])));
        assert_eq!(d.q.intent(P), Some(d.path(&[1, 3])));
    }

    #[test]
    fn newer_update_replaces_queued_one() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.submit(P, Some(&[1, 3]), MraiMode::NoWrate);
        d.submit(P, Some(&[1, 4]), MraiMode::NoWrate);
        assert_eq!(d.q.pending_len(), 1, "replaced, not accumulated");
        let (sent, rearm) = d.expire(None);
        assert_eq!(sent, vec![Update::announce(P, d.path(&[1, 4]))]);
        assert!(rearm);
    }

    #[test]
    fn duplicate_announcement_is_suppressed() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        let r = d.submit(P, Some(&[1]), MraiMode::NoWrate);
        assert_eq!(r, Submit::Suppressed);
        assert_eq!(d.q.pending_len(), 0);
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
            Submit::SendNow {
                update: Update::withdraw(P),
                arm_timer: false
            }
        );
        assert_eq!(d.q.advertised(P), None);
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
        assert_eq!(r, Submit::Suppressed);
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
            Submit::SendNow {
                update: Update::withdraw(P),
                arm_timer: true
            }
        );
    }

    #[test]
    fn withdraw_of_never_announced_prefix_is_suppressed() {
        let mut d = Driven::per_interface();
        assert_eq!(d.submit(P, None, MraiMode::NoWrate), Submit::Suppressed);
        assert_eq!(d.submit(P, None, MraiMode::Wrate), Submit::Suppressed);
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
        assert_eq!(d.q.advertised(P), Some(d.path(&[1])));
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
            let until = d.q.latest_key_by(SimTime::MAX);
            assert_eq!(until.time, SimTime::ZERO + MRAI);
            // An event of the expiry's own instant, scheduled before or
            // after the timer was armed.
            d.now = EventKey {
                time: until.time,
                seq: if earlier_seq { until.seq - 1 } else { until.seq + 1 },
            };
            let r = d.submit(P, Some(&[2]), MraiMode::NoWrate);
            if parks {
                assert_eq!(r, Submit::Queued { expire_at: Some(until) });
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
        let Submit::Queued { expire_at: Some(key) } = first else {
            panic!("the first update to wait asks for the expiry, got {first:?}");
        };
        assert_eq!(d.q.scheduled_expiries(), 1);
        // More updates in the window, and a NO-WRATE withdrawal that
        // empties the queue again, ask for nothing.
        assert_eq!(d.submit(Q, Some(&[3]), MraiMode::NoWrate), Submit::Queued { expire_at: None });
        assert_eq!(d.submit(P, Some(&[4]), MraiMode::NoWrate), Submit::Queued { expire_at: None });
        d.submit(P, None, MraiMode::NoWrate);
        d.submit(Q, None, MraiMode::NoWrate);
        assert_eq!(d.q.pending_len(), 0);
        assert_eq!(d.submit(P, Some(&[5]), MraiMode::NoWrate), Submit::Queued { expire_at: None });
        assert_eq!(d.expiries, vec![key]);
        // The flush re-arms; the next window asks again, at its own key.
        let (_, rearm) = d.expire(None);
        assert!(rearm);
        assert_eq!(d.q.scheduled_expiries(), 0);
        let again = d.submit(P, Some(&[6]), MraiMode::NoWrate);
        assert!(matches!(again, Submit::Queued { expire_at: Some(k) } if k > key));
    }

    /// Two prefixes exported in one step: the first send arms the session
    /// timer, the second queues before the caller has reserved the key.
    /// `arm_at` then reports the waiting update.
    #[test]
    fn an_update_queued_before_the_key_arrives_gets_its_expiry_from_arm_at() {
        let mut q = OutQueue::new();
        let mut lent = Lender::default();
        let (one, two) = (lent.paths.of(&[1]), lent.paths.of(&[2]));
        let mut step = lent.step(EventKey::ZERO, ());
        assert!(sent_now(&q.submit(P, Some(one), REL, &mut step)));
        let second = q.submit(Q, Some(two), REL, &mut step);
        assert_eq!(second, Submit::Queued { expire_at: None });
        let key = EventKey {
            time: SimTime::from_secs(25),
            seq: 7,
        };
        assert!(q.arm_at(None, key), "an update waits: schedule the expiry now");
        assert_eq!(q.scheduled_expiries(), 1);
        assert!(q.flush(None, SLOT, &mut lent.step(key, ())));
        assert_eq!(lent.out.sends, vec![(SLOT, Update::announce(Q, two))]);
    }

    /// An expiry event is due exactly from the ask to the flush, at the
    /// asked key and for the asked timer only — which is what lets the
    /// event loop tell a stale event from a live one without counting
    /// session resets.
    #[test]
    fn an_expiry_is_due_from_the_ask_to_the_flush_at_its_own_key_only() {
        for scope in [MraiScope::PerInterface, MraiScope::PerPrefix] {
            let mut d = Driven::new(scope);
            let which = governing(scope, P);
            let anywhere = EventKey {
                time: SimTime::ZERO + MRAI,
                seq: 2,
            };
            assert!(!d.q.expiry_due(which, anywhere), "an idle timer waits for nothing");
            d.submit(P, Some(&[1]), MraiMode::NoWrate);
            let until = d.q.latest_key_by(SimTime::MAX);
            assert!(d.armed() && !d.q.expiry_due(which, until), "armed, but no event was asked for");

            assert_eq!(d.submit(P, Some(&[2]), MraiMode::NoWrate), Submit::Queued { expire_at: Some(until) });
            assert!(d.q.expiry_due(which, until));
            for seq in [until.seq - 1, until.seq + 1] {
                assert!(!d.q.expiry_due(which, EventKey { seq, ..until }), "one seq off is another event");
            }
            let other = if which.is_none() { Some(P) } else { None };
            assert!(!d.q.expiry_due(other, until), "the other scope's timer was never armed");
            assert!(!d.q.expiry_due(Some(Q), until));

            let (sent, rearm) = d.expire(which);
            assert!(sent.len() == 1 && rearm);
            assert!(!d.q.expiry_due(which, until), "flushed: the event is spent");
            let next = d.q.latest_key_by(SimTime::MAX);
            assert!(next > until && !d.q.expiry_due(which, next), "re-armed, nothing waiting yet");

            // A session reset forgets an asked-for expiry, and a timer
            // armed after it gets a key of its own.
            d.submit(P, Some(&[3]), MraiMode::NoWrate);
            assert!(d.q.expiry_due(which, next));
            d.q.force_reset();
            assert!(!d.q.expiry_due(which, next), "stale after the reset");
            d.expiries.clear();
            d.submit(P, Some(&[4]), MraiMode::NoWrate);
            d.submit(P, Some(&[5]), MraiMode::NoWrate);
            let [fresh] = d.expiries[..] else {
                panic!("the new window asked once, got {:?}", d.expiries);
            };
            assert!(d.q.expiry_due(which, fresh) && !d.q.expiry_due(which, next));
        }
    }

    #[test]
    fn reset_clears_state_once_the_timer_has_run_out() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.advance(MRAI);
        d.q.reset(d.now);
        assert_eq!(d.q.advertised(P), None);
        assert_eq!(d.q.pending_len(), 0);
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
        let armed = |d: &Driven, prefix| d.q.is_armed(prefix, MraiScope::PerPrefix, d.now);
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
        assert_eq!(d.q.scheduled_expiries(), 2, "one expiry per prefix timer");
        let (sent, rearm) = d.expire(Some(P));
        assert_eq!(sent, vec![Update::announce(P, d.path(&[1, 3]))]);
        assert!(rearm);
        // Q's pending update is untouched.
        assert_eq!(d.q.pending_len(), 1);
        assert_eq!(d.q.intent(Q), Some(d.path(&[2, 4])));
        let (sent_q, _) = d.expire(Some(Q));
        assert_eq!(sent_q, vec![Update::announce(Q, d.path(&[2, 4]))]);
    }

    /// A prefix's timer entry outlives its window and is the one its next
    /// arm writes: a session flapping one prefix holds one entry.
    #[test]
    fn per_prefix_entries_whose_key_has_passed_are_reused_not_accumulated() {
        let mut d = Driven::new(MraiScope::PerPrefix);
        for round in 0..5 {
            d.submit(P, Some(&[1, round]), MraiMode::NoWrate);
            assert_eq!(d.q.armed_count(d.now), 1);
            d.advance(MRAI);
            assert!(!d.q.is_armed(P, MraiScope::PerPrefix, d.now));
        }
        d.submit(Q, Some(&[2]), MraiMode::NoWrate);
        let prefix_timers = |d: &Driven| d.q.multi.as_ref().map_or(0, |m| m.prefix_timers.len());
        assert_eq!(prefix_timers(&d), 2, "one entry per prefix, not per arm");
        assert!(d.expiries.is_empty());
        d.advance(MRAI);
        d.q.reset(d.now);
        assert_eq!(prefix_timers(&d), 0, "a reset drops the run-out entries");
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
        assert!(matches!(r, Submit::SendNow { arm_timer: true, .. }));
    }

    #[test]
    #[should_panic(expected = "armed MRAI timer")]
    fn reset_rejects_armed_timer() {
        let mut d = Driven::per_interface();
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        d.q.reset(d.now);
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
            Submit::SendNow { update, .. } => assert_eq!(update.stamp.roots(d.lent.paths.root_sets()), &[1]),
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
        assert_eq!(d.q.armed_count(d.now), 0);
        d.submit(P, Some(&[1]), MraiMode::NoWrate);
        assert_eq!(d.q.armed_count(d.now), 1);
        let mut pp = Driven::new(MraiScope::PerPrefix);
        pp.submit(P, Some(&[1]), MraiMode::NoWrate);
        pp.submit(Q, Some(&[2]), MraiMode::NoWrate);
        assert_eq!(pp.q.armed_count(pp.now), 2);
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
        let silent: Vec<_> = d.q.silent_timers(d.now).collect();
        let p_key = d.q.latest_key_by(SimTime::from_secs(30));
        assert_eq!(silent, vec![(Some(P), p_key)]);
        assert_eq!(p_key.time, SimTime::from_secs(30));
        assert_eq!(d.q.latest_key_by(SimTime::from_secs(31)).time, SimTime::from_secs(31));
        assert_eq!(d.q.latest_key_by(SimTime::from_secs(29)), EventKey::ZERO, "none due yet");
        d.q.force_reset();
        assert_eq!(d.q.silent_timers(d.now).count(), 0);
        assert_eq!((d.q.armed_count(d.now), d.q.scheduled_expiries()), (0, 0));
    }
}
