//! The per-interface MRAI output queue.
//!
//! Each neighbor session has one [`OutQueue`] implementing the rate
//! limiting of §2: *"two route announcements from an AS to the same
//! neighbor must be separated in time by at least one MRAI timer
//! interval"*, implemented per interface as router vendors do (not per
//! prefix as RFC 4271 suggests).
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
//! Withdrawals depend on the [`MraiMode`]:
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

use bgpscale_obs::Provenance;
use bgpscale_topology::Relationship;

use crate::config::{MraiMode, MraiScope};
use crate::message::{AsPath, Prefix, Update, UpdateKind};

/// Result of submitting an update to an [`OutQueue`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Submit {
    /// Send the update on the wire now. If `arm_timer` is true the caller
    /// must schedule a (jittered) MRAI expiry for this queue.
    SendNow {
        /// The message to transmit.
        update: Update,
        /// Whether this transmission arms the MRAI timer.
        arm_timer: bool,
    },
    /// The update was queued behind the running MRAI timer.
    Queued,
    /// The update was redundant (the neighbor already has, or will get,
    /// equivalent state) and was dropped.
    Suppressed,
}

/// A map from prefix to `V`, iterated in prefix order, with inline room
/// for one entry. A session of a C-event experiment only ever carries the
/// event's one prefix, so its Adj-RIB-out and pending update live inside
/// the [`OutQueue`] itself: no heap block per session, and nothing for a
/// recycled simulator to accumulate. A second prefix spills to a sorted
/// `Vec` with binary-search access, which keeps the flush order of the
/// `BTreeMap` this once was.
#[derive(Clone, Debug, Default)]
enum PrefixMap<V> {
    #[default]
    Empty,
    One(Prefix, V),
    /// Sorted by prefix, at most one entry per prefix. Stays spilled when
    /// removals shrink it, so a multi-prefix session keeps its buffer.
    Many(Vec<(Prefix, V)>),
}

impl<V> PrefixMap<V> {
    fn len(&self) -> usize {
        match self {
            PrefixMap::Empty => 0,
            PrefixMap::One(..) => 1,
            PrefixMap::Many(entries) => entries.len(),
        }
    }

    /// Binary search of a spilled map's entries.
    fn search(entries: &[(Prefix, V)], prefix: Prefix) -> Result<usize, usize> {
        entries.binary_search_by_key(&prefix, |e| e.0)
    }

    fn get(&self, prefix: Prefix) -> Option<&V> {
        match self {
            PrefixMap::Empty => None,
            PrefixMap::One(p, v) => (*p == prefix).then_some(v),
            PrefixMap::Many(entries) => Self::search(entries, prefix)
                .ok()
                .and_then(|i| entries.get(i))
                .map(|e| &e.1),
        }
    }

    fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        match self {
            PrefixMap::Empty => None,
            PrefixMap::One(p, v) => (*p == prefix).then_some(v),
            PrefixMap::Many(entries) => Self::search(entries, prefix)
                .ok()
                .and_then(|i| entries.get_mut(i))
                .map(|e| &mut e.1),
        }
    }

    /// Sets the entry for `prefix`, replacing any previous value.
    fn insert(&mut self, prefix: Prefix, value: V) {
        if let Some(held) = self.get_mut(prefix) {
            *held = value;
            return;
        }
        *self = match std::mem::take(self) {
            PrefixMap::Empty => PrefixMap::One(prefix, value),
            PrefixMap::One(p, v) => PrefixMap::Many(if p < prefix {
                vec![(p, v), (prefix, value)]
            } else {
                vec![(prefix, value), (p, v)]
            }),
            PrefixMap::Many(mut entries) => {
                let at = entries.partition_point(|e| e.0 < prefix);
                entries.insert(at, (prefix, value));
                PrefixMap::Many(entries)
            }
        };
    }

    fn remove(&mut self, prefix: Prefix) -> Option<V> {
        match self {
            PrefixMap::Many(entries) => Self::search(entries, prefix)
                .ok()
                .map(|i| entries.remove(i).1),
            PrefixMap::One(p, _) if *p == prefix => match std::mem::take(self) {
                PrefixMap::One(_, v) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }

    /// Empties the map into `f`, in prefix order. A spilled map keeps
    /// its buffer.
    fn drain_into(&mut self, mut f: impl FnMut(Prefix, V)) {
        match self {
            PrefixMap::Many(entries) => entries.drain(..).for_each(|(p, v)| f(p, v)),
            _ => {
                if let PrefixMap::One(p, v) = std::mem::take(self) {
                    f(p, v);
                }
            }
        }
    }

    /// Drops every entry and any spilled buffer.
    fn clear(&mut self) {
        *self = PrefixMap::Empty;
    }
}

/// One neighbor session's rate-limited output queue plus Adj-RIB-out.
#[derive(Clone, Debug)]
pub struct OutQueue {
    scope: MraiScope,
    /// Per-interface scope: the single session timer.
    timer_armed: bool,
    /// Per-prefix scope: the prefixes whose timers are armed (sorted).
    armed_prefixes: Vec<Prefix>,
    /// Updates waiting for a timer; at most one per prefix, each with the
    /// provenance it will carry when flushed. When a newer update
    /// replaces a queued one, the stamps coalesce (root sets union) so
    /// attribution survives rate-limiting.
    pending: PrefixMap<(UpdateKind, Provenance)>,
    /// Adj-RIB-out: the path last actually sent, per prefix. Absent means
    /// the neighbor holds no route from us (withdrawn or never
    /// announced). Entries share the export path's `Arc` with the node's
    /// Loc-RIB — an Adj-RIB-out write is a refcount bump.
    sent: PrefixMap<AsPath>,
    /// Cost-model tally: Adj-RIB-out mutations (inserts plus successful
    /// removes). Monotone over the queue's lifetime — survives resets so
    /// phase-boundary snapshots can be diffed (see `obs::costmodel`).
    rib_out_writes: u64,
    /// Cost-model tally: pending updates displaced by a newer update for
    /// the same prefix while a timer was running (MRAI coalescing).
    coalesced: u64,
}

impl Default for OutQueue {
    fn default() -> Self {
        OutQueue::new()
    }
}

impl OutQueue {
    /// Creates an idle queue with the paper's per-interface timer scope.
    pub fn new() -> Self {
        OutQueue::with_scope(MraiScope::PerInterface)
    }

    /// Creates an idle queue with an explicit timer scope.
    pub fn with_scope(scope: MraiScope) -> Self {
        OutQueue {
            scope,
            timer_armed: false,
            armed_prefixes: Vec::new(),
            pending: PrefixMap::Empty,
            sent: PrefixMap::Empty,
            rib_out_writes: 0,
            coalesced: 0,
        }
    }

    /// Cost-model tally: Adj-RIB-out mutations so far (monotone).
    pub fn rib_out_writes(&self) -> u64 {
        self.rib_out_writes
    }

    /// Cost-model tally: MRAI-coalesced pending updates so far (monotone).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// The timer granularity of this queue.
    pub fn scope(&self) -> MraiScope {
        self.scope
    }

    /// True while an MRAI expiry is outstanding that governs `prefix`.
    pub fn is_armed(&self, prefix: Prefix) -> bool {
        match self.scope {
            MraiScope::PerInterface => self.timer_armed,
            MraiScope::PerPrefix => self.armed_prefixes.binary_search(&prefix).is_ok(),
        }
    }

    fn set_armed(&mut self, prefix: Prefix) {
        match self.scope {
            MraiScope::PerInterface => self.timer_armed = true,
            MraiScope::PerPrefix => {
                if let Err(i) = self.armed_prefixes.binary_search(&prefix) {
                    self.armed_prefixes.insert(i, prefix);
                }
            }
        }
    }

    /// True while any MRAI expiry for this queue is outstanding.
    pub fn timer_armed(&self) -> bool {
        match self.scope {
            MraiScope::PerInterface => self.timer_armed,
            MraiScope::PerPrefix => !self.armed_prefixes.is_empty(),
        }
    }

    /// Number of armed timers this queue holds (0 or 1 for the
    /// per-interface scope; one per armed prefix otherwise). Each armed
    /// timer corresponds to exactly one outstanding expiry event.
    pub fn armed_count(&self) -> usize {
        match self.scope {
            MraiScope::PerInterface => usize::from(self.timer_armed),
            MraiScope::PerPrefix => self.armed_prefixes.len(),
        }
    }

    /// Number of queued (pending) updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The path the neighbor currently holds from us for `prefix`
    /// (Adj-RIB-out), ignoring anything still queued.
    pub fn advertised(&self, prefix: Prefix) -> Option<&AsPath> {
        self.sent.get(prefix)
    }

    /// What the neighbor will believe once the queue drains: the queued
    /// intent if any, else the Adj-RIB-out.
    pub fn intent(&self, prefix: Prefix) -> Option<&AsPath> {
        match self.pending.get(prefix) {
            Some((kind, _)) => kind.path(),
            None => self.sent.get(prefix),
        }
    }

    /// Queues `kind` behind the timer, folding the stamp of any update it
    /// displaces into its own so no root loses its attribution.
    fn queue_pending(&mut self, prefix: Prefix, kind: UpdateKind, mut stamp: Provenance) {
        match self.pending.get_mut(prefix) {
            Some(queued) => {
                stamp.coalesce_with(&queued.1);
                self.coalesced += 1;
                *queued = (kind, stamp);
            }
            None => self.pending.insert(prefix, (kind, stamp)),
        }
    }

    /// Submits a new intent for `prefix`: `Some(path)` to announce, `None`
    /// to withdraw. `cause` is the provenance of whatever triggered the
    /// export and `rel` the relation of this session's edge; the resulting
    /// update carries `cause.with_rel(rel)` (pass [`Provenance::none`]
    /// when attribution is not wanted — it never changes what is sent,
    /// queued, or suppressed). The path and the stamp are cloned only when
    /// the update is stored or sent. Returns what the caller must do.
    pub fn submit(
        &mut self,
        prefix: Prefix,
        intent: Option<&AsPath>,
        mode: MraiMode,
        cause: &Provenance,
        rel: Relationship,
    ) -> Submit {
        // Drop no-ops against the eventual neighbor state.
        if self.intent(prefix) == intent {
            return Submit::Suppressed;
        }
        match intent {
            None => self.submit_withdraw(prefix, mode, cause, rel),
            Some(path) => self.submit_announce(prefix, path, cause, rel),
        }
    }

    fn submit_withdraw(
        &mut self,
        prefix: Prefix,
        mode: MraiMode,
        cause: &Provenance,
        rel: Relationship,
    ) -> Submit {
        // A queued announcement that never went out is invalidated: if the
        // neighbor holds nothing, removing it finishes the job silently.
        self.pending.remove(prefix);
        if self.sent.get(prefix).is_none() {
            return Submit::Suppressed;
        }
        // RFC 1771 (NO-WRATE): withdrawals are never rate-limited and do
        // not arm the timer. RFC 4271 (WRATE): they queue like
        // announcements.
        let rate_limited = mode == MraiMode::Wrate;
        if rate_limited && self.is_armed(prefix) {
            self.queue_pending(prefix, UpdateKind::Withdraw, cause.with_rel(rel));
            return Submit::Queued;
        }
        self.sent.remove(prefix);
        self.rib_out_writes += 1;
        if rate_limited {
            self.set_armed(prefix);
        }
        Submit::SendNow {
            update: Update::withdraw(prefix).stamped(cause.with_rel(rel)),
            arm_timer: rate_limited,
        }
    }

    fn submit_announce(
        &mut self,
        prefix: Prefix,
        path: &AsPath,
        cause: &Provenance,
        rel: Relationship,
    ) -> Submit {
        if self.is_armed(prefix) {
            let kind = UpdateKind::Announce(path.clone());
            self.queue_pending(prefix, kind, cause.with_rel(rel));
            Submit::Queued
        } else {
            debug_assert!(
                self.pending.get(prefix).is_none(),
                "pending update with an idle timer"
            );
            self.sent.insert(prefix, path.clone());
            self.rib_out_writes += 1;
            self.set_armed(prefix);
            Submit::SendNow {
                update: Update::announce(prefix, path.clone()).stamped(cause.with_rel(rel)),
                arm_timer: true,
            }
        }
    }

    /// Handles an MRAI expiry: drains pending updates governed by the
    /// expired timer (skipping any that have become no-ops against the
    /// Adj-RIB-out), pushes the ones that go on the wire now onto `sends`
    /// tagged with `slot` (this queue's session slot at its node), and
    /// returns whether that timer re-arms. When it does the caller must
    /// schedule the next expiry.
    ///
    /// `trigger` identifies the timer: `None` for the per-interface
    /// session timer, `Some(prefix)` for a per-prefix timer.
    ///
    /// # Panics
    /// Panics (in debug builds) if `trigger` does not match the queue's
    /// scope.
    pub fn flush(
        &mut self,
        trigger: Option<Prefix>,
        slot: u32,
        sends: &mut Vec<(u32, Update)>,
    ) -> bool {
        let before = sends.len();
        match (self.scope, trigger) {
            (MraiScope::PerInterface, None) => {
                debug_assert!(self.timer_armed, "flush on an idle queue");
                // Taken out so `emit` can write the Adj-RIB-out while the
                // drain runs, and put back emptied: a spilled map keeps
                // its buffer for the next window.
                let mut pending = std::mem::take(&mut self.pending);
                pending.drain_into(|prefix, (kind, stamp)| {
                    sends.extend(self.emit(prefix, kind, stamp).map(|u| (slot, u)));
                });
                self.pending = pending;
                let rearm = sends.len() > before;
                self.timer_armed = rearm;
                rearm
            }
            (MraiScope::PerPrefix, Some(prefix)) => {
                debug_assert!(
                    self.armed_prefixes.binary_search(&prefix).is_ok(),
                    "flush on an idle per-prefix timer"
                );
                if let Some((kind, stamp)) = self.pending.remove(prefix) {
                    sends.extend(self.emit(prefix, kind, stamp).map(|u| (slot, u)));
                }
                let rearm = sends.len() > before;
                if !rearm {
                    if let Ok(i) = self.armed_prefixes.binary_search(&prefix) {
                        self.armed_prefixes.remove(i);
                    }
                }
                rearm
            }
            (scope, trigger) => {
                debug_assert!(false, "flush trigger {trigger:?} does not match scope {scope:?}");
                false
            }
        }
    }

    /// Emits one pending update unless it is a no-op against the
    /// Adj-RIB-out, updating the Adj-RIB-out on emission. The stored
    /// (possibly coalesced) stamp rides out on the message.
    fn emit(&mut self, prefix: Prefix, kind: UpdateKind, stamp: Provenance) -> Option<Update> {
        match kind {
            UpdateKind::Announce(path) => {
                if self.sent.get(prefix) == Some(&path) {
                    return None; // neighbor already has it
                }
                self.sent.insert(prefix, path.clone());
                self.rib_out_writes += 1;
                Some(Update::announce(prefix, path).stamped(stamp))
            }
            UpdateKind::Withdraw => {
                self.sent.remove(prefix)?;
                self.rib_out_writes += 1;
                Some(Update::withdraw(prefix).stamped(stamp))
            }
        }
    }

    /// Clears all routing state (Adj-RIB-out, pending updates).
    ///
    /// # Panics
    /// Panics if the timer is still armed — resetting with an outstanding
    /// expiry event would desynchronize the simulator.
    pub fn reset(&mut self) {
        assert!(!self.timer_armed(), "reset with an armed MRAI timer");
        self.pending.clear();
        self.sent.clear();
    }

    /// Transmits `path` immediately, bypassing the rate limiter — used
    /// only for the initial full-table exchange of a freshly established
    /// session, which real BGP does not MRAI-limit (the timer governs
    /// *subsequent* advertisements). Returns the message to send, or
    /// `None` if the neighbor already holds an identical route. The
    /// caller arms the timer once afterwards via [`OutQueue::arm_timer`].
    ///
    /// # Panics
    /// Panics if the timer is armed (a fresh session starts idle).
    pub fn send_unlimited(
        &mut self,
        prefix: Prefix,
        path: AsPath,
        cause: &Provenance,
    ) -> Option<Update> {
        assert!(!self.timer_armed(), "initial exchange on a rate-limited session");
        if self.sent.get(prefix) == Some(&path) {
            return None;
        }
        self.sent.insert(prefix, path.clone());
        self.rib_out_writes += 1;
        Some(Update::announce(prefix, path).stamped(cause.clone()))
    }

    /// Arms a timer without sending (used after an initial table
    /// exchange): the per-interface session timer when `prefix` is
    /// `None`, a per-prefix timer otherwise. The caller must schedule the
    /// matching expiry.
    pub fn arm_timer(&mut self, prefix: Option<Prefix>) {
        match (self.scope, prefix) {
            (MraiScope::PerInterface, None) => self.timer_armed = true,
            (MraiScope::PerPrefix, Some(p)) => self.set_armed(p),
            (scope, prefix) => {
                debug_assert!(false, "arm_timer {prefix:?} does not match scope {scope:?}");
            }
        }
    }

    /// Clears all state unconditionally, disarming the timer — used on a
    /// **session reset** (the TCP session to the neighbor dropped, so the
    /// neighbor has discarded everything we sent and any queued updates
    /// are moot). The caller must ignore or invalidate any outstanding
    /// expiry event for this queue (the simulator uses an epoch counter).
    pub fn force_reset(&mut self) {
        self.timer_armed = false;
        self.armed_prefixes.clear();
        self.pending.clear();
        self.sent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::AsId;

    const P: Prefix = Prefix(1);
    const Q: Prefix = Prefix(2);

    fn path(ids: &[u32]) -> AsPath {
        ids.iter().map(|&i| AsId(i)).collect()
    }

    fn none() -> Provenance {
        Provenance::none()
    }

    /// Every queue under test is slot 3 of its node, over a peer edge.
    const SLOT: u32 = 3;
    const REL: Relationship = Relationship::Peer;

    /// `flush` into a scratch send list: the flushed updates (each tagged
    /// with the queue's slot) and the re-arm flag.
    fn flush(q: &mut OutQueue, trigger: Option<Prefix>) -> (Vec<Update>, bool) {
        let mut sends = Vec::new();
        let rearm = q.flush(trigger, SLOT, &mut sends);
        assert!(sends.iter().all(|(slot, _)| *slot == SLOT));
        (sends.into_iter().map(|(_, u)| u).collect(), rearm)
    }

    #[test]
    fn prefix_map_stays_sorted_across_the_inline_to_spilled_boundary() {
        let mut m: PrefixMap<u32> = PrefixMap::default();
        assert_eq!((m.len(), m.get(P)), (0, None));
        m.insert(Q, 20);
        m.insert(Q, 21); // replace in the inline slot
        assert!(matches!(m, PrefixMap::One(..)));
        assert_eq!((m.len(), m.get(Q), m.get(P)), (1, Some(&21), None));
        assert_eq!(m.remove(P), None);
        m.insert(Prefix(0), 0); // spills, smaller key first
        m.insert(P, 10);
        m.insert(P, 11);
        *m.get_mut(Q).unwrap() += 1;
        assert_eq!(m.len(), 3);
        assert_eq!(m.remove(Prefix(0)), Some(0));
        let mut seen = Vec::new();
        m.drain_into(|p, v| seen.push((p, v)));
        assert_eq!(seen, vec![(P, 11), (Q, 22)], "drained in prefix order");
        assert_eq!(m.len(), 0);
        assert!(matches!(m, PrefixMap::Many(_)), "a spilled map keeps its buffer");
        m.clear();
        assert!(matches!(m, PrefixMap::Empty));
        // The inline entry drains and removes too.
        m.insert(P, 1);
        assert_eq!(m.remove(P), Some(1));
        m.insert(P, 2);
        m.drain_into(|p, v| seen.push((p, v)));
        assert_eq!(seen.last(), Some(&(P, 2)));
        assert!(matches!(m, PrefixMap::Empty));
    }

    #[test]
    fn first_announcement_sends_and_arms() {
        let mut q = OutQueue::new();
        let r = q.submit(P, Some(&path(&[1, 2])), MraiMode::NoWrate, &none(), REL);
        assert_eq!(
            r,
            Submit::SendNow {
                update: Update::announce(P, path(&[1, 2])),
                arm_timer: true
            }
        );
        assert!(q.timer_armed());
        assert_eq!(q.advertised(P), Some(&path(&[1, 2])));
    }

    #[test]
    fn second_announcement_queues_behind_timer() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        let r = q.submit(P, Some(&path(&[1, 3])), MraiMode::NoWrate, &none(), REL);
        assert_eq!(r, Submit::Queued);
        assert_eq!(q.pending_len(), 1);
        // Adj-RIB-out still shows the transmitted route; intent shows the
        // queued one.
        assert_eq!(q.advertised(P), Some(&path(&[1])));
        assert_eq!(q.intent(P), Some(&path(&[1, 3])));
    }

    #[test]
    fn newer_update_replaces_queued_one() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        q.submit(P, Some(&path(&[1, 3])), MraiMode::NoWrate, &none(), REL);
        q.submit(P, Some(&path(&[1, 4])), MraiMode::NoWrate, &none(), REL);
        assert_eq!(q.pending_len(), 1, "replaced, not accumulated");
        let (sent, rearm) = flush(&mut q, None);
        assert_eq!(sent, vec![Update::announce(P, path(&[1, 4]))]);
        assert!(rearm);
    }

    #[test]
    fn duplicate_announcement_is_suppressed() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        let r = q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        assert_eq!(r, Submit::Suppressed);
        assert_eq!(q.pending_len(), 0);
    }

    #[test]
    fn flush_skips_updates_that_became_noops() {
        // Send A; queue B; queue A again (flap back). At expiry the
        // neighbor already holds A → nothing goes out, timer idles.
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        q.submit(P, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL);
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        let (sent, rearm) = flush(&mut q, None);
        assert!(sent.is_empty());
        assert!(!rearm);
        assert!(!q.timer_armed());
    }

    #[test]
    fn no_wrate_withdrawal_bypasses_timer() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        assert!(q.timer_armed());
        let r = q.submit(P, None, MraiMode::NoWrate, &none(), REL);
        assert_eq!(
            r,
            Submit::SendNow {
                update: Update::withdraw(P),
                arm_timer: false
            }
        );
        assert_eq!(q.advertised(P), None);
        // Timer stays armed from the earlier announcement.
        assert!(q.timer_armed());
    }

    #[test]
    fn no_wrate_withdrawal_cancels_queued_announcement_silently() {
        // Announce A (sent), queue announcement for Q, then withdraw Q
        // before it ever goes out: the neighbor never learned Q, so no
        // withdrawal is needed at all.
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        q.submit(Q, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL);
        let r = q.submit(Q, None, MraiMode::NoWrate, &none(), REL);
        assert_eq!(r, Submit::Suppressed);
        let (sent, _) = flush(&mut q, None);
        assert!(sent.is_empty(), "queued announcement must be invalidated");
    }

    #[test]
    fn wrate_withdrawal_queues_behind_timer() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::Wrate, &none(), REL);
        let r = q.submit(P, None, MraiMode::Wrate, &none(), REL);
        assert_eq!(r, Submit::Queued);
        let (sent, rearm) = flush(&mut q, None);
        assert_eq!(sent, vec![Update::withdraw(P)]);
        assert!(rearm, "a transmitted withdrawal re-arms under WRATE");
    }

    #[test]
    fn wrate_withdrawal_sends_immediately_when_idle_and_arms() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::Wrate, &none(), REL);
        let (_, rearm) = flush(&mut q, None);
        assert!(!rearm);
        let r = q.submit(P, None, MraiMode::Wrate, &none(), REL);
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
        let mut q = OutQueue::new();
        assert_eq!(q.submit(P, None, MraiMode::NoWrate, &none(), REL), Submit::Suppressed);
        assert_eq!(q.submit(P, None, MraiMode::Wrate, &none(), REL), Submit::Suppressed);
    }

    #[test]
    fn announce_after_queued_withdraw_restores_without_traffic() {
        // A sent; withdraw queued (WRATE); re-announce identical A. The
        // queued withdraw is replaced by Announce(A), which the flush then
        // suppresses against the Adj-RIB-out.
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::Wrate, &none(), REL);
        q.submit(P, None, MraiMode::Wrate, &none(), REL);
        let r = q.submit(P, Some(&path(&[1])), MraiMode::Wrate, &none(), REL);
        assert_eq!(r, Submit::Queued);
        let (sent, rearm) = flush(&mut q, None);
        assert!(sent.is_empty());
        assert!(!rearm);
        assert_eq!(q.advertised(P), Some(&path(&[1])));
    }

    #[test]
    fn multiple_prefixes_flush_together_in_prefix_order() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL); // sends, arms
        q.submit(Q, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL); // queues
        q.submit(Prefix(0), Some(&path(&[3])), MraiMode::NoWrate, &none(), REL); // queues
        let (sent, rearm) = flush(&mut q, None);
        assert_eq!(
            sent,
            vec![
                Update::announce(Prefix(0), path(&[3])),
                Update::announce(Q, path(&[2])),
            ]
        );
        assert!(rearm);
    }

    #[test]
    fn timer_lifecycle_idle_after_empty_flush() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        let (sent, rearm) = flush(&mut q, None);
        assert!(sent.is_empty());
        assert!(!rearm);
        // Next announcement goes straight out again.
        let r = q.submit(P, Some(&path(&[9])), MraiMode::NoWrate, &none(), REL);
        assert!(matches!(r, Submit::SendNow { .. }));
    }

    #[test]
    fn reset_clears_state_when_idle() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        flush(&mut q, None);
        q.reset();
        assert_eq!(q.advertised(P), None);
        assert_eq!(q.pending_len(), 0);
    }

    #[test]
    fn per_prefix_scope_does_not_couple_prefixes() {
        // Under PerPrefix, announcing P must not rate-limit Q.
        let mut q = OutQueue::with_scope(MraiScope::PerPrefix);
        assert!(matches!(
            q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL),
            Submit::SendNow { .. }
        ));
        assert!(
            matches!(
                q.submit(Q, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL),
                Submit::SendNow { .. }
            ),
            "a different prefix must not queue behind P's timer"
        );
        // But a second update for P itself queues.
        assert_eq!(
            q.submit(P, Some(&path(&[1, 3])), MraiMode::NoWrate, &none(), REL),
            Submit::Queued
        );
        assert!(q.is_armed(P));
        assert!(q.is_armed(Q));
        assert!(!q.is_armed(Prefix(99)));
    }

    #[test]
    fn per_prefix_flush_only_touches_its_prefix() {
        let mut q = OutQueue::with_scope(MraiScope::PerPrefix);
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        q.submit(Q, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL);
        q.submit(P, Some(&path(&[1, 3])), MraiMode::NoWrate, &none(), REL); // queued
        q.submit(Q, Some(&path(&[2, 4])), MraiMode::NoWrate, &none(), REL); // queued
        let (sent, rearm) = flush(&mut q, Some(P));
        assert_eq!(sent, vec![Update::announce(P, path(&[1, 3]))]);
        assert!(rearm);
        // Q's pending update is untouched.
        assert_eq!(q.pending_len(), 1);
        assert_eq!(q.intent(Q), Some(&path(&[2, 4])));
        let (sent_q, _) = flush(&mut q, Some(Q));
        assert_eq!(sent_q, vec![Update::announce(Q, path(&[2, 4]))]);
    }

    #[test]
    fn per_prefix_timer_idles_after_empty_flush() {
        let mut q = OutQueue::with_scope(MraiScope::PerPrefix);
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        let (sent, rearm) = flush(&mut q, Some(P));
        assert!(sent.is_empty());
        assert!(!rearm);
        assert!(!q.is_armed(P));
        assert!(!q.timer_armed());
    }

    #[test]
    fn per_prefix_wrate_withdrawal_queues_only_its_prefix() {
        let mut q = OutQueue::with_scope(MraiScope::PerPrefix);
        q.submit(P, Some(&path(&[1])), MraiMode::Wrate, &none(), REL);
        assert_eq!(q.submit(P, None, MraiMode::Wrate, &none(), REL), Submit::Queued);
        // An idle prefix's withdrawal goes straight out.
        q.submit(Q, Some(&path(&[2])), MraiMode::Wrate, &none(), REL);
        let (s2, _) = flush(&mut q, Some(Q));
        assert!(s2.is_empty());
        let r = q.submit(Q, None, MraiMode::Wrate, &none(), REL);
        assert!(matches!(r, Submit::SendNow { arm_timer: true, .. }));
    }

    #[test]
    #[should_panic(expected = "armed MRAI timer")]
    fn reset_rejects_armed_timer() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        q.reset();
    }

    #[test]
    fn coalesced_flush_carries_the_union_of_contributing_roots() {
        // Root 1 sends the first announcement (arming the timer), then
        // roots 2 and 3 each replace the queued update. The flushed
        // message must answer for roots 2 and 3 — the displaced intents —
        // with the depth of the newest one.
        let mut q = OutQueue::new();
        let first = q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &Provenance::root(1), REL);
        match first {
            Submit::SendNow { update, .. } => assert_eq!(update.provenance.roots(), &[1]),
            other => panic!("expected SendNow, got {other:?}"),
        }
        q.submit(P, Some(&path(&[2])), MraiMode::NoWrate, &Provenance::root(2), REL);
        q.submit(P, Some(&path(&[3])), MraiMode::NoWrate, &Provenance::root(3).child(), REL);
        let (sent, _) = flush(&mut q, None);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].provenance.roots(), &[2, 3], "displaced root kept");
        assert_eq!(sent[0].provenance.depth(), 1, "newest intent's depth");
        assert_eq!(sent[0].provenance.rel(), Some(REL), "stamped with the session's edge");
    }

    #[test]
    fn cost_counters_tally_rib_writes_and_coalescing() {
        let mut q = OutQueue::new();
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL); // sends: 1 write
        q.submit(P, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL); // queues
        q.submit(P, Some(&path(&[3])), MraiMode::NoWrate, &none(), REL); // displaces: coalesce
        assert_eq!(q.rib_out_writes(), 1);
        assert_eq!(q.coalesced(), 1);
        let (sent, _) = flush(&mut q, None); // emits the announce: 1 more write
        assert_eq!(sent.len(), 1);
        assert_eq!(q.rib_out_writes(), 2);
        // A withdrawal that reaches the wire is a write too.
        q.submit(P, None, MraiMode::NoWrate, &none(), REL);
        assert_eq!(q.rib_out_writes(), 3);
        // Counters are monotone across a forced reset.
        q.force_reset();
        assert_eq!(q.rib_out_writes(), 3);
        assert_eq!(q.coalesced(), 1);
    }

    #[test]
    fn armed_count_matches_scope() {
        let mut q = OutQueue::new();
        assert_eq!(q.armed_count(), 0);
        q.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        assert_eq!(q.armed_count(), 1);
        let mut pp = OutQueue::with_scope(MraiScope::PerPrefix);
        pp.submit(P, Some(&path(&[1])), MraiMode::NoWrate, &none(), REL);
        pp.submit(Q, Some(&path(&[2])), MraiMode::NoWrate, &none(), REL);
        assert_eq!(pp.armed_count(), 2);
    }
}
