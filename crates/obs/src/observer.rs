//! The [`SimObserver`] trait: hook points the simulator event loop calls.
//!
//! The simulator (`bgpscale-core`) is generic over an observer,
//! `Simulator<O: SimObserver = NoopObserver>`, so the hooks are statically
//! dispatched: with the default [`NoopObserver`] every hook body is an
//! empty `#[inline]` function and the optimizer erases both the call and
//! the computation of its arguments — the hot path is unchanged when
//! tracing is off (`benchmark/`'s `observed_5k` workload measures what a
//! live observer costs instead: `obs.recorder_ns_per_delivery`).
//!
//! The observer also chooses what every UPDATE of the run carries beside
//! its wire content ([`SimObserver::Stamp`]): the [`NoopObserver`] takes
//! `()`, so an unobserved run moves no provenance at all.
//!
//! Observers are plain mutable state owned by one simulator instance; the
//! parallel experiment harness gives every C-event its own observer and
//! merges the results **in event-index order**, which is what keeps
//! metrics and trace output bit-deterministic across `--jobs` levels.

use bgpscale_simkernel::SimTime;
use bgpscale_topology::{AsId, Relationship};

use crate::provenance::{RootCauseKind, RootSets, Stamp};

/// The kind of a simulator event — a delivery off `core::sim`'s wire or
/// one of its private queue events — so observers can count per kind
/// without a dependency cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message arrived at a node's input queue.
    Deliver,
    /// A node's processor finished one message.
    ProcDone,
    /// An MRAI timer fired.
    MraiExpire,
    /// A Route-Flap-Damping reuse wake-up fired.
    RfdReuse,
}

impl EventKind {
    /// All kinds, in stable index order.
    pub const ALL: [EventKind; 4] = [
        EventKind::Deliver,
        EventKind::ProcDone,
        EventKind::MraiExpire,
        EventKind::RfdReuse,
    ];

    /// Stable dense index (0..4), used by counters and snapshots.
    pub fn index(self) -> usize {
        match self {
            EventKind::Deliver => 0,
            EventKind::ProcDone => 1,
            EventKind::MraiExpire => 2,
            EventKind::RfdReuse => 3,
        }
    }

    /// Stable lowercase name, used in metric keys and trace records.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Deliver => "deliver",
            EventKind::ProcDone => "proc_done",
            EventKind::MraiExpire => "mrai_expire",
            EventKind::RfdReuse => "rfd_reuse",
        }
    }
}

/// The flavor of a delivered UPDATE, as seen by [`SimObserver::on_message`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateClass {
    /// A reachable route with an AS path.
    Announce,
    /// An explicit withdrawal.
    Withdraw,
}

impl UpdateClass {
    /// Stable lowercase name, used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            UpdateClass::Announce => "announce",
            UpdateClass::Withdraw => "withdraw",
        }
    }
}

/// Hook points called from the simulator's event loop, and the stamp the
/// observed simulator's messages carry.
///
/// Every method has an empty default body, so an observer implements only
/// what it needs. Implementations must be deterministic functions of the
/// hook arguments if their output feeds `metrics.json` or a trace file —
/// wall-clock time and global state would break the bit-identical-across-
/// `--jobs` guarantee.
pub trait SimObserver {
    /// What every UPDATE, queued update and protocol step of the observed
    /// simulator carries as its cause: [`crate::Provenance`] for an observer
    /// that reads [`SimObserver::on_message`]'s stamp, `()` for one that
    /// does not — then messages are eight bytes and no stamp is ever
    /// built, coalesced or interned.
    type Stamp: Stamp;

    /// An event was taken off the queue, or a message off the wire, and is
    /// about to be handled.
    #[inline]
    fn on_event(&mut self, _kind: EventKind, _now: SimTime) {}

    /// An UPDATE was delivered from `from` to `to` (and joined `to`'s
    /// input queue). `rel` is the relationship of the *sender* as seen
    /// from the receiver; `path_len` yields the AS-path length of an
    /// announcement (`None` for withdrawals) — a closure, because the
    /// length is a read of the simulator's path arena that an observer
    /// with no use for it must not pay for. `stamp` is the message's
    /// causal stamp, of the observer's own [`SimObserver::Stamp`] type
    /// ([`Stamp::provenance`] reads any of them as a
    /// [`crate::Provenance`]), `root_sets` the table a coalesced stamp's
    /// roots resolve against ([`crate::Provenance::roots`]), and
    /// `inbox_depth` the receiver's in-queue depth *including* this
    /// message.
    #[inline]
    #[expect(
        clippy::too_many_arguments,
        reason = "one hook per delivery; bundling its arguments would build a struct on the unobserved path"
    )]
    fn on_message(
        &mut self,
        _from: AsId,
        _to: AsId,
        _rel: Relationship,
        _class: UpdateClass,
        _prefix: u32,
        _path_len: impl FnOnce() -> Option<u32>,
        _stamp: &Self::Stamp,
        _root_sets: &RootSets,
        _inbox_depth: u32,
        _now: SimTime,
    ) {
    }

    /// A root-cause event fired: `id` is sequential within the
    /// simulation, `node` is where it happened. Every provenance stamp
    /// delivered later refers back to one or more of these ids.
    #[inline]
    fn on_root_cause(&mut self, _id: u32, _kind: RootCauseKind, _node: AsId, _now: SimTime) {}

    /// The number of MRAI expiry events scheduled and not yet popped
    /// changed to `armed`: the armed timers an update waits behind. A
    /// timer nothing queues behind runs out without an event and never
    /// shows here. Fires whenever a step schedules expiries, on every
    /// valid expiry, and on a session teardown that alters the level.
    #[inline]
    fn on_timer_occupancy(&mut self, _armed: u64, _now: SimTime) {}

    /// A valid MRAI expiry event at `node` flushed `sent` queued updates.
    /// An expiry event exists only where an update waited behind the
    /// timer, so this fires once per window that queued something —
    /// never for a timer that ran out idle. `sent` is 0 when every
    /// waiting update had become a no-op by then (`Recorder` counts those
    /// in `mrai.flushes` and the flush histogram's zero bin). Stale
    /// expiries — of timers a session reset has since forgotten — do not
    /// fire this hook.
    #[inline]
    fn on_mrai_flush(&mut self, _node: AsId, _sent: u32, _now: SimTime) {}

    /// `node` processed one message through the decision process.
    #[inline]
    fn on_decision_run(&mut self, _node: AsId, _now: SimTime) {}

    /// The event queue and the wire drained: the network quiesced at `now` after
    /// `events_processed` events total.
    #[inline]
    fn on_quiescence(&mut self, _now: SimTime, _events_processed: u64) {}
}

/// The default observer: every hook is a no-op that compiles to nothing,
/// and messages carry no stamp.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    type Stamp = ();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_indices_are_dense_and_stable() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(EventKind::Deliver.name(), "deliver");
        assert_eq!(EventKind::MraiExpire.name(), "mrai_expire");
        assert_eq!(UpdateClass::Withdraw.name(), "withdraw");
    }

    #[test]
    fn noop_observer_accepts_all_hooks() {
        let mut o = NoopObserver;
        o.on_event(EventKind::Deliver, SimTime::ZERO);
        o.on_message(
            AsId(0),
            AsId(1),
            Relationship::Customer,
            UpdateClass::Announce,
            0,
            || Some(3),
            &(),
            &RootSets::new(),
            1,
            SimTime::ZERO,
        );
        o.on_root_cause(0, RootCauseKind::Originate, AsId(0), SimTime::ZERO);
        o.on_timer_occupancy(2, SimTime::ZERO);
        o.on_mrai_flush(AsId(0), 1, SimTime::ZERO);
        o.on_decision_run(AsId(0), SimTime::ZERO);
        o.on_quiescence(SimTime::ZERO, 42);
    }
}
