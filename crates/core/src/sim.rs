//! The event-driven network simulator.
//!
//! One BGP speaker per AS, connected according to an [`AsGraph`], driven
//! by the deterministic event queue of `bgpscale-simkernel`. Three event
//! kinds exist (the paper's Fig. 2):
//!
//! * **Deliver** — a message arrives at a node and joins its FIFO input
//!   queue; if the node's processor is idle, service begins. A message in
//!   flight is not an event of the queue: it rides the simulator's
//!   `wire`, one FIFO of `InFlight` entries — the key its arrival pops
//!   at, reserved from the queue when it was sent, the receiver, its
//!   session slot and the `Update` — which is sorted by key because every
//!   message takes the same constant link delay after a monotone clock.
//!   A delivery reads the session off the simulator's own slab and the
//!   receiver's input queue; the receiver's routes are not touched until
//!   its `ProcDone`. Only live sessions carry messages: a link failure
//!   discards the unprocessed messages of its two sessions, on the wire
//!   and in both input queues ([`Simulator::fail_link`]).
//! * **ProcDone** — the processor finishes one message (service time drawn
//!   uniformly from `(0, PROC_DELAY_MAX]`), the protocol machine runs, and
//!   resulting transmissions go on the wire after the link delay.
//! * **MraiExpire** — a neighbor session's MRAI timer fires; queued
//!   updates flush and the timer re-arms (jittered) iff something was
//!   sent. An expiry is valid iff the timer still waits for exactly this
//!   event — its stored key is the event's unique `(time, seq)` — so one
//!   scheduled before a session reset is dropped by comparison: there is
//!   no epoch counter. A per-prefix timer, like a damping wake-up, is
//!   named by its prefix's row.
//!
//! A node is routes; everything else a protocol step needs — the one
//! configuration, the key of the event, the cause to stamp, the path
//! arena, the event clock, the send list, the cost tallies — is the
//! simulator's, one of each for the whole network, lent as a [`Step`] for
//! the length of the step. The clock is the simulator's one [`Clock`]: a
//! view of the event queue, the RNG, the MRAI horizon and the gauge of
//! scheduled expiries, through which the step arms timers and schedules
//! expiry events and damping wake-ups as it runs. After the step the
//! simulator puts its sends on the wire.
//!
//! What a cause is depends on who watches: the observer's
//! [`SimObserver::Stamp`]. The default [`NoopObserver`] takes `()`, so an
//! unobserved simulator moves messages, queued updates and input-queue
//! entries with no stamp in them and never builds, coalesces or interns
//! one; a `Recorder` takes [`bgpscale_obs::Provenance`]. Root-cause ids are
//! handed out and reported to the observer either way.
//!
//! One event loop serves [`Simulator::run_until`] and
//! [`Simulator::run_to_quiescence`]: each turn it takes the earlier of the
//! event queue's minimum and the wire's front — the queue's with
//! `EventQueue::pop_by` bounded by the front's key, the front's by passing
//! its key to `EventQueue::advance_to`, which moves the clock and leaves
//! the radix heap's reference alone. So the pop sequence is the one
//! `(time, seq)` total order over every event and message, and the wire's
//! pushes, pops and merge comparisons are counted in the queue's op
//! classes. A `ProcDone`, at most 100 ms out, goes into the queue's
//! calendar ring and is filed once, in the 32 µs slot it pops from; the
//! thousands of MRAI expiries 22.5–30 s out, and the damping wake-ups, go
//! into its radix heap, whose high buckets the ring's pops never touch.
//!
//! MRAI timers are **lazy**. Every arm asks the clock ([`Clock::arm`]),
//! which draws the jitter and reserves the `(time, seq)` key the expiry
//! pops at (`EventQueue::reserve`), and the session's output queue keeps
//! that key: the timer is armed while the key is after the key of the
//! event being processed. An `MraiExpire` event is scheduled under the
//! key (`EventQueue::schedule_reserved`, through [`Clock::expire`]) only
//! once an update waits behind the timer — most timers run out with
//! nothing queued, and those cost the loop no push, pop or dispatch.
//! Every other event keeps the key, and so the place in the pop order, it
//! would have had with an expiry event per arm, and the RNG is drawn at
//! the same points: the run is that run minus the expiries that would
//! have flushed nothing.
//!
//! The simulation **quiesces** when the event queue and the wire are
//! empty: every RIB is stable, and the clock then moves to the latest key any timer reserved
//! (the *MRAI horizon*), so every MRAI timer is idle when the next phase
//! starts. All randomness (service times, jitter) comes from one seeded
//! stream, so runs are exactly repeatable.
//!
//! AS paths live in one [`PathArena`] per simulator, lent with every
//! step: nodes, output queues, the wire and the input queues all hold
//! four-byte [`PathId`]s of it, and an unobserved `Update` is eight bytes
//! that nothing points out of (twenty with a `Provenance` stamp). An id
//! lives until [`Simulator::recycle`] clears the arena; read one back
//! through [`Simulator::paths`].
//!
//! ## Memory layout
//!
//! The simulator holds no per-node object. Every route of every node —
//! Adj-RIBs-in, Loc-RIBs, output queues with their MRAI timers, session
//! liveness, damping history — lives in the columns of one
//! [`RouteSlab`], indexed by the [`SessionSlab`]'s global session id (a
//! node's `Stripe` turns its slots into them) and by network-wide
//! prefix rows, and a protocol step sees its node's share through a
//! [`BgpNode`] view built for the step (`Simulator::lend_step`);
//! [`Simulator::node`] hands out the read-only [`NodeView`]. Every
//! node's input queue is a chain in one pooled FIFO (`crate::inbox`):
//! entries carry the index of the next, each node keeps a head, a tail
//! and a length. So instantiating a simulator is a fixed handful of
//! allocations whatever the size of the topology,
//! [`Simulator::recycle`] and [`Simulator::reset_routing`] are a few
//! fills, and a cost snapshot reads the route columns' byte tally
//! instead of visiting every node.

use std::sync::Arc;

use bgpscale_bgp::mrai::{Clock, Step};
use bgpscale_bgp::node::Session;
use bgpscale_bgp::config::{LINK_DELAY, MRAI, MRAI_JITTER, PROC_DELAY_MAX};
use bgpscale_bgp::{BgpConfig, BgpNode, NodeView, PathArena, Prefix, RouteSlab, SessionSlab, Update};
use bgpscale_obs::{
    EventKind, NoopObserver, OpCounts, RootCauseKind, SimObserver, Stamp, UpdateClass,
};
use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventKey, EventQueue, SimDuration, SimTime};
use bgpscale_topology::{AsGraph, AsId};

use crate::churn::ChurnCollector;
use crate::inbox::InboxPool;

/// Hard ceiling on events processed in one [`Simulator::run_to_quiescence`]
/// call; BGP with Gao–Rexford policies always converges, so hitting this
/// indicates a model bug rather than a slow run.
const DEFAULT_EVENT_LIMIT: u64 = 2_000_000_000;

/// Events of the queue. Small on purpose: every pending event sits in a
/// slot of the event queue's pool. `Copy`, so a pop hands the event out
/// and leaves its slot for the next push. Messages in flight are not
/// among them: they ride `Simulator::wire`.
#[derive(Clone, Copy, Debug)]
enum SimEvent {
    /// `node`'s processor finishes the message at the head of its queue.
    ProcDone { node: AsId },
    /// An MRAI timer for `node`'s neighbor session `slot` expires with
    /// an update waiting behind it: the session timer when `row` is
    /// `None` (per-interface scope), that prefix row's timer otherwise.
    /// Stale unless the timer still waits for the event popping at this
    /// key.
    MraiExpire { node: AsId, slot: u32, row: Option<u32> },
    /// A Route-Flap-Damping reuse wake-up for `(node, slot, row)`.
    RfdReuse { node: AsId, slot: u32, row: u32 },
}

// With its 16-byte key, an entry of the event queue's pool is 32 bytes.
const _: () = assert!(std::mem::size_of::<SimEvent>() <= 16);

impl SimEvent {
    fn kind(&self) -> EventKind {
        match self {
            SimEvent::ProcDone { .. } => EventKind::ProcDone,
            SimEvent::MraiExpire { .. } => EventKind::MraiExpire,
            SimEvent::RfdReuse { .. } => EventKind::RfdReuse,
        }
    }
}

/// A message in flight: `update` reaches `to`'s input queue over `to`'s
/// session `slot` (the sender is that session's peer) when `key` has its
/// turn.
#[derive(Debug)]
struct InFlight<S> {
    key: EventKey,
    to: AsId,
    slot: u32,
    update: Update<S>,
}

// One entry per message, as big as an entry of the event queue's pool.
const _: () = assert!(std::mem::size_of::<InFlight<()>>() == 32);

/// The simulator's event clock, lent to a protocol step at `node`: the
/// event queue keys are reserved from and events scheduled on, the RNG
/// the MRAI jitter is drawn from, the MRAI horizon, and the gauge of
/// valid expiry events scheduled.
#[derive(Debug)]
struct SimClock<'a> {
    node: AsId,
    queue: &'a mut EventQueue<SimEvent>,
    rng: &'a mut Xoshiro256StarStar,
    mrai_horizon: &'a mut EventKey,
    expiries_scheduled: &'a mut u64,
}

impl Clock for SimClock<'_> {
    /// Draws the interval from the 30 s MRAI scaled by a factor in
    /// [`MRAI_JITTER`], and reserves the key that far from now.
    fn arm(&mut self) -> EventKey {
        let (lo, hi) = MRAI_JITTER;
        let interval = MRAI.mul_f64(self.rng.next_f64_range(lo, hi));
        let key = self.queue.reserve(self.queue.now() + interval);
        *self.mrai_horizon = (*self.mrai_horizon).max(key);
        key
    }

    fn expire(&mut self, slot: u32, which: Option<u32>, key: EventKey) {
        self.queue.schedule_reserved(key, SimEvent::MraiExpire { node: self.node, slot, row: which });
        *self.expiries_scheduled += 1;
    }

    fn wake(&mut self, slot: u32, row: u32, at: SimTime) {
        let now = self.queue.now();
        debug_assert!(at >= now, "reuse time in the past");
        self.queue.schedule(at.max(now), SimEvent::RfdReuse { node: self.node, slot, row });
    }
}

/// A diagnostic snapshot of simulator state at the moment a run exceeded
/// its event budget. Built only on the failure path (never in the event
/// loop), so the happy path pays nothing for it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BudgetSnapshot {
    /// Simulated time when the budget ran out, in microseconds.
    pub sim_time_us: u64,
    /// Events still pending: the queue's and the messages on the wire.
    pub queue_depth: u64,
    /// Pending events per kind, indexed by [`EventKind::index`]
    /// (deliver, proc_done, mrai_expire, rfd_reuse).
    pub pending_by_kind: [u64; 4],
    /// The node with the deepest input queue and that depth, if any
    /// inbox is non-empty (ties break toward the lowest node id).
    pub busiest_inbox: Option<(AsId, usize)>,
}

/// Error returned when a run exceeds its event budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventBudgetExceeded {
    /// The budget the run was given ([`Simulator::set_event_limit`]).
    pub budget: u64,
    /// Number of events processed before giving up: the run stops at the
    /// first event past the budget, so this is `budget + 1`.
    pub processed: u64,
    /// Where the simulation stood when it gave up.
    pub snapshot: BudgetSnapshot,
}

impl std::fmt::Display for EventBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.snapshot;
        write!(
            f,
            "simulation did not quiesce within its budget of {} events ({} processed); \
             model bug? t={}us, {} pending (deliver {}, proc_done {}, mrai_expire {}, rfd_reuse {})",
            self.budget,
            self.processed,
            s.sim_time_us,
            s.queue_depth,
            s.pending_by_kind[0],
            s.pending_by_kind[1],
            s.pending_by_kind[2],
            s.pending_by_kind[3],
        )?;
        if let Some((node, depth)) = s.busiest_inbox {
            write!(f, ", busiest inbox {node} with {depth} queued")?;
        }
        Ok(())
    }
}

impl std::error::Error for EventBudgetExceeded {}

/// The network simulator: topology + BGP speakers + event loop.
///
/// Generic over a [`SimObserver`] that receives telemetry hooks from the
/// event loop. The default is [`NoopObserver`], whose empty `#[inline]`
/// hook bodies are erased by the optimizer — plain `Simulator` compiles to
/// the same code as before observers existed, so existing callers neither
/// change nor pay. Pass a real observer (e.g. `bgpscale_obs::Recorder`)
/// via [`SimTemplate::instantiate_observed`] to collect metrics/traces.
pub struct Simulator<O: SimObserver = NoopObserver> {
    obs: O,
    graph: Arc<AsGraph>,
    cfg: BgpConfig,
    /// The session slab shared by every node (and by the template that
    /// stamped this simulator out).
    slab: Arc<SessionSlab>,
    /// Every route of every node, in columns indexed by the slab's global
    /// session ids and network-wide prefix rows; a protocol step sees its
    /// node's share through a `BgpNode` view.
    routes: RouteSlab<O::Stamp>,
    /// Every AS path of the run, hash-consed; lent to each protocol step.
    /// Cleared, buffers kept, by [`Simulator::recycle`].
    paths: PathArena,
    /// The send list every protocol step appends its transmissions to,
    /// `(slot, message)`; [`Simulator::apply_actions`] drains it after each
    /// step, so it is empty between steps and keeps its capacity.
    sends: Vec<(u32, Update<O::Stamp>)>,
    /// The one tally of the run's work outside the event queue: the
    /// decision, path, RIB and MRAI-arm work of every node, tallied by the
    /// steps it is lent to; the wire's share of the queue classes (its
    /// pushes, its pops and the comparisons of its front with the queue's
    /// minimum); deliveries and valid expiries. Monotone: phase costs
    /// only ever diff it.
    ops: OpCounts,
    /// Every node's FIFO input queue, in one pool: (the session slot the
    /// message arrived over, message), as the wire carried them. A node's
    /// processor is busy — a `ProcDone` is scheduled for it — exactly
    /// while its queue is non-empty.
    inbox: InboxPool<O::Stamp>,
    queue: EventQueue<SimEvent>,
    /// The messages in flight, each under a key reserved from the queue
    /// when it was sent: in key order, because every message arrives one
    /// constant [`LINK_DELAY`] after a monotone clock
    /// ([`Simulator::apply_actions`] asserts it).
    wire: std::collections::VecDeque<InFlight<O::Stamp>>,
    /// Messages taken off the wire since the simulator was built or
    /// recycled: [`Simulator::events_processed`] counts them beside the
    /// queue's pops.
    wire_popped: u64,
    rng: Xoshiro256StarStar,
    churn: ChurnCollector,
    /// Time of the most recent delivery or ProcDone (i.e. of actual routing
    /// activity, excluding trailing no-op timer expiries).
    last_activity: SimTime,
    event_limit: u64,
    /// Messages of failed sessions that [`Simulator::fail_link`] discarded
    /// unprocessed.
    messages_dropped: u64,
    /// Next root-cause id. Ids are allocated sequentially per simulator,
    /// stamp or no stamp, so they double as indices into the observer's
    /// root table.
    next_root: u32,
    /// Valid MRAI expiry events scheduled and not yet popped, across all
    /// nodes (occupancy telemetry): the armed timers that an update waits
    /// behind.
    expiries_scheduled: u64,
    /// The latest key ever reserved for an MRAI expiry, scheduled or not:
    /// where [`Simulator::run_to_quiescence`] leaves the clock.
    mrai_horizon: EventKey,
}

/// A simulator blueprint: topology, protocol configuration, and the
/// session slab built from them, all shared.
///
/// The experiment harness runs up to 100 independent C-events over the
/// *same* topology, each from pristine state with its own derived seed.
/// Rebuilding the session arena from the graph repeats the adjacency
/// walk and the sorts; a template does it once, and
/// [`SimTemplate::instantiate`] builds each simulator's nodes straight
/// off the slab — one contiguous [`SessionSlab`] covering every node's
/// adjacency, shared behind a single `Arc` by the template and every node
/// of every instantiation. The template itself holds no node: a pristine
/// node is nothing but its slab stripe and empty tables, so there is
/// nothing to copy it from. The harness instantiates once per worker and
/// then [recycles](Simulator::recycle) that simulator from event to
/// event. Templates are `Send + Sync`, so one template can feed every
/// worker of a parallel fan-out.
#[derive(Clone)]
pub struct SimTemplate {
    graph: Arc<AsGraph>,
    cfg: BgpConfig,
    slab: Arc<SessionSlab>,
}

impl SimTemplate {
    /// Builds the blueprint. Neighbor sessions take the adjacency order of
    /// the graph, which keeps everything deterministic: the whole
    /// topology's sessions land in one arena (`SessionSlab::build`), and
    /// each node of an instantiation holds a slab handle plus its index
    /// instead of a private session table.
    pub fn new(graph: Arc<AsGraph>, cfg: BgpConfig) -> SimTemplate {
        let sessions_of = |id| {
            let session = |nb: &bgpscale_topology::Neighbor| Session {
                peer: nb.id,
                rel: nb.rel,
            };
            (id, graph.neighbors(id).iter().map(session))
        };
        let slab = SessionSlab::build(graph.node_ids().map(sessions_of));
        SimTemplate { graph, cfg, slab }
    }

    /// The topology this template simulates.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The shared session slab (global session id space).
    pub fn slab(&self) -> &Arc<SessionSlab> {
        &self.slab
    }

    /// Stamps out a fresh simulator with its own RNG stream.
    pub fn instantiate(&self, seed: u64) -> Simulator {
        self.instantiate_observed(seed, NoopObserver)
    }

    /// Like [`SimTemplate::instantiate`], but attaches `obs` to receive
    /// telemetry hooks from the event loop.
    pub fn instantiate_observed<O: SimObserver>(&self, seed: u64, obs: O) -> Simulator<O> {
        let churn = ChurnCollector::new(Arc::clone(&self.slab));
        Simulator {
            obs,
            graph: Arc::clone(&self.graph),
            cfg: self.cfg,
            slab: Arc::clone(&self.slab),
            routes: RouteSlab::new(&self.slab),
            paths: PathArena::new(),
            sends: Vec::new(),
            ops: OpCounts::default(),
            inbox: InboxPool::new(self.graph.len()),
            queue: EventQueue::with_capacity(1024),
            wire: std::collections::VecDeque::new(),
            wire_popped: 0,
            rng: Xoshiro256StarStar::new(seed),
            churn,
            last_activity: SimTime::ZERO,
            event_limit: DEFAULT_EVENT_LIMIT,
            messages_dropped: 0,
            next_root: 0,
            expiries_scheduled: 0,
            mrai_horizon: EventKey::ZERO,
        }
    }
}

impl Simulator {
    /// Builds a simulator over `graph`. Neighbor sessions take the
    /// adjacency order of the graph, which keeps everything deterministic.
    pub fn new(graph: AsGraph, cfg: BgpConfig, seed: u64) -> Simulator {
        SimTemplate::new(Arc::new(graph), cfg).instantiate(seed)
    }
}

impl<O: SimObserver> Simulator<O> {
    /// Read access to the attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Consumes the simulator, returning the observer with everything it
    /// collected. The idiomatic end of an observed run.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Attaches `obs` and returns the observer it replaces, with
    /// everything that one collected — the end of an observed run on a
    /// simulator that will be [recycled](Simulator::recycle).
    pub fn replace_observer(&mut self, obs: O) -> O {
        std::mem::replace(&mut self.obs, obs)
    }

    /// The topology being simulated.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The protocol configuration.
    pub fn config(&self) -> &BgpConfig {
        &self.cfg
    }

    /// Read access to a node's protocol state: a view of its share of the
    /// simulator's route columns.
    pub fn node(&self, id: AsId) -> NodeView<'_, O::Stamp> {
        NodeView::new(id, &self.slab, &self.routes)
    }

    /// The arena the AS paths of this run live in: resolves the `PathId`s
    /// that [`NodeView::best_route`] and [`NodeView::advertised`] return.
    /// Ids go stale when the simulator is [recycled](Simulator::recycle).
    pub fn paths(&self) -> &PathArena {
        &self.paths
    }

    /// The churn collector (counter read access).
    pub fn churn(&self) -> &ChurnCollector {
        &self.churn
    }

    /// Mutable churn collector access (enable/disable/reset).
    pub fn churn_mut(&mut self) -> &mut ChurnCollector {
        &mut self.churn
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Time of the last routing activity (message delivery or processing
    /// completion) — the convergence instant of the previous phase,
    /// excluding trailing idle MRAI expiries.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// Total events processed so far, deliveries included.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped() + self.wire_popped
    }

    /// Overrides the per-run event budget (tests use small budgets to
    /// exercise the error path).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Messages lost to link failures: every message of a failed session
    /// that was still on the wire or waiting in an input queue when
    /// [`Simulator::fail_link`] took the session down.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// True if the `a`–`b` link is currently failed: `a`'s session
    /// towards `b` is down (the two ends fail and come back together).
    /// False if `a` and `b` are not neighbors.
    pub fn link_down(&self, a: AsId, b: AsId) -> bool {
        let node = self.node(a);
        node.slot_of(b).is_some_and(|slot| !node.queue(slot).is_up())
    }

    /// Allocates a fresh root-cause id for a workload action at `node`,
    /// notifies the observer, and returns the depth-0 stamp every update
    /// caused by the action will carry (or derive from via
    /// [`Stamp::child`]).
    fn new_root(&mut self, kind: RootCauseKind, node: AsId) -> O::Stamp {
        let id = self.next_root;
        self.next_root += 1;
        self.obs.on_root_cause(id, kind, node, self.queue.now());
        O::Stamp::root(id)
    }

    /// Runs one protocol step at `node`, caused by `cause`, in the event
    /// being processed: builds the node's view of the route columns and
    /// lends it everything else, the clock included, so its timers, expiry
    /// events and damping wake-ups are keyed and scheduled as it runs. Its
    /// sends wait in `self.sends` for [`Simulator::apply_actions`]. The
    /// observer hears the occupancy gauge once if the step scheduled an
    /// expiry.
    fn lend_step(
        &mut self,
        node: AsId,
        cause: O::Stamp,
        entry: impl FnOnce(&mut BgpNode<O::Stamp>, &mut Step<O::Stamp>),
    ) {
        let scheduled_before = self.expiries_scheduled;
        let now = self.queue.last_key();
        let mut clock = SimClock {
            node,
            queue: &mut self.queue,
            rng: &mut self.rng,
            mrai_horizon: &mut self.mrai_horizon,
            expiries_scheduled: &mut self.expiries_scheduled,
        };
        let mut step = Step {
            cfg: &self.cfg,
            now,
            cause,
            paths: &mut self.paths,
            clock: &mut clock,
            out: &mut self.sends,
            costs: &mut self.ops,
        };
        entry(&mut BgpNode::new(node, &self.slab, &mut self.routes), &mut step);
        if self.expiries_scheduled > scheduled_before {
            self.obs.on_timer_occupancy(self.expiries_scheduled, now.time);
        }
    }

    /// Fails the `a`–`b` link (an "L-event"): both BGP sessions drop,
    /// each side invalidates everything learned from the other and
    /// notifies its remaining neighbors, and every message of the two
    /// sessions not yet processed is lost — in flight, or waiting in
    /// either end's input queue, where it keeps its turn at the processor
    /// but runs no protocol step. The losses count in
    /// [`Simulator::messages_dropped`].
    ///
    /// # Panics
    /// Panics if `a`–`b` is not a topology link or is already down.
    #[expect(
        clippy::expect_used,
        reason = "the assert above checked that a–b is a link, and every link is a session at both ends; \
                  the occupancy gauge counts each valid expiry once, so it cannot go below zero unless \
                  an expiry was taken for valid twice"
    )]
    pub fn fail_link(&mut self, a: AsId, b: AsId) {
        assert!(self.graph.has_link(a, b), "fail_link on non-adjacent {a}–{b}");
        assert!(!self.link_down(a, b), "link {a}–{b} already down");
        // One root cause covers both directions of the failure: churn on
        // either side is attributed to the same L-event.
        let cause = self.new_root(RootCauseKind::SessionDown, a);
        let now = self.queue.last_key();
        for (x, y) in [(a, b), (b, a)] {
            let node = NodeView::new(x, &self.slab, &self.routes);
            let slot = node.slot_of(y).expect("adjacent");
            let queue = node.queue(slot);
            // `session_down` force-resets the output queue, forgetting its
            // timers. The clock must still pass the key of each armed one:
            // those no event stands for get theirs now, stale on arrival
            // like the ones already scheduled.
            for (row, key) in queue.silent_timers(now) {
                self.queue.schedule_reserved(key, SimEvent::MraiExpire { node: x, slot, row });
            }
            // The valid expiries are about to go stale; account for them
            // so the occupancy gauge stays exact.
            let disarmed = queue.scheduled_expiries() as u64;
            if disarmed > 0 {
                self.expiries_scheduled = self
                    .expiries_scheduled
                    .checked_sub(disarmed)
                    .expect("expiry gauge below zero: an expiry taken for valid twice");
                self.obs
                    .on_timer_occupancy(self.expiries_scheduled, self.queue.now());
            }
            self.discard_messages(x, slot);
            self.lend_step(x, cause, |node, step| node.session_down_caused(slot, step));
            self.apply_actions(x);
        }
    }

    /// Discards every message that arrived or is arriving at `node` over
    /// session `slot` and has not been processed: taken off the wire (a
    /// pop of the queue classes, so pushes still equal pops at
    /// quiescence), and marked in the input queue, where it keeps its
    /// turn at the processor.
    fn discard_messages(&mut self, node: AsId, slot: u32) {
        let on_wire = self.wire.len();
        self.wire.retain(|msg| (msg.to, msg.slot) != (node, slot));
        let on_wire = (on_wire - self.wire.len()) as u64;
        self.ops.queue_pops += on_wire;
        self.messages_dropped += on_wire + self.inbox.discard(node.index(), slot);
    }

    /// Restores a previously failed link: both sessions re-establish and
    /// exchange their current tables. Nothing either side sent before the
    /// failure arrives after it: [`Simulator::fail_link`] discarded it.
    ///
    /// # Panics
    /// Panics if the link is not currently down.
    #[expect(
        clippy::expect_used,
        reason = "link_down found the session, so a–b is a link and a session at both ends"
    )]
    pub fn restore_link(&mut self, a: AsId, b: AsId) {
        assert!(self.link_down(a, b), "link {a}–{b} is not down");
        let cause = self.new_root(RootCauseKind::SessionUp, a);
        for (x, y) in [(a, b), (b, a)] {
            let slot = self.node(x).slot_of(y).expect("adjacent");
            self.lend_step(x, cause, |node, step| node.session_up_caused(slot, step));
            self.apply_actions(x);
        }
    }

    /// Node `origin` starts originating `prefix` (the "UP" action).
    pub fn originate(&mut self, origin: AsId, prefix: Prefix) {
        let cause = self.new_root(RootCauseKind::Originate, origin);
        self.lend_step(origin, cause, |node, step| node.originate_caused(prefix, step));
        self.apply_actions(origin);
    }

    /// Node `origin` stops originating `prefix` (the "DOWN" action).
    pub fn withdraw(&mut self, origin: AsId, prefix: Prefix) {
        let cause = self.new_root(RootCauseKind::WithdrawOrigin, origin);
        self.lend_step(origin, cause, |node, step| node.withdraw_origin_caused(prefix, step));
        self.apply_actions(origin);
    }

    /// Processes events up to and including `deadline`, then stops (the
    /// queue may still hold later events). Used by timed workloads (flap
    /// storms) that inject actions mid-convergence. The clock is left at
    /// the last event processed or at the latest MRAI timer to run out by
    /// `deadline`, whichever is later — not at `deadline` itself.
    ///
    /// # Errors
    /// [`EventBudgetExceeded`] if the event budget is exhausted first.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), EventBudgetExceeded> {
        self.event_loop(EventKey {
            time: deadline,
            seq: u64::MAX,
        })?;
        // Timers nothing waited behind ran out without an event; the clock
        // passes the latest of them as if its expiry had popped.
        self.queue.advance_to(self.routes.latest_timer_key_by(deadline));
        Ok(())
    }

    /// The event loop: while the earlier of the queue's minimum and the
    /// wire's front is at or before `bound`, takes it and runs it.
    fn event_loop(&mut self, bound: EventKey) -> Result<(), EventBudgetExceeded> {
        let start = self.events_processed();
        loop {
            let front = self.wire.front().map(|msg| msg.key).filter(|&key| key <= bound);
            if let Some((time, event)) = self.queue.pop_by(front.unwrap_or(bound)) {
                self.ops.queue_comparisons += u64::from(!self.wire.is_empty());
                self.dispatch(time, event);
            } else {
                // The front is next, if it is due: its turn is the clock's.
                let Some(msg) = front.and_then(|_| self.wire.pop_front()) else {
                    return Ok(());
                };
                self.ops.queue_comparisons += u64::from(!self.queue.is_empty());
                self.ops.queue_pops += 1;
                self.wire_popped += 1;
                self.queue.advance_to(msg.key);
                self.deliver(msg);
            }
            if self.events_processed() - start > self.event_limit {
                return Err(self.budget_exceeded(start));
            }
        }
    }

    /// Builds the budget-exhaustion error with a state snapshot — called
    /// only on the failure path, so the scans here cost nothing normally.
    fn budget_exceeded(&self, start: u64) -> EventBudgetExceeded {
        let mut pending_by_kind = [0u64; 4];
        let queued = self.queue.iter_pending().map(|(_, event)| event.kind());
        for kind in queued.chain(self.wire.iter().map(|_| EventKind::Deliver)) {
            if let Some(pending) = pending_by_kind.get_mut(kind.index()) {
                *pending += 1;
            }
        }
        let busiest_inbox = self
            .inbox
            .busiest()
            .map(|(i, len)| (AsId(i as u32), len as usize));
        EventBudgetExceeded {
            budget: self.event_limit,
            processed: self.events_processed() - start,
            snapshot: BudgetSnapshot {
                sim_time_us: self.queue.now().as_micros(),
                queue_depth: (self.queue.len() + self.wire.len()) as u64,
                pending_by_kind,
                busiest_inbox,
            },
        }
    }

    /// Runs until the event queue and the wire are empty, then moves the
    /// clock to the MRAI horizon: all RIBs stable, all timers idle.
    /// Returns the time of the last routing activity.
    ///
    /// # Errors
    /// [`EventBudgetExceeded`] if the configured event budget is exhausted
    /// first.
    pub fn run_to_quiescence(&mut self) -> Result<SimTime, EventBudgetExceeded> {
        self.event_loop(EventKey::NEVER)?;
        self.queue.advance_to(self.mrai_horizon);
        self.obs
            .on_quiescence(self.last_activity, self.events_processed());
        Ok(self.last_activity)
    }

    /// Clears all routing state (RIBs, Adj-RIB-outs, pending updates) on
    /// every node, keeping topology, clock and counters. Used between
    /// C-events so per-event state cannot accumulate.
    ///
    /// # Panics
    /// Panics if events are still pending — reset is only meaningful at
    /// quiescence.
    pub fn reset_routing(&mut self) {
        assert!(
            self.queue.is_empty() && self.wire.is_empty(),
            "reset_routing while {} events are pending",
            self.queue.len() + self.wire.len()
        );
        debug_assert!(self.inbox.is_empty());
        self.routes.reset_routing(self.queue.last_key());
    }

    /// Restores, in place and from **any** state, exactly the observable
    /// state of `template.instantiate(seed)`: clock at zero, event queue,
    /// wire and input queues empty, processors idle, RNG reseeded, root-cause
    /// ids from 0, churn counters zeroed and disabled, the default event
    /// limit, every link up, the path arena holding the empty path only
    /// (so the run hands out the `PathId`s a fresh one would), and every
    /// route as constructed (see [`RouteSlab::recycle`]). Pending events,
    /// busy processors, armed timers and failed links — the remains of a
    /// run that blew its event budget, or of an L-event never restored —
    /// are simply discarded.
    ///
    /// What is kept: the buffers (that is the point — the harness runs
    /// every C-event of a worker on one simulator instead of building its
    /// route columns per event), the attached observer (swap it
    /// with [`Simulator::replace_observer`]), and the monotone cost
    /// tallies behind [`Simulator::cost_counts`], which phase costs only
    /// ever diff.
    pub fn recycle(&mut self, seed: u64) {
        self.queue.reset();
        self.wire.clear();
        self.wire_popped = 0;
        self.inbox.clear();
        self.routes.recycle();
        self.paths.clear();
        self.rng = Xoshiro256StarStar::new(seed);
        self.churn.reset();
        self.churn.set_enabled(false);
        self.last_activity = SimTime::ZERO;
        self.event_limit = DEFAULT_EVENT_LIMIT;
        self.messages_dropped = 0;
        self.next_root = 0;
        self.expiries_scheduled = 0;
        self.mrai_horizon = EventKey::ZERO;
    }

    /// `msg` arrives, its key just had its turn.
    fn deliver(&mut self, msg: InFlight<O::Stamp>) {
        let InFlight { key, to, slot, update } = msg;
        let now = key.time;
        self.obs.on_event(EventKind::Deliver, now);
        let stripe = self.slab.stripe(to.0);
        let session = self.slab.session(stripe, slot);
        let from = session.peer;
        self.last_activity = now;
        self.ops.deliveries += 1;
        self.churn.record(stripe, slot, update.kind.is_withdraw());
        // Depth the arriving message will reach once enqueued — the
        // receiver-side backlog signal.
        let inbox_depth = self.inbox.len(to.index()) + 1;
        self.obs.on_message(
            from,
            to,
            session.rel,
            if update.kind.is_withdraw() {
                UpdateClass::Withdraw
            } else {
                UpdateClass::Announce
            },
            update.prefix.0,
            || update.kind.path().map(|p| self.paths.len(p) as u32),
            &update.stamp,
            self.paths.root_sets(),
            inbox_depth,
            now,
        );
        self.inbox.push(to.index(), slot, update);
        // The first message to wait starts the processor.
        if inbox_depth == 1 {
            let service = self.draw_service_time();
            self.queue
                .schedule(now + service, SimEvent::ProcDone { node: to });
        }
    }


    #[expect(
        clippy::expect_used,
        reason = "a ProcDone with an empty inbox, or an expiry gauge below zero (an expiry taken for \
                  valid twice), is a scheduling-invariant breach that must abort the run, not be masked"
    )]
    fn dispatch(&mut self, now: SimTime, event: SimEvent) {
        self.obs.on_event(event.kind(), now);
        match event {
            SimEvent::ProcDone { node } => {
                let entry = self.inbox.pop(node.index()).expect("ProcDone with empty input queue");
                // A message discarded by a link failure had its turn, and
                // runs no protocol step.
                if let Some((slot, update)) = entry {
                    self.last_activity = now;
                    // `receive` takes the step's cause from the message.
                    self.lend_step(node, O::Stamp::default(), |n, step| n.receive(slot, update, step));
                    self.obs.on_decision_run(node, now);
                    self.apply_actions(node);
                }
                if self.inbox.len(node.index()) > 0 {
                    let service = self.draw_service_time();
                    self.queue
                        .schedule(now + service, SimEvent::ProcDone { node });
                }
            }
            SimEvent::MraiExpire { node, slot, row } => {
                if !self.node(node).queue(slot).expiry_due(row, self.queue.last_key()) {
                    return; // stale expiry from before a session reset
                }
                self.expiries_scheduled = self
                    .expiries_scheduled
                    .checked_sub(1)
                    .expect("expiry gauge below zero: an expiry taken for valid twice");
                self.ops.mrai_fired += 1;
                self.obs.on_timer_occupancy(self.expiries_scheduled, now);
                let no_cause = O::Stamp::default(); // a flush sends stamps stored earlier
                self.lend_step(node, no_cause, |n, step| n.mrai_flush(slot, row, step));
                self.obs.on_mrai_flush(node, self.sends.len() as u32, now);
                self.apply_actions(node);
            }
            SimEvent::RfdReuse { node, slot, row } => {
                let cause = self.new_root(RootCauseKind::RfdReuse, node);
                self.lend_step(node, cause, |n, step| n.rfd_reuse_caused(slot, row, step));
                self.apply_actions(node);
            }
        }
    }

    /// Puts the transmissions that the protocol step just run at `node`
    /// appended to `self.sends` on the wire, one link delay out, leaving
    /// the list empty for the next step.
    fn apply_actions(&mut self, node: AsId) {
        if self.sends.is_empty() {
            return;
        }
        let arrival = self.queue.now() + LINK_DELAY;
        // The event loop takes the wire's front as its next message,
        // which is only right while the wire is in key order — true for
        // one constant link delay, and what a per-link delay would have to
        // give up the wire for.
        if let Some(tail) = self.wire.back() {
            assert!(
                arrival >= tail.key.time,
                "a message arriving at {arrival:?} scheduled before the wire's tail {:?}",
                tail.key.time
            );
        }
        let stripe = self.slab.stripe(node.0);
        for (slot, update) in self.sends.drain(..) {
            let (to, slot) = self.slab.far_end(stripe, slot);
            let key = self.queue.reserve(arrival);
            self.wire.push_back(InFlight { key, to, slot, update });
            self.ops.queue_pushes += 1;
        }
    }

    /// The current cost-model snapshot: the simulator's own tally plus
    /// the event queue's op counts plus the arena footprint, in one
    /// [`OpCounts`]. All constituents are monotone within a C-event —
    /// `arena_bytes_reserved` is a footprint gauge, but arenas only grow
    /// until the inter-event [`Simulator::reset_routing`] — so two
    /// snapshots can be subtracted to attribute work to the interval
    /// between them (see [`bgpscale_obs::costmodel`]).
    pub fn cost_counts(&self) -> OpCounts {
        let q = self.queue.op_counts();
        let mut ops = OpCounts {
            queue_pushes: q.pushes,
            queue_pops: q.pops,
            queue_decreases: q.decreases,
            queue_comparisons: q.comparisons,
            // The slab is immutable and shared; count it once, not per
            // node. The route columns keep their own tally.
            arena_bytes_reserved: self.slab.arena_bytes() + self.routes.arena_bytes(),
            ..OpCounts::default()
        };
        ops.add(&self.ops);
        ops
    }

    /// Uniform over `(0, PROC_DELAY_MAX]`; never zero, so that
    /// processing strictly follows arrival.
    fn draw_service_time(&mut self) -> SimDuration {
        SimDuration::from_micros(1 + self.rng.next_below(PROC_DELAY_MAX.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::{generate, GrowthScenario, NodeType, RegionSet, Relationship};

    const P: Prefix = Prefix(0);

    /// T0==T1 peering; M2→T0, M3→T1; C4→M2, C5→M3.
    fn chain_graph() -> (AsGraph, [AsId; 6]) {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, r);
        let t1 = g.add_node(NodeType::T, r);
        let m2 = g.add_node(NodeType::M, r);
        let m3 = g.add_node(NodeType::M, r);
        let c4 = g.add_node(NodeType::C, r);
        let c5 = g.add_node(NodeType::C, r);
        g.add_peer_link(t0, t1);
        g.add_transit_link(m2, t0);
        g.add_transit_link(m3, t1);
        g.add_transit_link(c4, m2);
        g.add_transit_link(c5, m3);
        (g, [t0, t1, m2, m3, c4, c5])
    }

    #[test]
    fn announcement_reaches_every_node() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 1);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        for &id in &ids {
            assert!(
                sim.node(id).best_route(P).is_some(),
                "{id} has no route after convergence"
            );
        }
    }

    #[test]
    fn converged_paths_are_valley_free_shortest() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 2);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        // C5's route: up M3, up T1, peer T0, down M2, down C4 = 5 hops.
        let (next, path) = sim.node(ids[5]).best_route(P).unwrap();
        assert_eq!(next, Some(ids[3]));
        assert_eq!(sim.paths().len(path), 5);
        assert_eq!(sim.paths().hops(path).last(), Some(ids[4]), "path ends at the origin");
    }

    #[test]
    fn withdraw_removes_all_routes() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 3);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        for &id in &ids {
            if id != ids[4] {
                assert!(
                    sim.node(id).best_route(P).is_none(),
                    "{id} still routes a withdrawn prefix"
                );
            }
        }
    }

    #[test]
    fn reannouncement_restores_identical_routes() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 4);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        let before: Vec<_> = ids
            .iter()
            .map(|&id| sim.node(id).best_route(P))
            .collect();
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        let after: Vec<_> = ids
            .iter()
            .map(|&id| sim.node(id).best_route(P))
            .collect();
        assert_eq!(before, after, "routing must return to the same fixpoint");
    }

    #[test]
    fn same_seed_same_message_count() {
        let (g, ids) = chain_graph();
        let mut a = Simulator::new(g.clone(), BgpConfig::default(), 5);
        let mut b = Simulator::new(g, BgpConfig::default(), 5);
        for sim in [&mut a, &mut b] {
            sim.churn_mut().set_enabled(true);
            sim.originate(ids[4], P);
            sim.run_to_quiescence().unwrap();
        }
        assert_eq!(a.churn().total(), b.churn().total());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn churn_counting_respects_enable_flag() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 6);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.churn().total(), 0, "collector starts disabled");
        sim.churn_mut().set_enabled(true);
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        assert!(sim.churn().total() > 0);
    }

    #[test]
    fn single_homed_chain_counts_minimal_updates() {
        // In a pure chain, each node hears exactly one withdrawal and one
        // announcement per C-event (the TREE result of §5.2).
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 7);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.churn_mut().set_enabled(true);
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        for &id in &ids {
            if id == ids[4] {
                continue;
            }
            let got = sim.churn().node_total(id);
            assert_eq!(got, 2, "{id} expected exactly DOWN+UP, got {got}");
        }
    }

    #[test]
    fn wrate_generates_at_least_as_much_churn() {
        let g = generate(GrowthScenario::Baseline, 200, 42);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        let mut total = [0u64; 2];
        for (i, cfg) in [BgpConfig::no_wrate(), BgpConfig::wrate()].into_iter().enumerate() {
            let mut sim = Simulator::new(g.clone(), cfg, 8);
            sim.originate(origin, P);
            sim.run_to_quiescence().unwrap();
            sim.churn_mut().set_enabled(true);
            sim.withdraw(origin, P);
            sim.run_to_quiescence().unwrap();
            sim.originate(origin, P);
            sim.run_to_quiescence().unwrap();
            total[i] = sim.churn().total();
        }
        assert!(
            total[1] >= total[0],
            "WRATE ({}) produced less churn than NO-WRATE ({})",
            total[1],
            total[0]
        );
    }

    #[test]
    fn cost_counts_are_exactly_repeatable_and_monotone() {
        let (g, ids) = chain_graph();
        let run = || {
            let mut sim = Simulator::new(g.clone(), BgpConfig::default(), 21);
            sim.originate(ids[4], P);
            sim.run_to_quiescence().unwrap();
            let mid = sim.cost_counts();
            sim.withdraw(ids[4], P);
            sim.run_to_quiescence().unwrap();
            (mid, sim.cost_counts())
        };
        let (mid_a, end_a) = run();
        let (mid_b, end_b) = run();
        assert_eq!(mid_a, mid_b, "same seed, same op counts");
        assert_eq!(end_a, end_b);
        // Monotone: the DOWN phase only adds work.
        let delta = end_a.since(&mid_a);
        assert!(delta.deliveries > 0, "withdrawals were delivered");
        assert_eq!(end_a.since(&delta), mid_a);
        // Conservation at quiescence: every push was popped — a timer
        // that ran out unscheduled was neither.
        assert_eq!(end_a.queue_pushes, end_a.queue_pops);
        assert!(end_a.decision_runs > 0);
        // `mrai_armed` counts arms, `mrai_fired` the expiry events that
        // popped: on a chain every node announces once per session and
        // nothing ever waits behind a timer.
        assert_eq!(mid_a.mrai_armed, 5, "one arm per hop of the announcement");
        assert_eq!(end_a.mrai_fired, 0);
        assert_eq!(end_a.queue_pushes, 2 * end_a.deliveries, "a Deliver and a ProcDone per message");
    }

    #[test]
    fn template_shares_one_session_slab_across_nodes_and_instances() {
        let (g, ids) = chain_graph();
        let template = SimTemplate::new(Arc::new(g), BgpConfig::default());
        let slab = Arc::clone(template.slab());
        assert_eq!(slab.len(), 6);
        assert_eq!(slab.total_sessions(), 10, "5 links, 2 sessions each");
        let mut a = template.instantiate(1);
        let b = template.instantiate(2);
        for sim in [&a, &b] {
            for &id in &ids {
                assert!(
                    Arc::ptr_eq(sim.node(id).slab(), &slab),
                    "{id} must borrow the template slab, not own a copy"
                );
            }
        }
        // The stamped-out simulator converges.
        a.originate(ids[4], P);
        a.run_to_quiescence().unwrap();
        assert!(a.node(ids[0]).best_route(P).is_some());
    }

    #[test]
    fn cost_counts_report_arena_footprint_and_cascades() {
        let (g, ids) = chain_graph();
        let template = SimTemplate::new(Arc::new(g), BgpConfig::default());
        let mut sim = template.instantiate(17);
        let empty = sim.cost_counts().arena_bytes_reserved;
        assert!(empty > 0, "the session slab alone reserves bytes");
        // Two prefixes from each of two stubs: each second prefix waits
        // behind the timer its first armed, so expiry events 22.5–30 s out
        // share buckets of the radix heap while the processing completions
        // come and go, and a pop re-buckets the rest of its bucket.
        sim.originate(ids[4], P);
        sim.originate(ids[4], Prefix(1));
        sim.originate(ids[5], Prefix(2));
        sim.originate(ids[5], Prefix(3));
        sim.run_to_quiescence().unwrap();
        let routed = sim.cost_counts();
        assert!(
            routed.arena_bytes_reserved > empty,
            "prefix rows grew the arenas: {} !> {empty}",
            routed.arena_bytes_reserved
        );
        // The radix heap's re-bucketed entries and the comparisons that
        // keep its buckets' minima flow through to OpCounts; the reserved
        // `queue_cascades` class reads 0.
        assert!(routed.mrai_fired > 0, "updates waited behind timers");
        assert!(routed.queue_decreases > 0, "expected re-bucketed entries");
        assert!(routed.queue_comparisons > 0, "expected comparisons against a bucket's minimum");
        assert_eq!(routed.queue_cascades, 0);
    }

    #[test]
    fn event_budget_error_path() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 9);
        sim.set_event_limit(3);
        sim.originate(ids[4], P);
        let err = sim.run_to_quiescence().unwrap_err();
        assert_eq!((err.budget, err.processed), (3, 4));
        let text = err.to_string();
        assert!(text.contains("did not quiesce"));
        assert!(text.contains("within its budget of 3 events (4 processed)"), "{text}");
    }

    /// The snapshot of a run abandoned mid-convergence covers the event
    /// queue and the wire, and `recycle` clears both.
    #[test]
    fn budget_snapshot_covers_the_queue_and_the_wire() {
        let g = generate(GrowthScenario::Baseline, 200, 42);
        let origin = g.nodes_of_type(NodeType::C)[0];
        let template = SimTemplate::new(Arc::new(g), BgpConfig::no_wrate());
        let mut sim = template.instantiate(15);
        sim.set_event_limit(150);
        sim.originate(origin, P);
        let snap = sim.run_to_quiescence().unwrap_err().snapshot;
        let deliver = EventKind::Deliver.index();
        assert_eq!(snap.pending_by_kind.iter().sum::<u64>(), snap.queue_depth);
        assert_eq!(snap.queue_depth, (sim.queue.len() + sim.wire.len()) as u64);
        assert!(snap.pending_by_kind[deliver] > 0, "messages are in flight");
        assert!(snap.pending_by_kind[EventKind::MraiExpire.index()] > 0, "timers are armed");
        assert_eq!(snap.pending_by_kind[deliver], sim.wire.len() as u64);
        assert_eq!(snap.sim_time_us, sim.now().as_micros());

        let wire_capacity = sim.wire.capacity();
        sim.recycle(16);
        assert!(sim.queue.is_empty() && sim.wire.is_empty());
        assert_eq!(sim.events_processed(), 0, "the wire's pops are forgotten too");
        assert_eq!(sim.wire.capacity(), wire_capacity, "recycle keeps buffers");
        // That the recycled simulator then equals a fresh one is
        // `recycle_equivalence.rs`'s blown-budget case; here, only that
        // a run to quiescence takes every `Update` off the wire.
        sim.originate(origin, P);
        sim.run_to_quiescence().unwrap();
        assert!(sim.wire.is_empty(), "quiescence leaves nothing on the wire");
    }

    #[derive(Default)]
    struct FlushCounter {
        flushes: u64,
        empty: u64,
        sent: u64,
    }

    impl SimObserver for FlushCounter {
        type Stamp = ();

        fn on_mrai_flush(&mut self, _node: AsId, sent: u32, _now: SimTime) {
            self.flushes += 1;
            self.empty += u64::from(sent == 0);
            self.sent += u64::from(sent);
        }
    }

    /// `on_mrai_flush` fires once per valid expiry event, and an expiry
    /// event exists only where an update waited behind the timer: the
    /// timers that run out with nothing queued fire no hook.
    /// metrics.json's `mrai.flushes` and the flush histogram are built on
    /// that; its zero bin holds the flushes whose every waiting update had
    /// become a no-op by the time the timer expired.
    #[test]
    fn flush_hook_fires_only_where_an_update_waited() {
        let g = generate(GrowthScenario::Baseline, 200, 42);
        let origin = g.nodes_of_type(NodeType::C)[0];
        let template = SimTemplate::new(Arc::new(g), BgpConfig::wrate());
        let mut sim = template.instantiate_observed(19, FlushCounter::default());
        sim.originate(origin, P);
        sim.run_to_quiescence().unwrap();
        sim.withdraw(origin, P);
        sim.run_to_quiescence().unwrap();
        let costs = sim.cost_counts();
        let seen = sim.observer();
        assert!(costs.mrai_fired > 0);
        assert_eq!(seen.flushes, costs.mrai_fired, "one hook per valid expiry");
        assert!(
            costs.mrai_fired < costs.mrai_armed,
            "most timers run out unscheduled: {} fired of {} armed",
            costs.mrai_fired,
            costs.mrai_armed
        );
        assert!(seen.sent > 0, "the expiries release queued updates");
        assert!(seen.empty < seen.flushes, "a flush that sends nothing is the exception");
    }

    /// Every arm scales the 30 s MRAI by a factor drawn from the
    /// standard's [0.75, 1]: each interval lies in [22.5 s, 30 s], and
    /// the draws differ.
    #[test]
    fn mrai_intervals_are_jittered_within_the_standard_range() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 26);
        let now = sim.queue.now();
        let mut clock = SimClock {
            node: ids[0],
            queue: &mut sim.queue,
            rng: &mut sim.rng,
            mrai_horizon: &mut sim.mrai_horizon,
            expiries_scheduled: &mut sim.expiries_scheduled,
        };
        let keys: Vec<EventKey> = (0..10_000).map(|_| clock.arm()).collect();
        assert!(keys.windows(2).all(|pair| pair[0].seq < pair[1].seq), "every arm reserves a key of its own");
        assert_eq!(sim.mrai_horizon, keys.iter().copied().max().unwrap(), "the horizon is the latest key");
        assert_eq!((sim.queue.len(), sim.expiries_scheduled), (0, 0), "an arm schedules no event");
        let draws: Vec<SimDuration> = keys.iter().map(|key| key.time.since(now)).collect();
        let (lo, hi) = (draws.iter().min().unwrap(), draws.iter().max().unwrap());
        let range = SimDuration::from_millis(22_500)..=SimDuration::from_secs(30);
        assert!(range.contains(lo) && range.contains(hi), "drawn {lo:?} ..= {hi:?}");
        assert!(lo < hi, "every draw was {lo:?}");
    }

    /// Routing is over within seconds; the timers armed on the way run
    /// out half a minute later, with no event to carry the clock there.
    /// Quiescence leaves it at the latest key reserved all the same, so
    /// the next phase starts with every timer idle.
    #[test]
    fn quiescence_leaves_the_clock_at_the_mrai_horizon() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 22);
        sim.originate(ids[4], P);
        let converged = sim.run_to_quiescence().unwrap();
        let horizon = sim.mrai_horizon;
        assert_eq!(sim.queue.last_key(), horizon);
        assert_eq!(sim.now(), horizon.time);
        assert!(horizon.time >= converged + SimDuration::from_secs(22));
        assert_eq!(sim.cost_counts().mrai_fired, 0, "no expiry event got it there");
        let now = sim.queue.last_key();
        for &id in &ids {
            let node = sim.node(id);
            assert!((0..node.sessions().len() as u32).all(|slot| !node.queue(slot).timer_armed(now)));
        }
        // So a withdrawal right away is a fresh window everywhere, and
        // `reset_routing` accepts the state.
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        assert!(sim.mrai_horizon == horizon, "NO-WRATE withdrawals arm nothing");
        sim.reset_routing();
    }

    /// `run_until` stops between events; the timers due by the deadline
    /// have run out by then, event or not, and the clock says so.
    #[test]
    fn run_until_passes_lapsed_timers() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 23);
        sim.originate(ids[4], P);
        sim.run_until(SimTime::from_secs(10)).unwrap();
        assert!(sim.now() < SimTime::from_secs(5), "the last event, not the deadline");
        assert!(sim.queue.is_empty(), "converged; only unscheduled timers remain");
        let origin_timer = sim.node(ids[4]).latest_timer_key_by(SimTime::MAX);
        let armed = |sim: &Simulator| sim.node(ids[4]).queue(0).timer_armed(sim.queue.last_key());
        assert!(armed(&sim));

        // A deadline between the first timer to run out and the last.
        sim.run_until(origin_timer.time).unwrap();
        assert_eq!(sim.now(), origin_timer.time);
        assert!(!armed(&sim), "the origin's timer has run out");
        assert!(sim.queue.last_key() < sim.mrai_horizon, "later ones have not");

        sim.run_until(SimTime::from_secs(3_600)).unwrap();
        assert_eq!(sim.queue.last_key(), sim.mrai_horizon);
        assert_eq!(sim.events_processed(), sim.cost_counts().queue_pops);
    }

    /// A session reset forgets the queue's timers, but the clock must
    /// still pass the key of one that was armed with no event scheduled:
    /// `fail_link` schedules it, stale. M3's timer towards its stub is
    /// such a one; a deadline at its key shows the stale event carried
    /// the clock there, for no timer still armed holds that key.
    #[test]
    fn a_timer_forgotten_by_a_session_reset_still_carries_the_clock_past_its_key() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 24);
        sim.originate(ids[4], P);
        sim.run_until(SimTime::from_secs(5)).unwrap();
        let (m3, c5) = (ids[3], ids[5]);
        let forgotten = sim.node(m3).latest_timer_key_by(SimTime::MAX);
        assert!(forgotten.time > SimTime::from_secs(5), "M3 armed a timer towards C5");
        assert_eq!(sim.expiries_scheduled, 0);

        sim.fail_link(m3, c5);
        assert_eq!(sim.node(m3).latest_timer_key_by(SimTime::MAX), EventKey::ZERO);
        assert_eq!(sim.queue.len(), 1, "the forgotten timer's expiry, stale");
        assert_eq!(sim.expiries_scheduled, 0, "which no gauge counts");
        let held = sim.routes.latest_timer_key_by(forgotten.time);
        assert!(held < forgotten, "no armed timer holds the forgotten key");
        sim.run_until(forgotten.time).unwrap();
        assert_eq!(sim.queue.last_key(), forgotten);
        sim.run_until(SimTime::from_secs(60)).unwrap();
        assert_eq!(sim.queue.last_key(), sim.mrai_horizon);
        assert_eq!(sim.cost_counts().mrai_fired, 0, "a stale expiry flushes nothing");
    }

    /// The expiry events a link failure leaves behind — one scheduled
    /// because an update waited, one scheduled by `fail_link` for a timer
    /// armed silently — are stale for good: the sessions come back, arm
    /// new timers, an update waits behind one of them, and the old events
    /// still pop as no-ops while the new one flushes.
    #[test]
    fn expiries_from_before_a_link_failure_stay_stale_after_the_link_is_back() {
        let mut g = AsGraph::new();
        let t = g.add_node(NodeType::T, RegionSet::all(1));
        let c = g.add_node(NodeType::C, RegionSet::all(1));
        g.add_transit_link(c, t);
        let template = SimTemplate::new(Arc::new(g), BgpConfig::default());
        let mut sim = template.instantiate_observed(25, FlushCounter::default());
        let pending_expiries = |sim: &Simulator<FlushCounter>| {
            let expiries = sim.queue.iter_pending().filter(|(_, e)| e.kind() == EventKind::MraiExpire);
            expiries.count()
        };
        // T's timer towards C is armed with nothing behind it; C's towards
        // T has a second prefix waiting.
        sim.originate(t, Prefix(9));
        sim.originate(c, P);
        sim.originate(c, Prefix(1));
        sim.run_until(SimTime::from_secs(5)).unwrap();
        assert_eq!((sim.expiries_scheduled, pending_expiries(&sim), sim.queue.len()), (1, 1, 1));
        assert_eq!(sim.node(t).best_route(Prefix(1)), None, "still waiting at C");

        sim.fail_link(c, t);
        assert_eq!((sim.expiries_scheduled, pending_expiries(&sim)), (0, 2), "both stale, neither counted");
        sim.restore_link(c, t);
        sim.originate(c, Prefix(2));
        assert_eq!((sim.expiries_scheduled, pending_expiries(&sim)), (1, 3), "the new window's expiry");
        let new_timer = sim.node(c).latest_timer_key_by(SimTime::MAX);

        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.expiries_scheduled, 0);
        assert_eq!(sim.cost_counts().mrai_fired, 1, "only the new expiry was valid");
        let seen = sim.observer();
        assert_eq!((seen.flushes, seen.sent), (1, 1), "and it alone flushed, the one update waiting");
        assert!(sim.node(t).best_route(Prefix(2)).is_some());
        assert!(sim.queue.last_key() > new_timer, "the flush re-armed C's timer");
    }

    /// C4's announcement is on the wire when its only link fails; C4
    /// withdraws during the outage, which its neighbor cannot hear, and
    /// the link comes back. The announcement is lost with the session it
    /// was sent on, so nobody routes the withdrawn prefix.
    #[test]
    fn a_message_in_flight_at_a_link_failure_never_arrives() {
        let (g, ids) = chain_graph();
        let (m2, c4) = (ids[2], ids[4]);
        let mut sim = Simulator::new(g, BgpConfig::default(), 27);
        sim.originate(c4, P);
        assert_eq!(sim.wire.len(), 1);
        sim.fail_link(c4, m2);
        assert!(sim.wire.is_empty(), "the wire carries live sessions only");
        sim.withdraw(c4, P);
        sim.restore_link(c4, m2);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.messages_dropped(), 1);
        for &id in &ids {
            assert_eq!(sim.node(id).best_route(P), None, "{id} routes the withdrawn prefix");
        }
        let ops = sim.cost_counts();
        assert_eq!(ops.queue_pushes, ops.queue_pops, "a discarded message is popped, unprocessed");
    }

    /// C4's announcement waits in M2's input queue when their link fails:
    /// it keeps its turn at M2's processor but is not processed, so no
    /// node learns a route over the failed link.
    #[test]
    fn a_message_queued_at_a_link_failure_is_discarded() {
        let (g, ids) = chain_graph();
        let (m2, c4) = (ids[2], ids[4]);
        let mut sim = Simulator::new(g, BgpConfig::default(), 28);
        sim.originate(c4, P);
        sim.run_until(SimTime::ZERO + LINK_DELAY).unwrap();
        assert_eq!((sim.wire.len(), sim.inbox.len(m2.index())), (0, 1), "the announcement waits at M2");
        sim.fail_link(c4, m2);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.messages_dropped(), 1);
        for &id in &ids {
            if id != c4 {
                assert_eq!(sim.node(id).best_route(P), None, "{id} routes P over the failed link");
            }
        }
        assert!(sim.inbox.is_empty(), "the discarded entry had its turn");
    }

    #[test]
    fn reset_routing_allows_fresh_event() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 10);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.reset_routing();
        assert!(sim.node(ids[0]).best_route(P).is_none());
        // A second event from a different origin works on the clean state.
        sim.originate(ids[5], Prefix(1));
        sim.run_to_quiescence().unwrap();
        assert!(sim.node(ids[0]).best_route(Prefix(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "reset_routing while")]
    fn reset_rejects_pending_events() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 11);
        sim.originate(ids[4], P);
        sim.reset_routing();
    }

    #[test]
    fn last_activity_precedes_final_timer_drain() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 12);
        sim.originate(ids[4], P);
        let converged = sim.run_to_quiescence().unwrap();
        // Routing activity finishes within a couple of seconds of simulated
        // time; the queue then drains idle 22.5–30 s MRAI expiries.
        assert!(converged < SimTime::from_secs(5), "activity until {converged}");
        assert!(sim.now() >= SimTime::from_secs(20), "clock at {}", sim.now());
    }

    #[test]
    fn relationships_notwithstanding_no_valley_leaks() {
        // After convergence on a generated graph, check a policy safety
        // property: a node's best route learned from a peer or provider is
        // never exported to another peer/provider — verified indirectly:
        // peers/providers of a node N hold no path through N unless the
        // route is in N's customer branch.
        let g = generate(GrowthScenario::Baseline, 150, 13);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        let mut sim = Simulator::new(g, BgpConfig::default(), 14);
        sim.originate(origin, P);
        sim.run_to_quiescence().unwrap();
        let g = sim.graph();
        for id in g.node_ids() {
            if let Some((_, path)) = sim.node(id).best_route(P) {
                // Walk the path and verify it is valley-free: shapes are
                // up* (peer)? down*.
                let mut full = vec![id];
                full.extend(sim.paths().hops(path));
                let mut state = 0; // 0 = climbing, 1 = peered, 2 = descending
                for w in full.windows(2) {
                    // Path direction is from `id` toward origin; traffic
                    // flows that way, so classify each hop.
                    let rel = g.relationship(w[0], w[1]).expect("path uses real links");
                    state = match (state, rel) {
                        (0, Relationship::Provider) => 0,
                        (0, Relationship::Peer) => 1,
                        (0 | 1, Relationship::Customer) => 2,
                        (2, Relationship::Customer) => 2,
                        (s, r) => panic!("valley in path {full:?}: state {s}, hop {r:?}"),
                    };
                }
            }
        }
    }
}
