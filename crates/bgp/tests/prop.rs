//! Property-based tests for the protocol machine: the decision process is
//! a strict total order; the path arena is a faithful, hash-consed store
//! of hop lists; the MRAI output queue never lies to the neighbor.

use bgpscale_bgp::decision::{preference_key, select_best, Candidate};
use std::collections::BTreeMap;
use std::sync::Arc;

use bgpscale_bgp::mrai::{Clock, OutQueue, QueueView, Step};
use bgpscale_bgp::node::Session;
use bgpscale_bgp::{
    BgpConfig, MraiMode, MraiScope, PathArena, PathId, Prefix, Provenance, RouteSlab, SessionSlab, Stamp, Update,
    UpdateKind,
};
use bgpscale_obs::OpCounts;
use bgpscale_simkernel::{EventKey, SimDuration, SimTime};
use bgpscale_topology::{AsId, Relationship};
use proptest::prelude::*;

fn rel_strategy() -> impl Strategy<Value = Relationship> {
    prop::sample::select(vec![
        Relationship::Customer,
        Relationship::Peer,
        Relationship::Provider,
    ])
}

/// The simulator's clock as a test plays it: keys one MRAI after the
/// step's, each ranked after every key before it, and a record of the
/// arms, expiries and wake-ups asked for.
#[derive(Debug)]
struct TestClock {
    now: EventKey,
    seq: u64,
    arms: Vec<EventKey>,
    expiries: Vec<(u32, Option<u32>, EventKey)>,
    wakeups: Vec<(u32, u32, SimTime)>,
}

impl TestClock {
    /// A key at `time`, ranked after every key handed out so far.
    fn reserve(&mut self, time: SimTime) -> EventKey {
        self.seq += 1;
        EventKey { time, seq: self.seq }
    }
}

impl Clock for TestClock {
    fn arm(&mut self) -> EventKey {
        let key = self.reserve(self.now.time + MRAI);
        self.arms.push(key);
        key
    }

    fn expire(&mut self, slot: u32, which: Option<u32>, key: EventKey) {
        self.expiries.push((slot, which, key));
    }

    fn wake(&mut self, slot: u32, row: u32, at: SimTime) {
        self.wakeups.push((slot, row, at));
    }
}

/// One output queue — slot 5 of AS0, whose sessions are peers AS1 to
/// AS8 — with the simulator's half of the timer contract around it: the
/// node's slab and route columns, what a step is lent, among it a clock
/// that reserves a key one MRAI ahead at every arm, the current event's
/// key, and the expiry events the queue asked for. Its updates carry
/// provenance stamps, so every send can be checked for the edge it went
/// out on.
struct Driven {
    slab: Arc<SessionSlab>,
    routes: RouteSlab<Provenance>,
    cfg: BgpConfig,
    paths: PathArena,
    clock: TestClock,
    out: Vec<(u32, Update<Provenance>)>,
    now: EventKey,
    /// The expiry events asked for and not yet popped, with the timer
    /// each is for (`None`: the session timer).
    expiries: Vec<(Option<Prefix>, EventKey)>,
    costs: OpCounts,
}

const SLOT: u32 = 5;
const MRAI: SimDuration = SimDuration::from_secs(30);

impl Driven {
    fn new(mrai_scope: MraiScope) -> Driven {
        let sessions = (1..=8).map(|peer| Session { peer: AsId(peer), rel: Relationship::Peer }).collect();
        let slab = SessionSlab::for_single(AsId(0), sessions);
        Driven {
            routes: RouteSlab::new(&slab),
            slab,
            cfg: BgpConfig { mrai_scope, ..BgpConfig::default() },
            paths: PathArena::new(),
            clock: TestClock { now: EventKey::ZERO, seq: 1, arms: Vec::new(), expiries: Vec::new(), wakeups: Vec::new() },
            out: Vec::new(),
            now: EventKey::ZERO,
            expiries: Vec::new(),
            costs: OpCounts::default(),
        }
    }

    /// The queue under test, read-only.
    fn q(&self) -> QueueView<'_, Provenance> {
        self.routes.queue(self.slab.stripe(0), SLOT)
    }

    /// The row of the timer `which` names: `None` for the session timer.
    fn timer_row(&self, which: Option<Prefix>) -> Option<u32> {
        which.map(|prefix| self.routes.row(prefix).expect("a timer's prefix has a row"))
    }

    /// Takes the expiries the clock was asked for, each one for the timer
    /// `which` names.
    fn expect_expiries(&mut self, which: Option<Prefix>) {
        assert!(self.clock.wakeups.is_empty(), "a queue wakes no damped route");
        for (slot, asked, key) in std::mem::take(&mut self.clock.expiries) {
            assert_eq!((slot, asked), (SLOT, self.timer_row(which)), "an expiry for another timer");
            assert!(key > self.now, "an expiry in the past");
            assert!(self.expiries.iter().all(|&(w, _)| w != which), "one expiry per window");
            self.expiries.push((which, key));
        }
    }

    /// The queue under test and the step of the event keyed `self.now`.
    fn step(&mut self) -> (OutQueue<'_, Provenance>, Step<'_, Provenance>) {
        self.clock.now = self.now;
        let step = Step {
            cfg: &self.cfg,
            now: self.now,
            cause: Provenance::root(7),
            paths: &mut self.paths,
            clock: &mut self.clock,
            out: &mut self.out,
            costs: &mut self.costs,
        };
        (self.routes.queue_mut(self.slab.stripe(0), SLOT), step)
    }

    /// Submits an intent; returns the update it sent now, if any.
    fn submit(
        &mut self,
        prefix: Prefix,
        intent: Option<PathId>,
        mode: MraiMode,
        rel: Relationship,
    ) -> Option<Update<Provenance>> {
        self.cfg.mrai_mode = mode;
        let row = self.routes.touch(prefix, 0, self.slab.stripe(0));
        let (mut q, mut step) = self.step();
        q.submit(row, intent, rel, &mut step);
        let which = if self.cfg.mrai_scope == MraiScope::PerPrefix { Some(prefix) } else { None };
        self.expect_expiries(which);
        assert_eq!(self.expiries.len(), self.q().scheduled_expiries());
        assert!(!self.expiries.is_empty() || self.q().pending_len() == 0, "an update waits for no event");
        let sent = std::mem::take(&mut self.out);
        assert!(sent.len() <= 1, "one submission, one send at most: {sent:?}");
        assert!(self.clock.arms.len() <= sent.len(), "an arm with nothing sent");
        self.clock.arms.clear();
        sent.into_iter().map(|(tag, update)| {
            assert_eq!(tag, SLOT, "sent updates carry the queue's slot");
            update
        }).next()
    }

    /// Lets the next window close: the earliest expiry event pops if one
    /// was asked for (flushing into the returned updates and re-arming iff
    /// something was sent), else every timer just runs out.
    fn close_window(&mut self) -> Vec<Update<Provenance>> {
        self.expiries.sort_by_key(|&(_, key)| key);
        if self.expiries.is_empty() {
            assert_eq!(self.q().pending_len(), 0, "updates wait with no expiry scheduled");
            self.now = self.clock.reserve(self.now.time + MRAI);
            assert!(!self.q().timer_armed(self.now));
            return Vec::new();
        }
        let (which, key) = self.expiries.remove(0);
        self.now = key;
        assert!(self.q().expiry_due(self.timer_row(which), key));
        let trigger = self.timer_row(which);
        let (mut q, mut step) = self.step();
        q.flush(trigger, &mut step);
        let rearm = !std::mem::take(&mut self.clock.arms).is_empty();
        self.expect_expiries(which);
        let sends = std::mem::take(&mut self.out);
        assert_eq!(rearm, !sends.is_empty(), "the timer re-arms iff something was sent");
        // Under the per-interface scope no per-prefix timer exists, so
        // `timer_armed` sees the session timer alone.
        let armed = match which {
            None => self.q().timer_armed(self.now),
            Some(prefix) => self.q().is_armed(prefix, MraiScope::PerPrefix, self.now),
        };
        assert_eq!(rearm, armed, "the flushed timer stays armed iff the flush re-armed it");
        assert!(!self.q().expiry_due(self.timer_row(which), key), "flushed: the event is spent");
        sends
            .into_iter()
            .map(|(tag, update)| {
                assert_eq!(tag, SLOT, "flushed updates carry the queue's slot");
                update
            })
            .collect()
    }
}

fn path_strategy() -> impl Strategy<Value = Vec<AsId>> {
    prop::collection::vec((0u32..1000).prop_map(AsId), 1..8)
}

/// AS ids most of which collide mod 32, the hop mask's bit index.
const MASK_ALIASES: [u32; 8] = [5, 37, 69, 101, 6, 38, 0, 32];

fn mask_alias_strategy() -> impl Strategy<Value = AsId> {
    prop::sample::select(MASK_ALIASES.to_vec()).prop_map(AsId)
}

proptest! {
    /// The decision order is total and antisymmetric over distinct
    /// neighbors: keys never tie, so `select_best` has a unique winner
    /// regardless of presentation order.
    #[test]
    fn decision_is_presentation_order_independent(
        entries in prop::collection::vec((0u32..10_000, rel_strategy(), path_strategy()), 1..12),
    ) {
        // Deduplicate neighbor ids (one route per session).
        let mut seen = std::collections::BTreeSet::new();
        let entries: Vec<_> = entries
            .into_iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .collect();
        let cands: Vec<Candidate<'_>> = entries
            .iter()
            .map(|(id, rel, path)| Candidate { neighbor: AsId(*id), rel: *rel, path: path.as_slice() })
            .collect();
        let winner = select_best(&cands).unwrap();
        let winner_id = cands[winner].neighbor;
        let mut reversed = cands.clone();
        reversed.reverse();
        let winner2 = select_best(&reversed).unwrap();
        prop_assert_eq!(reversed[winner2].neighbor, winner_id);
        // The winner's key is strictly the maximum.
        for (i, c) in cands.iter().enumerate() {
            if i != winner {
                prop_assert!(preference_key(&cands[winner]) > preference_key(c));
            }
        }
    }

    /// Local preference dominates path length: a customer route always
    /// beats any peer/provider route regardless of lengths.
    #[test]
    fn customer_routes_always_win(
        cust_path in path_strategy(),
        other_path in path_strategy(),
        other_rel in prop::sample::select(vec![Relationship::Peer, Relationship::Provider]),
    ) {
        let cands = vec![
            Candidate { neighbor: AsId(1), rel: Relationship::Customer, path: cust_path.as_slice() },
            Candidate { neighbor: AsId(2), rel: other_rel, path: other_path.as_slice() },
        ];
        prop_assert_eq!(select_best(&cands), Some(0));
    }

    /// The arena stores exactly the hop lists it was given, once each:
    /// `intern` round-trips nearest-first; equal hops mean equal ids
    /// however the path was built (`intern`, or `prepend` hop by hop from
    /// the origin) and distinct hops distinct ids; `len` and `contains`
    /// agree with the slice; and `clear` restarts the ids, so a recycled
    /// run hands out the ids of a fresh one.
    #[test]
    fn arena_is_a_hash_consed_store_of_hop_lists(
        // A small AS alphabet, so lists share tails and repeat outright.
        lists in prop::collection::vec(prop::collection::vec((0u32..6).prop_map(AsId), 0..6), 1..40),
        probe in (0u32..8).prop_map(AsId),
    ) {
        let mut arena = PathArena::new();
        let ids: Vec<PathId> = lists.iter().map(|hops| arena.intern(hops)).collect();
        for (hops, &id) in lists.iter().zip(&ids) {
            prop_assert_eq!(&arena.to_vec(id), hops, "round trip, nearest first");
            prop_assert_eq!(arena.len(id), hops.len());
            prop_assert_eq!(arena.contains(id, probe), hops.contains(&probe));
            prop_assert_eq!(id == PathId::EMPTY, hops.is_empty());
            let stepwise = hops.iter().rev().fold(PathId::EMPTY, |tail, &head| arena.prepend(head, tail));
            prop_assert_eq!(stepwise, id, "built by prepends, found by lookup");
        }
        for (a, id_a) in lists.iter().zip(&ids) {
            for (b, id_b) in lists.iter().zip(&ids) {
                prop_assert_eq!(a == b, id_a == id_b, "equal hops <=> equal ids: {:?} vs {:?}", a, b);
            }
        }
        // One cell per distinct non-empty suffix, plus the empty path.
        let suffixes: std::collections::BTreeSet<&[AsId]> = lists
            .iter()
            .flat_map(|hops| (0..hops.len()).map(move |from| &hops[from..]))
            .collect();
        prop_assert_eq!(arena.paths(), suffixes.len() + 1);

        arena.clear();
        prop_assert_eq!(arena.paths(), 1);
        let again: Vec<PathId> = lists.iter().map(|hops| arena.intern(hops)).collect();
        prop_assert_eq!(&again, &ids, "a cleared arena hands out a new arena's ids");
        let mut fresh = PathArena::new();
        let on_fresh: Vec<PathId> = lists.iter().map(|hops| fresh.intern(hops)).collect();
        prop_assert_eq!(again, on_fresh);
    }

    /// The hop mask never changes an answer: `contains` on an interned
    /// path agrees with a scan of its hops for every AS, drawn from an
    /// alphabet whose members mostly share their bit `asn % 32` (5, 37,
    /// 69 and 101 set one bit, 6 and 38 another), so most probes hit the
    /// mask and are settled by the walk. Lists may be empty.
    #[test]
    fn contains_agrees_with_the_hop_list(
        lists in prop::collection::vec(prop::collection::vec(mask_alias_strategy(), 0..7), 1..20),
    ) {
        let mut arena = PathArena::new();
        for hops in &lists {
            let id = arena.intern(hops);
            for probe in MASK_ALIASES.map(AsId) {
                prop_assert_eq!(arena.contains(id, probe), hops.contains(&probe), "{:?} in {:?}", probe, hops);
            }
        }
        for probe in MASK_ALIASES.map(AsId) {
            prop_assert!(!arena.contains(PathId::EMPTY, probe));
        }
    }

    /// MRAI queue soundness: after any sequence of submissions and
    /// flushes, replaying every transmitted update against a model of the
    /// neighbor's state reproduces the queue's Adj-RIB-out, and once all
    /// timers drain the neighbor's state equals the last submitted
    /// intent.
    #[test]
    fn outqueue_never_lies(
        mode in prop::sample::select(vec![MraiMode::NoWrate, MraiMode::Wrate]),
        rel in rel_strategy(),
        script in prop::collection::vec(
            // (prefix 0..3, intent: None = withdraw, Some(k) = announce path k)
            ((0u32..3).prop_map(Prefix), prop::option::of(0u32..5), any::<bool>()),
            1..60,
        ),
    ) {
        let mut d = Driven::new(MraiScope::PerInterface);
        // The neighbor's view, replayed from transmissions.
        let mut neighbor: BTreeMap<Prefix, PathId> = Default::default();
        // The latest intent per prefix.
        let mut intent: BTreeMap<Prefix, Option<PathId>> = Default::default();

        let apply = |neighbor: &mut BTreeMap<Prefix, PathId>, u: Update<Provenance>| {
            match u.kind {
                UpdateKind::Announce(p) => { neighbor.insert(u.prefix, p); }
                UpdateKind::Withdraw => {
                    prop_assert!(neighbor.remove(&u.prefix).is_some(),
                        "withdrawal for a route the neighbor does not hold");
                    }
            }
            Ok(())
        };

        for (prefix, path_id, flush_after) in script {
            let path: Option<PathId> = path_id.map(|k| d.paths.intern(&[AsId(100 + k), AsId(999)]));
            intent.insert(prefix, path);
            if let Some(update) = d.submit(prefix, path, mode, rel) {
                prop_assert_eq!(update.stamp.rel(), Some(rel), "sent over this edge");
                apply(&mut neighbor, update)?
            }
            if flush_after && d.q().timer_armed(d.now) {
                for u in d.close_window() {
                    prop_assert_eq!(u.stamp.rel(), Some(rel), "flushed over this edge");
                    apply(&mut neighbor, u)?;
                }
            }
            // Invariant: the neighbor state always equals the Adj-RIB-out.
            for p in [Prefix(0), Prefix(1), Prefix(2)] {
                prop_assert_eq!(neighbor.get(&p).copied(), d.q().advertised(p),
                    "Adj-RIB-out diverged from the neighbor's actual state");
            }
        }

        // Drain all timers.
        while d.q().timer_armed(d.now) {
            for u in d.close_window() {
                apply(&mut neighbor, u)?;
            }
        }
        // Final neighbor state must equal the final intents.
        for p in [Prefix(0), Prefix(1), Prefix(2)] {
            let want = intent.get(&p).copied().flatten();
            prop_assert_eq!(neighbor.get(&p).copied(), want,
                "after drain, neighbor state != last intent for {:?}", p);
        }
    }

    /// A session carrying 2–8 prefixes, under both modes and both
    /// scopes: every flush emits in prefix order and sends no no-op, the
    /// Adj-RIB-out is the last update sent for each prefix, and the
    /// session's pending count is the number of its non-empty pending
    /// cells — after every step, whatever order the prefixes' rows were
    /// made in. Once every timer drains, the neighbor holds the last
    /// intent for each prefix.
    #[test]
    fn a_multi_prefix_queue_flushes_in_prefix_order_and_keeps_its_counts(
        mode in prop::sample::select(vec![MraiMode::NoWrate, MraiMode::Wrate]),
        scope in prop::sample::select(vec![MraiScope::PerInterface, MraiScope::PerPrefix]),
        prefixes in 2u32..9,
        script in prop::collection::vec(
            // (prefix index, intent: None = withdraw, Some(k) = announce
            // path k, then 0: nothing, 1: close a window, 2: let 7 s pass)
            (0u32..8, prop::option::of(0u32..4), 0u8..3),
            1..80,
        ),
    ) {
        let mut d = Driven::new(scope);
        let rel = Relationship::Provider;
        // Spread out, so the rows' first-touch order is not prefix order.
        let all: Vec<Prefix> = (0..prefixes).map(|i| Prefix(1 + 5 * i)).collect();
        let mut neighbor: BTreeMap<Prefix, PathId> = BTreeMap::new();
        let mut intent: BTreeMap<Prefix, Option<PathId>> = BTreeMap::new();

        let flushed = |neighbor: &mut BTreeMap<Prefix, PathId>, sends: Vec<Update<Provenance>>| {
            for pair in sends.windows(2) {
                prop_assert!(pair[0].prefix < pair[1].prefix, "a flush out of prefix order: {:?}", sends);
            }
            for u in sends {
                prop_assert_eq!(u.stamp.rel(), Some(rel), "flushed over this edge");
                match u.kind {
                    UpdateKind::Announce(p) => {
                        prop_assert!(neighbor.insert(u.prefix, p) != Some(p), "a flush re-announced {:?}", u.prefix);
                    }
                    UpdateKind::Withdraw => {
                        prop_assert!(neighbor.remove(&u.prefix).is_some(), "a flush withdrew nothing");
                    }
                }
            }
            Ok(())
        };

        for (index, path, then) in script {
            let prefix = all[(index % prefixes) as usize];
            let path = path.map(|k| d.paths.intern(&[AsId(100 + k), AsId(999)]));
            intent.insert(prefix, path);
            if let Some(update) = d.submit(prefix, path, mode, rel) {
                match update.kind {
                    UpdateKind::Announce(p) => { neighbor.insert(prefix, p); }
                    UpdateKind::Withdraw => { neighbor.remove(&prefix); }
                }
            }
            match then {
                1 => flushed(&mut neighbor, d.close_window())?,
                2 => {
                    let later = EventKey { time: d.now.time + SimDuration::from_secs(7), seq: d.now.seq };
                    while d.expiries.iter().any(|&(_, key)| key <= later) {
                        flushed(&mut neighbor, d.close_window())?;
                    }
                    d.now = later.max(d.now);
                }
                _ => {}
            }
            let waiting = all.iter().filter(|&&p| d.q().queued_update(p).is_some()).count();
            prop_assert_eq!(d.q().pending_len(), waiting, "the pending count is the non-empty cells");
            for &p in &all {
                prop_assert_eq!(d.q().advertised(p), neighbor.get(&p).copied(), "Adj-RIB-out != last update sent");
            }
        }

        while d.q().timer_armed(d.now) || !d.expiries.is_empty() {
            flushed(&mut neighbor, d.close_window())?;
        }
        prop_assert_eq!(d.q().pending_len(), 0);
        for &p in &all {
            let want = intent.get(&p).copied().flatten();
            prop_assert_eq!(neighbor.get(&p).copied(), want, "after drain, neighbor state != last intent for {:?}", p);
        }
    }

    /// Duplicate submissions are always suppressed, never re-sent.
    #[test]
    fn duplicate_intent_suppressed(
        mode in prop::sample::select(vec![MraiMode::NoWrate, MraiMode::Wrate]),
        path in path_strategy(),
    ) {
        let mut d = Driven::new(MraiScope::PerInterface);
        let rel = Relationship::Customer;
        let path = d.paths.intern(&path);
        let first = d.submit(Prefix(0), Some(path), mode, rel);
        let sent_now = first.is_some();
        prop_assert!(sent_now);
        // Built again, hop by hop: the same id, the same intent.
        let hops = d.paths.to_vec(path);
        let rebuilt = d.paths.intern(&hops);
        let second = d.submit(Prefix(0), Some(rebuilt), mode, rel);
        prop_assert_eq!(second, None, "suppressed: not sent");
        prop_assert_eq!(d.q().pending_len(), 0, "suppressed: not queued either");
    }
}
