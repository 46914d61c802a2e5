//! Property-based tests for the protocol machine: the decision process is
//! a strict total order; the path arena is a faithful, hash-consed store
//! of hop lists; the MRAI output queue never lies to the neighbor.

use bgpscale_bgp::decision::{preference_key, select_best, Candidate};
use bgpscale_bgp::mrai::{OutQueue, Step, Submit};
use bgpscale_bgp::node::{Actions, NodeCostCounters};
use bgpscale_bgp::{BgpConfig, MraiMode, PathArena, PathId, Prefix, Provenance, Update, UpdateKind};
use bgpscale_simkernel::{EventKey, SimDuration};
use bgpscale_topology::{AsId, Relationship};
use proptest::prelude::*;

fn rel_strategy() -> impl Strategy<Value = Relationship> {
    prop::sample::select(vec![
        Relationship::Customer,
        Relationship::Peer,
        Relationship::Provider,
    ])
}

/// One per-interface queue with the simulator's half of the timer
/// contract around it: what a step is lent, a clock, keys reserved one
/// MRAI ahead at every arm, and the one expiry event the queue may have
/// asked for.
struct Driven {
    q: OutQueue,
    cfg: BgpConfig,
    paths: PathArena,
    out: Actions,
    now: EventKey,
    expiry: Option<EventKey>,
    costs: NodeCostCounters,
}

const SLOT: u32 = 5;
const MRAI: SimDuration = SimDuration::from_secs(30);

impl Driven {
    fn new() -> Driven {
        Driven {
            q: OutQueue::new(),
            cfg: BgpConfig::default(),
            paths: PathArena::new(),
            out: Actions::default(),
            now: EventKey::ZERO,
            expiry: None,
            costs: NodeCostCounters::default(),
        }
    }

    /// A key one MRAI ahead, ranked after every key handed out so far.
    fn reserve(&self) -> EventKey {
        EventKey {
            time: self.now.time + MRAI,
            seq: self.now.seq + 1,
        }
    }

    fn arm(&mut self) {
        let key = self.reserve();
        if self.q.arm_at(None, key) {
            assert_eq!(self.expiry.replace(key), None, "one expiry per window");
        }
    }

    /// The step of the event keyed `self.now`.
    fn step(&mut self) -> (&mut OutQueue, Step<'_>) {
        let step = Step {
            cfg: &self.cfg,
            now: self.now,
            cause: Provenance::root(7),
            paths: &mut self.paths,
            out: &mut self.out,
            costs: &mut self.costs,
        };
        (&mut self.q, step)
    }

    fn submit(&mut self, prefix: Prefix, intent: Option<PathId>, mode: MraiMode, rel: Relationship) -> Submit {
        self.cfg.mrai_mode = mode;
        let (q, mut step) = self.step();
        let submit = q.submit(prefix, intent, rel, &mut step);
        match &submit {
            Submit::SendNow { arm_timer: true, .. } => self.arm(),
            Submit::Queued { expire_at: Some(key) } => {
                assert!(*key > self.now, "an expiry in the past");
                assert_eq!(self.expiry.replace(*key), None, "one expiry per window");
            }
            _ => {}
        }
        assert_eq!(usize::from(self.expiry.is_some()), self.q.scheduled_expiries());
        assert!(self.expiry.is_some() || self.q.pending_len() == 0, "an update waits for no event");
        submit
    }

    /// Lets the running window close: the expiry event pops if one was
    /// asked for (flushing into the returned updates and re-arming iff
    /// something was sent), else the timer just runs out.
    fn close_window(&mut self) -> Vec<Update> {
        let Some(key) = self.expiry.take() else {
            assert_eq!(self.q.pending_len(), 0, "updates wait with no expiry scheduled");
            self.now = self.reserve();
            assert!(!self.q.timer_armed(self.now));
            return Vec::new();
        };
        self.now = key;
        let (q, mut step) = self.step();
        let rearm = q.flush(None, SLOT, &mut step);
        let sends = std::mem::take(&mut self.out.sends);
        assert_eq!(rearm, !sends.is_empty(), "the timer re-arms iff something was sent");
        if rearm {
            self.arm();
        }
        assert_eq!(rearm, self.q.timer_armed(self.now));
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
        let mut d = Driven::new();
        // The neighbor's view, replayed from transmissions.
        let mut neighbor: std::collections::BTreeMap<Prefix, PathId> = Default::default();
        // The latest intent per prefix.
        let mut intent: std::collections::BTreeMap<Prefix, Option<PathId>> = Default::default();

        let apply = |neighbor: &mut std::collections::BTreeMap<Prefix, PathId>, u: Update| {
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
            match d.submit(prefix, path, mode, rel) {
                Submit::SendNow { update, .. } => {
                    prop_assert_eq!(update.provenance.rel(), Some(rel), "sent over this edge");
                    apply(&mut neighbor, update)?
                }
                Submit::Queued { .. } | Submit::Suppressed => {}
            }
            if flush_after && d.q.timer_armed(d.now) {
                for u in d.close_window() {
                    prop_assert_eq!(u.provenance.rel(), Some(rel), "flushed over this edge");
                    apply(&mut neighbor, u)?;
                }
            }
            // Invariant: the neighbor state always equals the Adj-RIB-out.
            for p in [Prefix(0), Prefix(1), Prefix(2)] {
                prop_assert_eq!(neighbor.get(&p).copied(), d.q.advertised(p),
                    "Adj-RIB-out diverged from the neighbor's actual state");
            }
        }

        // Drain all timers.
        while d.q.timer_armed(d.now) {
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

    /// Duplicate submissions are always suppressed, never re-sent.
    #[test]
    fn duplicate_intent_suppressed(
        mode in prop::sample::select(vec![MraiMode::NoWrate, MraiMode::Wrate]),
        path in path_strategy(),
    ) {
        let mut d = Driven::new();
        let rel = Relationship::Customer;
        let path = d.paths.intern(&path);
        let first = d.submit(Prefix(0), Some(path), mode, rel);
        let sent_now = matches!(first, Submit::SendNow { .. });
        prop_assert!(sent_now);
        // Built again, hop by hop: the same id, the same intent.
        let hops = d.paths.to_vec(path);
        let rebuilt = d.paths.intern(&hops);
        let second = d.submit(Prefix(0), Some(rebuilt), mode, rel);
        prop_assert_eq!(second, Submit::Suppressed);
    }
}
