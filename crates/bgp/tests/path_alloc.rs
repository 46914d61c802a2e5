//! Pins the export path's cost to a lookup: re-exporting a path the
//! arena already holds allocates nothing, and every session that takes
//! one export holds one id.
//!
//! A best-route change builds its export path once — 26k times per
//! n=5000 C-event — and fans it out to every neighbor. With paths
//! hash-consed in the [`PathArena`] that is one `prepend` (a cell the
//! first time, a probe ever after) and a four-byte id per session: the
//! steady state of a flapping route touches no allocator at all. This
//! file holds a single test because the counters of simkernel's counting
//! allocator are process-global: a second test running on another thread
//! would be counted too.

#![expect(
    clippy::disallowed_methods,
    reason = "the allocator counters are what this test reads"
)]

use bgpscale_bgp::mrai::{Clock, Step};
use bgpscale_bgp::node::Session;
use bgpscale_bgp::{BgpConfig, BgpNode, PathArena, PathId, Prefix, RouteSlab, SessionSlab, Update};
use bgpscale_obs::OpCounts;
use bgpscale_simkernel::alloc::{snapshot, CountingAlloc};
use bgpscale_simkernel::{EventKey, SimDuration, SimTime};
use bgpscale_topology::{AsId, Relationship};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const P: Prefix = Prefix(0);
const NEIGHBORS: u32 = 8;

/// The simulator's clock as this test plays it: keys half a minute after
/// the step's, each ranked after every key before it, and a record of
/// the expiries and wake-ups asked for, which stays empty and so
/// allocates nothing.
#[derive(Debug)]
struct TestClock {
    now: EventKey,
    seq: u64,
    expiries: Vec<(u32, Option<u32>, EventKey)>,
    wakeups: Vec<(u32, u32, SimTime)>,
}

impl Clock for TestClock {
    fn arm(&mut self) -> EventKey {
        self.seq += 1;
        EventKey {
            time: self.now.time + SimDuration::from_secs(30),
            seq: self.seq,
        }
    }

    fn expire(&mut self, slot: u32, which: Option<u32>, key: EventKey) {
        self.expiries.push((slot, which, key));
    }

    fn wake(&mut self, slot: u32, row: u32, at: SimTime) {
        self.wakeups.push((slot, row, at));
    }
}

#[test]
fn re_exporting_a_known_path_allocates_nothing_and_sessions_share_its_id() {
    const ROUNDS: u64 = 1000;
    // AS0 with a customer AS1 on slot 0 and seven providers behind it: a
    // customer route is exported to all seven.
    let sessions = (1..=NEIGHBORS)
        .map(|peer| Session {
            peer: AsId(peer),
            rel: if peer == 1 { Relationship::Customer } else { Relationship::Provider },
        })
        .collect();
    // What a simulator would own: the node's slab and the route columns.
    let slab = SessionSlab::for_single(AsId(0), sessions);
    let mut routes = RouteSlab::new(&slab);
    let mut node = BgpNode::new(AsId(0), &slab, &mut routes);
    let cfg = BgpConfig::no_wrate();
    let mut paths = PathArena::new();
    let mut out = Vec::new();
    let mut clock = TestClock {
        now: EventKey::ZERO,
        seq: 0,
        expiries: Vec::new(),
        wakeups: Vec::new(),
    };
    let mut costs = OpCounts::default();
    let learned = [
        paths.intern(&[AsId(1), AsId(90)]),
        paths.intern(&[AsId(1), AsId(80), AsId(90)]),
    ];

    // The customer's route flaps between the two paths, one step a minute:
    // every MRAI timer has run out by the next step, so each change is
    // exported to all seven providers at once.
    let mut flap = |round: u64, paths: &mut PathArena| {
        let now = EventKey {
            time: SimTime::from_secs(60 * round),
            seq: 0,
        };
        let route = learned[(round % 2) as usize];
        clock.now = now;
        let mut step = Step {
            cfg: &cfg,
            now,
            cause: (),
            paths,
            clock: &mut clock,
            out: &mut out,
            costs: &mut costs,
        };
        node.receive(0, Update::announce(P, route), &mut step);
        assert_eq!(out.len(), NEIGHBORS as usize - 1);
        assert!(clock.expiries.is_empty() && clock.wakeups.is_empty(), "nothing waits");
        out.clear();
        let export: PathId = paths.prepend(AsId(0), route);
        assert!(
            (1..NEIGHBORS).all(|slot| node.view().queue(slot).advertised(P) == Some(export)),
            "every session holds the one id of the export path"
        );
    };

    // Both export paths enter the arena and every buffer reaches its size.
    flap(0, &mut paths);
    flap(1, &mut paths);
    let held = paths.paths();
    let before = snapshot().expect("the counting allocator is installed");
    for round in 2..2 + ROUNDS {
        flap(round, &mut paths);
    }
    let made = snapshot()
        .expect("the counting allocator is installed")
        .delta_since(&before);
    assert_eq!(paths.paths(), held, "a path built before is found, not stored again");
    assert_eq!(made.allocs, 0, "{ROUNDS} best-route changes, each exported seven times");
}
