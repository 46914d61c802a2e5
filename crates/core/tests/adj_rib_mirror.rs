//! At quiescence the two ends of every session agree: the receiver's
//! Adj-RIB-in cell for a prefix holds exactly what the sender's
//! Adj-RIB-out says it last sent, and a session that is down holds
//! nothing at either end. Gao–Rexford routing converges to one stable
//! state (Nazer & Selvakumar), and this is the part of it a test can check
//! without computing it: whatever links failed and came back on the way,
//! and whenever — inside open MRAI windows, with messages in flight or
//! queued at a processor.

use bgpscale_bgp::rfd::RfdConfig;
use bgpscale_bgp::{BgpConfig, MraiMode, Prefix};
use bgpscale_core::Simulator;
use bgpscale_simkernel::{SimDuration, SimTime};
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType, RegionSet};
use proptest::prelude::*;

/// The two prefixes of a run, one per origin.
const PREFIXES: [Prefix; 2] = [Prefix(0), Prefix(1)];

/// Both MRAI modes, with damping off and on.
fn configs() -> [BgpConfig; 4] {
    let with = |mrai_mode, rfd| BgpConfig {
        mrai_mode,
        rfd,
        ..BgpConfig::default()
    };
    [
        with(MraiMode::NoWrate, None),
        with(MraiMode::NoWrate, Some(RfdConfig::default())),
        with(MraiMode::Wrate, None),
        with(MraiMode::Wrate, Some(RfdConfig::default())),
    ]
}

/// The first session, prefix and pair of cells on which the two ends of
/// a session disagree, if any.
fn mismatch(sim: &Simulator) -> Option<String> {
    for u in sim.graph().node_ids() {
        let sender = sim.node(u);
        for (slot, session) in (0..).zip(sender.sessions()) {
            let v = session.peer;
            let receiver = sim.node(v);
            let at_v = receiver.slot_of(u).expect("sessions are mutual");
            let up = sender.queue(slot).is_up();
            for p in PREFIXES {
                let sent = sender.queue(slot).advertised(p);
                let held = receiver.adj_rib_in(at_v, p);
                if sent != held || (!up && held.is_some()) {
                    return Some(format!("{u}→{v} (up: {up}) {p:?}: sent {sent:?}, held {held:?}"));
                }
            }
        }
    }
    None
}

/// One action of a schedule: what to do, a number that picks its
/// operand, and how long to run before the next, in microseconds.
type Action = (u64, u64, u64);

/// A run between two actions: 0 to 35 s, half of them shorter than the
/// 100 ms a processor may take over one message, so that an action often
/// finds messages in flight or queued.
fn delay() -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..35_000_000).prop_map(|(short, us)| if short { us % 150_000 } else { us })
}

/// Runs `schedule` from `origins` on `graph` under `cfg` and returns the
/// simulator at quiescence. Originations and withdrawals act on origin
/// `pick % 2`; a failure takes a link of an origin or any link that is
/// up; a restore brings back a failed link. An action with nothing to act
/// on is skipped.
fn run(graph: &AsGraph, cfg: BgpConfig, seed: u64, origins: [AsId; 2], schedule: &[Action]) -> Simulator {
    let mut links: Vec<(AsId, AsId)> = graph
        .node_ids()
        .flat_map(|a| graph.neighbors(a).iter().map(move |nb| (a, nb.id)))
        .filter(|&(a, b)| a < b)
        .collect();
    let mut sim = Simulator::new(graph.clone(), cfg, seed);
    let mut originated = [false; 2];
    let mut failed: Vec<(AsId, AsId)> = Vec::new();
    for &(kind, pick, delay_us) in schedule {
        let i = (pick % 2) as usize;
        match kind {
            0 if !originated[i] => sim.originate(origins[i], PREFIXES[i]),
            1 if originated[i] => sim.withdraw(origins[i], PREFIXES[i]),
            2 if !links.is_empty() => {
                let near: Vec<usize> = (0..links.len())
                    .filter(|&l| origins.contains(&links[l].0) || origins.contains(&links[l].1))
                    .collect();
                let at = match near.len() {
                    0 => (pick / 2) as usize % links.len(),
                    len if pick % 4 < 2 => near[(pick / 4) as usize % len],
                    _ => (pick / 4) as usize % links.len(),
                };
                let (a, b) = links.swap_remove(at);
                sim.fail_link(a, b);
                failed.push((a, b));
            }
            3 if !failed.is_empty() => {
                let (a, b) = failed.swap_remove((pick / 2) as usize % failed.len());
                sim.restore_link(a, b);
                links.push((a, b));
            }
            _ => {}
        }
        if kind < 2 {
            originated[i] = kind == 0;
        }
        sim.run_until(sim.now() + SimDuration::from_micros(delay_us)).expect("within budget");
    }
    sim.run_to_quiescence().expect("converges");
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BASELINE n = 300, two origins, up to six actions landing inside
    /// MRAI windows and while messages are in flight or queued.
    #[test]
    fn adj_rib_in_mirrors_adj_rib_out_at_quiescence(
        topology in any::<u64>(),
        seed in any::<u64>(),
        schedule in prop::collection::vec((0u64..4, any::<u64>(), delay()), 1..7),
    ) {
        let graph = generate(GrowthScenario::Baseline, 300, topology);
        let stubs = graph.nodes_of_type(NodeType::C);
        let origins = [stubs[0], stubs[stubs.len() / 2]];
        for cfg in configs() {
            let sim = run(&graph, cfg, seed, origins, &schedule);
            if let Some(what) = mismatch(&sim) {
                prop_assert!(false, "{what} after {schedule:?} ({cfg:?}, topology {topology}, seed {seed})");
            }
        }
    }
}

/// T0==T1 peering; M2→T0, M3→T1; C4→M2, C5→M3.
fn chain_graph() -> (AsGraph, [AsId; 6]) {
    let mut g = AsGraph::new();
    let ids = [NodeType::T, NodeType::T, NodeType::M, NodeType::M, NodeType::C, NodeType::C]
        .map(|ty| g.add_node(ty, RegionSet::all(1)));
    g.add_peer_link(ids[0], ids[1]);
    g.add_transit_link(ids[2], ids[0]);
    g.add_transit_link(ids[3], ids[1]);
    g.add_transit_link(ids[4], ids[2]);
    g.add_transit_link(ids[5], ids[3]);
    (g, ids)
}

/// The two link-failure probes, fixed cases of the property: C4's
/// announcement is on the wire when its link to M2 fails, or waiting in
/// M2's input queue. Either way it is lost with the session, and the two
/// ends of every session agree.
#[test]
fn a_link_failure_with_a_message_in_flight_or_queued_leaves_the_sessions_mirrored() {
    let (g, ids) = chain_graph();
    let (m2, c4) = (ids[2], ids[4]);
    for cfg in configs() {
        let mut sim = Simulator::new(g.clone(), cfg, 1);
        sim.originate(c4, Prefix(0));
        sim.fail_link(c4, m2);
        sim.withdraw(c4, Prefix(0));
        sim.restore_link(c4, m2);
        sim.run_to_quiescence().expect("converges");
        assert_eq!((mismatch(&sim), sim.messages_dropped()), (None, 1), "in flight, {cfg:?}");
        assert!(ids.iter().all(|&id| sim.node(id).best_route(Prefix(0)).is_none()));

        let mut sim = Simulator::new(g.clone(), cfg, 1);
        sim.originate(c4, Prefix(0));
        sim.run_until(SimTime::from_millis(2)).expect("within budget");
        sim.fail_link(c4, m2);
        sim.run_to_quiescence().expect("converges");
        assert_eq!((mismatch(&sim), sim.messages_dropped()), (None, 1), "queued, {cfg:?}");
        assert!(ids.iter().all(|&id| id == c4 || sim.node(id).best_route(Prefix(0)).is_none()));
    }
}
