//! Integration tests for simulator features beyond the basic C-event:
//! timed execution (`run_until`), MRAI scopes, and the
//! interaction of link events with WRATE and RFD.

use bgpscale_bgp::rfd::RfdConfig;
use bgpscale_bgp::{BgpConfig, MraiMode, MraiScope, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::levent::run_l_event;
use bgpscale_core::Simulator;
use bgpscale_simkernel::{SimDuration, SimTime};
use bgpscale_topology::{generate, GrowthScenario, NodeType};

fn baseline_sim(n: usize, seed: u64, cfg: BgpConfig) -> (Simulator, bgpscale_topology::AsId) {
    let g = generate(GrowthScenario::Baseline, n, seed);
    let origin = g
        .node_ids()
        .find(|&id| g.node_type(id) == NodeType::C)
        .unwrap();
    (Simulator::new(g, cfg, seed ^ 0xFEED), origin)
}

#[test]
fn run_until_stops_at_the_deadline() {
    let (mut sim, origin) = baseline_sim(200, 2, BgpConfig::default());
    sim.originate(origin, Prefix(0));
    // Process only the first 50 ms of the announcement wave.
    sim.run_until(SimTime::from_millis(50)).unwrap();
    assert!(sim.now() <= SimTime::from_millis(50));
    let partial = sim.events_processed();
    assert!(partial > 0, "some events fit in the window");
    // The rest still runs to quiescence afterwards.
    sim.run_to_quiescence().unwrap();
    assert!(sim.events_processed() > partial);
    let unreachable = sim
        .graph()
        .node_ids()
        .filter(|&id| sim.node(id).best_route(Prefix(0)).is_none())
        .count();
    assert_eq!(unreachable, 0);
}

#[test]
fn run_until_is_idempotent_at_quiescence() {
    let (mut sim, origin) = baseline_sim(150, 3, BgpConfig::default());
    sim.originate(origin, Prefix(0));
    sim.run_to_quiescence().unwrap();
    let events = sim.events_processed();
    sim.run_until(sim.now() + SimDuration::from_secs(3600)).unwrap();
    assert_eq!(sim.events_processed(), events, "nothing left to do");
}

#[test]
fn per_prefix_scope_converges_and_counts_consistently() {
    let cfg = BgpConfig {
        mrai_scope: MraiScope::PerPrefix,
        ..BgpConfig::default()
    };
    let (mut sim, origin) = baseline_sim(250, 4, cfg);
    let outcome = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
    assert!(outcome.total_updates > 0);
    for id in sim.graph().node_ids() {
        assert!(sim.node(id).best_route(Prefix(0)).is_some(), "{id}");
    }
}

#[test]
fn link_failure_under_wrate_still_converges() {
    let cfg = BgpConfig {
        mrai_mode: MraiMode::Wrate,
        ..BgpConfig::default()
    };
    let (mut sim, origin) = baseline_sim(200, 5, cfg);
    sim.originate(origin, Prefix(0));
    sim.run_to_quiescence().unwrap();
    let provider = sim.graph().providers(origin).next().unwrap();
    let outcome = run_l_event(&mut sim, origin, provider, Prefix(0)).unwrap();
    assert!(outcome.fail_updates > 0);
    let unreachable = sim
        .graph()
        .node_ids()
        .filter(|&id| sim.node(id).best_route(Prefix(0)).is_none())
        .count();
    assert_eq!(unreachable, 0, "recovery must restore universal reachability");
}

#[test]
fn link_failure_with_rfd_does_not_wedge_routing() {
    // A session reset clears damping state for that session; the network
    // must converge normally afterwards.
    let cfg = BgpConfig {
        rfd: Some(RfdConfig::default()),
        ..BgpConfig::default()
    };
    let (mut sim, origin) = baseline_sim(200, 6, cfg);
    sim.originate(origin, Prefix(0));
    sim.run_to_quiescence().unwrap();
    let provider = sim.graph().providers(origin).next().unwrap();
    // Two consecutive L-events would look like flapping to damping if the
    // session reset did not clear the per-session figures of merit.
    for _ in 0..2 {
        run_l_event(&mut sim, origin, provider, Prefix(0)).unwrap();
    }
    let unreachable = sim
        .graph()
        .node_ids()
        .filter(|&id| sim.node(id).best_route(Prefix(0)).is_none())
        .count();
    assert_eq!(unreachable, 0);
}

#[test]
fn per_prefix_and_per_interface_agree_on_fixpoint_with_many_prefixes() {
    // Even with concurrent multi-prefix events (where churn differs), the
    // final routing state must be identical: MRAI affects timing, never
    // the fixpoint.
    let g = generate(GrowthScenario::Baseline, 200, 7);
    let origins: Vec<_> = g
        .node_ids()
        .filter(|&id| g.node_type(id) == NodeType::C)
        .take(5)
        .collect();
    let mut fixpoints = Vec::new();
    for scope in [MraiScope::PerInterface, MraiScope::PerPrefix] {
        let cfg = BgpConfig {
            mrai_scope: scope,
            ..BgpConfig::default()
        };
        let mut sim = Simulator::new(g.clone(), cfg, 7);
        for (i, &o) in origins.iter().enumerate() {
            sim.originate(o, Prefix(i as u32));
        }
        sim.run_to_quiescence().unwrap();
        // Simultaneous withdraw + re-announce of everything.
        for (i, &o) in origins.iter().enumerate() {
            sim.withdraw(o, Prefix(i as u32));
        }
        sim.run_to_quiescence().unwrap();
        for (i, &o) in origins.iter().enumerate() {
            sim.originate(o, Prefix(i as u32));
        }
        sim.run_to_quiescence().unwrap();
        let state: Vec<_> = sim
            .graph()
            .node_ids()
            .flat_map(|id| {
                (0..origins.len() as u32).map(move |p| (id, Prefix(p)))
            })
            .map(|(id, p)| sim.node(id).best_route(p).map(|(nh, path)| (nh, sim.paths().to_vec(path))))
            .collect();
        fixpoints.push(state);
    }
    assert_eq!(fixpoints[0], fixpoints[1]);
}

#[test]
fn messages_dropped_only_with_link_failures() {
    let (mut sim, origin) = baseline_sim(150, 8, BgpConfig::default());
    run_c_event(&mut sim, origin, Prefix(0)).unwrap();
    assert_eq!(sim.messages_dropped(), 0);
}
