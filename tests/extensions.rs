//! Cross-crate integration tests for the extension machinery (L-events,
//! Route Flap Damping, flap storms, burstiness bins), driven through
//! the facade exactly as a downstream user would.

use bgpscale::bgp::rfd::RfdConfig;
use bgpscale::core::flapstorm::{run_flap_storm, FlapStormConfig};
use bgpscale::core::levent::run_l_event;
use bgpscale::core::SimTemplate;
use bgpscale::experiments::figures::ext_burstiness::{binned_c_event, ArrivalBins};
use bgpscale::prelude::*;
use std::sync::Arc;

fn setup(n: usize, seed: u64, bgp: BgpConfig) -> (Simulator, AsId) {
    let graph = generate(GrowthScenario::Baseline, n, seed);
    let origin = graph
        .node_ids()
        .find(|&id| graph.node_type(id) == NodeType::C)
        .unwrap();
    (Simulator::new(graph, bgp, seed), origin)
}

#[test]
fn l_event_through_the_facade() {
    let (mut sim, origin) = setup(250, 1, BgpConfig::default());
    sim.originate(origin, Prefix(0));
    sim.run_to_quiescence().unwrap();
    let provider = sim.graph().providers(origin).next().unwrap();
    let outcome = run_l_event(&mut sim, origin, provider, Prefix(0)).unwrap();
    assert!(outcome.fail_updates > 0);
    assert!(outcome.restore_updates > 0);
    // Healing matches multihoming.
    let multihomed = sim.graph().multihoming_degree(origin) > 1;
    assert_eq!(outcome.unreachable_during_outage == 0, multihomed);
}

#[test]
fn mrai_scope_is_selectable_from_config() {
    for scope in [MraiScope::PerInterface, MraiScope::PerPrefix] {
        let cfg = BgpConfig {
            mrai_scope: scope,
            ..BgpConfig::default()
        };
        let (mut sim, origin) = setup(200, 2, cfg);
        let outcome = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        assert!(outcome.total_updates > 0, "{scope:?}");
        assert_eq!(sim.config().mrai_scope, scope);
    }
}

#[test]
fn damping_suppresses_then_recovers_through_the_facade() {
    let cfg = BgpConfig {
        rfd: Some(RfdConfig::default()),
        ..BgpConfig::default()
    };
    let (mut sim, origin) = setup(250, 3, cfg);
    let storm = FlapStormConfig {
        flaps: 6,
        ..FlapStormConfig::default()
    };
    let outcome = run_flap_storm(&mut sim, origin, Prefix(0), &storm).unwrap();
    assert!(outcome.suppressed_nodes > 0);
    assert_eq!(outcome.unreachable_after_reuse, 0);
    // Every node routes the prefix again at the very end.
    for id in sim.graph().node_ids() {
        assert!(sim.node(id).best_route(Prefix(0)).is_some(), "{id}");
    }
}

#[test]
fn timeline_burstiness_through_the_facade() {
    let graph = generate(GrowthScenario::Baseline, 300, 4);
    let origin = graph
        .node_ids()
        .find(|&id| graph.node_type(id) == NodeType::C)
        .unwrap();
    let template = SimTemplate::new(Arc::new(graph), BgpConfig::default());
    let mut sim = template.instantiate_observed(4, ArrivalBins::default());
    let (bins, _) = binned_c_event(&mut sim, origin).unwrap();
    let binned: u64 = bins.counts.iter().map(|&c| u64::from(c)).sum();
    assert_eq!(binned, sim.churn().total(), "the bins hold exactly the counted updates");
    assert!(
        bins.peak_to_mean() > 1.5,
        "convergence traffic should be bursty, got {}",
        bins.peak_to_mean()
    );
}

#[test]
fn determinism_spans_all_extension_features() {
    // One combined scenario: damping + a storm + an L-event; two runs
    // must agree exactly.
    let mut signatures = Vec::new();
    for _ in 0..2 {
        let cfg = BgpConfig {
            rfd: Some(RfdConfig::default()),
            ..BgpConfig::default()
        };
        let (mut sim, origin) = setup(200, 5, cfg);
        let storm = FlapStormConfig {
            flaps: 3,
            ..FlapStormConfig::default()
        };
        let s = run_flap_storm(&mut sim, origin, Prefix(0), &storm).unwrap();
        let provider = sim.graph().providers(origin).next().unwrap();
        let l = run_l_event(&mut sim, origin, provider, Prefix(0)).unwrap();
        signatures.push((
            s.total_updates,
            s.suppressed_nodes,
            l.fail_updates,
            l.restore_updates,
            sim.events_processed(),
        ));
    }
    assert_eq!(signatures[0], signatures[1]);
}
