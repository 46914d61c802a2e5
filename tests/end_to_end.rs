//! Cross-crate integration: the full pipeline from topology generation
//! through simulation to churn reports, exercised through the facade
//! crate's public API exactly as a downstream user would.

use bgpscale::prelude::*;
use bgpscale::topology::validate::validate;

#[test]
fn full_pipeline_baseline() {
    let cfg = ExperimentConfig {
        scenario: GrowthScenario::Baseline,
        n: 400,
        events: 5,
        seed: 1,
        bgp: BgpConfig::default(),
        event_limit: None,
        wheel_slot_bits: None,
    };
    let report = run_experiment(&cfg);
    assert_eq!(report.n, 400);
    assert_eq!(report.events, 5);
    // Every type observed churn.
    for ty in [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C] {
        assert!(report.by_type(ty).u_total > 0.0, "{ty} saw nothing");
    }
    // Eq. 1 reconstruction at the report level.
    for ty in [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C] {
        let sum: f64 = Relationship::ALL.iter().map(|&rel| report.u(ty, rel)).sum();
        assert!((sum - report.by_type(ty).u_total).abs() < 1e-6);
    }
}

#[test]
fn experiment_is_reproducible_end_to_end() {
    let cfg = ExperimentConfig {
        scenario: GrowthScenario::DenseCore,
        n: 300,
        events: 4,
        seed: 99,
        bgp: BgpConfig::default(),
        event_limit: None,
        wheel_slot_bits: None,
    };
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.mean_total_updates, b.mean_total_updates);
    assert_eq!(a.mean_down_convergence_s, b.mean_down_convergence_s);
    for ty in [NodeType::T, NodeType::M] {
        assert_eq!(a.by_type(ty).u_total, b.by_type(ty).u_total);
        assert_eq!(a.by_type(ty).per_event_u, b.by_type(ty).per_event_u);
    }
}

#[test]
fn every_scenario_runs_end_to_end() {
    for scenario in GrowthScenario::ALL {
        let report = run_experiment(&ExperimentConfig {
            scenario,
            n: 250,
            events: 2,
            seed: 5,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        });
        assert!(
            report.mean_total_updates > 0.0,
            "{scenario} produced no churn"
        );
    }
}

#[test]
fn simulator_and_oracle_agree_on_reachability() {
    // After convergence, a node has a route iff the valley-free oracle
    // says the origin is reachable (always, in a validated topology), and
    // the BGP path is at least as long as the oracle's shortest
    // valley-free path (policy can prefer longer customer routes).
    use bgpscale::topology::valley::valley_free_distances;
    let graph = generate(GrowthScenario::Baseline, 300, 11);
    validate(&graph).unwrap();
    let origin = graph
        .node_ids()
        .find(|&id| graph.node_type(id) == NodeType::C)
        .unwrap();
    let oracle = valley_free_distances(&graph, origin);
    let mut sim = Simulator::new(graph, BgpConfig::default(), 11);
    sim.originate(origin, Prefix(0));
    sim.run_to_quiescence().unwrap();
    for id in sim.graph().node_ids() {
        if id == origin {
            continue;
        }
        let (_, path) = sim
            .node(id)
            .best_route(Prefix(0))
            .unwrap_or_else(|| panic!("{id} unreachable"));
        let lower_bound = oracle[id.index()].expect("oracle agrees reachable");
        let hops = sim.paths().len(path);
        assert!(
            hops as u32 >= lower_bound,
            "{id}: BGP path {hops} hops < valley-free minimum {lower_bound}"
        );
    }
}

#[test]
fn wrate_increases_churn_at_moderate_scale() {
    // The §6 headline at a size where it is statistically robust.
    let mut totals = Vec::new();
    for bgp in [BgpConfig::no_wrate(), BgpConfig::wrate()] {
        let report = run_experiment(&ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 600,
            events: 8,
            seed: 3,
            bgp,
            event_limit: None,
            wheel_slot_bits: None,
        });
        totals.push(report.mean_total_updates);
    }
    assert!(
        totals[1] > totals[0],
        "WRATE {} should exceed NO-WRATE {}",
        totals[1],
        totals[0]
    );
}

#[test]
fn tree_invariant_holds_through_the_facade() {
    let report = run_experiment(&ExperimentConfig {
        scenario: GrowthScenario::Tree,
        n: 300,
        events: 6,
        seed: 8,
        bgp: BgpConfig::default(),
        event_limit: None,
        wheel_slot_bits: None,
    });
    assert!(
        (report.by_type(NodeType::T).u_total - 2.0).abs() < 1e-9,
        "TREE: U(T) = {}",
        report.by_type(NodeType::T).u_total
    );
}

#[test]
fn convergence_time_reported_in_seconds() {
    let report = run_experiment(&ExperimentConfig {
        scenario: GrowthScenario::Baseline,
        n: 300,
        events: 3,
        seed: 21,
        bgp: BgpConfig::default(),
        event_limit: None,
        wheel_slot_bits: None,
    });
    // NO-WRATE DOWN convergence: sub-minute; UP can take a few MRAI
    // rounds.
    assert!(report.mean_down_convergence_s > 0.0);
    assert!(report.mean_down_convergence_s < 60.0);
    assert!(report.mean_up_convergence_s < 300.0);
}
