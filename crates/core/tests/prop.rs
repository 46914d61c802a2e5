//! Property-based tests for the network simulator: safety and convergence
//! properties that must hold on *any* generated topology.

use bgpscale_bgp::{BgpConfig, MraiMode, MraiScope, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::Simulator;
use bgpscale_topology::{generate, GrowthScenario, NodeType, Relationship};
use proptest::prelude::*;

fn any_mode() -> impl Strategy<Value = MraiMode> {
    prop::sample::select(vec![MraiMode::NoWrate, MraiMode::Wrate])
}

fn config(mode: MraiMode) -> BgpConfig {
    BgpConfig {
        mrai_mode: mode,
        ..BgpConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Safety: after convergence, every installed path is valley-free and
    /// ends at the origin, under either MRAI mode.
    #[test]
    fn converged_paths_are_valley_free(
        n in 60usize..180,
        seed in any::<u64>(),
        mode in any_mode(),
    ) {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let origin = g.node_ids().find(|&id| g.node_type(id) == NodeType::C).unwrap();
        let mut sim = Simulator::new(g, config(mode), seed ^ 1);
        sim.originate(origin, Prefix(0));
        sim.run_to_quiescence().unwrap();
        let g = sim.graph();
        for id in g.node_ids() {
            let Some((_, path)) = sim.node(id).best_route(Prefix(0)) else {
                prop_assert!(false, "{} has no route after convergence", id);
                unreachable!();
            };
            // Valley-free walk: up* (peer)? down*.
            let mut full = vec![id];
            full.extend(sim.paths().hops(path));
            prop_assert_eq!(full.last(), Some(&origin), "path does not end at origin");
            let mut state = 0u8;
            for w in full.windows(2) {
                let rel = g.relationship(w[0], w[1]).expect("path uses real links");
                state = match (state, rel) {
                    (0, Relationship::Provider) => 0,
                    (0, Relationship::Peer) => 1,
                    (0..=2, Relationship::Customer) => 2,
                    (s, r) => {
                        prop_assert!(false, "valley in {:?}: state {s}, hop {:?}", full, r);
                        unreachable!();
                    }
                };
            }
            // No AS appears twice (loop freedom).
            let mut sorted = full.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), full.len(), "loop in {:?}", full);
        }
    }

    /// Liveness + self-stabilization: a full C-event returns the network
    /// to a fixpoint in which everyone routes the prefix again, and the
    /// fixpoint is independent of timing (service times and jitter draw
    /// from a different stream when the sim seed changes, yet routes
    /// agree).
    #[test]
    fn c_event_fixpoint_is_timing_independent(
        n in 60usize..150,
        topo_seed in any::<u64>(),
        sim_seed_a in any::<u64>(),
        sim_seed_b in any::<u64>(),
        mode in any_mode(),
    ) {
        let g = generate(GrowthScenario::Baseline, n, topo_seed);
        let origin = g.node_ids().find(|&id| g.node_type(id) == NodeType::C).unwrap();
        let mut routes = Vec::new();
        for sim_seed in [sim_seed_a, sim_seed_b] {
            let mut sim = Simulator::new(g.clone(), config(mode), sim_seed);
            run_c_event(&mut sim, origin, Prefix(0)).unwrap();
            routes.push(
                sim.graph()
                    .node_ids()
                    .map(|id| sim.node(id).best_route(Prefix(0)).map(|(nh, p)| (nh, sim.paths().to_vec(p))))
                    .collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&routes[0], &routes[1], "fixpoint depends on message timing");
    }

    /// Churn accounting: Eq. 1 reconstructs every node's update total
    /// exactly, for any topology and mode.
    #[test]
    fn eq1_exact_per_node(
        n in 60usize..150,
        seed in any::<u64>(),
        mode in any_mode(),
    ) {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let origin = g.node_ids().find(|&id| g.node_type(id) == NodeType::C).unwrap();
        let mut sim = Simulator::new(g, config(mode), seed ^ 2);
        run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        let ids: Vec<_> = sim.graph().node_ids().collect();
        for id in ids {
            let f = bgpscale_core::factors::node_factors(&sim, id);
            prop_assert!(f.eq1_holds(), "Eq. 1 fails at {}: {:?}", id, f);
            prop_assert_eq!(f.total_updates(), sim.churn().node_total(id));
        }
    }

    /// For single-prefix workloads, per-prefix and per-interface MRAI
    /// scopes are *bit-identical*: there is only one prefix per session,
    /// so the timers coincide. (They separate only under concurrent
    /// multi-prefix events — extension E5.)
    #[test]
    fn mrai_scopes_identical_for_single_prefix(
        n in 60usize..140,
        seed in any::<u64>(),
        mode in any_mode(),
    ) {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let origin = g.node_ids().find(|&id| g.node_type(id) == NodeType::C).unwrap();
        let mut totals = Vec::new();
        let mut times = Vec::new();
        for scope in [MraiScope::PerInterface, MraiScope::PerPrefix] {
            let cfg = BgpConfig {
                mrai_scope: scope,
                ..config(mode)
            };
            let mut sim = Simulator::new(g.clone(), cfg, seed ^ 5);
            let outcome = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
            totals.push(outcome.total_updates);
            times.push((outcome.down_convergence, outcome.up_convergence));
        }
        prop_assert_eq!(totals[0], totals[1], "scopes must coincide for one prefix");
        prop_assert_eq!(times[0], times[1]);
    }

    /// WRATE does not reduce churn in aggregate. (Per-event strict
    /// dominance does NOT hold: a queued withdrawal can be absorbed by a
    /// later announcement and never transmitted, occasionally making a
    /// single WRATE event cheaper — so we compare sums over several
    /// originators with a safety margin. The systematic *increase* is
    /// what Fig. 12 shows at scale.)
    #[test]
    fn wrate_does_not_reduce_churn_in_aggregate(n in 80usize..140, seed in any::<u64>()) {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let origins: Vec<_> = g
            .node_ids()
            .filter(|&id| g.node_type(id) == NodeType::C)
            .take(4)
            .collect();
        let mut totals = [0u64; 2];
        for (k, mode) in [MraiMode::NoWrate, MraiMode::Wrate].into_iter().enumerate() {
            let mut sim = Simulator::new(g.clone(), config(mode), seed ^ 3);
            for (i, &origin) in origins.iter().enumerate() {
                let outcome = run_c_event(&mut sim, origin, Prefix(i as u32)).unwrap();
                totals[k] += outcome.total_updates;
                sim.reset_routing();
                sim.churn_mut().reset();
            }
        }
        prop_assert!(
            totals[1] as f64 >= 0.8 * totals[0] as f64,
            "WRATE {} ≪ NO-WRATE {}",
            totals[1],
            totals[0]
        );
    }
}
