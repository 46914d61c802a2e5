//! Property-based tests: every generated topology, for any scenario, size
//! and seed, satisfies all structural invariants; the valley-free
//! machinery agrees with basic graph facts.

use bgpscale_topology::valley::valley_free_distances;
use bgpscale_topology::validate::validate;
use bgpscale_topology::{generate, GrowthScenario, NodeType};
use proptest::prelude::*;

fn scenario_strategy() -> impl Strategy<Value = GrowthScenario> {
    prop::sample::select(GrowthScenario::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: any (scenario, n, seed) yields a topology
    /// that passes the full structural validator.
    #[test]
    fn any_generated_topology_validates(
        scenario in scenario_strategy(),
        n in 60usize..400,
        seed in any::<u64>(),
    ) {
        let g = generate(scenario, n, seed);
        prop_assert_eq!(g.len(), n);
        if let Err(violations) = validate(&g) {
            prop_assert!(false, "{scenario} n={n} seed={seed}: {} violations, first: {}",
                violations.len(), violations[0]);
        }
    }

    /// Generation is a pure function of its inputs.
    #[test]
    fn generation_is_deterministic(
        scenario in scenario_strategy(),
        n in 60usize..200,
        seed in any::<u64>(),
    ) {
        let a = generate(scenario, n, seed);
        let b = generate(scenario, n, seed);
        for id in a.node_ids() {
            prop_assert_eq!(a.neighbors(id), b.neighbors(id));
        }
    }

    /// Valley-free distances: 0 at the source, and each neighbor is
    /// within 1 hop of the triangle bound |d(u) − d(v)| ≤ 1 *when both
    /// are reachable through an unrestricted hop* — we check the weaker,
    /// always-true direction: a provider of the source is at distance 1.
    #[test]
    fn valley_distances_basic_facts(n in 60usize..200, seed in any::<u64>()) {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let src = g.node_ids().find(|&id| g.node_type(id) == NodeType::C).unwrap();
        let d = valley_free_distances(&g, src);
        prop_assert_eq!(d[src.index()], Some(0));
        for p in g.providers(src) {
            prop_assert_eq!(d[p.index()], Some(1), "provider not at distance 1");
        }
        // Everything is reachable in a validated topology.
        prop_assert!(d.iter().all(|x| x.is_some()));
        // No distance exceeds a loose diameter bound.
        prop_assert!(d.iter().flatten().all(|&h| h < n as u32));
    }

    /// Degree bookkeeping: cached per-relation tallies equal recounts.
    #[test]
    fn degree_caches_match_adjacency(
        scenario in scenario_strategy(),
        n in 60usize..150,
        seed in any::<u64>(),
    ) {
        let g = generate(scenario, n, seed);
        for id in g.node_ids() {
            let customers = g.customers(id).count();
            let peers = g.peers(id).count();
            let providers = g.providers(id).count();
            prop_assert_eq!(g.multihoming_degree(id), providers);
            prop_assert_eq!(g.peering_degree(id), peers);
            prop_assert_eq!(g.transit_degree(id), customers + providers);
            prop_assert_eq!(g.degree(id), customers + peers + providers);
        }
    }

    /// The population mix always matches the requested parameters.
    #[test]
    fn population_matches_params(
        scenario in scenario_strategy(),
        n in 60usize..300,
        seed in any::<u64>(),
    ) {
        let p = scenario.params(n);
        let g = generate(scenario, n, seed);
        prop_assert_eq!(g.count_of_type(NodeType::T), p.n_t);
        prop_assert_eq!(g.count_of_type(NodeType::M), p.n_m);
        prop_assert_eq!(g.count_of_type(NodeType::Cp), p.n_cp);
        prop_assert_eq!(g.count_of_type(NodeType::C), p.n_c);
    }
}
