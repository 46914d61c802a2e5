//! Churn in closed form: on a single-homed provider tree without peering,
//! every per-session counter of a C-event is known without running it.
//!
//! Take TREE's parameters (every M, CP and C node has one provider) with
//! NO-PEERING's (no peering outside the tier-1 clique). The origin's route
//! then has one path to every node, so nothing is explored: a node hears
//! one withdrawal in DOWN and one announcement in UP, both over the one
//! session the route reaches it by —
//!
//! * its customer on the origin's chain, if it is an ancestor of the origin;
//! * the chain's tier-1 node, if it is another tier-1 node (a peer route,
//!   which Gao–Rexford exports to customers only);
//! * its one provider, otherwise —
//!
//! and nothing over any other session. This pins every counter of
//! `ChurnCollector::node_counts` to that closed form, independently of the
//! simulator's own golden hashes, in both MRAI modes.

use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::SimTemplate;
use bgpscale_topology::generator::generate_with_stats;
use bgpscale_topology::{AsGraph, AsId, GrowthScenario, NodeType};

const N: usize = 500;

/// A single-homed provider tree under a tier-1 clique.
fn tree_without_peering(seed: u64) -> AsGraph {
    let mut params = GrowthScenario::Tree.params(N);
    // NO-PEERING's three peering probabilities.
    params.p_m = 0.0;
    params.p_cp_m = 0.0;
    params.p_cp_cp = 0.0;
    let (graph, _) = generate_with_stats(&params, seed);
    let tier1 = graph.nodes_of_type(NodeType::T);
    for id in graph.node_ids() {
        if graph.node_type(id) == NodeType::T {
            assert_eq!(graph.providers(id).count(), 0, "{id} is tier-1");
            assert_eq!(
                graph.peers(id).count(),
                tier1.len() - 1,
                "{id} is in the clique"
            );
        } else {
            assert_eq!(graph.providers(id).count(), 1, "{id} is single-homed");
            assert_eq!(graph.peers(id).count(), 0, "{id} does not peer");
        }
    }
    graph
}

/// The one neighbor every node but `origin` hears the route from.
fn closed_form_sender(graph: &AsGraph, origin: AsId) -> Vec<Option<AsId>> {
    let provider = |id: AsId| graph.providers(id).next();
    let mut sender: Vec<Option<AsId>> = graph.node_ids().map(provider).collect();
    // The chain from the origin up to its tier-1 root: each ancestor hears
    // from the customer below it.
    let mut below = origin;
    while let Some(up) = provider(below) {
        sender[up.index()] = Some(below);
        below = up;
    }
    let root = below;
    for t in graph
        .nodes_of_type(NodeType::T)
        .into_iter()
        .filter(|&t| t != root)
    {
        sender[t.index()] = Some(root);
    }
    sender[origin.index()] = None;
    sender
}

#[test]
fn every_session_counter_of_a_tree_without_peering_is_closed_form() {
    for (seed, bgp) in [(3, BgpConfig::no_wrate()), (5, BgpConfig::wrate())] {
        let graph = Arc::new(tree_without_peering(seed));
        let template = SimTemplate::new(Arc::clone(&graph), bgp);
        let origins = graph.nodes_of_type(NodeType::C);
        for (k, &origin) in origins
            .iter()
            .step_by(origins.len() / 3)
            .take(3)
            .enumerate()
        {
            let mode = bgp.mrai_mode.label();
            let mut sim = template.instantiate(seed ^ k as u64);
            let outcome = run_c_event(&mut sim, origin, Prefix(k as u32)).unwrap();
            let observers = (N - 1) as u64;
            assert_eq!(
                outcome.withdrawals, observers,
                "{mode} event {k}: one withdrawal per node"
            );
            assert_eq!(
                outcome.total_updates,
                2 * observers,
                "{mode} event {k}: and one announcement"
            );

            let sender = closed_form_sender(&graph, origin);
            for node in graph.node_ids() {
                let counts = sim.churn().node_counts(node);
                let sessions = sim.node(node).sessions();
                for (session, &count) in sessions.iter().zip(counts) {
                    let expected = if Some(session.peer) == sender[node.index()] {
                        2
                    } else {
                        0
                    };
                    assert_eq!(
                        count, expected,
                        "{mode} event {k} from {origin}: {node} heard {count} updates from {}",
                        session.peer
                    );
                }
                // Back after UP, over the one session: the route it lost.
                let best = sim.node(node).best_route(Prefix(k as u32));
                let via = best.and_then(|(next_hop, _)| next_hop);
                assert_eq!(
                    via,
                    sender[node.index()],
                    "{mode} event {k}: {node}'s next hop"
                );
            }
        }
    }
}
