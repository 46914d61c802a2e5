//! The L-event: a link failure followed by recovery.
//!
//! The paper's future work calls for "more complex events than the
//! C-event"; the L-event is the natural next step (and the event class
//! studied by Zhao et al., whose "edge events affect more nodes than core
//! events" result the paper cites). A transit or peering link fails — both
//! BGP sessions drop, each side invalidates everything learned from the
//! other — the network re-converges around it, then the link comes back
//! and the sessions exchange full tables again.
//!
//! Unlike a C-event, an L-event need not make the prefix unreachable: if
//! alternate policy-compliant paths exist, routing heals around the
//! failure.

use bgpscale_bgp::Prefix;
use bgpscale_simkernel::SimDuration;
use bgpscale_topology::AsId;

use crate::sim::{EventBudgetExceeded, Simulator};

/// Aggregate measurements of one L-event for one monitored prefix.
#[derive(Clone, Copy, Debug)]
pub struct LEventOutcome {
    /// Updates delivered network-wide during the failure phase.
    pub fail_updates: u64,
    /// Updates delivered network-wide during the recovery phase.
    pub restore_updates: u64,
    /// Simulated convergence time of the failure phase.
    pub fail_convergence: SimDuration,
    /// Simulated convergence time of the recovery phase.
    pub restore_convergence: SimDuration,
    /// Number of nodes with no route to the monitored prefix while the
    /// link was down (0 when the topology healed around the failure).
    pub unreachable_during_outage: usize,
}

/// Runs one L-event on the `a`–`b` link while `prefix` (already announced
/// and converged — see [`crate::cevent::warm_up`]) is monitored.
///
/// On return the link is restored and the network converged; the churn
/// counters hold the combined fail+restore counts.
///
/// # Errors
/// Propagates [`EventBudgetExceeded`] from either phase.
///
/// # Panics
/// Panics if the link does not exist or is already down.
pub fn run_l_event<O: bgpscale_obs::SimObserver>(
    sim: &mut Simulator<O>,
    a: AsId,
    b: AsId,
    prefix: Prefix,
) -> Result<LEventOutcome, EventBudgetExceeded> {
    sim.churn_mut().reset();
    sim.churn_mut().set_enabled(true);

    let fail_start = sim.now();
    sim.fail_link(a, b);
    let fail_end = sim.run_to_quiescence()?;
    let fail_updates = sim.churn().total();

    let unreachable_during_outage = sim
        .graph()
        .node_ids()
        .filter(|&id| sim.node(id).best_route(prefix).is_none())
        .count();

    let restore_start = sim.now();
    sim.restore_link(a, b);
    let restore_end = sim.run_to_quiescence()?;
    let restore_updates = sim.churn().total() - fail_updates;

    sim.churn_mut().set_enabled(false);
    Ok(LEventOutcome {
        fail_updates,
        restore_updates,
        fail_convergence: fail_end.saturating_since(fail_start),
        restore_convergence: restore_end.saturating_since(restore_start),
        unreachable_during_outage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_bgp::BgpConfig;
    use bgpscale_topology::{generate, GrowthScenario, NodeType, RegionSet};
    use bgpscale_topology::AsGraph;

    /// T0==T1; M2→T0, M3→T1; C4→{M2,M3} (dual-homed); C5→M3.
    fn dual_homed() -> (AsGraph, [AsId; 6]) {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, r);
        let t1 = g.add_node(NodeType::T, r);
        let m2 = g.add_node(NodeType::M, r);
        let m3 = g.add_node(NodeType::M, r);
        let c4 = g.add_node(NodeType::C, r);
        let c5 = g.add_node(NodeType::C, r);
        g.add_peer_link(t0, t1);
        g.add_transit_link(m2, t0);
        g.add_transit_link(m3, t1);
        g.add_transit_link(c4, m2);
        g.add_transit_link(c4, m3);
        g.add_transit_link(c5, m3);
        (g, [t0, t1, m2, m3, c4, c5])
    }

    #[test]
    fn failure_heals_around_multihomed_origin() {
        let (g, ids) = dual_homed();
        let mut sim = Simulator::new(g, BgpConfig::default(), 1);
        sim.originate(ids[4], Prefix(0));
        sim.run_to_quiescence().unwrap();
        // Fail C4–M2: C4 still reaches everyone via M3.
        let outcome = run_l_event(&mut sim, ids[4], ids[2], Prefix(0)).unwrap();
        assert_eq!(outcome.unreachable_during_outage, 0, "dual-homing must heal");
        assert!(outcome.fail_updates > 0);
        assert!(outcome.restore_updates > 0);
        // After restore, everyone routes again.
        for &id in &ids {
            assert!(sim.node(id).best_route(Prefix(0)).is_some(), "{id}");
        }
    }

    #[test]
    fn failure_of_only_link_blacks_out_the_prefix() {
        let (g, ids) = dual_homed();
        let mut sim = Simulator::new(g, BgpConfig::default(), 2);
        sim.originate(ids[5], Prefix(0)); // C5 is single-homed to M3
        sim.run_to_quiescence().unwrap();
        let outcome = run_l_event(&mut sim, ids[5], ids[3], Prefix(0)).unwrap();
        // During the outage nobody (except the origin) can reach it.
        assert_eq!(
            outcome.unreachable_during_outage,
            5,
            "all 5 non-origin nodes must lose the route"
        );
        // Recovery restores everyone.
        for &id in &ids {
            assert!(sim.node(id).best_route(Prefix(0)).is_some(), "{id}");
        }
    }

    #[test]
    fn routing_returns_to_the_original_fixpoint_after_restore() {
        let (g, ids) = dual_homed();
        let mut sim = Simulator::new(g, BgpConfig::default(), 3);
        sim.originate(ids[4], Prefix(0));
        sim.run_to_quiescence().unwrap();
        let before: Vec<_> = ids
            .iter()
            .map(|&id| sim.node(id).best_route(Prefix(0)))
            .collect();
        run_l_event(&mut sim, ids[4], ids[2], Prefix(0)).unwrap();
        let after: Vec<_> = ids
            .iter()
            .map(|&id| sim.node(id).best_route(Prefix(0)))
            .collect();
        assert_eq!(before, after, "restore must return to the same fixpoint");
    }

    #[test]
    fn core_link_failure_on_generated_topology() {
        let g = generate(GrowthScenario::Baseline, 200, 9);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        // Fail a transit link of the origin's provider (one hop up).
        let provider = g.providers(origin).next().unwrap();
        let upstream = g.providers(provider).next();
        let mut sim = Simulator::new(g, BgpConfig::default(), 9);
        sim.originate(origin, Prefix(0));
        sim.run_to_quiescence().unwrap();
        if let Some(upstream) = upstream {
            let outcome = run_l_event(&mut sim, provider, upstream, Prefix(0)).unwrap();
            assert!(outcome.fail_updates > 0);
            // Converged and consistent afterwards.
            let unreachable = sim
                .graph()
                .node_ids()
                .filter(|&id| sim.node(id).best_route(Prefix(0)).is_none())
                .count();
            assert_eq!(unreachable, 0);
        }
    }

    #[test]
    fn link_state_is_tracked() {
        let (g, ids) = dual_homed();
        let mut sim = Simulator::new(g, BgpConfig::default(), 4);
        assert!(!sim.link_down(ids[4], ids[2]));
        sim.fail_link(ids[4], ids[2]);
        assert!(sim.link_down(ids[4], ids[2]));
        assert!(sim.link_down(ids[2], ids[4]), "symmetric");
        sim.run_to_quiescence().unwrap();
        sim.restore_link(ids[4], ids[2]);
        assert!(!sim.link_down(ids[4], ids[2]));
        sim.run_to_quiescence().unwrap();
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_failure_rejected() {
        let (g, ids) = dual_homed();
        let mut sim = Simulator::new(g, BgpConfig::default(), 5);
        sim.fail_link(ids[4], ids[2]);
        sim.fail_link(ids[2], ids[4]);
    }

    #[test]
    fn in_flight_messages_on_failed_link_are_dropped() {
        let (g, ids) = dual_homed();
        let mut sim = Simulator::new(g, BgpConfig::default(), 6);
        // Originate, then immediately fail the first-hop link while the
        // announcement is still in flight.
        sim.originate(ids[4], Prefix(0));
        sim.fail_link(ids[4], ids[2]);
        sim.run_to_quiescence().unwrap();
        assert!(sim.messages_dropped() > 0, "in-flight message must be lost");
        // The network still converges through the surviving link.
        assert!(sim.node(ids[0]).best_route(Prefix(0)).is_some());
    }
}
