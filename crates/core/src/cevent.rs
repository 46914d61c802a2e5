//! The C-event: the paper's canonical routing event (§4).
//!
//! *"Our main metric is the number of updates received at a node after
//! withdrawing a prefix from a C-type node, letting the network converge,
//! and then re-announcing the prefix again."*
//!
//! The protocol lives here once, as three phases over a slice of
//! `(origin, prefix)` events that flap storms and the extension figures
//! call too ([`run_c_event`] composes them for one event):
//!
//! 1. [`warm_up`] — counting off; every origin announces its prefix; the
//!    network converges; counters zeroed and counting on (the initial
//!    announcement is not part of the metric);
//! 2. [`down`] — every origin withdraws; converge;
//! 3. [`up`] — every origin re-announces; converge. The simulator is
//!    left converged with every prefix announced, so callers can chain
//!    further phases or reset.

use bgpscale_bgp::Prefix;
use bgpscale_obs::costmodel::{OpCounts, PhaseCosts, PHASES};
use bgpscale_obs::SimObserver;
use bgpscale_simkernel::SimDuration;
use bgpscale_topology::AsId;

use crate::sim::{EventBudgetExceeded, Simulator};

/// Aggregate measurements of one C-event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CEventOutcome {
    /// Total updates delivered network-wide during DOWN + UP.
    pub total_updates: u64,
    /// Withdrawal messages among them.
    pub withdrawals: u64,
    /// Wall time (simulated) from the withdrawal until the last routing
    /// activity of the DOWN phase.
    pub down_convergence: SimDuration,
    /// Simulated time from the re-announcement until the last routing
    /// activity of the UP phase.
    pub up_convergence: SimDuration,
    /// Exact operation counts attributed to each phase (warm-up, DOWN,
    /// UP), diffed from the simulator's monotone cost tallies at the
    /// phase boundaries. Integer-only and deterministic.
    pub phase_costs: PhaseCosts,
}

/// The uncounted warm-up: with counting off, every origin announces its
/// prefix and the network converges; then the churn counters are zeroed
/// and counting is switched on for the phases that follow.
///
/// # Errors
/// Propagates [`EventBudgetExceeded`] if the network fails to quiesce.
pub fn warm_up<O: SimObserver>(
    sim: &mut Simulator<O>,
    events: &[(AsId, Prefix)],
) -> Result<(), EventBudgetExceeded> {
    sim.churn_mut().set_enabled(false);
    for &(origin, prefix) in events {
        sim.originate(origin, prefix);
    }
    sim.run_to_quiescence()?;
    sim.churn_mut().reset();
    sim.churn_mut().set_enabled(true);
    Ok(())
}

/// DOWN: every origin withdraws its prefix at the same instant; the
/// network converges. Returns the simulated time from the withdrawals
/// to the phase's last routing activity, or [`EventBudgetExceeded`].
pub fn down<O: SimObserver>(
    sim: &mut Simulator<O>,
    events: &[(AsId, Prefix)],
) -> Result<SimDuration, EventBudgetExceeded> {
    let start = sim.now();
    for &(origin, prefix) in events {
        sim.withdraw(origin, prefix);
    }
    Ok(sim.run_to_quiescence()?.saturating_since(start))
}

/// UP: every origin re-announces its prefix at the same instant; the
/// network converges. Returns the simulated time from the announcements
/// to the phase's last routing activity, or [`EventBudgetExceeded`].
pub fn up<O: SimObserver>(
    sim: &mut Simulator<O>,
    events: &[(AsId, Prefix)],
) -> Result<SimDuration, EventBudgetExceeded> {
    let start = sim.now();
    for &(origin, prefix) in events {
        sim.originate(origin, prefix);
    }
    Ok(sim.run_to_quiescence()?.saturating_since(start))
}

/// Runs one full C-event from `origin` for `prefix`: [`warm_up`],
/// [`down`], [`up`], then counting off. On return the simulator's churn
/// counters hold exactly this event's DOWN+UP counts (any previous counts
/// are cleared by the warm-up).
///
/// # Errors
/// Propagates [`EventBudgetExceeded`] if any phase fails to quiesce.
pub fn run_c_event<O: SimObserver>(
    sim: &mut Simulator<O>,
    origin: AsId,
    prefix: Prefix,
) -> Result<CEventOutcome, EventBudgetExceeded> {
    let event = [(origin, prefix)];
    let cost_base = sim.cost_counts();
    warm_up(sim, &event)?;
    let cost_warm = sim.cost_counts();
    let down_convergence = down(sim, &event)?;
    let cost_down = sim.cost_counts();
    let up_convergence = up(sim, &event)?;
    let cost_up = sim.cost_counts();

    sim.churn_mut().set_enabled(false);
    let phase_costs: [OpCounts; PHASES] = [
        cost_warm.since(&cost_base),
        cost_down.since(&cost_warm),
        cost_up.since(&cost_down),
    ];
    Ok(CEventOutcome {
        total_updates: sim.churn().total(),
        withdrawals: sim.churn().withdrawals(),
        down_convergence,
        up_convergence,
        phase_costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_bgp::BgpConfig;
    use bgpscale_topology::{generate, GrowthScenario, NodeType};

    fn baseline_sim(n: usize, seed: u64) -> (Simulator, AsId) {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .expect("baseline always has C nodes");
        (Simulator::new(g, BgpConfig::default(), seed ^ 0xC0FFEE), origin)
    }

    #[test]
    fn c_event_counts_only_down_and_up() {
        let (mut sim, origin) = baseline_sim(150, 1);
        let outcome = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        assert!(outcome.total_updates > 0);
        assert_eq!(outcome.total_updates, sim.churn().total());
        // Under NO-WRATE the DOWN phase is all withdrawals, the UP phase
        // all announcements; both must be present.
        assert!(outcome.withdrawals > 0);
        assert!(outcome.withdrawals < outcome.total_updates);
    }

    #[test]
    fn network_is_converged_and_announced_after_event() {
        let (mut sim, origin) = baseline_sim(150, 2);
        run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        // Every node routes the prefix again.
        let ids: Vec<_> = sim.graph().node_ids().collect();
        for id in ids {
            assert!(sim.node(id).best_route(Prefix(0)).is_some(), "{id}");
        }
    }

    #[test]
    fn convergence_times_are_positive_and_bounded() {
        let (mut sim, origin) = baseline_sim(150, 3);
        let o = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        assert!(!o.down_convergence.is_zero());
        assert!(!o.up_convergence.is_zero());
        // NO-WRATE: convergence takes well under a minute of simulated
        // time (withdrawals propagate at processing speed).
        assert!(o.down_convergence < SimDuration::from_secs(60));
        assert!(o.up_convergence < SimDuration::from_secs(60));
    }

    #[test]
    fn phase_costs_attribute_work_to_all_three_phases() {
        let (mut sim, origin) = baseline_sim(150, 5);
        let before = sim.cost_counts();
        let o = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        // Every phase does real work.
        for (i, phase) in o.phase_costs.iter().enumerate() {
            assert!(phase.deliveries > 0, "phase {i} delivered nothing");
            assert!(phase.decision_runs > 0, "phase {i} ran no decisions");
        }
        // The phases partition exactly the work done during the event.
        let mut sum = OpCounts::default();
        for phase in &o.phase_costs {
            sum.add(phase);
        }
        assert_eq!(sum, sim.cost_counts().since(&before));
        // DOWN+UP deliveries equal the churn counter's total.
        assert_eq!(
            o.phase_costs[1].deliveries + o.phase_costs[2].deliveries,
            o.total_updates
        );
    }

    #[test]
    fn repeated_events_after_reset_are_statistically_identical() {
        // The same originator after reset_routing produces the exact same
        // counts only if the RNG state is also identical — it is not
        // (service times advance the stream), so totals may differ
        // slightly; but the routing fixpoint must be identical.
        let (mut sim, origin) = baseline_sim(150, 4);
        run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        let route_a: Vec<_> = sim
            .graph()
            .node_ids()
            .map(|id| sim.node(id).best_route(Prefix(0)))
            .collect();
        sim.reset_routing();
        sim.churn_mut().reset();
        run_c_event(&mut sim, origin, Prefix(1)).unwrap();
        let route_b: Vec<_> = sim
            .graph()
            .node_ids()
            .map(|id| sim.node(id).best_route(Prefix(1)))
            .collect();
        assert_eq!(route_a, route_b, "fixpoint must not depend on timing");
    }
}
