//! Flap storms: a pathologically unstable origin.
//!
//! The earliest BGP instability studies (Labovitz et al., cited as \[20\])
//! found that a small set of persistently flapping prefixes generated
//! most Internet churn; Route Flap Damping (RFC 2439) was the response.
//! This workload drives an origin through `flaps` withdraw/re-announce
//! cycles at a fixed period and measures how far the instability
//! propagates — with and without damping ([`bgpscale_bgp::rfd`]).

use bgpscale_bgp::Prefix;
use bgpscale_simkernel::SimDuration;
use bgpscale_topology::AsId;

use crate::cevent;
use crate::sim::{EventBudgetExceeded, Simulator};

/// Flap-storm shape.
#[derive(Clone, Copy, Debug)]
pub struct FlapStormConfig {
    /// Number of withdraw + re-announce cycles.
    pub flaps: usize,
    /// Time the network gets to work on one flap action before the next
    /// (a withdrawal and the following re-announcement are one period
    /// apart). Each period runs from the clock [`Simulator::run_until`]
    /// left — the last event processed or MRAI timer run out within the
    /// previous period — not from the previous deadline, so the cadence
    /// is a little faster than `period` whenever a period ends quietly.
    pub period: SimDuration,
}

impl Default for FlapStormConfig {
    fn default() -> Self {
        FlapStormConfig {
            flaps: 8,
            period: SimDuration::from_secs(40),
        }
    }
}

/// What a flap storm did to the network.
#[derive(Clone, Copy, Debug)]
pub struct FlapStormOutcome {
    /// Updates delivered network-wide during the storm (from the first
    /// withdrawal until the network converged after the storm).
    pub total_updates: u64,
    /// Nodes holding a damped (suppressed) copy of the prefix route at
    /// the end of the storm, before reuse timers fire.
    pub suppressed_nodes: usize,
    /// Nodes without a route right after the storm converged (damping
    /// can leave parts of the network routeless until reuse).
    pub unreachable_after_storm: usize,
    /// Nodes without a route after every damping reuse timer fired.
    pub unreachable_after_reuse: usize,
}

/// Runs a flap storm from `origin` for `prefix`. The prefix must not yet
/// be announced; the initial announcement and convergence are the
/// C-event's uncounted [`cevent::warm_up`]. On return the network is
/// fully quiesced (all reuse timers included) and the churn counters hold
/// the storm's counts.
///
/// # Errors
/// Propagates [`EventBudgetExceeded`] from any phase.
pub fn run_flap_storm<O: bgpscale_obs::SimObserver>(
    sim: &mut Simulator<O>,
    origin: AsId,
    prefix: Prefix,
    cfg: &FlapStormConfig,
) -> Result<FlapStormOutcome, EventBudgetExceeded> {
    cevent::warm_up(sim, &[(origin, prefix)])?;

    // The storm: withdraw / re-announce at the configured cadence,
    // letting the network process whatever fits into each period.
    for _ in 0..cfg.flaps {
        sim.withdraw(origin, prefix);
        let deadline = sim.now() + cfg.period;
        sim.run_until(deadline)?;
        sim.originate(origin, prefix);
        let deadline = sim.now() + cfg.period;
        sim.run_until(deadline)?;
    }
    // Let the network settle (MRAI drains; reuse timers may still be far
    // out, so measure suppression before draining them).
    sim.run_until(sim.now() + SimDuration::from_secs(120))?;

    let suppressed_nodes = count_suppressed(sim, prefix);
    let unreachable_after_storm = count_unreachable(sim, origin, prefix);

    // Drain everything, including damping reuse wake-ups (potentially
    // hours of simulated time — cheap in events).
    sim.run_to_quiescence()?;
    let unreachable_after_reuse = count_unreachable(sim, origin, prefix);

    sim.churn_mut().set_enabled(false);
    Ok(FlapStormOutcome {
        total_updates: sim.churn().total(),
        suppressed_nodes,
        unreachable_after_storm,
        unreachable_after_reuse,
    })
}

fn count_suppressed<O: bgpscale_obs::SimObserver>(sim: &Simulator<O>, prefix: Prefix) -> usize {
    sim.graph()
        .node_ids()
        .filter(|&id| {
            let node = sim.node(id);
            (0..node.sessions().len() as u32).any(|slot| node.is_suppressed(slot, prefix))
        })
        .count()
}

fn count_unreachable<O: bgpscale_obs::SimObserver>(sim: &Simulator<O>, origin: AsId, prefix: Prefix) -> usize {
    sim.graph()
        .node_ids()
        .filter(|&id| id != origin && sim.node(id).best_route(prefix).is_none())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_bgp::rfd::RfdConfig;
    use bgpscale_bgp::BgpConfig;
    use bgpscale_topology::{generate, GrowthScenario, NodeType};

    fn storm(n: usize, seed: u64, rfd: bool) -> FlapStormOutcome {
        let g = generate(GrowthScenario::Baseline, n, seed);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        let bgp = BgpConfig {
            rfd: rfd.then(RfdConfig::default),
            ..BgpConfig::default()
        };
        let mut sim = Simulator::new(g, bgp, seed ^ 0xF1A9);
        run_flap_storm(&mut sim, origin, Prefix(0), &FlapStormConfig::default()).unwrap()
    }

    #[test]
    fn storm_without_damping_never_suppresses() {
        let o = storm(150, 1, false);
        assert_eq!(o.suppressed_nodes, 0);
        assert_eq!(o.unreachable_after_storm, 0, "no damping: converged UP");
        assert_eq!(o.unreachable_after_reuse, 0);
        assert!(o.total_updates > 0);
    }

    #[test]
    fn storm_with_damping_suppresses_and_recovers() {
        let o = storm(150, 1, true);
        assert!(
            o.suppressed_nodes > 0,
            "an 8-cycle storm must trip RFC 2439 thresholds somewhere"
        );
        assert_eq!(
            o.unreachable_after_reuse, 0,
            "after reuse timers fire everyone must route again"
        );
    }

    #[test]
    fn damping_reduces_storm_churn() {
        let plain = storm(150, 2, false);
        let damped = storm(150, 2, true);
        assert!(
            (damped.total_updates as f64) < 0.9 * plain.total_updates as f64,
            "RFD {} vs plain {}: damping must absorb flaps",
            damped.total_updates,
            plain.total_updates
        );
    }

    #[test]
    fn storm_is_deterministic() {
        let a = storm(120, 3, true);
        let b = storm(120, 3, true);
        assert_eq!(a.total_updates, b.total_updates);
        assert_eq!(a.suppressed_nodes, b.suppressed_nodes);
    }
}
