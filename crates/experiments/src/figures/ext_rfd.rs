//! Extension E3 — Route Flap Damping under a flap storm.
//!
//! The paper's future work lists Route Flap Dampening. This extension
//! drives a persistently flapping origin (the pathology of Labovitz et
//! al. \[20\] that motivated RFC 2439) through the network with damping off
//! and on, across network sizes.
//!
//! Expected shapes: without damping every flap cycle costs roughly one
//! C-event of churn network-wide; with damping, routers adjacent to the
//! instability absorb it after a few cycles, cutting total churn
//! substantially — at the price of suppressed (unreachable) routes until
//! the reuse timers fire.

use bgpscale_bgp::rfd::RfdConfig;
use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::flapstorm::{run_flap_storm, FlapStormConfig};
use bgpscale_core::harness::{SIM_STREAM, TOPO_STREAM};
use bgpscale_core::Simulator;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, GrowthScenario, NodeType};

use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Regenerates extension E3.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = sw.config().clone();
    let mut fig = Figure::new(
        "ext_rfd",
        "Extension: Route Flap Damping vs a flapping origin (8 withdraw/re-announce cycles)",
    );

    let mut table = Table::new(
        "mean network-wide updates per storm",
        &["n", "no RFD", "with RFD", "saving", "suppressed nodes", "recovered"],
    );

    let storm_cfg = FlapStormConfig::default();
    let mut always_saves = true;
    let mut always_suppresses = true;
    let mut always_recovers = true;
    for &n in &cfg.sizes.clone() {
        let topo_seed = hash64_pair(cfg.seed, TOPO_STREAM);
        let graph = generate(GrowthScenario::Baseline, n, topo_seed);
        let mut pick = Xoshiro256StarStar::new(hash64_pair(cfg.seed, 0xE3));
        let mut c_nodes = graph.nodes_of_type(NodeType::C);
        pick.shuffle(&mut c_nodes);
        // Storms are long (each ≈ 8 cycles × 80 s + reuse); a few
        // originators suffice for the comparison.
        c_nodes.truncate(cfg.events.clamp(1, 5));

        let mut totals = [0.0f64; 2];
        let mut suppressed = 0usize;
        let mut unreachable_after_reuse = 0usize;
        for (mode, rfd) in [(0, None), (1, Some(RfdConfig::default()))] {
            let bgp = BgpConfig {
                rfd,
                ..BgpConfig::default()
            };
            let mut sim =
                Simulator::new(graph.clone(), bgp, hash64_pair(cfg.seed, SIM_STREAM ^ mode as u64));
            for (k, &origin) in c_nodes.iter().enumerate() {
                let outcome =
                    run_flap_storm(&mut sim, origin, Prefix(k as u32), &storm_cfg)
                        .expect("storm converges");
                totals[mode] += outcome.total_updates as f64;
                if mode == 1 {
                    suppressed += outcome.suppressed_nodes;
                    unreachable_after_reuse += outcome.unreachable_after_reuse;
                }
                sim.reset_routing();
            }
        }
        let events = c_nodes.len() as f64;
        let plain = totals[0] / events;
        let damped = totals[1] / events;
        let saving = 1.0 - damped / plain.max(1e-12);
        table.push_row(vec![
            n.to_string(),
            f2(plain),
            f2(damped),
            format!("{:.0}%", saving * 100.0),
            format!("{:.1}", suppressed as f64 / events),
            if unreachable_after_reuse == 0 { "yes".into() } else { "NO".into() },
        ]);
        always_saves &= damped < plain;
        always_suppresses &= suppressed > 0;
        always_recovers &= unreachable_after_reuse == 0;
    }
    fig.tables.push(table);

    fig.claim("damping reduces storm churn at every size", always_saves);
    fig.claim(
        "the storm trips suppression thresholds somewhere in the network",
        always_suppresses,
    );
    fig.claim(
        "after the reuse timers fire, every node routes the prefix again",
        always_recovers,
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn ext_rfd_claims_hold_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables[0].rows.len(), RunConfig::tiny().sizes.len());
    }
}
