//! Extension E6 — routing table residency vs per-event churn.
//!
//! The paper's introduction separates the two scalability axes: table
//! *size* and update *rate*, noting that a bigger table increases churn
//! "since the number of networks that can fail or trigger a route change
//! increases" — i.e. through the **event rate**, not through the cost of
//! each event. This extension verifies that decomposition mechanically:
//! with k unrelated prefixes resident in every RIB, the churn of one
//! additional C-event is unchanged (isolated events touch only their own
//! prefix's state; under per-interface MRAI the idle timers do not couple
//! them).
//!
//! Expected shape: per-event churn flat in k (within noise), so total
//! churn scales as (number of events) × (per-event cost of Fig. 4), which
//! is exactly how the paper models growth.

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::harness::{SIM_STREAM, TOPO_STREAM};
use bgpscale_core::Simulator;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, GrowthScenario, NodeType};

use crate::figures::roughly_equal;
use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Resident-table sizes exercised (capped by the available stub count at
/// small n).
const RESIDENT: [usize; 3] = [0, 100, 400];

/// Regenerates extension E6.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = sw.config().clone();
    // Use a mid-sweep size: memory is k prefixes × RIB rows.
    let n = cfg.sizes[cfg.sizes.len() / 2];
    let mut fig = Figure::new(
        "ext_tablesize",
        "Extension: per-event churn vs resident routing-table size",
    );

    let graph = generate(GrowthScenario::Baseline, n, hash64_pair(cfg.seed, TOPO_STREAM));
    let mut pick = Xoshiro256StarStar::new(hash64_pair(cfg.seed, 0xE6));
    let mut stubs = graph.nodes_of_type(NodeType::C);
    pick.shuffle(&mut stubs);

    let events = cfg.events.clamp(1, 10);
    // Cap residency by the stubs actually available (tiny sweeps).
    let k_max = stubs.len().saturating_sub(events + 10);
    let resident: Vec<usize> = RESIDENT
        .iter()
        .map(|&k| k.min(k_max))
        .collect();
    let mut t = Table::new(
        format!("mean updates per C-event at n = {n} ({events} events)"),
        &["resident prefixes", "U per event"],
    );
    let mut per_event = Vec::new();
    for k in resident {
        let mut sim = Simulator::new(graph.clone(), BgpConfig::default(), hash64_pair(cfg.seed, SIM_STREAM));
        // Fill the RIBs with k unrelated, stable prefixes.
        for (i, &owner) in stubs.iter().take(k).enumerate() {
            sim.originate(owner, Prefix(i as u32));
        }
        sim.run_to_quiescence().expect("warm-up converges");
        // Measured events use fresh originators and prefix ids above k.
        let mut total = 0u64;
        for (j, &origin) in stubs.iter().skip(k).take(events).enumerate() {
            let outcome = run_c_event(&mut sim, origin, Prefix((k + j) as u32))
                .expect("C-event converges");
            total += outcome.total_updates;
        }
        let mean = total as f64 / events as f64;
        t.push_row(vec![k.to_string(), f2(mean)]);
        per_event.push(mean);
    }
    fig.tables.push(t);

    fig.claim(
        "per-event churn is independent of resident table size (within 10%), so table \
         growth scales total churn only through the event count — the paper's decomposition",
        per_event
            .iter()
            .all(|&u| roughly_equal(u, per_event[0], 0.10)),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn ext_tablesize_claims_hold_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables[0].rows.len(), RESIDENT.len());
    }
}
