//! Extension E1 — L-events: churn caused by link failure and recovery.
//!
//! The paper's future work proposes studying "more complex events than the
//! C-event". This extension measures the churn of an **L-event** (a link
//! fails, the network converges, the link recovers) at the first-hop
//! transit link of stub originators, across network sizes, and contrasts
//! it with the C-event baseline of Fig. 4.
//!
//! Expected shapes (from the paper's framework + Zhao et al., cited as
//! \[33\]): a first-hop link failure is *at most* a C-event (the same
//! destination becomes unreachable, but multihomed stubs heal locally, so
//! part of the network never hears about it), and recovery costs at least
//! as much as failure because session re-establishment replays full
//! tables.

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::harness::{SIM_STREAM, TOPO_STREAM};
use bgpscale_core::levent::run_l_event;
use bgpscale_core::Simulator;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, GrowthScenario, NodeType};

use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Regenerates extension E1.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = sw.config().clone();
    let mut fig = Figure::new(
        "ext_levent",
        "Extension: L-event (link fail + recovery) churn vs the C-event",
    );

    let mut table = Table::new(
        "mean network-wide updates per event (first-hop transit link of C-node originators)",
        &["n", "L fail", "L restore", "C-event total", "healed frac"],
    );

    let mut healing_matches_multihoming = true;
    let mut fail_below_c = true;
    let mut total_near_c = true;
    for &n in &cfg.sizes.clone() {
        let topo_seed = hash64_pair(cfg.seed, TOPO_STREAM);
        let graph = generate(GrowthScenario::Baseline, n, topo_seed);
        let mut pick = Xoshiro256StarStar::new(hash64_pair(cfg.seed, 0xE1));
        let mut c_nodes = graph.nodes_of_type(NodeType::C);
        pick.shuffle(&mut c_nodes);
        c_nodes.truncate(cfg.events.max(1));

        let mut sim = Simulator::new(graph, BgpConfig::default(), hash64_pair(cfg.seed, SIM_STREAM));
        let mut fail_sum = 0.0;
        let mut restore_sum = 0.0;
        let mut healed = 0usize;
        let events = c_nodes.len();
        for (k, &origin) in c_nodes.iter().enumerate() {
            let prefix = Prefix(k as u32);
            sim.originate(origin, prefix);
            sim.run_to_quiescence().expect("warm-up converges");
            let provider = sim.graph().providers(origin).next().expect("stub has provider");
            let multihomed = sim.graph().multihoming_degree(origin) > 1;
            let outcome = run_l_event(&mut sim, origin, provider, prefix).expect("converges");
            fail_sum += outcome.fail_updates as f64;
            restore_sum += outcome.restore_updates as f64;
            let no_outage = outcome.unreachable_during_outage == 0;
            healed += usize::from(no_outage);
            // Healing is exactly the multihoming question: a second
            // provider keeps the prefix reachable; a single-homed origin
            // goes dark.
            healing_matches_multihoming &= no_outage == multihomed;
            sim.reset_routing();
            sim.churn_mut().reset();
        }
        let fail = fail_sum / events as f64;
        let restore = restore_sum / events as f64;
        let healed_frac = healed as f64 / events as f64;

        // The C-event baseline from the shared sweep (network-wide mean).
        let c_report = sw.report(GrowthScenario::Baseline, n, bgpscale_bgp::MraiMode::NoWrate);
        let c_total = c_report.mean_total_updates;

        table.push_row(vec![
            n.to_string(),
            f2(fail),
            f2(restore),
            f2(c_total),
            f2(healed_frac),
        ]);
        fail_below_c &= fail <= c_total * 1.05;
        total_near_c &= fail + restore <= c_total * 1.3;
    }
    fig.tables.push(table);

    fig.claim(
        "healing matches multihoming exactly: multihomed origins suffer no outage, \
         single-homed origins go dark",
        healing_matches_multihoming,
    );
    fig.claim(
        "the failure phase costs at most about one C-event DOWN+UP (healing localizes it)",
        fail_below_c,
    );
    fig.claim(
        "fail + restore together cost on the order of one C-event or less",
        total_near_c,
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn ext_levent_claims_hold_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables[0].rows.len(), RunConfig::tiny().sizes.len());
    }
}
