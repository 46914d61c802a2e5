//! Extension E2 — within-convergence burstiness of update traffic.
//!
//! The paper's introduction motivates churn scalability partly through
//! burstiness: "routers should be able to process peak update rates that
//! are up to 1000 times higher than the daily averages" \[15\]. This
//! extension measures the analogous quantity inside a single convergence
//! episode: the network-wide update arrival rate binned per second during
//! a C-event, under both MRAI modes.
//!
//! Expected shapes: NO-WRATE concentrates the withdrawal wave into the
//! first seconds (high peak-to-mean); WRATE smears traffic across MRAI
//! rounds — lower peaks but a much longer tail (larger total and longer
//! convergence).

use bgpscale_bgp::{BgpConfig, MraiMode, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::harness::TOPO_STREAM;
use bgpscale_core::Simulator;
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_simkernel::SimDuration;
use bgpscale_topology::{generate, GrowthScenario, NodeType};

use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Regenerates extension E2.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = sw.config().clone();
    let n = *cfg.sizes.last().expect("non-empty sweep");
    let mut fig = Figure::new(
        "ext_burstiness",
        "Extension: per-second update rate during one C-event (largest sweep size)",
    );

    let topo_seed = hash64_pair(cfg.seed, TOPO_STREAM);
    let graph = generate(GrowthScenario::Baseline, n, topo_seed);
    let origin = graph
        .node_ids()
        .find(|&id| graph.node_type(id) == NodeType::C)
        .expect("C nodes exist");

    let mut stats = Vec::new();
    for mode in [MraiMode::NoWrate, MraiMode::Wrate] {
        let bgp = BgpConfig {
            mrai_mode: mode,
            ..BgpConfig::default()
        };
        let mut sim = Simulator::new(graph.clone(), bgp, hash64_pair(cfg.seed, 0xB2));
        // Warm-up outside the timeline.
        sim.originate(origin, Prefix(0));
        sim.run_to_quiescence().expect("warm-up converges");
        let start = sim.now();
        sim.churn_mut().start_timeline(start, SimDuration::from_secs(1));
        let outcome = run_c_event(&mut sim, origin, Prefix(1)).expect("converges");
        let timeline = sim.churn_mut().take_timeline().expect("recording");
        let busy_seconds = timeline.counts().iter().filter(|&&c| c > 0).count();
        stats.push((
            mode,
            outcome.total_updates,
            timeline.peak(),
            timeline.peak_to_mean(),
            busy_seconds,
            outcome.down_convergence.as_secs_f64() + outcome.up_convergence.as_secs_f64(),
        ));
    }

    let mut t = Table::new(
        format!("burstiness at n = {n} (1-second bins)"),
        &["mode", "total", "peak/s", "peak/mean", "active seconds", "convergence (s)"],
    );
    for (mode, total, peak, ptm, busy, conv) in &stats {
        t.push_row(vec![
            mode.label().into(),
            total.to_string(),
            peak.to_string(),
            f2(*ptm),
            busy.to_string(),
            f2(*conv),
        ]);
    }
    fig.tables.push(t);

    let (no_wrate, wrate) = (&stats[0], &stats[1]);
    fig.claim(
        "update traffic is strongly bursty under both modes (peak ≫ mean rate)",
        no_wrate.3 > 3.0 && wrate.3 > 3.0,
    );
    fig.claim(
        "WRATE produces more total updates than NO-WRATE for the same event",
        wrate.1 >= no_wrate.1,
    );
    fig.claim(
        "WRATE stretches convergence (longer combined DOWN+UP time)",
        wrate.5 > no_wrate.5,
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn ext_burstiness_claims_hold_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables[0].rows.len(), 2);
    }
}
