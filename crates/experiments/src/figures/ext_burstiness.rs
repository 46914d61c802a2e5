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
//!
//! The arrivals are binned by this figure's own observer, [`ArrivalBins`].

use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, MraiMode, Prefix};
use bgpscale_core::cevent;
use bgpscale_core::harness::TOPO_STREAM;
use bgpscale_core::{EventBudgetExceeded, SimTemplate, Simulator};
use bgpscale_obs::{RootSets, SimObserver, UpdateClass};
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_simkernel::SimTime;
use bgpscale_topology::{generate, AsId, GrowthScenario, NodeType, Relationship};

use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Delivered updates per second of simulated time from `origin`, counted
/// as a [`SimObserver`].
#[derive(Clone, Debug, Default)]
pub struct ArrivalBins {
    /// The start of the first bin.
    pub origin: SimTime,
    /// Updates per one-second bin, up to the last non-empty one.
    pub counts: Vec<u32>,
}

impl ArrivalBins {
    /// The busiest bin's count.
    pub fn peak(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// [`ArrivalBins::peak`] over the mean bin (0 if nothing arrived).
    pub fn peak_to_mean(&self) -> f64 {
        let total: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return 0.0;
        }
        f64::from(self.peak()) / (total as f64 / self.counts.len() as f64)
    }
}

impl SimObserver for ArrivalBins {
    type Stamp = ();

    fn on_message(
        &mut self,
        _from: AsId,
        _to: AsId,
        _rel: Relationship,
        _class: UpdateClass,
        _prefix: u32,
        _path_len: impl FnOnce() -> Option<u32>,
        _stamp: &(),
        _root_sets: &RootSets,
        _inbox_depth: u32,
        now: SimTime,
    ) {
        let second = (now.saturating_since(self.origin).as_micros() / 1_000_000) as usize;
        if second >= self.counts.len() {
            self.counts.resize(second + 1, 0);
        }
        self.counts[second] += 1;
    }
}

/// One C-event of `Prefix(1)` from `origin` after a resident `Prefix(0)`:
/// fresh bins from the end of the resident prefix's warm-up see exactly
/// the DOWN and UP deliveries the churn collector counts. Returns them
/// and the DOWN plus UP convergence time in seconds.
///
/// # Errors
/// Propagates [`EventBudgetExceeded`] if a phase fails to quiesce.
pub fn binned_c_event(
    sim: &mut Simulator<ArrivalBins>,
    origin: AsId,
) -> Result<(ArrivalBins, f64), EventBudgetExceeded> {
    cevent::warm_up(sim, &[(origin, Prefix(0))])?;
    let bins = ArrivalBins { origin: sim.now(), counts: Vec::new() };
    let event = [(origin, Prefix(1))];
    cevent::warm_up(sim, &event)?;
    sim.replace_observer(bins);
    let down = cevent::down(sim, &event)?.as_secs_f64();
    let up = cevent::up(sim, &event)?.as_secs_f64();
    Ok((sim.replace_observer(ArrivalBins::default()), down + up))
}

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

    let graph = Arc::new(graph);
    let mut stats = Vec::new();
    for mode in [MraiMode::NoWrate, MraiMode::Wrate] {
        let bgp = BgpConfig {
            mrai_mode: mode,
            ..BgpConfig::default()
        };
        let template = SimTemplate::new(Arc::clone(&graph), bgp);
        let mut sim = template.instantiate_observed(hash64_pair(cfg.seed, 0xB2), ArrivalBins::default());
        let (bins, convergence) = binned_c_event(&mut sim, origin).expect("converges");
        let busy_seconds = bins.counts.iter().filter(|&&c| c > 0).count();
        stats.push((
            mode,
            sim.churn().total(),
            bins.peak(),
            bins.peak_to_mean(),
            busy_seconds,
            convergence,
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
    fn every_counted_update_lands_in_one_bin() {
        let g = generate(GrowthScenario::Baseline, 200, 1);
        let origin = g.node_ids().find(|&id| g.node_type(id) == NodeType::C).unwrap();
        let template = SimTemplate::new(Arc::new(g), BgpConfig::default());
        let mut sim = template.instantiate_observed(1 ^ 0xFEED, ArrivalBins::default());
        let (bins, _) = binned_c_event(&mut sim, origin).unwrap();
        let binned: u64 = bins.counts.iter().map(|&c| u64::from(c)).sum();
        assert!(sim.churn().total() > 0);
        assert_eq!(binned, sim.churn().total(), "every counted update must land in exactly one bin");
        assert!(bins.peak() > 0);
        assert!(bins.peak_to_mean() >= 1.0);
    }

    #[test]
    fn bins_count_arrivals_per_second_from_their_origin() {
        let mut bins = ArrivalBins { origin: SimTime::from_millis(1_000), counts: Vec::new() };
        // Two in the first second, one 2.5 s past the origin, and one
        // before the origin, which lands in the first bin.
        for ms in [1_100, 1_900, 3_500, 500] {
            let (a, b) = (AsId(0), AsId(1));
            let (rel, class) = (Relationship::Customer, UpdateClass::Announce);
            bins.on_message(a, b, rel, class, 0, || None, &(), &RootSets::new(), 1, SimTime::from_millis(ms));
        }
        assert_eq!(bins.counts, [3, 0, 1]);
        assert_eq!(bins.peak(), 3);
        assert!((bins.peak_to_mean() - 9.0 / 4.0).abs() < 1e-12);
        assert_eq!(ArrivalBins::default().peak_to_mean(), 0.0);
    }

    #[test]
    fn ext_burstiness_claims_hold_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables[0].rows.len(), 2);
    }
}
