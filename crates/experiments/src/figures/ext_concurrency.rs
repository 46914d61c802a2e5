//! Extension E5 — concurrent events and the MRAI timer scope.
//!
//! The paper notes (§2) that the BGP-4 standard wants the MRAI applied
//! **per prefix**, while vendors implement it **per interface** — and
//! adopts the vendor behavior. With single-prefix events the two are
//! indistinguishable, so the paper never separates them. They *do*
//! separate under concurrent events: per-interface timers make unrelated
//! prefixes rate-limit each other (an update for prefix A arms the session
//! timer, and a following update for prefix B queues behind it), batching
//! traffic and suppressing some intermediate states.
//!
//! This extension fires `k` C-events **simultaneously** (k distinct
//! origins withdraw at the same instant, re-announce at the same instant)
//! and compares total churn per event under the two scopes.
//!
//! Expected shapes: for k = 1 the scopes are identical; for larger k the
//! per-interface scope yields *at most* the per-prefix churn (extra
//! batching can only suppress updates, never add them), and per-event
//! churn under per-interface decreases with k while per-prefix stays
//! roughly flat.

use bgpscale_bgp::{BgpConfig, MraiScope, Prefix};
use bgpscale_core::cevent;
use bgpscale_core::harness::{SIM_STREAM, TOPO_STREAM};
use bgpscale_core::Simulator;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType};

use crate::figures::roughly_equal;
use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Concurrency levels exercised.
const LEVELS: [usize; 3] = [1, 8, 32];

/// Runs `events` as simultaneous C-events — one warm-up, one DOWN and
/// one UP over all of them — and returns total updates delivered.
fn concurrent_churn(
    graph: &AsGraph,
    events: &[(AsId, Prefix)],
    sim_seed: u64,
    scope: MraiScope,
) -> u64 {
    let bgp = BgpConfig {
        mrai_scope: scope,
        ..BgpConfig::default()
    };
    let mut sim = Simulator::new(graph.clone(), bgp, sim_seed);
    cevent::warm_up(&mut sim, events).expect("warm-up converges");
    cevent::down(&mut sim, events).expect("DOWN converges");
    cevent::up(&mut sim, events).expect("UP converges");
    sim.churn().total()
}

/// Regenerates extension E5.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = sw.config().clone();
    let n = *cfg.sizes.last().expect("non-empty sweep");
    let mut fig = Figure::new(
        "ext_concurrency",
        "Extension: k simultaneous C-events under per-interface vs per-prefix MRAI",
    );

    // One topology and one shuffle of its C nodes; level k takes the
    // first k of them, each with its own prefix.
    let graph = generate(GrowthScenario::Baseline, n, hash64_pair(cfg.seed, TOPO_STREAM));
    let mut pick = Xoshiro256StarStar::new(hash64_pair(cfg.seed, 0xE5));
    let mut origins = graph.nodes_of_type(NodeType::C);
    pick.shuffle(&mut origins);
    let events: Vec<_> = origins.into_iter().zip(0..).map(|(o, i)| (o, Prefix(i))).collect();
    let sim_seed = hash64_pair(cfg.seed, SIM_STREAM);

    let mut t = Table::new(
        format!("total updates per event at n = {n}"),
        &["k", "per-interface", "per-prefix", "interface/prefix"],
    );
    let mut per_iface_at_k = Vec::new();
    let mut per_prefix_at_k = Vec::new();
    for k in LEVELS {
        let level = &events[..k.min(events.len())];
        let per_event = |scope| concurrent_churn(&graph, level, sim_seed, scope) as f64 / k as f64;
        let iface = per_event(MraiScope::PerInterface);
        let pprefix = per_event(MraiScope::PerPrefix);
        t.push_row(vec![
            k.to_string(),
            f2(iface),
            f2(pprefix),
            f2(iface / pprefix.max(1e-12)),
        ]);
        per_iface_at_k.push(iface);
        per_prefix_at_k.push(pprefix);
    }
    fig.tables.push(t);

    fig.claim(
        "with one event the scopes are equivalent",
        roughly_equal(per_iface_at_k[0], per_prefix_at_k[0], 0.01),
    );
    fig.claim(
        "per-interface batching never produces more churn than per-prefix",
        per_iface_at_k
            .iter()
            .zip(&per_prefix_at_k)
            .all(|(i, p)| i <= &(p * 1.02)),
    );
    fig.claim(
        "per-interface batching strengthens with concurrency (per-event churn falls with k)",
        per_iface_at_k.last().unwrap() < &per_iface_at_k[0],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn ext_concurrency_claims_hold_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables[0].rows.len(), LEVELS.len());
    }

    /// One protocol, two drivers: a single "concurrent" C-event is
    /// exactly `run_c_event` on the same topology, origin, prefix and
    /// simulator seed.
    #[test]
    fn one_concurrent_event_is_one_c_event() {
        let graph = generate(GrowthScenario::Baseline, 300, 7);
        let origin = graph.nodes_of_type(NodeType::C)[3];
        let event = (origin, Prefix(0));
        let concurrent = concurrent_churn(&graph, &[event], 11, MraiScope::PerInterface);
        let mut sim = Simulator::new(graph, BgpConfig::default(), 11);
        let single = cevent::run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        assert!(concurrent > 0);
        assert_eq!(concurrent, single.total_updates);
    }
}
