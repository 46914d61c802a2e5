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
use bgpscale_core::harness::{SIM_STREAM, TOPO_STREAM};
use bgpscale_core::Simulator;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, GrowthScenario, NodeType};

use crate::figures::roughly_equal;
use crate::report::{f2, Figure, Table};
use crate::sweep::Sweeper;

/// Concurrency levels exercised.
const LEVELS: [usize; 3] = [1, 8, 32];

/// Runs `k` simultaneous C-events and returns total updates delivered.
fn concurrent_churn(sw_seed: u64, n: usize, k: usize, scope: MraiScope) -> f64 {
    let graph = generate(GrowthScenario::Baseline, n, hash64_pair(sw_seed, TOPO_STREAM));
    let mut pick = Xoshiro256StarStar::new(hash64_pair(sw_seed, 0xE5));
    let mut origins = graph.nodes_of_type(NodeType::C);
    pick.shuffle(&mut origins);
    origins.truncate(k);

    let bgp = BgpConfig {
        mrai_scope: scope,
        ..BgpConfig::default()
    };
    let mut sim = Simulator::new(graph, bgp, hash64_pair(sw_seed, SIM_STREAM));
    // Warm-up: all k prefixes announced and converged.
    for (i, &o) in origins.iter().enumerate() {
        sim.originate(o, Prefix(i as u32));
    }
    sim.run_to_quiescence().expect("warm-up converges");
    sim.churn_mut().reset();
    sim.churn_mut().set_enabled(true);
    // Simultaneous DOWN…
    for (i, &o) in origins.iter().enumerate() {
        sim.withdraw(o, Prefix(i as u32));
    }
    sim.run_to_quiescence().expect("DOWN converges");
    // …and simultaneous UP.
    for (i, &o) in origins.iter().enumerate() {
        sim.originate(o, Prefix(i as u32));
    }
    sim.run_to_quiescence().expect("UP converges");
    sim.churn().total() as f64
}

/// Regenerates extension E5.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = sw.config().clone();
    let n = *cfg.sizes.last().expect("non-empty sweep");
    let mut fig = Figure::new(
        "ext_concurrency",
        "Extension: k simultaneous C-events under per-interface vs per-prefix MRAI",
    );

    let mut t = Table::new(
        format!("total updates per event at n = {n}"),
        &["k", "per-interface", "per-prefix", "interface/prefix"],
    );
    let mut per_iface_at_k = Vec::new();
    let mut per_prefix_at_k = Vec::new();
    for k in LEVELS {
        let iface = concurrent_churn(cfg.seed, n, k, MraiScope::PerInterface) / k as f64;
        let pprefix = concurrent_churn(cfg.seed, n, k, MraiScope::PerPrefix) / k as f64;
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
}
