//! Table 1 — the topology parameters, configured vs realized.
//!
//! Regenerates the parameter table of §3 and, for each sweep size,
//! measures what the generator actually produced (population mix,
//! multihoming/peering degrees, and the four stable properties).

use bgpscale_core::harness::TOPO_STREAM;
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_topology::metrics::TopologySummary;
use bgpscale_topology::{generate, validate::validate, GrowthScenario, TopologyParams};

use crate::report::{f2, Figure, Table};
use crate::sweep::RunConfig;

/// Regenerates Table 1.
pub fn run(cfg: &RunConfig) -> Figure {
    let mut fig = Figure::new("table1", "Topology parameters: configured vs realized (Baseline)");

    let mut params_t = Table::new(
        "configured parameters (Table 1 formulas)",
        &["n", "nT", "nM", "nCP", "nC", "dM", "dCP", "dC", "pM", "pCP-M", "pCP-CP"],
    );
    for &n in &cfg.sizes {
        let p: TopologyParams = GrowthScenario::Baseline.params(n);
        params_t.push_row(vec![
            n.to_string(),
            p.n_t.to_string(),
            p.n_m.to_string(),
            p.n_cp.to_string(),
            p.n_c.to_string(),
            f2(p.d_m),
            f2(p.d_cp),
            f2(p.d_c),
            f2(p.p_m),
            f2(p.p_cp_m),
            f2(p.p_cp_cp),
        ]);
    }
    fig.tables.push(params_t);

    let mut realized_t = Table::new(
        "realized instances (stable-property measurements)",
        &[
            "n",
            "links",
            "peer links",
            "mean dM",
            "mean dC",
            "clustering",
            "avg path",
            "max degree",
        ],
    );
    let mut clusterings = Vec::new();
    let mut path_lengths = Vec::new();
    let mut all_valid = true;
    for &n in &cfg.sizes {
        let g = generate(GrowthScenario::Baseline, n, hash64_pair(cfg.seed, TOPO_STREAM));
        all_valid &= validate(&g).is_ok();
        let s = TopologySummary::compute(&g, cfg.seed);
        clusterings.push(s.clustering);
        path_lengths.push(s.avg_path_length);
        realized_t.push_row(vec![
            n.to_string(),
            s.transit_links.to_string(),
            s.peer_links.to_string(),
            f2(s.mean_mhd[1]),
            f2(s.mean_mhd[3]),
            f2(s.clustering),
            f2(s.avg_path_length),
            s.max_degree.to_string(),
        ]);
    }
    fig.tables.push(realized_t);

    fig.claim("every instance passes full structural validation", all_valid);
    fig.claim(
        "hierarchy: provider relation is acyclic in every instance (validated above)",
        all_valid,
    );
    fig.claim(
        "strong clustering: coefficient well above the random-graph level",
        clusterings.iter().all(|&c| c > 0.03),
    );
    let min_path = path_lengths.iter().copied().fold(f64::INFINITY, f64::min);
    let max_path = path_lengths.iter().copied().fold(0.0f64, f64::max);
    fig.claim(
        "constant path length: ~4 AS hops, drift < 1 hop across the sweep",
        (2.5..=5.5).contains(&min_path) && max_path - min_path < 1.0,
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_claims_hold_on_tiny_sweep() {
        let f = run(&RunConfig::tiny());
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables.len(), 2);
        // One row per size in each table.
        assert_eq!(f.tables[0].rows.len(), RunConfig::tiny().sizes.len());
    }
}
