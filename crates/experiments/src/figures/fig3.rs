//! Fig. 3 — an illustration of a generated network.
//!
//! The paper's Fig. 3 sketches a small instance of the topology model
//! (T clique on top, M middle layer, stubs below, transit solid, peering
//! dotted). We regenerate it as a Graphviz DOT document plus a structural
//! summary of the instance.

use bgpscale_topology::{validate::validate, GrowthScenario, NodeType};

use crate::report::{Figure, Table};
use crate::sweep::Sweeper;

/// Size of the illustration instance (small enough to render by hand).
const ILLUSTRATION_N: usize = 40;

/// Regenerates Fig. 3. The DOT source is included as a single-column
/// table so it survives plain-text rendering.
pub fn run(sw: &mut Sweeper) -> Figure {
    let seed = sw.config().seed;
    let mut p = GrowthScenario::Baseline.params(ILLUSTRATION_N.max(20));
    // A sketch reads better with one region (no invisible constraint).
    p.regions = 1;
    p.m_two_region_frac = 0.0;
    p.cp_two_region_frac = 0.0;
    let g = bgpscale_topology::generator::generate_with_params(&p, seed);

    let mut fig = Figure::new("fig3", "Illustration of a network from the topology model");
    let mut t = Table::new("instance summary", &["quantity", "value"]);
    for ty in NodeType::ALL {
        t.push_row(vec![format!("{ty} nodes"), g.count_of_type(ty).to_string()]);
    }
    t.push_row(vec!["transit links".into(), g.transit_link_count().to_string()]);
    t.push_row(vec!["peering links".into(), g.peer_link_count().to_string()]);
    fig.tables.push(t);

    let mut dot = Table::new("Graphviz DOT source (render with `dot -Tsvg`)", &["dot"]);
    for line in g.to_dot().lines() {
        dot.push_row(vec![line.to_string()]);
    }
    fig.tables.push(dot);

    fig.claim("the illustration instance validates", validate(&g).is_ok());
    fig.claim(
        "it contains all four node types",
        NodeType::ALL.iter().all(|&ty| g.count_of_type(ty) > 0),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn fig3_claims_hold() {
        let f = run(&mut Sweeper::new(RunConfig { seed: 42, ..RunConfig::tiny() }));
        assert!(f.all_claims_hold(), "{}", f.render());
        let dot_table = &f.tables[1];
        assert!(dot_table.rows.iter().any(|r| r[0].contains("digraph")));
        assert!(dot_table.rows.iter().any(|r| r[0].contains("style=dashed")));
    }
}
