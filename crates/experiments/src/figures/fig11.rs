//! Fig. 11 — the effect of provider preference.
//!
//! PREFER-MIDDLE (buy transit from M nodes) yields higher T-node churn
//! than the Baseline; PREFER-TOP (buy straight from tier-1) yields less —
//! even though PREFER-TOP gives T nodes *far more* customers (`mc,T`),
//! because each direct stub customer is far less likely to be on an
//! update path (`qc,T` collapses).

use bgpscale_topology::{GrowthScenario, NodeType, Relationship};

use crate::figures::{series_factor, series_u, Which};
use crate::report::{f2, f4, relative_increase, Figure, Table};
use crate::sweep::Sweeper;

const SCENARIOS: [GrowthScenario; 3] = [
    GrowthScenario::Baseline,
    GrowthScenario::PreferMiddle,
    GrowthScenario::PreferTop,
];

/// Regenerates Fig. 11.
pub fn run(sw: &mut Sweeper) -> Figure {
    let mut fig = Figure::new("fig11", "The effect of provider preference at T nodes");

    let mut u = Vec::new();
    let mut mc = Vec::new();
    let mut qc = Vec::new();
    for s in SCENARIOS {
        let reports = sw.sweep(s);
        u.push(series_u(&reports, NodeType::T));
        mc.push(series_factor(&reports, NodeType::T, Relationship::Customer, Which::M));
        qc.push(series_factor(&reports, NodeType::T, Relationship::Customer, Which::Q));
    }
    let rel: Vec<Vec<f64>> = u.iter().map(|s| relative_increase(s)).collect();

    let headers = ["n", "BASELINE", "PREFER-MIDDLE", "PREFER-TOP"];
    let mut top = Table::new("U(T) relative increase (top panel)", &headers);
    let mut mid = Table::new("mc,T (middle panel)", &headers);
    let mut bot = Table::new("qc,T (bottom panel)", &headers);
    for (i, &n) in sw.sizes().to_vec().iter().enumerate() {
        top.push_row(
            std::iter::once(n.to_string())
                .chain(rel.iter().map(|s| f2(s[i])))
                .collect(),
        );
        mid.push_row(
            std::iter::once(n.to_string())
                .chain(mc.iter().map(|s| f2(s[i])))
                .collect(),
        );
        bot.push_row(
            std::iter::once(n.to_string())
                .chain(qc.iter().map(|s| f4(s[i])))
                .collect(),
        );
    }
    fig.tables.push(top);
    fig.tables.push(mid);
    fig.tables.push(bot);

    let last = u[0].len() - 1;
    let (baseline, prefer_middle, prefer_top) = (0, 1, 2);
    fig.claim(
        "more direct connections to T nodes decrease churn: PREFER-TOP < BASELINE",
        u[prefer_top][last] < u[baseline][last],
    );
    fig.claim(
        "PREFER-TOP gives T nodes many more customers (mc,T) than PREFER-MIDDLE",
        mc[prefer_top][last] > mc[prefer_middle][last],
    );
    fig.claim(
        "…but collapses the per-customer activation probability qc,T",
        qc[prefer_top][last] < qc[prefer_middle][last],
    );
    fig.claim(
        "an M-heavy customer base multiplies updates per customer link: \
         qc,T(PREFER-MIDDLE) ≫ qc,T(BASELINE) > qc,T(PREFER-TOP)",
        qc[prefer_middle][last] > qc[baseline][last]
            && qc[baseline][last] > qc[prefer_top][last],
    );
    fig.known_divergence(
        "buying transit from M nodes increases churn at T nodes: PREFER-MIDDLE > BASELINE",
        u[prefer_middle][last] > u[baseline][last],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    #[test]
    fn fig11_structure_and_robust_claims_on_tiny_sweep() {
        let mut sw = Sweeper::new(RunConfig::tiny());
        let f = run(&mut sw);
        assert_eq!(f.tables.len(), 3);
        // The churn comparison needs sizes ≥ 1000 to separate from noise
        // (verified by `repro fig11 --quick`); the mechanism claims (mc,T
        // and qc,T movements) are robust even at toy sizes.
        for c in f.claims.iter().filter(|c| !c.known_divergence) {
            if !c.statement.contains("decrease churn") {
                assert!(c.holds, "tiny-scale claim failed: {} \n{}", c.statement, f.render());
            }
        }
    }
}
