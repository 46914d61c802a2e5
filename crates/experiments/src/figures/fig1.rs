//! Fig. 1 — churn growth at a monitor, with the Mann–Kendall trend.
//!
//! The paper plots daily update counts from a RIPE monitor (2005–2007) and
//! estimates ~200% total growth with the Mann–Kendall test. We regenerate
//! the figure from the synthetic monitor of [`crate::churn_trace`] (see
//! DESIGN.md §2 for the substitution rationale) and run the identical
//! analysis.

use crate::churn_trace::{analyze_trace, generate_trace, ChurnTraceConfig};
use crate::report::{f2, f4, Figure, Table};
use crate::sweep::Sweeper;
use bgpscale_stats::mann_kendall::Trend;

/// Regenerates Fig. 1.
pub fn run(sw: &mut Sweeper) -> Figure {
    let cfg = ChurnTraceConfig {
        seed: sw.config().seed,
        ..ChurnTraceConfig::default()
    };
    let trace = generate_trace(&cfg);
    let analysis = analyze_trace(&trace);

    let mut fig = Figure::new("fig1", "Growth in churn at a monitor (synthetic RIPE-style series)");

    // Quarterly aggregates keep the table readable while showing the
    // trend through the noise.
    let mut t = Table::new(
        "daily updates, aggregated per 90-day quarter",
        &["days", "mean/day", "max/day"],
    );
    for (qi, chunk) in trace.chunks(90).enumerate() {
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let max = chunk.iter().copied().fold(0.0f64, f64::max);
        t.push_row(vec![
            format!("{}–{}", qi * 90, qi * 90 + chunk.len() - 1),
            format!("{mean:.0}"),
            format!("{max:.0}"),
        ]);
    }
    fig.tables.push(t);

    let mut a = Table::new("Mann–Kendall trend analysis", &["quantity", "value"]);
    a.push_row(vec!["days".into(), trace.len().to_string()]);
    a.push_row(vec!["Kendall tau".into(), f4(analysis.mk.tau)]);
    a.push_row(vec!["Z statistic".into(), f2(analysis.mk.z)]);
    a.push_row(vec![
        "p-value (two-sided)".into(),
        format!("{:.2e}", analysis.mk.p_value),
    ]);
    a.push_row(vec![
        "Sen's slope (updates/day/day)".into(),
        f2(analysis.sen_slope_per_day),
    ]);
    a.push_row(vec![
        "estimated total growth".into(),
        format!("{:.0}%", analysis.total_growth_estimate * 100.0),
    ]);
    a.push_row(vec!["peak/mean ratio".into(), f2(analysis.peak_to_mean)]);
    fig.tables.push(a);

    fig.claim(
        "the Mann–Kendall test detects a significant increasing trend",
        analysis.mk.trend(0.05) == Trend::Increasing,
    );
    fig.claim(
        "estimated total growth is on the order of the paper's ~200%",
        (1.0..=3.5).contains(&analysis.total_growth_estimate),
    );
    fig.claim(
        "the series is highly variable (peak ≫ daily mean)",
        analysis.peak_to_mean > 3.0,
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::RunConfig;

    fn at_seed(seed: u64) -> Figure {
        run(&mut Sweeper::new(RunConfig { seed, ..RunConfig::tiny() }))
    }

    #[test]
    fn fig1_claims_hold() {
        let f = at_seed(0x2005_0101);
        assert!(f.all_claims_hold(), "{}", f.render());
        assert_eq!(f.tables.len(), 2);
    }

    #[test]
    fn fig1_is_deterministic() {
        assert_eq!(at_seed(1).render(), at_seed(1).render());
    }
}
