//! `repro report` — a self-contained churn provenance report.
//!
//! Runs one `(scenario, n)` cell under **both** MRAI modes with the
//! simulated-time series recorder attached, and renders the comparison as
//! a single dependency-free HTML page: per-relation churn sparklines,
//! updates by receiving node type, the causal-depth histogram, the
//! per-root convergence-duration CDF, and MRAI timer / inbox occupancy —
//! all inline SVG, no scripts, no external assets. A `timeseries.json`
//! artifact carries the raw integer series (byte-identical for any
//! `--jobs` value, like every other deterministic artifact).
//!
//! The `check` gate mirrors `profile --check`: it fails when any panel of
//! the report would render empty — catching "provenance silently stopped
//! flowing" regressions in CI.

use std::fmt::Write as _;
use std::sync::Arc;

use bgpscale_bgp::MraiMode;
use bgpscale_core::ChurnReport;
use bgpscale_obs::costmodel::PHASE_NAMES;
use bgpscale_obs::render::{html_escape, html_page, svg_bars, svg_cdf, svg_sparkline};
use bgpscale_obs::timeseries::DEPTH_BOUNDS;
use bgpscale_obs::{CostModel, SCHEMA_VERSION};
use bgpscale_topology::GrowthScenario;

use crate::sweep::{CellSeries, RunConfig, Sweeper};
use crate::trend::{fit_exponents, kind_label, ClassExponent};

/// One reported cell pair (the same `(scenario, n)` under both modes).
#[derive(Clone, Debug)]
pub struct ReportConfig {
    /// Growth scenario of the cell.
    pub scenario: GrowthScenario,
    /// Network size.
    pub n: usize,
    /// C-events per mode.
    pub events: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker budget (0 = all hardware threads).
    pub jobs: usize,
    /// Time-series bin width in simulated microseconds.
    pub bin_us: u64,
}

/// The result of [`run_report`].
#[derive(Clone, Debug)]
pub struct ReportOutput {
    /// The two cells' time series, NO-WRATE first.
    pub cells: Vec<CellSeries>,
    /// The two cells' churn reports, same order.
    pub reports: Vec<Arc<ChurnReport>>,
    /// The two cells' exact cost models, same order.
    pub costs: Vec<Arc<CostModel>>,
    /// Cost models of the NO-WRATE mini size sweep feeding the exponent
    /// fit, ascending n (last entry is the reported cell itself).
    pub cost_sweep: Vec<(usize, Arc<CostModel>)>,
    /// Fitted per-op-class scaling exponents; empty when the mini sweep
    /// collapsed to a single size (tiny n) — rendered as "n/a", not an
    /// error.
    pub cost_exponents: Vec<ClassExponent>,
    /// The self-contained HTML page.
    pub html: String,
    /// The raw integer time series as deterministic JSON.
    pub timeseries_json: String,
}

/// The two modes every report compares, in render order.
const MODES: [MraiMode; 2] = [MraiMode::NoWrate, MraiMode::Wrate];

fn mode_key(mode: MraiMode) -> &'static str {
    match mode {
        MraiMode::NoWrate => "no_wrate",
        MraiMode::Wrate => "wrate",
    }
}

/// Runs the WRATE vs NO-WRATE pair through a [`Sweeper`] (time series
/// enabled) and renders both artifacts.
pub fn run_report(cfg: &ReportConfig) -> ReportOutput {
    let mut sw = Sweeper::new(RunConfig {
        sizes: vec![cfg.n],
        events: cfg.events,
        seed: cfg.seed,
    });
    sw.set_jobs(cfg.jobs);
    sw.enable_timeseries(cfg.bin_us);
    let reports: Vec<Arc<ChurnReport>> = MODES
        .into_iter()
        .map(|mode| sw.report(cfg.scenario, cfg.n, mode))
        .collect();
    let cells = sw.take_series();
    let costs: Vec<Arc<CostModel>> = MODES
        .iter()
        .map(|&mode| {
            sw.cost_model(cfg.scenario, cfg.n, mode)
                .expect("report cells were just computed")
        })
        .collect();

    // A NO-WRATE mini size sweep below the reported n feeds the scaling-
    // exponent fit; the reported cell itself is its largest point. Run
    // after take_series() so the extra cells' series don't join the page.
    let mut sweep_sizes: Vec<usize> = [cfg.n / 3, 2 * cfg.n / 3, cfg.n]
        .into_iter()
        .map(|s| s.max(120))
        .collect();
    sweep_sizes.sort_unstable();
    sweep_sizes.dedup();
    let cost_sweep: Vec<(usize, Arc<CostModel>)> = sweep_sizes
        .into_iter()
        .map(|s| {
            sw.report(cfg.scenario, s, MraiMode::NoWrate);
            (
                s,
                sw.cost_model(cfg.scenario, s, MraiMode::NoWrate)
                    .expect("sweep cell was just computed"),
            )
        })
        .collect();
    let _ = sw.take_series(); // drop the mini sweep's series
    let sweep_ops: Vec<_> = cost_sweep
        .iter()
        .map(|(n, cost)| (*n as u64, cost.total()))
        .collect();
    let cost_exponents = fit_exponents(&sweep_ops, cfg.events as u64);

    let timeseries_json = timeseries_json(cfg, &cells);
    let html = render_html(cfg, &reports, &cells, &costs, &cost_sweep, &cost_exponents);
    ReportOutput {
        cells,
        reports,
        costs,
        cost_sweep,
        cost_exponents,
        html,
        timeseries_json,
    }
}

/// The `timeseries.json` artifact: cell coordinates plus the raw series,
/// integer-only and in fixed key order.
fn timeseries_json(cfg: &ReportConfig, cells: &[CellSeries]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema_version\":{SCHEMA_VERSION},\"scenario\":\"{}\",\"n\":{},\"events\":{},\"seed\":{},\"bin_us\":{},\"cells\":[",
        cfg.scenario, cfg.n, cfg.events, cfg.seed, cfg.bin_us
    );
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"mode\":\"{}\",\"series\":{}}}",
            mode_key(cell.mode),
            cell.series.to_json()
        );
    }
    s.push_str("]}");
    s
}

/// The CI gate: every panel of the report has data. Returns the first
/// violated expectation, labeled with the cell it came from.
///
/// # Errors
/// A human-readable description of the first empty panel.
pub fn check(out: &ReportOutput) -> Result<(), String> {
    if out.cells.len() != MODES.len() {
        return Err(format!(
            "expected {} cells (NO-WRATE and WRATE), got {}",
            MODES.len(),
            out.cells.len()
        ));
    }
    for cell in &out.cells {
        let label = cell.mode.label();
        let ts = &cell.series;
        if ts.total_updates() == 0 {
            return Err(format!("{label}: churn panel is empty (no updates binned)"));
        }
        if ts.bins.iter().all(|b| b.by_rel.iter().sum::<u64>() == 0) {
            return Err(format!("{label}: per-relation panel is empty"));
        }
        if ts.depth_hist.iter().sum::<u64>() == 0 {
            return Err(format!("{label}: causal-depth histogram is empty"));
        }
        if ts.convergence_durations_us().is_empty() {
            return Err(format!("{label}: convergence-duration CDF is empty"));
        }
        if ts.bins.iter().all(|b| b.mrai_armed_peak == 0) {
            return Err(format!("{label}: MRAI occupancy panel is empty"));
        }
        if ts.bins.iter().all(|b| b.inbox_peak == 0) {
            return Err(format!("{label}: inbox-depth panel is empty"));
        }
        if ts.unstamped > 0 {
            return Err(format!(
                "{label}: {} updates arrived without a provenance stamp",
                ts.unstamped
            ));
        }
    }
    if out.costs.len() != MODES.len() {
        return Err(format!(
            "expected {} cost models, got {}",
            MODES.len(),
            out.costs.len()
        ));
    }
    for (cost, cell) in out.costs.iter().zip(&out.cells) {
        if cost.is_empty() || cost.total().grand_total() == 0 {
            return Err(format!(
                "{}: cost-attribution panel is empty",
                cell.mode.label()
            ));
        }
    }
    if out.cost_sweep.is_empty() {
        return Err("cost mini sweep is empty".to_string());
    }
    // An empty exponent table is legitimate (single-size mini sweep at
    // tiny n) — it renders as "n/a" and must not fail the gate.
    Ok(())
}

const SPARK_W: u32 = 360;
const SPARK_H: u32 = 48;
const BAR_W: u32 = 360;
const BAR_H: u32 = 120;
const CDF_W: u32 = 360;
const CDF_H: u32 = 120;

fn spark_row(body: &mut String, label: &str, values: &[u64], color: &str) {
    let total: u64 = values.iter().sum();
    let _ = write!(
        body,
        "<div class=\"row\"><span class=\"lbl\">{}</span>{}<span class=\"sum\">{total}</span></div>",
        html_escape(label),
        svg_sparkline(values, SPARK_W, SPARK_H, color)
    );
}

/// Renders the cost-attribution section: stacked per-phase op counts for
/// both modes, the fitted scaling-exponent table, and ops-per-event-vs-n
/// sparklines over the mini sweep.
fn render_cost_section(
    body: &mut String,
    costs: &[Arc<CostModel>],
    cells: &[CellSeries],
    cost_sweep: &[(usize, Arc<CostModel>)],
    exponents: &[ClassExponent],
    events: usize,
) {
    body.push_str("<h2>Cost attribution (exact op counts)</h2>");
    body.push_str(
        "<p>Integer operation counts from the deterministic cost model — \
         byte-identical for any worker count. Wall-clock and allocator \
         numbers come from benchmark/run.sh, never from here.</p>",
    );
    for (cost, cell) in costs.iter().zip(cells) {
        let _ = write!(
            body,
            "<div class=\"panel\"><h3>{} — ops per phase</h3>",
            html_escape(cell.mode.label())
        );
        let totals = cost.phase_totals();
        let grand: Vec<u64> = totals.iter().map(|p| p.grand_total()).collect();
        body.push_str(&svg_bars(&PHASE_NAMES, &grand, BAR_W, BAR_H, "#0969da"));
        body.push_str(
            "<table><tr><th>op class</th><th>warmup</th><th>down</th><th>up</th><th>total</th></tr>",
        );
        let total = cost.total();
        for (i, (name, value)) in total.fields().iter().enumerate() {
            let _ = write!(
                body,
                "<tr><td>{name}</td><td>{}</td><td>{}</td><td>{}</td><td>{value}</td></tr>",
                totals[0].fields()[i].1,
                totals[1].fields()[i].1,
                totals[2].fields()[i].1,
            );
        }
        body.push_str("</table></div>");
    }

    body.push_str("<div class=\"panel\"><h3>Scaling exponents (ops per event ∝ n^b)</h3>");
    if exponents.is_empty() {
        body.push_str(
            "<p>n/a — the mini sweep collapsed to a single size; run the \
             report at a larger n for a fit.</p>",
        );
    } else {
        body.push_str(
            "<table><tr><th>op class</th><th>kind</th><th>exponent</th><th>r²</th></tr>",
        );
        for e in exponents {
            let _ = write!(
                body,
                "<tr><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td></tr>",
                e.class,
                kind_label(e.kind),
                e.exponent,
                e.r_squared
            );
        }
        body.push_str("</table>");
    }
    body.push_str("</div>");

    body.push_str("<div class=\"panel\"><h3>Ops per event vs n (NO-WRATE mini sweep)</h3>");
    let sizes: Vec<String> = cost_sweep.iter().map(|(n, _)| n.to_string()).collect();
    let _ = write!(body, "<p>n ∈ [{}]</p>", sizes.join(", "));
    let spark_classes = ["queue_comparisons", "deliveries", "decision_runs", "rib_out_writes"];
    let spark_colors = ["#cf222e", "#1a7f37", "#0969da", "#9a6700"];
    let names = bgpscale_obs::OpCounts::field_names();
    for (class, color) in spark_classes.iter().zip(spark_colors) {
        let idx = names.iter().position(|n| n == class).expect("known class");
        let values: Vec<u64> = cost_sweep
            .iter()
            .map(|(_, cost)| cost.total().fields()[idx].1 / (events.max(1) as u64))
            .collect();
        spark_row(body, class, &values, color);
    }
    body.push_str("</div>");
}

/// Renders the standalone HTML page.
fn render_html(
    cfg: &ReportConfig,
    reports: &[Arc<ChurnReport>],
    cells: &[CellSeries],
    costs: &[Arc<CostModel>],
    cost_sweep: &[(usize, Arc<CostModel>)],
    exponents: &[ClassExponent],
) -> String {
    let title = format!(
        "Churn provenance — {} n={} ({} events, seed {:#x})",
        cfg.scenario, cfg.n, cfg.events, cfg.seed
    );
    let depth_labels: Vec<String> = DEPTH_BOUNDS
        .iter()
        .map(|b| format!("≤{b}"))
        .chain(std::iter::once("inf".to_string()))
        .collect();
    let depth_label_refs: Vec<&str> = depth_labels.iter().map(String::as_str).collect();

    let mut body = String::new();
    let _ = write!(body, "<h1>{}</h1>", html_escape(&title));
    let _ = write!(
        body,
        "<p>Bin width: {} ms of simulated time. Every update carries a provenance \
         stamp (root-cause event, causal depth, sending relation); coalesced MRAI \
         flushes carry the union of their contributing roots, so the two modes \
         stay attributable side by side.</p>",
        cfg.bin_us / 1_000
    );

    for (cell, report) in cells.iter().zip(reports) {
        let ts = &cell.series;
        let _ = write!(body, "<h2>{}</h2>", html_escape(cell.mode.label()));

        // Headline numbers.
        let _ = write!(
            body,
            "<table><tr><th>events</th><th>updates</th><th>announce</th>\
             <th>withdraw</th><th>coalesced</th><th>depth max</th>\
             <th>mean U per event</th></tr>\
             <tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{:.1}</td></tr></table>",
            ts.events,
            ts.total_updates(),
            ts.bins.iter().map(|b| b.announces).sum::<u64>(),
            ts.bins.iter().map(|b| b.withdraws).sum::<u64>(),
            ts.coalesced,
            ts.depth_max,
            report.mean_total_updates,
        );

        body.push_str("<div class=\"panel\"><h3>Updates per bin by sending relation</h3>");
        let rel_names = ["to customers", "to peers", "to providers"];
        let rel_colors = ["#1a7f37", "#0969da", "#cf222e"];
        for (i, (name, color)) in rel_names.iter().zip(rel_colors).enumerate() {
            let values: Vec<u64> = ts.bins.iter().map(|b| b.by_rel[i]).collect();
            spark_row(&mut body, name, &values, color);
        }
        body.push_str("</div>");

        body.push_str("<div class=\"panel\"><h3>Updates per bin by receiving node type</h3>");
        let type_names = ["T (tier-1)", "M (mid)", "CP (content)", "C (stub)"];
        let type_colors = ["#8250df", "#0969da", "#9a6700", "#57606a"];
        for (i, (name, color)) in type_names.iter().zip(type_colors).enumerate() {
            let values: Vec<u64> = ts.bins.iter().map(|b| b.by_type[i]).collect();
            spark_row(&mut body, name, &values, color);
        }
        body.push_str("</div>");

        body.push_str("<div class=\"panel\"><h3>Causal depth (hops since the root cause)</h3>");
        body.push_str(&svg_bars(
            &depth_label_refs,
            &ts.depth_hist,
            BAR_W,
            BAR_H,
            "#57606a",
        ));
        body.push_str("</div>");

        body.push_str(
            "<div class=\"panel\"><h3>Per-root convergence duration (CDF, \
             root-cause fire to last attributed update)</h3>",
        );
        body.push_str(&svg_cdf(
            &ts.convergence_durations_us(),
            CDF_W,
            CDF_H,
            "#0969da",
        ));
        let durations = ts.convergence_durations_us();
        if !durations.is_empty() {
            let median = durations[durations.len() / 2];
            let _ = write!(
                body,
                "<p>{} roots with attributed updates; median {} ms, max {} ms.</p>",
                durations.len(),
                median / 1_000,
                durations.last().unwrap() / 1_000
            );
        }
        body.push_str("</div>");

        body.push_str("<div class=\"panel\"><h3>Queue occupancy peaks per bin</h3>");
        let armed: Vec<u64> = ts.bins.iter().map(|b| b.mrai_armed_peak).collect();
        spark_row(&mut body, "armed MRAI timers", &armed, "#9a6700");
        let inbox: Vec<u64> = ts.bins.iter().map(|b| b.inbox_peak).collect();
        spark_row(&mut body, "deepest inbox", &inbox, "#8250df");
        body.push_str("</div>");
    }

    render_cost_section(&mut body, costs, cells, cost_sweep, exponents, cfg.events);

    html_page(&title, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ReportConfig {
        ReportConfig {
            scenario: GrowthScenario::Baseline,
            n: 150,
            events: 2,
            seed: 0xBEEF,
            jobs: 1,
            bin_us: 100_000,
        }
    }

    #[test]
    fn report_runs_and_passes_check() {
        let out = run_report(&tiny_cfg());
        check(&out).expect("tiny report must pass its own gate");
        assert_eq!(out.cells.len(), 2);
        assert!(matches!(out.cells[0].mode, MraiMode::NoWrate));
        assert!(matches!(out.cells[1].mode, MraiMode::Wrate));
        assert!(out.html.starts_with("<!DOCTYPE html>"));
        for needle in [
            "NO-WRATE",
            "WRATE",
            "class=\"spark\"",
            "class=\"cdf\"",
            "Causal depth",
            "to customers",
            "Cost attribution",
            "ops per phase",
            "queue_comparisons",
        ] {
            assert!(out.html.contains(needle), "HTML missing {needle:?}");
        }
        assert!(out.timeseries_json.starts_with("{\"schema_version\":"));
        assert!(out.timeseries_json.contains("\"mode\":\"no_wrate\""));
        assert!(out.timeseries_json.contains("\"mode\":\"wrate\""));
        assert!(out.timeseries_json.contains("\"bins\":["));
        // The tiny cell still carries a cost model per mode, and the mini
        // sweep has at least two sizes (120 and 150) so exponents exist.
        assert_eq!(out.costs.len(), 2);
        assert!(out.costs.iter().all(|c| c.total().grand_total() > 0));
        assert!(!out.cost_sweep.is_empty());
        assert!(!out.cost_exponents.is_empty());
        assert!(out.html.contains("Scaling exponents"));
        assert!(out.html.contains("<td>path_intern_hits</td><td>avoided</td>"), "kind column");
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_report(&tiny_cfg());
        let b = run_report(&tiny_cfg());
        assert_eq!(a.html, b.html);
        assert_eq!(a.timeseries_json, b.timeseries_json);
    }

    #[test]
    fn check_flags_empty_panels() {
        let mut out = run_report(&tiny_cfg());
        out.cells[1].series.bins.clear();
        let err = check(&out).unwrap_err();
        assert!(err.contains("WRATE"), "names the failing cell: {err}");
        assert!(err.contains("empty"), "describes the empty panel: {err}");
    }
}
