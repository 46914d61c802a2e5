//! `repro report` — a churn provenance report, as text.
//!
//! Runs one `(scenario, n)` cell under **both** MRAI modes with the
//! simulated-time series recorder attached, and prints the comparison as
//! aligned text tables ([`render_text`]): the headline numbers, updates by
//! sending relation and by receiving node type with their peak bin, the
//! causal-depth histogram, per-root convergence durations, MRAI timer and
//! inbox occupancy peaks, and the exact cost attribution. A
//! `timeseries.json` artifact carries the raw integer series
//! (byte-identical for any `--jobs` value, like every other deterministic
//! artifact).
//!
//! The `check` gate mirrors `profile --check`: it fails when any panel of
//! the report would be empty — catching "provenance silently stopped
//! flowing" regressions in CI.

use std::sync::Arc;

use bgpscale_bgp::MraiMode;
use bgpscale_core::ChurnReport;
use bgpscale_obs::costmodel::PHASE_NAMES;
use bgpscale_obs::json::{Layout, Value};
use bgpscale_obs::timeseries::DEPTH_BOUNDS;
use bgpscale_obs::{CostModel, OpCounts, TimeSeries, TsBin, SCHEMA_VERSION};
use bgpscale_topology::GrowthScenario;

use crate::report::Table;
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
    /// collapsed to a single size (tiny n) — printed as "n/a", not an
    /// error.
    pub cost_exponents: Vec<ClassExponent>,
    /// The raw integer time series as deterministic JSON.
    pub timeseries_json: String,
}

/// The two modes every report compares, in print order.
const MODES: [MraiMode; 2] = [MraiMode::NoWrate, MraiMode::Wrate];

fn mode_key(mode: MraiMode) -> &'static str {
    match mode {
        MraiMode::NoWrate => "no_wrate",
        MraiMode::Wrate => "wrate",
    }
}

/// Runs the WRATE vs NO-WRATE pair through a [`Sweeper`] (time series
/// enabled) and writes `timeseries.json`.
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
    // after take_series() so the extra cells' series stay out of the report.
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
    ReportOutput {
        cells,
        reports,
        costs,
        cost_sweep,
        cost_exponents,
        timeseries_json,
    }
}

/// The `timeseries.json` artifact: cell coordinates plus the raw series,
/// integer-only and in fixed key order.
fn timeseries_json(cfg: &ReportConfig, cells: &[CellSeries]) -> String {
    let cells = cells.iter().map(|cell| {
        let cell = [("mode", mode_key(cell.mode).into()), ("series", cell.series.to_value())];
        Value::obj(Layout::Compact, cell)
    });
    let doc = [
        ("schema_version", SCHEMA_VERSION.into()),
        ("scenario", cfg.scenario.to_string().into()),
        ("n", cfg.n.into()),
        ("events", cfg.events.into()),
        ("seed", cfg.seed.into()),
        ("bin_us", cfg.bin_us.into()),
        ("cells", Value::arr(Layout::Compact, cells)),
    ];
    Value::obj(Layout::Compact, doc).to_json()
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
            return Err(format!("{label}: convergence-duration panel is empty"));
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
    // tiny n) — it prints as "n/a" and must not fail the gate.
    Ok(())
}

/// One per-bin series of a [`TsBin`].
type BinSeries = (&'static str, fn(&TsBin) -> u64);

const UPDATE_SERIES: [BinSeries; 7] = [
    ("to customers", |b| b.by_rel[0]),
    ("to peers", |b| b.by_rel[1]),
    ("to providers", |b| b.by_rel[2]),
    ("at T (tier-1)", |b| b.by_type[0]),
    ("at M (mid)", |b| b.by_type[1]),
    ("at CP (content)", |b| b.by_type[2]),
    ("at C (stub)", |b| b.by_type[3]),
];

const OCCUPANCY_SERIES: [BinSeries; 2] = [
    ("armed MRAI timers", |b| b.mrai_armed_peak),
    ("deepest inbox", |b| b.inbox_peak),
];

/// Renders every panel of the report as aligned text tables. The series
/// panels have one row per quantity and one column per mode; a peak is
/// the series' highest bin value and the first bin that reached it.
pub fn render_text(cfg: &ReportConfig, out: &ReportOutput) -> String {
    let mut modes = vec![""];
    modes.extend(out.cells.iter().map(|c| c.mode.label()));
    let per_mode = |label: &str, value: &dyn Fn(usize, &TimeSeries) -> String| {
        let values = out
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| value(i, &c.series));
        std::iter::once(label.to_string())
            .chain(values)
            .collect::<Vec<_>>()
    };
    let sum = |ts: &TimeSeries, f: fn(&TsBin) -> u64| ts.bins.iter().map(f).sum::<u64>();
    let peak = |ts: &TimeSeries, f: fn(&TsBin) -> u64| {
        let first_max = |best: (usize, u64), (i, v)| if v > best.1 { (i, v) } else { best };
        let (bin, top) = ts.bins.iter().map(f).enumerate().fold((0, 0), first_max);
        format!("{top} @ bin {bin}")
    };
    let durations: Vec<Vec<u64>> = out
        .cells
        .iter()
        .map(|c| c.series.convergence_durations_us())
        .collect();
    let ms = |d: Option<&u64>| d.map_or("—".to_string(), |d| (d / 1_000).to_string());
    let depths = DEPTH_BOUNDS.iter().map(|b| format!("≤{b}"));
    let depths = depths.chain([format!(">{}", DEPTH_BOUNDS[DEPTH_BOUNDS.len() - 1])]);
    let mut tables = vec![
        Table::with_rows(
            "headline",
            &modes,
            [
                per_mode("events", &|_, ts| ts.events.to_string()),
                per_mode("updates", &|_, ts| ts.total_updates().to_string()),
                per_mode("announce", &|_, ts| sum(ts, |b| b.announces).to_string()),
                per_mode("withdraw", &|_, ts| sum(ts, |b| b.withdraws).to_string()),
                per_mode("coalesced", &|_, ts| ts.coalesced.to_string()),
                per_mode("depth max", &|_, ts| ts.depth_max.to_string()),
                per_mode("mean U per event", &|i, _| {
                    format!("{:.1}", out.reports[i].mean_total_updates)
                }),
            ],
        ),
        Table::with_rows(
            "updates by sending relation and receiving node type: total (peak)",
            &modes,
            UPDATE_SERIES.map(|(label, f)| {
                per_mode(label, &|_, ts| format!("{} ({})", sum(ts, f), peak(ts, f)))
            }),
        ),
        Table::with_rows(
            "causal depth (hops since the root cause)",
            &modes,
            depths
                .enumerate()
                .map(|(d, label)| per_mode(&label, &|_, ts| ts.depth_hist[d].to_string())),
        ),
        Table::with_rows(
            "per-root convergence (root-cause fire to last attributed update)",
            &modes,
            [
                per_mode("roots", &|i, _| durations[i].len().to_string()),
                per_mode("median ms", &|i, _| {
                    ms(durations[i].get(durations[i].len() / 2))
                }),
                per_mode("max ms", &|i, _| ms(durations[i].last())),
            ],
        ),
        Table::with_rows(
            "queue occupancy peaks",
            &modes,
            OCCUPANCY_SERIES.map(|(label, f)| per_mode(label, &|_, ts| peak(ts, f))),
        ),
    ];

    let mut phases = vec!["op class"];
    phases.extend(PHASE_NAMES.into_iter().chain(["total"]));
    for (cost, cell) in out.costs.iter().zip(&out.cells) {
        let mut columns = cost.phase_totals().to_vec();
        columns.push(cost.total());
        let counts = |label: &str, value: &dyn Fn(&OpCounts) -> u64| {
            std::iter::once(label.to_string())
                .chain(columns.iter().map(|c| value(c).to_string()))
                .collect()
        };
        let classes = OpCounts::field_names()
            .into_iter()
            .enumerate()
            .map(|(i, class)| counts(class, &|c| c.fields()[i].1));
        let rows = classes.chain([counts("work total", &OpCounts::grand_total)]);
        tables.push(Table::with_rows(
            format!("{}: exact op counts per phase", cell.mode.label()),
            &phases,
            rows,
        ));
    }
    let mut exponents: Vec<Vec<String>> = out
        .cost_exponents
        .iter()
        .map(|e| {
            vec![
                e.class.to_string(),
                kind_label(e.kind).to_string(),
                format!("{:.3}", e.exponent),
                format!("{:.3}", e.r_squared),
            ]
        })
        .collect();
    if exponents.is_empty() {
        // A mini sweep of one size (tiny n) has nothing to fit.
        exponents.push(["n/a: one size", "—", "—", "—"].map(String::from).to_vec());
    }
    tables.push(Table::with_rows(
        "scaling exponents (ops per event ∝ n^b)",
        &["op class", "kind", "exponent", "r²"],
        exponents,
    ));
    // In canonical class order, which is the order `fields` yields them in.
    let swept = [
        "queue_comparisons",
        "decision_runs",
        "rib_out_writes",
        "deliveries",
    ];
    let sweep = out.cost_sweep.iter().map(|(n, cost)| {
        let per_event = cost
            .total()
            .fields()
            .into_iter()
            .filter(|(class, _)| swept.contains(class));
        std::iter::once(n.to_string())
            .chain(per_event.map(|(_, v)| (v / cfg.events.max(1) as u64).to_string()))
            .collect()
    });
    tables.push(Table::with_rows(
        "ops per event vs n (NO-WRATE mini sweep)",
        &[&["n"][..], &swept].concat(),
        sweep,
    ));

    let mut s = format!(
        "churn provenance: {} n={} ({} events, seed {:#x}); bins of {} ms of simulated time\n",
        cfg.scenario,
        cfg.n,
        cfg.events,
        cfg.seed,
        cfg.bin_us / 1_000
    );
    for t in &tables {
        s.push('\n');
        s.push_str(&t.render());
    }
    s
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
        let cfg = tiny_cfg();
        let out = run_report(&cfg);
        check(&out).expect("tiny report must pass its own gate");
        assert_eq!(out.cells.len(), 2);
        assert!(matches!(out.cells[0].mode, MraiMode::NoWrate));
        assert!(matches!(out.cells[1].mode, MraiMode::Wrate));
        let text = render_text(&cfg, &out);
        for needle in [
            "## headline",
            "NO-WRATE",
            "WRATE",
            "to customers",
            "at C (stub)",
            "## causal depth",
            "## per-root convergence",
            "armed MRAI timers",
            "deepest inbox",
            "exact op counts per phase",
            "queue_comparisons",
            "work total",
            "## scaling exponents",
            "## ops per event vs n",
        ] {
            assert!(
                text.contains(needle),
                "text report missing {needle:?}:\n{text}"
            );
        }
        assert!(
            text.lines()
                .any(|l| l.starts_with("path_intern_hits") && l.contains("avoided")),
            "kind column:\n{text}"
        );
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
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = tiny_cfg();
        let (a, b) = (run_report(&cfg), run_report(&cfg));
        assert_eq!(render_text(&cfg, &a), render_text(&cfg, &b));
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
