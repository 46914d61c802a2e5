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

use bgpscale_bgp::{BgpConfig, MraiMode};
use bgpscale_core::{run_cell, ChurnReport, ExperimentConfig, ObserveOptions};
use bgpscale_obs::costmodel::PHASE_NAMES;
use bgpscale_obs::json::{Layout, Value};
use bgpscale_obs::timeseries::DEPTH_BOUNDS;
use bgpscale_obs::{CostModel, OpCounts, TimeSeries, TsBin, SCHEMA_VERSION};
use bgpscale_simkernel::pool::effective_jobs;
use bgpscale_topology::{NodeType, Relationship};

use crate::report::Table;
use crate::trend::{fit_exponents, kind_label, ClassExponent};

/// One MRAI mode's cell of the report.
#[derive(Clone, Debug)]
pub struct ModeCell {
    /// The cell's MRAI mode.
    pub mode: MraiMode,
    /// The per-event time series merged in event-index order.
    pub series: TimeSeries,
    /// The cell's churn report.
    pub report: ChurnReport,
    /// The cell's exact cost model.
    pub cost: CostModel,
}

/// The result of [`run_report`].
#[derive(Clone, Debug)]
pub struct ReportOutput {
    /// The two cells, NO-WRATE first.
    pub cells: Vec<ModeCell>,
    /// Cost models of the NO-WRATE mini size sweep feeding the exponent
    /// fit, ascending n (last entry is the reported cell itself).
    pub cost_sweep: Vec<(usize, CostModel)>,
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

/// Runs `cell`'s scenario, size, events and seed as a WRATE vs NO-WRATE
/// pair through [`run_cell`] on up to `jobs` workers (`0` = every
/// hardware thread), with time series in bins of `bin_us` simulated
/// microseconds, and builds `timeseries.json`. The pair takes each mode's
/// default protocol configuration, so `cell.bgp` and `cell.event_limit`
/// are not read.
pub fn run_report(cell: &ExperimentConfig, jobs: usize, bin_us: u64) -> ReportOutput {
    let jobs = effective_jobs(jobs).max(1);
    let at = |n: usize, mrai_mode: MraiMode| {
        let bgp = BgpConfig { mrai_mode, ..BgpConfig::default() };
        ExperimentConfig::new(cell.scenario, n, cell.events, cell.seed, bgp)
    };
    let observe = ObserveOptions {
        trace_sample: None,
        timeseries_bin_us: Some(bin_us),
    };
    let cells: Vec<ModeCell> = MODES
        .into_iter()
        .map(|mode| {
            let observed = run_cell(&at(cell.n, mode), jobs, Some(&observe), |_| {})
                .unwrap_or_else(|e| panic!("{e}"));
            ModeCell {
                mode,
                series: observed.timeseries.expect("time series requested"),
                report: observed.report,
                cost: observed.cost,
            }
        })
        .collect();

    // A NO-WRATE mini size sweep below the reported n feeds the scaling-
    // exponent fit; the reported cell itself is its largest point, and
    // the other sizes run unobserved (the cost model is the same either
    // way).
    let mut sweep_sizes: Vec<usize> = [cell.n / 3, 2 * cell.n / 3, cell.n]
        .into_iter()
        .map(|s| s.max(120))
        .collect();
    sweep_sizes.sort_unstable();
    sweep_sizes.dedup();
    let cost_sweep: Vec<(usize, CostModel)> = sweep_sizes
        .into_iter()
        .map(|s| {
            let cost = if s == cell.n {
                cells[0].cost.clone()
            } else {
                run_cell(&at(s, MraiMode::NoWrate), jobs, None, |_| {})
                    .unwrap_or_else(|e| panic!("{e}"))
                    .cost
            };
            (s, cost)
        })
        .collect();
    let sweep_ops: Vec<_> = cost_sweep
        .iter()
        .map(|(n, cost)| (*n as u64, cost.total()))
        .collect();
    let cost_exponents = fit_exponents(&sweep_ops, cell.events as u64);

    let timeseries_json = timeseries_json(cell, bin_us, &cells);
    ReportOutput {
        cells,
        cost_sweep,
        cost_exponents,
        timeseries_json,
    }
}

/// The `timeseries.json` artifact: cell coordinates plus the raw series,
/// integer-only and in fixed key order.
fn timeseries_json(cfg: &ExperimentConfig, bin_us: u64, cells: &[ModeCell]) -> String {
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
        ("bin_us", bin_us.into()),
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
        if ts.depth.count() == 0 {
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
        if cell.cost.is_empty() || cell.cost.total().grand_total() == 0 {
            return Err(format!("{label}: cost-attribution panel is empty"));
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
    ("to customers", |b| b.by_rel[Relationship::Customer]),
    ("to peers", |b| b.by_rel[Relationship::Peer]),
    ("to providers", |b| b.by_rel[Relationship::Provider]),
    ("at T (tier-1)", |b| b.by_type[NodeType::T]),
    ("at M (mid)", |b| b.by_type[NodeType::M]),
    ("at CP (content)", |b| b.by_type[NodeType::Cp]),
    ("at C (stub)", |b| b.by_type[NodeType::C]),
];

const OCCUPANCY_SERIES: [BinSeries; 2] = [
    ("armed MRAI timers", |b| b.mrai_armed_peak),
    ("deepest inbox", |b| b.inbox_peak),
];

/// Renders every panel of the report of `cell`, binned at `bin_us`, as
/// aligned text tables. The series panels have one row per quantity and
/// one column per mode; a peak is the series' highest bin value and the
/// first bin that reached it.
pub fn render_text(cell: &ExperimentConfig, bin_us: u64, out: &ReportOutput) -> String {
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
                per_mode("depth max", &|_, ts| ts.depth.max().to_string()),
                per_mode("mean U per event", &|i, _| {
                    format!("{:.1}", out.cells[i].report.mean_total_updates)
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
                .map(|(d, label)| {
                    per_mode(&label, &|_, ts| ts.depth.bucket_counts()[d].to_string())
                }),
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
    for cell in &out.cells {
        let mut columns = cell.cost.phase_totals().to_vec();
        columns.push(cell.cost.total());
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
            .chain(per_event.map(|(_, v)| (v / cell.events.max(1) as u64).to_string()))
            .collect()
    });
    tables.push(Table::with_rows(
        "ops per event vs n (NO-WRATE mini sweep)",
        &[&["n"][..], &swept].concat(),
        sweep,
    ));

    let mut s = format!(
        "churn provenance: {} n={} ({} events, seed {:#x}); bins of {} ms of simulated time\n",
        cell.scenario,
        cell.n,
        cell.events,
        cell.seed,
        bin_us / 1_000
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
    use bgpscale_simkernel::rng::hash64_bytes;
    use bgpscale_topology::GrowthScenario;

    const BIN_US: u64 = 100_000;

    fn tiny_cell() -> ExperimentConfig {
        ExperimentConfig::new(GrowthScenario::Baseline, 150, 2, 0xBEEF, Default::default())
    }

    #[test]
    fn report_runs_and_passes_check() {
        let cell = tiny_cell();
        let out = run_report(&cell, 1, BIN_US);
        check(&out).expect("tiny report must pass its own gate");
        assert_eq!(out.cells.len(), 2);
        assert!(matches!(out.cells[0].mode, MraiMode::NoWrate));
        assert!(matches!(out.cells[1].mode, MraiMode::Wrate));
        let text = render_text(&cell, BIN_US, &out);
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
        assert!(out.cells.iter().all(|c| c.cost.total().grand_total() > 0));
        assert!(!out.cost_sweep.is_empty());
        assert!(!out.cost_exponents.is_empty());
    }

    #[test]
    fn report_is_deterministic() {
        let cell = tiny_cell();
        let (a, b) = (run_report(&cell, 1, BIN_US), run_report(&cell, 1, BIN_US));
        assert_eq!(render_text(&cell, BIN_US, &a), render_text(&cell, BIN_US, &b));
        assert_eq!(a.timeseries_json, b.timeseries_json);
    }

    #[test]
    fn tiny_report_bytes_are_pinned() {
        // Pinned before `run_report` moved off the `Sweeper`: the text
        // report and `timeseries.json` of the tiny cell, byte for byte.
        // The text carries the per-phase op tables, so it was re-pinned
        // when the event queue's ring moved `queue_decreases` and
        // `queue_comparisons` (and the totals, exponents and sweep they
        // enter); `timeseries.json` did not move.
        let cell = tiny_cell();
        let out = run_report(&cell, 1, BIN_US);
        let text = render_text(&cell, BIN_US, &out);
        assert_eq!((hash64_bytes(text.as_bytes()), text.len()), (0xf8d9_12df_0e94_dfac, 4611));
        let json = &out.timeseries_json;
        assert_eq!((hash64_bytes(json.as_bytes()), json.len()), (0x0ec2_9b4c_7be3_786a, 406_576));
    }

    #[test]
    fn check_flags_empty_panels() {
        let mut out = run_report(&tiny_cell(), 1, BIN_US);
        out.cells[1].series.bins.clear();
        let err = check(&out).unwrap_err();
        assert!(err.contains("WRATE"), "names the failing cell: {err}");
        assert!(err.contains("empty"), "describes the empty panel: {err}");
    }
}
