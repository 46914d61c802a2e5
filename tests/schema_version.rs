//! Every versioned artifact writer stamps the shared `schema_version`.
//!
//! The constant lives in exactly one place — [`bgpscale_obs::SCHEMA_VERSION`] —
//! and the writers embed it: `metrics.json` (`MetricsRegistry::to_json`),
//! `costmodel.json` (`CostModel::to_json`), `timeseries.json` (the
//! `repro report` wrapper), the trace header, every run-ledger line
//! (`LedgerRecord::to_line`) — which is also what a perf baseline is — and
//! the figure CSVs of `repro --csv` (`Figure::csv_files`). A writer that
//! forgets the stamp (or stamps a different number) fails here before it
//! can ship an unversioned artifact; `bgpscale_obs::artifact`, the one
//! file writer, refuses it at run time as well.

use bgpscale_core::ExperimentConfig;
use bgpscale_experiments::churnreport::run_report;
use bgpscale_experiments::{figures, RunConfig, Sweeper};
use bgpscale_experiments::perf::measure;
use bgpscale_obs::{CostModel, MetricsRegistry, OpCounts, SCHEMA_VERSION};
use bgpscale_topology::GrowthScenario;

/// `"schema_version": N` (or the compact `"schema_version":N`) appears in
/// the document with the shared constant as its value, or — for a CSV,
/// which has no keys — its first line is the comment `# schema_version=N`.
fn assert_stamped(doc: &str, what: &str) {
    let spaced = format!("\"schema_version\": {SCHEMA_VERSION}");
    let compact = format!("\"schema_version\":{SCHEMA_VERSION}");
    let comment = format!("# schema_version={SCHEMA_VERSION}");
    assert!(
        doc.contains(&spaced) || doc.contains(&compact) || doc.lines().next() == Some(&comment),
        "{what} is missing schema_version {SCHEMA_VERSION}: {}",
        &doc[..doc.len().min(200)]
    );
}

#[test]
fn metrics_json_is_stamped() {
    let mut m = MetricsRegistry::new();
    m.inc("events.total", 3);
    assert_stamped(&m.to_json(), "metrics.json");
}

#[test]
fn costmodel_json_is_stamped() {
    let mut c = CostModel::new();
    c.push_event([OpCounts::default(); 3]);
    assert_stamped(&c.to_json(), "costmodel.json");
}

#[test]
fn timeseries_json_is_stamped() {
    let cell = ExperimentConfig::new(GrowthScenario::Baseline, 150, 2, 11, Default::default());
    let report = run_report(&cell, 2, 100_000);
    assert_stamped(&report.timeseries_json, "timeseries.json");
}

#[test]
fn trace_header_is_stamped() {
    let text = bgpscale_obs::trace::to_jsonl(&[]);
    assert_stamped(&text, "trace header");
}

#[test]
fn ledger_line_is_stamped() {
    let cfg = ExperimentConfig::new(GrowthScenario::Baseline, 150, 2, 11, Default::default());
    let m = measure(&cfg, 2);
    let record = bgpscale_experiments::perf::perf_record(&cfg, &m, "testrev");
    assert_stamped(&record.to_line(), "ledger line");
}

#[test]
fn figure_csvs_are_stamped() {
    let fig = figures::fig3::run(&mut Sweeper::new(RunConfig { seed: 11, ..RunConfig::tiny() }));
    let files = fig.csv_files();
    assert_eq!(files.len(), fig.tables.len());
    for ((name, csv), table) in files.iter().zip(&fig.tables) {
        assert_stamped(csv, name);
        assert!(csv.ends_with(&table.to_csv()), "{name} is the stamp plus the table");
    }
}
