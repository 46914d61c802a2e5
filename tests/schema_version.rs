//! Every versioned artifact writer stamps the shared `schema_version`.
//!
//! The constant lives in exactly one place — [`bgpscale_obs::SCHEMA_VERSION`] —
//! and the writers embed it: `metrics.json` (`MetricsRegistry::to_json`),
//! `costmodel.json` (`CostModel::to_json`), `timeseries.json` (the
//! `repro report` wrapper), the trace header, and every run-ledger line
//! (`LedgerRecord::to_line`) — which is also what a perf baseline is. A
//! writer that forgets the stamp (or stamps a different number) fails
//! here before it can ship an unversioned artifact.

use bgpscale_experiments::churnreport::{run_report, ReportConfig};
use bgpscale_experiments::perf::{measure, PerfConfig};
use bgpscale_obs::{CostModel, MetricsRegistry, OpCounts, SCHEMA_VERSION};
use bgpscale_topology::GrowthScenario;

/// `"schema_version": N` (or the compact `"schema_version":N`) appears in
/// the document with the shared constant as its value.
fn assert_stamped(doc: &str, what: &str) {
    let spaced = format!("\"schema_version\": {SCHEMA_VERSION}");
    let compact = format!("\"schema_version\":{SCHEMA_VERSION}");
    assert!(
        doc.contains(&spaced) || doc.contains(&compact),
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
    let report = run_report(&ReportConfig {
        scenario: GrowthScenario::Baseline,
        n: 150,
        events: 2,
        seed: 11,
        jobs: 2,
        bin_us: 100_000,
    });
    assert_stamped(&report.timeseries_json, "timeseries.json");
}

#[test]
fn trace_header_is_stamped() {
    let mut w = bgpscale_obs::TraceWriter::new(Vec::new());
    w.write_header().unwrap();
    let text = String::from_utf8(w.finish().unwrap()).unwrap();
    assert_stamped(&text, "trace header");
}

#[test]
fn ledger_line_is_stamped() {
    let cfg = PerfConfig {
        scenario: GrowthScenario::Baseline,
        n: 150,
        events: 2,
        seed: 11,
        jobs: 2,
        perturb: None,
    };
    let m = measure(&cfg);
    let record = bgpscale_experiments::perf::perf_record(&cfg, &m, "testrev");
    assert_stamped(&record.to_line(), "ledger line");
}
