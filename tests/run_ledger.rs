//! Cross-crate contract tests for the run ledger (`obs::ledger` +
//! `experiments::{perf, trend}`): the deterministic half of every record
//! is byte-identical for any worker count, history dedupes on content, a
//! damaged ledger is rejected loudly instead of silently analyzed, the
//! ledger is the perf gate's only baseline store — blessed into, never
//! written by a check — any revision string round-trips, and the
//! checked-in history renders as a dashboard.

use bgpscale_core::ExperimentConfig;
use bgpscale_experiments::perf::{self, measure, perf_record};
use bgpscale_experiments::trend;
use bgpscale_obs::ledger::{append_records, read_ledger, LedgerError, RunKind};
use bgpscale_topology::GrowthScenario;

fn cell() -> ExperimentConfig {
    ExperimentConfig::new(GrowthScenario::Baseline, 150, 2, 7, Default::default())
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpscale_ledger_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("runs.jsonl")
}

/// The ISSUE acceptance bar: ledger `det` fields are byte-identical
/// across `--jobs 1/4/8`. Only the wall side may differ.
#[test]
fn det_fields_are_byte_identical_across_jobs_1_4_8() {
    let records: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| perf_record(&cell(), &measure(&cell(), jobs), "testrev"))
        .collect();
    let baseline = records[0].det_json();
    for (r, jobs) in records.iter().zip([1u64, 4, 8]) {
        assert_eq!(r.det_json(), baseline, "det bytes drifted at jobs={jobs}");
        assert_eq!(r.det_hash(), records[0].det_hash());
        assert_eq!(r.wall.jobs, jobs, "jobs is recorded wall-side");
    }
}

/// Re-recording the same config at the same revision is recognized by
/// content hash and skipped; a different revision appends.
#[test]
fn same_config_and_rev_dedupes_by_content_hash() {
    let path = temp_path("dedupe");
    let _ = std::fs::remove_file(&path);
    let cfg = cell();
    let m = measure(&cfg, 1);
    let first = perf_record(&cfg, &m, "revA");
    let out = append_records(&path, std::slice::from_ref(&first)).unwrap();
    assert_eq!((out.appended, out.deduped), (1, 0));

    // Same cell, same rev, fresh measurement: different wall time, same
    // det content → deduped.
    let rerun = perf_record(&cfg, &measure(&cfg, 1), "revA");
    let out = append_records(&path, &[rerun]).unwrap();
    assert_eq!((out.appended, out.deduped), (0, 1));

    // Same cell at a new revision is new history.
    let next_rev = perf_record(&cfg, &m, "revB");
    let out = append_records(&path, &[next_rev]).unwrap();
    assert_eq!((out.appended, out.deduped), (1, 0));

    let history = read_ledger(&path).unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].git_rev, "revA");
    assert_eq!(history[1].git_rev, "revB");
    assert_eq!(
        history[0].fingerprint(),
        history[1].fingerprint(),
        "same cell, one series"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A truncated trailing line (interrupted write) fails the canonical
/// round-trip and surfaces as `Corrupt` with its line number — the CLI
/// maps this to exit 2 rather than analyzing a damaged history.
#[test]
#[expect(clippy::disallowed_methods, reason = "the test damages a ledger on purpose")]
fn truncated_trailing_line_is_rejected_as_corrupt() {
    let path = temp_path("truncate");
    let _ = std::fs::remove_file(&path);
    let cfg = cell();
    let m = measure(&cfg, 1);
    append_records(&path, &[perf_record(&cfg, &m, "revA")]).unwrap();
    append_records(&path, &[perf_record(&cfg, &m, "revB")]).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.trim_end().len() - 25;
    std::fs::write(&path, &text[..cut]).unwrap();

    match read_ledger(&path) {
        Err(LedgerError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Corrupt at line 2, got {other:?}"),
    }
    // Appending to a damaged ledger must refuse too, not paper over it.
    assert!(matches!(
        append_records(&path, &[perf_record(&cfg, &m, "revC")]),
        Err(LedgerError::Corrupt { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

/// The perf gate over the ledger, through the same `perf::run` the
/// `repro perf` target calls: a blessed cell passes its check at a later
/// revision, fails once a shifted baseline is blessed after it (the
/// newest line is the baseline), a never-blessed cell fails with the
/// `--bless` hint, and no check — passing or failing — changes a byte of
/// the ledger file.
#[test]
#[expect(clippy::disallowed_methods, reason = "the test damages a ledger on purpose")]
fn perf_gate_blesses_into_the_ledger_and_checks_never_write_it() {
    let path = temp_path("perf_gate");
    let _ = std::fs::remove_file(&path);
    let cell = cell();

    let blessed = perf::run(std::slice::from_ref(&cell), 1, true, &path, "revA").unwrap();
    assert_eq!(blessed.len(), 1);
    let ledger = std::fs::read(&path).unwrap();
    assert_eq!(read_ledger(&path).unwrap().len(), 1, "bless appends the record");

    let verdicts = |cells: &[ExperimentConfig]| -> Vec<perf::Verdict> {
        let before = std::fs::read(&path).unwrap();
        let outcomes = perf::run(cells, 1, false, &path, "revB").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before, "a check wrote the ledger");
        outcomes.into_iter().map(|(_, verdict)| verdict).collect()
    };
    assert_eq!(verdicts(std::slice::from_ref(&cell)), vec![Ok(())]);

    let mut shifted = perf_record(&cell, &blessed[0].0, "revA2");
    shifted.ops.deliveries += 1;
    append_records(&path, &[shifted]).unwrap();
    let unknown = ExperimentConfig {
        n: 175,
        ..cell.clone()
    };
    let failed = verdicts(&[cell.clone(), unknown]);
    let drift = failed[0].as_ref().unwrap_err();
    assert!(drift.iter().any(|m| m.contains("op count drift: deliveries")), "{drift:?}");
    let missing = failed[1].as_ref().unwrap_err();
    assert!(missing[0].contains("--bless"), "{missing:?}");

    // A damaged ledger is refused before anything is measured, in
    // either mode (the CLI maps this to exit 2).
    std::fs::write(&path, &ledger[..ledger.len() - 25]).unwrap();
    for bless in [false, true] {
        assert!(matches!(
            perf::run(std::slice::from_ref(&cell), 1, bless, &path, "revC"),
            Err(LedgerError::Corrupt { line: 1, .. })
        ));
    }
    std::fs::remove_file(&path).unwrap();
}

/// The checked-in ledger is history and baseline store at once, in one
/// schema. Every line of it must pass the reader's canonical round-trip
/// — which refuses any schema but `SCHEMA_VERSION`, naming it — every
/// line is a `perf` line, and the three cells CI checks must each have a
/// blessed baseline. Older lines live in `results/ledger/archive/`,
/// which no code reads.
#[test]
fn checked_in_ledger_still_reads_and_holds_the_ci_baselines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/ledger/runs.jsonl");
    let history = read_ledger(std::path::Path::new(path)).unwrap_or_else(|e| panic!("{e}"));
    let raw = std::fs::read_to_string(path).unwrap();
    let stamp = format!("{{\"schema_version\":{},", bgpscale_obs::SCHEMA_VERSION);
    assert_eq!(raw.lines().count(), history.len());
    assert!(raw.lines().all(|l| l.starts_with(&stamp)), "every line carries {stamp}");
    assert!(history.iter().all(|r| r.kind == RunKind::Perf), "every line is a perf line");
    for n in [300, 600, 2000] {
        assert!(
            history.iter().any(|r| (r.n, r.events, r.seed) == (n, 5, 0x2008_0612)),
            "no perf baseline for n={n}: `repro perf --check` would fail in CI"
        );
    }
}

/// The checked-in ledger renders: `repro trend` is a read-only dashboard
/// over exactly this file, so its eight revisions and three fingerprints
/// (the three CI cells) must fold, and the text must name every revision
/// and carry the exponent table with each class's kind.
#[test]
fn checked_in_ledger_renders_as_a_dashboard() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/ledger/runs.jsonl");
    let history = read_ledger(std::path::Path::new(path)).unwrap();
    let report = trend::analyze(&history);
    assert_eq!(report.records, history.len());
    assert_eq!((report.revs.len(), report.fingerprints), (8, 3));
    let text = trend::render_text(&history, &report);
    let shape = format!("trend: {} records, 8 revisions, 3 config fingerprints", history.len());
    assert!(text.starts_with(&shape), "{text}");
    for rev in &report.revs {
        assert!(text.contains(&rev[..10]), "the dashboard does not name rev {rev}");
    }
    assert!(text.contains("## scaling-exponent refits"));
    assert!(
        text.lines().any(|l| l.contains(" mrai_coalesced ") && l.contains(" avoided ")),
        "kind column"
    );
}

/// A revision string is data, not markup: a quote and a backslash are
/// escaped on the way in and unescaped on the way out, and the ledger
/// stays appendable after it.
#[test]
fn a_quoted_revision_round_trips_and_the_ledger_stays_appendable() {
    let path = temp_path("quoted_rev");
    let _ = std::fs::remove_file(&path);
    let cfg = cell();
    let m = measure(&cfg, 1);
    let quoted = perf_record(&cfg, &m, "a\"b\\c");
    assert_eq!(append_records(&path, std::slice::from_ref(&quoted)).unwrap().appended, 1);
    assert_eq!(read_ledger(&path).unwrap(), vec![quoted.clone()]);
    let next = perf_record(&cfg, &m, "revB");
    assert_eq!(append_records(&path, std::slice::from_ref(&next)).unwrap().appended, 1);
    assert_eq!(read_ledger(&path).unwrap(), vec![quoted, next]);
    std::fs::remove_file(&path).unwrap();
}
