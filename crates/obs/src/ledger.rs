//! The run ledger: append-only history of the perf gate's baselines.
//!
//! Only `repro perf --bless` writes it: one immutable, schema-versioned
//! record per experiment cell, appended to `results/ledger/runs.jsonl`.
//! It is the perf gate's only baseline store: `repro perf --check`
//! compares a cell against its newest line and never appends. Every line
//! is a run of the same unobserved measurement, so the ledger is also
//! the repo's own trend data: where the paper asks whether per-router
//! workload stays sublinear as the topology grows, the ledger asks
//! whether *our* per-event cost stays flat as the code grows — `repro
//! trend` draws it as a read-only dashboard (per-revision series and
//! scaling-exponent refits).
//!
//! ## Record anatomy
//!
//! Each record is one line of JSON with two clearly segregated tiers:
//!
//! * **`det` — deterministic fields.** Git rev, config fingerprint, cell
//!   coordinates, exact [`OpCounts`], and the content hash of the cell's
//!   `costmodel.json`. These are pure functions of `(config, seed,
//!   code)` and therefore byte-identical across `--jobs` — the same
//!   contract as every other deterministic writer, enforced by the
//!   jobs-1/4/8 tests.
//! * **`wall` — wall-side fields.** Wall time, worker count, peak RSS.
//!   Machine- and scheduling-dependent by definition; they never
//!   participate in hashing or dedup. All wall fields are stored in
//!   integer units (microseconds, bytes) because this file denies float
//!   arithmetic (`clippy::float_arithmetic`).
//!
//! The **config fingerprint** hashes `(scenario, n, mode, seed, events)`
//! via the simkernel hash chain ([`hash64_bytes`] / [`hash64_pair`]).
//! The worker count is deliberately *excluded*: results are
//! jobs-invariant by the determinism contract, so `--jobs` belongs to
//! the wall tier. `(fingerprint, git_rev)` keys the trend series.
//!
//! ## Append-only semantics
//!
//! [`append_records`] never rewrites or reorders existing lines. A record
//! whose `(fingerprint, git_rev, det_hash)` triple already appears in the
//! ledger is a re-run of identical work and is deduplicated (skipped)
//! instead of double-appended; a record differing in *any* deterministic
//! byte gets a fresh line. Readers ([`read_ledger`]) verify every line by
//! canonical round-trip: parse, re-serialize, compare bytes — a corrupt
//! or truncated trailing line is a hard [`LedgerError::Corrupt`], never
//! silently skipped (surfaced as exit 2 by `repro perf` and `repro
//! trend`, the shared usage/config-error code).
//!
//! ## One schema
//!
//! The ledger holds lines of the current [`SCHEMA_VERSION`] only, so
//! every row a trend or a baseline compares was counted the same way. A
//! line of any other schema is a [`LedgerError::Schema`]. A schema bump
//! therefore does two things in one commit: it moves `runs.jsonl`
//! verbatim under `results/ledger/archive/` (named for the schemas it
//! holds; no code reads the archive), and it re-blesses the CI cells
//! into a fresh ledger. Five keys of schema 3 lines hold one value
//! each; [`LedgerRecord::to_line`] writes them as literals until that
//! bump drops them.

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use bgpscale_simkernel::rng::{hash64_bytes, hash64_pair};

use crate::costmodel::OpCounts;
use crate::json::{self, Layout, Value};
use crate::SCHEMA_VERSION;

/// Wall-side measurements of one run. Integer units only (microseconds,
/// bytes), so this file stays free of float arithmetic. Never hashed,
/// never deduplicated on, never deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallSide {
    /// Wall time of the cell in microseconds.
    pub wall_us: u64,
    /// Effective worker count the run used.
    pub jobs: u64,
    /// Peak resident set size in bytes (`None` off-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// One ledger record: the deterministic identity and results of a run
/// plus its wall-side context. See the module docs for the tier split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Git revision of the producing tree (`"unknown"` outside a repo).
    pub git_rev: String,
    /// Growth-scenario name (e.g. `"BASELINE"`).
    pub scenario: String,
    /// Network size of the cell.
    pub n: u64,
    /// MRAI mode label (`"NO-WRATE"` / `"WRATE"`).
    pub mode: String,
    /// Master seed.
    pub seed: u64,
    /// C-events per cell.
    pub events: u64,
    /// Exact op counts of the cell (grand totals per class).
    pub ops: OpCounts,
    /// Content hash of the cell's `costmodel.json` bytes
    /// ([`hash64_bytes`] over `CostModel::to_json`). It pins every
    /// per-event, per-phase count without storing the artifact.
    pub costmodel: u64,
    /// Wall-side measurements.
    pub wall: WallSide,
}

impl LedgerRecord {
    /// The config fingerprint: a stable hash of
    /// `(scenario, n, mode, seed, events)` via the simkernel hash chain.
    /// Worker count is excluded by design (results are jobs-invariant).
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(&self.scenario, self.n, &self.mode, self.seed, self.events)
    }

    /// The canonical deterministic block. Everything here is a pure
    /// function of `(config, seed, code)`; byte-identical across `--jobs`.
    pub fn det_json(&self) -> String {
        self.det().to_json()
    }

    fn det(&self) -> Value {
        let ops = self.ops.fields().map(|(name, v)| (name, v.into()));
        let artifacts = [
            ("metrics", Value::Null),
            ("timeseries", Value::Null),
            ("costmodel", hex(self.costmodel).into()),
        ];
        let det = [
            ("kind", "perf".into()),
            ("git_rev", self.git_rev.as_str().into()),
            ("fingerprint", hex(self.fingerprint()).into()),
            ("scenario", self.scenario.as_str().into()),
            ("n", self.n.into()),
            ("mode", self.mode.as_str().into()),
            ("seed", self.seed.into()),
            ("events", self.events.into()),
            ("ops", Value::obj(Layout::Compact, ops)),
            ("artifacts", Value::obj(Layout::Compact, artifacts)),
        ];
        Value::obj(Layout::Compact, det)
    }

    /// Content hash of the deterministic block — the dedup key component
    /// and the reader's integrity check.
    pub fn det_hash(&self) -> u64 {
        hash64_bytes(self.det_json().as_bytes())
    }

    /// Serializes the full record as one canonical JSON line (no trailing
    /// newline). Parsing and re-serializing a valid line reproduces it
    /// byte-for-byte; [`parse_line`] relies on that for integrity.
    ///
    /// `det.kind`, `det.artifacts.metrics`, `det.artifacts.timeseries`
    /// and the wall block's `metrics_overhead_cpct` and
    /// `trace_overhead_cpct` are literals (`"perf"` and four `null`s):
    /// schema 3 lines carry them and must round-trip. The next schema
    /// bump drops them.
    pub fn to_line(&self) -> String {
        let det = self.det();
        let det_hash = hash64_bytes(det.to_json().as_bytes());
        let w = &self.wall;
        let wall = [
            ("wall_us", w.wall_us.into()),
            ("jobs", w.jobs.into()),
            ("peak_rss_bytes", w.peak_rss_bytes.into()),
            ("metrics_overhead_cpct", Value::Null),
            ("trace_overhead_cpct", Value::Null),
        ];
        let line = [
            ("schema_version", SCHEMA_VERSION.into()),
            ("det", det),
            ("det_hash", hex(det_hash).into()),
            ("wall", Value::obj(Layout::Compact, wall)),
        ];
        Value::obj(Layout::Compact, line).to_json()
    }
}

/// The stable config fingerprint; see [`LedgerRecord::fingerprint`].
pub fn config_fingerprint(scenario: &str, n: u64, mode: &str, seed: u64, events: u64) -> u64 {
    let mut h = hash64_bytes(scenario.as_bytes());
    h = hash64_pair(h, n);
    h = hash64_pair(h, hash64_bytes(mode.as_bytes()));
    h = hash64_pair(h, seed);
    hash64_pair(h, events)
}

/// A hash as the ledger writes it: sixteen lowercase hex digits.
fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// What went wrong while reading or appending the ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// Filesystem failure (path and the io error's rendering).
    Io(String),
    /// A line failed to parse or round-trip — corruption or truncation.
    /// `line` is 1-based.
    Corrupt { line: usize, reason: String },
    /// A line carries a schema version other than [`SCHEMA_VERSION`]:
    /// older lines belong in `results/ledger/archive/`, newer ones to
    /// newer code.
    Schema { line: usize, found: u64 },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io(msg) => write!(f, "ledger io error: {msg}"),
            LedgerError::Corrupt { line, reason } => {
                write!(f, "ledger corrupt at line {line}: {reason}")
            }
            LedgerError::Schema { line, found } => write!(
                f,
                "ledger line {line} has schema_version {found}, this reader understands \
                 {SCHEMA_VERSION} only (lines of older schemas are archived under \
                 results/ledger/archive/)"
            ),
        }
    }
}

/// `Some(None)` for `null`, `Some(Some(v))` for an integer that fits a
/// `u64`, `None` for anything else.
fn nullable(value: &Value) -> Option<Option<u64>> {
    match value {
        Value::Null => Some(None),
        v => v.integer().map(Some),
    }
}

/// Parses one canonical ledger line back into a record.
///
/// # Errors
/// [`LedgerError::Schema`] on a foreign schema version;
/// [`LedgerError::Corrupt`] when the line is not JSON, a field is
/// missing/malformed, or the parsed record does not re-serialize to the
/// exact input bytes (which catches truncation and any in-place edit,
/// including a det/wall value flip that individual field parses would
/// miss).
pub fn parse_line(line: &str, line_no: usize) -> Result<LedgerRecord, LedgerError> {
    let corrupt = |reason: String| LedgerError::Corrupt { line: line_no, reason };
    let doc = json::parse(line).map_err(corrupt)?;
    // Each reader takes the member's path from the line's root. Values are
    // only checked for their JSON type here: whether they are the ones the
    // writer would have written is the round trip's job, below.
    let at = |path: &[&str]| {
        let found = path.iter().try_fold(&doc, |v, key| v.member(key));
        found.ok_or_else(|| corrupt(format!("missing {}", path.join("."))))
    };
    let bad = |path: &[&str]| corrupt(format!("malformed {}", path.join(".")));
    let int = |path: &[&str]| at(path)?.integer::<u64>().ok_or_else(|| bad(path));
    let text = |key: &str| {
        let value = at(&["det", key])?;
        value.string().map(str::to_string).ok_or_else(|| bad(&[key]))
    };
    let rss = ["wall", "peak_rss_bytes"];
    let peak_rss_bytes = nullable(at(&rss)?).ok_or_else(|| bad(&rss))?;
    let schema = int(&["schema_version"])?;
    if schema != u64::from(SCHEMA_VERSION) {
        return Err(LedgerError::Schema {
            line: line_no,
            found: schema,
        });
    }
    let kind = text("kind")?;
    if kind != "perf" {
        return Err(corrupt(format!(
            "det.kind is {kind:?}: the ledger holds `repro perf --bless` baselines only"
        )));
    }
    let mut fields = OpCounts::default().fields();
    for (name, value) in &mut fields {
        *value = int(&["det", "ops", name])?;
    }
    let record = LedgerRecord {
        git_rev: text("git_rev")?,
        scenario: text("scenario")?,
        n: int(&["det", "n"])?,
        mode: text("mode")?,
        seed: int(&["det", "seed"])?,
        events: int(&["det", "events"])?,
        ops: OpCounts::from_fields(&fields),
        costmodel: {
            let path = ["det", "artifacts", "costmodel"];
            let hash = at(&path)?.string().and_then(|h| u64::from_str_radix(h, 16).ok());
            hash.ok_or_else(|| bad(&path))?
        },
        wall: WallSide {
            wall_us: int(&["wall", "wall_us"])?,
            jobs: int(&["wall", "jobs"])?,
            peak_rss_bytes,
        },
    };
    // Canonical round-trip: a healthy line re-serializes byte-for-byte
    // (this also re-derives and thereby verifies det_hash and the
    // fingerprint, and requires the literal keys to hold their one
    // value). Anything else is corruption or truncation.
    if record.to_line() != line {
        return Err(corrupt(
            "record does not round-trip canonically (truncated or edited line)".to_string(),
        ));
    }
    Ok(record)
}

/// Reads and verifies the whole ledger. A missing file is an empty
/// ledger; an unreadable or corrupt one is a hard error.
///
/// # Errors
/// [`LedgerError::Io`] on filesystem failure, [`LedgerError::Corrupt`] /
/// [`LedgerError::Schema`] from [`parse_line`] — including a truncated
/// trailing line, which is reported (with its line number), not skipped.
pub fn read_ledger(path: &Path) -> Result<Vec<LedgerRecord>, LedgerError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(LedgerError::Io(format!("{}: {e}", path.display()))),
    };
    parse_ledger(&text)
}

/// [`read_ledger`] on in-memory text (the testable core).
///
/// # Errors
/// As [`read_ledger`], minus the io cases.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, LedgerError> {
    let mut records = Vec::new();
    let lines: Vec<&str> = text.split('\n').collect();
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            if i + 1 == lines.len() {
                break; // the normal trailing newline
            }
            return Err(LedgerError::Corrupt {
                line: i + 1,
                reason: "empty line inside the ledger".to_string(),
            });
        }
        records.push(parse_line(line, i + 1)?);
    }
    Ok(records)
}

/// The result of one [`append_records`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Records written as fresh lines.
    pub appended: usize,
    /// Records skipped because an identical `(fingerprint, git_rev,
    /// det_hash)` line already exists — a re-run of identical work.
    pub deduped: usize,
}

/// Appends `records` to the ledger at `path`, creating the file (and its
/// parent directory) on first use. Existing lines are never rewritten.
/// Records whose `(fingerprint, git_rev, det_hash)` already appears —
/// in the file or earlier in `records` — are deduplicated.
///
/// # Errors
/// Any [`LedgerError`] from reading the existing ledger (appending to a
/// corrupt ledger would bury the corruption) or from the write itself.
pub fn append_records(path: &Path, records: &[LedgerRecord]) -> Result<AppendOutcome, LedgerError> {
    let existing = read_ledger(path)?;
    let mut seen: BTreeSet<(u64, String, u64)> = existing
        .iter()
        .map(|r| (r.fingerprint(), r.git_rev.clone(), r.det_hash()))
        .collect();
    let mut outcome = AppendOutcome::default();
    let mut block = String::new();
    for record in records {
        let key = (record.fingerprint(), record.git_rev.clone(), record.det_hash());
        if seen.contains(&key) {
            outcome.deduped += 1;
            continue;
        }
        seen.insert(key);
        block.push_str(&record.to_line());
        block.push('\n');
        outcome.appended += 1;
    }
    if outcome.appended == 0 {
        return Ok(outcome);
    }
    crate::artifact::append(path, block.as_bytes())
        .map_err(|e| LedgerError::Io(format!("{}: {e}", path.display())))?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64, rev: &str) -> LedgerRecord {
        let ops = OpCounts {
            queue_pushes: 100 * n,
            deliveries: 10 * n,
            decision_runs: 5 * n,
            ..OpCounts::default()
        };
        LedgerRecord {
            git_rev: rev.to_string(),
            scenario: "BASELINE".to_string(),
            n,
            mode: "NO-WRATE".to_string(),
            seed: 7,
            events: 5,
            ops,
            costmodel: 0x1234_5678_9ABC_DEF0,
            wall: WallSide {
                wall_us: 1_234,
                jobs: 4,
                peak_rss_bytes: Some(20 << 20),
            },
        }
    }

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bgpscale_ledger_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("runs.jsonl")
    }

    #[test]
    fn line_round_trips_exactly() {
        let rec = sample(300, "deadbeef");
        let line = rec.to_line();
        assert!(line.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},\"det\":{{")));
        assert!(!line.contains('\n'));
        let parsed = parse_line(&line, 1).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(parsed.to_line(), line);
    }

    #[test]
    fn fingerprint_covers_config_but_not_wall_side() {
        let a = sample(300, "r1");
        let mut b = a.clone();
        b.wall.wall_us = 999_999;
        b.wall.jobs = 8;
        b.git_rev = "r2".to_string();
        assert_eq!(a.fingerprint(), b.fingerprint(), "wall side and rev excluded");
        let mut c = a.clone();
        c.n = 301;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.mode = "WRATE".to_string();
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = a.clone();
        e.seed = 8;
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn det_hash_ignores_wall_but_sees_every_det_field() {
        let a = sample(300, "r1");
        let mut b = a.clone();
        b.wall.peak_rss_bytes = None;
        assert_eq!(a.det_hash(), b.det_hash(), "wall side never hashed");
        let mut c = a.clone();
        c.ops.deliveries += 1;
        assert_ne!(a.det_hash(), c.det_hash());
        let mut d = a.clone();
        d.costmodel = 1;
        assert_ne!(a.det_hash(), d.det_hash());
        let mut e = a.clone();
        e.git_rev = "r2".to_string();
        assert_ne!(a.det_hash(), e.det_hash(), "rev is a det field");
    }

    #[test]
    fn append_then_read_preserves_order_and_content() {
        let path = tmpfile("roundtrip");
        std::fs::remove_file(&path).ok();
        let recs = vec![sample(300, "r1"), sample(600, "r1")];
        let out = append_records(&path, &recs).unwrap();
        assert_eq!(out, AppendOutcome { appended: 2, deduped: 0 });
        let more = vec![sample(300, "r2")];
        append_records(&path, &more).unwrap();
        let read = read_ledger(&path).unwrap();
        assert_eq!(read.len(), 3);
        assert_eq!(read[0], recs[0]);
        assert_eq!(read[1], recs[1]);
        assert_eq!(read[2], more[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identical_rerun_dedupes_instead_of_double_appending() {
        let path = tmpfile("dedupe");
        std::fs::remove_file(&path).ok();
        let rec = sample(300, "r1");
        append_records(&path, std::slice::from_ref(&rec)).unwrap();
        // Same config + rev + results, different wall numbers: dedupe.
        let mut rerun = rec.clone();
        rerun.wall.wall_us = 777;
        let out = append_records(&path, &[rerun]).unwrap();
        assert_eq!(out, AppendOutcome { appended: 0, deduped: 1 });
        // Same config + rev but drifted counts: a fresh line (the drift
        // is exactly what the history must show).
        let mut drifted = rec.clone();
        drifted.ops.deliveries += 1;
        let out = append_records(&path, &[drifted]).unwrap();
        assert_eq!(out, AppendOutcome { appended: 1, deduped: 0 });
        // New rev, identical results: a fresh line keyed to that rev.
        let mut newrev = rec.clone();
        newrev.git_rev = "r2".to_string();
        let out = append_records(&path, &[newrev]).unwrap();
        assert_eq!(out, AppendOutcome { appended: 1, deduped: 0 });
        assert_eq!(read_ledger(&path).unwrap().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dedupe_also_applies_within_one_batch() {
        let path = tmpfile("batch");
        std::fs::remove_file(&path).ok();
        let rec = sample(300, "r1");
        let out = append_records(&path, &[rec.clone(), rec]).unwrap();
        assert_eq!(out, AppendOutcome { appended: 1, deduped: 1 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_trailing_line_is_reported_not_skipped() {
        let a = sample(300, "r1").to_line();
        let b = sample(600, "r1").to_line();
        let mut text = format!("{a}\n{b}\n");
        text.truncate(text.len() - 20); // chop the tail of line 2
        match parse_ledger(&text) {
            Err(LedgerError::Corrupt { line: 2, .. }) => {}
            other => panic!("truncation must be Corrupt at line 2, got {other:?}"),
        }
    }

    #[test]
    fn edited_line_fails_the_canonical_round_trip() {
        let line = sample(300, "r1").to_line();
        for (from, to, named) in [
            // Flip one op-count digit without touching structure.
            ("\"queue_pushes\":30000", "\"queue_pushes\":30001", "round-trip"),
            // Not a baseline: older builds appended `profile` lines.
            ("\"kind\":\"perf\"", "\"kind\":\"profile\"", "det.kind is \"profile\""),
        ] {
            let edited = line.replacen(from, to, 1);
            assert_ne!(line, edited, "test must actually edit the line");
            match parse_line(&edited, 1) {
                Err(LedgerError::Corrupt { reason, .. }) if reason.contains(named) => {}
                other => panic!("{to}: must be Corrupt naming {named:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn foreign_schema_version_is_rejected() {
        // Older schemas are refused like newer ones: their lines live in
        // the archive, which no code reads.
        let line = sample(300, "r1").to_line();
        for found in [1, 2, 999] {
            let stamped = line.replacen(
                &format!("\"schema_version\":{SCHEMA_VERSION}"),
                &format!("\"schema_version\":{found}"),
                1,
            );
            match parse_line(&stamped, 3) {
                Err(LedgerError::Schema { line: 3, found: f }) if f == found => {}
                other => panic!("schema {found} must be Schema, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_file_reads_as_empty_and_blank_interior_line_is_corrupt() {
        let path = tmpfile("missing");
        std::fs::remove_file(&path).ok();
        assert_eq!(read_ledger(&path).unwrap(), Vec::new());
        let a = sample(300, "r1").to_line();
        let text = format!("{a}\n\n{a}\n");
        match parse_ledger(&text) {
            Err(LedgerError::Corrupt { line: 2, .. }) => {}
            other => panic!("blank interior line must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_with_position_and_advice() {
        let e = LedgerError::Corrupt {
            line: 7,
            reason: "truncated".to_string(),
        };
        assert!(e.to_string().contains("line 7"));
        let s = LedgerError::Schema { line: 1, found: 2 };
        let text = s.to_string();
        assert!(text.contains("schema_version 2"), "{text}");
        assert!(text.contains(&format!("understands {SCHEMA_VERSION} only")), "{text}");
        assert!(text.contains("results/ledger/archive/"), "{text}");
    }
}
