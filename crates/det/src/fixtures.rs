//! `--fixtures`: the analyzer's self-test over seeded-bad trees.
//!
//! Each immediate subdirectory of the fixtures root holding a `det.toml`
//! is one **case**: a miniature workspace with its own config. Expected
//! findings are marked in-band, rustc-style —
//!
//! * `//~ rule-id` trailing a line in a scanned `.rs` file,
//! * `#~ rule-id` trailing a line in the case's `det.toml` or
//!   `clippy.toml` (coherence findings anchor in config files),
//!
//! and a marker may list several space-separated rule ids. The self-test
//! runs the full analyzer over each case and demands **exact (file, line,
//! rule) set equality in both directions**: a rule that fails to fire
//! where marked is a missed detection (a span drift counts), a finding
//! without a marker is a false positive, and either direction fails the
//! run. Cases with no markers are the clean ones: idiomatic code and
//! audited allows that must produce nothing.
//!
//! Fixtures are never compiled; they are analyzer input only, which lets
//! them seed hazards (`thread_rng`, stray `Instant::now`) without
//! dragging those patterns anywhere near the build.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::Rule;

/// A `(file, line, rule)` anchor.
type Anchor = (String, usize, Rule);

/// One fixture case's outcome.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Subdirectory name.
    pub name: String,
    /// Markers present but not reported: missed detections.
    pub missed: Vec<Anchor>,
    /// Findings without a marker: false positives.
    pub unexpected: Vec<Anchor>,
    /// Markers confirmed by a finding.
    pub confirmed: usize,
}

impl CaseResult {
    pub fn ok(&self) -> bool {
        self.missed.is_empty() && self.unexpected.is_empty()
    }
}

/// The whole self-test run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub cases: Vec<CaseResult>,
}

impl Report {
    pub fn ok(&self) -> bool {
        !self.cases.is_empty() && self.cases.iter().all(CaseResult::ok)
    }

    /// Total confirmed markers across cases.
    pub fn confirmed(&self) -> usize {
        self.cases.iter().map(|c| c.confirmed).sum()
    }
}

/// Runs every fixture case under `fixroot`.
pub fn run(fixroot: &Path) -> Result<Report, String> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(fixroot)
        .and_then(|it| it.collect::<Result<Vec<_>, _>>())
        .map_err(|e| format!("cannot read {}: {e}", fixroot.display()))?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.join("det.toml").is_file())
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        return Err(format!(
            "no fixture cases (subdirectories with a det.toml) under {}",
            fixroot.display()
        ));
    }
    let mut report = Report::default();
    for dir in dirs {
        let cfg = Config::load(&dir.join("det.toml"))?;
        let analysis = crate::analyze(&dir, &cfg)?;
        let got: BTreeSet<Anchor> = analysis
            .findings
            .iter()
            .map(|d| (d.file.clone(), d.line, d.rule))
            .collect();
        let mut expected = BTreeSet::new();
        let marked = analysis.files.iter().map(String::as_str);
        for rel in marked.chain(["det.toml", "clippy.toml"]) {
            // Only the config files may be absent.
            if let Ok(text) = std::fs::read_to_string(dir.join(rel)) {
                collect_markers(rel, &text, &mut expected)?;
            }
        }
        report.cases.push(CaseResult {
            name: dir
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string(),
            missed: expected.difference(&got).cloned().collect(),
            unexpected: got.difference(&expected).cloned().collect(),
            confirmed: expected.intersection(&got).count(),
        });
    }
    Ok(report)
}

/// Extracts the `//~ rule [rule…]` (`#~` in `.toml`) markers of one file.
fn collect_markers(rel: &str, text: &str, out: &mut BTreeSet<Anchor>) -> Result<(), String> {
    let marker = if rel.ends_with(".toml") { "#~" } else { "//~" };
    for (idx, line) in text.lines().enumerate() {
        let Some(pos) = line.find(marker) else {
            continue;
        };
        for id in line[pos + marker.len()..].split_whitespace() {
            let rule = Rule::from_id(id).ok_or_else(|| {
                format!("{rel}:{}: unknown rule `{id}` in fixture marker", idx + 1)
            })?;
            out.insert((rel.to_string(), idx + 1, rule));
        }
    }
    Ok(())
}

/// Renders the self-test outcome.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for case in &report.cases {
        let verdict = if case.ok() { "ok" } else { "FAIL" };
        out.push_str(&format!(
            "fixture case `{}`: {} ({} marker(s) confirmed)\n",
            case.name, verdict, case.confirmed
        ));
        for (f, l, r) in &case.missed {
            out.push_str(&format!("  MISSED: expected [{r}] at {f}:{l}\n"));
        }
        for (f, l, r) in &case.unexpected {
            out.push_str(&format!("  FALSE POSITIVE: unexpected [{r}] at {f}:{l}\n"));
        }
    }
    out.push_str(&format!(
        "det --fixtures: {} ({} marker(s) confirmed across {} case(s))\n",
        if report.ok() { "PASS" } else { "FAIL" },
        report.confirmed(),
        report.cases.len()
    ));
    out
}
