//! `--fixtures`: the analyzer's self-test over seeded-bad trees.
//!
//! Each of [`CASES`] is a subdirectory of the fixtures root: a miniature
//! workspace with its own [`Config`]. Expected
//! findings are marked in-band, rustc-style, by a `//~ rule-id` trailing
//! the anchor line in a scanned `.rs` file; a marker may list several
//! space-separated rule ids. The self-test
//! runs the full analyzer over each case and demands **exact (file, line,
//! rule) set equality in both directions**: a rule that fails to fire
//! where marked is a missed detection (a span drift counts), a finding
//! without a marker is a false positive, and either direction fails the
//! run. Cases with no markers are the clean ones: idiomatic code and
//! audited allows that must produce nothing.
//!
//! Fixtures are never compiled; they are analyzer input only, which lets
//! them seed hazards (`getrandom`, stray `Instant::now`) without
//! dragging those patterns anywhere near the build.

use std::collections::BTreeSet;
use std::path::Path;

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

/// The fixture cases: subdirectory name and tier map.
pub const CASES: [(&str, Config); 2] = [
    // The clean case: the same shapes as `graph/` but compliant — an
    // audited wall-side crossing, an audited hot-path panic, a stamped
    // writer, a binary on the shared exit convention, and hazard names in
    // comments, strings and a test block. `wall/` is inside the
    // deterministic tier here, so its `SystemTime` read also proves a
    // wall-side module is fenced, never an entry point. Zero findings
    // expected: any diagnostic in this case is a false positive and fails
    // the self-test in the other direction.
    (
        "clean",
        Config {
            deterministic: &["det", "wall"],
            ..GRAPH
        },
    ),
    ("graph", GRAPH),
];

/// The seeded-bad graph case: at least one violation per graph pass,
/// each marked with a trailing `//~ rule-id` on its exact anchor line.
/// The det-closure crossings are the ones a token-level ban cannot
/// attribute to the deterministic tier: wall-clock reads two calls away
/// in `util/`, and the sanctioned `Stopwatch` of the wall-side module
/// (`wall/`), which clippy allows. `det/direct.rs` adds the env and
/// entropy reads det-closure knows by name.
const GRAPH: Config = Config {
    include: &["det", "util", "wall", "io"],
    exclude: &[],
    deterministic: &["det"],
    wall_side: &["wall::clock"],
    hot_roots: &["det::hot::step"],
    exit_constants: &[&["EXIT_OK"], &["EXIT_FAIL"]],
};

/// Runs every fixture case under `fixroot`.
pub fn run(fixroot: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    for (name, cfg) in &CASES {
        let dir = fixroot.join(name);
        if !dir.is_dir() {
            return Err(format!("fixture case {} is missing", dir.display()));
        }
        let analysis = crate::analyze(&dir, cfg)?;
        let got: BTreeSet<Anchor> = analysis
            .findings
            .iter()
            .map(|d| (d.file.clone(), d.line, d.rule))
            .collect();
        let mut expected = BTreeSet::new();
        for rel in &analysis.files {
            let text = std::fs::read_to_string(dir.join(rel))
                .map_err(|e| format!("cannot read {rel}: {e}"))?;
            collect_markers(rel, &text, &mut expected)?;
        }
        report.cases.push(CaseResult {
            name: name.to_string(),
            missed: expected.difference(&got).cloned().collect(),
            unexpected: got.difference(&expected).cloned().collect(),
            confirmed: expected.intersection(&got).count(),
        });
    }
    Ok(report)
}

/// Extracts the `//~ rule [rule…]` markers of one file.
fn collect_markers(rel: &str, text: &str, out: &mut BTreeSet<Anchor>) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        let Some((_, ids)) = line.split_once("//~") else {
            continue;
        };
        for id in ids.split_whitespace() {
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
