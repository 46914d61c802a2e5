//! # bgpscale-det
//!
//! The workspace **determinism analyzer**: one zero-dependency static
//! checker, whose tier map is code ([`Config::WORKSPACE`]), that guards
//! the bit-identical-replay contract of the `bgpscale` simulator.
//!
//! The paper's churn measurements (Eq. 1's `U(X) = Σ m·q·e` decomposition,
//! the Fig. 1 trends) are trustworthy because the harness promises
//! byte-identical `ChurnReport` / `metrics.json` / `timeseries.json` for
//! *any* `--jobs` value. Runtime regression tests sample that contract at
//! jobs = 1/4/8; the static checks reject hazards before they reach a run.
//!
//! Hazards a token can name are clippy's: `clippy.toml` bans unordered
//! collections, `RandomState`, host-clock reads, ad-hoc threads and env
//! reads in every crate and target, and the integer-only counter files
//! deny float arithmetic. That leaves a blind spot the size of a function
//! call: a deterministic crate can call the sanctioned `Stopwatch`, or a
//! helper in another crate that reads the wall clock, and no banned token
//! is ever written there. det closes it by extracting a conservative
//! item/call graph of the workspace and running the reachability passes
//! of [`passes`] over it — `det-closure`, `panic-surface` and
//! `artifact-contract` — plus `stale-allow` / `bad-allow` hygiene for the
//! audited suppression syntax they share, which the tool counts and
//! reports:
//!
//! ```text
//! std::env::var("BGPSCALE_LOG") // det::allow(det-closure, reason = "log level, never enters artifacts")
//! ```
//!
//! One pass does it all ([`analyze`]): one walk, one lex per file
//! ([`source`], [`lex`]), item extraction and the call graph on the files
//! outside `tests`/`benches`/`examples` directories ([`items`],
//! [`graph`]), the passes ([`passes`]), one allow ledger, one [`Finding`]
//! type with one human and one JSON rendering ([`report`]).
//!
//! Lexing is line-oriented but state-tracking: block comments (nested),
//! multi-line string literals (plain and raw), char-literal/lifetime
//! disambiguation, and `#[cfg(test)]` module skipping are all handled so
//! that calls named in comments, strings, and unit tests never become
//! edges. The extractor is scope-tracking, not parsing, with
//! deliberate over-approximation (ambiguous method calls fan out to every
//! workspace impl of that name; `macro_rules!` bodies are opaque;
//! unresolved calls stay as external edges). A spurious edge costs an
//! audited allow — a missed edge would cost a silent hazard, so the trade
//! always goes the same way.
//!
//! The binary (`cargo run -p bgpscale-det -- --check`) exits with the
//! workspace-wide convention shared with `repro … --check`: `0` = clean,
//! `1` = violations found, `2` = usage error; `--json` reports are
//! byte-deterministic, and `--fixtures` runs the seeded-bad self-test
//! where **both** missed detections and false positives fail. See
//! `docs/ARCHITECTURE.md` § "Static determinism guarantees".

#![forbid(unsafe_code)]
// Graph indices and line numbers only: no float anywhere in the analyzer.
#![deny(clippy::float_arithmetic)]

use std::path::Path;

pub mod config;
pub mod fixtures;
pub mod graph;
pub mod items;
pub mod lex;
pub mod passes;
pub mod report;
pub mod rules;
pub mod source;

pub use config::Config;
pub use report::{AllowRecord, Analysis, Finding};
pub use rules::Rule;

/// Schema version stamped into `det --json` reports, per the workspace
/// artifact contract (which the artifact-contract pass enforces on this
/// very binary). 2: the merged line-rule + graph-rule report. 3: the line
/// rules moved to clippy, so findings lose `column` and `snippet` and the
/// summary loses `integer_only_files`.
pub const SCHEMA_VERSION: u32 = 3;

/// The identifier the artifact-contract pass requires in the call
/// closure of every file-writing function: the workspace's schema
/// stamp.
pub const ARTIFACT_STAMP: &str = "SCHEMA_VERSION";

/// Exit code: the analysis found no violations.
pub const EXIT_OK: i32 = 0;
/// Exit code: violations (or fixture self-test failures) were found.
pub const EXIT_VIOLATIONS: i32 = 1;
/// Exit code: bad command line or unreadable root.
pub const EXIT_USAGE: i32 = 2;

/// Analyzes the tree under `root` as `cfg` describes it: lexes every
/// file once, runs the graph passes on the call graph of the non-test
/// files, and closes the allow ledger.
pub fn analyze(root: &Path, cfg: &Config) -> Result<Analysis, String> {
    let sources = source::load_tree(root, cfg)?;
    let mut ledger = source::Ledger::new(&sources);
    let mut findings = Vec::new();

    let needles = items::Needles {
        exits: cfg.exit_constants,
    };
    let parsed: Vec<items::FileItems> = sources
        .iter()
        .filter(|f| f.in_graph())
        .map(|f| items::extract(f, &needles))
        .collect();
    let graph = graph::Graph::build(&parsed);
    let stats = passes::run_graph_passes(cfg, &graph, &mut ledger, &mut findings);

    let allows = ledger.finish(&mut findings);
    report::sort_findings(&mut findings);
    let tier = |f: &&source::SourceFile| cfg.is_deterministic(&f.rel);
    Ok(Analysis {
        deterministic_files: sources.iter().filter(tier).count(),
        graph_files: parsed.len(),
        functions: graph.nodes.len(),
        edges: graph.edge_count(),
        entry_points: stats.entry_points,
        hot_roots: stats.hot_roots,
        writers: stats.writers,
        files: sources.into_iter().map(|f| f.rel).collect(),
        findings,
        allows,
    })
}
