//! # bgpscale-det
//!
//! The workspace **determinism analyzer**: one zero-dependency static
//! checker, reading one checked-in [`det.toml`](config), that guards the
//! bit-identical-replay contract of the `bgpscale` simulator.
//!
//! The paper's churn measurements (Eq. 1's `U(X) = Σ m·q·e` decomposition,
//! the Fig. 1 trends) are trustworthy because the harness promises
//! byte-identical `ChurnReport` / `metrics.json` / `timeseries.json` for
//! *any* `--jobs` value. Runtime regression tests sample that contract at
//! jobs = 1/4/8; `det` enforces it **statically**, rejecting hazard
//! patterns before they ever reach a run.
//!
//! **Line rules** answer "does this *line*, in a deterministic file, hold
//! a hazard token?":
//!
//! | rule | rejects | in |
//! |------|---------|----|
//! | `wall-clock` | `Instant`, `SystemTime`, `Stopwatch`, `wallclock` | deterministic crates |
//! | `thread-spawn` | `thread::spawn` / `thread::scope` / `thread::Builder` outside `simkernel::pool` | deterministic crates |
//! | `unordered-collection` | `HashMap` / `HashSet` (unspecified iteration order) | deterministic crates |
//! | `unseeded-random` | `thread_rng`, `from_entropy`, `RandomState`, `OsRng`, `rand::random`, `getrandom` | deterministic crates |
//! | `env-read` | `env::var` / `env::var_os` / `env::vars` | deterministic crates |
//! | `float-accum` | `f32` / `f64` | integer-only counter files |
//!
//! That leaves a blind spot the size of a function call: a deterministic
//! crate can call a helper in a *non*-deterministic crate that reads the
//! wall clock, and no line in the deterministic tier ever holds a banned
//! token. The **graph rules** close it by extracting a conservative
//! item/call graph of the same lexed files and running reachability
//! passes over it:
//!
//! | rule | guarantees |
//! |------|------------|
//! | `det-closure` | no call path from a deterministic-tier `pub fn` reaches a wall-side module (`simkernel::wallclock`/`rss`/`alloc`, `obs::span`) or external wall/env API, except through an audited crossing |
//! | `panic-surface` | every function reachable from the hot-path roots (`run_c_event`, `BgpNode::receive`/`mrai_flush`, the event-queue push/pop) is free of `unwrap`/`expect`/`panic!`/slice-indexing, or carries an audited invariant |
//! | `artifact-contract` | every file-writing function flows through the `SCHEMA_VERSION` stamp, and every artifact-writing binary uses the shared 0/1/2 exit constants |
//! | `config-coherence` | every `[clippy] required` path is banned in `clippy.toml` |
//!
//! plus `stale-allow` / `bad-allow` hygiene for the one audited
//! suppression syntax every rule shares, which the tool counts and
//! reports:
//!
//! ```text
//! std::env::var("BGPSCALE_LOG") // det::allow(env-read, reason = "log level, never enters artifacts")
//! ```
//!
//! One pass does it all ([`analyze`]): one walk, one lex per file
//! ([`source`], [`lex`]), the line rules on every file ([`rules`]), item
//! extraction and the call graph on the files outside `tests`/`benches`/
//! `examples` directories ([`items`], [`graph`]), the passes
//! ([`passes`]), one allow ledger, one [`Finding`] type with one human
//! and one JSON rendering ([`report`]).
//!
//! Lexing is line-oriented but state-tracking: block comments (nested),
//! multi-line string literals (plain and raw), char-literal/lifetime
//! disambiguation, and `#[cfg(test)]` module skipping are all handled so
//! that rule tokens in comments, strings, and unit tests never produce
//! false positives. The extractor is scope-tracking, not parsing, with
//! deliberate over-approximation (ambiguous method calls fan out to every
//! workspace impl of that name; `macro_rules!` bodies are opaque;
//! unresolved calls stay as external edges). A spurious edge costs an
//! audited allow — a missed edge would cost a silent hazard, so the trade
//! always goes the same way.
//!
//! The binary (`cargo run -p bgpscale-det -- --check`) exits with the
//! workspace-wide convention shared with `repro … --check`: `0` = clean,
//! `1` = violations found, `2` = usage/config error; `--json` reports are
//! byte-deterministic, and `--fixtures` runs the seeded-bad self-test
//! where **both** missed detections and false positives fail. See
//! `docs/ARCHITECTURE.md` § "Static determinism guarantees".

#![forbid(unsafe_code)]

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
/// very binary). 2: the merged line-rule + graph-rule report.
pub const SCHEMA_VERSION: u32 = 2;

/// Exit code: the analysis found no violations.
pub const EXIT_OK: i32 = 0;
/// Exit code: violations (or fixture self-test failures) were found.
pub const EXIT_VIOLATIONS: i32 = 1;
/// Exit code: bad command line, unreadable root, or invalid config.
pub const EXIT_USAGE: i32 = 2;

/// Analyzes the tree under `root` as `cfg` describes it: lexes every
/// file once, runs the line rules on all of them and the graph passes on
/// the call graph of the non-test files, reconciles `clippy.toml`, and
/// closes the allow ledger.
pub fn analyze(root: &Path, cfg: &Config) -> Result<Analysis, String> {
    let sources = source::load_tree(root, cfg)?;
    let mut ledger = source::Ledger::new(&sources);
    let mut findings = Vec::new();

    for file in &sources {
        rules::check_lines(file, cfg, &mut ledger, &mut findings);
    }

    let needles = items::Needles {
        stamp: cfg.stamp.clone(),
        exits: cfg.exit_alternatives(),
    };
    let parsed: Vec<items::FileItems> = sources
        .iter()
        .filter(|f| f.in_graph())
        .map(|f| items::extract(f, &needles))
        .collect();
    let graph = graph::Graph::build(&parsed, cfg);
    let stats = passes::run_graph_passes(cfg, &graph, &mut ledger, &mut findings);
    passes::check_clippy(root, cfg, &mut findings);

    let allows = ledger.finish(&mut findings);
    report::sort_findings(&mut findings);
    let tier = |f: &&source::SourceFile| cfg.is_deterministic(&f.rel);
    let integer_only = |f: &&source::SourceFile| cfg.is_integer_only(&f.rel);
    Ok(Analysis {
        deterministic_files: sources.iter().filter(tier).count(),
        integer_only_files: sources.iter().filter(integer_only).count(),
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
