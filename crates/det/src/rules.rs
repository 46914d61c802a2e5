//! The rule set: identifiers, line-rule token patterns, and messages.
//!
//! **Line rules** are matched against the stripped token stream of each
//! line (comments and string literals removed by [`crate::lex`]), so a
//! rule token appearing in documentation or in a string never fires. A
//! pattern is a sequence of exact tokens; identifiers only match whole
//! identifiers (`thread` never matches `a_thread`), and `::` is a single
//! token. **Graph rules** are the call-graph passes of [`crate::passes`];
//! they have no patterns and build their messages per finding.

use crate::config::Config;
use crate::report::Finding;
use crate::source::{Ledger, SourceFile};

/// One determinism rule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// Wall-clock reads (`Instant`, `SystemTime`, the sanctioned
    /// `Stopwatch` wrapper, or the `wallclock` module) in a deterministic
    /// crate.
    WallClock,
    /// Ad-hoc threading (`thread::spawn` / `thread::scope` /
    /// `thread::Builder`) outside `simkernel::pool`.
    ThreadSpawn,
    /// `HashMap` / `HashSet`: iteration order is unspecified and can leak
    /// into fold order.
    UnorderedCollection,
    /// Randomness that is not the seeded `simkernel::rng` PRNG.
    UnseededRandom,
    /// Environment reads on a deterministic path.
    EnvRead,
    /// `f32` / `f64` in a file declared integer-only (churn/metrics
    /// counters).
    FloatAccum,
    /// The deterministic closure reached a wall-side module or API.
    DetClosure,
    /// A panic source is reachable from a hot-path root.
    PanicSurface,
    /// An artifact writer misses the schema stamp or exit convention.
    ArtifactContract,
    /// `clippy.toml` lacks a ban `det.toml` requires of it.
    ConfigCoherence,
    /// A `det::allow` comment that suppressed nothing.
    StaleAllow,
    /// A `det::allow` comment that does not parse (unknown rule or
    /// missing `reason = "..."`).
    BadAllow,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 12] = [
        Rule::WallClock,
        Rule::ThreadSpawn,
        Rule::UnorderedCollection,
        Rule::UnseededRandom,
        Rule::EnvRead,
        Rule::FloatAccum,
        Rule::DetClosure,
        Rule::PanicSurface,
        Rule::ArtifactContract,
        Rule::ConfigCoherence,
        Rule::StaleAllow,
        Rule::BadAllow,
    ];

    /// The rules that scan token patterns.
    pub const LINE_RULES: [Rule; 6] = [
        Rule::WallClock,
        Rule::ThreadSpawn,
        Rule::UnorderedCollection,
        Rule::UnseededRandom,
        Rule::EnvRead,
        Rule::FloatAccum,
    ];

    /// The kebab-case identifier used in allow comments, fixture
    /// markers, and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::UnorderedCollection => "unordered-collection",
            Rule::UnseededRandom => "unseeded-random",
            Rule::EnvRead => "env-read",
            Rule::FloatAccum => "float-accum",
            Rule::DetClosure => "det-closure",
            Rule::PanicSurface => "panic-surface",
            Rule::ArtifactContract => "artifact-contract",
            Rule::ConfigCoherence => "config-coherence",
            Rule::StaleAllow => "stale-allow",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule identifier.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Token sequences that fire this rule. Empty for everything but the
    /// line rules.
    pub fn patterns(self) -> &'static [&'static [&'static str]] {
        match self {
            Rule::WallClock => &[
                &["Instant"],
                &["SystemTime"],
                &["UNIX_EPOCH"],
                &["Stopwatch"],
                &["wallclock"],
            ],
            Rule::ThreadSpawn => &[
                &["thread", "::", "spawn"],
                &["thread", "::", "scope"],
                &["thread", "::", "Builder"],
            ],
            Rule::UnorderedCollection => {
                &[&["HashMap"], &["HashSet"], &["hash_map"], &["hash_set"]]
            }
            Rule::UnseededRandom => &[
                &["thread_rng"],
                &["from_entropy"],
                &["RandomState"],
                &["OsRng"],
                &["getrandom"],
                &["rand", "::", "random"],
            ],
            Rule::EnvRead => &[
                &["env", "::", "var"],
                &["env", "::", "var_os"],
                &["env", "::", "vars"],
            ],
            Rule::FloatAccum => &[&["f32"], &["f64"]],
            _ => &[],
        }
    }

    /// What the rule demands: the message of every line-rule and
    /// allow-hygiene finding, and the `--list-rules` table entry of the
    /// graph rules (whose findings carry a message built per site).
    pub fn explanation(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock read in a deterministic crate; simulated time must come from \
                 simkernel::SimTime (profiling belongs in the sanctioned wallclock/span modules)"
            }
            Rule::ThreadSpawn => {
                "ad-hoc threading in a deterministic crate; all fan-out must go through \
                 simkernel::pool, whose index-ordered joins keep results schedule-independent"
            }
            Rule::UnorderedCollection => {
                "HashMap/HashSet iteration order is unspecified and can leak into fold order; \
                 use BTreeMap/BTreeSet or sort before folding"
            }
            Rule::UnseededRandom => {
                "nondeterministic randomness source; the only sanctioned PRNG is the seeded \
                 simkernel::rng family"
            }
            Rule::EnvRead => {
                "environment read on a deterministic path; a run must be a pure function of \
                 explicit config + seed"
            }
            Rule::FloatAccum => {
                "float in an integer-only counter file; float accumulation is order-sensitive \
                 and breaks byte-identical merges — keep counters integral and derive ratios \
                 at render time behind an audited allow"
            }
            Rule::DetClosure => {
                "no call path from a deterministic-tier pub fn may reach a wall-side \
                 module or external wall/env API"
            }
            Rule::PanicSurface => {
                "functions reachable from the hot-path roots must not unwrap/expect/\
                 panic!/slice-index without an audited invariant"
            }
            Rule::ArtifactContract => {
                "file writers must flow through the schema stamp; artifact-writing \
                 binaries must use the shared exit constants"
            }
            Rule::ConfigCoherence => {
                "every `[clippy] required` path of det.toml must be banned in clippy.toml"
            }
            Rule::StaleAllow => {
                "this det::allow suppressed nothing; remove it or move it onto the line or \
                 declaration it audits"
            }
            Rule::BadAllow => "malformed det::allow; expected det::allow(<rule>, reason = \"...\")",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Runs the line rules over one lexed file: a pattern hit covered by a
/// same-rule allow marks that allow used in the ledger, anything else
/// becomes a finding anchored at the token's line and column.
pub fn check_lines(file: &SourceFile, cfg: &Config, ledger: &mut Ledger, out: &mut Vec<Finding>) {
    let deterministic = cfg.is_deterministic(&file.rel);
    let integer_only = cfg.is_integer_only(&file.rel);
    let active: Vec<Rule> = Rule::LINE_RULES
        .into_iter()
        .filter(|&rule| match rule {
            Rule::FloatAccum => integer_only,
            _ => deterministic && !cfg.is_exempt(&file.rel, rule),
        })
        .collect();
    for line in &file.lines {
        for &rule in &active {
            for pattern in rule.patterns() {
                for (start, window) in line.tokens.windows(pattern.len()).enumerate() {
                    if !pattern
                        .iter()
                        .zip(window)
                        .all(|(want, tok)| tok.text == *want)
                    {
                        continue;
                    }
                    if !ledger.covered(&file.rel, line.line, rule) {
                        out.push(Finding {
                            rule,
                            file: file.rel.clone(),
                            line: line.line,
                            column: line.tokens[start].col + 1,
                            message: rule.explanation().to_string(),
                            snippet: line.raw.trim().to_string(),
                            witness: Vec::new(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_cfg() -> Config {
        Config {
            deterministic: vec!["det".to_string()],
            integer_only: vec!["det/counters.rs".to_string()],
            ..Default::default()
        }
    }

    /// `(rule, line, column)` of the line-rule findings plus the ledger's
    /// verdict on the file's allows, sorted and deduplicated the way
    /// [`crate::analyze`] does it.
    fn scan(rel: &str, src: &str) -> (Vec<(Rule, usize, usize)>, Vec<crate::AllowRecord>) {
        let file = SourceFile::lex(rel, src);
        let mut ledger = Ledger::new(std::slice::from_ref(&file));
        let mut findings = Vec::new();
        check_lines(&file, &det_cfg(), &mut ledger, &mut findings);
        let allows = ledger.finish(&mut findings);
        crate::report::sort_findings(&mut findings);
        (
            findings
                .into_iter()
                .map(|f| (f.rule, f.line, f.column))
                .collect(),
            allows,
        )
    }

    fn diags(rel: &str, src: &str) -> Vec<(Rule, usize, usize)> {
        scan(rel, src).0
    }

    #[test]
    fn ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn exactly_the_line_rules_have_patterns() {
        for r in Rule::ALL {
            assert_eq!(
                !r.patterns().is_empty(),
                Rule::LINE_RULES.contains(&r),
                "{r}"
            );
        }
    }

    #[test]
    fn hazards_fire_only_in_tier() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(diags("det/a.rs", src), [(Rule::UnorderedCollection, 1, 23)]);
        assert_eq!(diags("other/a.rs", src), []);
    }

    #[test]
    fn comments_strings_and_tests_do_not_fire() {
        let src = "\
// HashMap in a comment\n\
/* Instant::now() */\n\
fn f() { let s = \"SystemTime\"; }\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashSet;\n\
}\n";
        assert_eq!(diags("det/a.rs", src), []);
    }

    #[test]
    fn trailing_allow_suppresses_and_is_counted() {
        let src = "use std::collections::HashMap; \
                   // det::allow(unordered-collection, reason = \"lookup only\")\n";
        let (d, a) = scan("det/a.rs", src);
        assert!(d.is_empty());
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rule, Rule::UnorderedCollection);
        assert_eq!(a[0].reason, "lookup only");
    }

    #[test]
    fn preceding_line_allow_covers_next_code_line() {
        let src = "// det::allow(wall-clock, reason = \"sanctioned re-export\")\n\
                   pub use wallclock::Stopwatch;\n";
        let (d, a) = scan("det/a.rs", src);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].line, 1);
    }

    #[test]
    fn unused_allow_is_stale_even_at_end_of_file() {
        let src = "// det::allow(wall-clock, reason = \"nothing here\")\n\
                   fn fine() {}\n\
                   // det::allow(env-read, reason = \"no code line follows\")\n";
        assert_eq!(
            diags("det/a.rs", src),
            [(Rule::StaleAllow, 1, 0), (Rule::StaleAllow, 3, 0)]
        );
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "fn f() {} // det::allow(env-read)\n";
        assert_eq!(diags("det/a.rs", src), [(Rule::BadAllow, 1, 0)]);
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "use std::collections::HashMap; \
                   // det::allow(wall-clock, reason = \"wrong rule\")\n";
        assert_eq!(
            diags("det/a.rs", src),
            [(Rule::UnorderedCollection, 1, 23), (Rule::StaleAllow, 1, 0)]
        );
    }

    #[test]
    fn float_accum_only_in_integer_only_files() {
        let src = "pub fn mean(sum: u64, n: u64) -> f64 { sum as f64 / n as f64 }\n";
        assert_eq!(diags("det/a.rs", src), []);
        // Three `f64` tokens on the line collapse to one finding.
        assert_eq!(diags("det/counters.rs", src), [(Rule::FloatAccum, 1, 34)]);
    }

    #[test]
    fn multi_token_paths_match() {
        let src = "fn go() { std::thread::spawn(|| {}); }\n";
        assert_eq!(diags("det/a.rs", src), [(Rule::ThreadSpawn, 1, 16)]);
        let src2 = "fn go() { std::env::var(\"HOME\").ok(); }\n";
        assert_eq!(diags("det/a.rs", src2), [(Rule::EnvRead, 1, 16)]);
    }

    #[test]
    fn identifier_boundaries_are_respected() {
        assert_eq!(
            diags("det/a.rs", "let my_thread = a_thread::spawned();\n"),
            []
        );
        assert_eq!(diags("det/a.rs", "let hashmaplike = 1;\n"), []);
    }
}
