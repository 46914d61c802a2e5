//! The one pass over the tree: directory walk, one read and one lex per
//! file, and the allow ledger every rule suppresses through.
//!
//! Per file, [`SourceFile::lex`]:
//!
//! 1. strips each line with [`crate::lex`], skipping `#[cfg(test)]`
//!    blocks by brace tracking (unit tests are exercised by `cargo test`,
//!    not replayed — hazards there cannot break artifacts);
//! 2. keeps every remaining code line as tokens plus its raw text — the
//!    input of item extraction;
//! 3. collects `// det::allow(rule, reason = "...")` directives: a
//!    trailing comment covers its own line, a comment-only line covers
//!    the next code line.
//!
//! Files are lexed in sorted path order, so everything downstream is
//! deterministic by construction.

use std::path::Path;

use crate::config::Config;
use crate::lex::{parse_allow, tokenize, Lexer};
use crate::report::{AllowRecord, Finding};
use crate::Rule;

/// Directory names whose files are scanned for allows but stay out of
/// the call graph: test, bench and example trees are exercised by cargo,
/// not replayed, and would flood the graph with fixture items.
const OFF_GRAPH_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// One retained (non-test, non-blank) code line.
#[derive(Clone, Debug)]
pub struct CodeLine {
    /// 1-based line number.
    pub line: usize,
    /// Tokens of the stripped code.
    pub tokens: Vec<String>,
    /// The original line.
    pub raw: String,
    /// 0-based char column where a trailing `//` comment starts, if any.
    pub comment_col: Option<usize>,
}

/// One `det::allow` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    pub rule: Rule,
    pub reason: String,
    /// 1-based line of the comment itself.
    pub decl_line: usize,
    /// 1-based line the allow covers (next code line for a comment-only
    /// line, the line itself for a trailing comment); 0 when no code
    /// line follows, so the allow can only be stale.
    pub covers_line: usize,
}

/// One file, read and lexed once.
#[derive(Clone, Debug, Default)]
pub struct SourceFile {
    /// Path relative to the scan root, `/`-separated.
    pub rel: String,
    pub lines: Vec<CodeLine>,
    pub allows: Vec<Allow>,
    /// Lines holding malformed `det::allow` directives.
    pub bad_allows: Vec<usize>,
}

impl SourceFile {
    /// Lexes one file's text.
    pub fn lex(rel: &str, text: &str) -> SourceFile {
        let mut out = SourceFile {
            rel: rel.to_string(),
            ..SourceFile::default()
        };
        let mut lexer = Lexer::default();
        // Allows waiting for the code line they cover.
        let mut carried: Vec<Allow> = Vec::new();
        let mut depth: usize = 0;
        let mut skip_above: Option<usize> = None;
        let mut cfg_test_pending = false;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = lexer.strip_line(raw);
            let opens = line.code.matches('{').count();
            let closes = line.code.matches('}').count();
            let depth_before = depth;
            depth = (depth + opens).saturating_sub(closes);

            if let Some(limit) = skip_above {
                // Inside a #[cfg(test)] block: skip everything (including
                // allow parsing — test hazards cannot touch replay artifacts).
                if depth <= limit {
                    skip_above = None;
                }
                continue;
            }
            let squished: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
            if squished.contains("#[cfg(test)]") {
                if depth > depth_before {
                    // `#[cfg(test)] mod tests {` on one line.
                    skip_above = Some(depth_before);
                } else {
                    cfg_test_pending = true;
                }
                continue;
            }
            if cfg_test_pending {
                if depth > depth_before {
                    skip_above = Some(depth_before);
                    cfg_test_pending = false;
                } else if opens > 0 || squished.ends_with(';') {
                    // The cfg(test) item opened and closed on this line, or
                    // is an out-of-line `mod tests;` — nothing to skip.
                    cfg_test_pending = false;
                }
                continue;
            }

            let has_code = !squished.is_empty();
            match line.comment.as_deref().and_then(parse_allow) {
                // A trailing allow is carried no further than its own line.
                Some(Ok((rule, reason))) => carried.push(Allow {
                    rule,
                    reason,
                    decl_line: lineno,
                    covers_line: 0,
                }),
                Some(Err(())) => out.bad_allows.push(lineno),
                None => {}
            }
            if has_code {
                for mut allow in carried.drain(..) {
                    allow.covers_line = lineno;
                    out.allows.push(allow);
                }
                out.lines.push(CodeLine {
                    line: lineno,
                    tokens: tokenize(&line.code),
                    raw: raw.to_string(),
                    comment_col: line.comment_col,
                });
            }
        }
        out.allows.extend(carried);
        out
    }

    /// True if the file feeds item extraction and the call graph.
    pub fn in_graph(&self) -> bool {
        !self.rel.split('/').any(|c| OFF_GRAPH_DIRS.contains(&c))
    }
}

/// Walks `cfg.include` under `root` and lexes every `.rs` file found,
/// in sorted path order.
pub fn load_tree(root: &Path, cfg: &Config) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for &inc in cfg.include {
        let path = root.join(inc);
        if path.is_file() {
            if inc.ends_with(".rs") && !cfg.is_excluded(inc) {
                files.push(inc.to_string());
            }
        } else if path.is_dir() {
            collect_rs_files(root, &path, cfg, &mut files)?;
        }
        // A missing include dir is tolerated: fixture trees differ in shape.
    }
    files.sort();
    files.dedup();
    files
        .iter()
        .map(|rel| {
            std::fs::read_to_string(root.join(rel))
                .map(|text| SourceFile::lex(rel, &text))
                .map_err(|e| format!("cannot read {rel}: {e}"))
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir`, honoring excludes.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .and_then(|it| it.collect::<Result<Vec<_>, _>>())
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for path in entries.into_iter().map(|e| e.path()) {
        let Ok(rel) = path.strip_prefix(root) else {
            continue;
        };
        let rel = rel.to_string_lossy().replace('\\', "/");
        if cfg.is_excluded(&rel) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// The allow ledger: every parsed directive plus a used flag. Every rule
/// suppresses through [`Ledger::covered`]; [`Ledger::finish`] turns what
/// is left unused into `stale-allow` findings.
pub struct Ledger {
    allows: Vec<(String, Allow, bool)>,
    bad: Vec<(String, usize)>,
}

impl Ledger {
    pub fn new(files: &[SourceFile]) -> Ledger {
        let mut ledger = Ledger {
            allows: Vec::new(),
            bad: Vec::new(),
        };
        for f in files {
            for a in &f.allows {
                ledger.allows.push((f.rel.clone(), a.clone(), false));
            }
            for &line in &f.bad_allows {
                ledger.bad.push((f.rel.clone(), line));
            }
        }
        ledger
    }

    /// True (and marks used) if an allow of `rule` covers (file, line).
    pub fn covered(&mut self, file: &str, line: usize, rule: Rule) -> bool {
        let mut hit = false;
        for (f, a, used) in &mut self.allows {
            if a.rule == rule && a.covers_line == line && f == file {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    /// Closes the books: returns the used allows (the audited
    /// suppressions) and reports the unused ones as `stale-allow` and the
    /// malformed ones as `bad-allow` — suppressions can never outlive
    /// what they audit.
    pub fn finish(self, findings: &mut Vec<Finding>) -> Vec<AllowRecord> {
        let hygiene = |rule: Rule, file: String, line: usize| {
            Finding::at(rule, file, line, rule.explanation().to_string())
        };
        for (file, line) in self.bad {
            findings.push(hygiene(Rule::BadAllow, file, line));
        }
        let mut used_allows = Vec::new();
        for (file, a, used) in self.allows {
            if used {
                used_allows.push(AllowRecord {
                    rule: a.rule,
                    file,
                    line: a.decl_line,
                    reason: a.reason,
                });
            } else {
                findings.push(hygiene(Rule::StaleAllow, file, a.decl_line));
            }
        }
        used_allows.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        used_allows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_are_collected_with_coverage_lines() {
        let src = "\
// det::allow(panic-surface, reason = \"slot bounded by construction\")
pub fn f(v: &[u64]) -> u64 { v[0] }
pub fn g(v: &[u64]) -> u64 { v[1] } // det::allow(panic-surface, reason = \"caller checks\")
// det::allow(nope)
pub fn h() {}
";
        let file = SourceFile::lex("crates/bgp/src/node.rs", src);
        assert_eq!(file.allows.len(), 2);
        assert_eq!(file.allows[0].decl_line, 1);
        assert_eq!(file.allows[0].covers_line, 2);
        assert_eq!(file.allows[1].covers_line, 3);
        assert_eq!(file.bad_allows, [4]);
    }

    #[test]
    fn the_ledger_counts_used_allows_and_reports_the_rest() {
        let src = "\
pub fn f() {} // det::allow(panic-surface, reason = \"trailing\")
// det::allow(det-closure, reason = \"preceding\")
pub fn g() {}
pub fn h() {} // det::allow(det-closure, reason = \"wrong rule\")
// det::allow(panic-surface, reason = \"no code line follows\")
";
        let file = SourceFile::lex("a/x.rs", src);
        let mut ledger = Ledger::new(std::slice::from_ref(&file));
        assert!(ledger.covered("a/x.rs", 1, Rule::PanicSurface));
        assert!(ledger.covered("a/x.rs", 3, Rule::DetClosure));
        assert!(!ledger.covered("a/x.rs", 4, Rule::PanicSurface));
        let mut findings = Vec::new();
        let used = ledger.finish(&mut findings);
        let used: Vec<(usize, &str)> = used.iter().map(|a| (a.line, a.reason.as_str())).collect();
        assert_eq!(used, [(1, "trailing"), (2, "preceding")]);
        let stale: Vec<(Rule, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(stale, [(Rule::StaleAllow, 4), (Rule::StaleAllow, 5)]);
    }

    #[test]
    fn cfg_test_blocks_and_blank_lines_are_dropped() {
        let src = "\
pub fn real() {}

#[cfg(test)]
mod tests {
    // det::allow(det-closure, reason = \"never parsed: inside a test block\")
    fn fake() {}
}
pub fn after() {}
";
        let file = SourceFile::lex("crates/core/src/sim.rs", src);
        let kept: Vec<usize> = file.lines.iter().map(|l| l.line).collect();
        assert_eq!(kept, [1, 8]);
        assert!(file.allows.is_empty());
    }

    #[test]
    fn test_bench_and_example_trees_stay_out_of_the_graph() {
        let in_graph = |rel: &str| SourceFile::lex(rel, "").in_graph();
        assert!(in_graph("crates/core/src/sim.rs"));
        assert!(in_graph("src/lib.rs"));
        assert!(!in_graph("crates/core/tests/prop.rs"));
        assert!(!in_graph("tests/end_to_end.rs"));
        assert!(!in_graph("examples/quickstart.rs"));
        assert!(!in_graph("crates/x/benches/b.rs"));
    }
}
