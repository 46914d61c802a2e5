//! Analysis results and their two renderings.
//!
//! Both renderings are hand-rolled and **byte-deterministic**: files are
//! lexed in sorted order, findings and allows are emitted in (file, line,
//! rule) order, and no timestamps, absolute paths, or map iteration
//! orders can leak in. Two runs over the same tree must produce identical
//! bytes — the analyzer holds itself to the contract it enforces, and
//! the integration suite asserts it.

use crate::Rule;

/// One violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// 1-based anchor line (call site, fn declaration, or allow comment).
    pub line: usize,
    pub message: String,
    /// Qualified-name chain from an entry point / hot root to the
    /// finding, when the pass walked one. Empty otherwise.
    pub witness: Vec<String>,
}

impl Finding {
    /// A finding anchored at a line, without a witness.
    pub fn at(rule: Rule, file: String, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file,
            line,
            message,
            witness: Vec::new(),
        }
    }

    /// `file:line: [rule] message` — the `file:line` prefix makes
    /// terminals and editors link straight to the span — followed by the
    /// witness path when present.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        );
        if !self.witness.is_empty() {
            s.push_str(&format!("\n    via {}", self.witness.join(" -> ")));
        }
        s
    }
}

/// Sorts findings into reporting order and keeps one per (file, line,
/// rule), the anchor an allow covers.
pub fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
}

/// One audited (used) `det::allow` suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowRecord {
    pub rule: Rule,
    pub file: String,
    /// 1-based line of the allow comment.
    pub line: usize,
    pub reason: String,
}

/// The complete result of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Every scanned file, relative to the root, sorted.
    pub files: Vec<String>,
    /// How many files sit in the deterministic tier.
    pub deterministic_files: usize,
    /// How many files feed the call graph.
    pub graph_files: usize,
    /// Function nodes in the graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Deterministic-tier public entry points.
    pub entry_points: usize,
    /// Matched hot-path roots.
    pub hot_roots: usize,
    /// Artifact-writing functions.
    pub writers: usize,
    /// All violations, in (file, line, rule) order.
    pub findings: Vec<Finding>,
    /// All used allows, in (file, line, rule) order.
    pub allows: Vec<AllowRecord>,
}

impl Analysis {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Escapes a string as a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Appends `"key": [ rows… ]`, one row per line.
fn json_rows(j: &mut String, key: &str, rows: Vec<String>, last: bool) {
    j.push_str(&format!("  \"{key}\": ["));
    if !rows.is_empty() {
        j.push_str(&format!("\n    {}\n  ", rows.join(",\n    ")));
    }
    j.push_str(if last { "]\n" } else { "],\n" });
}

/// Renders the machine report for `--json` / `--json-out` (uploaded as a
/// CI artifact). Stamped with [`crate::SCHEMA_VERSION`] like every other
/// artifact this workspace writes; keys are emitted in a fixed order.
pub fn render_json(a: &Analysis) -> String {
    let mut j = format!("{{\n  \"schema_version\": {},\n", crate::SCHEMA_VERSION);
    j.push_str(&format!("  \"ok\": {},\n", a.ok()));
    for (key, n) in [
        ("files_scanned", a.files.len()),
        ("deterministic_files", a.deterministic_files),
        ("graph_files", a.graph_files),
        ("functions", a.functions),
        ("edges", a.edges),
        ("entry_points", a.entry_points),
        ("hot_roots", a.hot_roots),
        ("writers", a.writers),
    ] {
        j.push_str(&format!("  \"{key}\": {n},\n"));
    }
    let violations = a
        .findings
        .iter()
        .map(|d| {
            let witness: Vec<String> = d.witness.iter().map(|w| json_str(w)).collect();
            format!(
                "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"witness\": [{}]}}",
                json_str(d.rule.id()),
                json_str(&d.file),
                d.line,
                json_str(&d.message),
                witness.join(", ")
            )
        })
        .collect();
    json_rows(&mut j, "violations", violations, false);
    let allows = a
        .allows
        .iter()
        .map(|al| {
            format!(
                "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(al.rule.id()),
                json_str(&al.file),
                al.line,
                json_str(&al.reason)
            )
        })
        .collect();
    json_rows(&mut j, "allows", allows, true);
    j.push_str("}\n");
    j
}

/// Renders the human report for `--check`. `quiet` drops the scan
/// summary and the per-allow listing (the counts stay in the verdict).
pub fn render_human(a: &Analysis, quiet: bool) -> String {
    let mut out = String::new();
    if !quiet {
        out.push_str(&format!(
            "det: {} files scanned ({} deterministic, {} in the call graph); \
             {} functions, {} edges; {} entry points, {} hot roots, {} writers\n",
            a.files.len(),
            a.deterministic_files,
            a.graph_files,
            a.functions,
            a.edges,
            a.entry_points,
            a.hot_roots,
            a.writers
        ));
    }
    for d in &a.findings {
        out.push_str(&d.render());
        out.push('\n');
    }
    if !quiet && !a.allows.is_empty() {
        out.push_str(&format!("audited allows ({}):\n", a.allows.len()));
        for al in &a.allows {
            out.push_str(&format!(
                "  {}:{}: [{}] {}\n",
                al.file, al.line, al.rule, al.reason
            ));
        }
    }
    out.push_str(&format!(
        "det: {} ({} violation(s), {} audited allow(s))\n",
        if a.ok() { "OK" } else { "FAIL" },
        a.findings.len(),
        a.allows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Analysis {
        Analysis {
            files: vec!["a.rs".to_string()],
            functions: 2,
            edges: 1,
            entry_points: 1,
            findings: vec![
                Finding::at(
                    Rule::StaleAllow,
                    "a.rs".to_string(),
                    2,
                    Rule::StaleAllow.explanation().to_string(),
                ),
                Finding {
                    witness: vec!["a::f".to_string(), "b::g".to_string()],
                    ..Finding::at(
                        Rule::DetClosure,
                        "a.rs".to_string(),
                        3,
                        "reaches \"wall\"".to_string(),
                    )
                },
            ],
            allows: vec![AllowRecord {
                rule: Rule::PanicSurface,
                file: "a.rs".to_string(),
                line: 9,
                reason: "bounded".to_string(),
            }],
            ..Analysis::default()
        }
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_is_stamped_escaped_and_balanced() {
        let j = render_json(&sample());
        assert!(j.starts_with(&format!(
            "{{\n  \"schema_version\": {},\n",
            crate::SCHEMA_VERSION
        )));
        assert!(j.contains("\"ok\": false"));
        assert!(j.contains("reaches \\\"wall\\\""));
        assert!(j.contains("\"witness\": [\"a::f\", \"b::g\"]"));
        assert!(j.contains("\"rule\": \"stale-allow\", \"file\": \"a.rs\", \"line\": 2, "));
        assert_eq!(j.matches('"').count() % 2, 0);
        let empty = render_json(&Analysis::default());
        assert!(
            empty.contains("\"violations\": [],\n  \"allows\": []\n}\n"),
            "{empty}"
        );
    }

    #[test]
    fn human_report_links_spans_and_states_the_verdict() {
        let h = render_human(&sample(), false);
        assert!(
            h.contains("a.rs:2: [stale-allow] this det::allow suppressed nothing"),
            "{h}"
        );
        assert!(
            h.contains("a.rs:3: [det-closure] reaches \"wall\"\n    via a::f -> b::g"),
            "{h}"
        );
        assert!(h.contains("a.rs:9: [panic-surface] bounded"), "{h}");
        assert!(
            h.ends_with("det: FAIL (2 violation(s), 1 audited allow(s))\n"),
            "{h}"
        );
        let empty = render_human(&Analysis::default(), true);
        assert_eq!(empty, "det: OK (0 violation(s), 0 audited allow(s))\n");
    }
}
