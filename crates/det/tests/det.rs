//! Integration tests for `bgpscale-det`: exact fixture anchors for the
//! line rules and the graph passes, the blind-spot acceptance test (the
//! seeded cross-function wall-clock reach is invisible to the line rules
//! while det-closure flags it with a witness path), config strictness,
//! JSON byte-determinism, end-to-end CLI exit codes, and — the gate that
//! matters — the real workspace analyzing clean under the checked-in
//! `det.toml`. That last test makes `cargo test -p bgpscale-det` a
//! determinism gate in itself, not just an analyzer unit-test suite.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgpscale_det::{analyze, fixtures, report, Analysis, Config, Rule};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn analyze_root(root: &Path) -> Analysis {
    let cfg = Config::load(&root.join("det.toml")).expect("det.toml");
    analyze(root, &cfg).expect("analysis")
}

fn analyze_case(name: &str) -> Analysis {
    analyze_root(&fixtures_root().join(name))
}

/// `(file, line, rule)` triples, already in reporting order.
fn findings(a: &Analysis) -> Vec<(String, usize, Rule)> {
    a.findings
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

fn anchors(list: &[(&str, usize, Rule)]) -> Vec<(String, usize, Rule)> {
    list.iter()
        .map(|&(f, l, r)| (f.to_string(), l, r))
        .collect()
}

/// A scratch tree in the temp dir, removed on drop, so the seeded trees
/// cannot race the scans of the real repository.
struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str, files: &[(&str, &str)]) -> TempTree {
        let root = std::env::temp_dir().join(format!("det-{tag}-{}", std::process::id()));
        for (rel, text) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("create temp tree");
            std::fs::write(path, text).expect("write temp file");
        }
        TempTree(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn det(args: &[&str], root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_det"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run det")
}

#[test]
fn fixture_self_test_passes() {
    let report = fixtures::run(&fixtures_root()).expect("fixtures run");
    assert!(
        report.ok(),
        "fixture self-test failed:\n{}",
        fixtures::render(&report)
    );
    assert_eq!(report.cases.len(), 4, "clean, drift, graph, lines");
    assert!(
        report.confirmed() >= 44,
        "expected every seeded marker to be confirmed, got {}",
        report.confirmed()
    );
}

#[test]
fn every_rule_fires_somewhere_in_the_fixtures() {
    let seen: Vec<Rule> = ["lines", "graph", "drift"]
        .into_iter()
        .flat_map(|case| findings(&analyze_case(case)))
        .map(|(_, _, rule)| rule)
        .collect();
    for rule in Rule::ALL {
        assert!(
            seen.contains(&rule),
            "rule {rule} fired nowhere in the fixtures"
        );
    }
}

#[test]
fn lines_case_findings_are_pinned() {
    // Golden regression for the lexer and the line rules: the complete,
    // ordered (file, line, rule) list over the line-rule case. Every entry
    // up to `bad/instant_now.rs` and from `bad/stale_allow.rs` on was
    // captured from the pre-merge linter and must never drift; the
    // `det-closure` entries are the graph pass seeing the same seeded
    // reads, and `bad/multiline_string.rs` pins the cross-line string
    // state (prose on a continuation line silent, code after the closing
    // quote flagged). A change that moves, adds, or drops ANY of them
    // fails here.
    use Rule::*;
    let expected = anchors(&[
        ("bad/env_read.rs", 6, EnvRead),
        ("bad/env_read.rs", 6, DetClosure),
        ("bad/env_read.rs", 10, EnvRead),
        ("bad/env_read.rs", 10, DetClosure),
        ("bad/env_read.rs", 14, EnvRead),
        ("bad/env_read.rs", 14, DetClosure),
        ("bad/float_accum.rs", 8, FloatAccum),
        ("bad/float_accum.rs", 13, FloatAccum),
        ("bad/float_accum.rs", 14, FloatAccum),
        ("bad/hashmap_iter.rs", 8, UnorderedCollection),
        ("bad/hashmap_iter.rs", 10, UnorderedCollection),
        ("bad/hashmap_iter.rs", 19, UnorderedCollection),
        ("bad/instant_now.rs", 6, WallClock),
        ("bad/instant_now.rs", 6, DetClosure),
        ("bad/instant_now.rs", 12, WallClock),
        ("bad/multiline_string.rs", 11, UnorderedCollection),
        ("bad/multiline_string.rs", 17, ThreadSpawn),
        ("bad/stale_allow.rs", 5, StaleAllow),
        ("bad/stale_allow.rs", 10, BadAllow),
        ("bad/stale_allow.rs", 15, UnorderedCollection),
        ("bad/stale_allow.rs", 15, StaleAllow),
        ("bad/system_time.rs", 6, WallClock),
        ("bad/system_time.rs", 6, DetClosure),
        ("bad/system_time.rs", 7, WallClock),
        ("bad/thread_spawn.rs", 6, ThreadSpawn),
        ("bad/thread_spawn.rs", 9, ThreadSpawn),
        ("bad/thread_spawn.rs", 16, ThreadSpawn),
        ("bad/unseeded_random.rs", 7, UnseededRandom),
        ("bad/unseeded_random.rs", 9, UnseededRandom),
        ("bad/unseeded_random.rs", 14, UnorderedCollection),
        ("bad/unseeded_random.rs", 14, UnseededRandom),
        ("bad/unseeded_random.rs", 15, UnseededRandom),
        ("bad/unseeded_random.rs", 19, UnseededRandom),
        ("bad/unseeded_random.rs", 19, DetClosure),
        ("bad/unseeded_random.rs", 23, UnseededRandom),
    ]);
    assert_eq!(findings(&analyze_case("lines")), expected);
}

#[test]
fn line_findings_carry_column_and_snippet() {
    let a = analyze_case("lines");
    let hit = a
        .findings
        .iter()
        .find(|d| d.file == "bad/multiline_string.rs" && d.rule == Rule::UnorderedCollection)
        .expect("the hidden HashMap");
    // The real token after the closing quote, not the prose before it.
    assert_eq!(hit.column, 84);
    assert!(
        hit.snippet.starts_with("prose that mentions Instant"),
        "{}",
        hit.snippet
    );
    assert!(hit
        .render()
        .starts_with("bad/multiline_string.rs:11:84: [unordered-collection]"));
}

#[test]
fn lines_clean_fixture_has_zero_findings_and_a_counted_allow() {
    let a = analyze_case("lines");
    let clean: Vec<_> = a
        .findings
        .iter()
        .filter(|d| d.file.starts_with("clean/"))
        .collect();
    assert!(
        clean.is_empty(),
        "false positives in clean fixture: {clean:?}"
    );
    let audited: Vec<_> = a
        .allows
        .iter()
        .filter(|al| al.file.starts_with("clean/"))
        .collect();
    assert_eq!(
        audited.len(),
        1,
        "the clean fixture's allow must be counted"
    );
    assert_eq!(audited[0].rule, Rule::WallClock);
    assert!(audited[0].reason.contains("profiling"));
}

#[test]
fn graph_case_fires_with_exact_anchors() {
    // Full set equality, not spot checks: the graph case must produce
    // exactly these findings — at least one per pass plus the
    // allow-hygiene pair — each at its precise (file, line) anchor.
    let expected = anchors(&[
        ("det/allows.rs", 4, Rule::StaleAllow),
        ("det/allows.rs", 9, Rule::BadAllow),
        ("det/hot.rs", 8, Rule::PanicSurface),
        ("io/main.rs", 4, Rule::ArtifactContract),
        ("io/write.rs", 3, Rule::ArtifactContract),
        ("util/helper.rs", 7, Rule::DetClosure),
        ("util/helper.rs", 12, Rule::DetClosure),
        ("util/helper.rs", 21, Rule::DetClosure),
    ]);
    assert_eq!(findings(&analyze_case("graph")), expected);
}

#[test]
fn cross_function_wall_clock_is_invisible_to_the_line_rules() {
    // THE acceptance fixture: no line rule fires anywhere in the graph
    // case, because no line in its deterministic tier holds a banned
    // token. The wall-clock reads sit two calls away in util/helper.rs,
    // outside the deterministic paths — yet the file IS scanned, so the
    // silence is the blind spot, not a vacuous comparison. The closure
    // pass (asserted exact above) is what closes the gap.
    let a = analyze_case("graph");
    let line_hits: Vec<_> = a
        .findings
        .iter()
        .filter(|d| Rule::LINE_RULES.contains(&d.rule))
        .collect();
    assert!(
        line_hits.is_empty(),
        "the blind-spot premise broke: {line_hits:?}"
    );
    assert!(a.files.iter().any(|f| f == "util/helper.rs"));
    assert_eq!(
        a.files.len(),
        a.graph_files,
        "every file of this case is in the graph"
    );
}

#[test]
fn det_closure_witness_names_the_entry_point() {
    let a = analyze_case("graph");
    let witness_of = |line: usize| -> Vec<String> {
        a.findings
            .iter()
            .find(|d| d.rule == Rule::DetClosure && d.file == "util/helper.rs" && d.line == line)
            .expect("det-closure finding")
            .witness
            .clone()
    };
    // The witness walks from the deterministic entry point to the
    // function holding the crossing call — the cross-function evidence
    // a line rule cannot produce.
    assert_eq!(
        witness_of(7),
        ["det::entry::simulate", "util::helper::ticks"]
    );
    assert_eq!(
        witness_of(12),
        ["det::entry::checkpoint", "util::helper::stamp"]
    );
    // The crossing in the arguments after a continued format string.
    assert_eq!(
        witness_of(21),
        ["det::entry::trace", "util::helper::describe"]
    );
}

#[test]
fn drift_case_flags_clippy_toml_at_line_one() {
    let a = analyze_case("drift");
    assert_eq!(
        findings(&a),
        anchors(&[("clippy.toml", 1, Rule::ConfigCoherence)])
    );
    // Only the missing ban is named; the one clippy.toml carries is fine.
    assert!(a.findings[0]
        .message
        .contains("`std::collections::HashMap`"));
}

#[test]
fn clean_case_has_zero_findings_and_counted_allows() {
    let a = analyze_case("clean");
    assert!(
        a.findings.is_empty(),
        "false positives in the clean case: {:?}",
        findings(&a)
    );
    // Both audited allows are used, hence counted — an unused one would
    // have been a stale-allow finding above.
    let allows: Vec<(String, usize, Rule)> = a
        .allows
        .iter()
        .map(|al| (al.file.clone(), al.line, al.rule))
        .collect();
    assert_eq!(
        allows,
        anchors(&[
            ("det/hot.rs", 7, Rule::PanicSurface),
            ("util/helper.rs", 5, Rule::DetClosure),
        ])
    );
    // wall/clock.rs reads SystemTime inside the deterministic tier of
    // this case; the derived exemption is why that is not a finding.
    assert_eq!(a.deterministic_files, 3);
}

#[test]
fn wall_clock_exemption_covers_exactly_the_wall_side_modules_files() {
    let read = "pub fn t() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n";
    let tree = TempTree::new(
        "exempt",
        &[
            (
                "det.toml",
                "[scan]\ninclude = [\"crates\"]\n\
                 [deterministic]\npaths = [\"crates/k/src\"]\n\
                 [wall-side]\nmodules = [\"k::wallclock\", \"k::rss\"]\n",
            ),
            ("crates/k/src/wallclock.rs", read),
            ("crates/k/src/rss.rs", read),
            ("crates/k/src/rss/linux.rs", read),
            ("crates/k/src/rss_probe.rs", read),
            ("crates/k/src/clock.rs", read),
        ],
    );
    // Wall-side modules are not det-closure entry points either, so their
    // files are silent; every other file gets both rules on its one line.
    let mut expected = Vec::new();
    for file in ["crates/k/src/clock.rs", "crates/k/src/rss_probe.rs"] {
        expected.push((file, 1, Rule::WallClock));
        expected.push((file, 1, Rule::DetClosure));
    }
    assert_eq!(findings(&analyze_root(&tree.0)), anchors(&expected));
}

#[test]
fn json_report_is_renderable_and_lists_rules() {
    let a = analyze_case("lines");
    let json = report::render_json(&a);
    assert!(json.starts_with(&format!(
        "{{\n  \"schema_version\": {},\n  \"ok\": false,\n",
        bgpscale_det::SCHEMA_VERSION
    )));
    assert!(json.contains("\"violations\": ["));
    assert!(json.contains("\"rule\": \"unordered-collection\""));
    // Escaping: every quote inside snippets must be escaped — a quick
    // structural sanity check is that the quote count is even.
    assert_eq!(json.matches('"').count() % 2, 0);
    let human = report::render_human(&a, false);
    assert!(
        human.contains("det: FAIL (35 violation(s), 1 audited allow(s))"),
        "{human}"
    );
}

#[test]
fn workspace_is_clean() {
    // The gate that matters: the real workspace, under the checked-in
    // det.toml, has zero violations.
    let a = analyze_root(&workspace_root());
    assert!(
        a.files.len() > 100 && a.deterministic_files > 50 && a.integer_only_files > 10,
        "scan looks hollow: {} files, {} deterministic, {} integer-only — check det.toml paths",
        a.files.len(),
        a.deterministic_files,
        a.integer_only_files
    );
    assert!(
        a.graph_files > 50 && a.functions > 400 && a.entry_points > 150,
        "graph looks hollow: {} files, {} functions, {} entry points",
        a.graph_files,
        a.functions,
        a.entry_points
    );
    assert!(
        a.graph_files < a.files.len(),
        "test and example trees must stay out of the graph"
    );
    assert_eq!(
        a.hot_roots, 5,
        "a [hot-paths] root no longer matches any function"
    );
    assert!(
        a.writers >= 5,
        "writer detection looks broken: {}",
        a.writers
    );
    let rendered: Vec<String> = a.findings.iter().map(|d| d.render()).collect();
    assert_eq!(
        a.findings.len(),
        0,
        "the workspace must analyze clean (restructure the hazard or add an \
         audited det::allow):\n{}",
        rendered.join("\n")
    );
    // The audited allows are a curated list: every addition and every
    // retirement moves this number, deliberately, in the same diff.
    let line_allows = a
        .allows
        .iter()
        .filter(|al| Rule::LINE_RULES.contains(&al.rule))
        .count();
    assert_eq!(
        (a.allows.len(), line_allows),
        (46, 8),
        "audited-allow count moved"
    );
}

#[test]
fn workspace_json_is_byte_deterministic() {
    let root = workspace_root();
    assert_eq!(
        report::render_json(&analyze_root(&root)),
        report::render_json(&analyze_root(&root))
    );
    // And through the real binary: two --json runs, byte-equal.
    let (j1, j2) = (
        det(&["--check", "--json"], &root),
        det(&["--check", "--json"], &root),
    );
    assert_eq!(j1.status.code(), Some(0));
    assert!(!j1.stdout.is_empty());
    assert_eq!(j1.stdout, j2.stdout, "--json must be byte-deterministic");
}

#[test]
fn seeded_line_violation_is_caught_end_to_end() {
    // The same check CI's "seeded line violation" gate performs. The fn is
    // private, so only the line rule can see the read.
    let tree = TempTree::new(
        "seeded-line",
        &[
            (
                "det.toml",
                "[scan]\ninclude = [\"src\"]\n[deterministic]\npaths = [\"src\"]\n",
            ),
            (
                "src/bad.rs",
                "fn bad() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n",
            ),
        ],
    );
    assert_eq!(
        findings(&analyze_root(&tree.0)),
        anchors(&[("src/bad.rs", 1, Rule::WallClock)]),
        "seeded Instant::now was not caught exactly once"
    );
}

#[test]
fn seeded_cross_function_reach_exits_one_end_to_end() {
    // The same check CI's second mutation gate performs, via the real
    // binary: `entry.rs` (deterministic) calls `hatch.rs` (not), which
    // calls `Instant::now`. It must exit with code 1 exactly, name only
    // det-closure, and the --json report must be byte-identical across
    // runs.
    let tree = TempTree::new(
        "seeded-reach",
        &[
            (
                "det.toml",
                "[scan]\ninclude = [\"src\"]\n[deterministic]\npaths = [\"src/entry.rs\"]\n",
            ),
            (
                "src/entry.rs",
                "pub fn run(x: u64) -> u64 {\n    crate::hatch::leak(x)\n}\n",
            ),
            (
                "src/hatch.rs",
                "pub fn leak(x: u64) -> u64 {\n    \
                 std::time::Instant::now().elapsed().as_secs() ^ x\n}\n",
            ),
        ],
    );
    let human = det(&["--check"], &tree.0);
    let (j1, j2) = (
        det(&["--check", "--json"], &tree.0),
        det(&["--check", "--json"], &tree.0),
    );

    assert_eq!(
        human.status.code(),
        Some(1),
        "violations must exit 1 exactly"
    );
    let text = String::from_utf8(human.stdout).expect("utf8 report");
    assert!(
        text.contains("src/hatch.rs:2: [det-closure]"),
        "missing the seeded crossing:\n{text}"
    );
    assert!(
        text.contains("via bgpscale::entry::run -> bgpscale::hatch::leak"),
        "missing the witness path:\n{text}"
    );
    assert!(
        !text.contains("[wall-clock]"),
        "no line rule can see this reach:\n{text}"
    );
    assert_eq!(j1.status.code(), Some(1));
    assert_eq!(j1.stdout, j2.stdout, "--json must be byte-deterministic");
}

#[test]
fn retired_sections_and_unknown_keys_exit_two() {
    let base = "[scan]\ninclude = [\"src\"]\n";
    for (tag, extra) in [
        ("rules", "[rules]\nwall-clock = true\n"),
        (
            "coherence",
            "[coherence]\nclippy-config = \"clippy.toml\"\n",
        ),
        ("exempt", "[exempt]\nwall-clock = [\"src/clock.rs\"]\n"),
        ("section", "[determinstic]\npaths = [\"src\"]\n"),
        ("key", "[deterministic]\npath = [\"src\"]\n"),
    ] {
        let config = format!("{base}{extra}");
        let tree = TempTree::new(
            tag,
            &[("det.toml", &config), ("src/a.rs", "pub fn a() {}\n")],
        );
        let out = det(&["--check"], &tree.0);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`{extra}` must be a config error:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cli_exit_codes_cover_the_whole_convention() {
    let ws = det(&["--check", "--quiet"], &workspace_root());
    assert_eq!(
        ws.status.code(),
        Some(0),
        "the workspace must be clean:\n{}",
        String::from_utf8_lossy(&ws.stdout)
    );
    let fixtures = det(&["--fixtures"], &fixtures_root());
    assert_eq!(
        fixtures.status.code(),
        Some(0),
        "fixture self-test failed:\n{}",
        String::from_utf8_lossy(&fixtures.stdout)
    );
    let usage = det(&["--no-such-flag"], &workspace_root());
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
    let rules = det(&["--list-rules"], &workspace_root());
    assert_eq!(rules.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&rules.stdout).lines().count(),
        Rule::ALL.len()
    );
}
