//! Integration tests for `bgpscale-det`: exact fixture anchors for the
//! graph passes, det-closure witness paths from the deterministic entry
//! point to the crossing, JSON byte-determinism, end-to-end CLI exit
//! codes, and — the gate that matters — the real workspace analyzing
//! clean under [`Config::WORKSPACE`]. That last test makes
//! `cargo test -p bgpscale-det` a determinism gate in itself, not just an
//! analyzer unit-test suite.

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

fn analyze_root(root: &Path, cfg: &Config) -> Analysis {
    analyze(root, cfg).expect("analysis")
}

fn analyze_case(name: &str) -> Analysis {
    let (_, cfg) = fixtures::CASES
        .iter()
        .find(|(case, _)| *case == name)
        .expect("fixture case");
    analyze_root(&fixtures_root().join(name), cfg)
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
    assert_eq!(report.cases.len(), 2, "clean, graph");
    assert_eq!(
        report.confirmed(),
        11,
        "expected every seeded marker to be confirmed"
    );
}

#[test]
fn every_rule_fires_somewhere_in_the_fixtures() {
    let seen: Vec<Rule> = findings(&analyze_case("graph"))
        .into_iter()
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
fn graph_case_fires_with_exact_anchors() {
    // Full set equality, not spot checks: the graph case must produce
    // exactly these findings — at least one per pass plus the
    // allow-hygiene pair — each at its precise (file, line) anchor.
    let expected = anchors(&[
        ("det/allows.rs", 4, Rule::StaleAllow),
        ("det/allows.rs", 9, Rule::BadAllow),
        ("det/direct.rs", 9, Rule::DetClosure),
        ("det/direct.rs", 14, Rule::DetClosure),
        ("det/direct.rs", 18, Rule::DetClosure),
        ("det/hot.rs", 8, Rule::PanicSurface),
        ("io/main.rs", 4, Rule::ArtifactContract),
        ("io/write.rs", 3, Rule::ArtifactContract),
        ("util/helper.rs", 7, Rule::DetClosure),
        ("util/helper.rs", 12, Rule::DetClosure),
        ("util/helper.rs", 21, Rule::DetClosure),
    ]);
    let a = analyze_case("graph");
    assert_eq!(findings(&a), expected);
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
    // a token-level ban cannot produce.
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
    // The sanctioned Stopwatch, reached through its crate-root re-export,
    // is anchored in the deterministic fn that starts it.
    let stopwatch = a
        .findings
        .iter()
        .find(|d| d.file == "det/direct.rs" && d.line == 9)
        .expect("the Stopwatch crossing");
    assert_eq!(stopwatch.witness, ["det::direct::timed"]);
    assert!(
        stopwatch
            .message
            .contains("`wall::clock::Stopwatch::start`"),
        "{}",
        stopwatch.message
    );
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
    // this case; a wall-side module is no entry point, so that is not a
    // finding.
    assert_eq!(a.deterministic_files, 3);
}

#[test]
fn wall_clock_exemption_covers_exactly_the_wall_side_modules_files() {
    let read = "pub fn t() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n";
    let cfg = Config {
        include: &["crates"],
        exclude: &[],
        deterministic: &["crates/k/src"],
        wall_side: &["k::wallclock", "k::rss"],
        hot_roots: &[],
        exit_constants: &[],
    };
    let tree = TempTree::new(
        "exempt",
        &[
            ("crates/k/src/wallclock.rs", read),
            ("crates/k/src/rss.rs", read),
            ("crates/k/src/rss/linux.rs", read),
            ("crates/k/src/rss_probe.rs", read),
            ("crates/k/src/clock.rs", read),
        ],
    );
    // Wall-side modules are not det-closure entry points, so their files
    // are silent; every other file's pub fn crosses on its one line.
    assert_eq!(
        findings(&analyze_root(&tree.0, &cfg)),
        anchors(&[
            ("crates/k/src/clock.rs", 1, Rule::DetClosure),
            ("crates/k/src/rss_probe.rs", 1, Rule::DetClosure),
        ])
    );
}

#[test]
fn json_report_is_renderable_and_lists_rules() {
    let a = analyze_case("graph");
    let json = report::render_json(&a);
    assert!(json.starts_with(&format!(
        "{{\n  \"schema_version\": {},\n  \"ok\": false,\n",
        bgpscale_det::SCHEMA_VERSION
    )));
    assert!(json.contains("\"violations\": ["));
    assert!(json.contains("\"rule\": \"det-closure\""));
    // Escaping: every quote inside messages must be escaped — a quick
    // structural sanity check is that the quote count is even.
    assert_eq!(json.matches('"').count() % 2, 0);
    let human = report::render_human(&a, false);
    assert!(
        human.contains("det: FAIL (11 violation(s), 0 audited allow(s))"),
        "{human}"
    );
}

#[test]
fn workspace_is_clean() {
    // The gate that matters: the real workspace, under its tier map, has
    // zero violations.
    let a = analyze_root(&workspace_root(), &Config::WORKSPACE);
    assert!(
        a.files.len() > 100 && a.deterministic_files > 50,
        "scan looks hollow: {} files, {} deterministic — check the tier paths",
        a.files.len(),
        a.deterministic_files
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
        "a hot-path root no longer matches any function"
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
    assert_eq!(a.allows.len(), 26, "audited-allow count moved");
}

#[test]
fn workspace_json_is_byte_deterministic() {
    let root = workspace_root();
    assert_eq!(
        report::render_json(&analyze_root(&root, &Config::WORKSPACE)),
        report::render_json(&analyze_root(&root, &Config::WORKSPACE))
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
fn seeded_cross_function_reach_exits_one_end_to_end() {
    // The same check CI's second mutation gate performs, via the real
    // binary, on a tree shaped like the workspace: `crates/core` (the
    // deterministic tier) calls a helper in `crates/experiments` (not),
    // which calls `Instant::now`. It must exit with code 1 exactly, name
    // only det-closure, and the --json report must be byte-identical
    // across runs.
    let tree = TempTree::new(
        "seeded-reach",
        &[
            (
                "crates/core/src/entry.rs",
                "pub fn run(x: u64) -> u64 {\n    bgpscale_experiments::hatch::leak(x)\n}\n",
            ),
            (
                "crates/experiments/src/hatch.rs",
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
        text.contains("crates/experiments/src/hatch.rs:2: [det-closure]"),
        "missing the seeded crossing:\n{text}"
    );
    assert!(
        text.contains("via core::entry::run -> experiments::hatch::leak"),
        "missing the witness path:\n{text}"
    );
    assert_eq!(j1.status.code(), Some(1));
    assert_eq!(j1.stdout, j2.stdout, "--json must be byte-deterministic");
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
    for args in [&["--no-such-flag"][..], &["--config", "det.toml"]] {
        let usage = det(args, &workspace_root());
        assert_eq!(usage.status.code(), Some(2), "{args:?} must be a usage error");
    }
    let rules = det(&["--list-rules"], &workspace_root());
    assert_eq!(rules.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&rules.stdout).lines().count(), 5);
}
