//! Every workload shrunk to n ≤ 300, through the real binary: the result
//! line, `BENCHMARK.json` and the metric tables must say the same thing,
//! and the trace must be a well-formed span tree.

use std::path::{Path, PathBuf};
use std::process::Command;

use bgpscale_benchmark::json::{self, Value};
use bgpscale_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use bgpscale_benchmark::sut::WORKLOADS;
use bgpscale_benchmark::trace::{self, Span};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `BENCHMARK.json` has exactly the contract's keys, stays within its
/// counts, and lists the metrics the runner knows, in order, and the first
/// of its workloads: the last two are run by the whole-set form only.
#[test]
fn benchmark_json_matches_the_runner() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS[..names.len()]);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(well_formed_name(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let check = |listed: &[Value], table: &[Metric], bounded: bool| {
        assert_eq!(listed.len(), table.len());
        for (entry, m) in listed.iter().zip(table) {
            let expected: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(entry), expected, "{}", m.name);
            assert_eq!(str_of(entry, "name"), m.name);
            assert!(well_formed_name(m.name));
            assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(str_of(entry, "better"), better, "{}", m.name);
            if bounded {
                let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            }
        }
    };
    let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
    let per_layer = doc.get("per_layer").and_then(Value::as_arr).unwrap();
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    check(end_to_end, &END_TO_END, true);
    check(per_layer, &PER_LAYER, false);
    let bound_of = |name: &str| {
        end_to_end
            .iter()
            .find(|e| str_of(e, "name") == name)
            .and_then(|e| e.get("bound")?.as_f64())
            .unwrap()
    };
    assert!(end_to_end
        .iter()
        .all(|e| bound_of("setup_s") >= bound_of(str_of(e, "name"))));
}

/// Runs the binary of the mode on one shrunken workload and returns its
/// result line.
fn smoke_run(workload: &str, trace: bool, out_dir: &Path) -> Value {
    let exe = if trace {
        env!("CARGO_BIN_EXE_bgpbench-traced")
    } else {
        env!("CARGO_BIN_EXE_bgpbench")
    };
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.05",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .output()
        .expect("bgpbench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload}: {}\n{stdout}", out.status);
    let result = json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));
    // Every metric of the table by name, with its unit, in the text too.
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in table {
        let prefix = format!("metric {} ", m.name);
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(
            lines.len(),
            1,
            "{workload}: {} printed {} times",
            m.name,
            lines.len()
        );
        assert_eq!(
            lines[0].split_whitespace().nth(3),
            Some(m.unit),
            "{}",
            lines[0]
        );
    }
    result
}

/// The metrics of a result line are exactly `table`: each name once, in
/// order, with its unit and a finite value.
fn assert_metrics(result: &Value, table: &[Metric], workload: &str) {
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{workload}");
    for ((_, entry), m) in metrics.iter().zip(table) {
        assert_eq!(keys(entry), ["value", "unit"], "{workload}: {}", m.name);
        assert_eq!(str_of(entry, "unit"), m.unit);
        let value = entry.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{workload}: {} = {value}", m.name);
    }
}

fn spans_of(path: &Path) -> Vec<Span> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines();
    let header = json::parse(lines.next().unwrap()).unwrap();
    let env = header
        .get("env")
        .expect("the trace starts with the environment");
    for key in ["nproc", "cpu_model", "rustc", "git_rev", "load1", "seed"] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }
    lines
        .map(|line| {
            let v = json::parse(line).unwrap();
            let num = |key: &str| v.get(key).and_then(Value::as_f64);
            Span {
                id: num("id").unwrap() as u32,
                parent: num("parent").map(|p| p as u32),
                name: Box::leak(str_of(&v, "name").to_string().into_boxed_str()),
                rep: num("rep").unwrap() as u32,
                cell: num("cell").unwrap() as u32,
                event: num("event").map(|e| e as u32),
                start_ns: num("start_ns").unwrap() as u64,
                end_ns: num("end_ns").unwrap() as u64,
                allocs: num("allocs").unwrap() as u64,
                alloc_bytes: num("alloc_bytes").unwrap() as u64,
            }
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_once() {
    let started = std::time::Instant::now();
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let mut deliveries = Vec::new();
    for workload in WORKLOADS {
        let untraced = smoke_run(workload, false, &out_dir);
        assert_metrics(&untraced, &END_TO_END, workload);
        for (name, entry) in untraced.get("metrics").and_then(Value::as_obj).unwrap() {
            let value = entry.get("value").and_then(Value::as_f64).unwrap();
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }

        let traced = smoke_run(workload, true, &out_dir);
        assert_metrics(&traced, &PER_LAYER, workload);
        let value = |name: &str| {
            traced
                .get("metrics")
                .and_then(|m| m.get(name)?.get("value")?.as_f64())
                .unwrap()
        };
        assert!(
            value("trace.coverage_pct") > 50.0,
            "{workload}: spans cover the run"
        );
        assert!(value("core.deliveries") > 0.0);
        assert!(
            value("alloc.allocs_per_delivery") > 0.0,
            "{workload}: the counting allocator is installed"
        );
        deliveries.push(value("core.deliveries"));

        // Span parents resolve and self times are non-negative.
        let spans = spans_of(&out_dir.join(format!("trace-{workload}.jsonl")));
        assert_eq!(spans.len() as f64, value("trace.spans"));
        let selfs = trace::self_times(&spans).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(selfs.len(), spans.len());
        assert!(spans.iter().any(|s| s.is_layer()) && spans[0].name == "rep");
    }
    // observed_5k simulates what baseline_5k simulates.
    let at = |name: &str| deliveries[WORKLOADS.iter().position(|w| *w == name).unwrap()];
    assert_eq!(at("baseline_5k"), at("observed_5k"));
    assert!(
        started.elapsed().as_secs() < 10,
        "the smoke run takes {:?}",
        started.elapsed()
    );
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--seconds", "0"],
        &["--seconds", "5"],
        &["--bogus"],
        // The untraced binary cannot count allocations.
        &["--workload", "baseline_5k", "--trace", "1", "--smoke"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bgpbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
