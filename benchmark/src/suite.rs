//! The whole set: every workload, each run a fresh single-threaded child
//! process, one child at a time. `--selfcheck` runs the set twice and
//! holds the benchmark to its own bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::env::Env;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, ratio, sort, spread, sum};
use crate::sut::WORKLOADS;

/// A spread, (max − min) ÷ median over the runs of a set, beyond which
/// `--selfcheck` marks a workload noisy.
const NOISY_SPREAD: f64 = 0.15;

/// Untraced runs per workload; one traced run follows them. A constant,
/// like `SECONDS`, so that two results of the whole set compare.
const RUNS: usize = 5;

/// Seconds each run measures: shorter than the driver's runs, so that the
/// whole set ends within six minutes.
const SECONDS: f64 = 6.0;
const SMOKE_SECONDS: f64 = 0.05;

/// What the whole set runs with.
#[derive(Clone, Debug)]
pub struct SuiteOpts {
    pub seed: u64,
    pub smoke: bool,
    pub selfcheck: bool,
    pub out_dir: PathBuf,
}

/// One finished child run.
struct Child {
    /// The result line; `None` when the child died without one.
    result: Option<Value>,
    status: std::process::ExitStatus,
    fingerprint: String,
    stdout: String,
}

fn seconds(opts: &SuiteOpts) -> f64 {
    if opts.smoke {
        SMOKE_SECONDS
    } else {
        SECONDS
    }
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs one child to its end and reads its result line. An error is a
/// child that could not be started.
fn child(exe: &Path, workload: &str, trace: bool, opts: &SuiteOpts) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds(opts).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &opts.out_dir.display().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let result = json::parse(stdout.lines().last().unwrap_or(""))
        .ok()
        .filter(|r| r.get("metrics").is_some());
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    Ok(Child {
        result,
        status: out.status,
        fingerprint,
        stdout,
    })
}

/// End-to-end values per workload and metric over the runs of one set,
/// and what went wrong.
struct Set {
    /// `values[workload][metric]` in `WORKLOADS` × `END_TO_END` order.
    values: Vec<Vec<Vec<f64>>>,
    problems: Vec<String>,
}

fn run_set(label: &str, exe: &Path, traced_exe: &Path, opts: &SuiteOpts) -> Result<Set, String> {
    let mut set = Set {
        values: Vec::new(),
        problems: Vec::new(),
    };
    let mut fingerprints: Vec<String> = Vec::new();
    for workload in WORKLOADS {
        println!("== {label} {workload}");
        let mut values = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        // The share of its operations each child failed: all of them for
        // a child that died.
        let mut failed_shares = Vec::new();
        let mut dead = 0;
        let mut fingerprint = String::new();
        for trace in (0..=RUNS).map(|i| i == RUNS) {
            let run = child(if trace { traced_exe } else { exe }, workload, trace, opts)?;
            let Some(result) = &run.result else {
                set.problems.push(format!(
                    "{workload}: a child ({}) died without a result line",
                    run.status
                ));
                print!("{}", run.stdout);
                failed_shares.push(1.0);
                dead += 1;
                continue;
            };
            let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            attempted += count("attempted");
            failed += count("failed");
            failed_shares.push(ratio(count("failed"), count("attempted")));
            if result.get("correct").and_then(Value::as_bool) != Some(true) {
                set.problems
                    .push(format!("{workload}: a run reported correct=false"));
                print!("{}", run.stdout);
            }
            if run.fingerprint.is_empty() {
                set.problems
                    .push(format!("{workload}: a run printed no fingerprint"));
            } else if fingerprint.is_empty() {
                fingerprint.clone_from(&run.fingerprint);
            } else if fingerprint != run.fingerprint {
                set.problems
                    .push(format!("{workload}: fingerprints differ between runs"));
            }
            if trace {
                // The traced child's own report: self-time table and every
                // per-layer metric by name, with its unit.
                for line in run.stdout.lines().filter(|l| {
                    l.starts_with("selftime ")
                        || l.starts_with("metric ")
                        || l.starts_with("trace ")
                }) {
                    println!("{line}");
                }
                for m in &PER_LAYER {
                    if metric_value(result, m.name).is_none() {
                        set.problems
                            .push(format!("{workload}: {} is missing", m.name));
                    }
                }
            } else {
                for (m, values) in END_TO_END.iter().zip(&mut values) {
                    match metric_value(result, m.name) {
                        Some(v) => values.push(v),
                        None => set
                            .problems
                            .push(format!("{workload}: {} is missing", m.name)),
                    }
                }
            }
        }
        for (m, values) in END_TO_END.iter().zip(&mut values) {
            sort(values);
            println!(
                "metric {} {} {} median of {} runs, min {}, max {}",
                m.name,
                median(values),
                m.unit,
                values.len(),
                values.first().copied().unwrap_or(0.0),
                values.last().copied().unwrap_or(0.0),
            );
        }
        println!(
            "metric failed_ops_pct {} % ({failed} of {attempted} operations of the children that lived, {dead} of {} children dead)",
            100.0 * sum(failed_shares.iter().copied()) / (RUNS + 1) as f64,
            RUNS + 1,
        );
        println!("fingerprint {workload} {fingerprint}");
        fingerprints.push(fingerprint);
        set.values.push(values);
    }
    let of = |name: &str| {
        WORKLOADS
            .iter()
            .position(|w| *w == name)
            .map(|i| &fingerprints[i])
    };
    if of("baseline_5k") != of("observed_5k") {
        set.problems
            .push("observed_5k's fingerprint differs from baseline_5k's".into());
    }
    Ok(set)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> Result<Vec<f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let listed = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    END_TO_END
        .iter()
        .map(|m| {
            listed
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(m.name))
                .and_then(|e| e.get("bound")?.as_f64())
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))
        })
        .collect()
}

/// Runs the set, or with `selfcheck` two sets that must agree. Returns
/// whether everything held.
pub fn run(opts: &SuiteOpts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let traced_exe = exe.with_file_name("bgpbench-traced");
    if !traced_exe.exists() {
        return Err(format!(
            "{} is missing: build both binaries, as benchmark/run.sh does",
            traced_exe.display()
        ));
    }
    let env = Env::capture(opts.seed);
    println!("env {}", env.to_json().to_json());

    let first = run_set("set A", &exe, &traced_exe, opts)?;
    let mut problems = first.problems.clone();
    if opts.selfcheck {
        let second = run_set("set B", &exe, &traced_exe, opts)?;
        problems.extend(second.problems.iter().cloned());
        let bounds = bounds()?;
        let mut rows = Vec::new();
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (m, metric) in END_TO_END.iter().enumerate() {
                let (a, b) = (&first.values[w][m], &second.values[w][m]);
                let (ma, mb) = (median(a), median(b));
                let apart = ratio((ma - mb).abs(), ma);
                let spread = spread(a).max(spread(b));
                let agrees = apart <= bounds[m];
                println!(
                    "selfcheck {workload} {} A {ma} B {mb} apart {:.2}% bound {:.0}% spread {:.2}% {}{}",
                    metric.name,
                    100.0 * apart,
                    100.0 * bounds[m],
                    100.0 * spread,
                    if agrees { "ok" } else { "DISAGREE" },
                    if spread > NOISY_SPREAD { " noisy" } else { "" },
                );
                if !agrees {
                    problems.push(format!("{workload}: {} medians disagree", metric.name));
                }
                rows.push(Value::obj([
                    ("workload", Value::str(*workload)),
                    ("metric", Value::str(metric.name)),
                    ("median_a", Value::Num(ma)),
                    ("median_b", Value::Num(mb)),
                    ("apart", Value::Num(apart)),
                    ("bound", Value::Num(bounds[m])),
                    ("spread", Value::Num(spread)),
                    ("noisy", Value::Bool(spread > NOISY_SPREAD)),
                ]));
            }
        }
        let path = opts.out_dir.join("selfcheck.json");
        let doc = Value::obj([
            ("env", env.to_json()),
            ("seconds", Value::Num(seconds(opts))),
            ("runs", Value::Num(RUNS as f64)),
            ("rows", Value::Arr(rows)),
        ]);
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, doc.to_json() + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("selfcheck written to {}", path.display());
    }
    for problem in &problems {
        println!("problem {problem}");
    }
    Ok(problems.is_empty())
}
