//! `repro profile` — one observed experiment cell with a phase profile.
//!
//! Runs a single `(scenario, n)` cell with a full metrics recorder
//! attached, times each harness phase with wall-clock spans, and renders
//! a human-readable breakdown: where the time goes, what the simulators
//! did, and how the distributions look. The deterministic half of the
//! output (the metrics registry and any trace records) can be written to
//! files; the span timings are wall-clock and stay on the terminal.
//!
//! The `check` gate is what CI runs: it fails when an expected phase span
//! recorded nothing or when the simulators processed zero events —
//! catching "the harness silently did no work" regressions.

use bgpscale_core::{run_cell, CellError, ExperimentConfig, ObserveOptions, ObservedReport};
use bgpscale_obs::ledger::{ArtifactHashes, LedgerRecord, RunKind};
use bgpscale_obs::span::{self, SpanStats};
use bgpscale_simkernel::Stopwatch;
use bgpscale_topology::GrowthScenario;

use crate::perf::{artifact_hash, cell_record};

/// One profiled cell.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Growth scenario of the cell.
    pub scenario: GrowthScenario,
    /// Network size.
    pub n: usize,
    /// C-events to run.
    pub events: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker budget (0 = all hardware threads).
    pub jobs: usize,
    /// Keep 1-in-`n` trace records when `Some(n)`.
    pub trace_sample: Option<u64>,
    /// Per-phase simulator event budget override. Small budgets force the
    /// failure path: [`run_profile`] returns the harness's [`CellError`]
    /// with its budget snapshot (queue depth, pending events by kind,
    /// busiest inbox).
    pub event_limit: Option<u64>,
}

impl ProfileConfig {
    /// The experiment cell this config profiles (default BGP config).
    pub fn cell(&self) -> ExperimentConfig {
        ExperimentConfig {
            scenario: self.scenario,
            n: self.n,
            events: self.events,
            seed: self.seed,
            bgp: Default::default(),
            event_limit: self.event_limit,
            wheel_slot_bits: None,
        }
    }
}

/// The result of [`run_profile`].
#[derive(Clone, Debug)]
pub struct ProfileOutput {
    /// The observed run: report + metrics + trace.
    pub observed: ObservedReport,
    /// Wall-clock span profile (name, stats), name-ordered.
    pub spans: Vec<(&'static str, SpanStats)>,
    /// Total wall time of the profiled run in seconds.
    pub wall_s: f64,
    /// The worker count the run used: [`ProfileConfig::jobs`] with 0
    /// resolved to the hardware threads.
    pub jobs: usize,
}

/// The phase spans every profiled run must record.
pub const EXPECTED_SPANS: [&str; 4] = [
    "generate_topology",
    "build_template",
    "run_events",
    "fold_measurements",
];

/// Runs one observed cell under a fresh span profile.
///
/// Resets the process-global span registry first so the profile covers
/// exactly this run — don't interleave with other span-recording work.
///
/// # Errors
/// The harness's [`CellError`] when a C-event exhausts its event budget.
/// Its `Display` is the whole diagnosis — cell, event index and the
/// [`bgpscale_core::BudgetSnapshot`] rendering with queue depth, pending
/// events by kind, and the busiest inbox — which the `profile` subcommand
/// prints as *why* the cell failed.
pub fn run_profile(cfg: &ProfileConfig) -> Result<ProfileOutput, CellError> {
    span::reset();
    let watch = Stopwatch::start();
    let jobs = bgpscale_simkernel::pool::effective_jobs(cfg.jobs).max(1);
    let opts = ObserveOptions {
        trace_sample: cfg.trace_sample,
        timeseries_bin_us: None,
    };
    let observed = run_cell(&cfg.cell(), jobs, Some(&opts))?;
    Ok(ProfileOutput {
        observed,
        spans: span::snapshot(),
        wall_s: watch.elapsed_secs_f64(),
        jobs,
    })
}

/// [`cell_record`] of one profiled cell, with content hashes of every
/// deterministic artifact the run produced.
pub fn profile_record(cfg: &ProfileConfig, out: &ProfileOutput, git_rev: &str) -> LedgerRecord {
    let observed = &out.observed;
    let artifacts = ArtifactHashes {
        metrics: Some(artifact_hash(&observed.metrics.to_json())),
        timeseries: observed.timeseries.as_ref().map(|ts| artifact_hash(&ts.to_json())),
        costmodel: Some(artifact_hash(&observed.cost.to_json())),
    };
    let ops = observed.cost.total();
    cell_record(RunKind::Profile, &cfg.cell(), out.jobs, ops, artifacts, out.wall_s, git_rev)
}

/// The CI gate: every expected span recorded at least one call, and the
/// simulators actually processed events.
///
/// # Errors
/// A human-readable description of the first violated expectation.
pub fn check(out: &ProfileOutput) -> Result<(), String> {
    for name in EXPECTED_SPANS {
        match out.spans.iter().find(|(n, _)| *n == name) {
            None => return Err(format!("span \"{name}\" was never recorded")),
            Some((_, stats)) if stats.calls == 0 => {
                return Err(format!("span \"{name}\" recorded zero calls"))
            }
            Some(_) => {}
        }
    }
    let events = out.observed.metrics.counter("events.total");
    if events == 0 {
        return Err("simulators processed zero events".to_string());
    }
    let cells = out.observed.metrics.counter("experiment.events");
    if cells == 0 {
        return Err("no C-events were measured".to_string());
    }
    Ok(())
}

/// Renders the profile as terminal text: the span table, headline
/// counters, and histogram summaries.
pub fn render(cfg: &ProfileConfig, out: &ProfileOutput) -> String {
    use std::fmt::Write as _;

    let mut s = String::new();
    let r = &out.observed.report;
    let m = &out.observed.metrics;
    let _ = writeln!(
        s,
        "profile: {} n={} events={} seed={:#x}",
        cfg.scenario, cfg.n, r.events, cfg.seed
    );
    let _ = writeln!(s, "wall time: {:.3}s", out.wall_s);
    let _ = writeln!(s);

    // Span table, largest total first (wall-clock, non-deterministic).
    let mut spans = out.spans.clone();
    spans.sort_by_key(|(_, st)| std::cmp::Reverse(st.total_ns));
    let _ = writeln!(s, "{:<20} {:>8} {:>12} {:>12}", "phase", "calls", "total_s", "mean_s");
    for (name, st) in &spans {
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>12.6} {:>12.6}",
            name,
            st.calls,
            st.total_secs(),
            st.mean_secs()
        );
    }
    let _ = writeln!(s);

    // Headline deterministic counters.
    let _ = writeln!(s, "{:<28} {:>14}", "counter", "value");
    for (name, value) in m.counters() {
        let _ = writeln!(s, "{name:<28} {value:>14}");
    }
    for (name, g) in m.gauges() {
        let _ = writeln!(s, "{:<28} {:>14} (max {})", name, g.value, g.max);
    }
    let _ = writeln!(s);

    for (name, h) in m.histograms() {
        let _ = writeln!(
            s,
            "histogram {name}: count={} mean={:.2} max={}",
            h.count(),
            h.mean(),
            h.max()
        );
        let buckets: Vec<String> = h
            .bounds()
            .iter()
            .map(|b| b.to_string())
            .chain(std::iter::once("inf".to_string()))
            .zip(h.bucket_counts())
            .map(|(b, c)| format!("<={b}: {c}"))
            .collect();
        let _ = writeln!(s, "  {}", buckets.join("  "));
    }

    if !out.observed.trace.is_empty() {
        let _ = writeln!(s);
        let _ = writeln!(s, "trace records kept: {}", out.observed.trace.len());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // `run_profile` resets the process-global span registry; serialize
    // these tests so one reset cannot wipe another run's spans mid-flight.
    static PROFILE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny_cfg() -> ProfileConfig {
        ProfileConfig {
            scenario: GrowthScenario::Baseline,
            n: 150,
            events: 2,
            seed: 0xBEEF,
            jobs: 1,
            trace_sample: Some(10),
            event_limit: None,
        }
    }

    #[test]
    fn profile_runs_and_passes_check() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        let cfg = tiny_cfg();
        let out = run_profile(&cfg).expect("tiny profile must complete");
        check(&out).expect("tiny profile must pass its own gate");
        assert!(out.wall_s > 0.0);
        assert!(out.observed.metrics.counter("events.total") > 0);
        let text = render(&cfg, &out);
        assert!(text.contains("run_events"), "span table rendered: {text}");
        assert!(text.contains("events.total"), "counters rendered");
        assert!(text.contains("histogram messages.path_len"), "histograms rendered");
    }

    #[test]
    fn check_rejects_empty_output() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        let cfg = tiny_cfg();
        let mut out = run_profile(&cfg).expect("tiny profile must complete");
        out.spans.retain(|(n, _)| *n != "run_events");
        assert!(check(&out).unwrap_err().contains("run_events"));
    }

    #[test]
    fn perf_and_profile_records_share_the_cell_fingerprint() {
        use crate::perf::{measure, perf_record, PerfConfig};
        let _guard = PROFILE_LOCK.lock().unwrap();
        let perf_cfg = PerfConfig {
            scenario: GrowthScenario::Baseline,
            n: 150,
            events: 2,
            seed: 7,
            jobs: 1,
            perturb: None,
        };
        let pr = perf_record(&perf_cfg, &measure(&perf_cfg), "r1");
        let prof_cfg = ProfileConfig {
            seed: 7,
            trace_sample: None,
            ..tiny_cfg()
        };
        let out = run_profile(&prof_cfg).unwrap();
        let fr = profile_record(&prof_cfg, &out, "r1");
        // Same cell coordinates → same fingerprint and identical ops
        // (determinism); different kinds → distinct det hashes.
        assert_eq!(pr.fingerprint(), fr.fingerprint());
        assert_eq!(pr.ops, fr.ops, "op counts are a pure function of the cell");
        assert_ne!(pr.det_hash(), fr.det_hash(), "kind is part of the det block");
        assert!(fr.artifacts.metrics.is_some(), "profile hashes metrics.json");
        assert!(fr.artifacts.costmodel.is_some());
        // The mode label is the config's, not a constant: the same cell
        // under WRATE is another fingerprint.
        let wrate = ExperimentConfig {
            bgp: bgpscale_bgp::BgpConfig::wrate(),
            ..perf_cfg.cell()
        };
        let wr = cell_record(RunKind::Perf, &wrate, 1, pr.ops, pr.artifacts, 0.0, "r1");
        assert_eq!((pr.mode.as_str(), wr.mode.as_str()), ("NO-WRATE", "WRATE"));
        assert_ne!(pr.fingerprint(), wr.fingerprint());
    }

    /// `jobs: 0` asks for every hardware thread; the ledger's wall tier
    /// records how many that was, never the request.
    #[test]
    fn a_default_jobs_profile_records_the_effective_worker_count() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        let cfg = ProfileConfig {
            jobs: 0,
            trace_sample: None,
            ..tiny_cfg()
        };
        let out = run_profile(&cfg).unwrap();
        let record = profile_record(&cfg, &out, "r1");
        assert!(record.wall.jobs >= 1, "recorded {} workers", record.wall.jobs);
        assert_eq!(record.wall.jobs, bgpscale_simkernel::pool::effective_jobs(0).max(1) as u64);
    }

    /// A blown event budget surfaces the harness's typed error, budget
    /// snapshot included, from a worker thread as from the calling one.
    #[test]
    fn budget_failure_surfaces_the_snapshot() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        let cfg = ProfileConfig {
            jobs: 2,
            event_limit: Some(3),
            ..tiny_cfg()
        };
        let err = run_profile(&cfg).unwrap_err();
        assert_eq!((err.scenario, err.n, err.event), (cfg.scenario, cfg.n, 0));
        assert_eq!((err.cause.budget, err.cause.processed), (3, 4));
        assert!(err.cause.snapshot.queue_depth > 0, "nothing pending: {err:?}");
        // What `repro profile` prints after `profile FAILED: `.
        let text = err.to_string();
        assert!(text.starts_with("BASELINE n=150 event 0: "), "{text}");
        assert!(text.contains("did not quiesce"), "diagnosis missing: {text}");
        assert!(
            text.contains("pending (deliver") && text.contains("proc_done"),
            "pending-by-kind not rendered: {text}"
        );
    }
}
