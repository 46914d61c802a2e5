//! `repro profile` — one observed experiment cell with a phase profile.
//!
//! Runs a single `(scenario, n)` cell with a full metrics recorder
//! attached, times each phase of [`run_cell`] with the host clock through
//! the phase hook it takes, and renders a human-readable breakdown: where
//! the time goes, what the simulators did, and how the distributions look.
//! The deterministic half of the output (the metrics registry and any
//! trace records) can be written to files; the phase timings are
//! wall-clock and stay on the terminal.
//!
//! The `check` gate is what CI runs: it fails unless each expected phase
//! was entered exactly once, or when the simulators processed zero events
//! — catching "the harness silently did no work" regressions.

use bgpscale_core::{run_cell, CellError, CellPhase, ExperimentConfig, ObserveOptions, ObservedReport};
use bgpscale_obs::ledger::{ArtifactHashes, LedgerRecord, RunKind};

use crate::perf::{artifact_hash, cell_record};
use crate::wall::Stopwatch;

/// The result of [`run_profile`].
#[derive(Clone, Debug)]
pub struct ProfileOutput {
    /// The observed run: report + metrics + trace.
    pub observed: ObservedReport,
    /// Each phase the run entered, in order, with its wall time in
    /// nanoseconds.
    pub phases: Vec<(&'static str, u128)>,
    /// Total wall time of the profiled run in seconds.
    pub wall_s: f64,
    /// The worker count the run used: the `jobs` asked for, with 0
    /// resolved to the hardware threads.
    pub jobs: usize,
}

/// The phases every profiled run must enter, each exactly once.
pub const EXPECTED_PHASES: [&str; 4] = [
    "generate_topology",
    "build_template",
    "run_events",
    "fold_measurements",
];

/// Runs `cell` observed, on up to `jobs` workers (0 = all hardware
/// threads) and keeping 1-in-`n` trace records when `trace_sample` is
/// `Some(n)`, timing each phase [`run_cell`] reports.
///
/// # Errors
/// The harness's [`CellError`] when a C-event exhausts its event budget
/// (`cell.event_limit` forces that path).
/// Its `Display` is the whole diagnosis — cell, event index and the
/// [`bgpscale_core::BudgetSnapshot`] rendering with queue depth, pending
/// events by kind, and the busiest inbox — which the `profile` subcommand
/// prints as *why* the cell failed.
pub fn run_profile(
    cell: &ExperimentConfig,
    jobs: usize,
    trace_sample: Option<u64>,
) -> Result<ProfileOutput, CellError> {
    let watch = Stopwatch::start();
    let jobs = bgpscale_simkernel::pool::effective_jobs(jobs).max(1);
    let opts = ObserveOptions {
        trace_sample,
        timeseries_bin_us: None,
    };
    // Each boundary closes the phase before it; the return closes the last.
    let mut entered: Vec<(CellPhase, u128)> = Vec::new();
    let observed = run_cell(cell, jobs, Some(&opts), |phase| {
        entered.push((phase, watch.elapsed_ns()));
    })?;
    let end = watch.elapsed_ns();
    let ends = entered.iter().skip(1).map(|&(_, at)| at).chain([end]);
    let phases = entered.iter().zip(ends).map(|(&(phase, start), end)| (phase.name(), end - start));
    Ok(ProfileOutput {
        observed,
        phases: phases.collect(),
        wall_s: end as f64 / 1e9,
        jobs,
    })
}

/// [`cell_record`] of profiled `cell`, with content hashes of every
/// deterministic artifact the run produced.
pub fn profile_record(cell: &ExperimentConfig, out: &ProfileOutput, git_rev: &str) -> LedgerRecord {
    let observed = &out.observed;
    let artifacts = ArtifactHashes {
        metrics: Some(artifact_hash(&observed.metrics.to_json())),
        timeseries: observed.timeseries.as_ref().map(|ts| artifact_hash(&ts.to_json())),
        costmodel: Some(artifact_hash(&observed.cost.to_json())),
    };
    let ops = observed.cost.total();
    cell_record(RunKind::Profile, cell, out.jobs, ops, artifacts, out.wall_s, git_rev)
}

/// The CI gate: each expected phase was entered exactly once, and the
/// simulators actually processed events.
///
/// # Errors
/// A human-readable description of the first violated expectation.
pub fn check(out: &ProfileOutput) -> Result<(), String> {
    for name in EXPECTED_PHASES {
        let entered = out.phases.iter().filter(|(n, _)| *n == name).count();
        if entered != 1 {
            return Err(format!("phase \"{name}\" was entered {entered} times, not once"));
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

/// Renders the profile of `cell` as terminal text: the phase table,
/// headline counters, and histogram summaries.
pub fn render(cell: &ExperimentConfig, out: &ProfileOutput) -> String {
    use std::fmt::Write as _;

    let mut s = String::new();
    let r = &out.observed.report;
    let m = &out.observed.metrics;
    let _ = writeln!(
        s,
        "profile: {} n={} events={} seed={:#x}",
        cell.scenario, cell.n, r.events, cell.seed
    );
    let _ = writeln!(s, "wall time: {:.3}s", out.wall_s);
    let _ = writeln!(s);

    // Phase table in run order (wall-clock, non-deterministic).
    let _ = writeln!(s, "{:<20} {:>12}", "phase", "wall_s");
    for &(name, ns) in &out.phases {
        let _ = writeln!(s, "{:<20} {:>12.6}", name, ns as f64 / 1e9);
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
    use bgpscale_topology::GrowthScenario;

    fn tiny_cell() -> ExperimentConfig {
        ExperimentConfig::new(GrowthScenario::Baseline, 150, 2, 0xBEEF, Default::default())
    }

    #[test]
    fn profile_runs_and_passes_check() {
        let cell = tiny_cell();
        let out = run_profile(&cell, 1, Some(10)).expect("tiny profile must complete");
        check(&out).expect("tiny profile must pass its own gate");
        assert!(out.wall_s > 0.0);
        assert!(out.observed.metrics.counter("events.total") > 0);
        let text = render(&cell, &out);
        assert!(text.contains("run_events"), "phase table rendered: {text}");
        assert!(text.contains("events.total"), "counters rendered");
        assert!(text.contains("histogram messages.path_len"), "histograms rendered");
    }

    #[test]
    fn check_wants_each_phase_exactly_once() {
        let out = run_profile(&tiny_cell(), 1, Some(10)).expect("tiny profile must complete");
        let names: Vec<&str> = out.phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, EXPECTED_PHASES, "run_cell enters its phases once each, in order");

        let mut missing = out.clone();
        missing.phases.retain(|(n, _)| *n != "run_events");
        assert!(check(&missing).unwrap_err().contains("\"run_events\" was entered 0 times"));

        let mut twice = out;
        twice.phases.push(("build_template", 1));
        assert!(check(&twice).unwrap_err().contains("\"build_template\" was entered 2 times"));
    }

    #[test]
    fn perf_and_profile_records_share_the_cell_fingerprint() {
        use crate::perf::{measure, perf_record};
        let cell = ExperimentConfig { seed: 7, ..tiny_cell() };
        let pr = perf_record(&cell, &measure(&cell, 1), "r1");
        let out = run_profile(&cell, 1, None).unwrap();
        let fr = profile_record(&cell, &out, "r1");
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
            ..cell
        };
        let wr = cell_record(RunKind::Perf, &wrate, 1, pr.ops, pr.artifacts, 0.0, "r1");
        assert_eq!((pr.mode.as_str(), wr.mode.as_str()), ("NO-WRATE", "WRATE"));
        assert_ne!(pr.fingerprint(), wr.fingerprint());
    }

    /// `jobs: 0` asks for every hardware thread; the ledger's wall tier
    /// records how many that was, never the request.
    #[test]
    fn a_default_jobs_profile_records_the_effective_worker_count() {
        let cell = tiny_cell();
        let out = run_profile(&cell, 0, None).unwrap();
        let record = profile_record(&cell, &out, "r1");
        assert!(record.wall.jobs >= 1, "recorded {} workers", record.wall.jobs);
        assert_eq!(record.wall.jobs, bgpscale_simkernel::pool::effective_jobs(0).max(1) as u64);
    }

    /// A blown event budget surfaces the harness's typed error, budget
    /// snapshot included, from a worker thread as from the calling one.
    #[test]
    fn budget_failure_surfaces_the_snapshot() {
        let cell = ExperimentConfig {
            event_limit: Some(3),
            ..tiny_cell()
        };
        let err = run_profile(&cell, 2, Some(10)).unwrap_err();
        assert_eq!((err.scenario, err.n, err.event), (cell.scenario, cell.n, 0));
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
