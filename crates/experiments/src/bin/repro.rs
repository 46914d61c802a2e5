//! `repro` — regenerate the paper's tables and figures from scratch.
//!
//! ```text
//! repro <target> [options]
//!
//! targets:
//!   table1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   ext_levent     extension: link fail + recovery churn
//!   ext_burstiness extension: per-second update-rate peaks
//!   ext_rfd        extension: Route Flap Damping vs a flap storm
//!   ext_convergence extension: convergence times per MRAI mode
//!   ext_concurrency extension: per-interface vs per-prefix MRAI
//!   ext_tablesize  extension: per-event churn vs resident table size
//!   all            every target above, sharing one experiment cache
//!   perf           run cells and compare their exact op counts and
//!                  costmodel.json hash against their baselines: the
//!                  newest blessed `perf` line of each cell in the run
//!                  ledger (see --ledger). Speed is not judged here —
//!                  that is `bash benchmark/run.sh`.
//!                    --check          gate: exit 1 on any drift or
//!                                     missing baseline; never writes
//!                                     the ledger (the default mode)
//!                    --bless          append the measured cells to the
//!                                     ledger as the new baselines
//!                    --costmodel-out <file> also write costmodel.json
//!   profile        run one observed cell and print a phase profile
//!                  (see --scenario, --check)
//!   report         run one cell under NO-WRATE *and* WRATE with the
//!                  simulated-time series recorder, print the churn-
//!                  provenance panels as text tables and write a
//!                  timeseries.json artifact (see --bin-us,
//!                  --timeseries-out, --check)
//!   trend          read-only dashboard over the run ledger (`perf
//!                  --bless` appends one record per cell to
//!                  results/ledger/runs.jsonl), printed as text:
//!                  per-revision cells, scaling-exponent refits with each
//!                  class's kind (work / avoided / gauge), wall-side
//!                  context. It judges nothing (exit 0; 2 on an empty or
//!                  damaged ledger) — the regression gate is
//!                  `repro perf --check`.
//!
//! options:
//!   --tiny | --quick | --full  scale preset; --seed/--events/--sizes
//!                  override it wherever they stand on the command line
//!   --tiny         seconds-scale smoke run (n ≤ 900, 5 events). NOTE:
//!                  a handful of claims are scale-dependent (they need
//!                  n ≥ 1000 to rise above sampling noise or, for
//!                  STATIC-MIDDLE, to differ from BASELINE at all) and
//!                  may legitimately FAIL at this size; --quick and
//!                  --full are the validation modes.
//!   --quick        default: n ≤ 5000, 25 events per cell (minutes)
//!   --full         paper scale: n ≤ 10000, 100 events (hours)
//!   --seed <u64>   master seed (default 0x20080612)
//!   --events <k>   override events per cell
//!   --sizes a,b,c  override the size sweep
//!   --csv <dir>    additionally write every table as CSV into <dir>
//!   --jobs <n>     worker threads for C-event / cell fan-out. 0 (the
//!                  default) uses every hardware thread; 1 runs the plain
//!                  sequential path. Results are bit-identical either way.
//!   --metrics-out <file>  write the deterministic metrics registry of
//!                  every computed cell as JSON (byte-identical for any
//!                  --jobs value)
//!   --trace-out <file>    write sampled per-event JSONL trace records
//!   --trace-sample <n>    keep 1 in n trace records (default 1 = all;
//!                  only meaningful with --trace-out)
//!   --scenario <s> (perf/profile/report) growth scenario (default
//!                  BASELINE); perf runs it at every sweep size, profile
//!                  and report at the first
//!   --event-limit <n>  (profile only) per-phase simulator event budget;
//!                  a blown budget prints the harness's budget snapshot
//!                  (queue depth, pending events by kind, busiest inbox)
//!                  and exits non-zero instead of crashing
//!   --bin-us <n>   (report only) time-series bin width in simulated
//!                  microseconds (default 100000 = 100 ms)
//!   --timeseries-out <file> (report only) JSON path (default timeseries.json)
//!   --check        (profile) exit non-zero unless each expected phase
//!                  ran exactly once and events were processed;
//!                  (report) exit non-zero if any report panel is empty
//!   --ledger <file>  (perf/trend) the append-only run ledger: `perf`
//!                  reads its baselines from it and `--bless` appends
//!                  them, `trend` reads it (default
//!                  results/ledger/runs.jsonl). No other target opens it.
//!   --ledger-rev <rev>  (perf --bless) record this revision string
//!                  instead of `git rev-parse HEAD` (tests, CI matrices)
//!
//! Set BGPSCALE_LOG=quiet|info to control progress chatter on
//! stderr (default info).
//!
//! exit codes:
//!   0  success — targets ran and all requested checks passed
//!   1  a run or a `--check` validation failed
//!   2  usage / configuration error (unknown target or malformed option)
//! ```

#![forbid(unsafe_code)]

use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use bgpscale_bgp::BgpConfig;
use bgpscale_core::ExperimentConfig;
use bgpscale_experiments::{churnreport, figures, perf, profile, trend};
use bgpscale_experiments::{Figure, RunConfig, Sweeper};
use bgpscale_experiments::Exit;
use bgpscale_obs::ledger::{read_ledger, LedgerError};
use bgpscale_experiments::log;
use bgpscale_experiments::wall::Stopwatch;
use bgpscale_obs::{artifact, trace, TraceRecord};
use bgpscale_topology::GrowthScenario;

fn usage(problem: &str) -> Exit {
    eprintln!(
        "repro: {problem}\n\
         usage: repro <table1|fig1|fig3|fig4|...|fig12|all|perf|profile|report|trend> \
         [--tiny|--quick|--full] [--seed N] [--events K] [--sizes a,b,c] [--csv DIR] \
         [--jobs N] \
         [--metrics-out FILE] [--trace-out FILE] [--trace-sample N] \
         [--scenario S] [--event-limit N] [--bin-us N] \
         [--timeseries-out FILE] [--check] \
         [--bless] [--costmodel-out FILE] \
         [--ledger FILE] [--ledger-rev REV]\n\
         exit codes: 0 = ok, 1 = failed run or --check, 2 = usage error"
    );
    Exit::Usage
}

struct Options {
    target: String,
    cfg: RunConfig,
    csv_dir: Option<PathBuf>,
    /// Worker threads; 0 = every hardware thread.
    jobs: usize,
    /// Write the merged deterministic metrics registry here.
    metrics_out: Option<PathBuf>,
    /// Write sampled JSONL trace records here.
    trace_out: Option<PathBuf>,
    /// Keep 1 in N trace records (1 = all).
    trace_sample: u64,
    /// `perf`/`profile`/`report`: the cells' growth scenario.
    scenario: GrowthScenario,
    /// `profile`: per-phase simulator event budget override.
    event_limit: Option<u64>,
    /// `report`: time-series bin width in simulated microseconds.
    bin_us: u64,
    /// `report`: where to write the raw time series.
    timeseries_out: PathBuf,
    /// `profile`/`report`: fail the process if the check fails (`perf`
    /// checks unless `--bless`).
    check: bool,
    /// `perf`: append the measured cells as baselines instead of checking.
    bless: bool,
    /// `perf`: also write the measured cost model here.
    costmodel_out: Option<PathBuf>,
    /// `perf`/`trend`: the append-only run ledger.
    ledger: PathBuf,
    /// `perf`: revision string to record instead of `git rev-parse HEAD`.
    ledger_rev: Option<String>,
}

/// The value of `flag`: the next argument, parsed as a `T`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("{flag}: malformed value `{raw}`"))
}

/// Parses everything after the program name. The scale preset applies
/// first and `--seed`/`--events`/`--sizes` override it, whatever their
/// order on the command line.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        target: args.next().ok_or("missing target")?,
        cfg: RunConfig::quick(),
        csv_dir: None,
        jobs: 0,
        metrics_out: None,
        trace_out: None,
        trace_sample: 1,
        scenario: GrowthScenario::Baseline,
        event_limit: None,
        bin_us: 100_000,
        timeseries_out: PathBuf::from("timeseries.json"),
        check: false,
        bless: false,
        costmodel_out: None,
        ledger: PathBuf::from("results/ledger/runs.jsonl"),
        ledger_rev: None,
    };
    let (mut seed, mut events, mut sizes) = (None, None, None);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--tiny" => o.cfg = RunConfig::tiny(),
            "--quick" => o.cfg = RunConfig::quick(),
            "--full" => o.cfg = RunConfig::full(),
            "--seed" => seed = Some(value(&mut args, flag)?),
            "--events" => events = Some(value(&mut args, flag)?),
            "--sizes" => {
                let list: String = value(&mut args, flag)?;
                let parsed: Result<Vec<usize>, _> = list.split(',').map(|s| s.trim().parse()).collect();
                sizes = Some(parsed.map_err(|_| format!("{flag}: malformed value `{list}`"))?);
            }
            "--csv" => o.csv_dir = Some(value(&mut args, flag)?),
            "--jobs" => o.jobs = value(&mut args, flag)?,
            "--metrics-out" => o.metrics_out = Some(value(&mut args, flag)?),
            "--trace-out" => o.trace_out = Some(value(&mut args, flag)?),
            "--trace-sample" => o.trace_sample = value::<NonZeroU64>(&mut args, flag)?.get(),
            "--scenario" => {
                let name: String = value(&mut args, flag)?;
                o.scenario = GrowthScenario::from_name(&name)
                    .ok_or_else(|| format!("unknown scenario: {name}"))?;
            }
            "--event-limit" => o.event_limit = Some(value(&mut args, flag)?),
            "--bin-us" => o.bin_us = value::<NonZeroU64>(&mut args, flag)?.get(),
            "--timeseries-out" => o.timeseries_out = value(&mut args, flag)?,
            "--check" => o.check = true,
            "--bless" => o.bless = true,
            "--costmodel-out" => o.costmodel_out = Some(value(&mut args, flag)?),
            "--ledger" => o.ledger = value(&mut args, flag)?,
            "--ledger-rev" => {
                let rev: String = value(&mut args, flag)?;
                if rev.is_empty() {
                    return Err("--ledger-rev needs a non-empty revision".to_string());
                }
                o.ledger_rev = Some(rev);
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.target == "trend" && o.check {
        let problem = "`repro trend` only reports; the regression gate is `repro perf --check`";
        return Err(problem.to_string());
    }
    o.cfg.seed = seed.unwrap_or(o.cfg.seed);
    o.cfg.events = events.unwrap_or(o.cfg.events);
    o.cfg.sizes = sizes.unwrap_or(o.cfg.sizes);
    Ok(o)
}

impl Options {
    /// The cells of `perf`, `profile` and `report`: `--scenario` at every
    /// sweep size, with the sweep's events and seed. `profile` and
    /// `report` take the first.
    fn cells(&self) -> Vec<ExperimentConfig> {
        let RunConfig { sizes, events, seed } = &self.cfg;
        sizes
            .iter()
            .map(|&n| ExperimentConfig::new(self.scenario, n, *events, *seed, BgpConfig::default()))
            .collect()
    }
}

/// Writes the merged metrics registry as deterministic JSON.
fn write_metrics(
    path: &Path,
    metrics: &bgpscale_obs::MetricsRegistry,
) -> std::io::Result<()> {
    artifact::write(path, metrics.to_json().as_bytes())?;
    log!("wrote metrics to {}", path.display());
    Ok(())
}

/// Writes trace records as JSONL, stamped with a schema-version header
/// line.
fn write_trace(path: &Path, records: &[TraceRecord]) -> std::io::Result<()> {
    artifact::write(path, trace::to_jsonl(records).as_bytes())?;
    log!("wrote {} trace records to {}", records.len(), path.display());
    Ok(())
}

/// `repro profile`: run one observed cell, print the phase profile, and
/// optionally gate on [`profile::check`].
fn run_profile_target(opts: &Options) -> std::io::Result<Exit> {
    let cell = ExperimentConfig {
        event_limit: opts.event_limit,
        ..opts.cells().remove(0)
    };
    let trace_sample = opts.trace_out.as_ref().map(|_| opts.trace_sample);
    let out = match profile::run_profile(&cell, opts.jobs, trace_sample) {
        Ok(out) => out,
        Err(diagnosis) => {
            eprintln!("profile FAILED: {diagnosis}");
            return Ok(Exit::Fail);
        }
    };
    print!("{}", profile::render(&cell, &out));
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, &out.observed.metrics)?;
    }
    if let Some(path) = &opts.trace_out {
        write_trace(path, &out.observed.trace)?;
    }
    if opts.check {
        if let Err(reason) = profile::check(&out) {
            eprintln!("profile check FAILED: {reason}");
            return Ok(Exit::Fail);
        }
        log!("profile check passed");
    }
    Ok(Exit::Ok)
}

/// `repro report`: run one cell under both MRAI modes with the time-series
/// recorder, print the panels, write the raw `timeseries.json`, and
/// optionally gate on [`churnreport::check`].
fn run_report_target(opts: &Options) -> std::io::Result<Exit> {
    let cell = opts.cells().remove(0);
    log!(
        "report: {} n={} events={} bin={}us …",
        cell.scenario,
        cell.n,
        cell.events,
        opts.bin_us
    );
    let out = churnreport::run_report(&cell, opts.jobs, opts.bin_us);
    print!("{}", churnreport::render_text(&cell, opts.bin_us, &out));
    artifact::write(&opts.timeseries_out, out.timeseries_json.as_bytes())?;
    log!("wrote time series to {}", opts.timeseries_out.display());
    if opts.check {
        if let Err(reason) = churnreport::check(&out) {
            eprintln!("report check FAILED: {reason}");
            return Ok(Exit::Fail);
        }
        log!("report check passed");
    }
    Ok(Exit::Ok)
}

/// The current git revision, or `"unknown"` outside a work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reports a ledger failure as `who`'s and returns its exit code: a
/// filesystem failure is a run failure (1); a corrupt or schema-foreign
/// ledger is a configuration problem (2).
fn ledger_failure(who: &str, e: &LedgerError, path: &Path) -> Exit {
    if matches!(e, LedgerError::Io(_)) {
        eprintln!("{who}: {e}");
        Exit::Fail
    } else {
        eprintln!("{who}: {e} (inspect or move {} aside)", path.display());
        Exit::Usage
    }
}

/// `repro trend`: fold the ledger and print the dashboard. Read-only and
/// verdict-free.
fn run_trend_target(opts: &Options) -> Exit {
    let path = &opts.ledger;
    let records = match read_ledger(path) {
        Ok(records) => records,
        Err(e) => return ledger_failure("trend", &e, path),
    };
    if records.is_empty() {
        eprintln!(
            "trend: ledger {} is empty — run `repro perf --bless` first",
            path.display()
        );
        return Exit::Usage;
    }
    let report = trend::analyze(&records);
    print!("{}", trend::render_text(&records, &report));
    Exit::Ok
}

/// `repro perf`: check the exact op counts of every sweep size against
/// the cell's ledger baseline, or `--bless` them as the new baselines
/// (policy in [`perf::run`]).
fn run_perf_target(opts: &Options) -> Exit {
    let ledger = &opts.ledger;
    let jobs = bgpscale_simkernel::pool::effective_jobs(opts.jobs).max(1);
    let cells = opts.cells();
    let rev = opts.ledger_rev.clone().unwrap_or_else(git_rev);
    let outcomes = match perf::run(&cells, jobs, opts.bless, ledger, &rev) {
        Ok(outcomes) => outcomes,
        Err(e) => return ledger_failure("perf", &e, ledger),
    };
    let mut exit = Exit::Ok;
    for (cell, (measurement, verdict)) in cells.iter().zip(&outcomes) {
        let n = cell.n;
        match verdict {
            Ok(()) => log!("perf: n={n} OK ({} total ops)", measurement.ops.grand_total()),
            Err(msgs) => {
                for msg in msgs {
                    eprintln!("perf: n={n} FAILED: {msg}");
                }
                exit = Exit::Fail;
            }
        }
        if let Some(path) = &opts.costmodel_out {
            // One size writes the exact path; more sizes get a per-size
            // suffix so nothing is silently overwritten.
            let path = if cells.len() == 1 {
                path.clone()
            } else {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("costmodel");
                let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
                path.with_file_name(format!("{stem}_n{n}.{ext}"))
            };
            if let Err(e) = artifact::write(&path, measurement.cost.to_json().as_bytes()) {
                eprintln!("perf: writing {} failed: {e}", path.display());
                return Exit::Fail;
            }
            log!("perf: wrote {}", path.display());
        }
    }
    exit
}

/// Writes `fig`'s tables as stamped CSV files into `dir`.
fn write_csv(dir: &Path, fig: &Figure) -> std::io::Result<()> {
    for (name, csv) in fig.csv_files() {
        artifact::write(&dir.join(name), csv.as_bytes())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(opts) => run(&opts),
        Err(problem) => usage(&problem),
    }
    .into()
}

fn run(opts: &Options) -> Exit {
    match opts.target.as_str() {
        "perf" => return run_perf_target(opts),
        "trend" => return run_trend_target(opts),
        "profile" | "report" => {
            let result = if opts.target == "profile" {
                run_profile_target(opts)
            } else {
                run_report_target(opts)
            };
            return result.unwrap_or_else(|e| {
                eprintln!("{} failed: {e}", opts.target);
                Exit::Fail
            });
        }
        _ => {}
    }
    let started = Stopwatch::start();
    let mut sw = Sweeper::new(opts.cfg.clone());
    sw.set_jobs(opts.jobs);
    if opts.metrics_out.is_some() || opts.trace_out.is_some() {
        let sample = opts.trace_out.as_ref().map(|_| opts.trace_sample);
        sw.enable_telemetry(sample);
    }

    let targets: Vec<_> = figures::TARGETS
        .iter()
        .filter(|(name, _)| opts.target == "all" || opts.target == *name)
        .collect();
    if targets.is_empty() {
        return usage(&format!("unknown target: {}", opts.target));
    }

    let (mut failed_claims, mut known_divergences) = (0usize, 0usize);
    for (_, figure) in targets {
        let fig = figure(&mut sw);
        println!("{}", fig.render());
        for c in fig.claims.iter().filter(|c| !c.holds) {
            if c.known_divergence {
                known_divergences += 1;
            } else {
                failed_claims += 1;
            }
        }
        if let Some(dir) = &opts.csv_dir {
            if let Err(e) = write_csv(dir, &fig) {
                log!("warning: CSV export failed: {e}");
            }
        }
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = write_metrics(path, sw.metrics()) {
            eprintln!("writing {} failed: {e}", path.display());
            return Exit::Fail;
        }
    }
    if let Some(path) = &opts.trace_out {
        let trace = sw.take_trace();
        if let Err(e) = write_trace(path, &trace) {
            eprintln!("writing {} failed: {e}", path.display());
            return Exit::Fail;
        }
    }
    log!(
        "done in {:.1}s ({} experiment cells, {} failed claims, {} known divergences)",
        started.elapsed_secs_f64(),
        sw.cached_cells(),
        failed_claims,
        known_divergences
    );
    if failed_claims > 0 {
        Exit::Fail
    } else {
        Exit::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn overrides_beat_the_preset_in_either_order() {
        for line in [
            "perf --check --sizes 300 --events 5 --seed 9 --tiny",
            "perf --tiny --check --sizes 300 --events 5 --seed 9",
        ] {
            let o = parse(line).unwrap();
            assert_eq!((o.cfg.sizes, o.cfg.events, o.cfg.seed), (vec![300], 5, 9), "{line}");
        }
        // What no override names is the preset's, the last preset winning.
        let o = parse("fig4 --events 2 --quick --tiny").unwrap();
        assert_eq!((o.cfg.sizes, o.cfg.events), (RunConfig::tiny().sizes, 2));
        assert_eq!(o.cfg.seed, RunConfig::tiny().seed);
    }

    #[test]
    fn malformed_missing_and_unknown_values_are_errors() {
        for line in [
            "",
            "fig4 --jobs many",
            "fig4 --sizes 300,,600",
            "fig4 --events",
            "fig4 --trace-sample 0",
            "report --bin-us 0",
            "profile --cell-n 300",
            "profile --scenario NOPE",
            "profile --ledger-rev",
            "fig4 --frobnicate",
            "report --report-out x",
            "trend --trend-out x",
            "trend --window 5",
            "trend --band 10",
            "trend --exp-band 0.25",
            "profile --no-ledger",
        ] {
            assert!(parse(line).is_err(), "`{line}` must be a usage error");
        }
    }

    #[test]
    fn trend_refuses_gate_flags_with_a_pointer_to_perf_check() {
        let problem = parse("trend --check").err().expect("`trend --check` must not parse");
        assert!(problem.contains("repro perf --check"), "{problem}");
        assert!(parse("trend --ledger runs.jsonl").is_ok());
        assert!(parse("profile --check").is_ok(), "--check still gates profile/report");
    }
}
