//! `repro perf`: the repo's one regression gate, over the exact cost model.
//!
//! A cell's **baseline** is a line of the run ledger (`obs::ledger`,
//! default `results/ledger/runs.jsonl`, which holds the current schema
//! only): the newest record whose config fingerprint `(scenario, n,
//! mode, seed, events)` is the cell's. [`run`] with `bless` is the only
//! code that writes the ledger — a `--check` never appends, so a drifted
//! measurement cannot bless itself. Because the counts are exact
//! integers and a pure function of the cell, the comparison is exact
//! equality of the record's `det` tier: each of the fifteen op counts and
//! the `costmodel.json` content hash, which pins every per-event,
//! per-phase count as well. Any drift is a real behavior change (more
//! decision runs, more queue work, …) and must be either fixed or
//! consciously re-blessed with `repro perf --bless`, with the cause in
//! the commit. Nothing second-guesses a bless: `repro trend` only draws
//! the step it leaves in the history. Wall time is recorded in the `wall`
//! tier for context and never compared: speed is judged by
//! `benchmark/run.sh`.
//!
//! Exit codes follow the repo-wide convention ([`crate::Exit`]): 0 =
//! pass, 1 = check failed (drift, or no baseline for the cell), 2 =
//! usage/config error (damaged ledger).
//!
//! CI proves the check has teeth with a seeded fault in the simulator
//! (`scripts/mutate.sh` on one op count in `core::sim`): `--check` must
//! then exit exactly 1 naming the drift.
//!
//! [`perf_record`] is the one builder of ledger lines.

use std::path::Path;

use bgpscale_core::{run_cell, ExperimentConfig};
use bgpscale_obs::costmodel::OpCounts;
use bgpscale_obs::ledger::{append_records, read_ledger, LedgerError, LedgerRecord, WallSide};
use bgpscale_obs::CostModel;
use bgpscale_simkernel::rng::hash64_bytes;

use crate::log;
use crate::wall::Stopwatch;

/// The measured side of one cell.
#[derive(Clone, Debug)]
pub struct PerfMeasurement {
    pub ops: OpCounts,
    pub wall_s: f64,
    /// The full model, for `--costmodel-out` and the record's hash.
    pub cost: CostModel,
    /// The worker count the cell ran on.
    pub jobs: usize,
}

/// Runs `cell` on up to `jobs` workers and returns its measured cost
/// model and wall time. Panics with the [`bgpscale_core::CellError`]'s
/// text if the cell fails: on the simulator's default event budget, that
/// is a model bug.
pub fn measure(cell: &ExperimentConfig, jobs: usize) -> PerfMeasurement {
    let jobs = jobs.max(1);
    let started = Stopwatch::start();
    let cost = run_cell(cell, jobs, None, |_| {}).unwrap_or_else(|e| panic!("{e}")).cost;
    let wall_s = started.elapsed_secs_f64();
    PerfMeasurement {
        ops: cost.total(),
        wall_s,
        cost,
        jobs,
    }
}

/// The ledger record of one `repro perf` measurement of `cell`: the
/// deterministic tier from the cell's config, op counts and
/// `costmodel.json` hash, the wall tier in integer units. It is what
/// `--check` compares against the cell's baseline and what `--bless`
/// appends.
#[expect(
    clippy::disallowed_methods,
    reason = "peak RSS goes to the wall tier, which no check compares"
)]
pub fn perf_record(cell: &ExperimentConfig, m: &PerfMeasurement, git_rev: &str) -> LedgerRecord {
    LedgerRecord {
        git_rev: git_rev.to_string(),
        scenario: cell.scenario.to_string(),
        n: cell.n as u64,
        mode: cell.bgp.mrai_mode.label().to_string(),
        seed: cell.seed,
        events: cell.events as u64,
        ops: m.ops,
        costmodel: hash64_bytes(m.cost.to_json().as_bytes()),
        wall: WallSide {
            wall_us: (m.wall_s * 1e6).max(0.0).round() as u64,
            jobs: m.jobs as u64,
            peak_rss_bytes: bgpscale_simkernel::peak_rss_bytes(),
        },
    }
}

/// The baseline of `cell` in `history` (append order, as `read_ledger`
/// returns it); see the module docs for what qualifies.
pub fn baseline<'a>(history: &'a [LedgerRecord], cell: &LedgerRecord) -> Option<&'a LedgerRecord> {
    let fingerprint = cell.fingerprint();
    history.iter().rev().find(|r| r.fingerprint() == fingerprint)
}

/// How one cell's check ended: `Err` carries one message per finding (a
/// missing baseline's carries the `--bless` hint).
pub type Verdict = Result<(), Vec<String>>;

/// Compares a measured cell record against its baseline in `history`.
pub fn check(history: &[LedgerRecord], cell: &LedgerRecord) -> Verdict {
    let Some(base) = baseline(history, cell) else {
        return Err(vec![format!(
            "no perf baseline in the ledger for {} n={} {} seed={} events={} \
             (fingerprint {:016x}); record one with `repro perf --bless`",
            cell.scenario,
            cell.n,
            cell.mode,
            cell.seed,
            cell.events,
            cell.fingerprint()
        )]);
    };
    let mut failures: Vec<String> = cell
        .ops
        .fields()
        .into_iter()
        .zip(base.ops.fields())
        .filter(|((_, new), (_, blessed))| new != blessed)
        .map(|((class, new), (_, blessed))| {
            format!(
                "op count drift: {class} = {new}, baseline {blessed} ({:+}) at rev {}",
                i128::from(new) - i128::from(blessed),
                base.git_rev
            )
        })
        .collect();
    if cell.costmodel != base.costmodel {
        failures.push(format!(
            "costmodel.json hash {:016x} != baseline {:016x} — the per-event, per-phase \
             attribution moved",
            cell.costmodel, base.costmodel
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// One `repro perf` run: measures every cell on up to `jobs` workers,
/// then checks each against its baseline in the ledger at `ledger` or,
/// with `bless`, appends their records to it in one batch. A check reads
/// the ledger and never writes it.
///
/// # Errors
/// Any [`LedgerError`] from reading (a damaged ledger is refused before
/// anything is measured) or appending.
pub fn run(
    cells: &[ExperimentConfig],
    jobs: usize,
    bless: bool,
    ledger: &Path,
    git_rev: &str,
) -> Result<Vec<(PerfMeasurement, Verdict)>, LedgerError> {
    let history = read_ledger(ledger)?;
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut blessed = Vec::new();
    for cell in cells {
        log!(
            "perf: {} n={} events={} seed={} ({}) …",
            cell.scenario,
            cell.n,
            cell.events,
            cell.seed,
            if bless { "bless" } else { "check" }
        );
        let m = measure(cell, jobs);
        let record = perf_record(cell, &m, git_rev);
        let verdict = if bless {
            blessed.push(record);
            Ok(())
        } else {
            check(&history, &record)
        };
        outcomes.push((m, verdict));
    }
    if bless {
        let outcome = append_records(ledger, &blessed)?;
        log!(
            "perf: blessed {} cell(s) into {} ({} deduped)",
            outcome.appended,
            ledger.display(),
            outcome.deduped
        );
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::GrowthScenario;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::new(GrowthScenario::Baseline, 150, 2, 7, Default::default())
    }

    fn record(cell: &ExperimentConfig, rev: &str) -> LedgerRecord {
        perf_record(cell, &measure(cell, 2), rev)
    }

    #[test]
    fn newest_perf_line_of_the_cell_is_the_baseline() {
        let cfg = tiny();
        let cell = record(&cfg, "head");
        let mut stale = record(&cfg, "r1");
        stale.ops.deliveries += 1;
        let blessed = record(&cfg, "r2");
        let other_cell = record(&ExperimentConfig { n: 175, ..tiny() }, "r3");
        // The mode label is the config's, not a constant: the same cell
        // under WRATE is another fingerprint, so not a baseline here.
        let wrate = ExperimentConfig {
            bgp: bgpscale_bgp::BgpConfig::wrate(),
            ..tiny()
        };
        let rated = record(&wrate, "r4");
        assert_eq!((cell.mode.as_str(), rated.mode.as_str()), ("NO-WRATE", "WRATE"));
        let history = [stale, blessed, other_cell, rated];
        assert_eq!(baseline(&history, &cell).unwrap().git_rev, "r2");
        assert_eq!(check(&history, &cell), Ok(()));
        // With only the drifted line left, the same cell fails.
        let msgs = check(&history[..1], &cell).unwrap_err();
        assert!(msgs.iter().any(|m| m.contains("op count drift: deliveries")), "{msgs:?}");
    }

    #[test]
    fn any_single_class_off_by_one_fails_naming_exactly_that_class() {
        let blessed = record(&tiny(), "r1");
        for (idx, &(class, _)) in OpCounts::CLASSES.iter().enumerate() {
            for delta in [1i64, -1] {
                let mut fields = blessed.ops.fields();
                let Some(moved) = fields[idx].1.checked_add_signed(delta) else {
                    continue; // a zero count has no "one below"
                };
                fields[idx].1 = moved;
                let mut cell = blessed.clone();
                cell.ops = OpCounts::from_fields(&fields);
                let msgs = check(std::slice::from_ref(&blessed), &cell).unwrap_err();
                assert_eq!(msgs.len(), 1, "{class}: {msgs:?}");
                assert!(
                    msgs[0].starts_with(&format!("op count drift: {class} = {moved},"))
                        && msgs[0].contains(&format!("({delta:+})")),
                    "{class}: {msgs:?}"
                );
            }
        }
    }

    #[test]
    fn the_costmodel_hash_is_checked_and_wall_time_is_not() {
        let cfg = tiny();
        let cell = record(&cfg, "head");
        let mut moved = cell.clone();
        moved.costmodel = 1;
        let msgs = check(&[moved], &cell).unwrap_err();
        assert!(msgs.len() == 1 && msgs[0].contains("costmodel.json hash"), "{msgs:?}");
        for wall_us in [0, 1, cell.wall.wall_us.max(1) * 1000] {
            let mut other_machine = cell.clone();
            other_machine.wall.wall_us = wall_us;
            assert_eq!(check(&[other_machine], &cell), Ok(()), "baseline wall {wall_us} µs");
        }
    }
}
