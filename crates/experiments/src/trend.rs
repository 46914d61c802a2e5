//! `repro trend`: a read-only dashboard over the run ledger.
//!
//! The ledger (`obs::ledger`, default `results/ledger/runs.jsonl`) is the
//! append-only history `repro perf --bless` and every `repro profile` run
//! write. This module only reads its [`LedgerRecord`]s and judges
//! nothing: the repo's one regression gate is `repro perf --check`
//! (`crate::perf`), and a re-blessed baseline shows here as a step
//! between two revisions, with its cause in the commit that blessed it.
//!
//! * **[`analyze`]** folds the history: the revisions and config
//!   fingerprints it holds, and a scaling-exponent refit per (config
//!   group, revision) over that revision's sizes.
//! * **[`fit_exponents`]** is the one log-log scaling fit; `repro report`
//!   calls it on a fresh mini sweep. Every fitted class carries its
//!   [`ClassKind`], so a benefit counter's exponent (`mrai_coalesced`,
//!   `path_intern_hits`) is never read as a cost.
//! * **[`render_text`]** prints it: updates and ops per event and
//!   events/sec vs n across revisions — the repo's own Fig. 1 analog,
//!   except the x-axis growth is the *codebase*, not the topology — then
//!   the refits and the wall-side context.
//!
//! Everything here runs outside the deterministic tier (it reads wall
//! fields and prints floats); the determinism contract is enforced
//! upstream, where the record's `det` block is produced.

use bgpscale_obs::costmodel::{ClassKind, OpCounts};
use bgpscale_obs::ledger::LedgerRecord;
use bgpscale_stats::regression::fit_linear;

use crate::report::Table;

/// A fitted per-op-class scaling law `ops_per_event ∝ n^exponent`.
#[derive(Clone, Debug)]
pub struct ClassExponent {
    /// Op class.
    pub class: &'static str,
    /// What the class counts: work done, work avoided, or a level.
    pub kind: ClassKind,
    /// Fitted log-log slope.
    pub exponent: f64,
    /// Fit quality.
    pub r_squared: f64,
}

/// One [`ClassExponent`] at one revision of one config group (fitted
/// over that rev's sizes).
#[derive(Clone, Debug)]
pub struct ExponentFit {
    /// The config group label (`scenario/mode seed events`).
    pub group: String,
    /// Git revision the fit belongs to.
    pub rev: String,
    /// The fitted law.
    pub fit: ClassExponent,
}

/// What [`analyze`] produced.
#[derive(Clone, Debug, Default)]
pub struct TrendReport {
    /// Records analyzed.
    pub records: usize,
    /// Distinct git revisions, in first-appearance (append) order.
    pub revs: Vec<String>,
    /// Distinct config fingerprints.
    pub fingerprints: usize,
    /// Scaling-exponent refits, one per (config group, rev, class).
    pub exponent_fits: Vec<ExponentFit>,
}

/// How the exponent tables print a [`ClassKind`].
pub fn kind_label(kind: ClassKind) -> &'static str {
    match kind {
        ClassKind::Work => "work",
        ClassKind::Avoided => "avoided",
        ClassKind::Gauge => "gauge",
    }
}

/// The per-config grouping key for exponent fits and dashboards
/// (scenario, mode, seed, events): records are comparable across n only
/// when everything else matches.
type GroupKey = (String, String, u64, u64);

fn group_label(key: &GroupKey) -> String {
    format!("{}/{} seed={} events={}", key.0, key.1, key.2, key.3)
}

/// `records` by config group, groups and members in append order.
fn groups(records: &[LedgerRecord]) -> Vec<(GroupKey, Vec<&LedgerRecord>)> {
    let mut groups: Vec<(GroupKey, Vec<&LedgerRecord>)> = Vec::new();
    for r in records {
        let key = (r.scenario.clone(), r.mode.clone(), r.seed, r.events);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(r),
            None => groups.push((key, vec![r])),
        }
    }
    groups
}

/// One record per size of a group at `rev`, ascending n; duplicates (a
/// perf and a profile record of the same cell, or a dedupe-missed re-run)
/// keep the newest.
fn cells_at<'a>(entries: &[&'a LedgerRecord], rev: &str) -> Vec<&'a LedgerRecord> {
    let mut cells: Vec<&LedgerRecord> = Vec::new();
    for &r in entries.iter().filter(|r| r.git_rev == rev) {
        match cells.iter_mut().find(|c| c.n == r.n) {
            Some(slot) => *slot = r,
            None => cells.push(r),
        }
    }
    cells.sort_unstable_by_key(|r| r.n);
    cells
}

/// Fits per-class scaling exponents over one size sweep:
/// `ln(ops/event) = a + b·ln(n)` by least squares over `cells`' distinct
/// sizes. Needs at least two sizes; classes with a zero count at any size
/// are skipped (the log-log fit is undefined there). The one exponent
/// fit: `trend` feeds it one revision of ledger history, `repro report`
/// a fresh mini sweep.
pub fn fit_exponents(cells: &[(u64, OpCounts)], events: u64) -> Vec<ClassExponent> {
    if cells.len() < 2 || events == 0 || cells.iter().any(|(n, _)| *n == 0) {
        return Vec::new();
    }
    let xs: Vec<f64> = cells.iter().map(|(n, _)| (*n as f64).ln()).collect();
    let mut fits = Vec::new();
    for (idx, &(class, kind)) in OpCounts::CLASSES.iter().enumerate() {
        let counts: Vec<u64> = cells.iter().map(|(_, ops)| ops.fields()[idx].1).collect();
        if counts.contains(&0) {
            continue;
        }
        let ys: Vec<f64> = counts
            .iter()
            .map(|&count| (count as f64 / events as f64).ln())
            .collect();
        let fit = fit_linear(&xs, &ys);
        fits.push(ClassExponent {
            class,
            kind,
            exponent: fit.slope,
            r_squared: fit.r_squared,
        });
    }
    fits
}

/// Folds the ledger into its revisions, fingerprints and per-revision
/// exponent refits. Records must be in append (chronological) order,
/// which is how `read_ledger` returns them.
pub fn analyze(records: &[LedgerRecord]) -> TrendReport {
    let mut revs: Vec<String> = Vec::new();
    let mut fingerprints: Vec<u64> = Vec::new();
    for r in records {
        if !revs.contains(&r.git_rev) {
            revs.push(r.git_rev.clone());
        }
        let fingerprint = r.fingerprint();
        if !fingerprints.contains(&fingerprint) {
            fingerprints.push(fingerprint);
        }
    }
    let mut exponent_fits = Vec::new();
    for (key, entries) in groups(records) {
        for rev in &revs {
            let cells: Vec<(u64, OpCounts)> =
                cells_at(&entries, rev).iter().map(|r| (r.n, r.ops)).collect();
            exponent_fits.extend(fit_exponents(&cells, key.3).into_iter().map(|fit| ExponentFit {
                group: group_label(&key),
                rev: rev.clone(),
                fit,
            }));
        }
    }
    TrendReport {
        records: records.len(),
        revs,
        fingerprints: fingerprints.len(),
        exponent_fits,
    }
}

/// A revision's first ten characters (whole characters: a revision given
/// with `--ledger-rev` may be any string).
fn short_rev(rev: &str) -> &str {
    rev.char_indices().nth(10).map_or(rev, |(end, _)| &rev[..end])
}

/// Renders the dashboard as text: the history's shape; per revision and
/// n, events/sec and updates and ops per event for the config group with
/// the most history; the exponent refits with each class's kind; and the
/// wall-side context (peak RSS where recorded).
pub fn render_text(records: &[LedgerRecord], report: &TrendReport) -> String {
    let mut s = format!(
        "trend: {} records, {} revisions, {} config fingerprints (read-only: the regression \
         gate is `repro perf --check`; a re-blessed baseline shows as a step between revisions)\n",
        report.records,
        report.revs.len(),
        report.fingerprints
    );
    let mut tables = Vec::new();
    if let Some((key, entries)) = groups(records).iter().max_by_key(|(_, v)| v.len()) {
        let cells = report.revs.iter().flat_map(|rev| cells_at(entries, rev)).map(|r| {
            let per_event = |v: u64| format!("{:.1}", v as f64 / r.events.max(1) as f64);
            vec![
                short_rev(&r.git_rev).to_string(),
                r.n.to_string(),
                format!("{:.1}", r.events as f64 / (r.wall.wall_us.max(1) as f64 / 1e6)),
                per_event(r.ops.deliveries),
                per_event(r.ops.grand_total()),
            ]
        });
        tables.push(Table::with_rows(
            format!("cells of {} (events/s is wall-side)", group_label(key)),
            &["rev", "n", "events/s", "updates/event", "ops/event"],
            cells,
        ));
    }
    let fits = report.exponent_fits.iter().map(|f| {
        vec![
            f.group.clone(),
            short_rev(&f.rev).to_string(),
            f.fit.class.to_string(),
            kind_label(f.fit.kind).to_string(),
            format!("{:+.3}", f.fit.exponent),
            format!("{:.3}", f.fit.r_squared),
        ]
    });
    tables.push(Table::with_rows(
        "scaling-exponent refits",
        &["config", "rev", "op class", "kind", "n-exponent", "r²"],
        fits,
    ));
    let wall = records.iter().filter_map(|r| {
        let peak = r.wall.peak_rss_bytes?;
        Some(vec![
            short_rev(&r.git_rev).to_string(),
            r.kind.to_string(),
            r.n.to_string(),
            format!("{:.1}", peak as f64 / (1 << 20) as f64),
        ])
    });
    tables.push(Table::with_rows(
        "wall-side context",
        &["rev", "kind", "n", "peak RSS (MiB)"],
        wall,
    ));
    for t in tables.iter().filter(|t| !t.rows.is_empty()) {
        s.push('\n');
        s.push_str(&t.render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_obs::ledger::{ArtifactHashes, RunKind, WallSide};

    /// A record whose counts are an exact linear (or quadratic) function
    /// of n, so exponent fits land on integers.
    fn rec(n: u64, rev: &str, per_class: u64) -> LedgerRecord {
        let fields = OpCounts::default().fields().map(|(name, _)| (name, per_class));
        LedgerRecord {
            kind: RunKind::Perf,
            git_rev: rev.to_string(),
            scenario: "BASELINE".to_string(),
            n,
            mode: "NO-WRATE".to_string(),
            seed: 7,
            events: 10,
            ops: OpCounts::from_fields(&fields),
            artifacts: ArtifactHashes::default(),
            wall: WallSide {
                wall_us: 1000 * n,
                jobs: 1,
                peak_rss_bytes: Some(1 << 20),
            },
        }
    }

    #[test]
    fn history_folds_into_revs_fingerprints_and_per_rev_exponents() {
        // r1 and r2 scale linearly, r3 quadratically: the dashboard shows
        // the step, it does not judge it.
        let mut records: Vec<LedgerRecord> = ["r1", "r2"]
            .iter()
            .flat_map(|rev| [rec(100, rev, 100 * 100), rec(400, rev, 100 * 400)])
            .collect();
        records.extend([rec(100, "r3", 100 * 100), rec(400, "r3", 400 * 400)]);
        let report = analyze(&records);
        assert_eq!(report.records, 6);
        assert_eq!(report.revs, vec!["r1", "r2", "r3"]);
        assert_eq!(report.fingerprints, 2, "one series per size");
        assert_eq!(report.exponent_fits.len(), 3 * OpCounts::FIELD_COUNT);
        for ExponentFit { rev, fit: f, .. } in &report.exponent_fits {
            let want = if rev == "r3" { 2.0 } else { 1.0 };
            assert!((f.exponent - want).abs() < 1e-9, "{rev} {}: {}", f.class, f.exponent);
            assert!((f.r_squared - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn a_size_recorded_twice_at_one_rev_keeps_the_newest() {
        let records = vec![rec(100, "r1", 5), rec(100, "r1", 1000), rec(400, "r1", 4000)];
        let report = analyze(&records);
        assert!(!report.exponent_fits.is_empty());
        for ExponentFit { fit: f, .. } in &report.exponent_fits {
            assert!((f.exponent - 1.0).abs() < 1e-9, "{}: {}", f.class, f.exponent);
        }
    }

    #[test]
    fn every_fitted_class_carries_its_kind() {
        let fits = fit_exponents(&[(100, rec(100, "r", 100).ops), (400, rec(400, "r", 400).ops)], 10);
        let kind_of = |class: &str| fits.iter().find(|f| f.class == class).map(|f| kind_label(f.kind));
        assert_eq!(kind_of("deliveries"), Some("work"));
        assert_eq!(kind_of("mrai_coalesced"), Some("avoided"));
        assert_eq!(kind_of("path_intern_hits"), Some("avoided"));
        assert_eq!(kind_of("arena_bytes_reserved"), Some("gauge"));
    }

    #[test]
    fn dashboard_prints_cells_refits_and_wall_context_across_revs() {
        let records: Vec<LedgerRecord> = ["r1", "r2"]
            .iter()
            .flat_map(|rev| [rec(100, rev, 100 * 100), rec(400, rev, 100 * 400)])
            .collect();
        let report = analyze(&records);
        let text = render_text(&records, &report);
        assert!(text.starts_with("trend: 4 records, 2 revisions, 2 config fingerprints"));
        let titles = ["## cells of BASELINE/NO-WRATE", "## scaling-exponent refits", "## wall-side context"];
        for title in titles {
            assert!(text.contains(title), "missing {title:?}:\n{text}");
        }
        let has_row = |cells: &[&str]| text.lines().any(|l| l.split_whitespace().eq(cells.iter().copied()));
        // One cell row per (rev, n): 10 events in 0.1 s at n = 100 is
        // 100 events/s, and 10⁴ of each class over the 10 events is 10³
        // per event, 12 work classes of them.
        assert!(has_row(&["r1", "100", "100.0", "1000.0", "12000.0"]), "{text}");
        let kind_of = |class: &str| {
            text.lines().find(|l| l.contains(class)).map(|l| l.contains("avoided"))
        };
        assert_eq!(kind_of(" mrai_coalesced "), Some(true), "kind column:\n{text}");
        assert_eq!(kind_of(" deliveries "), Some(false));
        assert!(has_row(&["r2", "perf", "400", "1.0"]), "{text}");
        assert!(!text.contains("Regressions"), "the dashboard judges nothing");
    }

    #[test]
    fn short_rev_cuts_whole_characters() {
        assert_eq!(short_rev("0123456789abcdef"), "0123456789");
        assert_eq!(short_rev("r1"), "r1");
        // Byte 10 falls inside the fifth 'é': a byte slice there panics.
        assert_eq!(short_rev("aéééééé"), "aéééééé");
        assert_eq!(short_rev("aéééééééééééé"), "aééééééééé");
    }
}
