//! `repro trend`: fold the run ledger into scaling trends and a
//! regression gate.
//!
//! The ledger (`obs::ledger`, default `results/ledger/runs.jsonl`) is the
//! append-only history `repro perf --bless` and every `repro profile` run
//! write. This module is the analysis layer on top:
//!
//! * **Record builders** turn each subcommand's output into
//!   [`LedgerRecord`]s — deterministic fields from the cost model and
//!   artifact bytes, wall-side fields in integer units.
//! * **[`analyze`]** folds the history: per-op-class series keyed by
//!   `(config fingerprint, git rev)`, scaling-exponent refits via
//!   `stats::fit_linear` (log-log ops-per-event vs n, per revision), and
//!   regression detection — the newest entry of a fingerprint series vs
//!   the integer median of its last K predecessors (`--band`, percent),
//!   and exponent drift between consecutive revisions (`--exp-band`,
//!   absolute). Under `--check` any finding exits 1 (the repo-wide
//!   0/1/2 convention; a corrupt or empty ledger is 2).
//! * **Shared gate parts.** [`class_drift`] (the per-class band
//!   comparison), [`perturb_ops`] (the mutation-gate corruption) and
//!   [`fit_exponents`] (the log-log scaling fit) each have exactly one
//!   implementation; `repro perf --check` and `repro report` call the
//!   same ones.
//! * **[`render_html`]** writes the self-contained `trend.html`
//!   dashboard with `obs::render`: updates-per-event and events/sec vs n
//!   across revisions — the repo's own Fig. 1 analog, except the x-axis
//!   growth is the *codebase*, not the topology.
//!
//! Everything here runs outside the deterministic tier (it reads wall
//! fields and renders floats); the determinism contract is enforced
//! upstream, where the record's `det` block is produced.

use bgpscale_obs::costmodel::OpCounts;
use bgpscale_obs::ledger::{ArtifactHashes, LedgerRecord, RunKind, WallSide};
use bgpscale_obs::render::{self, LineSeries};
use bgpscale_obs::{log, SCHEMA_VERSION};
use bgpscale_simkernel::rng::{hash64_bytes, hash64_pair};
use bgpscale_stats::descriptive::median_u64;
use bgpscale_stats::regression::fit_linear;

use crate::perf::{PerfConfig, PerfMeasurement};
use crate::profile::{ProfileConfig, ProfileOutput};

/// Analysis knobs; all have CLI flags on `repro trend`.
#[derive(Clone, Copy, Debug)]
pub struct TrendOptions {
    /// How many predecessor entries the op-count gate medians over (K).
    pub window: usize,
    /// Allowed op-count deviation from that median, percent.
    pub band_pct: f64,
    /// Allowed absolute scaling-exponent drift between consecutive revs.
    pub exp_band: f64,
}

impl Default for TrendOptions {
    fn default() -> TrendOptions {
        TrendOptions {
            window: 5,
            band_pct: 10.0,
            exp_band: 0.25,
        }
    }
}

/// A fitted per-op-class scaling law `ops_per_event ∝ n^exponent`.
#[derive(Clone, Debug)]
pub struct ClassExponent {
    /// Op class.
    pub class: &'static str,
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
    /// Human-readable regression findings; empty means the gate passes.
    pub regressions: Vec<String>,
}

fn secs_to_us(s: f64) -> u64 {
    (s * 1e6).max(0.0).round() as u64
}

fn hash_json(json: &str) -> Option<u64> {
    Some(hash64_bytes(json.as_bytes()))
}

/// The MRAI-mode label of the default cell config (`perf` and `profile`
/// run with `BgpConfig::default()`).
fn default_mode_label() -> &'static str {
    bgpscale_bgp::BgpConfig::default().mrai_mode.label()
}

/// The ledger record of one `repro perf` cell: what `--check` compares
/// against the cell's baseline and what `--bless` appends.
pub fn record_from_perf(cfg: &PerfConfig, m: &PerfMeasurement, git_rev: &str) -> LedgerRecord {
    LedgerRecord {
        schema: SCHEMA_VERSION,
        kind: RunKind::Perf,
        git_rev: git_rev.to_string(),
        scenario: cfg.scenario.to_string(),
        n: cfg.n as u64,
        mode: default_mode_label().to_string(),
        seed: cfg.seed,
        events: cfg.events as u64,
        ops: m.ops,
        artifacts: ArtifactHashes {
            metrics: None,
            timeseries: None,
            costmodel: hash_json(&m.cost.to_json()),
        },
        wall: WallSide {
            wall_us: secs_to_us(m.wall_s),
            jobs: cfg.jobs as u64,
            peak_rss_bytes: bgpscale_simkernel::peak_rss_bytes(),
            metrics_overhead_cpct: None,
            trace_overhead_cpct: None,
        },
    }
}

/// The ledger record of one `repro profile` cell, with content hashes of
/// every deterministic artifact the run produced.
pub fn record_from_profile(cfg: &ProfileConfig, out: &ProfileOutput, git_rev: &str) -> LedgerRecord {
    LedgerRecord {
        schema: SCHEMA_VERSION,
        kind: RunKind::Profile,
        git_rev: git_rev.to_string(),
        scenario: cfg.scenario.to_string(),
        n: cfg.n as u64,
        mode: default_mode_label().to_string(),
        seed: cfg.seed,
        events: cfg.events as u64,
        ops: out.observed.cost.total(),
        artifacts: ArtifactHashes {
            metrics: hash_json(&out.observed.metrics.to_json()),
            timeseries: out
                .observed
                .timeseries
                .as_ref()
                .and_then(|ts| hash_json(&ts.to_json())),
            costmodel: hash_json(&out.observed.cost.to_json()),
        },
        wall: WallSide {
            wall_us: secs_to_us(out.wall_s),
            jobs: cfg.jobs as u64,
            peak_rss_bytes: bgpscale_simkernel::peak_rss_bytes(),
            metrics_overhead_cpct: None,
            trace_overhead_cpct: None,
        },
    }
}

/// Deterministically inflates one op class past any sane band
/// (`v → 2·v + bump`, `bump ≥ 1`): class index and bump size both derive
/// from `seed` via the repo's standard seed-fanout hash. The one
/// corruption routine behind both `--perturb` mutation gates. Returns the
/// class and the bump for the caller's log line.
pub fn perturb_ops(ops: &mut OpCounts, seed: u64) -> (&'static str, u64) {
    let idx = (hash64_pair(seed, 0xBAD) % OpCounts::FIELD_COUNT as u64) as usize;
    let bump = 1 + hash64_pair(seed, 0xB00) % 1_000;
    let mut fields = ops.fields();
    fields[idx].1 = fields[idx].1 * 2 + bump;
    *ops = OpCounts::from_fields(&fields);
    (fields[idx].0, bump)
}

/// [`perturb_ops`] on the newest entry of every fingerprint series that
/// has history (≥ 2 entries). The CI mutation gate proving
/// `trend --check` still catches what it claims to catch. In-memory only
/// — never written back to the ledger.
pub fn perturb_latest(records: &mut [LedgerRecord], seed: u64) {
    let fingerprints: Vec<u64> = records.iter().map(LedgerRecord::fingerprint).collect();
    let mut perturbed = None;
    let mut count = 0usize;
    for i in 0..records.len() {
        let fp = fingerprints[i];
        let is_latest = !fingerprints[i + 1..].contains(&fp);
        let has_history = fingerprints[..i].contains(&fp);
        if is_latest && has_history {
            perturbed = Some(perturb_ops(&mut records[i].ops, seed));
            count += 1;
        }
    }
    if let Some((class, bump)) = perturbed {
        log!(
            Info,
            "trend: perturbing {class} (×2 +{bump}, seed {seed}) on {count} newest entries"
        );
    }
}

/// One op class outside its band.
#[derive(Clone, Debug)]
pub struct ClassDrift {
    /// Op class.
    pub class: &'static str,
    /// The count under test.
    pub new: u64,
    /// The count it was compared against.
    pub reference: u64,
    /// Signed deviation in percent (infinite off a zero reference).
    pub delta_pct: f64,
}

/// The per-class comparison both gates share: every class of `new` that
/// deviates from `reference` by more than `band_pct` percent (a zero
/// reference admits only zero). `trend --check` passes the window median
/// and `--band`; `perf --check` passes the baseline and a zero band,
/// which is exact equality.
pub fn class_drift(new: &OpCounts, reference: &OpCounts, band_pct: f64) -> Vec<ClassDrift> {
    let mut drifts = Vec::new();
    for ((class, new), (_, reference)) in new.fields().into_iter().zip(reference.fields()) {
        let delta_pct = if reference == 0 {
            if new == 0 { 0.0 } else { f64::INFINITY }
        } else {
            // Integer difference first: exact, so unequal counts never
            // round to a zero deviation under the zero band.
            (i128::from(new) - i128::from(reference)) as f64 / reference as f64 * 100.0
        };
        if delta_pct.abs() > band_pct {
            drifts.push(ClassDrift {
                class,
                new,
                reference,
                delta_pct,
            });
        }
    }
    drifts
}

/// The per-config grouping key for exponent fits and dashboards
/// (scenario, mode, seed, events): records are comparable across n only
/// when everything else matches.
type GroupKey = (String, String, u64, u64);

fn group_key(r: &LedgerRecord) -> GroupKey {
    (r.scenario.clone(), r.mode.clone(), r.seed, r.events)
}

fn group_label(key: &GroupKey) -> String {
    format!("{}/{} seed={} events={}", key.0, key.1, key.2, key.3)
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
    for (idx, class) in OpCounts::field_names().into_iter().enumerate() {
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
            exponent: fit.slope,
            r_squared: fit.r_squared,
        });
    }
    fits
}

/// Folds the ledger into trends and regression findings. Records must be
/// in append (chronological) order, which is how `read_ledger` returns
/// them.
pub fn analyze(records: &[LedgerRecord], opts: &TrendOptions) -> TrendReport {
    let mut report = TrendReport {
        records: records.len(),
        ..TrendReport::default()
    };
    for r in records {
        if !report.revs.contains(&r.git_rev) {
            report.revs.push(r.git_rev.clone());
        }
    }

    // --- Op-count gate: newest entry of each fingerprint series vs the
    // integer median of its last K predecessors. ---
    let mut series: Vec<(u64, Vec<&LedgerRecord>)> = Vec::new();
    for r in records {
        let fp = r.fingerprint();
        match series.iter_mut().find(|(f, _)| *f == fp) {
            Some((_, v)) => v.push(r),
            None => series.push((fp, vec![r])),
        }
    }
    report.fingerprints = series.len();
    for (_, entries) in &series {
        if entries.len() < 2 {
            continue;
        }
        let latest = entries[entries.len() - 1];
        // Schema-aware: op classes are append-only, so records written
        // under an older schema carry zero-filled padding for the newer
        // classes, and schema 3 re-based what the queue classes count —
        // comparing across either manufactures regressions out of thin
        // air. Only same-schema history is comparable.
        let history: Vec<&LedgerRecord> = entries[..entries.len() - 1]
            .iter()
            .filter(|r| r.schema == latest.schema)
            .copied()
            .collect();
        if history.is_empty() {
            continue;
        }
        let window = &history[history.len().saturating_sub(opts.window)..];
        let mut median = OpCounts::default().fields();
        for (idx, slot) in median.iter_mut().enumerate() {
            let values: Vec<u64> = window.iter().map(|r| r.ops.fields()[idx].1).collect();
            slot.1 = median_u64(&values).expect("window is non-empty");
        }
        for d in class_drift(&latest.ops, &OpCounts::from_fields(&median), opts.band_pct) {
            report.regressions.push(format!(
                "op-count regression: {} n={} {} {}: {} vs median {} of last {} \
                 ({:+.1}% outside ±{}% band) at rev {}",
                latest.scenario,
                latest.n,
                latest.mode,
                d.class,
                d.new,
                d.reference,
                window.len(),
                d.delta_pct,
                opts.band_pct,
                latest.git_rev
            ));
        }
    }

    // --- Exponent refits per (config group, rev), then drift between
    // consecutive revs of the same group. ---
    let mut groups: Vec<(GroupKey, Vec<&LedgerRecord>)> = Vec::new();
    for r in records {
        let key = group_key(r);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(r),
            None => groups.push((key, vec![r])),
        }
    }
    for (key, entries) in &groups {
        let label = group_label(key);
        let mut rev_fits: Vec<(String, Vec<ExponentFit>)> = Vec::new();
        for rev in &report.revs {
            // One (n → ops) cell per size at this rev; duplicates (e.g. a
            // perf and a profile record of the same cell, or a
            // dedupe-missed re-run) keep the newest.
            let mut cells: Vec<(u64, OpCounts)> = Vec::new();
            for r in entries.iter().filter(|r| &r.git_rev == rev) {
                match cells.iter_mut().find(|(n, _)| *n == r.n) {
                    Some(slot) => slot.1 = r.ops,
                    None => cells.push((r.n, r.ops)),
                }
            }
            cells.sort_unstable_by_key(|(n, _)| *n);
            let fits: Vec<ExponentFit> = fit_exponents(&cells, key.3)
                .into_iter()
                .map(|fit| ExponentFit {
                    group: label.clone(),
                    rev: rev.clone(),
                    fit,
                })
                .collect();
            if !fits.is_empty() {
                rev_fits.push((rev.clone(), fits));
            }
        }
        for pair in rev_fits.windows(2) {
            let (prev_rev, prev) = &pair[0];
            let (next_rev, next) = &pair[1];
            for ExponentFit { fit: f, .. } in next {
                let Some(p) = prev.iter().map(|p| &p.fit).find(|p| p.class == f.class) else {
                    continue;
                };
                let drift = f.exponent - p.exponent;
                // One-sided: only a *rising* exponent (worse asymptotic
                // scaling) gates. A drop is an improvement — flagging it
                // would force a ledger rewrite after every optimization.
                if drift > opts.exp_band {
                    report.regressions.push(format!(
                        "exponent regression: {} {}: n-exponent {:.3} at rev {} vs {:.3} at \
                         rev {} ({:+.3} above the +{} band)",
                        label, f.class, f.exponent, next_rev, p.exponent, prev_rev, drift,
                        opts.exp_band
                    ));
                }
            }
        }
        report
            .exponent_fits
            .extend(rev_fits.into_iter().flat_map(|(_, fits)| fits));
    }
    report
}

fn short_rev(rev: &str) -> &str {
    if rev.len() > 10 { &rev[..10] } else { rev }
}

fn fmt_rss(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("{:.1}", b as f64 / (1 << 20) as f64),
        None => "—".to_string(),
    }
}

/// Renders the self-contained `trend.html` dashboard: events/sec and
/// updates-per-event vs n, one line per revision, for the config group
/// with the most history; plus the full per-rev cell table, exponent
/// refits, and the regression list.
pub fn render_html(records: &[LedgerRecord], report: &TrendReport, opts: &TrendOptions) -> String {
    use std::fmt::Write as _;

    let mut body = String::new();
    let _ = write!(
        body,
        "<h1>bgpscale run ledger — scaling trends</h1>\
         <p>{} records · {} revisions · {} config fingerprints · \
         op-count band ±{}% over last {} · exponent band ±{}</p>",
        report.records,
        report.revs.len(),
        report.fingerprints,
        opts.band_pct,
        opts.window,
        opts.exp_band
    );

    body.push_str("<h2>Regressions</h2>");
    if report.regressions.is_empty() {
        body.push_str("<p>none detected</p>");
    } else {
        body.push_str("<ul>");
        for r in &report.regressions {
            let _ = write!(body, "<li>{}</li>", render::html_escape(r));
        }
        body.push_str("</ul>");
    }

    // Dominant config group drives the charts.
    let mut groups: Vec<(GroupKey, Vec<&LedgerRecord>)> = Vec::new();
    for r in records {
        let key = group_key(r);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(r),
            None => groups.push((key, vec![r])),
        }
    }
    if let Some((key, entries)) = groups.iter().max_by_key(|(_, v)| v.len()) {
        // (rev, sorted (n, events/s, updates/event, ops/event)) series.
        type CellPoint = (f64, f64, f64, f64);
        let mut per_rev: Vec<(String, Vec<CellPoint>)> = Vec::new();
        for rev in &report.revs {
            let mut cells: Vec<(u64, &LedgerRecord)> = Vec::new();
            for r in entries.iter().filter(|r| &r.git_rev == rev) {
                match cells.iter_mut().find(|(n, _)| *n == r.n) {
                    Some(slot) => slot.1 = r,
                    None => cells.push((r.n, r)),
                }
            }
            cells.sort_unstable_by_key(|(n, _)| *n);
            if cells.is_empty() {
                continue;
            }
            let pts = cells
                .iter()
                .map(|(n, r)| {
                    let events_per_s = r.events as f64 / (r.wall.wall_us.max(1) as f64 / 1e6);
                    let per_event = |v: u64| v as f64 / r.events.max(1) as f64;
                    (
                        *n as f64,
                        events_per_s,
                        per_event(r.ops.deliveries),
                        per_event(r.ops.grand_total()),
                    )
                })
                .collect();
            per_rev.push((rev.clone(), pts));
        }

        let _ = write!(
            body,
            "<h2>Scaling across revisions — {}</h2>",
            render::html_escape(&group_label(key))
        );
        for (title, pick, note) in [
            (
                "updates per event vs n",
                1usize,
                "deterministic: update deliveries per C-event (the Fig. 1 quantity)",
            ),
            (
                "events/sec vs n",
                0usize,
                "wall-side: C-events per second of wall time (machine-dependent)",
            ),
            (
                "total ops per event vs n",
                2usize,
                "deterministic: work op classes summed (no gauge, no avoided work), per C-event",
            ),
        ] {
            let series_pts: Vec<Vec<(f64, f64)>> = per_rev
                .iter()
                .map(|(_, pts)| {
                    pts.iter()
                        .map(|&(n, eps, upd, ops)| (n, [eps, upd, ops][pick]))
                        .collect()
                })
                .collect();
            let series: Vec<LineSeries<'_>> = per_rev
                .iter()
                .zip(&series_pts)
                .map(|((rev, _), pts)| LineSeries {
                    label: short_rev(rev),
                    points: pts,
                })
                .collect();
            let _ = write!(
                body,
                "<div class=\"panel\"><p>{}</p>{}<p>{}</p></div>",
                render::html_escape(title),
                render::svg_lines(&series, 320, 160),
                render::html_escape(note)
            );
        }

        body.push_str("<h2>Cells</h2>");
        let rows: Vec<Vec<String>> = per_rev
            .iter()
            .flat_map(|(rev, pts)| {
                let rev = rev.clone();
                pts.iter()
                    .map(move |&(n, eps, upd, ops)| {
                        vec![
                            short_rev(&rev).to_string(),
                            format!("{n:.0}"),
                            format!("{eps:.1}"),
                            format!("{upd:.1}"),
                            format!("{ops:.1}"),
                        ]
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        body.push_str(&render::html_table(
            &["rev", "n", "events/s", "updates/event", "ops/event"],
            &rows,
        ));
    }

    if !report.exponent_fits.is_empty() {
        body.push_str("<h2>Scaling-exponent refits</h2>");
        let rows: Vec<Vec<String>> = report
            .exponent_fits
            .iter()
            .map(|f| {
                vec![
                    f.group.clone(),
                    short_rev(&f.rev).to_string(),
                    f.fit.class.to_string(),
                    format!("{:.3}", f.fit.exponent),
                    format!("{:.3}", f.fit.r_squared),
                ]
            })
            .collect();
        body.push_str(&render::html_table(
            &["config", "rev", "op class", "n-exponent", "r²"],
            &rows,
        ));
    }

    // Wall-side context table: RSS and overheads where recorded.
    let rss_rows: Vec<Vec<String>> = records
        .iter()
        .filter(|r| r.wall.peak_rss_bytes.is_some() || r.wall.metrics_overhead_cpct.is_some())
        .map(|r| {
            vec![
                short_rev(&r.git_rev).to_string(),
                r.kind.to_string(),
                r.n.to_string(),
                fmt_rss(r.wall.peak_rss_bytes),
                r.wall
                    .metrics_overhead_cpct
                    .map_or("—".to_string(), |c| format!("{:.2}", c as f64 / 100.0)),
                r.wall
                    .trace_overhead_cpct
                    .map_or("—".to_string(), |c| format!("{:.2}", c as f64 / 100.0)),
            ]
        })
        .collect();
    if !rss_rows.is_empty() {
        body.push_str("<h2>Wall-side context</h2>");
        body.push_str(&render::html_table(
            &["rev", "kind", "n", "peak RSS (MiB)", "metrics ovh %", "trace ovh %"],
            &rss_rows,
        ));
    }

    render::html_page("bgpscale trend dashboard", &body)
}

/// Renders the terminal summary.
pub fn render_text(report: &TrendReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "trend: {} records, {} revisions, {} config fingerprints",
        report.records,
        report.revs.len(),
        report.fingerprints
    );
    for f in &report.exponent_fits {
        let _ = writeln!(
            s,
            "  exponent {} @ {}: {:<18} {:+.3} (r²={:.3})",
            f.group,
            short_rev(&f.rev),
            f.fit.class,
            f.fit.exponent,
            f.fit.r_squared
        );
    }
    if report.regressions.is_empty() {
        let _ = writeln!(s, "  regressions: none");
    } else {
        for r in &report.regressions {
            let _ = writeln!(s, "  REGRESSION: {r}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::GrowthScenario;

    /// A record whose counts are an exact linear (or quadratic) function
    /// of n, so exponent fits land on integers.
    fn rec(n: u64, rev: &str, per_class: u64) -> LedgerRecord {
        let fields = OpCounts::default().fields().map(|(name, _)| (name, per_class));
        LedgerRecord {
            schema: SCHEMA_VERSION,
            kind: RunKind::Bench,
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
                metrics_overhead_cpct: None,
                trace_overhead_cpct: None,
            },
        }
    }

    #[test]
    fn stable_history_passes_the_gate() {
        let records: Vec<LedgerRecord> = ["r1", "r2", "r3"]
            .iter()
            .flat_map(|rev| [rec(100, rev, 100 * 100), rec(400, rev, 100 * 400)])
            .collect();
        let report = analyze(&records, &TrendOptions::default());
        assert_eq!(report.records, 6);
        assert_eq!(report.revs, vec!["r1", "r2", "r3"]);
        assert_eq!(report.fingerprints, 2, "one series per size");
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        // Counts ∝ n → exponent ≈ 1 for every class at every rev.
        assert!(!report.exponent_fits.is_empty());
        for ExponentFit { fit: f, .. } in &report.exponent_fits {
            assert!((f.exponent - 1.0).abs() < 1e-9, "{}: {}", f.class, f.exponent);
            assert!((f.r_squared - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn op_count_drift_beyond_band_is_caught() {
        let mut records = vec![rec(100, "r1", 1000), rec(100, "r2", 1000)];
        records.push(rec(100, "r3", 1200)); // +20% vs median 1000
        let report = analyze(&records, &TrendOptions::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("op-count regression")),
            "{:?}",
            report.regressions
        );
        // Inside a ±25% band the same history passes.
        let loose = TrendOptions {
            band_pct: 25.0,
            ..TrendOptions::default()
        };
        assert!(analyze(&records, &loose).regressions.is_empty());
    }

    #[test]
    fn zero_median_with_new_nonzero_count_is_caught() {
        let mut quiet = rec(100, "r1", 1000);
        let mut fields = quiet.ops.fields();
        fields[12].1 = 0; // mrai_coalesced silent historically
        quiet.ops = OpCounts::from_fields(&fields);
        let mut noisy = rec(100, "r2", 1000);
        let mut fields = noisy.ops.fields();
        fields[12].1 = 3; // …and suddenly active
        noisy.ops = OpCounts::from_fields(&fields);
        let report = analyze(&[quiet, noisy], &TrendOptions::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("mrai_coalesced")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn exponent_drift_across_revs_is_caught() {
        // r1 scales linearly, r2 quadratically: exponent 1 → 2.
        let records = vec![
            rec(100, "r1", 10 * 100),
            rec(400, "r1", 10 * 400),
            rec(100, "r2", 100 * 100),
            rec(400, "r2", 400 * 400),
        ];
        let report = analyze(&records, &TrendOptions::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("exponent regression")),
            "{:?}",
            report.regressions
        );
        // A huge exponent band lets it pass; the op-count gate still
        // fires (the counts themselves moved), so filter for exponents.
        let loose = TrendOptions {
            exp_band: 5.0,
            ..TrendOptions::default()
        };
        assert!(analyze(&records, &loose)
            .regressions
            .iter()
            .all(|r| !r.contains("exponent regression")));
    }

    #[test]
    fn exponent_improvement_does_not_gate() {
        // r1 scales quadratically, r2 linearly: exponent 2 → 1 is an
        // improvement and must pass the one-sided drift gate.
        let records = vec![
            rec(100, "r1", 100 * 100),
            rec(400, "r1", 400 * 400),
            rec(100, "r2", 10 * 100),
            rec(400, "r2", 10 * 400),
        ];
        let report = analyze(&records, &TrendOptions::default());
        assert!(
            report.regressions.iter().all(|r| !r.contains("exponent regression")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn older_schema_history_is_not_comparable() {
        // A v1 record's trailing op classes are zero-filled padding, not
        // measured zeros: a v2 record with real counts there must not be
        // flagged against it (the zero-median rule would otherwise fire
        // for every appended class on the first post-migration run).
        let mut old = rec(100, "r1", 1000);
        old.schema = 1;
        let mut fields = old.ops.fields();
        for f in fields.iter_mut().skip(OpCounts::FIELD_COUNT_V1) {
            f.1 = 0;
        }
        old.ops = OpCounts::from_fields(&fields);
        let new = rec(100, "r2", 1000);
        let report = analyze(&[old, new], &TrendOptions::default());
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }

    #[test]
    fn window_limits_the_median_history() {
        // Old history at 2000, recent 4 entries at 1000, newest at 1000:
        // with window=4 the median is 1000 → pass; window=20 would pull
        // the old level in and still pass (median of mixed history is
        // 1000 here), so assert the sharper converse: newest at 2000
        // passes a window-4 gate only if the 2000s are inside the window.
        let mut records: Vec<LedgerRecord> = (0..3)
            .map(|i| rec(100, &format!("old{i}"), 2000))
            .collect();
        records.extend((0..4).map(|i| rec(100, &format!("new{i}"), 1000)));
        records.push(rec(100, "head", 1000));
        let opts = TrendOptions {
            window: 4,
            ..TrendOptions::default()
        };
        assert!(analyze(&records, &opts).regressions.is_empty());
        // Same ledger, newest flips back to the old level: the window-4
        // median (1000) flags it even though 2000 was once normal.
        records.last_mut().unwrap().ops = rec(100, "head", 2000).ops;
        assert!(!analyze(&records, &opts).regressions.is_empty());
    }

    #[test]
    fn perturb_latest_trips_the_gate_deterministically() {
        let mut a = vec![rec(100, "r1", 1000), rec(100, "r2", 1000)];
        let mut b = a.clone();
        assert!(analyze(&a, &TrendOptions::default()).regressions.is_empty());
        perturb_latest(&mut a, 1);
        perturb_latest(&mut b, 1);
        assert_eq!(a[1].ops, b[1].ops, "perturbation is deterministic");
        assert_ne!(a[0].ops, a[1].ops, "only the newest entry is touched");
        let report = analyze(&a, &TrendOptions::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("op-count regression")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn dashboard_renders_both_chart_axes_across_revs() {
        let records: Vec<LedgerRecord> = ["r1", "r2"]
            .iter()
            .flat_map(|rev| [rec(100, rev, 100 * 100), rec(400, rev, 100 * 400)])
            .collect();
        let opts = TrendOptions::default();
        let report = analyze(&records, &opts);
        let html = render_html(&records, &report, &opts);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("updates per event vs n"));
        assert!(html.contains("events/sec vs n"));
        assert!(html.contains(">r1</text>") && html.contains(">r2</text>"));
        assert!(html.contains("Scaling-exponent refits"));
        assert!(html.contains("none detected"));
        let text = render_text(&report);
        assert!(text.contains("2 revisions"));
        assert!(text.contains("regressions: none"));
    }

    #[test]
    fn perf_and_profile_records_share_the_cell_fingerprint() {
        let perf_cfg = PerfConfig {
            scenario: GrowthScenario::Baseline,
            n: 150,
            events: 2,
            seed: 7,
            jobs: 1,
            perturb: None,
        };
        let m = crate::perf::measure(&perf_cfg);
        let pr = record_from_perf(&perf_cfg, &m, "r1");
        let prof_cfg = ProfileConfig {
            scenario: GrowthScenario::Baseline,
            n: 150,
            events: 2,
            seed: 7,
            jobs: 1,
            trace_sample: None,
            event_limit: None,
        };
        let out = crate::profile::run_profile(&prof_cfg).unwrap();
        let fr = record_from_profile(&prof_cfg, &out, "r1");
        // Same cell coordinates → same fingerprint and identical ops
        // (determinism); different kinds → distinct det hashes.
        assert_eq!(pr.fingerprint(), fr.fingerprint());
        assert_eq!(pr.ops, fr.ops, "op counts are a pure function of the cell");
        assert_ne!(pr.det_hash(), fr.det_hash(), "kind is part of the det block");
        assert!(fr.artifacts.metrics.is_some(), "profile hashes metrics.json");
        assert!(fr.artifacts.costmodel.is_some());
    }
}
