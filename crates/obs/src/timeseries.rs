//! Deterministic simulated-time series: fixed-width bins on the sim clock.
//!
//! A [`TimeSeriesRecorder`] rides inside a per-event `Recorder` and sorts
//! every delivered UPDATE into fixed-width bins keyed to *simulated* time
//! (each C-event's clock starts at 0, so bins overlay across events).
//! Per bin it tracks updates split by the sending edge's Gao–Rexford
//! relation and by the receiving node's type, plus two peaks: armed MRAI
//! timers and receiver in-queue depth. Alongside the bins it keeps one
//! [`RootRecord`] per root-cause event, whose first-to-last-update span is
//! the per-root convergence duration; the series' causal-depth histogram
//! is the owning `Recorder`'s.
//!
//! Determinism rules (same discipline as `metrics.json`):
//! * integer-only — microsecond timestamps and counts, never floats;
//! * keyed to the sim clock — wall time never enters;
//! * per-event series are [`TimeSeries::merge`]d in event-index order, so
//!   `timeseries.json` is byte-identical for any `--jobs` level.

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use std::sync::Arc;

use bgpscale_topology::{AsId, ByRel, ByType, NodeType, Relationship};

use crate::json::{Layout, Value};
use crate::metrics::Histogram;
use crate::observer::UpdateClass;
use crate::provenance::{Provenance, RootCauseKind, RootSets};

/// Causal-depth histogram bucket upper bounds (inclusive); the 8th bucket
/// is the overflow for depths past 32.
pub const DEPTH_BOUNDS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

/// Hard cap on the number of bins; later samples clamp into the last bin
/// so a pathological run cannot balloon the artifact.
pub const MAX_BINS: usize = 100_000;

/// Configuration for a per-event time-series recorder.
#[derive(Clone, Debug)]
pub struct TimeSeriesSpec {
    /// Bin width in simulated microseconds (clamped to ≥ 1).
    pub bin_us: u64,
    /// Node type by `AsId` index, shared across every event's recorder.
    pub node_types: Arc<[NodeType]>,
}

/// One fixed-width bin of simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TsBin {
    /// Updates by the sending edge's relation (customer/peer/provider).
    pub by_rel: ByRel<u64>,
    /// Updates by receiving node type (T/M/Cp/C).
    pub by_type: ByType<u64>,
    /// Announcements delivered in the bin.
    pub announces: u64,
    /// Withdrawals delivered in the bin.
    pub withdraws: u64,
    /// Peak of the MRAI expiry events scheduled and not yet popped (the
    /// armed timers with an update waiting) observed during the bin.
    pub mrai_armed_peak: u64,
    /// Peak receiver in-queue depth observed during the bin.
    pub inbox_peak: u64,
}

impl TsBin {
    /// Total updates delivered in the bin.
    pub fn total(&self) -> u64 {
        self.announces + self.withdraws
    }

    fn add(&mut self, other: &TsBin) {
        for (sum, n) in self.by_rel.iter_mut().zip(other.by_rel.iter()) {
            *sum += n;
        }
        for (sum, n) in self.by_type.iter_mut().zip(other.by_type.iter()) {
            *sum += n;
        }
        self.announces += other.announces;
        self.withdraws += other.withdraws;
        // Peaks overlay across events by max: each event's clock starts
        // at 0, so "bin k" means the same convergence phase everywhere.
        self.mrai_armed_peak = self.mrai_armed_peak.max(other.mrai_armed_peak);
        self.inbox_peak = self.inbox_peak.max(other.inbox_peak);
    }
}

/// One root-cause event and the update activity attributed to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootRecord {
    /// C-event index the root belongs to.
    pub event: u32,
    /// Root id, sequential within its simulation.
    pub root: u32,
    /// Why the root happened.
    pub kind: RootCauseKind,
    /// The node at which the root-cause event happened.
    pub node: u32,
    /// Simulated time the root-cause event fired.
    pub start_us: u64,
    /// Simulated time of the last update attributed to this root
    /// (equals `start_us` when no update carried the root).
    pub last_update_us: u64,
    /// Updates that carried this root in their stamp.
    pub updates: u64,
}

impl RootRecord {
    /// Convergence duration: root-cause fire to last attributed update.
    pub fn convergence_us(&self) -> u64 {
        self.last_update_us.saturating_sub(self.start_us)
    }
}

/// A merged (or single-event) simulated-time series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeSeries {
    /// Bin width in simulated microseconds.
    pub bin_us: u64,
    /// C-events folded into this series.
    pub events: u32,
    /// Bins, index k covering `[k*bin_us, (k+1)*bin_us)`.
    pub bins: Vec<TsBin>,
    /// Causal depths of the stamped updates, over [`DEPTH_BOUNDS`]
    /// (written as `depth_hist` and `depth_max`); its count is the
    /// updates delivered with a provenance stamp (written as `stamped`).
    pub depth: Histogram,
    /// Updates delivered without a stamp (direct `BgpNode` use).
    pub unstamped: u64,
    /// Stamped updates carrying more than one root (MRAI coalescing).
    pub coalesced: u64,
    /// Root-cause records, in event-index then root-id order.
    pub roots: Vec<RootRecord>,
}

impl TimeSeries {
    /// An empty series with the given bin width.
    pub fn new(bin_us: u64) -> TimeSeries {
        TimeSeries {
            bin_us: bin_us.max(1),
            events: 0,
            bins: Vec::new(),
            depth: Histogram::new(&DEPTH_BOUNDS),
            unstamped: 0,
            coalesced: 0,
            roots: Vec::new(),
        }
    }

    /// Folds another series in. Callers must fold in event-index order —
    /// roots are appended — and bin widths must match.
    ///
    /// # Panics
    /// When the bin widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bin_us, other.bin_us,
            "cannot merge time series with different bin widths"
        );
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), TsBin::default());
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.add(theirs);
        }
        self.depth.merge(&other.depth);
        self.unstamped += other.unstamped;
        self.coalesced += other.coalesced;
        self.events += other.events;
        self.roots.extend(other.roots.iter().copied());
    }

    /// Total updates across all bins.
    pub fn total_updates(&self) -> u64 {
        self.bins.iter().map(TsBin::total).sum()
    }

    /// Convergence durations of roots that produced at least one update,
    /// sorted ascending — ready for a CDF.
    pub fn convergence_durations_us(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .roots
            .iter()
            .filter(|r| r.updates > 0)
            .map(RootRecord::convergence_us)
            .collect();
        d.sort_unstable();
        d
    }

    /// Renders the series as deterministic JSON: integer-only, fixed key
    /// order, no whitespace variance — byte-identical for equal series.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The series as one compact object (also the `series` of each cell in
    /// `repro report`'s `timeseries.json`).
    pub fn to_value(&self) -> Value {
        let ints = |values: &[u64]| Value::arr(Layout::Compact, values.iter().copied());
        let bins = self.bins.iter().map(|b| {
            let bin = [
                ("by_rel", ints(&b.by_rel.0)),
                ("by_type", ints(&b.by_type.0)),
                ("announces", b.announces.into()),
                ("withdraws", b.withdraws.into()),
                ("mrai_armed_peak", b.mrai_armed_peak.into()),
                ("inbox_peak", b.inbox_peak.into()),
            ];
            Value::obj(Layout::Compact, bin)
        });
        let roots = self.roots.iter().map(|r| {
            let root = [
                ("event", r.event.into()),
                ("root", r.root.into()),
                ("kind", r.kind.name().into()),
                ("node", r.node.into()),
                ("start_us", r.start_us.into()),
                ("last_update_us", r.last_update_us.into()),
                ("updates", r.updates.into()),
            ];
            Value::obj(Layout::Compact, root)
        });
        let series = [
            ("bin_us", self.bin_us.into()),
            ("events", self.events.into()),
            ("stamped", self.depth.count().into()),
            ("unstamped", self.unstamped.into()),
            ("coalesced", self.coalesced.into()),
            ("depth_max", self.depth.max().into()),
            ("depth_hist", ints(self.depth.bucket_counts())),
            ("bins", Value::arr(Layout::Compact, bins)),
            ("roots", Value::arr(Layout::Compact, roots)),
        ];
        Value::obj(Layout::Compact, series)
    }
}

/// Per-event recorder feeding a [`TimeSeries`]; lives inside `Recorder`.
#[derive(Clone, Debug)]
pub struct TimeSeriesRecorder {
    node_types: Arc<[NodeType]>,
    event: u32,
    /// Last armed-timer level reported by the simulator; carried forward
    /// into every bin a message lands in, so occupancy is visible even in
    /// bins without an arm/expire transition.
    current_armed: u64,
    series: TimeSeries,
}

impl TimeSeriesRecorder {
    /// Creates the recorder for C-event `event`.
    pub fn new(event: u32, spec: &TimeSeriesSpec) -> TimeSeriesRecorder {
        TimeSeriesRecorder {
            node_types: Arc::clone(&spec.node_types),
            event,
            current_armed: 0,
            series: TimeSeries::new(spec.bin_us),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "idx is clamped to MAX_BINS - 1 and bins is resized to idx + 1 before the index"
    )]
    fn bin_mut(&mut self, t_us: u64) -> &mut TsBin {
        let idx = ((t_us / self.series.bin_us) as usize).min(MAX_BINS - 1);
        if self.series.bins.len() <= idx {
            self.series.bins.resize(idx + 1, TsBin::default());
        }
        &mut self.series.bins[idx]
    }

    /// Records a root-cause event. Roots must arrive in id order (the
    /// simulator allocates them sequentially).
    pub fn record_root(&mut self, id: u32, kind: RootCauseKind, node: AsId, t_us: u64) {
        debug_assert_eq!(
            id as usize,
            self.series.roots.len(),
            "root ids must be sequential per simulation"
        );
        self.series.roots.push(RootRecord {
            event: self.event,
            root: id,
            kind,
            node: node.0,
            start_us: t_us,
            last_update_us: t_us,
            updates: 0,
        });
    }

    /// Records a delivered update. The provenance totals of the series
    /// (`stamped`, `depth`, …) are the owning `Recorder`'s to fill.
    #[expect(
        clippy::too_many_arguments,
        reason = "the Recorder forwards its on_message hook's arguments unbundled"
    )]
    pub fn record_message(
        &mut self,
        to: AsId,
        rel: Relationship,
        class: UpdateClass,
        provenance: &Provenance,
        root_sets: &RootSets,
        inbox_depth: u32,
        t_us: u64,
    ) {
        let armed = self.current_armed;
        let ty = self
            .node_types
            .get(to.index())
            .copied()
            .unwrap_or(NodeType::C);
        let bin = self.bin_mut(t_us);
        bin.by_rel[rel] += 1;
        bin.by_type[ty] += 1;
        match class {
            UpdateClass::Announce => bin.announces += 1,
            UpdateClass::Withdraw => bin.withdraws += 1,
        }
        bin.inbox_peak = bin.inbox_peak.max(u64::from(inbox_depth));
        bin.mrai_armed_peak = bin.mrai_armed_peak.max(armed);

        // An unstamped update names no root.
        for &root in provenance.roots(root_sets) {
            if let Some(r) = self.series.roots.get_mut(root as usize) {
                r.updates += 1;
                r.last_update_us = r.last_update_us.max(t_us);
            }
        }
    }

    /// Records a change of the scheduled-MRAI-expiry level.
    pub fn record_timer_occupancy(&mut self, armed: u64, t_us: u64) {
        self.current_armed = armed;
        let bin = self.bin_mut(t_us);
        bin.mrai_armed_peak = bin.mrai_armed_peak.max(armed);
    }

    /// Finishes the event, yielding its one-event series.
    pub fn finish(mut self) -> TimeSeries {
        self.series.events = 1;
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Stamp;

    fn spec(bin_us: u64) -> TimeSeriesSpec {
        TimeSeriesSpec {
            bin_us,
            node_types: Arc::from(vec![NodeType::T, NodeType::M, NodeType::C]),
        }
    }

    fn deliver(rec: &mut TimeSeriesRecorder, to: u32, p: &Provenance, t: u64) {
        deliver_with(rec, to, p, &RootSets::new(), t);
    }

    fn deliver_with(rec: &mut TimeSeriesRecorder, to: u32, p: &Provenance, sets: &RootSets, t: u64) {
        rec.record_message(
            AsId(to),
            Relationship::Customer,
            UpdateClass::Announce,
            p,
            sets,
            1,
            t,
        );
    }

    #[test]
    fn bins_split_by_relation_and_type() {
        let mut rec = TimeSeriesRecorder::new(0, &spec(10));
        let p = Provenance::root(0).with_rel(Relationship::Peer);
        rec.record_root(0, RootCauseKind::Originate, AsId(1), 0);
        rec.record_message(AsId(0), Relationship::Peer, UpdateClass::Announce, &p, &RootSets::new(), 2, 5);
        rec.record_message(AsId(2), Relationship::Customer, UpdateClass::Withdraw, &p, &RootSets::new(), 1, 15);
        let ts = rec.finish();
        assert_eq!(ts.bins.len(), 2);
        assert_eq!(ts.bins[0].by_rel.0, [0, 1, 0]);
        assert_eq!(ts.bins[0].by_type.0, [1, 0, 0, 0]);
        assert_eq!(ts.bins[1].by_rel.0, [1, 0, 0]);
        assert_eq!(ts.bins[1].by_type.0, [0, 0, 0, 1]);
        assert_eq!(ts.bins[0].announces, 1);
        assert_eq!(ts.bins[1].withdraws, 1);
        assert_eq!(ts.total_updates(), 2);
        assert_eq!(ts.events, 1);
    }

    #[test]
    fn roots_track_convergence_and_attribution() {
        let mut rec = TimeSeriesRecorder::new(4, &spec(100));
        rec.record_root(0, RootCauseKind::WithdrawOrigin, AsId(1), 50);
        let p = Provenance::root(0);
        deliver(&mut rec, 0, &p.child(), 60);
        deliver(&mut rec, 2, &p.child().child(), 250);
        let ts = rec.finish();
        assert_eq!(ts.roots.len(), 1);
        let r = ts.roots[0];
        assert_eq!((r.event, r.kind), (4, RootCauseKind::WithdrawOrigin));
        assert_eq!(r.updates, 2);
        assert_eq!(r.convergence_us(), 200);
        assert_eq!(ts.convergence_durations_us(), vec![200]);
    }

    #[test]
    fn coalesced_stamps_feed_every_contributing_root() {
        let mut rec = TimeSeriesRecorder::new(0, &spec(100));
        rec.record_root(0, RootCauseKind::Originate, AsId(0), 0);
        rec.record_root(1, RootCauseKind::WithdrawOrigin, AsId(0), 10);
        let mut sets = RootSets::new();
        let mut p = Provenance::root(1);
        p.coalesce_with(&Provenance::root(0), &mut sets);
        deliver_with(&mut rec, 1, &p, &sets, 40);
        let ts = rec.finish();
        assert_eq!(ts.roots[0].updates, 1);
        assert_eq!(ts.roots[1].updates, 1);
    }

    #[test]
    fn occupancy_carries_forward_into_message_bins() {
        let mut rec = TimeSeriesRecorder::new(0, &spec(10));
        rec.record_timer_occupancy(3, 2);
        deliver(&mut rec, 0, &Provenance::none(), 25);
        let ts = rec.finish();
        assert_eq!(ts.bins[0].mrai_armed_peak, 3);
        assert_eq!(ts.bins[2].mrai_armed_peak, 3, "level carries forward");
    }

    #[test]
    fn merge_adds_counts_and_maxes_peaks_in_order() {
        let mk = |event: u32, t: u64| {
            let mut rec = TimeSeriesRecorder::new(event, &spec(10));
            rec.record_root(0, RootCauseKind::Originate, AsId(0), 0);
            rec.record_timer_occupancy(u64::from(event) + 1, t);
            deliver(&mut rec, 0, &Provenance::root(0), t);
            // The recorder, not the series, observes the depth.
            let mut ts = rec.finish();
            ts.depth.observe(0);
            ts
        };
        let mut a = mk(0, 5);
        let b = mk(1, 15);
        a.merge(&b);
        assert_eq!(a.events, 2);
        assert_eq!(a.bins.len(), 2);
        assert_eq!(a.bins[0].total(), 1);
        assert_eq!(a.bins[1].total(), 1);
        assert_eq!(a.bins[1].mrai_armed_peak, 2);
        assert_eq!(a.roots.len(), 2);
        assert_eq!(a.roots[0].event, 0);
        assert_eq!(a.roots[1].event, 1);
        assert_eq!(a.depth.count(), 2);
    }

    #[test]
    #[should_panic(expected = "different bin widths")]
    fn merge_rejects_mismatched_bin_widths() {
        let mut a = TimeSeries::new(10);
        a.merge(&TimeSeries::new(20));
    }

    #[test]
    fn json_is_integer_only_and_deterministic() {
        let mut rec = TimeSeriesRecorder::new(0, &spec(10));
        rec.record_root(0, RootCauseKind::SessionDown, AsId(2), 0);
        deliver(&mut rec, 0, &Provenance::root(0), 5);
        let ts = rec.finish();
        let json = ts.to_json();
        assert_eq!(json, ts.clone().to_json(), "stable rendering");
        assert!(json.starts_with("{\"bin_us\":10,\"events\":1,"));
        assert!(json.contains("\"kind\":\"session_down\""));
        assert!(!json.contains('.'), "integer-only artifact: {json}");
    }
}
