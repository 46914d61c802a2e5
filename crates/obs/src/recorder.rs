//! [`Recorder`]: the standard metrics-and-trace observer.
//!
//! One `Recorder` observes one simulator instance (one C-event in the
//! experiment harness). It keeps its hot-path state in plain fields —
//! counters, fixed arrays and three [`Histogram`]s, no map lookups per
//! event — and materializes a [`MetricsRegistry`] only when the run is
//! over, so the metrics-on overhead stays small (measured by
//! `benchmark/`'s `observed_5k` workload as
//! `obs.recorder_ns_per_delivery`).
//!
//! Everything a `Recorder` captures is a pure function of the simulated
//! trajectory: counters, integer histograms, and (optionally) sampled
//! trace records stamped with the C-event index plus a simulated-time
//! series. Merging per-event registries in event-index order therefore
//! reproduces identical bytes for any `--jobs` level.

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use bgpscale_simkernel::SimTime;
use bgpscale_topology::{AsId, ByRel, Relationship};

use crate::metrics::{Histogram, MetricsRegistry};
use crate::observer::{EventKind, SimObserver, UpdateClass};
use crate::provenance::{Provenance, RootCauseKind, RootSets, Stamp};
use crate::timeseries::{TimeSeries, TimeSeriesRecorder, TimeSeriesSpec, DEPTH_BOUNDS};
use crate::trace::{TraceBuffer, TraceRecord};

/// Bucket bounds for AS-path lengths (hops).
pub const PATH_LEN_BOUNDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Bucket bounds for per-flush MRAI batch sizes (updates sent).
/// An expiry that finds every waiting update turned into a no-op sends
/// nothing and lands in the ≤0 bucket.
pub const FLUSH_BOUNDS: [u64; 6] = [0, 1, 2, 4, 8, 16];

/// What a [`Recorder`] should capture beyond its always-on counters.
#[derive(Clone, Debug, Default)]
pub struct RecorderOptions {
    /// Keep 1-in-`n` trace records when `Some(n)` (`Some(1)` keeps all).
    pub trace_sample: Option<u64>,
    /// Record a simulated-time series when `Some`.
    pub timeseries: Option<TimeSeriesSpec>,
}

/// The metrics/trace observer. Create one per simulator instance. The
/// default is an empty metrics-only recorder: what an idle simulator holds
/// between events.
#[derive(Clone, Debug)]
pub struct Recorder {
    events_by_kind: [u64; EventKind::ALL.len()],
    msgs_by_rel: ByRel<u64>,
    withdraws: u64,
    decision_runs: u64,
    quiescences: u64,
    last_quiescence_us: u64,
    final_events_processed: u64,
    /// The AS-path length of every announcement delivered: its count is
    /// the announcements.
    path_len: Histogram,
    /// Updates sent by every valid MRAI expiry: its count is the flushes,
    /// its sum the updates flushed.
    flush_batch: Histogram,
    // Provenance accounting (all deliveries, stamped or not).
    /// The causal depth of every stamped delivery: its count is the
    /// stamped deliveries.
    depth: Histogram,
    prov_unstamped: u64,
    prov_coalesced: u64,
    /// Stamped deliveries by the *sending* edge's relation
    /// (to_customer / to_peer / to_provider).
    prov_to_rel: ByRel<u64>,
    roots_by_kind: [u64; RootCauseKind::ALL.len()],
    inbox_peak: u64,
    armed_peak: u64,
    trace: Option<TraceBuffer>,
    timeseries: Option<TimeSeriesRecorder>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            events_by_kind: Default::default(),
            msgs_by_rel: ByRel::default(),
            withdraws: 0,
            decision_runs: 0,
            quiescences: 0,
            last_quiescence_us: 0,
            final_events_processed: 0,
            path_len: Histogram::new(&PATH_LEN_BOUNDS),
            flush_batch: Histogram::new(&FLUSH_BOUNDS),
            depth: Histogram::new(&DEPTH_BOUNDS),
            prov_unstamped: 0,
            prov_coalesced: 0,
            prov_to_rel: ByRel::default(),
            roots_by_kind: Default::default(),
            inbox_peak: 0,
            armed_peak: 0,
            trace: None,
            timeseries: None,
        }
    }
}

impl Recorder {
    /// A recorder for C-event `event` that also captures what `opts`
    /// asks for; the event index stamps the trace records and the time
    /// series. [`Recorder::default`] is the metrics-only recorder.
    pub fn with_options(event: u32, opts: RecorderOptions) -> Recorder {
        Recorder {
            trace: opts.trace_sample.map(|n| TraceBuffer::new(event, n)),
            timeseries: opts
                .timeseries
                .as_ref()
                .map(|spec| TimeSeriesRecorder::new(event, spec)),
            ..Recorder::default()
        }
    }

    /// Total events observed across all kinds.
    fn events_total(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// Consumes the recorder, returning trace records and the one-event
    /// time series (when enabled). The series' provenance totals are the
    /// recorder's own `provenance.*` tallies.
    pub fn into_parts(self) -> (Vec<TraceRecord>, Option<TimeSeries>) {
        let series = self.timeseries.map(|ts| TimeSeries {
            unstamped: self.prov_unstamped,
            coalesced: self.prov_coalesced,
            depth: self.depth,
            ..ts.finish()
        });
        (self.trace.map(TraceBuffer::into_records).unwrap_or_default(), series)
    }

    /// Materializes the deterministic metrics registry.
    pub fn registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for (kind, &count) in EventKind::ALL.iter().zip(&self.events_by_kind) {
            r.inc(&format!("events.{}", kind.name()), count);
        }
        r.inc("events.total", self.events_total());
        r.inc("messages.from_customer", self.msgs_by_rel[Relationship::Customer]);
        r.inc("messages.from_peer", self.msgs_by_rel[Relationship::Peer]);
        r.inc("messages.from_provider", self.msgs_by_rel[Relationship::Provider]);
        r.inc("messages.announce", self.path_len.count());
        r.inc("messages.withdraw", self.withdraws);
        r.inc("mrai.flushes", self.flush_batch.count());
        r.inc("mrai.flushed_updates", self.flush_batch.sum());
        r.inc("decision.runs", self.decision_runs);
        r.inc("sim.quiescences", self.quiescences);
        r.set_gauge("sim.last_quiescence_us", self.last_quiescence_us);
        r.set_gauge("sim.events_processed", self.final_events_processed);
        r.inc("provenance.stamped", self.depth.count());
        r.inc("provenance.unstamped", self.prov_unstamped);
        r.inc("provenance.coalesced", self.prov_coalesced);
        r.inc("provenance.to_customer", self.prov_to_rel[Relationship::Customer]);
        r.inc("provenance.to_peer", self.prov_to_rel[Relationship::Peer]);
        r.inc("provenance.to_provider", self.prov_to_rel[Relationship::Provider]);
        for (kind, &count) in RootCauseKind::ALL.iter().zip(&self.roots_by_kind) {
            r.inc(&format!("provenance.roots.{}", kind.name()), count);
        }
        r.inc("provenance.roots", self.roots_by_kind.iter().sum());
        r.set_gauge("sim.inbox_depth_peak", self.inbox_peak);
        r.set_gauge("mrai.armed_peak", self.armed_peak);
        r.insert_histogram("messages.path_len", &self.path_len);
        r.insert_histogram("mrai.flush_batch", &self.flush_batch);
        r.insert_histogram("provenance.depth", &self.depth);
        r
    }
}

impl SimObserver for Recorder {
    type Stamp = Provenance;

    #[inline]
    fn on_event(&mut self, kind: EventKind, _now: SimTime) {
        if let Some(count) = self.events_by_kind.get_mut(kind.index()) {
            *count += 1;
        }
    }

    #[inline]
    fn on_message(
        &mut self,
        _from: AsId,
        to: AsId,
        rel: Relationship,
        class: UpdateClass,
        prefix: u32,
        path_len: impl FnOnce() -> Option<u32>,
        stamp: &Self::Stamp,
        root_sets: &RootSets,
        inbox_depth: u32,
        now: SimTime,
    ) {
        // Read through the `Stamp` trait, as any observer's stamp is: the
        // recorder counts what it is given, stamped or not.
        let provenance = &stamp.provenance();
        let path_len = path_len();
        self.msgs_by_rel[rel] += 1;
        match class {
            UpdateClass::Announce => self.path_len.observe(u64::from(path_len.unwrap_or(0))),
            UpdateClass::Withdraw => self.withdraws += 1,
        }
        self.inbox_peak = self.inbox_peak.max(u64::from(inbox_depth));
        if provenance.is_stamped() {
            self.depth.observe(u64::from(provenance.depth()));
            if provenance.roots(root_sets).len() > 1 {
                self.prov_coalesced += 1;
            }
            if let Some(stamp_rel) = provenance.rel() {
                self.prov_to_rel[stamp_rel] += 1;
            }
        } else {
            self.prov_unstamped += 1;
        }
        if let Some(ts) = &mut self.timeseries {
            ts.record_message(to, rel, class, provenance, root_sets, inbox_depth, now.as_micros());
        }
        if let Some(t) = &mut self.trace {
            let root = provenance.primary_root(root_sets);
            let depth = provenance.is_stamped().then(|| provenance.depth());
            t.offer(|event| TraceRecord {
                event,
                t_us: now.as_micros(),
                node: to.0,
                kind: EventKind::Deliver,
                prefix: Some(prefix),
                path_len,
                root,
                depth,
            });
        }
    }

    #[inline]
    fn on_root_cause(&mut self, id: u32, kind: RootCauseKind, node: AsId, now: SimTime) {
        if let Some(count) = self.roots_by_kind.get_mut(kind.index()) {
            *count += 1;
        }
        if let Some(ts) = &mut self.timeseries {
            ts.record_root(id, kind, node, now.as_micros());
        }
    }

    #[inline]
    fn on_timer_occupancy(&mut self, armed: u64, now: SimTime) {
        self.armed_peak = self.armed_peak.max(armed);
        if let Some(ts) = &mut self.timeseries {
            ts.record_timer_occupancy(armed, now.as_micros());
        }
    }

    #[inline]
    fn on_mrai_flush(&mut self, node: AsId, sent: u32, now: SimTime) {
        self.flush_batch.observe(u64::from(sent));
        if let Some(t) = &mut self.trace {
            t.offer(|event| TraceRecord {
                event,
                t_us: now.as_micros(),
                node: node.0,
                kind: EventKind::MraiExpire,
                prefix: None,
                path_len: None,
                root: None,
                depth: None,
            });
        }
    }

    #[inline]
    fn on_decision_run(&mut self, node: AsId, now: SimTime) {
        self.decision_runs += 1;
        if let Some(t) = &mut self.trace {
            t.offer(|event| TraceRecord {
                event,
                t_us: now.as_micros(),
                node: node.0,
                kind: EventKind::ProcDone,
                prefix: None,
                path_len: None,
                root: None,
                depth: None,
            });
        }
    }

    #[inline]
    fn on_quiescence(&mut self, now: SimTime, events_processed: u64) {
        self.quiescences += 1;
        self.last_quiescence_us = now.as_micros();
        self.final_events_processed = events_processed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TimeSeriesSpec;
    use bgpscale_topology::NodeType;
    use std::sync::Arc;

    #[test]
    fn recorder_counts_hooks_into_registry() {
        let mut rec = Recorder::default();
        rec.on_event(EventKind::Deliver, SimTime::ZERO);
        rec.on_event(EventKind::ProcDone, SimTime::ZERO);
        rec.on_event(EventKind::Deliver, SimTime::ZERO);
        rec.on_message(
            AsId(1),
            AsId(2),
            Relationship::Customer,
            UpdateClass::Announce,
            0,
            || Some(4),
            &Provenance::root(0).with_rel(Relationship::Provider),
            &RootSets::new(),
            2,
            SimTime::from_millis(5),
        );
        rec.on_message(
            AsId(2),
            AsId(1),
            Relationship::Provider,
            UpdateClass::Withdraw,
            0,
            || None,
            &Provenance::none(),
            &RootSets::new(),
            1,
            SimTime::from_millis(6),
        );
        rec.on_root_cause(0, RootCauseKind::Originate, AsId(1), SimTime::ZERO);
        rec.on_timer_occupancy(5, SimTime::from_millis(6));
        rec.on_mrai_flush(AsId(1), 3, SimTime::from_millis(7));
        rec.on_decision_run(AsId(2), SimTime::from_millis(8));
        rec.on_quiescence(SimTime::from_secs(30), 123);

        let r = rec.registry();
        assert_eq!(r.counter("events.deliver"), 2);
        assert_eq!(r.counter("events.proc_done"), 1);
        assert_eq!(r.counter("events.total"), 3);
        assert_eq!(r.counter("messages.from_customer"), 1);
        assert_eq!(r.counter("messages.from_provider"), 1);
        assert_eq!(r.counter("messages.announce"), 1);
        assert_eq!(r.counter("messages.withdraw"), 1);
        assert_eq!(r.counter("mrai.flushes"), 1);
        assert_eq!(r.counter("mrai.flushed_updates"), 3);
        assert_eq!(r.counter("decision.runs"), 1);
        assert_eq!(r.gauge("sim.events_processed").unwrap().value, 123);
        assert_eq!(r.gauge("sim.last_quiescence_us").unwrap().value, 30_000_000);
        let h = r.histogram("messages.path_len").unwrap();
        assert_eq!(h.count(), 1);
        // Provenance accounting.
        assert_eq!(r.counter("provenance.stamped"), 1);
        assert_eq!(r.counter("provenance.unstamped"), 1);
        assert_eq!(r.counter("provenance.coalesced"), 0);
        assert_eq!(r.counter("provenance.to_provider"), 1);
        assert_eq!(r.counter("provenance.roots.originate"), 1);
        assert_eq!(r.counter("provenance.roots"), 1);
        assert_eq!(r.gauge("sim.inbox_depth_peak").unwrap().value, 2);
        assert_eq!(r.gauge("mrai.armed_peak").unwrap().value, 5);
        assert_eq!(r.histogram("provenance.depth").unwrap().count(), 1);
    }

    /// Every distribution is counted once, in the registry's histogram:
    /// its sum and maximum are the samples', not bucket edges.
    #[test]
    fn registry_histograms_count_sum_and_max_exactly() {
        let mut rec = Recorder::default();
        let root = Provenance::root(0);
        let deliveries = [
            (Some(2), root),
            (Some(4), root.child()),
            (Some(7), root.child().child().child()),
            (None, root.child().child()),
        ];
        for (path_len, stamp) in deliveries {
            let class = match path_len {
                Some(_) => UpdateClass::Announce,
                None => UpdateClass::Withdraw,
            };
            let (from, to, rel) = (AsId(0), AsId(1), Relationship::Customer);
            let sets = RootSets::new();
            rec.on_message(from, to, rel, class, 0, || path_len, &stamp, &sets, 1, SimTime::ZERO);
        }
        for sent in [0, 0, 3, 1] {
            rec.on_mrai_flush(AsId(1), sent, SimTime::ZERO);
        }
        let r = rec.registry();
        let exact = |name: &str| {
            let h = r.histogram(name).unwrap();
            (h.count(), h.sum(), h.max())
        };
        assert_eq!(exact("messages.path_len"), (3, 13, 7), "path lengths 2, 4, 7");
        assert_eq!(exact("provenance.depth"), (4, 6, 3), "depths 0, 1, 3, 2");
        assert_eq!(exact("mrai.flush_batch"), (4, 4, 3), "flushes of 0, 0, 3, 1");
        let flushes = r.histogram("mrai.flush_batch").unwrap();
        assert_eq!(flushes.bucket_counts(), [2, 1, 0, 1, 0, 0, 0], "empty flushes at <=0");
        assert_eq!(r.counter("messages.announce"), 3);
        assert_eq!(r.counter("provenance.stamped"), 4);
        assert_eq!((r.counter("mrai.flushes"), r.counter("mrai.flushed_updates")), (4, 4));
    }

    #[test]
    fn trace_records_carry_event_index_kinds_and_provenance() {
        let opts = RecorderOptions {
            trace_sample: Some(1),
            ..RecorderOptions::default()
        };
        let mut rec = Recorder::with_options(9, opts);
        rec.on_message(
            AsId(1),
            AsId(2),
            Relationship::Peer,
            UpdateClass::Announce,
            7,
            || Some(2),
            &Provenance::root(4).child(),
            &RootSets::new(),
            1,
            SimTime::from_micros(10),
        );
        rec.on_decision_run(AsId(2), SimTime::from_micros(20));
        rec.on_mrai_flush(AsId(3), 1, SimTime::from_micros(30));
        let (t, _) = rec.into_parts();
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|r| r.event == 9));
        assert_eq!(t[0].kind, EventKind::Deliver);
        assert_eq!(t[0].prefix, Some(7));
        assert_eq!(t[0].root, Some(4));
        assert_eq!(t[0].depth, Some(1));
        assert_eq!(t[1].kind, EventKind::ProcDone);
        assert_eq!(t[1].root, None);
        assert_eq!(t[2].kind, EventKind::MraiExpire);
    }

    #[test]
    fn metrics_only_recorder_has_no_trace() {
        let mut rec = Recorder::default();
        rec.on_decision_run(AsId(0), SimTime::ZERO);
        let (trace, series) = rec.into_parts();
        assert!(trace.is_empty());
        assert!(series.is_none());
    }

    #[test]
    fn timeseries_option_yields_a_one_event_series() {
        let spec = TimeSeriesSpec {
            bin_us: 1_000,
            node_types: Arc::from(vec![NodeType::T, NodeType::C]),
        };
        let mut rec = Recorder::with_options(
            3,
            RecorderOptions {
                trace_sample: None,
                timeseries: Some(spec),
            },
        );
        rec.on_root_cause(0, RootCauseKind::Originate, AsId(0), SimTime::ZERO);
        rec.on_message(
            AsId(0),
            AsId(1),
            Relationship::Provider,
            UpdateClass::Announce,
            0,
            || Some(1),
            &Provenance::root(0),
            &RootSets::new(),
            1,
            SimTime::from_micros(500),
        );
        let (_, series) = rec.into_parts();
        let series = series.expect("time series enabled");
        assert_eq!(series.events, 1);
        assert_eq!(series.total_updates(), 1);
        assert_eq!(series.roots.len(), 1);
        assert_eq!(series.roots[0].event, 3);
    }

    #[test]
    fn series_provenance_totals_are_the_recorders_tallies() {
        let spec = TimeSeriesSpec {
            bin_us: 1_000,
            node_types: Arc::from(vec![NodeType::T, NodeType::C]),
        };
        let opts = RecorderOptions {
            trace_sample: None,
            timeseries: Some(spec),
        };
        let mut rec = Recorder::with_options(0, opts);
        rec.on_root_cause(0, RootCauseKind::Originate, AsId(0), SimTime::ZERO);
        rec.on_root_cause(1, RootCauseKind::WithdrawOrigin, AsId(0), SimTime::ZERO);
        let mut sets = RootSets::new();
        let mut coalesced = Provenance::root(1);
        coalesced.coalesce_with(&Provenance::root(0), &mut sets);
        let stamps = [Provenance::root(0).child().child(), coalesced, Provenance::none()];
        for (t, stamp) in stamps.iter().enumerate() {
            rec.on_message(
                AsId(0),
                AsId(1),
                Relationship::Customer,
                UpdateClass::Withdraw,
                0,
                || None,
                stamp,
                &sets,
                1,
                SimTime::from_micros(t as u64),
            );
        }
        let r = rec.registry();
        let (_, series) = rec.into_parts();
        let ts = series.expect("time series enabled");
        assert_eq!((ts.depth.count(), ts.unstamped, ts.coalesced), (2, 1, 1));
        assert_eq!(ts.depth.count(), r.counter("provenance.stamped"));
        assert_eq!(ts.unstamped, r.counter("provenance.unstamped"));
        assert_eq!(ts.coalesced, r.counter("provenance.coalesced"));
        assert_eq!(ts.depth.max(), 2);
        assert_eq!(ts.depth.bucket_counts(), [1, 0, 1, 0, 0, 0, 0, 0]);
        assert_eq!(&ts.depth, r.histogram("provenance.depth").unwrap());
        assert_eq!(ts.roots.iter().map(|r| r.updates).collect::<Vec<_>>(), [2, 1]);
    }
}
