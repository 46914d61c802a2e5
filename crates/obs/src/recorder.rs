//! [`Recorder`]: the standard metrics-and-trace observer.
//!
//! One `Recorder` observes one simulator instance (one C-event in the
//! experiment harness). It keeps its hot-path state in plain fields —
//! fixed arrays, no map lookups per event — and materializes a
//! [`MetricsRegistry`] only when the run is over, so the metrics-on
//! overhead stays small (measured by `benchmark/`'s `observed_5k`
//! workload as `obs.recorder_ns_per_delivery`).
//!
//! Everything a `Recorder` captures is a pure function of the simulated
//! trajectory: counters, integer histograms, and (optionally) sampled
//! trace records stamped with the C-event index plus a simulated-time
//! series. Merging per-event registries in event-index order therefore
//! reproduces identical bytes for any `--jobs` level.

use bgpscale_simkernel::SimTime;
use bgpscale_topology::{AsId, Relationship};

use crate::metrics::MetricsRegistry;
use crate::observer::{EventKind, SimObserver, UpdateClass};
use crate::provenance::{Provenance, RootCauseKind, RootSets};
use crate::timeseries::{depth_bucket, TimeSeries, TimeSeriesRecorder, TimeSeriesSpec, DEPTH_BOUNDS};
use crate::trace::{TraceBuffer, TraceRecord};

/// Bucket bounds for AS-path lengths (hops).
pub const PATH_LEN_BOUNDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Bucket bounds for per-flush MRAI batch sizes (updates sent).
pub const FLUSH_BOUNDS: [u64; 5] = [1, 2, 4, 8, 16];

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
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    events_by_kind: [u64; 4],
    msgs_by_rel: [u64; 3],
    announces: u64,
    withdraws: u64,
    mrai_flushes: u64,
    mrai_flushed_updates: u64,
    decision_runs: u64,
    quiescences: u64,
    last_quiescence_us: u64,
    final_events_processed: u64,
    path_len_hist: [u64; 7],
    path_len_sum: u64,
    path_len_max: u64,
    flush_hist: [u64; 6],
    // Provenance accounting (all deliveries, stamped or not).
    prov_stamped: u64,
    prov_unstamped: u64,
    prov_coalesced: u64,
    prov_depth_hist: [u64; 8],
    prov_depth_sum: u64,
    prov_depth_max: u64,
    /// Stamped deliveries by the *sending* edge's relation
    /// (to_customer / to_peer / to_provider).
    prov_to_rel: [u64; 3],
    roots_by_kind: [u64; 5],
    inbox_peak: u64,
    armed_peak: u64,
    trace: Option<TraceBuffer>,
    timeseries: Option<TimeSeriesRecorder>,
}

fn bucket(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

impl Recorder {
    /// A metrics-only recorder for C-event `event`.
    pub fn new(event: u32) -> Recorder {
        Recorder::with_options(event, RecorderOptions::default())
    }

    /// A recorder that additionally keeps 1-in-`sample_every` trace
    /// records (`Some(1)` keeps everything).
    pub fn with_trace(event: u32, trace_sample: Option<u64>) -> Recorder {
        Recorder::with_options(
            event,
            RecorderOptions {
                trace_sample,
                timeseries: None,
            },
        )
    }

    /// A recorder with the full option set.
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
    pub fn events_total(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// Consumes the recorder, returning its trace records (empty when
    /// tracing was off).
    pub fn into_trace(self) -> Vec<TraceRecord> {
        self.into_parts().0
    }

    /// Consumes the recorder, returning trace records and the one-event
    /// time series (when enabled).
    pub fn into_parts(self) -> (Vec<TraceRecord>, Option<TimeSeries>) {
        (
            self.trace.map(TraceBuffer::into_records).unwrap_or_default(),
            self.timeseries.map(TimeSeriesRecorder::finish),
        )
    }

    /// Materializes the deterministic metrics registry.
    pub fn registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for kind in EventKind::ALL {
            r.inc(
                &format!("events.{}", kind.name()),
                self.events_by_kind[kind.index()],
            );
        }
        r.inc("events.total", self.events_total());
        r.inc("messages.from_customer", self.msgs_by_rel[0]);
        r.inc("messages.from_peer", self.msgs_by_rel[1]);
        r.inc("messages.from_provider", self.msgs_by_rel[2]);
        r.inc("messages.announce", self.announces);
        r.inc("messages.withdraw", self.withdraws);
        r.inc("mrai.flushes", self.mrai_flushes);
        r.inc("mrai.flushed_updates", self.mrai_flushed_updates);
        r.inc("decision.runs", self.decision_runs);
        r.inc("sim.quiescences", self.quiescences);
        r.set_gauge("sim.last_quiescence_us", self.last_quiescence_us);
        r.set_gauge("sim.events_processed", self.final_events_processed);
        r.set_gauge("messages.path_len_max", self.path_len_max);
        r.inc("messages.path_len_sum", self.path_len_sum);
        r.inc("provenance.stamped", self.prov_stamped);
        r.inc("provenance.unstamped", self.prov_unstamped);
        r.inc("provenance.coalesced", self.prov_coalesced);
        r.inc("provenance.depth_sum", self.prov_depth_sum);
        r.set_gauge("provenance.depth_max", self.prov_depth_max);
        r.inc("provenance.to_customer", self.prov_to_rel[0]);
        r.inc("provenance.to_peer", self.prov_to_rel[1]);
        r.inc("provenance.to_provider", self.prov_to_rel[2]);
        for kind in RootCauseKind::ALL {
            r.inc(
                &format!("provenance.roots.{}", kind.name()),
                self.roots_by_kind[kind.index()],
            );
        }
        r.inc("provenance.roots", self.roots_by_kind.iter().sum());
        r.set_gauge("sim.inbox_depth_peak", self.inbox_peak);
        r.set_gauge("mrai.armed_peak", self.armed_peak);
        // Rebuild histograms from the fixed arrays (bounds are compile-
        // time constants, so every recorder produces mergeable shapes).
        inject_histogram(&mut r, "messages.path_len", &PATH_LEN_BOUNDS, &self.path_len_hist);
        inject_histogram(&mut r, "mrai.flush_batch", &FLUSH_BOUNDS, &self.flush_hist);
        inject_histogram(&mut r, "provenance.depth", &DEPTH_BOUNDS, &self.prov_depth_hist);
        r
    }
}

/// Copies a fixed-array histogram into the registry by bulk-observing a
/// representative value per bucket: the bound itself for bounded buckets,
/// last-bound+1 for the overflow bucket. This preserves bucket *counts*
/// exactly; the histogram's internal sum/max become bucket-edge
/// approximations, so the true sum/max are recorded by the caller as a
/// separate counter/gauge. Cost is O(buckets) regardless of sample count,
/// keeping the fast fixed-array accounting in the hot loop while still
/// producing a standard mergeable histogram.
fn inject_histogram(r: &mut MetricsRegistry, name: &str, bounds: &[u64], counts: &[u64]) {
    for (i, &c) in counts.iter().enumerate() {
        let representative = if i < bounds.len() {
            bounds[i]
        } else {
            bounds[bounds.len() - 1] + 1
        };
        r.observe_n(name, bounds, representative, c);
    }
}

impl SimObserver for Recorder {
    #[inline]
    // det::allow(panic-surface, reason = "events_by_kind is a fixed array indexed by EventKind::index, which enumerates the variants")
    fn on_event(&mut self, kind: EventKind, _now: SimTime) {
        self.events_by_kind[kind.index()] += 1;
    }

    #[inline]
    // det::allow(panic-surface, reason = "histogram arrays are fixed-size and the bucket helpers clamp to the last bin; Relationship::index enumerates the variants")
    fn on_message(
        &mut self,
        _from: AsId,
        to: AsId,
        rel: Relationship,
        class: UpdateClass,
        prefix: u32,
        path_len: impl FnOnce() -> Option<u32>,
        provenance: &Provenance,
        root_sets: &RootSets,
        inbox_depth: u32,
        now: SimTime,
    ) {
        let path_len = path_len();
        self.msgs_by_rel[rel.index()] += 1;
        match class {
            UpdateClass::Announce => {
                self.announces += 1;
                let len = u64::from(path_len.unwrap_or(0));
                self.path_len_hist[bucket(&PATH_LEN_BOUNDS, len)] += 1;
                self.path_len_sum += len;
                self.path_len_max = self.path_len_max.max(len);
            }
            UpdateClass::Withdraw => self.withdraws += 1,
        }
        self.inbox_peak = self.inbox_peak.max(u64::from(inbox_depth));
        if provenance.is_stamped() {
            self.prov_stamped += 1;
            let depth = u64::from(provenance.depth());
            self.prov_depth_hist[depth_bucket(depth)] += 1;
            self.prov_depth_sum += depth;
            self.prov_depth_max = self.prov_depth_max.max(depth);
            if provenance.roots(root_sets).len() > 1 {
                self.prov_coalesced += 1;
            }
            if let Some(stamp_rel) = provenance.rel() {
                self.prov_to_rel[stamp_rel.index()] += 1;
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
    // det::allow(panic-surface, reason = "roots_by_kind is a fixed array indexed by RootCauseKind::index, which enumerates the variants")
    fn on_root_cause(&mut self, id: u32, kind: RootCauseKind, node: AsId, now: SimTime) {
        self.roots_by_kind[kind.index()] += 1;
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
    // det::allow(panic-surface, reason = "flush_hist is fixed-size and bucket clamps to the last bin")
    fn on_mrai_flush(&mut self, node: AsId, sent: u32, now: SimTime) {
        self.mrai_flushes += 1;
        self.mrai_flushed_updates += u64::from(sent);
        self.flush_hist[bucket(&FLUSH_BOUNDS, u64::from(sent))] += 1;
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
        let mut rec = Recorder::new(0);
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

    #[test]
    fn trace_records_carry_event_index_kinds_and_provenance() {
        let mut rec = Recorder::with_trace(9, Some(1));
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
        let t = rec.into_trace();
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
        let mut rec = Recorder::new(0);
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
}
