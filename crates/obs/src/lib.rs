//! # bgpscale-obs
//!
//! Deterministic simulation telemetry for the `bgpscale` workspace:
//! observer hooks, a metrics registry, structured event tracing, churn
//! provenance stamps, simulated-time series and the run ledger — with
//! **zero external dependencies**. Every JSON artifact is rendered and
//! parsed by one module, [`json`], and every file is written by one,
//! [`artifact`], which refuses a document without the [`SCHEMA_VERSION`]
//! stamp.
//!
//! Everything here is deterministic: [`MetricsRegistry`] snapshots and
//! [`TraceRecord`] streams are pure functions of the simulated trajectory:
//! integer-only, merged in event-index order, serialized with sorted keys.
//! `metrics.json` and `trace.jsonl` are byte-identical for any `--jobs`
//! level (regression-tested in `bgpscale-core`). Wall time — the host
//! clock, `repro profile`'s phase table, log verbosity — is
//! `bgpscale-experiments`' `wall` module, which this crate cannot reach.
//!
//! The simulator is generic over [`SimObserver`] with [`NoopObserver`] as
//! the default: hooks are statically dispatched empty inline bodies, so
//! the un-observed simulator compiles to the same code as before this
//! crate existed (the live-[`Recorder`] cost is `benchmark/`'s
//! `obs.recorder_ns_per_delivery`).
//!
//! ## Example
//!
//! ```
//! use bgpscale_obs::{EventKind, Recorder, SimObserver};
//! use bgpscale_simkernel::SimTime;
//!
//! let mut rec = Recorder::default();
//! rec.on_event(EventKind::Deliver, SimTime::from_millis(3));
//! let registry = rec.registry();
//! assert_eq!(registry.counter("events.deliver"), 1);
//! assert!(registry.to_json().contains("\"events.deliver\": 1"));
//! ```

#![forbid(unsafe_code)]
// The panic surface: a panic in a deterministic crate aborts a cell, so
// every index, unwrap, expect and panic! outside the tests is either
// rewritten away or audited by an `#[expect(<lint>, reason = "...")]` on
// its function.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod artifact;
pub mod costmodel;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod observer;
pub mod provenance;
pub mod recorder;
pub mod timeseries;
pub mod trace;

/// Schema version stamped into every JSON artifact the workspace writes
/// (`metrics.json`, `timeseries.json`, `costmodel.json`, the trace
/// header, run-ledger lines). Bump when a writer changes its
/// key layout incompatibly; readers reject mismatches, the run ledger
/// included ([`ledger::parse_line`]). A bump moves
/// `results/ledger/runs.jsonl` verbatim under `results/ledger/archive/`
/// and re-blesses the CI cells into a fresh ledger, in the same commit.
///
/// v1 → v2: [`OpCounts`] grew `queue_cascades` and `arena_bytes_reserved`
/// (appended classes; the v1 field set is an exact prefix).
///
/// v2 → v3: the same fifteen classes under binary-heap accounting.
/// `queue_decreases` and `queue_comparisons` count the event queue's
/// sift moves and key comparisons (up ~80× on what schema 2 counted)
/// and `queue_cascades` reads 0. The layout is unchanged; the bump only
/// keeps baselines and trends from comparing across the two meanings.
/// The queue has changed under v3 since, without a bump, the perf
/// baselines re-blessed once each time: the in-order lane, then the radix
/// heap, under which the two classes count re-bucketed entries and the
/// comparisons that keep its buckets' minima and merge it with the
/// messages in flight, then the calendar ring beside the heap, whose
/// insertions add the entries of a slot they examine to the comparisons
/// and whose entries are never re-bucketed. `path_intern_misses`
/// moved under v3 once, also re-blessed without a bump: it counts an
/// export path built only when a session takes it.
pub const SCHEMA_VERSION: u32 = 3;

pub use costmodel::{ClassKind, CostModel, OpCounts, PhaseCosts, PHASES, PHASE_NAMES};
pub use ledger::{
    append_records, config_fingerprint, read_ledger, AppendOutcome, ArtifactHashes, LedgerError,
    LedgerRecord, RunKind, WallSide,
};
pub use metrics::{Gauge, Histogram, MetricsRegistry};
pub use observer::{EventKind, NoopObserver, SimObserver, UpdateClass};
pub use provenance::{Provenance, RootCauseKind, RootSets, Stamp};
pub use recorder::{Recorder, RecorderOptions};
pub use timeseries::{RootRecord, TimeSeries, TimeSeriesRecorder, TimeSeriesSpec, TsBin};
pub use trace::{TraceBuffer, TraceRecord};
