//! # bgpscale-obs
//!
//! Deterministic simulation telemetry for the `bgpscale` workspace:
//! observer hooks, a metrics registry, structured event tracing, churn
//! provenance stamps, simulated-time series, the run ledger, wall-clock
//! span profiling and leveled logging — with **zero external
//! dependencies**. Every JSON artifact is written and read by one module,
//! [`json`].
//!
//! The crate draws a hard line between two kinds of observability:
//!
//! * **Deterministic artifacts** — [`MetricsRegistry`] snapshots and
//!   [`TraceRecord`] streams are pure functions of the simulated
//!   trajectory: integer-only, merged in event-index order, serialized
//!   with sorted keys. `metrics.json` and `trace.jsonl` are byte-identical
//!   for any `--jobs` level (regression-tested in `bgpscale-core`).
//! * **Wall-clock profiling** — [`span!`] scopes aggregate real elapsed
//!   time into a process-global profile for `repro profile`. Wall time
//!   never enters the deterministic artifacts.
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
//! let mut rec = Recorder::new(0);
//! rec.on_event(EventKind::Deliver, SimTime::from_millis(3));
//! let registry = rec.registry();
//! assert_eq!(registry.counter("events.deliver"), 1);
//! assert!(registry.to_json().contains("\"events.deliver\": 1"));
//! ```

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod json;
pub mod ledger;
pub mod logging;
pub mod metrics;
pub mod observer;
pub mod provenance;
pub mod recorder;
pub mod span;
pub mod timeseries;
pub mod trace;

/// Schema version stamped into every JSON artifact the workspace writes
/// (`metrics.json`, `timeseries.json`, `costmodel.json`, the trace
/// header, run-ledger lines). Bump when a writer changes its
/// key layout incompatibly; readers reject mismatches — except the run
/// ledger, which is append-only history and keeps a read path for every
/// schema it ever wrote (see [`ledger::parse_line`]).
///
/// v1 → v2: [`OpCounts`] grew `queue_cascades` and `arena_bytes_reserved`
/// (appended classes; the v1 field set is an exact prefix).
///
/// v2 → v3: the same fifteen classes under binary-heap accounting.
/// `queue_decreases` and `queue_comparisons` count the event queue's
/// sift moves and key comparisons (up ~80× on what schema 2 counted)
/// and `queue_cascades` reads 0. The layout is unchanged; the bump only
/// keeps baselines and trends from comparing across the two meanings.
pub const SCHEMA_VERSION: u32 = 3;

pub use costmodel::{ClassKind, CostModel, OpCounts, PhaseCosts, PHASES, PHASE_NAMES};
pub use ledger::{
    append_records, config_fingerprint, read_ledger, AppendOutcome, ArtifactHashes, LedgerError,
    LedgerRecord, RunKind, WallSide,
};
pub use logging::Level;
pub use metrics::{Gauge, Histogram, MetricsRegistry};
pub use observer::{EventKind, NoopObserver, SimObserver, UpdateClass};
pub use provenance::{Provenance, RootCauseKind, RootSets};
pub use recorder::{Recorder, RecorderOptions};
pub use span::SpanStats;
pub use timeseries::{RootRecord, TimeSeries, TimeSeriesRecorder, TimeSeriesSpec, TsBin};
pub use trace::{TraceBuffer, TraceRecord, TraceWriter};
