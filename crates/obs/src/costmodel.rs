//! Deterministic cost-model counters: exact, integer-only operation
//! counts attributed per C-event and per convergence phase.
//!
//! The simulation is bit-identical for any `--jobs` level, which makes
//! every *operation count* — heap sifts, decision-process runs, route
//! comparisons, MRAI timer arms — an exact, machine-independent quantity.
//! This module collects those counts into a [`CostModel`] whose JSON
//! serialization (`costmodel.json`) is byte-identical across worker
//! counts, so perf regressions can be gated in CI by integer equality
//! instead of noisy wall-clock.
//!
//! Three layers feed the model:
//!
//! * `simkernel::queue` counts event-queue pushes, pops, sift moves,
//!   `(time, seq)` comparisons and timing-wheel cascades;
//! * `bgpscale-bgp` counts decision-process runs, route comparisons,
//!   Adj-RIB-out writes and AS-path intern hits vs misses;
//! * `bgpscale-core` counts message deliveries and MRAI arm/fire/coalesce
//!   transitions.
//!
//! The harness snapshots the merged totals at phase boundaries of each
//! C-event (after warm-up, after the DOWN phase, after the UP phase) and
//! stores the per-phase *differences* in event-index order. Wall-side
//! quantities (allocation counts, peak RSS, timings) never enter this
//! model — they live in `benchmark/`'s output and the run ledger's `wall`
//! tier only. Arena footprint *is* in the model, but as
//! `arena_bytes_reserved`: a deterministic byte count from the fixed
//! arena byte model, not an allocator measurement.

use std::fmt::Write as _;

/// Number of convergence phases attributed per C-event.
pub const PHASES: usize = 3;

/// Phase labels, in attribution order.
pub const PHASE_NAMES: [&str; PHASES] = ["warmup", "down", "up"];

/// One bundle of operation counters. All fields are exact `u64` counts;
/// addition and subtraction are the only operations, so merges are
/// order-independent and bit-exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Events pushed onto the simulator's future-event list.
    pub queue_pushes: u64,
    /// Events popped off the future-event list.
    pub queue_pops: u64,
    /// Element moves during heap sift-up/sift-down (the "decrease"-class
    /// restructuring work of the priority queue).
    pub queue_decreases: u64,
    /// `(time, seq)` key comparisons performed by the heap.
    pub queue_comparisons: u64,
    /// BGP decision-process runs (one per `reevaluate` of a prefix).
    pub decision_runs: u64,
    /// Candidate-route preference comparisons inside the decision process.
    pub route_comparisons: u64,
    /// Adj-RIB-out mutations (inserts and successful removes).
    pub rib_out_writes: u64,
    /// AS-path reuses via refcount bump (`Arc` clone — intern hit).
    pub path_intern_hits: u64,
    /// Fresh AS-path allocations (`prepended` — intern miss).
    pub path_intern_misses: u64,
    /// BGP update messages delivered to a node (after loss filtering).
    pub deliveries: u64,
    /// MRAI timers armed.
    pub mrai_armed: u64,
    /// MRAI timers that fired while still valid (epoch check passed).
    pub mrai_fired: u64,
    /// Pending updates displaced by a newer update for the same prefix
    /// while an MRAI timer was running (rate-limiting coalescing).
    pub mrai_coalesced: u64,
    /// Timing-wheel cascade re-files (entries moved into finer wheel
    /// levels during cursor jumps). Always zero on the heap backend.
    pub queue_cascades: u64,
    /// Bytes reserved by the node arenas (session slab + prefix-major
    /// RIB columns + damping entries) at snapshot time, per the fixed
    /// arena byte model. Monotone within a C-event — arenas only grow
    /// until the inter-event `reset_routing` — so phase diffs attribute
    /// arena growth like any other counter class.
    pub arena_bytes_reserved: u64,
}

impl OpCounts {
    /// Number of counter classes (schema v2).
    pub const FIELD_COUNT: usize = 15;

    /// Number of counter classes in schema v1 ledger lines
    /// (everything before `queue_cascades`). New classes are only ever
    /// appended, so a v1 prefix of [`OpCounts::fields`] is exactly the v1
    /// field set.
    pub const FIELD_COUNT_V1: usize = 13;

    /// Field names and values in canonical serialization order.
    pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
        [
            ("queue_pushes", self.queue_pushes),
            ("queue_pops", self.queue_pops),
            ("queue_decreases", self.queue_decreases),
            ("queue_comparisons", self.queue_comparisons),
            ("decision_runs", self.decision_runs),
            ("route_comparisons", self.route_comparisons),
            ("rib_out_writes", self.rib_out_writes),
            ("path_intern_hits", self.path_intern_hits),
            ("path_intern_misses", self.path_intern_misses),
            ("deliveries", self.deliveries),
            ("mrai_armed", self.mrai_armed),
            ("mrai_fired", self.mrai_fired),
            ("mrai_coalesced", self.mrai_coalesced),
            ("queue_cascades", self.queue_cascades),
            ("arena_bytes_reserved", self.arena_bytes_reserved),
        ]
    }

    /// Canonical field names (matches [`OpCounts::fields`] order).
    pub fn field_names() -> [&'static str; Self::FIELD_COUNT] {
        OpCounts::default().fields().map(|(name, _)| name)
    }

    /// Rebuilds a bundle from a [`OpCounts::fields`]-shaped array. Names
    /// are ignored; positions follow the canonical order.
    pub fn from_fields(fields: &[(&str, u64); Self::FIELD_COUNT]) -> OpCounts {
        OpCounts {
            queue_pushes: fields[0].1,
            queue_pops: fields[1].1,
            queue_decreases: fields[2].1,
            queue_comparisons: fields[3].1,
            decision_runs: fields[4].1,
            route_comparisons: fields[5].1,
            rib_out_writes: fields[6].1,
            path_intern_hits: fields[7].1,
            path_intern_misses: fields[8].1,
            deliveries: fields[9].1,
            mrai_armed: fields[10].1,
            mrai_fired: fields[11].1,
            mrai_coalesced: fields[12].1,
            queue_cascades: fields[13].1,
            arena_bytes_reserved: fields[14].1,
        }
    }

    /// Adds `other` into `self` (exact integer sums).
    pub fn add(&mut self, other: &OpCounts) {
        self.queue_pushes += other.queue_pushes;
        self.queue_pops += other.queue_pops;
        self.queue_decreases += other.queue_decreases;
        self.queue_comparisons += other.queue_comparisons;
        self.decision_runs += other.decision_runs;
        self.route_comparisons += other.route_comparisons;
        self.rib_out_writes += other.rib_out_writes;
        self.path_intern_hits += other.path_intern_hits;
        self.path_intern_misses += other.path_intern_misses;
        self.deliveries += other.deliveries;
        self.mrai_armed += other.mrai_armed;
        self.mrai_fired += other.mrai_fired;
        self.mrai_coalesced += other.mrai_coalesced;
        self.queue_cascades += other.queue_cascades;
        self.arena_bytes_reserved += other.arena_bytes_reserved;
    }

    /// `self - earlier`, field-wise. Counters are monotone within a run,
    /// so a later snapshot minus an earlier one is the work done between
    /// them; saturating guards against misuse rather than wrapping.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            queue_pushes: self.queue_pushes.saturating_sub(earlier.queue_pushes),
            queue_pops: self.queue_pops.saturating_sub(earlier.queue_pops),
            queue_decreases: self.queue_decreases.saturating_sub(earlier.queue_decreases),
            queue_comparisons: self
                .queue_comparisons
                .saturating_sub(earlier.queue_comparisons),
            decision_runs: self.decision_runs.saturating_sub(earlier.decision_runs),
            route_comparisons: self
                .route_comparisons
                .saturating_sub(earlier.route_comparisons),
            rib_out_writes: self.rib_out_writes.saturating_sub(earlier.rib_out_writes),
            path_intern_hits: self
                .path_intern_hits
                .saturating_sub(earlier.path_intern_hits),
            path_intern_misses: self
                .path_intern_misses
                .saturating_sub(earlier.path_intern_misses),
            deliveries: self.deliveries.saturating_sub(earlier.deliveries),
            mrai_armed: self.mrai_armed.saturating_sub(earlier.mrai_armed),
            mrai_fired: self.mrai_fired.saturating_sub(earlier.mrai_fired),
            mrai_coalesced: self.mrai_coalesced.saturating_sub(earlier.mrai_coalesced),
            queue_cascades: self.queue_cascades.saturating_sub(earlier.queue_cascades),
            arena_bytes_reserved: self
                .arena_bytes_reserved
                .saturating_sub(earlier.arena_bytes_reserved),
        }
    }

    /// Sum over the work classes — a scalar "total ops" figure for
    /// display. Leaves out the `arena_bytes_reserved` gauge (bytes, not
    /// ops) and the two avoided-work classes, `mrai_coalesced` and
    /// `path_intern_hits` (each counts an operation *saved*).
    pub fn grand_total(&self) -> u64 {
        let all: u64 = self.fields().iter().map(|&(_, v)| v).sum();
        all - self.arena_bytes_reserved - self.mrai_coalesced - self.path_intern_hits
    }

    /// Writes this bundle as a single-line JSON object.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.fields().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push('}');
    }
}

/// Per-phase operation counts for one C-event.
pub type PhaseCosts = [OpCounts; PHASES];

/// The assembled cost model for one experiment cell: per-event, per-phase
/// operation counts recorded in event-index order.
///
/// Built by pushing each C-event's [`PhaseCosts`] in event-index order
/// (the same fold discipline as `FactorAccumulator` and
/// `MetricsRegistry`), which makes [`CostModel::to_json`] byte-identical
/// for any `--jobs` level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostModel {
    per_event: Vec<PhaseCosts>,
}

impl CostModel {
    /// Creates an empty model.
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Appends one C-event's per-phase costs. Call in event-index order.
    pub fn push_event(&mut self, phases: PhaseCosts) {
        self.per_event.push(phases);
    }

    /// Number of recorded C-events.
    pub fn events(&self) -> usize {
        self.per_event.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.per_event.is_empty()
    }

    /// Per-event phase costs, in event-index order.
    pub fn per_event(&self) -> &[PhaseCosts] {
        &self.per_event
    }

    /// Column totals per phase across all events.
    pub fn phase_totals(&self) -> PhaseCosts {
        let mut totals = [OpCounts::default(); PHASES];
        for phases in &self.per_event {
            for (t, p) in totals.iter_mut().zip(phases.iter()) {
                t.add(p);
            }
        }
        totals
    }

    /// Grand total over all events and phases.
    pub fn total(&self) -> OpCounts {
        let mut total = OpCounts::default();
        for phase in self.phase_totals().iter() {
            total.add(phase);
        }
        total
    }

    /// Serializes to deterministic, integer-only JSON. Key order is fixed,
    /// values are exact `u64` counts, and events appear in index order —
    /// equal models produce byte-identical files regardless of how many
    /// workers computed them.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", crate::SCHEMA_VERSION);
        let _ = writeln!(s, "  \"events\": {},", self.per_event.len());
        s.push_str("  \"phases\": [");
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\"");
        }
        s.push_str("],\n  \"total\": ");
        self.total().write_json(&mut s);
        s.push_str(",\n  \"phase_totals\": [");
        for (i, phase) in self.phase_totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    ");
            phase.write_json(&mut s);
        }
        s.push_str("\n  ],\n  \"per_event\": [");
        for (i, phases) in self.per_event.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {{ \"event\": {i}, \"phases\": [");
            for (j, phase) in phases.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                s.push_str(sep);
                phase.write_json(&mut s);
            }
            s.push_str("] }");
        }
        if !self.per_event.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> OpCounts {
        OpCounts {
            queue_pushes: seed,
            queue_pops: seed + 1,
            queue_decreases: seed + 2,
            queue_comparisons: seed + 3,
            decision_runs: seed + 4,
            route_comparisons: seed + 5,
            rib_out_writes: seed + 6,
            path_intern_hits: seed + 7,
            path_intern_misses: seed + 8,
            deliveries: seed + 9,
            mrai_armed: seed + 10,
            mrai_fired: seed + 11,
            mrai_coalesced: seed + 12,
            queue_cascades: seed + 13,
            arena_bytes_reserved: seed + 14,
        }
    }

    #[test]
    fn add_and_since_are_inverse() {
        let a = sample(100);
        let b = sample(7);
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.since(&a), b);
        assert_eq!(sum.since(&b), a);
    }

    #[test]
    fn fields_cover_every_counter() {
        // grand_total over fields() must equal the explicit sum of the
        // work classes, so a field added to the struct but not to
        // fields() is caught here — and so is a byte gauge or an
        // avoided-work class creeping back into "total ops".
        let c = sample(1);
        let work = c.queue_pushes
            + c.queue_pops
            + c.queue_decreases
            + c.queue_comparisons
            + c.decision_runs
            + c.route_comparisons
            + c.rib_out_writes
            + c.path_intern_misses
            + c.deliveries
            + c.mrai_armed
            + c.mrai_fired
            + c.queue_cascades;
        assert_eq!(c.grand_total(), work);
        assert_eq!(OpCounts::field_names().len(), OpCounts::FIELD_COUNT);
        assert_eq!(OpCounts::from_fields(&c.fields()), c, "fields roundtrip");
    }

    #[test]
    fn phase_totals_and_total_sum_per_event_entries() {
        let mut model = CostModel::new();
        model.push_event([sample(1), sample(10), sample(100)]);
        model.push_event([sample(2), sample(20), sample(200)]);
        let totals = model.phase_totals();
        assert_eq!(totals[0].queue_pushes, 3);
        assert_eq!(totals[1].queue_pushes, 30);
        assert_eq!(totals[2].queue_pushes, 300);
        assert_eq!(model.total().queue_pushes, 333);
        assert_eq!(model.events(), 2);
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let mut model = CostModel::new();
        model.push_event([sample(3), sample(30), sample(300)]);
        let j1 = model.to_json();
        let j2 = model.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\n  \"schema_version\": "));
        assert!(j1.contains("\"phases\": [\"warmup\", \"down\", \"up\"]"));
        assert!(!j1.contains('.'), "no floats in costmodel json: {j1}");
        // Events serialize in index order.
        assert!(j1.contains("\"event\": 0"));
    }

    #[test]
    fn empty_model_serializes_cleanly() {
        let model = CostModel::new();
        let j = model.to_json();
        assert!(j.contains("\"events\": 0"));
        assert!(j.contains("\"per_event\": []"));
    }
}
