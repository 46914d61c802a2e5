//! Deterministic cost-model counters: exact, integer-only operation
//! counts attributed per C-event and per convergence phase.
//!
//! The simulation is bit-identical for any `--jobs` level, which makes
//! every *operation count* — queue re-bucketings, decision-process runs, route
//! comparisons, MRAI timer arms — an exact, machine-independent quantity.
//! This module collects those counts into a [`CostModel`] whose JSON
//! serialization (`costmodel.json`) is byte-identical across worker
//! counts, so perf regressions can be gated in CI by integer equality
//! instead of noisy wall-clock.
//!
//! Three layers feed the model:
//!
//! * `simkernel::queue` counts event-queue pushes, pops, re-bucketed
//!   entries and `(time, seq)` comparisons, and `bgpscale-core` adds its
//!   wire's (the messages in flight, kept beside the queue);
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

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use crate::json::{Layout, Value};

/// Number of convergence phases attributed per C-event.
pub const PHASES: usize = 3;

/// Phase labels, in attribution order.
pub const PHASE_NAMES: [&str; PHASES] = ["warmup", "down", "up"];

/// What a counter class measures: only [`ClassKind::Work`] classes
/// enter the scalar "total ops" figure ([`OpCounts::grand_total`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassKind {
    /// An operation performed.
    Work,
    /// An operation *saved* (a coalesced update, an interned path).
    Avoided,
    /// A level (bytes), not an operation.
    Gauge,
}

/// Generates [`OpCounts`] and everything that enumerates its classes
/// from the one list below, in canonical serialization order.
macro_rules! op_classes {
    ($($(#[$doc:meta])* $name:ident: $kind:ident,)+) => {
        /// One bundle of operation counters. All fields are exact `u64`
        /// counts; addition and subtraction are the only operations, so
        /// merges are order-independent and bit-exact.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct OpCounts {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl OpCounts {
            /// Class names and kinds in canonical order; its length is
            /// the number of counter classes (schemas 2 and 3).
            pub const CLASSES: &'static [(&'static str, ClassKind)] =
                &[$((stringify!($name), ClassKind::$kind)),+];

            /// Field names and values in canonical serialization order.
            pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
                [$((stringify!($name), self.$name)),+]
            }

            /// Rebuilds a bundle from a [`OpCounts::fields`]-shaped array.
            /// Names are ignored; positions follow the canonical order.
            pub fn from_fields(fields: &[(&str, u64); Self::FIELD_COUNT]) -> OpCounts {
                let [$($name),+] = fields.map(|(_, value)| value);
                OpCounts { $($name),+ }
            }

            /// Adds `other` into `self` (exact integer sums).
            pub fn add(&mut self, other: &OpCounts) {
                $(self.$name += other.$name;)+
            }

            /// `self - earlier`, field-wise. Counters are monotone within
            /// a run, so a later snapshot minus an earlier one is the work
            /// done between them; saturating guards against misuse rather
            /// than wrapping.
            pub fn since(&self, earlier: &OpCounts) -> OpCounts {
                OpCounts { $($name: self.$name.saturating_sub(earlier.$name)),+ }
            }
        }
    };
}

op_classes! {
    /// Events pushed onto the simulator's future-event list, the messages
    /// put on its wire included.
    queue_pushes: Work,
    /// Events popped off the future-event list, the messages taken off
    /// the wire included.
    queue_pops: Work,
    /// Entries the event queue's radix heap re-buckets: on each pop from
    /// it, the rest of the popped minimum's bucket moves to lower buckets
    /// (the "decrease"-class restructuring work of the priority queue).
    /// Its calendar ring, which takes the keys of the next 131 ms, never
    /// moves an entry.
    queue_decreases: Work,
    /// `(time, seq)` key comparisons: one per entry filed into a bucket of
    /// the radix heap that already has a minimum (pushed or re-bucketed),
    /// one per entry of a ring slot's chain that an insertion into the
    /// calendar ring examines, plus one per pop that finds both the queue
    /// and the simulator's wire non-empty and takes the earlier of its
    /// minimum and the wire's front.
    queue_comparisons: Work,
    /// BGP decision-process runs (one per `reevaluate` of a prefix).
    decision_runs: Work,
    /// Candidate-route preference comparisons inside the decision process.
    route_comparisons: Work,
    /// Adj-RIB-out mutations (inserts and successful removes).
    rib_out_writes: Work,
    /// Sessions that took a built export path: one per neighbor the path
    /// is offered to (its four-byte id; once an `Arc` clone). The program
    /// point has not moved since schema 1.
    path_intern_hits: Avoided,
    /// Export paths built: one per best-route change that at least one
    /// session takes, built by the first taker (one lookup-or-insert in
    /// the path arena; once an `Arc<[AsId]>` allocation), plus one per
    /// route a restored session's table replay sends. Counts builds, not
    /// new arena cells. Until the perf baselines' v3 re-bless it counted
    /// one build per best-route change that left a route, taken or not.
    path_intern_misses: Work,
    /// BGP update messages delivered to a node (after loss filtering).
    deliveries: Work,
    /// MRAI timers armed.
    mrai_armed: Work,
    /// MRAI expiry events that popped while their timer still waited for
    /// them (not made stale by a session reset).
    mrai_fired: Work,
    /// Pending updates displaced by a newer update for the same prefix
    /// while an MRAI timer was running (rate-limiting coalescing).
    mrai_coalesced: Avoided,
    /// Reserved: reads 0. Counted the re-files of the timing wheel that
    /// schemas 1–2 ran on; the radix heap has no such operation. The class
    /// keeps its slot because ledger history and `benchmark/` name it.
    queue_cascades: Work,
    /// Bytes reserved by the node arenas (session slab + prefix-major
    /// RIB columns + damping entries) at snapshot time, per the fixed
    /// arena byte model. Monotone within a C-event — arenas only grow
    /// until the inter-event `reset_routing` — so phase diffs attribute
    /// arena growth like any other counter class.
    arena_bytes_reserved: Gauge,
}

impl OpCounts {
    /// Number of counter classes.
    pub const FIELD_COUNT: usize = Self::CLASSES.len();

    /// Number of counter classes in schema v1 ledger lines
    /// (everything before `queue_cascades`). New classes are only ever
    /// appended, so a v1 prefix of [`OpCounts::fields`] is exactly the v1
    /// field set.
    pub const FIELD_COUNT_V1: usize = 13;

    /// Canonical field names (matches [`OpCounts::fields`] order).
    pub fn field_names() -> [&'static str; Self::FIELD_COUNT] {
        OpCounts::default().fields().map(|(name, _)| name)
    }

    /// Sum over the [`ClassKind::Work`] classes — a scalar "total ops"
    /// figure for display.
    pub fn grand_total(&self) -> u64 {
        let kinded = self.fields().into_iter().zip(Self::CLASSES);
        kinded.filter(|(_, class)| class.1 == ClassKind::Work).map(|((_, value), _)| value).sum()
    }

    /// Every class as one inline object.
    fn to_value(self) -> Value {
        Value::obj(Layout::Inline, self.fields().map(|(name, value)| (name, value.into())))
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
        let phases = |layout, phases: &PhaseCosts| {
            Value::arr(layout, phases.map(OpCounts::to_value))
        };
        let per_event = self.per_event.iter().enumerate().map(|(i, event)| {
            let event = [("event", i.into()), ("phases", phases(Layout::Inline, event))];
            Value::obj(Layout::Padded, event)
        });
        let doc = Value::obj(
            Layout::Lines,
            [
                ("schema_version", crate::SCHEMA_VERSION.into()),
                ("events", self.per_event.len().into()),
                ("phases", Value::arr(Layout::Inline, PHASE_NAMES)),
                ("total", self.total().to_value()),
                ("phase_totals", phases(Layout::Lines, &self.phase_totals())),
                ("per_event", Value::arr(Layout::Lines, per_event)),
            ],
        );
        doc.to_json() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class `i` (canonical order) holds `seed + i`.
    fn sample(seed: u64) -> OpCounts {
        let mut fields = OpCounts::default().fields();
        for (i, (_, value)) in fields.iter_mut().enumerate() {
            *value = seed + i as u64;
        }
        OpCounts::from_fields(&fields)
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
        assert_eq!(OpCounts::FIELD_COUNT, 15, "schemas 2 and 3 carry fifteen classes");
        assert_eq!(OpCounts::from_fields(&c.fields()), c, "fields roundtrip");
        // Positions are the wire order: first, v1's last, and the two
        // appended classes.
        let at = |name: &str| OpCounts::field_names().iter().position(|&n| n == name);
        assert_eq!((c.queue_pushes, at("queue_pushes")), (1, Some(0)));
        assert_eq!((c.mrai_coalesced, at("mrai_coalesced")), (13, Some(OpCounts::FIELD_COUNT_V1 - 1)));
        assert_eq!((c.queue_cascades, at("queue_cascades")), (14, Some(13)));
        assert_eq!((c.arena_bytes_reserved, at("arena_bytes_reserved")), (15, Some(14)));
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
