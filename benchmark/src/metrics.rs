//! The metric tables: the one place that names every metric the runner
//! prints. `BENCHMARK.json` repeats names, units and directions, and
//! `tests/smoke.rs` fails when the two drift apart.

/// What a number counts, so that a reader does not add avoided work or a
/// gauge into a cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time spent.
    Time,
    /// Work done, as a count or a per-operation cost.
    Work,
    /// Work the layer avoided; higher is better.
    Avoided,
    /// A level, not a flow: never summed.
    Gauge,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Time => "time",
            Kind::Work => "work",
            Kind::Avoided => "avoided",
            Kind::Gauge => "gauge",
        }
    }
}

/// One metric: its name, unit, whether higher is better, and its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: matches!(kind, Kind::Avoided),
        kind,
    }
}

/// What a user of the simulator sees, measured with tracing off.
pub const END_TO_END: [Metric; 4] = [
    m("wall_s", "s", Kind::Time),
    Metric {
        name: "updates_per_s",
        unit: "1/s",
        higher_is_better: true,
        kind: Kind::Work,
    },
    m("setup_s", "s", Kind::Time),
    m("peak_rss_mb", "MB", Kind::Gauge),
];

/// What the traced repetition reports per layer.
pub const PER_LAYER: [Metric; 51] = [
    m("topology.generate_s", "s", Kind::Time),
    m("topology.links", "count", Kind::Work),
    m("topology.generate_us_per_link", "us", Kind::Work),
    m("alloc.topology_allocs", "count", Kind::Work),
    m("core.template_build_s", "s", Kind::Time),
    m("core.instantiate_s", "s", Kind::Time),
    m("core.instantiate_us_per_event", "us", Kind::Work),
    m("alloc.instantiate_allocs_per_event", "count", Kind::Work),
    m("core.sim_drop_s", "s", Kind::Time),
    m("core.fold_s", "s", Kind::Time),
    m("core.sim_new_s", "s", Kind::Time),
    m("core.reset_routing_s", "s", Kind::Time),
    m("core.levent_s", "s", Kind::Time),
    m("core.flapstorm_s", "s", Kind::Time),
    m("core.warmup_s", "s", Kind::Time),
    m("core.down_s", "s", Kind::Time),
    m("core.up_s", "s", Kind::Time),
    m("core.deliveries", "count", Kind::Work),
    m("core.ns_per_delivery", "ns", Kind::Work),
    m("core.event_wall_ms.p50", "ms", Kind::Time),
    m("core.event_wall_ms.p80", "ms", Kind::Time),
    m("core.event_wall_ms.max", "ms", Kind::Time),
    m("simkernel.queue_pushes", "count", Kind::Work),
    m("simkernel.queue_pops", "count", Kind::Work),
    m("simkernel.queue_comparisons", "count", Kind::Work),
    m("simkernel.queue_cascades", "count", Kind::Work),
    m("simkernel.cascades_per_push", "ratio", Kind::Work),
    m("simkernel.ns_per_pop", "ns", Kind::Work),
    m("simkernel.hold_short_ns_per_op", "ns", Kind::Work),
    m("simkernel.hold_mrai_ns_per_op", "ns", Kind::Work),
    m("bgp.decision_runs", "count", Kind::Work),
    m("bgp.route_comparisons", "count", Kind::Work),
    m("bgp.comparisons_per_decision", "ratio", Kind::Work),
    m("bgp.rib_out_writes", "count", Kind::Work),
    m("bgp.path_intern_hits", "count", Kind::Avoided),
    m("bgp.path_intern_misses", "count", Kind::Work),
    m("bgp.path_intern_hit_ratio", "ratio", Kind::Avoided),
    m("bgp.mrai_armed", "count", Kind::Work),
    m("bgp.mrai_fired", "count", Kind::Work),
    m("bgp.mrai_coalesced", "count", Kind::Avoided),
    m("bgp.mrai_coalesced_per_delivery", "ratio", Kind::Avoided),
    m("bgp.arena_mb_reserved", "MB", Kind::Gauge),
    m("alloc.allocs_per_delivery", "count", Kind::Work),
    m("alloc.bytes_per_delivery", "B", Kind::Work),
    m("alloc.peak_live_mb", "MB", Kind::Gauge),
    m("obs.recorder_ns_per_delivery", "ns", Kind::Work),
    m("obs.trace_records", "count", Kind::Work),
    m("bench.checks_s", "s", Kind::Time),
    m("trace.spans", "count", Kind::Work),
    Metric {
        name: "trace.coverage_pct",
        unit: "%",
        higher_is_better: true,
        kind: Kind::Gauge,
    },
    m("trace.overhead_pct", "%", Kind::Gauge),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.unit.len() <= 16, "{}", a.name);
            assert!(
                a.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                a.name
            );
            assert!(
                a.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                a.name
            );
            assert!(
                a.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                a.unit
            );
            assert!(
                all[..i].iter().all(|b| b.name != a.name),
                "{} twice",
                a.name
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s"));
    }
}
