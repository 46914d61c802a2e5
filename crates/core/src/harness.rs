//! The experiment harness: many C-events, averaged.
//!
//! The paper's procedure (§4): *"The experiment is repeated for 100
//! different C nodes …, and the number of received updates is measured at
//! every node in the network. We then average over all nodes of a given
//! type, and report this average."*
//!
//! [`run_experiment`] generates the topology, runs `events` C-events from
//! distinct C-type originators, folds each event's churn counters into the
//! m/q/e factor accumulator, and reports per-type means plus the raw
//! per-event series needed for confidence intervals.
//!
//! ## Determinism under parallelism
//!
//! Events are **independent by construction**: the topology is generated
//! once and shared read-only (`Arc<AsGraph>` inside a [`SimTemplate`]),
//! and event `k` runs on a simulator in exactly the state of
//! `template.instantiate(hash64_pair(sim_seed, k))` — no RNG stream, RIB
//! state, or clock is carried from one event to the next. Each worker
//! stamps one simulator out of the template for its first event and
//! [recycles](Simulator::recycle) it in place for every later one: only
//! buffers survive, and `tests/recycle_equivalence.rs` pins the recycled
//! state to the instantiated one. [`run_experiment_jobs`] therefore fans
//! events out across a worker pool and folds the per-event measurements
//! back **in event-index order**, so the report is bit-for-bit identical
//! for any job count (f64 accumulation order never changes). `jobs = 1`
//! is the one-worker case of the identical per-event code.

use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_obs::costmodel::{CostModel, PhaseCosts};
use bgpscale_obs::{
    MetricsRegistry, Recorder, RecorderOptions, SimObserver, TimeSeries, TimeSeriesSpec,
    TraceRecord,
};
use bgpscale_simkernel::pool::run_indexed_with;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, AsId, GrowthScenario, NodeType, Relationship};

use crate::cevent::run_c_event;
use crate::factors::{node_factors, type_index, FactorAccumulator, FactorMeans};
use crate::sim::{SimTemplate, Simulator};

/// Everything needed to reproduce one experiment cell.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The topology growth model.
    pub scenario: GrowthScenario,
    /// Network size.
    pub n: usize,
    /// Number of C-event originators (the paper uses 100).
    pub events: usize,
    /// Master seed; fans out into topology / simulation / sampling
    /// streams.
    pub seed: u64,
    /// Protocol configuration (MRAI mode etc.).
    pub bgp: BgpConfig,
    /// Per-phase simulator event budget override; `None` keeps the
    /// simulator's (huge) default. Small budgets exercise the structured
    /// failure path: the harness panics with the budget snapshot, which
    /// `repro profile` catches and renders.
    pub event_limit: Option<u64>,
    /// Reserved: always `None`, selects nothing. The timing wheel it
    /// tuned is gone; the name survives only because `benchmark/`'s
    /// struct literal (frozen to ordinary PRs) still writes it, and the
    /// type makes `Some(_)` unwritable. The next `benchmark` PR drops it.
    pub wheel_slot_bits: Option<std::convert::Infallible>,
}

/// Churn summary for one node type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeChurn {
    /// Number of nodes of this type in the topology.
    pub node_count: usize,
    /// Mean updates received per node per C-event — the paper's `U(X)`.
    pub u_total: f64,
    /// Factor means per relationship class (customer, peer, provider).
    pub factors: [FactorMeans; 3],
    /// Per-event means of `U(X)` (length = number of events), for
    /// variance and confidence intervals.
    pub per_event_u: Vec<f64>,
}

/// The result of [`run_experiment`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnReport {
    /// The configuration that produced this report.
    pub scenario: GrowthScenario,
    /// Network size.
    pub n: usize,
    /// Events actually run (may be fewer than requested if the topology
    /// has fewer C nodes).
    pub events: usize,
    /// Per-type summaries indexed by [`type_index`].
    pub types: [TypeChurn; 4],
    /// Mean network-wide updates per C-event.
    pub mean_total_updates: f64,
    /// Mean simulated DOWN-phase convergence time (seconds).
    pub mean_down_convergence_s: f64,
    /// Mean simulated UP-phase convergence time (seconds).
    pub mean_up_convergence_s: f64,
}

impl ChurnReport {
    /// The summary for one node type.
    pub fn by_type(&self, ty: NodeType) -> &TypeChurn {
        &self.types[type_index(ty)]
    }

    /// Convenience: `U_y(X)` — mean updates a node of type `ty` receives
    /// from neighbors of class `rel` per C-event (e.g. `Uc(T)`).
    pub fn u(&self, ty: NodeType, rel: Relationship) -> f64 {
        self.by_type(ty).factors[crate::factors::rel_index(rel)].u
    }

    /// Convenience: the factor means for `(type, relationship)`.
    pub fn factor(&self, ty: NodeType, rel: Relationship) -> FactorMeans {
        self.by_type(ty).factors[crate::factors::rel_index(rel)]
    }
}

/// Everything one C-event contributes to the report: a partial factor
/// accumulator plus the event-level scalars. Computed independently per
/// event (possibly on a worker thread), folded in event-index order.
struct EventMeasurement {
    acc: FactorAccumulator,
    /// Per-type mean `U(X)` for this event, `None` when the topology has
    /// no observing node of the type.
    event_u: [Option<f64>; 4],
    total_updates: f64,
    down_s: f64,
    up_s: f64,
    /// Exact per-phase op counts of this event — integer-only, merged
    /// into the [`CostModel`] in event-index order.
    phase_costs: PhaseCosts,
}

/// Makes a worker's simulator ready for the event seeded `seed`, with
/// `obs` attached: stamped out of the template on the worker's first
/// event, recycled in place on every later one. Either way the simulator
/// is in the state of `template.instantiate_observed(seed, obs)`.
fn ready_sim<'a, O: SimObserver>(
    worker: &'a mut Option<Simulator<O>>,
    template: &SimTemplate,
    seed: u64,
    obs: O,
) -> &'a mut Simulator<O> {
    match worker {
        Some(sim) => {
            sim.recycle(seed);
            sim.replace_observer(obs);
            sim
        }
        None => worker.insert(template.instantiate_observed(seed, obs)),
    }
}

/// Runs C-event `k` from `origin` on `sim` — pristine, seeded for event
/// `k` (see [`ready_sim`]) — and measures it. A pure function of the
/// event index given such a simulator: the property the parallel fan-out
/// relies on.
fn measure_event<O: SimObserver>(
    cfg: &ExperimentConfig,
    sim: &mut Simulator<O>,
    node_types: &[NodeType],
    origin: AsId,
    k: usize,
) -> EventMeasurement {
    if let Some(limit) = cfg.event_limit {
        sim.set_event_limit(limit);
    }
    let outcome = run_c_event(sim, origin, Prefix(k as u32))
        .unwrap_or_else(|e| panic!("{} n={} event {k}: {e}", cfg.scenario, cfg.n));

    let mut acc = FactorAccumulator::new();
    let mut event_u_sum = [0.0f64; 4];
    let mut event_u_cnt = [0u64; 4];
    for (id, &ty) in node_types.iter().enumerate() {
        let node = AsId(id as u32);
        if node == origin {
            continue; // the originator causes the event, it does not observe it
        }
        let f = node_factors(sim, node);
        let t = type_index(ty);
        acc.add(ty, &f);
        event_u_sum[t] += f.total_updates() as f64;
        event_u_cnt[t] += 1;
    }
    let mut event_u = [None; 4];
    for t in 0..4 {
        if event_u_cnt[t] > 0 {
            event_u[t] = Some(event_u_sum[t] / event_u_cnt[t] as f64);
        }
    }
    EventMeasurement {
        acc,
        event_u,
        total_updates: outcome.total_updates as f64,
        down_s: outcome.down_convergence.as_secs_f64(),
        up_s: outcome.up_convergence.as_secs_f64(),
        phase_costs: outcome.phase_costs,
    }
}

/// Runs the full averaged C-event experiment for one configuration.
///
/// Deterministic: equal configs produce equal reports. Equivalent to
/// [`run_experiment_jobs`] with `jobs = 1`.
///
/// # Panics
/// Panics if the topology contains no C nodes (every paper scenario has
/// them) or if a phase exceeds the simulator's event budget.
pub fn run_experiment(cfg: &ExperimentConfig) -> ChurnReport {
    run_experiment_jobs(cfg, 1)
}

/// Runs the experiment with up to `jobs` C-events in flight at once.
///
/// The report is **bit-for-bit identical for every `jobs` value**
/// (including 1): the topology is generated once, event `k` always runs
/// on a pristine simulator seeded `hash64_pair(sim_seed, k)` — whichever
/// worker's recycled simulator that is — and per-event measurements are
/// folded in event-index order regardless of which worker finishes first.
/// `jobs = 1` executes a plain sequential loop — no threads are spawned.
///
/// # Panics
/// As [`run_experiment`].
pub fn run_experiment_jobs(cfg: &ExperimentConfig, jobs: usize) -> ChurnReport {
    run_experiment_with_cost(cfg, jobs).0
}

/// [`run_experiment_jobs`] plus the per-event [`CostModel`]: exact
/// operation counts attributed to each C-event's warm-up/DOWN/UP phases.
///
/// The counts are integer-only and computed per event as differences of
/// the simulator's monotone tallies, then pushed into the model **in
/// event-index order**, so
/// `CostModel::to_json()` is byte-identical for every `jobs` value —
/// the same contract the churn report and the telemetry artifacts obey.
///
/// # Panics
/// As [`run_experiment`].
pub fn run_experiment_with_cost(cfg: &ExperimentConfig, jobs: usize) -> (ChurnReport, CostModel) {
    let setup = ExperimentSetup::build(cfg);
    let measurements: Vec<EventMeasurement> = {
        let _span = bgpscale_obs::span!("run_events");
        run_indexed_with(
            jobs,
            setup.c_nodes.len(),
            || None,
            |worker, k| {
                let seed = hash64_pair(setup.sim_seed, k as u64);
                let sim = ready_sim(worker, &setup.template, seed, bgpscale_obs::NoopObserver);
                measure_event(cfg, sim, &setup.node_types, setup.c_nodes[k], k)
            },
        )
    };
    let mut cost = CostModel::new();
    for m in &measurements {
        cost.push_event(m.phase_costs);
    }
    (fold_measurements(cfg, &setup, &measurements), cost)
}

/// What telemetry [`run_experiment_observed_with`] should collect beyond
/// the always-on metric counters.
#[derive(Clone, Debug, Default)]
pub struct ObserveOptions {
    /// Keep 1-in-`n` trace records when `Some(n)` (`Some(1)` keeps all).
    pub trace_sample: Option<u64>,
    /// Record a simulated-time series with the given bin width
    /// (microseconds of simulated time) when `Some`.
    pub timeseries_bin_us: Option<u64>,
}

/// The churn report plus the deterministic telemetry of the run.
#[derive(Clone, Debug)]
pub struct ObservedReport {
    /// The usual churn report (bit-identical to the unobserved run).
    pub report: ChurnReport,
    /// Merged metrics of all C-events, folded in event-index order.
    pub metrics: MetricsRegistry,
    /// Trace records of all C-events, concatenated in event-index order
    /// (empty unless a trace sample rate was requested).
    pub trace: Vec<TraceRecord>,
    /// Per-event time series merged in event-index order (`None` unless
    /// [`ObserveOptions::timeseries_bin_us`] was set). Bins overlay across
    /// events — every event's clock starts at zero, so bin `i` aggregates
    /// the interval `[i·bin_us, (i+1)·bin_us)` of *every* C-event: counts
    /// add, peaks take the max.
    pub timeseries: Option<TimeSeries>,
    /// Per-event, per-phase exact operation counts, pushed in event-index
    /// order (always collected — the counters are free-running integers).
    pub cost: CostModel,
}

/// Runs the experiment with a [`Recorder`] attached to every C-event's
/// simulator, merging per-event metrics and whatever else `opts` asks for
/// — 1-in-`n` sampled trace records, the simulated-time series — in
/// event-index order.
///
/// All collected telemetry is integer-only and a pure function of the
/// simulated trajectories, so — like the report itself —
/// `metrics.to_json()`, the trace stream and the time series' JSON are
/// **byte-identical for every `jobs` value**.
///
/// # Panics
/// As [`run_experiment`].
pub fn run_experiment_observed_with(
    cfg: &ExperimentConfig,
    jobs: usize,
    opts: &ObserveOptions,
) -> ObservedReport {
    let setup = ExperimentSetup::build(cfg);
    // One shared spec: every event's recorder bins against the same node
    //-type table (Arc-shared, never copied per event).
    let spec = opts.timeseries_bin_us.map(|bin_us| TimeSeriesSpec {
        bin_us,
        node_types: Arc::from(setup.node_types.as_slice()),
    });
    let observed: Vec<(EventMeasurement, Recorder)> = {
        let _span = bgpscale_obs::span!("run_events");
        run_indexed_with(
            jobs,
            setup.c_nodes.len(),
            || None,
            |worker, k| {
                let seed = hash64_pair(setup.sim_seed, k as u64);
                let recorder = Recorder::with_options(
                    k as u32,
                    RecorderOptions {
                        trace_sample: opts.trace_sample,
                        timeseries: spec.clone(),
                    },
                );
                let sim = ready_sim(worker, &setup.template, seed, recorder);
                let m = measure_event(cfg, sim, &setup.node_types, setup.c_nodes[k], k);
                // The event's telemetry leaves with its recorder; the idle
                // simulator keeps an empty one until its next event.
                (m, sim.replace_observer(Recorder::new(k as u32)))
            },
        )
    };

    let _span = bgpscale_obs::span!("fold_telemetry");
    let mut metrics = MetricsRegistry::new();
    let mut trace = Vec::new();
    let mut timeseries: Option<TimeSeries> = None;
    let mut cost = CostModel::new();
    let mut measurements = Vec::with_capacity(observed.len());
    for (m, recorder) in observed {
        metrics.merge(&recorder.registry());
        let (records, ts) = recorder.into_parts();
        trace.extend(records);
        if let Some(ts) = ts {
            match timeseries.as_mut() {
                None => timeseries = Some(ts),
                Some(total) => total.merge(&ts),
            }
        }
        cost.push_event(m.phase_costs);
        measurements.push(m);
    }
    metrics.inc("experiment.events", measurements.len() as u64);
    let report = fold_measurements(cfg, &setup, &measurements);
    ObservedReport {
        report,
        metrics,
        trace,
        timeseries,
        cost,
    }
}

/// The per-cell state both experiment flavors share: generated topology,
/// chosen originators, and the pristine simulator template.
struct ExperimentSetup {
    node_counts: [usize; 4],
    node_types: Vec<NodeType>,
    c_nodes: Vec<AsId>,
    template: SimTemplate,
    sim_seed: u64,
}

impl ExperimentSetup {
    fn build(cfg: &ExperimentConfig) -> ExperimentSetup {
        let topo_seed = hash64_pair(cfg.seed, 0x7090);
        let sim_seed = hash64_pair(cfg.seed, 0x51B);
        let pick_seed = hash64_pair(cfg.seed, 0x0121);

        let graph = {
            let _span = bgpscale_obs::span!("generate_topology");
            Arc::new(generate(cfg.scenario, cfg.n, topo_seed))
        };
        let node_counts: [usize; 4] = [
            graph.count_of_type(NodeType::T),
            graph.count_of_type(NodeType::M),
            graph.count_of_type(NodeType::Cp),
            graph.count_of_type(NodeType::C),
        ];
        let node_types: Vec<NodeType> = graph.node_ids().map(|id| graph.node_type(id)).collect();

        // Choose distinct C-type originators.
        let mut c_nodes = graph.nodes_of_type(NodeType::C);
        assert!(!c_nodes.is_empty(), "{} at n={} has no C nodes", cfg.scenario, cfg.n);
        let mut pick_rng = Xoshiro256StarStar::new(pick_seed);
        pick_rng.shuffle(&mut c_nodes);
        c_nodes.truncate(cfg.events.max(1));

        // Build the clean simulator blueprint once; every worker stamps
        // its simulator out of it.
        let template = {
            let _span = bgpscale_obs::span!("build_template");
            SimTemplate::new(Arc::clone(&graph), cfg.bgp.clone())
        };

        ExperimentSetup {
            node_counts,
            node_types,
            c_nodes,
            template,
            sim_seed,
        }
    }
}

/// Folds per-event measurements into the report. Event-index order fixes
/// the f64 accumulation order, which is what makes the report bit-stable
/// across job counts.
fn fold_measurements(
    cfg: &ExperimentConfig,
    setup: &ExperimentSetup,
    measurements: &[EventMeasurement],
) -> ChurnReport {
    let _span = bgpscale_obs::span!("fold_measurements");
    let node_counts = setup.node_counts;
    let c_nodes = &setup.c_nodes;
    let mut acc = FactorAccumulator::new();
    let mut per_event_u: [Vec<f64>; 4] = Default::default();
    let mut total_updates_sum = 0.0;
    let mut down_sum = 0.0;
    let mut up_sum = 0.0;
    for m in measurements {
        acc.merge(&m.acc);
        for (series, u) in per_event_u.iter_mut().zip(&m.event_u) {
            if let Some(u) = u {
                series.push(*u);
            }
        }
        total_updates_sum += m.total_updates;
        down_sum += m.down_s;
        up_sum += m.up_s;
    }

    let events = c_nodes.len();
    let mut types: [TypeChurn; 4] = Default::default();
    for (t, ty) in [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C]
        .into_iter()
        .enumerate()
    {
        types[t] = TypeChurn {
            node_count: node_counts[t],
            u_total: acc.mean_total(ty),
            factors: [
                acc.means(ty, Relationship::Customer),
                acc.means(ty, Relationship::Peer),
                acc.means(ty, Relationship::Provider),
            ],
            per_event_u: std::mem::take(&mut per_event_u[t]),
        };
    }

    ChurnReport {
        scenario: cfg.scenario,
        n: cfg.n,
        events,
        types,
        mean_total_updates: total_updates_sum / events as f64,
        mean_down_convergence_s: down_sum / events as f64,
        mean_up_convergence_s: up_sum / events as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scenario: GrowthScenario, n: usize, events: usize, seed: u64) -> ChurnReport {
        run_experiment(&ExperimentConfig {
            scenario,
            n,
            events,
            seed,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        })
    }

    /// Metrics plus an optional 1-in-`n` trace, no time series.
    fn traced(trace_sample: Option<u64>) -> ObserveOptions {
        ObserveOptions {
            trace_sample,
            timeseries_bin_us: None,
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = quick(GrowthScenario::Baseline, 200, 3, 11);
        let b = quick(GrowthScenario::Baseline, 200, 3, 11);
        assert_eq!(a.mean_total_updates, b.mean_total_updates);
        assert_eq!(a.by_type(NodeType::T).u_total, b.by_type(NodeType::T).u_total);
    }

    /// The parallel-engine regression test: any job count yields the
    /// bit-identical report, down to the raw per-event series.
    #[test]
    fn parallel_jobs_are_bit_identical_to_sequential() {
        let cfg = ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 200,
            events: 6,
            seed: 0xDE7,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        };
        let sequential = run_experiment_jobs(&cfg, 1);
        for jobs in [4, 8] {
            let parallel = run_experiment_jobs(&cfg, jobs);
            assert_eq!(sequential, parallel, "jobs={jobs} diverged from sequential");
            for t in 0..4 {
                assert_eq!(
                    sequential.types[t].per_event_u, parallel.types[t].per_event_u,
                    "per-event series diverged for type {t} at jobs={jobs}"
                );
            }
        }
    }

    /// The observability determinism regression: the serialized metrics
    /// and the trace stream are byte-identical for jobs = 1, 4, 8.
    #[test]
    fn observed_metrics_and_trace_are_byte_identical_across_jobs() {
        let cfg = ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 200,
            events: 6,
            seed: 0xDE7,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        };
        let base = run_experiment_observed_with(&cfg, 1, &traced(Some(5)));
        let base_json = base.metrics.to_json();
        let base_trace: String = base
            .trace
            .iter()
            .map(|r| r.to_json_line() + "\n")
            .collect();
        assert!(base.metrics.counter("events.total") > 0);
        assert!(!base.trace.is_empty(), "sampled trace should have records");
        for jobs in [4, 8] {
            let other = run_experiment_observed_with(&cfg, jobs, &traced(Some(5)));
            assert_eq!(
                base_json,
                other.metrics.to_json(),
                "metrics.json diverged at jobs={jobs}"
            );
            let other_trace: String = other
                .trace
                .iter()
                .map(|r| r.to_json_line() + "\n")
                .collect();
            assert_eq!(base_trace, other_trace, "trace diverged at jobs={jobs}");
            assert_eq!(base.report, other.report, "report diverged at jobs={jobs}");
        }
    }

    /// Satellite of the provenance PR: `timeseries.json` and the
    /// provenance counters are byte-identical for jobs = 1, 4, 8.
    #[test]
    fn timeseries_and_provenance_are_byte_identical_across_jobs() {
        let cfg = ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 200,
            events: 6,
            seed: 0xDE7,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        };
        let opts = ObserveOptions {
            trace_sample: None,
            timeseries_bin_us: Some(100_000),
        };
        let base = run_experiment_observed_with(&cfg, 1, &opts);
        let base_ts = base.timeseries.as_ref().expect("time series requested");
        let base_ts_json = base_ts.to_json();
        assert_eq!(base_ts.events, cfg.events as u32);
        assert!(base_ts.total_updates() > 0, "bins must see traffic");
        assert!(base.metrics.counter("provenance.stamped") > 0);
        assert_eq!(
            base.metrics.counter("provenance.unstamped"),
            0,
            "every delivery must carry a root-cause stamp"
        );
        let prov_counters = |r: &ObservedReport| {
            [
                r.metrics.counter("provenance.stamped"),
                r.metrics.counter("provenance.coalesced"),
                r.metrics.counter("provenance.depth_sum"),
                r.metrics.counter("provenance.to_customer"),
                r.metrics.counter("provenance.to_peer"),
                r.metrics.counter("provenance.to_provider"),
                r.metrics.counter("provenance.roots"),
            ]
        };
        for jobs in [4, 8] {
            let other = run_experiment_observed_with(&cfg, jobs, &opts);
            assert_eq!(
                base_ts_json,
                other.timeseries.as_ref().unwrap().to_json(),
                "timeseries.json diverged at jobs={jobs}"
            );
            assert_eq!(
                prov_counters(&base),
                prov_counters(&other),
                "provenance counters diverged at jobs={jobs}"
            );
            assert_eq!(base.report, other.report, "report diverged at jobs={jobs}");
        }
    }

    /// Tentpole of the cost-model PR: `costmodel.json` is byte-identical
    /// for jobs = 1, 4, 8, and the observed and plain flavors agree.
    #[test]
    fn costmodel_is_byte_identical_across_jobs() {
        let cfg = ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 200,
            events: 6,
            seed: 0xDE7,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        };
        let (base_report, base_cost) = run_experiment_with_cost(&cfg, 1);
        let base_json = base_cost.to_json();
        assert_eq!(base_cost.events(), cfg.events);
        assert!(base_cost.total().grand_total() > 0, "counters must see work");
        // Measured phases do real per-class work.
        let totals = base_cost.phase_totals();
        for phase in &totals {
            assert!(phase.deliveries > 0);
            assert!(phase.decision_runs > 0);
            assert!(phase.queue_pushes > 0);
        }
        for jobs in [4, 8] {
            let (report, cost) = run_experiment_with_cost(&cfg, jobs);
            assert_eq!(base_json, cost.to_json(), "costmodel.json diverged at jobs={jobs}");
            assert_eq!(base_report, report, "report diverged at jobs={jobs}");
        }
        // The observed flavor collects the identical model.
        let observed = run_experiment_observed_with(&cfg, 4, &traced(None));
        assert_eq!(base_json, observed.cost.to_json(), "observed cost diverged");
    }

    /// Provenance-enabled runs leave the churn report unchanged: stamps
    /// are telemetry riding along the messages, never protocol input.
    #[test]
    fn timeseries_recording_leaves_the_report_unchanged() {
        let cfg = ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 200,
            events: 4,
            seed: 21,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        };
        let plain = run_experiment_jobs(&cfg, 1);
        let observed = run_experiment_observed_with(
            &cfg,
            2,
            &ObserveOptions {
                trace_sample: Some(7),
                timeseries_bin_us: Some(50_000),
            },
        );
        assert_eq!(plain, observed.report);
        let ts = observed.timeseries.expect("time series requested");
        // The time series and the churn counters watched the same world:
        // both count exactly the delivered updates of the measured phases
        // plus the (uncounted) warm-up announcements.
        assert_eq!(
            ts.total_updates(),
            observed.metrics.counter("events.deliver"),
            "binned updates must equal delivered updates"
        );
        assert!(!ts.convergence_durations_us().is_empty());
    }

    /// Attaching a recorder must not perturb the simulation itself.
    #[test]
    fn observed_report_matches_unobserved_report() {
        let cfg = ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n: 200,
            events: 4,
            seed: 21,
            bgp: BgpConfig::default(),
            event_limit: None,
            wheel_slot_bits: None,
        };
        let plain = run_experiment_jobs(&cfg, 1);
        let observed = run_experiment_observed_with(&cfg, 1, &traced(None));
        assert_eq!(plain, observed.report);
        assert!(observed.trace.is_empty(), "no trace requested");
        // The recorder saw the same world the churn counters did: every
        // delivered update is one unit of churn, summed over DOWN+UP.
        let events = plain.events as f64;
        let mean_from_metrics =
            observed.metrics.counter("events.deliver") as f64 / events;
        assert!(
            mean_from_metrics >= plain.mean_total_updates,
            "deliveries ({mean_from_metrics}) must cover counted churn ({})",
            plain.mean_total_updates
        );
        assert_eq!(observed.metrics.counter("experiment.events"), plain.events as u64);
    }

    #[test]
    fn every_type_hears_about_c_events() {
        let r = quick(GrowthScenario::Baseline, 250, 4, 12);
        for ty in [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C] {
            assert!(
                r.by_type(ty).u_total >= 1.0,
                "{ty}: {} updates",
                r.by_type(ty).u_total
            );
        }
        assert_eq!(r.events, 4);
        assert!(r.mean_total_updates > 0.0);
        assert!(r.mean_down_convergence_s > 0.0);
    }

    #[test]
    fn tier1_hears_more_than_stubs() {
        // The paper's Fig. 4 ordering: U(T) > U(C).
        let r = quick(GrowthScenario::Baseline, 400, 5, 13);
        assert!(
            r.by_type(NodeType::T).u_total > r.by_type(NodeType::C).u_total,
            "U(T)={} vs U(C)={}",
            r.by_type(NodeType::T).u_total,
            r.by_type(NodeType::C).u_total
        );
    }

    #[test]
    fn tree_scenario_pins_tier1_churn_at_two() {
        // §5.2: in TREE, every T node receives exactly 2 updates per
        // C-event (one DOWN, one UP).
        let r = quick(GrowthScenario::Tree, 300, 5, 14);
        let u = r.by_type(NodeType::T).u_total;
        assert!(
            (u - 2.0).abs() < 1e-9,
            "TREE must give exactly 2 updates at T nodes, got {u}"
        );
    }

    #[test]
    fn m_factor_matches_topology_degrees() {
        let r = quick(GrowthScenario::Baseline, 300, 2, 15);
        // T nodes' peer count is nT − 1 exactly.
        let m_peer = r.factor(NodeType::T, Relationship::Peer).m;
        let n_t = r.by_type(NodeType::T).node_count;
        assert!(
            (m_peer - (n_t as f64 - 1.0)).abs() < 1e-9,
            "mp,T = {m_peer}, nT = {n_t}"
        );
    }

    #[test]
    fn q_of_provider_class_is_near_one_for_m_nodes() {
        // §4.2: "qd,M is almost constant, and always larger than 0.99" —
        // providers almost always notify their customers.
        let r = quick(GrowthScenario::Baseline, 400, 5, 16);
        let q = r.factor(NodeType::M, Relationship::Provider).q;
        assert!(q > 0.9, "qd,M = {q}");
    }

    #[test]
    fn eq1_reconstructs_total_updates() {
        let r = quick(GrowthScenario::Baseline, 300, 3, 17);
        for ty in [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C] {
            let reconstructed: f64 = Relationship::ALL
                .into_iter()
                .map(|rel| r.u(ty, rel))
                .sum();
            let direct = r.by_type(ty).u_total;
            assert!(
                (reconstructed - direct).abs() < 1e-6,
                "{ty}: Σ U_y = {reconstructed} vs U = {direct}"
            );
        }
    }

    #[test]
    fn truncates_events_to_available_c_nodes() {
        let r = quick(GrowthScenario::Baseline, 100, 10_000, 18);
        assert!(r.events < 10_000);
        assert_eq!(r.by_type(NodeType::C).per_event_u.len(), r.events);
    }

    #[test]
    fn no_wrate_means_no_path_exploration_e_near_one() {
        // §4: with NO-WRATE "the u factors stay close to the minimum 2
        // updates" per event — i.e. e ≈ 2 per active neighbor over
        // DOWN+UP (1 withdrawal + 1 announcement).
        let r = quick(GrowthScenario::Baseline, 300, 4, 19);
        let e = r.factor(NodeType::M, Relationship::Provider).e;
        assert!(
            (1.5..=3.5).contains(&e),
            "ed,M = {e} should be near 2 under NO-WRATE"
        );
    }
}
