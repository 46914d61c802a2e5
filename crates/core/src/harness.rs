//! The experiment harness: many C-events, averaged.
//!
//! The paper's procedure (§4): *"The experiment is repeated for 100
//! different C nodes …, and the number of received updates is measured at
//! every node in the network. We then average over all nodes of a given
//! type, and report this average."*
//!
//! [`run_cell`] is that procedure, written once: it generates the topology,
//! runs `events` C-events from distinct C-type originators, folds each
//! event's churn counters into the m/q/e factor accumulator, and reports
//! per-type means plus the raw per-event series needed for confidence
//! intervals, with the exact op counts and, on request, the telemetry.
//! [`run_experiment`] is the front door for the [`ChurnReport`] alone.
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
//! state to the instantiated one. [`run_cell`] therefore fans events out
//! across a worker pool and folds the per-event measurements back **in
//! event-index order**, so what it returns is bit-for-bit identical for
//! any job count (f64 accumulation order never changes). `jobs = 1` is the
//! one-worker case of the identical per-event code.
//!
//! That includes failure. A C-event that exhausts its event budget is a
//! model bug (Gao–Rexford BGP always converges); it comes back as a
//! [`CellError`] with the simulator's snapshot, not as an unwind, and
//! always that of the **lowest** failing event index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_obs::costmodel::{CostModel, PhaseCosts};
use bgpscale_obs::{
    MetricsRegistry, NoopObserver, Recorder, RecorderOptions, SimObserver, TimeSeries,
    TimeSeriesSpec, TraceRecord,
};
use bgpscale_simkernel::pool::run_indexed_with;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, AsId, ByKey, ByType, GrowthScenario, NodeType, Relationship};

use crate::cevent::run_c_event;
use crate::factors::{node_factors, FactorAccumulator, FactorMeans};
use crate::sim::{EventBudgetExceeded, SimTemplate, Simulator};

/// The stream of a cell's master seed its topology is generated from:
/// `hash64_pair(seed, TOPO_STREAM)`. Every figure that builds a topology
/// by hand (`table1` and the extension figures) generates the cell's
/// graph from it, but the extension figures take none of the cell's other
/// streams: they pick originators from streams of their own (`0xE1`,
/// `0xE3`, `0xE5`, `0xE6`) and seed one simulator per run, not one per
/// event, from `hash64_pair(seed, SIM_STREAM)`, from `SIM_STREAM ^ mode`
/// (`ext_rfd`) or from `0xB2` (`ext_burstiness`).
pub const TOPO_STREAM: u64 = 0x7090;
/// The stream of a cell's master seed its simulators are seeded from;
/// event `k` runs on `hash64_pair(hash64_pair(seed, SIM_STREAM), k)`.
pub const SIM_STREAM: u64 = 0x51B;
/// The stream of a cell's master seed that picks its C-event originators.
pub const PICK_STREAM: u64 = 0x0121;

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
    /// simulator's (huge) default. Small budgets exercise the failure
    /// path: [`run_cell`] returns a [`CellError`] with the budget snapshot,
    /// which `repro profile` renders.
    pub event_limit: Option<u64>,
    /// Reserved: always `None` (the type makes `Some(_)` unwritable). Only
    /// [`ExperimentConfig::new`] and `benchmark/`'s struct literal, frozen
    /// to ordinary PRs, write it; the next `benchmark` PR drops it.
    pub wheel_slot_bits: Option<std::convert::Infallible>,
}

impl ExperimentConfig {
    /// The cell `(scenario, n, events, seed)` under `bgp`, on the default event budget.
    pub fn new(
        scenario: GrowthScenario,
        n: usize,
        events: usize,
        seed: u64,
        bgp: BgpConfig,
    ) -> ExperimentConfig {
        ExperimentConfig {
            scenario,
            n,
            events,
            seed,
            bgp,
            event_limit: None,
            wheel_slot_bits: None,
        }
    }
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

/// The churn of one experiment cell ([`run_cell`], [`run_experiment`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnReport {
    /// The configuration that produced this report.
    pub scenario: GrowthScenario,
    /// Network size.
    pub n: usize,
    /// Events actually run (may be fewer than requested if the topology
    /// has fewer C nodes).
    pub events: usize,
    /// Per-type summaries in [`NodeType::ALL`] order; [`ChurnReport::by_type`] reads one.
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
        ByKey(self.types.each_ref())[ty]
    }

    /// Convenience: `U_y(X)` — mean updates a node of type `ty` receives
    /// from neighbors of class `rel` per C-event (e.g. `Uc(T)`).
    pub fn u(&self, ty: NodeType, rel: Relationship) -> f64 {
        self.factor(ty, rel).u
    }

    /// Convenience: the factor means for `(type, relationship)`.
    pub fn factor(&self, ty: NodeType, rel: Relationship) -> FactorMeans {
        ByKey(self.by_type(ty).factors)[rel]
    }
}

/// Everything one C-event contributes to the report: a partial factor
/// accumulator plus the event-level scalars. Computed independently per
/// event (possibly on a worker thread), folded in event-index order.
struct EventMeasurement {
    acc: FactorAccumulator,
    /// Per-type mean `U(X)` for this event, `None` when the topology has
    /// no observing node of the type.
    event_u: ByType<Option<f64>>,
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
/// relies on. Errs, naming event `k`, if a phase exhausts its event budget.
fn measure_event<O: SimObserver>(
    cfg: &ExperimentConfig,
    sim: &mut Simulator<O>,
    node_types: &[NodeType],
    origin: AsId,
    k: usize,
) -> Result<EventMeasurement, CellError> {
    if let Some(limit) = cfg.event_limit {
        sim.set_event_limit(limit);
    }
    let outcome = run_c_event(sim, origin, Prefix(k as u32)).map_err(|cause| CellError {
        scenario: cfg.scenario,
        n: cfg.n,
        event: k,
        cause,
    })?;

    let mut acc = FactorAccumulator::new();
    let mut event_u_sum = ByType::<f64>::default();
    let mut event_u_cnt = ByType::<u64>::default();
    for (id, &ty) in node_types.iter().enumerate() {
        let node = AsId(id as u32);
        if node == origin {
            continue; // the originator causes the event, it does not observe it
        }
        let f = node_factors(sim, node);
        acc.add(ty, &f);
        event_u_sum[ty] += f.total_updates() as f64;
        event_u_cnt[ty] += 1;
    }
    let event_u = ByKey(NodeType::ALL.map(|ty| {
        (event_u_cnt[ty] > 0).then(|| event_u_sum[ty] / event_u_cnt[ty] as f64)
    }));
    Ok(EventMeasurement {
        acc,
        event_u,
        total_updates: outcome.total_updates as f64,
        down_s: outcome.down_convergence.as_secs_f64(),
        up_s: outcome.up_convergence.as_secs_f64(),
        phase_costs: outcome.phase_costs,
    })
}

/// What telemetry [`run_cell`] should collect beyond the always-on metric
/// counters when it observes a cell.
#[derive(Clone, Debug, Default)]
pub struct ObserveOptions {
    /// Keep 1-in-`n` trace records when `Some(n)` (`Some(1)` keeps all).
    pub trace_sample: Option<u64>,
    /// Record a simulated-time series with the given bin width
    /// (microseconds of simulated time) when `Some`.
    pub timeseries_bin_us: Option<u64>,
}

/// Everything [`run_cell`] returns: the churn report, the exact op counts
/// and the deterministic telemetry of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservedReport {
    /// The churn report (bit-identical whether or not the cell was
    /// observed).
    pub report: ChurnReport,
    /// Merged metrics of all C-events, folded in event-index order (empty
    /// for an unobserved cell).
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

/// Why a cell has no report: C-event `event` never quiesced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// The cell's growth scenario.
    pub scenario: GrowthScenario,
    /// The cell's network size.
    pub n: usize,
    /// Index of the failing C-event: the lowest one that failed.
    pub event: usize,
    /// The simulator's diagnosis, with its state snapshot.
    pub cause: EventBudgetExceeded,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} n={} event {}: {}", self.scenario, self.n, self.event, self.cause)
    }
}

impl std::error::Error for CellError {}

/// Runs one experiment cell — the full averaged C-event experiment for
/// one configuration — with up to `jobs` C-events in flight at once.
///
/// With `observe`, a [`Recorder`] rides every C-event's simulator, and the
/// per-event metrics (plus an `experiment.events` count) and whatever the
/// options ask for — 1-in-`n` sampled trace records, the simulated-time
/// series — are merged in event-index order. Without it the event loop is
/// the [`NoopObserver`] monomorphisation and the telemetry comes back
/// empty. The report and the cost model are the same either way.
///
/// Everything returned is **bit-for-bit identical for every `jobs` value**
/// (including 1): event `k` always runs on a pristine simulator seeded
/// `hash64_pair(sim_seed, k)` — whichever worker's recycled simulator that
/// is — and measurements, op counts and telemetry (the latter two
/// integer-only) are folded in event-index order whichever worker finishes
/// first. So `cost.to_json()`, `metrics.to_json()`, the trace stream and
/// the time series' JSON are byte-identical across job counts.
///
/// `on_phase` is told each [`CellPhase`] as the cell enters it, in
/// order; a phase ends where the next begins, the last where `run_cell`
/// returns. It sees nothing the cell computes, so a caller may time the
/// phases with the host clock (`repro profile` does) without that time
/// reaching the report.
///
/// # Errors
/// The [`CellError`] of the lowest C-event index that exhausts its event
/// budget, whatever `jobs` is.
///
/// # Panics
/// Panics if the topology contains no C nodes (every paper scenario has
/// them).
pub fn run_cell(
    cfg: &ExperimentConfig,
    jobs: usize,
    observe: Option<&ObserveOptions>,
    mut on_phase: impl FnMut(CellPhase),
) -> Result<ObservedReport, CellError> {
    let on_phase: &mut dyn FnMut(CellPhase) = &mut on_phase;
    let setup = ExperimentSetup::build(cfg, on_phase);
    let mut metrics = MetricsRegistry::new();
    let mut trace = Vec::new();
    let mut timeseries: Option<TimeSeries> = None;
    let (report, cost) = match observe {
        None => run_events(cfg, jobs, &setup, on_phase, |_| NoopObserver, |_| {}),
        Some(opts) => {
            let recorder_opts = RecorderOptions {
                trace_sample: opts.trace_sample,
                // One shared spec: every event's recorder bins against the
                // same node-type table (Arc-shared, never copied per event).
                timeseries: opts.timeseries_bin_us.map(|bin_us| TimeSeriesSpec {
                    bin_us,
                    node_types: Arc::from(setup.node_types.as_slice()),
                }),
            };
            let recorder_for = |k| Recorder::with_options(k as u32, recorder_opts.clone());
            run_events(cfg, jobs, &setup, on_phase, recorder_for, |recorder| {
                metrics.merge(&recorder.registry());
                metrics.inc("experiment.events", 1);
                let (records, ts) = recorder.into_parts();
                trace.extend(records);
                if let Some(ts) = ts {
                    match timeseries.as_mut() {
                        None => timeseries = Some(ts),
                        Some(total) => total.merge(&ts),
                    }
                }
            })
        }
    }?;
    Ok(ObservedReport { report, metrics, trace, timeseries, cost })
}

/// The per-event loop and its fold, for any observer: event `k` runs with
/// `observer_for(k)` attached, and `absorb` receives the observers back in
/// event-index order. That order also fixes the f64 accumulation order,
/// which is what makes the report bit-stable across job counts.
fn run_events<O: SimObserver + Default + Send>(
    cfg: &ExperimentConfig,
    jobs: usize,
    setup: &ExperimentSetup,
    on_phase: &mut dyn FnMut(CellPhase),
    observer_for: impl Fn(usize) -> O + Sync,
    mut absorb: impl FnMut(O),
) -> Result<(ChurnReport, CostModel), CellError> {
    // Lowest event index known to have failed. Events above it are skipped
    // (`None`): the cell's error lies at or below it. The lowest failing
    // event is never skipped, so the race decides only how much work is
    // saved, not which error is reported.
    let failed = AtomicUsize::new(usize::MAX);
    on_phase(CellPhase::RunEvents);
    let outcomes: Vec<Option<Result<(EventMeasurement, O), CellError>>> = run_indexed_with(
        jobs,
        setup.c_nodes.len(),
        || None,
        |worker, k| {
            if failed.load(Ordering::Relaxed) < k {
                return None;
            }
            // The pool hands out 0..c_nodes.len(): every k has an origin.
            let &origin = setup.c_nodes.get(k)?;
            let seed = hash64_pair(setup.sim_seed, k as u64);
            let sim = ready_sim(worker, &setup.template, seed, observer_for(k));
            let measured = measure_event(cfg, sim, &setup.node_types, origin, k);
            if measured.is_err() {
                failed.fetch_min(k, Ordering::Relaxed);
            }
            // The event's telemetry leaves with its observer; the idle
            // simulator keeps an empty one until its next event.
            Some(measured.map(|m| (m, sim.replace_observer(O::default()))))
        },
    );

    on_phase(CellPhase::FoldMeasurements);
    let mut cost = CostModel::new();
    let mut acc = FactorAccumulator::new();
    let mut per_event_u = ByType::<Vec<f64>>::default();
    let mut total_updates_sum = 0.0;
    let mut down_sum = 0.0;
    let mut up_sum = 0.0;
    for outcome in outcomes.into_iter().flatten() {
        let (m, observer) = outcome?;
        absorb(observer);
        cost.push_event(m.phase_costs);
        acc.merge(&m.acc);
        for (series, u) in per_event_u.iter_mut().zip(m.event_u.iter()) {
            if let Some(u) = u {
                series.push(*u);
            }
        }
        total_updates_sum += m.total_updates;
        down_sum += m.down_s;
        up_sum += m.up_s;
    }

    let events = setup.c_nodes.len();
    let types = NodeType::ALL.map(|ty| TypeChurn {
        node_count: setup.node_counts[ty],
        u_total: acc.mean_total(ty),
        factors: Relationship::ALL.map(|rel| acc.means(ty, rel)),
        per_event_u: std::mem::take(&mut per_event_u[ty]),
    });
    let report = ChurnReport {
        scenario: cfg.scenario,
        n: cfg.n,
        events,
        types,
        mean_total_updates: total_updates_sum / events as f64,
        mean_down_convergence_s: down_sum / events as f64,
        mean_up_convergence_s: up_sum / events as f64,
    };
    Ok((report, cost))
}

/// [`run_cell`] on one worker, unobserved, for the [`ChurnReport`] alone.
/// Deterministic: equal configs produce equal reports.
///
/// # Panics
/// As [`run_cell`], and with the [`CellError`]'s text where that errs.
pub fn run_experiment(cfg: &ExperimentConfig) -> ChurnReport {
    or_panic(run_cell(cfg, 1, None, |_| {})).report
}

/// The report and [`CostModel`] of an unobserved [`run_cell`], panicking
/// as [`run_experiment`] does. Kept for `benchmark/`, which pins the name.
pub fn run_experiment_with_cost(cfg: &ExperimentConfig, jobs: usize) -> (ChurnReport, CostModel) {
    let observed = or_panic(run_cell(cfg, jobs, None, |_| {}));
    (observed.report, observed.cost)
}

/// An observed [`run_cell`], panicking as [`run_experiment`] does. Kept
/// for `benchmark/`, which pins the name.
pub fn run_experiment_observed_with(
    cfg: &ExperimentConfig,
    jobs: usize,
    opts: &ObserveOptions,
) -> ObservedReport {
    or_panic(run_cell(cfg, jobs, Some(opts), |_| {}))
}

/// What the three wrappers return for a cell that must not fail: a blown
/// budget on the simulator's default one is a model bug.
#[expect(clippy::panic, reason = "the wrappers document that they panic with the CellError's text")]
fn or_panic<T>(result: Result<T, CellError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// The phases of [`run_cell`], in the order it enters them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellPhase {
    /// The cell's topology is generated.
    GenerateTopology,
    /// The originators are picked and the simulator template is built.
    BuildTemplate,
    /// The C-events run, fanned out over the workers.
    RunEvents,
    /// The events' measurements are folded, in event-index order.
    FoldMeasurements,
}

impl CellPhase {
    /// The phase's name in `repro profile`'s table.
    pub fn name(self) -> &'static str {
        match self {
            CellPhase::GenerateTopology => "generate_topology",
            CellPhase::BuildTemplate => "build_template",
            CellPhase::RunEvents => "run_events",
            CellPhase::FoldMeasurements => "fold_measurements",
        }
    }
}

/// The per-cell state every event shares: generated topology, chosen
/// originators, and the pristine simulator template.
struct ExperimentSetup {
    node_counts: ByType<usize>,
    node_types: Vec<NodeType>,
    c_nodes: Vec<AsId>,
    template: SimTemplate,
    sim_seed: u64,
}

impl ExperimentSetup {
    fn build(cfg: &ExperimentConfig, on_phase: &mut dyn FnMut(CellPhase)) -> ExperimentSetup {
        let topo_seed = hash64_pair(cfg.seed, TOPO_STREAM);
        let sim_seed = hash64_pair(cfg.seed, SIM_STREAM);
        let pick_seed = hash64_pair(cfg.seed, PICK_STREAM);

        on_phase(CellPhase::GenerateTopology);
        let graph = Arc::new(generate(cfg.scenario, cfg.n, topo_seed));
        on_phase(CellPhase::BuildTemplate);
        let node_counts = ByKey(NodeType::ALL.map(|ty| graph.count_of_type(ty)));
        let node_types: Vec<NodeType> = graph.node_ids().map(|id| graph.node_type(id)).collect();

        // Choose distinct C-type originators.
        let mut c_nodes = graph.nodes_of_type(NodeType::C);
        assert!(!c_nodes.is_empty(), "{} at n={} has no C nodes", cfg.scenario, cfg.n);
        let mut pick_rng = Xoshiro256StarStar::new(pick_seed);
        pick_rng.shuffle(&mut c_nodes);
        c_nodes.truncate(cfg.events.max(1));

        // Build the clean simulator blueprint once; every worker stamps
        // its simulator out of it.
        let template = SimTemplate::new(Arc::clone(&graph), cfg.bgp);

        ExperimentSetup {
            node_counts,
            node_types,
            c_nodes,
            template,
            sim_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: GrowthScenario, n: usize, events: usize, seed: u64) -> ExperimentConfig {
        ExperimentConfig::new(scenario, n, events, seed, BgpConfig::default())
    }

    fn quick(scenario: GrowthScenario, n: usize, events: usize, seed: u64) -> ChurnReport {
        run_experiment(&cell(scenario, n, events, seed))
    }

    /// The cell of the jobs = 1 / 4 / 8 byte-identity tests.
    fn det_cell() -> ExperimentConfig {
        cell(GrowthScenario::Baseline, 200, 6, 0xDE7)
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
        let cfg = det_cell();
        let sequential = run_cell(&cfg, 1, None, |_| {}).unwrap().report;
        for jobs in [4, 8] {
            let parallel = run_cell(&cfg, jobs, None, |_| {}).unwrap().report;
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
        let cfg = det_cell();
        let opts = traced(Some(5));
        let base = run_cell(&cfg, 1, Some(&opts), |_| {}).unwrap();
        let base_json = base.metrics.to_json();
        let base_trace: String = base
            .trace
            .iter()
            .map(|r| r.to_json_line() + "\n")
            .collect();
        assert!(base.metrics.counter("events.total") > 0);
        assert!(!base.trace.is_empty(), "sampled trace should have records");
        for jobs in [4, 8] {
            let other = run_cell(&cfg, jobs, Some(&opts), |_| {}).unwrap();
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

    /// `timeseries.json` and the provenance counters are byte-identical
    /// for jobs = 1, 4, 8.
    #[test]
    fn timeseries_and_provenance_are_byte_identical_across_jobs() {
        let cfg = det_cell();
        let opts = ObserveOptions {
            trace_sample: None,
            timeseries_bin_us: Some(100_000),
        };
        let base = run_cell(&cfg, 1, Some(&opts), |_| {}).unwrap();
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
                r.metrics.histogram("provenance.depth").map_or(0, |h| h.sum()),
                r.metrics.counter("provenance.to_customer"),
                r.metrics.counter("provenance.to_peer"),
                r.metrics.counter("provenance.to_provider"),
                r.metrics.counter("provenance.roots"),
            ]
        };
        for jobs in [4, 8] {
            let other = run_cell(&cfg, jobs, Some(&opts), |_| {}).unwrap();
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

    /// `costmodel.json` is byte-identical for jobs = 1, 4, 8, and the
    /// observed and unobserved cell agree on it.
    #[test]
    fn costmodel_is_byte_identical_across_jobs() {
        let cfg = det_cell();
        let base = run_cell(&cfg, 1, None, |_| {}).unwrap();
        let base_json = base.cost.to_json();
        assert_eq!(base.cost.events(), cfg.events);
        assert!(base.cost.total().grand_total() > 0, "counters must see work");
        // Measured phases do real per-class work.
        let totals = base.cost.phase_totals();
        for phase in &totals {
            assert!(phase.deliveries > 0);
            assert!(phase.decision_runs > 0);
            assert!(phase.queue_pushes > 0);
        }
        for jobs in [4, 8] {
            let other = run_cell(&cfg, jobs, None, |_| {}).unwrap();
            assert_eq!(base_json, other.cost.to_json(), "costmodel.json diverged at jobs={jobs}");
            assert_eq!(base, other, "unobserved cell diverged at jobs={jobs}");
        }
        // The observed cell collects the identical model.
        let observed = run_cell(&cfg, 4, Some(&traced(None)), |_| {}).unwrap();
        assert_eq!(base_json, observed.cost.to_json(), "observed cost diverged");
        // The wrapper `benchmark/` pins returns the cell's own values.
        assert_eq!(run_experiment_with_cost(&cfg, 4), (base.report, base.cost));
    }

    /// Provenance-enabled runs leave the churn report unchanged: stamps
    /// are telemetry riding along the messages, never protocol input.
    #[test]
    fn timeseries_recording_leaves_the_report_unchanged() {
        let cfg = cell(GrowthScenario::Baseline, 200, 4, 21);
        let plain = run_experiment(&cfg);
        let opts = ObserveOptions {
            trace_sample: Some(7),
            timeseries_bin_us: Some(50_000),
        };
        let observed = run_cell(&cfg, 2, Some(&opts), |_| {}).unwrap();
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

    /// Attaching a recorder must not perturb the simulation itself, and
    /// not attaching one must collect nothing.
    #[test]
    fn observed_report_matches_unobserved_report() {
        let cfg = cell(GrowthScenario::Baseline, 200, 4, 21);
        let plain = run_cell(&cfg, 1, None, |_| {}).unwrap();
        let observed = run_cell(&cfg, 1, Some(&traced(None)), |_| {}).unwrap();
        assert_eq!(plain.report, observed.report);
        assert_eq!(plain.cost, observed.cost);
        assert!(plain.metrics.is_empty() && plain.trace.is_empty() && plain.timeseries.is_none());
        assert!(observed.trace.is_empty(), "no trace requested");
        // The recorder saw the same world the churn counters did: every
        // delivered update is one unit of churn, summed over DOWN+UP.
        let events = plain.report.events as f64;
        let mean_from_metrics = observed.metrics.counter("events.deliver") as f64 / events;
        assert!(
            mean_from_metrics >= plain.report.mean_total_updates,
            "deliveries ({mean_from_metrics}) must cover counted churn ({})",
            plain.report.mean_total_updates
        );
        assert_eq!(observed.metrics.counter("experiment.events"), plain.report.events as u64);
        // The wrappers return the cell's own values.
        assert_eq!(run_experiment_observed_with(&cfg, 1, &traced(None)), observed);
        assert_eq!(run_experiment(&cfg), plain.report);
    }

    /// A budget every event blows: the error is event 0's, snapshot and
    /// all, whichever worker ran it and observed or not.
    #[test]
    fn blown_budget_is_the_same_error_at_every_job_count() {
        let cfg = ExperimentConfig {
            event_limit: Some(3),
            ..det_cell()
        };
        let base = run_cell(&cfg, 1, None, |_| {}).unwrap_err();
        assert_eq!((base.scenario, base.n, base.event), (cfg.scenario, cfg.n, 0));
        assert_eq!((base.cause.budget, base.cause.processed), (3, 4));
        assert!(
            base.cause.snapshot.pending_by_kind.iter().sum::<u64>() > 0,
            "snapshot must show what was pending: {base}"
        );
        for jobs in [4, 8] {
            assert_eq!(base, run_cell(&cfg, jobs, None, |_| {}).unwrap_err(), "jobs={jobs}");
        }
        assert_eq!(base, run_cell(&cfg, 4, Some(&traced(Some(1))), |_| {}).unwrap_err());
    }

    /// A budget only a later event blows: the error names that event at
    /// every job count, although the events below it all pass and a worker
    /// may reach a failing event above it first.
    #[test]
    fn first_failing_event_is_reported_at_every_job_count() {
        let passing_cfg = cell(GrowthScenario::Baseline, 200, 6, 2);
        let passing = run_cell(&passing_cfg, 1, None, |_| {}).unwrap();
        // The budget is per phase: an event fails iff its busiest phase
        // pops more events than the budget.
        let peaks: Vec<u64> = passing
            .cost
            .per_event()
            .iter()
            .map(|phases| phases.iter().map(|p| p.queue_pops).max().unwrap())
            .collect();
        // The last event busier than every event before it, and a budget
        // those earlier events just fit in.
        let (late, budget) = (1..peaks.len())
            .rev()
            .map(|k| (k, *peaks[..k].iter().max().unwrap()))
            .find(|&(k, earlier)| peaks[k] > earlier)
            .expect("some event after the first is the busiest so far");
        assert!(late >= 2, "want passing events below the failing one: {peaks:?}");
        let cfg = ExperimentConfig {
            event_limit: Some(budget),
            ..passing_cfg
        };
        let base = run_cell(&cfg, 1, None, |_| {}).unwrap_err();
        assert_eq!(base.event, late, "peaks {peaks:?}, budget {budget}");
        assert_eq!(base.cause.processed, budget + 1);
        for jobs in [2, 4, 8] {
            assert_eq!(base, run_cell(&cfg, jobs, None, |_| {}).unwrap_err(), "jobs={jobs}");
        }
    }

    /// The front door keeps the panic its callers know, with the error's
    /// text.
    #[test]
    #[should_panic(expected = "BASELINE n=200 event 0: simulation did not quiesce")]
    fn run_experiment_panics_with_the_cell_error() {
        run_experiment(&ExperimentConfig {
            event_limit: Some(3),
            ..det_cell()
        });
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
