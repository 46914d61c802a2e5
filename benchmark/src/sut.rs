//! The system under test: every call into the product is in this file.
//!
//! The pinned API surface is listed in `benchmark/README.md`. A change to
//! one of those items breaks the build or a check here and nowhere else in
//! the benchmark.
//!
//! Each workload runs two ways. [`run_entry`] goes through the public
//! entry point a user calls, seed in and reports out, and is what the
//! end-to-end metrics time. [`run_composed`] rebuilds the same cells from
//! the layers' public functions with a span around each call, and must
//! arrive at the same fingerprint.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bgpscale_bgp::rfd::RfdConfig;
use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::factors::{node_factors, type_index, FactorAccumulator};
use bgpscale_core::flapstorm::{run_flap_storm, FlapStormConfig};
use bgpscale_core::harness::{
    run_experiment_observed_with, run_experiment_with_cost, ChurnReport, ExperimentConfig,
    ObserveOptions, TypeChurn,
};
use bgpscale_core::levent::run_l_event;
use bgpscale_core::{SimTemplate, Simulator};
use bgpscale_obs::{
    MetricsRegistry, OpCounts, Recorder, RecorderOptions, SimObserver, TimeSeries, TimeSeriesSpec,
};
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventQueue, SimDuration, SimTime};
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType, Relationship};

use crate::fingerprint::Fnv;
use crate::trace::Tracer;

/// The workloads. `BENCHMARK.json` lists the first four, in this order:
/// the driver's time limit has room for four at 30 s a run. The whole-set
/// form of the command runs all six.
pub const WORKLOADS: [&str; 6] = [
    "baseline_5k",
    "densecore_wrate_500",
    "frontier_12k",
    "scenario_sweep_500",
    "levent_rfd_2k",
    "observed_5k",
];

/// The telemetry `observed_5k` asks the recorder for.
const OBSERVE: ObserveOptions = ObserveOptions {
    trace_sample: Some(16),
    timeseries_bin_us: Some(100_000),
};

/// The seed streams `core::harness` derives from a cell seed. The
/// composed run must use the same ones to arrive at the same reports.
const TOPO_STREAM: u64 = 0x7090;
const SIM_STREAM: u64 = 0x51B;
const PICK_STREAM: u64 = 0x0121;

/// One C-event experiment cell.
#[derive(Clone, Debug)]
pub struct Cell {
    pub scenario: GrowthScenario,
    pub n: usize,
    pub events: usize,
    pub wrate: bool,
    pub seed: u64,
}

impl Cell {
    fn bgp(&self) -> BgpConfig {
        if self.wrate {
            BgpConfig::wrate()
        } else {
            BgpConfig::no_wrate()
        }
    }

    fn config(&self) -> ExperimentConfig {
        ExperimentConfig {
            scenario: self.scenario,
            n: self.n,
            events: self.events,
            seed: self.seed,
            bgp: self.bgp(),
            event_limit: None,
            wheel_slot_bits: None,
        }
    }
}

/// The inputs of one workload, made from the seed alone.
#[derive(Clone, Debug)]
pub enum Plan {
    /// C-event cells run back to back in one process, through a live
    /// `obs::Recorder` when `observed`.
    Cells { cells: Vec<Cell>, observed: bool },
    /// First-hop L-events on one reused simulator, then flap storms on
    /// one reused simulator with Route Flap Damping.
    LeventRfd(LeventRfd),
}

/// The sizes of the L-event and flap-storm workload.
#[derive(Clone, Copy, Debug)]
pub struct LeventRfd {
    pub n: usize,
    pub levents: usize,
    pub storms: usize,
    pub seed: u64,
}

impl Plan {
    /// The same cells without the recorder, when this plan has one: the
    /// base that the recorder's cost is measured against.
    pub fn without_observer(&self) -> Option<Plan> {
        match self {
            Plan::Cells {
                cells,
                observed: true,
            } => Some(Plan::Cells {
                cells: cells.clone(),
                observed: false,
            }),
            _ => None,
        }
    }
}

/// Builds a workload's inputs from `seed`; `smoke` shrinks every size to
/// n ≤ 300 for the test suite. `None` for an unknown name.
///
/// Every C-event workload is several cells with seeds of their own. The
/// runner times each cell apart, so a cell is short (0.05–1.1 s on the
/// reference box) and a repetition is 1.7–3.2 s; and the work of a run must
/// differ by a few percent between seeds, so a run sums enough topologies
/// and events: WRATE events are heavy-tailed, and one large cell's deliveries
/// differ by 30 % between seeds.
pub fn plan(workload: &str, seed: u64, smoke: bool) -> Option<Plan> {
    let cell = |scenario, n, events, wrate, seed| Cell {
        scenario,
        n,
        events,
        wrate,
        seed,
    };
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    Some(match workload {
        "baseline_5k" | "observed_5k" => Plan::Cells {
            cells: (0..pick(4, 1) as u64)
                .map(|i| {
                    cell(
                        GrowthScenario::Baseline,
                        pick(5000, 300),
                        pick(6, 4),
                        false,
                        hash64_pair(seed, i),
                    )
                })
                .collect(),
            observed: workload == "observed_5k",
        },
        "densecore_wrate_500" => Plan::Cells {
            cells: (0..pick(16, 2) as u64)
                .map(|i| {
                    let seed = hash64_pair(seed, i);
                    cell(
                        GrowthScenario::DenseCore,
                        pick(500, 200),
                        pick(16, 3),
                        true,
                        seed,
                    )
                })
                .collect(),
            observed: false,
        },
        "frontier_12k" => Plan::Cells {
            cells: (0..pick(3, 1) as u64)
                .map(|i| {
                    cell(
                        GrowthScenario::Baseline,
                        pick(12_000, 300),
                        2,
                        false,
                        hash64_pair(seed, i),
                    )
                })
                .collect(),
            observed: false,
        },
        "scenario_sweep_500" => Plan::Cells {
            cells: GrowthScenario::ALL
                .into_iter()
                .flat_map(|s| {
                    (0..pick(4, 2) as u64).map(move |i| {
                        cell(
                            s,
                            pick(500, 150),
                            pick(12, 2),
                            i % 2 == 1,
                            hash64_pair(seed, i / 2),
                        )
                    })
                })
                .collect(),
            observed: false,
        },
        "levent_rfd_2k" => Plan::LeventRfd(LeventRfd {
            n: pick(2000, 300),
            levents: pick(60, 6),
            storms: pick(12, 2),
            seed,
        }),
        _ => return None,
    })
}

/// What one repetition of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// FNV of the integer-serialised reports and outcomes and of the total
    /// op counts.
    pub fingerprint: u64,
    /// Op counts of all cells and phases, warm-up included.
    pub counts: OpCounts,
    /// C-events, L-events and storms asked for, and how many of them hit
    /// the event budget, panicked or failed a check.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Links of all generated topologies.
    pub links: u64,
    /// Largest `arena_bytes_reserved` gauge seen at the end of an event
    /// (composed runs only).
    pub arena_peak_bytes: u64,
    /// Sampled trace records an observed run collected.
    pub trace_records: u64,
    /// Host seconds of each part `run_entry` times on its own: one per
    /// cell, or one for the whole L-event and flap-storm procedure.
    pub part_s: Vec<f64>,
}

impl Outcome {
    fn new(plan: &Plan) -> Outcome {
        Outcome {
            ops_attempted: ops_of(plan),
            ..Outcome::default()
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.ops_failed = (self.ops_failed + ops).min(self.ops_attempted);
        self.failures.push(why);
    }

    fn finish(&mut self, mut fp: Fnv) {
        for (_, v) in self.counts.fields() {
            fp.u64(v);
        }
        self.fingerprint = fp.finish();
    }
}

fn fingerprint_report(fp: &mut Fnv, r: &ChurnReport) {
    fp.bytes(r.scenario.name().as_bytes());
    fp.u64(r.n as u64);
    fp.u64(r.events as u64);
    for t in &r.types {
        fp.u64(t.node_count as u64);
        fp.f64(t.u_total);
        for f in &t.factors {
            for v in [f.m, f.q, f.e, f.u] {
                fp.f64(v);
            }
        }
        for &u in &t.per_event_u {
            fp.f64(u);
        }
    }
    fp.f64(r.mean_total_updates);
    fp.f64(r.mean_down_convergence_s);
    fp.f64(r.mean_up_convergence_s);
}

/// Paper §5.2: in TREE every tier-1 node receives exactly one withdrawal
/// and one announcement per C-event. (Peering remains in TREE, so the
/// other types can hear of an event from more than one neighbor.)
fn tree_report_is_two(r: &ChurnReport) -> bool {
    let t = r.by_type(NodeType::T);
    t.u_total == 2.0 && t.per_event_u.iter().all(|&u| u == 2.0)
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

fn ops_of(plan: &Plan) -> u64 {
    match plan {
        Plan::Cells { cells, .. } => cells.iter().map(|c| c.events as u64).sum(),
        Plan::LeventRfd(p) => (p.levents + p.storms) as u64,
    }
}

/// Runs the workload through the product's public entry points.
pub fn run_entry(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(plan);
    let mut fp = Fnv::default();
    match plan {
        Plan::Cells { cells, observed } => {
            for (i, cell) in cells.iter().enumerate() {
                let cfg = cell.config();
                let part = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if *observed {
                        let o = run_experiment_observed_with(&cfg, 1, &OBSERVE);
                        (o.report, o.cost, o.trace.len() as u64)
                    } else {
                        let (report, cost) = run_experiment_with_cost(&cfg, 1);
                        (report, cost, 0)
                    }
                }));
                out.part_s.push(part.elapsed().as_secs_f64());
                match run {
                    Ok((report, cost, trace_records)) => {
                        fingerprint_report(&mut fp, &report);
                        out.counts.add(&cost.total());
                        out.trace_records += trace_records;
                        if report.events != cell.events {
                            out.fail(
                                cell.events as u64,
                                format!("cell {i}: ran {} events", report.events),
                            );
                        } else if cell.scenario == GrowthScenario::Tree
                            && !tree_report_is_two(&report)
                        {
                            out.fail(
                                cell.events as u64,
                                format!("cell {i}: TREE churn at T nodes is not 2"),
                            );
                        }
                    }
                    Err(p) => out.fail(cell.events as u64, format!("cell {i}: {}", panic_text(p))),
                }
            }
        }
        Plan::LeventRfd(p) => {
            let part = Instant::now();
            levent_rfd(p, &mut Tracer::new(false), &mut out, &mut fp);
            out.part_s.push(part.elapsed().as_secs_f64());
        }
    }
    out.finish(fp);
    out
}

/// Runs the workload from the layers' public functions, a span around
/// each call and op counts read at the same boundaries.
pub fn run_composed(plan: &Plan, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(plan);
    let mut fp = Fnv::default();
    match plan {
        Plan::Cells { cells, observed } => {
            for (i, cell) in cells.iter().enumerate() {
                t.cell = i as u32;
                t.event = None;
                let run = catch_unwind(AssertUnwindSafe(|| {
                    t.span("cell", |t| {
                        compose_cell(cell, *observed, t, &mut out, &mut fp)
                    })
                }));
                match run {
                    Ok(Ok(())) => {}
                    Ok(Err(why)) => out.fail(cell.events as u64, format!("cell {i}: {why}")),
                    Err(p) => out.fail(cell.events as u64, format!("cell {i}: {}", panic_text(p))),
                }
            }
        }
        Plan::LeventRfd(p) => levent_rfd(p, t, &mut out, &mut fp),
    }
    out.finish(fp);
    out
}

/// The telemetry an observed cell folds together, as
/// `run_experiment_observed_with` does.
#[derive(Default)]
struct Telemetry {
    metrics: MetricsRegistry,
    trace_records: u64,
    timeseries: Option<TimeSeries>,
}

/// What one composed C-event adds to its cell's report.
struct EventFold {
    total_updates: u64,
    down_s: f64,
    up_s: f64,
}

/// One cell, as `core::harness` builds it: generate, pick originators,
/// build the template, then per event instantiate, warm up, DOWN, UP and
/// fold the factors; and the means at the end.
fn compose_cell(
    cell: &Cell,
    observed: bool,
    t: &mut Tracer,
    out: &mut Outcome,
    fp: &mut Fnv,
) -> Result<(), String> {
    let topo_seed = hash64_pair(cell.seed, TOPO_STREAM);
    let sim_seed = hash64_pair(cell.seed, SIM_STREAM);
    let pick_seed = hash64_pair(cell.seed, PICK_STREAM);

    let graph = t.span("topology.generate", |_| {
        Arc::new(generate(cell.scenario, cell.n, topo_seed))
    });
    out.links += graph.link_count() as u64;
    let (node_types, c_nodes) = t.span("core.pick_origins", |_| {
        let node_types: Vec<NodeType> = graph.node_ids().map(|id| graph.node_type(id)).collect();
        let mut c_nodes = graph.nodes_of_type(NodeType::C);
        Xoshiro256StarStar::new(pick_seed).shuffle(&mut c_nodes);
        c_nodes.truncate(cell.events.max(1));
        (node_types, c_nodes)
    });
    if c_nodes.len() != cell.events {
        return Err(format!("topology has {} C nodes", c_nodes.len()));
    }
    let template = t.span("core.template_build", |_| {
        SimTemplate::new(Arc::clone(&graph), cell.bgp())
    });
    let spec = observed.then(|| TimeSeriesSpec {
        bin_us: OBSERVE
            .timeseries_bin_us
            .expect("observed runs record a time series"),
        node_types: Arc::from(node_types.as_slice()),
    });

    let mut acc = FactorAccumulator::new();
    let mut per_event_u: [Vec<f64>; 4] = Default::default();
    let mut telemetry = Telemetry::default();
    let (mut total_sum, mut down_sum, mut up_sum) = (0.0, 0.0, 0.0);
    for (k, &origin) in c_nodes.iter().enumerate() {
        t.event = Some(k as u32);
        let fold = t.span("event", |t| {
            let seed = hash64_pair(sim_seed, k as u64);
            let prefix = Prefix(k as u32);
            let ctx = EventCtx {
                cell,
                node_types: &node_types,
                origin,
                prefix,
            };
            if let Some(spec) = &spec {
                let recorder = Recorder::with_options(
                    k as u32,
                    RecorderOptions {
                        trace_sample: OBSERVE.trace_sample,
                        timeseries: Some(spec.clone()),
                    },
                );
                let mut sim = t.span("core.instantiate", |_| {
                    template.instantiate_observed(seed, recorder)
                });
                let fold = compose_event(&mut sim, &ctx, t, out, &mut acc, &mut per_event_u)?;
                let recorder = t.span("core.sim_drop", |_| sim.into_observer());
                t.span("obs.fold", |_| {
                    telemetry.metrics.merge(&recorder.registry());
                    let (records, series) = recorder.into_parts();
                    telemetry.trace_records += records.len() as u64;
                    if let Some(series) = series {
                        match telemetry.timeseries.as_mut() {
                            None => telemetry.timeseries = Some(series),
                            Some(total) => total.merge(&series),
                        }
                    }
                });
                Ok::<EventFold, String>(fold)
            } else {
                let mut sim = t.span("core.instantiate", |_| template.instantiate(seed));
                let fold = compose_event(&mut sim, &ctx, t, out, &mut acc, &mut per_event_u)?;
                t.span("core.sim_drop", |_| drop(sim));
                Ok(fold)
            }
        })?;
        total_sum += fold.total_updates as f64;
        down_sum += fold.down_s;
        up_sum += fold.up_s;
    }
    t.event = None;
    out.trace_records += telemetry.trace_records;
    black_box(&telemetry);

    let report = t.span("core.fold", |_| {
        let events = c_nodes.len();
        let mut types: [TypeChurn; 4] = Default::default();
        for ty in NodeType::ALL {
            let i = type_index(ty);
            types[i] = TypeChurn {
                node_count: graph.count_of_type(ty),
                u_total: acc.mean_total(ty),
                factors: [
                    acc.means(ty, Relationship::Customer),
                    acc.means(ty, Relationship::Peer),
                    acc.means(ty, Relationship::Provider),
                ],
                per_event_u: std::mem::take(&mut per_event_u[i]),
            };
        }
        ChurnReport {
            scenario: cell.scenario,
            n: cell.n,
            events,
            types,
            mean_total_updates: total_sum / events as f64,
            mean_down_convergence_s: down_sum / events as f64,
            mean_up_convergence_s: up_sum / events as f64,
        }
    });
    fingerprint_report(fp, &report);
    Ok(())
}

struct EventCtx<'a> {
    cell: &'a Cell,
    node_types: &'a [NodeType],
    origin: AsId,
    prefix: Prefix,
}

/// One C-event on a fresh simulator, as `cevent::run_c_event` and the
/// harness's per-event fold do it, then the benchmark's own checks.
fn compose_event<O: SimObserver>(
    sim: &mut Simulator<O>,
    ctx: &EventCtx,
    t: &mut Tracer,
    out: &mut Outcome,
    acc: &mut FactorAccumulator,
    per_event_u: &mut [Vec<f64>; 4],
) -> Result<EventFold, String> {
    let (origin, prefix) = (ctx.origin, ctx.prefix);
    let quiesce = |sim: &mut Simulator<O>| sim.run_to_quiescence().map_err(|e| e.to_string());

    let base = sim.cost_counts();
    t.span("core.warmup", |_| {
        sim.churn_mut().set_enabled(false);
        sim.originate(origin, prefix);
        quiesce(sim)
    })?;
    sim.churn_mut().reset();
    sim.churn_mut().set_enabled(true);
    let (down_start, down_end) = t.span("core.down", |_| {
        let start = sim.now();
        sim.withdraw(origin, prefix);
        quiesce(sim).map(|end| (start, end))
    })?;
    let (up_start, up_end) = t.span("core.up", |_| {
        let start = sim.now();
        sim.originate(origin, prefix);
        quiesce(sim).map(|end| (start, end))
    })?;
    sim.churn_mut().set_enabled(false);
    let end = sim.cost_counts();
    out.arena_peak_bytes = out.arena_peak_bytes.max(end.arena_bytes_reserved);
    out.counts.add(&end.since(&base));

    t.span("core.fold", |_| {
        // One accumulator per event, merged in event order: the harness's
        // float summation order, which the report's last bits depend on.
        let mut event_acc = FactorAccumulator::new();
        let mut sum = [0.0f64; 4];
        let mut cnt = [0u64; 4];
        for (id, &ty) in ctx.node_types.iter().enumerate() {
            let node = AsId(id as u32);
            if node == origin {
                continue;
            }
            let f = node_factors(sim, node);
            event_acc.add(ty, &f);
            sum[type_index(ty)] += f.total_updates() as f64;
            cnt[type_index(ty)] += 1;
        }
        acc.merge(&event_acc);
        for i in 0..4 {
            if cnt[i] > 0 {
                per_event_u[i].push(sum[i] / cnt[i] as f64);
            }
        }
    });

    t.span("bench.checks", |_| {
        let tree = ctx.cell.scenario == GrowthScenario::Tree;
        for (id, &ty) in ctx.node_types.iter().enumerate() {
            let node = AsId(id as u32);
            if sim.node(node).best_route(prefix).is_none() {
                return Err(format!("{node} has no route after UP"));
            }
            if node == origin {
                continue;
            }
            let f = node_factors(sim, node);
            if !f.eq1_holds() {
                return Err(format!("Eq. 1 fails at {node}"));
            }
            if tree && ty == NodeType::T && f.total_updates() != 2 {
                return Err(format!(
                    "TREE: {node} received {} updates",
                    f.total_updates()
                ));
            }
        }
        Ok(())
    })?;

    Ok(EventFold {
        total_updates: sim.churn().total(),
        down_s: down_end.saturating_since(down_start).as_secs_f64(),
        up_s: up_end.saturating_since(up_start).as_secs_f64(),
    })
}

/// The `ext_levent` and `ext_rfd` procedures: no harness entry point
/// exists for them, so the traced and untraced runs share this code and
/// differ only in whether the tracer records.
fn levent_rfd(plan: &LeventRfd, t: &mut Tracer, out: &mut Outcome, fp: &mut Fnv) {
    let LeventRfd {
        n,
        levents,
        storms,
        seed,
    } = *plan;
    let mut done = 0u64;
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let graph = t.span("topology.generate", |_| {
            generate(GrowthScenario::Baseline, n, hash64_pair(seed, TOPO_STREAM))
        });
        out.links += graph.link_count() as u64;
        let origins = |stream: u64, count: usize| {
            let mut c_nodes = graph.nodes_of_type(NodeType::C);
            Xoshiro256StarStar::new(hash64_pair(seed, stream)).shuffle(&mut c_nodes);
            c_nodes.truncate(count);
            c_nodes
        };

        let mut sim = t.span("core.sim_new", |_| {
            Simulator::new(
                graph.clone(),
                BgpConfig::default(),
                hash64_pair(seed, SIM_STREAM),
            )
        });
        for (k, &origin) in origins(0xE1, levents).iter().enumerate() {
            t.event = Some(k as u32);
            t.span("event", |t| -> Result<(), String> {
                let prefix = Prefix(k as u32);
                t.span("core.warmup", |_| {
                    sim.originate(origin, prefix);
                    sim.run_to_quiescence().map_err(|e| e.to_string())
                })?;
                let provider = sim
                    .graph()
                    .providers(origin)
                    .next()
                    .ok_or("stub without provider")?;
                let multihomed = sim.graph().multihoming_degree(origin) > 1;
                let o = t
                    .span("core.levent", |_| {
                        run_l_event(&mut sim, origin, provider, prefix)
                    })
                    .map_err(|e| e.to_string())?;
                for v in [
                    o.fail_updates,
                    o.restore_updates,
                    o.fail_convergence.as_micros(),
                    o.restore_convergence.as_micros(),
                    o.unreachable_during_outage as u64,
                ] {
                    fp.u64(v);
                }
                if (o.unreachable_during_outage == 0) != multihomed {
                    return Err(format!("L-event {k}: healing does not match multihoming"));
                }
                if let Some(node) = unrouted(&sim, prefix) {
                    return Err(format!("L-event {k}: {node} has no route after restore"));
                }
                t.span("core.reset_routing", |_| {
                    sim.reset_routing();
                    sim.churn_mut().reset();
                });
                Ok(())
            })?;
            done += 1;
        }
        out.counts.add(&sim.cost_counts());
        t.span("core.sim_drop", |_| drop(sim));

        let bgp = BgpConfig {
            rfd: Some(RfdConfig::default()),
            ..BgpConfig::default()
        };
        t.event = None;
        let mut sim = t.span("core.sim_new", |_| {
            Simulator::new(graph.clone(), bgp, hash64_pair(seed, SIM_STREAM ^ 1))
        });
        for (k, &origin) in origins(0xE3, storms).iter().enumerate() {
            t.event = Some((levents + k) as u32);
            t.span("event", |t| -> Result<(), String> {
                let prefix = Prefix(k as u32);
                let o = t
                    .span("core.flapstorm", |_| {
                        run_flap_storm(&mut sim, origin, prefix, &FlapStormConfig::default())
                    })
                    .map_err(|e| e.to_string())?;
                for v in [
                    o.total_updates,
                    o.suppressed_nodes as u64,
                    o.unreachable_after_storm as u64,
                    o.unreachable_after_reuse as u64,
                ] {
                    fp.u64(v);
                }
                if o.unreachable_after_reuse != 0 {
                    return Err(format!("storm {k}: nodes without a route after reuse"));
                }
                if let Some(node) = unrouted(&sim, prefix) {
                    return Err(format!("storm {k}: {node} has no route after reuse"));
                }
                t.span("core.reset_routing", |_| {
                    sim.reset_routing();
                    sim.churn_mut().reset();
                });
                Ok(())
            })?;
            done += 1;
        }
        let end = sim.cost_counts();
        out.arena_peak_bytes = out.arena_peak_bytes.max(end.arena_bytes_reserved);
        out.counts.add(&end);
        t.event = None;
        t.span("core.sim_drop", |_| drop(sim));
        Ok(())
    }));
    // A simulator that blew its budget cannot be reused: the operations
    // that did not complete all count as failed.
    let left = out.ops_attempted - done;
    match run {
        Ok(Ok(())) => {}
        Ok(Err(why)) => out.fail(left, why),
        Err(p) => out.fail(left, panic_text(p)),
    }
}

/// The first node that does not route `prefix`, if any.
fn unrouted<O: SimObserver>(sim: &Simulator<O>, prefix: Prefix) -> Option<AsId> {
    sim.graph()
        .node_ids()
        .find(|&id| sim.node(id).best_route(prefix).is_none())
}

/// The workload's set-up, called directly: every topology generated and
/// every template (or simulator) built, then dropped. Returns the host
/// seconds of each part, the parts being those of [`Outcome::part_s`].
pub fn setup_once(plan: &Plan) -> Vec<f64> {
    match plan {
        Plan::Cells { cells, .. } => cells
            .iter()
            .map(|cell| {
                let part = Instant::now();
                let graph: Arc<AsGraph> = Arc::new(generate(
                    cell.scenario,
                    cell.n,
                    hash64_pair(cell.seed, TOPO_STREAM),
                ));
                black_box(SimTemplate::new(graph, cell.bgp()));
                part.elapsed().as_secs_f64()
            })
            .collect(),
        Plan::LeventRfd(p) => {
            let part = Instant::now();
            let graph = generate(
                GrowthScenario::Baseline,
                p.n,
                hash64_pair(p.seed, TOPO_STREAM),
            );
            let rfd = BgpConfig {
                rfd: Some(RfdConfig::default()),
                ..BgpConfig::default()
            };
            black_box(Simulator::new(graph.clone(), BgpConfig::default(), 1));
            black_box(Simulator::new(graph, rfd, 2));
            vec![part.elapsed().as_secs_f64()]
        }
    }
}

/// The hold model through `EventQueue::new()`, timed from outside: keep
/// `HOLD_PENDING` events pending, then pop one and schedule one `ops`
/// times. Delays are 0–100 ms; with `mrai_mix` every third one is a
/// 22.5–30 s timer, the ratio of a WRATE run (one timer armed per
/// delivery, beside its Deliver and ProcDone). Returns ns per pop+push.
pub fn hold_model_ns_per_op(ops: u64, mrai_mix: bool, seed: u64) -> f64 {
    const HOLD_PENDING: u64 = 4096;
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut delay = |i: u64| {
        if mrai_mix && i.is_multiple_of(3) {
            SimDuration::from_micros(22_500_000 + rng.next_below(7_500_000))
        } else {
            SimDuration::from_micros(1 + rng.next_below(100_000))
        }
    };
    for i in 0..HOLD_PENDING {
        queue.schedule(SimTime::ZERO + delay(i), i);
    }
    let start = Instant::now();
    let mut checksum = 0u64;
    for i in 0..ops {
        let (now, event) = queue.pop().expect("the hold model never drains");
        checksum = checksum.wrapping_add(event);
        queue.schedule(now + delay(i), i);
    }
    black_box(checksum);
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Whether this binary installed simkernel's counting allocator.
pub fn alloc_counting() -> bool {
    bgpscale_simkernel::alloc::snapshot().is_some()
}

/// Allocation calls and bytes requested so far; zeros without the
/// counting allocator.
pub fn alloc_counters() -> (u64, u64) {
    bgpscale_simkernel::alloc::snapshot().map_or((0, 0), |s| (s.allocs, s.bytes_allocated))
}

/// High-water mark of live heap bytes; 0 without the counting allocator.
pub fn alloc_peak_bytes() -> u64 {
    bgpscale_simkernel::alloc::snapshot().map_or(0, |s| s.peak_bytes)
}

/// The process's peak resident set size in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    bgpscale_simkernel::peak_rss_bytes()
}
