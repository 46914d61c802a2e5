//! Size sweeps with memoization.
//!
//! Most figures share experiment cells (the Baseline NO-WRATE sweep feeds
//! Figs. 4–7; Fig. 12 reuses it as a denominator), so the [`Sweeper`]
//! caches every `(scenario, n, MRAI mode)` report it computes.
//!
//! ## Parallelism and determinism
//!
//! With `jobs > 1` ([`Sweeper::set_jobs`]), a sweep splits its worker
//! budget two ways: each cell's C-events fan out inside
//! [`bgpscale_core::run_cell`], and when that leaves workers
//! idle (more jobs than events per cell), multiple *uncached* cells run
//! concurrently. Neither axis affects results: every cell's report is a
//! pure function of `(scenario, n, mode, events, seed)`, and completed
//! reports are folded into the memo cache on the calling thread in size
//! order. The cache itself is only ever mutated by the thread that owns
//! the `Sweeper` (`&mut self`), which is what keeps it trivially
//! thread-safe; workers communicate results only through the ordered
//! return of the pool.

use std::collections::BTreeMap;
use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, MraiMode};
use bgpscale_core::{
    run_cell, CellError, ChurnReport, ExperimentConfig, ObserveOptions, ObservedReport,
};
use bgpscale_obs::{log, CostModel, MetricsRegistry, TimeSeries, TraceRecord};
use bgpscale_simkernel::pool::run_indexed;
use bgpscale_simkernel::Stopwatch;
use bgpscale_topology::GrowthScenario;

/// Sweep-wide settings: the sizes to visit and the per-cell event count.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Network sizes (the paper uses 1000..10000).
    pub sizes: Vec<usize>,
    /// C-event originators per cell (the paper uses 100).
    pub events: usize,
    /// Master seed.
    pub seed: u64,
}

impl RunConfig {
    /// The paper-scale configuration: n ∈ {1000, …, 10000}, 100 events.
    /// Hours of CPU; use [`RunConfig::quick`] for day-to-day runs.
    pub fn full() -> RunConfig {
        RunConfig {
            sizes: (1..=10).map(|k| k * 1_000).collect(),
            events: 100,
            seed: 0x2008_0612,
        }
    }

    /// A time-boxed configuration preserving every qualitative shape:
    /// five sizes up to 5000, 25 events per cell.
    pub fn quick() -> RunConfig {
        RunConfig {
            sizes: vec![1_000, 2_000, 3_000, 4_000, 5_000],
            events: 25,
            seed: 0x2008_0612,
        }
    }

    /// A seconds-scale configuration for tests and smoke runs.
    pub fn tiny() -> RunConfig {
        RunConfig {
            sizes: vec![300, 600, 900],
            events: 5,
            seed: 0x2008_0612,
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> RunConfig {
        self.seed = seed;
        self
    }
}

/// Progress-observer callback type (invoked per uncached experiment cell).
///
/// `Sync` is required because parallel sweeps fire the callback from
/// worker threads; `Arc` because several workers may hold it at once.
type ProgressFn = Arc<dyn Fn(GrowthScenario, usize, MraiMode) + Send + Sync>;

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CellKey {
    scenario: GrowthScenario,
    n: usize,
    mode: MraiMode,
}

/// Wall-side progress of one [`Sweeper::sweep_mode`] call, ticked at fold
/// time on the owning thread (see [`Sweeper::enable_heartbeat`]).
struct Heartbeat {
    /// `None` when the heartbeat is off: every tick is then a no-op.
    watch: Option<Stopwatch>,
    total: usize,
    done: usize,
    events: u64,
}

impl Heartbeat {
    fn new(on: bool, total: usize) -> Heartbeat {
        Heartbeat {
            watch: on.then(Stopwatch::start),
            total,
            done: 0,
            events: 0,
        }
    }

    fn tick(&mut self, cfg: &ExperimentConfig, cell_events: u64) {
        let Some(watch) = &self.watch else { return };
        self.done += 1;
        self.events += cell_events;
        let (done, total) = (self.done, self.total);
        let elapsed = watch.elapsed_secs_f64();
        let eta = if done < total {
            elapsed / done as f64 * (total - done) as f64
        } else {
            0.0
        };
        let rate = if elapsed > 0.0 {
            self.events as f64 / elapsed
        } else {
            0.0
        };
        log!(
            Info,
            "sweep: {done}/{total} cells done ({} n={} {}) {cell_events} events {rate:.0} ev/s elapsed {elapsed:.1}s eta {eta:.1}s",
            cfg.scenario,
            cfg.n,
            cfg.bgp.mrai_mode.label()
        );
    }
}

/// The simulated-time series of one experiment cell, labeled with the cell
/// coordinates so WRATE and NO-WRATE runs stay comparable side by side.
#[derive(Clone, Debug)]
pub struct CellSeries {
    /// The cell's growth scenario.
    pub scenario: GrowthScenario,
    /// The cell's network size.
    pub n: usize,
    /// The cell's MRAI mode.
    pub mode: MraiMode,
    /// The per-event time series merged in event-index order.
    pub series: TimeSeries,
}

/// Memoizing experiment runner shared by all figure drivers.
pub struct Sweeper {
    cfg: RunConfig,
    cache: BTreeMap<CellKey, Arc<ChurnReport>>,
    /// Per-cell exact op-count models, cached alongside the reports
    /// (always collected — the counters are free-running integers).
    costs: BTreeMap<CellKey, Arc<CostModel>>,
    /// Observer called before each uncached cell runs (progress logging).
    progress: Option<ProgressFn>,
    /// Worker budget per sweep call; 1 = fully sequential.
    jobs: usize,
    /// What every uncached cell records; `None` = unobserved.
    telemetry: Option<ObserveOptions>,
    /// Merged metrics of every uncached cell computed so far, folded on
    /// the owning thread in cell-completion order (deterministic for a
    /// fixed call sequence, independent of `jobs`).
    metrics: MetricsRegistry,
    /// Concatenated trace records of every uncached cell, same ordering
    /// discipline as `metrics`.
    trace: Vec<TraceRecord>,
    /// Per-cell time series (when [`Sweeper::enable_timeseries`] is on),
    /// same ordering discipline as `metrics`.
    series: Vec<CellSeries>,
    /// Emit a wall-side heartbeat line per completed sweep cell (see
    /// [`Sweeper::enable_heartbeat`]).
    heartbeat: bool,
}

impl Sweeper {
    /// Creates a sweeper over `cfg`, sequential by default
    /// (`jobs = 1`; see [`Sweeper::set_jobs`]).
    pub fn new(cfg: RunConfig) -> Sweeper {
        Sweeper {
            cfg,
            cache: BTreeMap::new(),
            costs: BTreeMap::new(),
            progress: None,
            jobs: 1,
            telemetry: None,
            metrics: MetricsRegistry::new(),
            trace: Vec::new(),
            series: Vec::new(),
            heartbeat: false,
        }
    }

    /// Turns on the wall-side sweep heartbeat: every [`Sweeper::sweep_mode`]
    /// call logs one `obs::log!` info line per completed uncached cell —
    /// cells-done/total within the call, the cell's simulator event count
    /// and the call's running events/sec throughput, elapsed wall time,
    /// and a simple ETA (`elapsed / done · remaining`). Pure stderr
    /// chatter for long runs: the lines are emitted on the owning thread
    /// at fold time and never enter any deterministic artifact.
    pub fn enable_heartbeat(&mut self) {
        self.heartbeat = true;
    }

    /// Turns on telemetry collection: every *uncached* cell computed from
    /// now on runs with a metrics recorder attached (and, when
    /// `trace_sample` is `Some(n)`, keeps 1-in-`n` trace records). The
    /// cell reports themselves are bit-identical either way; read the
    /// accumulated telemetry with [`Sweeper::metrics`] /
    /// [`Sweeper::take_trace`].
    pub fn enable_telemetry(&mut self, trace_sample: Option<u64>) {
        self.telemetry.get_or_insert_with(ObserveOptions::default).trace_sample = trace_sample;
    }

    /// Additionally records a simulated-time series (bin width `bin_us`
    /// microseconds of simulated time) for every uncached cell computed
    /// from now on. Implies telemetry. Collected series are labeled with
    /// their cell coordinates; drain them with [`Sweeper::take_series`].
    pub fn enable_timeseries(&mut self, bin_us: u64) {
        self.telemetry.get_or_insert_with(ObserveOptions::default).timeseries_bin_us = Some(bin_us);
    }

    /// The metrics merged across all telemetry-enabled cells so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Drains the trace records accumulated so far (cell completion
    /// order; within a cell, event-index order).
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.trace)
    }

    /// Drains the per-cell time series accumulated so far (cell
    /// completion order).
    pub fn take_series(&mut self) -> Vec<CellSeries> {
        std::mem::take(&mut self.series)
    }

    /// Folds one computed cell into the caches and the accumulated
    /// telemetry (empty for an unobserved cell), then ticks `hb`. Always on
    /// the owning thread, in the order cells are handed in. Panics with
    /// the [`CellError`]'s text if the cell failed: no sweep sets an event
    /// budget, so that is a model bug, and a figure needs all its cells.
    fn fold_cell(
        &mut self,
        cfg: &ExperimentConfig,
        computed: Result<ObservedReport, CellError>,
        hb: &mut Heartbeat,
    ) -> Arc<ChurnReport> {
        let observed = computed.unwrap_or_else(|e| panic!("{e}"));
        let key = CellKey {
            scenario: cfg.scenario,
            n: cfg.n,
            mode: cfg.bgp.mrai_mode,
        };
        self.metrics.merge(&observed.metrics);
        self.trace.extend(observed.trace);
        if let Some(series) = observed.timeseries {
            self.series.push(CellSeries {
                scenario: cfg.scenario,
                n: cfg.n,
                mode: cfg.bgp.mrai_mode,
                series,
            });
        }
        // Simulator events the cell processed: one queue pop each.
        hb.tick(cfg, observed.cost.total().queue_pops);
        self.costs.insert(key.clone(), Arc::new(observed.cost));
        let report = Arc::new(observed.report);
        self.cache.insert(key, Arc::clone(&report));
        report
    }

    /// The exact op-count model of a cell, if that cell has been computed
    /// by this sweeper (cells served purely from the report cache of a
    /// prior call still have one — costs are cached on first compute and
    /// never evicted).
    pub fn cost_model(
        &self,
        scenario: GrowthScenario,
        n: usize,
        mode: MraiMode,
    ) -> Option<Arc<CostModel>> {
        self.costs.get(&CellKey { scenario, n, mode }).map(Arc::clone)
    }

    /// Sets the worker budget: how many C-events / cells may be computed
    /// concurrently. `0` means "use every hardware thread". Results are
    /// bit-for-bit independent of this setting.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = bgpscale_simkernel::pool::effective_jobs(jobs).max(1);
    }

    /// Builder-style [`Sweeper::set_jobs`].
    pub fn with_jobs(mut self, jobs: usize) -> Sweeper {
        self.set_jobs(jobs);
        self
    }

    /// The current worker budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Installs a progress callback, invoked once per uncached cell just
    /// before that cell starts computing.
    ///
    /// Ordering guarantee: with `jobs = 1` callbacks fire strictly in
    /// computation order (ascending size within a sweep). With `jobs > 1`
    /// they may fire from worker threads in any order and concurrently —
    /// the callback must therefore be `Sync`. A cell served from the
    /// cache never fires a callback.
    pub fn on_progress(
        &mut self,
        f: impl Fn(GrowthScenario, usize, MraiMode) + Send + Sync + 'static,
    ) {
        self.progress = Some(Arc::new(f));
    }

    /// The sweep configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The sizes of this sweep.
    pub fn sizes(&self) -> &[usize] {
        &self.cfg.sizes
    }

    /// The experiment configuration for one cell.
    fn cell_config(&self, scenario: GrowthScenario, n: usize, mode: MraiMode) -> ExperimentConfig {
        let bgp = match mode {
            MraiMode::NoWrate => BgpConfig::no_wrate(),
            MraiMode::Wrate => BgpConfig::wrate(),
        };
        ExperimentConfig {
            scenario,
            n,
            events: self.cfg.events,
            seed: self.cfg.seed,
            bgp,
            event_limit: None,
            wheel_slot_bits: None,
        }
    }

    /// Returns (computing and caching on first use) the churn report for
    /// one cell. An uncached cell fans its C-events out across the full
    /// worker budget.
    pub fn report(
        &mut self,
        scenario: GrowthScenario,
        n: usize,
        mode: MraiMode,
    ) -> Arc<ChurnReport> {
        self.cell(scenario, n, mode, &mut Heartbeat::new(false, 0))
    }

    /// [`Sweeper::report`], ticking `hb` when the cell had to be computed.
    fn cell(
        &mut self,
        scenario: GrowthScenario,
        n: usize,
        mode: MraiMode,
        hb: &mut Heartbeat,
    ) -> Arc<ChurnReport> {
        if let Some(hit) = self.cache.get(&CellKey { scenario, n, mode }) {
            return Arc::clone(hit);
        }
        if let Some(cb) = &self.progress {
            cb(scenario, n, mode);
        }
        let cell_cfg = self.cell_config(scenario, n, mode);
        let observed = run_cell(&cell_cfg, self.jobs, self.telemetry.as_ref());
        self.fold_cell(&cell_cfg, observed, hb)
    }

    /// Runs the whole size sweep for one scenario (NO-WRATE).
    pub fn sweep(&mut self, scenario: GrowthScenario) -> Vec<Arc<ChurnReport>> {
        self.sweep_mode(scenario, MraiMode::NoWrate)
    }

    /// Runs the whole size sweep for one scenario and MRAI mode.
    ///
    /// Uncached cells may compute concurrently when the worker budget
    /// exceeds the per-cell event count (event-level parallelism is
    /// preferred because events outnumber cells in every paper
    /// configuration). Reports are folded into the cache on this thread
    /// in ascending-size order; results are identical for any `jobs`.
    pub fn sweep_mode(
        &mut self,
        scenario: GrowthScenario,
        mode: MraiMode,
    ) -> Vec<Arc<ChurnReport>> {
        let uncached: Vec<ExperimentConfig> = self
            .cfg
            .sizes
            .iter()
            .filter(|&&n| !self.cache.contains_key(&CellKey { scenario, n, mode }))
            .map(|&n| self.cell_config(scenario, n, mode))
            .collect();
        let mut hb = Heartbeat::new(self.heartbeat, uncached.len());

        // Split the budget: `inner` workers per cell (C-event fan-out),
        // and any leftover across cells.
        let inner = self.jobs.min(self.cfg.events.max(1));
        let outer = uncached.len().min((self.jobs / inner.max(1)).max(1));
        if outer > 1 {
            // Workers hand their cells back to this thread, which folds
            // them in ascending-size (index) order.
            let computed = run_indexed(outer, uncached.len(), |i| {
                if let Some(cb) = &self.progress {
                    cb(scenario, uncached[i].n, mode);
                }
                run_cell(&uncached[i], inner, self.telemetry.as_ref())
            });
            for (cell_cfg, observed) in uncached.iter().zip(computed) {
                self.fold_cell(cell_cfg, observed, &mut hb);
            }
        }

        let sizes = self.cfg.sizes.clone();
        sizes.into_iter().map(|n| self.cell(scenario, n, mode, &mut hb)).collect()
    }

    /// Number of cached cells (for tests).
    pub fn cached_cells(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::NodeType;

    #[test]
    fn sweep_returns_one_report_per_size() {
        let mut s = Sweeper::new(RunConfig {
            sizes: vec![200, 300],
            events: 2,
            seed: 1,
        });
        let reports = s.sweep(GrowthScenario::Baseline);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].n, 200);
        assert_eq!(reports[1].n, 300);
    }

    #[test]
    fn cache_prevents_recomputation() {
        let mut s = Sweeper::new(RunConfig {
            sizes: vec![200],
            events: 2,
            seed: 1,
        });
        let a = s.report(GrowthScenario::Baseline, 200, MraiMode::NoWrate);
        assert_eq!(s.cached_cells(), 1);
        let b = s.report(GrowthScenario::Baseline, 200, MraiMode::NoWrate);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(s.cached_cells(), 1);
        // A different mode is a different cell.
        let _c = s.report(GrowthScenario::Baseline, 200, MraiMode::Wrate);
        assert_eq!(s.cached_cells(), 2);
    }

    #[test]
    fn progress_callback_fires_per_uncached_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;
        let count = StdArc::new(AtomicUsize::new(0));
        let c2 = StdArc::clone(&count);
        let mut s = Sweeper::new(RunConfig {
            sizes: vec![200],
            events: 1,
            seed: 2,
        });
        s.on_progress(move |_, _, _| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        s.report(GrowthScenario::Baseline, 200, MraiMode::NoWrate);
        s.report(GrowthScenario::Baseline, 200, MraiMode::NoWrate);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let cfg = RunConfig {
            sizes: vec![150, 200, 250],
            events: 2,
            seed: 4,
        };
        let mut seq = Sweeper::new(cfg.clone());
        let mut par = Sweeper::new(cfg).with_jobs(8);
        let a = seq.sweep(GrowthScenario::Baseline);
        let b = par.sweep(GrowthScenario::Baseline);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(**x, **y, "jobs=8 sweep diverged at n={}", x.n);
        }
        assert_eq!(seq.cached_cells(), par.cached_cells());
    }

    #[test]
    fn progress_fires_once_per_cell_in_parallel_sweeps() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;
        let count = StdArc::new(AtomicUsize::new(0));
        let c2 = StdArc::clone(&count);
        let mut s = Sweeper::new(RunConfig {
            sizes: vec![150, 200, 250],
            events: 1,
            seed: 5,
        })
        .with_jobs(4);
        s.on_progress(move |_, _, _| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        s.sweep(GrowthScenario::Baseline);
        s.sweep(GrowthScenario::Baseline); // fully cached: no callbacks
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn telemetry_does_not_change_reports() {
        let cfg = RunConfig {
            sizes: vec![150, 200],
            events: 2,
            seed: 6,
        };
        let mut plain = Sweeper::new(cfg.clone());
        let mut observed = Sweeper::new(cfg);
        observed.enable_telemetry(Some(4));
        let a = plain.sweep(GrowthScenario::Baseline);
        let b = observed.sweep(GrowthScenario::Baseline);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(**x, **y, "telemetry perturbed the report at n={}", x.n);
        }
        assert!(observed.metrics().counter("events.total") > 0);
        assert_eq!(observed.metrics().counter("experiment.events"), 4);
        assert!(!observed.take_trace().is_empty());
        assert!(plain.metrics().is_empty(), "telemetry off collects nothing");
    }

    #[test]
    fn timeseries_collection_labels_cells() {
        let mut s = Sweeper::new(RunConfig {
            sizes: vec![150],
            events: 2,
            seed: 6,
        });
        s.enable_timeseries(100_000);
        s.report(GrowthScenario::Baseline, 150, MraiMode::NoWrate);
        s.report(GrowthScenario::Baseline, 150, MraiMode::Wrate);
        let series = s.take_series();
        assert_eq!(series.len(), 2, "one labeled series per uncached cell");
        assert!(matches!(series[0].mode, MraiMode::NoWrate));
        assert!(matches!(series[1].mode, MraiMode::Wrate));
        for cell in &series {
            assert_eq!(cell.n, 150);
            assert!(cell.series.total_updates() > 0, "cells must bin updates");
            assert_eq!(cell.series.events, 2);
        }
        assert!(s.take_series().is_empty(), "take_series drains");
    }

    #[test]
    fn cost_models_are_cached_and_jobs_independent() {
        let cfg = RunConfig {
            sizes: vec![150, 200],
            events: 2,
            seed: 7,
        };
        let mut seq = Sweeper::new(cfg.clone());
        let mut par = Sweeper::new(cfg.clone()).with_jobs(8);
        let mut obs = Sweeper::new(cfg);
        obs.enable_telemetry(None);
        seq.sweep(GrowthScenario::Baseline);
        par.sweep(GrowthScenario::Baseline);
        obs.sweep(GrowthScenario::Baseline);
        for n in [150usize, 200] {
            let a = seq
                .cost_model(GrowthScenario::Baseline, n, MraiMode::NoWrate)
                .expect("plain sweep collects costs");
            let b = par
                .cost_model(GrowthScenario::Baseline, n, MraiMode::NoWrate)
                .expect("parallel sweep collects costs");
            let c = obs
                .cost_model(GrowthScenario::Baseline, n, MraiMode::NoWrate)
                .expect("observed sweep collects costs");
            assert_eq!(a.to_json(), b.to_json(), "cost diverged at n={n} under jobs=8");
            assert_eq!(a.to_json(), c.to_json(), "cost diverged at n={n} under telemetry");
            assert!(a.total().grand_total() > 0);
        }
        assert!(seq
            .cost_model(GrowthScenario::Baseline, 999, MraiMode::NoWrate)
            .is_none());
    }

    #[test]
    fn run_configs_are_sane() {
        let full = RunConfig::full();
        assert_eq!(full.sizes.len(), 10);
        assert_eq!(*full.sizes.last().unwrap(), 10_000);
        assert_eq!(full.events, 100);
        let quick = RunConfig::quick();
        assert!(quick.sizes.len() >= 3, "quick needs enough points for trends");
        let tiny = RunConfig::tiny().with_seed(9);
        assert_eq!(tiny.seed, 9);
    }

    #[test]
    fn reports_expose_paper_quantities() {
        let mut s = Sweeper::new(RunConfig {
            sizes: vec![250],
            events: 3,
            seed: 3,
        });
        let r = s.report(GrowthScenario::Baseline, 250, MraiMode::NoWrate);
        assert!(r.by_type(NodeType::T).u_total > 0.0);
    }
}
