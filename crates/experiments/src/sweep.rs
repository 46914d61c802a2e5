//! Size sweeps with memoization.
//!
//! Most figures share experiment cells (the Baseline NO-WRATE sweep feeds
//! Figs. 4–7; Fig. 12 reuses it as a denominator), so the [`Sweeper`]
//! caches every `(scenario, n, MRAI mode)` report it computes.
//!
//! ## Parallelism and determinism
//!
//! With `jobs > 1` ([`Sweeper::set_jobs`]), a sweep has one parallel
//! axis: uncached cells are computed one after another, and each cell's
//! C-events fan out across the whole worker budget inside
//! [`bgpscale_core::run_cell`]. That does not affect results: every
//! cell's report is a pure function of `(scenario, n, mode, events,
//! seed)`, and reports are folded into the memo cache on the calling
//! thread in size order. The cache itself is only ever mutated by the
//! thread that owns the `Sweeper` (`&mut self`), which is what keeps it
//! trivially thread-safe.

use std::collections::BTreeMap;
use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, MraiMode};
use bgpscale_core::{run_cell, CellError, ChurnReport, ExperimentConfig, ObserveOptions};
use bgpscale_obs::{MetricsRegistry, TraceRecord};
use bgpscale_topology::GrowthScenario;

use crate::log;
use crate::wall::Stopwatch;

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
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CellKey {
    scenario: GrowthScenario,
    n: usize,
    mode: MraiMode,
}

/// Wall-side progress of one [`Sweeper::sweep_mode`] or
/// [`Sweeper::report`] call, on the owning thread: a [`crate::log!`]
/// line as each uncached cell starts, and one as it completes — cells
/// done/total within the call, the cell's simulator event count and the
/// call's running events/sec, elapsed wall time, and a simple ETA
/// (`elapsed / done · remaining`). Pure stderr chatter, silenced with
/// `BGPSCALE_LOG=quiet`: the lines never enter any deterministic
/// artifact.
struct Heartbeat {
    watch: Stopwatch,
    total: usize,
    done: usize,
    events: u64,
}

impl Heartbeat {
    fn new(total: usize) -> Heartbeat {
        Heartbeat {
            watch: Stopwatch::start(),
            total,
            done: 0,
            events: 0,
        }
    }

    fn tick(&mut self, cfg: &ExperimentConfig, cell_events: u64) {
        self.done += 1;
        self.events += cell_events;
        let (done, total) = (self.done, self.total);
        let elapsed = self.watch.elapsed_secs_f64();
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
            "sweep: {done}/{total} cells done ({} n={} {}) {cell_events} events {rate:.0} ev/s elapsed {elapsed:.1}s eta {eta:.1}s",
            cfg.scenario,
            cfg.n,
            cfg.bgp.mrai_mode.label()
        );
    }
}

/// Memoizing experiment runner shared by all figure drivers.
pub struct Sweeper {
    cfg: RunConfig,
    cache: BTreeMap<CellKey, Arc<ChurnReport>>,
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
}

impl Sweeper {
    /// Creates a sweeper over `cfg`, sequential by default
    /// (`jobs = 1`; see [`Sweeper::set_jobs`]).
    pub fn new(cfg: RunConfig) -> Sweeper {
        Sweeper {
            cfg,
            cache: BTreeMap::new(),
            jobs: 1,
            telemetry: None,
            metrics: MetricsRegistry::new(),
            trace: Vec::new(),
        }
    }

    /// Turns on telemetry collection: every *uncached* cell computed from
    /// now on runs with a metrics recorder attached (and, when
    /// `trace_sample` is `Some(n)`, keeps 1-in-`n` trace records). The
    /// cell reports themselves are bit-identical either way; read the
    /// accumulated telemetry with [`Sweeper::metrics`] /
    /// [`Sweeper::take_trace`].
    pub fn enable_telemetry(&mut self, trace_sample: Option<u64>) {
        self.telemetry = Some(ObserveOptions {
            trace_sample,
            timeseries_bin_us: None,
        });
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

    /// Sets the worker budget: how many C-events of a cell may be computed
    /// concurrently. `0` means "use every hardware thread". Results are
    /// bit-for-bit independent of this setting.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = bgpscale_simkernel::pool::effective_jobs(jobs).max(1);
    }

    /// The current worker budget.
    pub fn jobs(&self) -> usize {
        self.jobs
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
        let bgp = BgpConfig {
            mrai_mode: mode,
            ..BgpConfig::default()
        };
        ExperimentConfig::new(scenario, n, self.cfg.events, self.cfg.seed, bgp)
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
        self.cell(scenario, n, mode, &mut Heartbeat::new(1))
    }

    /// [`Sweeper::report`], through `hb`. An uncached cell is computed
    /// and folded into the cache and the accumulated telemetry (empty for
    /// an unobserved cell) on the owning thread, in call order. Panics
    /// with the [`CellError`]'s text if the cell failed: no sweep sets an
    /// event budget, so that is a model bug, and a figure needs all its
    /// cells.
    fn cell(
        &mut self,
        scenario: GrowthScenario,
        n: usize,
        mode: MraiMode,
        hb: &mut Heartbeat,
    ) -> Arc<ChurnReport> {
        let key = CellKey { scenario, n, mode };
        if let Some(hit) = self.cache.get(&key) {
            return Arc::clone(hit);
        }
        let cfg = self.cell_config(scenario, n, mode);
        log!("sweep: running {scenario} n={n} {} …", mode.label());
        let observed = run_cell(&cfg, self.jobs, self.telemetry.as_ref(), |_| {});
        let observed = observed.unwrap_or_else(|e: CellError| panic!("{e}"));
        self.metrics.merge(&observed.metrics);
        self.trace.extend(observed.trace);
        // Simulator events the cell processed: one queue pop each.
        hb.tick(&cfg, observed.cost.total().queue_pops);
        let report = Arc::new(observed.report);
        self.cache.insert(key, Arc::clone(&report));
        report
    }

    /// Runs the whole size sweep for one scenario (NO-WRATE).
    pub fn sweep(&mut self, scenario: GrowthScenario) -> Vec<Arc<ChurnReport>> {
        self.sweep_mode(scenario, MraiMode::NoWrate)
    }

    /// Runs the whole size sweep for one scenario and MRAI mode: the
    /// uncached cells one after another, in ascending-size order, each
    /// fanning its C-events out across the whole worker budget. Results
    /// are identical for any `jobs`.
    pub fn sweep_mode(
        &mut self,
        scenario: GrowthScenario,
        mode: MraiMode,
    ) -> Vec<Arc<ChurnReport>> {
        let uncached = self.cfg.sizes.iter().filter(|&&n| !self.cache.contains_key(&CellKey { scenario, n, mode }));
        let mut hb = Heartbeat::new(uncached.count());
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
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let cfg = RunConfig {
            sizes: vec![150, 200, 250],
            events: 2,
            seed: 4,
        };
        let mut seq = Sweeper::new(cfg.clone());
        let mut par = Sweeper::new(cfg);
        par.set_jobs(8);
        let a = seq.sweep(GrowthScenario::Baseline);
        let b = par.sweep(GrowthScenario::Baseline);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(**x, **y, "jobs=8 sweep diverged at n={}", x.n);
        }
        assert_eq!(seq.cached_cells(), par.cached_cells());
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
    fn run_configs_are_sane() {
        let full = RunConfig::full();
        assert_eq!(full.sizes.len(), 10);
        assert_eq!(*full.sizes.last().unwrap(), 10_000);
        assert_eq!(full.events, 100);
        let quick = RunConfig::quick();
        assert!(quick.sizes.len() >= 3, "quick needs enough points for trends");
        let tiny = RunConfig::tiny();
        assert!(tiny.sizes.iter().all(|&n| n < 1_000), "tiny stays seconds-scale");
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
