//! One run: one workload, one seed, one process.
//!
//! With tracing off the run repeats the workload through its public entry
//! point for the asked number of seconds, times each of its parts on its
//! own and reports the sum of the parts' best times: the host is shared,
//! and a neighbour only ever adds time. With tracing on it alternates the
//! entry point with the composed, span-recording form of the same workload
//! and reports the per-layer numbers as medians over the repetitions.
//! Everything but the last line of standard output is for people.

use std::path::PathBuf;
use std::time::Instant;

use crate::env::Env;
use crate::json::Value;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio, sort, sum};
use crate::sut::{self, Outcome, Plan};
use crate::trace::{self, Span, Tracer};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

/// What a run found.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's mode, in table order.
    pub metrics: Vec<(Metric, f64)>,
}

impl RunResult {
    /// The line the driver reads.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Operations attempted and failed over all repetitions, and the one
/// fingerprint all of them must share.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    fingerprint: Option<u64>,
}

impl Tally {
    /// Records a failure; repetitions fail alike, so each distinct line
    /// is kept once.
    fn note(&mut self, line: String) {
        if !self.failures.contains(&line) {
            self.failures.push(line);
        }
    }

    fn absorb(&mut self, what: &str, out: &Outcome) {
        self.attempted += out.ops_attempted;
        self.failed += out.ops_failed;
        for failure in &out.failures {
            self.note(format!("{what}: {failure}"));
        }
        let expected = *self.fingerprint.get_or_insert(out.fingerprint);
        if out.fingerprint != expected && out.ops_failed == 0 {
            // Same seed, different simulated statistics: nothing this
            // repetition produced can be trusted.
            self.failed += out.ops_attempted;
            self.note(format!(
                "{what}: fingerprint {:016x} differs from {expected:016x}",
                out.fingerprint
            ));
        }
    }
}

/// Values of one metric over the repetitions of a run.
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    /// The median per metric of `table`, printed with its spread; a
    /// metric of the table without a sample is a bug in the runner.
    fn report(&self, table: &[Metric]) -> Result<Vec<(Metric, f64)>, String> {
        table
            .iter()
            .map(|m| {
                let (_, values) = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                let mut sorted = values.clone();
                sort(&mut sorted);
                let mid = median(&sorted);
                println!(
                    "metric {} {} {} [{}] median of {}, min {}, max {}",
                    m.name,
                    mid,
                    m.unit,
                    m.kind.label(),
                    sorted.len(),
                    sorted[0],
                    sorted[sorted.len() - 1],
                );
                Ok((*m, mid))
            })
            .collect()
    }
}

/// Runs one workload and prints its metrics; the caller prints the
/// result line.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    if opts.trace && !sut::alloc_counting() {
        // Every `alloc.*` metric would read 0.
        return Err(
            "--trace 1 needs the counting allocator: run bgpbench-traced, as benchmark/run.sh does"
                .into(),
        );
    }
    let plan = sut::plan(&opts.workload, opts.seed, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            opts.workload,
            sut::WORKLOADS
        )
    })?;
    let env = Env::capture(opts.seed);
    println!(
        "env {} workload={} trace={} seconds={} smoke={}",
        env.to_json().to_json(),
        opts.workload,
        u8::from(opts.trace),
        opts.seconds,
        opts.smoke
    );
    let mut tally = Tally::default();
    let metrics = if opts.trace {
        traced(&plan, opts, &env, &mut tally)?
    } else {
        untraced(&plan, opts, &mut tally)?
    };
    for failure in &tally.failures {
        println!("failure {failure}");
    }
    println!(
        "fingerprint {} {:016x}",
        opts.workload,
        tally.fingerprint.unwrap_or(0)
    );
    Ok(RunResult {
        correct: tally.failed == 0 && tally.failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Whether a loop whose last turn took `turn` seconds has time for another
/// one before `seconds` are over: a run ends on time, whatever the size of
/// its workload.
fn time_for_another(started: Instant, turn: Instant, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + turn.elapsed().as_secs_f64() <= seconds
}

/// Keeps in `best` the least time seen of each part.
fn keep_least(best: &mut Vec<f64>, now: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(now);
    }
    for (b, &n) in best.iter_mut().zip(now) {
        *b = b.min(n);
    }
}

/// Repeats the workload and its set-up in turn until the time is up.
///
/// This host's speed moves by a third and more as its neighbours come and
/// go, in bursts from under a second to half a minute; between them a part
/// repeats to 1 %. A median over the run follows the neighbours. So each
/// part (a cell) is timed on its own in every repetition, a part's time is
/// its least over the run, and `wall_s` is the sum over the parts: a part
/// is short enough to fall between two bursts in some repetition, a whole
/// repetition is not. A slow phase of the host that outlasts the run stays
/// in the number. `setup_s` is made the same way. Set-up runs between the
/// repetitions, after each timed region, so that work a change moves out
/// of the timed region shows there.
fn untraced(plan: &Plan, opts: &RunOpts, tally: &mut Tally) -> Result<Vec<(Metric, f64)>, String> {
    let (mut wall_parts, mut setup_parts) = (Vec::new(), Vec::new());
    let (mut deliveries, mut rss_mb) = (0.0, 0.0);
    let mut reps = 0;
    let started = Instant::now();
    loop {
        let turn = Instant::now();
        let out = sut::run_entry(plan);
        if reps == 0 {
            // Peak RSS of the first repetition: what the workload costs a
            // fresh process, whatever the number of repetitions that fit.
            rss_mb = sut::peak_rss_bytes().ok_or("peak RSS is not readable")? as f64 / 1e6;
            deliveries = out.counts.deliveries as f64;
        }
        tally.absorb("entry", &out);
        keep_least(&mut wall_parts, &out.part_s);
        let setup = sut::setup_once(plan);
        keep_least(&mut setup_parts, &setup);
        reps += 1;
        println!(
            "rep {reps} at {:.3} s: wall_s {} setup_s {}",
            started.elapsed().as_secs_f64(),
            sum(out.part_s.iter().copied()),
            sum(setup.iter().copied()),
        );
        if !time_for_another(started, turn, opts.seconds) {
            break;
        }
    }
    let wall = sum(wall_parts.iter().copied());
    let how = format!(
        "sum over {} parts of the least of {reps} repetitions",
        wall_parts.len()
    );
    let values = [
        ("wall_s", wall, how.as_str()),
        (
            "updates_per_s",
            ratio(deliveries, wall),
            "deliveries of a repetition over wall_s",
        ),
        ("setup_s", sum(setup_parts.iter().copied()), how.as_str()),
        ("peak_rss_mb", rss_mb, "after the first repetition"),
    ];
    END_TO_END
        .iter()
        .map(|m| {
            let (_, value, how) = values
                .iter()
                .find(|(name, ..)| *name == m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            println!(
                "metric {} {value} {} [{}] {how}",
                m.name,
                m.unit,
                m.kind.label()
            );
            Ok((*m, *value))
        })
        .collect()
}

/// The spans called `name`.
fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.name == name)
}

fn total_ns(spans: &[Span], name: &str) -> f64 {
    sum(named(spans, name).map(|s| s.duration_ns() as f64))
}

fn calls(spans: &[Span], name: &str) -> f64 {
    named(spans, name).count() as f64
}

fn allocs(spans: &[Span], name: &str) -> f64 {
    sum(named(spans, name).map(|s| s.allocs as f64))
}

/// Host time inside the event loop: every span that is a run of
/// `core::sim`'s loop and nothing else.
fn loop_ns(spans: &[Span]) -> f64 {
    let loops = [
        "core.warmup",
        "core.down",
        "core.up",
        "core.levent",
        "core.flapstorm",
    ];
    sum(loops.iter().map(|name| total_ns(spans, name)))
}

/// The per-layer numbers of one traced repetition: span times by name
/// and the op counts read at the same boundaries.
fn layer_sample(samples: &mut Samples, spans: &[Span], out: &Outcome) {
    let secs = |name| total_ns(spans, name) / 1e9;
    let c = &out.counts;
    let deliveries = c.deliveries as f64;
    let rep = &spans[0];

    samples.push("topology.generate_s", secs("topology.generate"));
    samples.push("topology.links", out.links as f64);
    samples.push(
        "topology.generate_us_per_link",
        ratio(total_ns(spans, "topology.generate") / 1e3, out.links as f64),
    );
    samples.push("alloc.topology_allocs", allocs(spans, "topology.generate"));
    samples.push("core.template_build_s", secs("core.template_build"));
    samples.push("core.instantiate_s", secs("core.instantiate"));
    samples.push(
        "core.instantiate_us_per_event",
        ratio(
            total_ns(spans, "core.instantiate") / 1e3,
            calls(spans, "core.instantiate"),
        ),
    );
    samples.push(
        "alloc.instantiate_allocs_per_event",
        ratio(
            allocs(spans, "core.instantiate"),
            calls(spans, "core.instantiate"),
        ),
    );
    for (metric, span) in [
        ("core.sim_drop_s", "core.sim_drop"),
        ("core.fold_s", "core.fold"),
        ("core.sim_new_s", "core.sim_new"),
        ("core.reset_routing_s", "core.reset_routing"),
        ("core.levent_s", "core.levent"),
        ("core.flapstorm_s", "core.flapstorm"),
        ("core.warmup_s", "core.warmup"),
        ("core.down_s", "core.down"),
        ("core.up_s", "core.up"),
        ("bench.checks_s", "bench.checks"),
    ] {
        samples.push(metric, secs(span));
    }
    samples.push("core.deliveries", deliveries);
    samples.push("core.ns_per_delivery", ratio(loop_ns(spans), deliveries));

    samples.push("simkernel.queue_pushes", c.queue_pushes as f64);
    samples.push("simkernel.queue_pops", c.queue_pops as f64);
    samples.push("simkernel.queue_comparisons", c.queue_comparisons as f64);
    samples.push("simkernel.queue_cascades", c.queue_cascades as f64);
    samples.push(
        "simkernel.cascades_per_push",
        ratio(c.queue_cascades as f64, c.queue_pushes as f64),
    );
    samples.push(
        "simkernel.ns_per_pop",
        ratio(loop_ns(spans), c.queue_pops as f64),
    );

    samples.push("bgp.decision_runs", c.decision_runs as f64);
    samples.push("bgp.route_comparisons", c.route_comparisons as f64);
    samples.push(
        "bgp.comparisons_per_decision",
        ratio(c.route_comparisons as f64, c.decision_runs as f64),
    );
    samples.push("bgp.rib_out_writes", c.rib_out_writes as f64);
    samples.push("bgp.path_intern_hits", c.path_intern_hits as f64);
    samples.push("bgp.path_intern_misses", c.path_intern_misses as f64);
    samples.push(
        "bgp.path_intern_hit_ratio",
        ratio(
            c.path_intern_hits as f64,
            (c.path_intern_hits + c.path_intern_misses) as f64,
        ),
    );
    samples.push("bgp.mrai_armed", c.mrai_armed as f64);
    samples.push("bgp.mrai_fired", c.mrai_fired as f64);
    samples.push("bgp.mrai_coalesced", c.mrai_coalesced as f64);
    samples.push(
        "bgp.mrai_coalesced_per_delivery",
        ratio(c.mrai_coalesced as f64, deliveries),
    );
    samples.push("bgp.arena_mb_reserved", out.arena_peak_bytes as f64 / 1e6);

    samples.push(
        "alloc.allocs_per_delivery",
        ratio(rep.allocs as f64, deliveries),
    );
    samples.push(
        "alloc.bytes_per_delivery",
        ratio(rep.alloc_bytes as f64, deliveries),
    );
    samples.push("obs.trace_records", out.trace_records as f64);
}

fn traced(
    plan: &Plan,
    opts: &RunOpts,
    env: &Env,
    tally: &mut Tally,
) -> Result<Vec<(Metric, f64)>, String> {
    let mut samples = Samples(Vec::new());
    let mut tracer = Tracer::new(true);
    let plain = plan.without_observer();
    let (mut entry_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let turn = Instant::now();
        // The untraced entry point first: the composed run must arrive at
        // its fingerprint, and its wall time is the base of the overhead.
        let rep = Instant::now();
        let entry = sut::run_entry(plan);
        entry_walls.push(rep.elapsed().as_secs_f64());
        tally.absorb("entry", &entry);

        let first = tracer.spans().len();
        let rep = Instant::now();
        let composed = tracer.span("rep", |t| sut::run_composed(plan, t));
        traced_walls.push(rep.elapsed().as_secs_f64());
        tally.absorb("composed", &composed);
        let deliveries = composed.counts.deliveries as f64;
        let spans = &tracer.spans()[first..];
        layer_sample(&mut samples, spans, &composed);

        // What the recorder costs: the same cells composed without it.
        let recorder_ns = plain.as_ref().map_or(0.0, |plain| {
            let mut side = Tracer::new(true);
            let out = side.span("rep", |t| sut::run_composed(plain, t));
            tally.absorb("composed without recorder", &out);
            loop_ns(spans) - loop_ns(side.spans())
        });
        samples.push(
            "obs.recorder_ns_per_delivery",
            ratio(recorder_ns, deliveries),
        );

        tracer.rep += 1;
        if !time_for_another(started, turn, opts.seconds) {
            break;
        }
    }

    let hold_ops = if opts.smoke { 20_000 } else { 1_000_000 };
    for _ in 0..3 {
        samples.push(
            "simkernel.hold_short_ns_per_op",
            sut::hold_model_ns_per_op(hold_ops, false, opts.seed),
        );
        samples.push(
            "simkernel.hold_mrai_ns_per_op",
            sut::hold_model_ns_per_op(hold_ops, true, opts.seed),
        );
    }
    samples.push("alloc.peak_live_mb", sut::alloc_peak_bytes() as f64 / 1e6);

    let spans = tracer.spans();
    let selfs = match trace::self_times(spans) {
        Ok(selfs) => selfs,
        Err(why) => {
            tally.note(format!("trace: {why}"));
            vec![0; spans.len()]
        }
    };
    let root_ns: f64 = total_ns(spans, "rep");
    let layer_self_ns = sum(spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.is_layer())
        .map(|(_, &ns)| ns as f64));
    // Events of all repetitions pooled: p80 of 20 events × 5 repetitions
    // has twenty samples beyond it.
    let mut event_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "event")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    sort(&mut event_ms);
    samples.push("core.event_wall_ms.p50", percentile(&event_ms, 0.5));
    samples.push("core.event_wall_ms.p80", percentile(&event_ms, 0.8));
    samples.push("core.event_wall_ms.max", percentile(&event_ms, 1.0));
    samples.push("trace.spans", spans.len() as f64);
    samples.push("trace.coverage_pct", 100.0 * ratio(layer_self_ns, root_ns));
    samples.push(
        "trace.overhead_pct",
        100.0 * (ratio(median(&traced_walls), median(&entry_walls)) - 1.0),
    );

    println!(
        "selftime {:<24} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for row in trace::self_time_table(spans, &selfs) {
        println!(
            "selftime {:<24} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
            row.name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * ratio(row.self_ns as f64, root_ns),
        );
    }

    let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
    let mut text = Value::obj([("env", env.to_json())]).to_json();
    text.push('\n');
    for span in spans {
        text.push_str(&trace::span_json(span, &opts.workload).to_json());
        text.push('\n');
    }
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace {} spans in {}", spans.len(), path.display());

    samples.report(&PER_LAYER)
}
