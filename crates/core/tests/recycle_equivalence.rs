//! `Simulator::recycle(seed)` restores exactly the observable state of
//! `SimTemplate::instantiate(seed)`.
//!
//! The harness runs every C-event of a worker on one simulator, recycled
//! in place between events, where it used to stamp a new simulator out of
//! the template per event. The determinism contract ("event `k` is a pure
//! function of `k`") therefore rests on `recycle` leaving nothing behind
//! but buffers. These tests hold a recycled simulator against a freshly
//! instantiated one, event by event, on everything an event exposes:
//! the outcome with its per-phase op counts, the m/q/e raw factors of
//! every node, the clock, and — through an attached `Recorder` — the
//! serialized metrics and the trace stream.
//!
//! The op counts are also held class by class, queue classes included,
//! and so are the keys the event's MRAI timers reserved, sequence numbers
//! included: the event queue's work depends on the bits of the keys it
//! hands out, so a recycled queue must restart its sequence numbers to
//! hand out a new one's keys and pay what a new one does — which is what
//! keeps `costmodel.json` byte-identical across `--jobs` levels, where
//! workers recycle different numbers of times.

use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::cevent::{run_c_event, CEventOutcome};
use bgpscale_core::factors::{node_factors, NodeFactors};
use bgpscale_core::harness::{run_experiment_with_cost, ExperimentConfig};
use bgpscale_core::{SimTemplate, Simulator};
use bgpscale_obs::{OpCounts, Recorder, RecorderOptions, PHASE_NAMES};
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_simkernel::{EventKey, SimTime};
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType};

const N: usize = 300;
const EVENTS: usize = 3;

/// Everything one C-event leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: CEventOutcome,
    factors: Vec<NodeFactors>,
    /// Every node's latest MRAI timer key, `(time, seq)`.
    timer_keys: Vec<EventKey>,
    end: SimTime,
    events_processed: u64,
    metrics_json: String,
    trace_lines: Vec<String>,
}

fn recorder(k: usize) -> Recorder {
    let opts = RecorderOptions {
        trace_sample: Some(3),
        ..RecorderOptions::default()
    };
    Recorder::with_options(k as u32, opts)
}

/// Runs C-event `k` on `sim` (pristine, with `recorder(k)` attached) and
/// takes the recorder out with everything else there is to see.
fn observe(sim: &mut Simulator<Recorder>, origin: AsId, k: usize) -> Observed {
    assert_eq!(sim.now(), SimTime::ZERO);
    assert_eq!(sim.last_activity(), SimTime::ZERO);
    assert_eq!(sim.events_processed(), 0);
    assert_eq!(sim.messages_dropped(), 0);
    assert_eq!(sim.churn().total(), 0);
    assert!(!sim.churn().enabled());
    let outcome = run_c_event(sim, origin, Prefix(k as u32)).expect("the event converges");
    let factors = sim
        .graph()
        .node_ids()
        .map(|id| node_factors(sim, id))
        .collect();
    let timer_keys = sim
        .graph()
        .node_ids()
        .map(|id| sim.node(id).latest_timer_key_by(SimTime::MAX))
        .collect();
    let recorder = sim.replace_observer(Recorder::default());
    Observed {
        outcome,
        factors,
        timer_keys,
        end: sim.now(),
        events_processed: sim.events_processed(),
        metrics_json: recorder.registry().to_json(),
        trace_lines: recorder
            .into_parts()
            .0
            .iter()
            .map(|r| r.to_json_line())
            .collect(),
    }
}

fn origins(graph: &AsGraph, count: usize) -> Vec<AsId> {
    let c_nodes = graph.nodes_of_type(NodeType::C);
    assert!(c_nodes.len() >= count);
    // Spread over the id range: neighbours of a low-id stub differ from
    // those of a late one.
    (0..count)
        .map(|i| c_nodes[i * (c_nodes.len() - 1) / (count - 1)])
        .collect()
}

/// `got` reserved `want`'s timer keys, every class of every phase's op
/// counts equals `want`'s, and the event queue did work the comparison
/// can see.
fn assert_same_keys_and_op_counts(got: &Observed, want: &Observed, what: &str) {
    assert_eq!(
        got.timer_keys, want.timer_keys,
        "{what}: recycled and instantiated timer keys differ"
    );
    let phases = got
        .outcome
        .phase_costs
        .iter()
        .zip(&want.outcome.phase_costs);
    for (phase, (got, want)) in PHASE_NAMES.iter().zip(phases) {
        assert_eq!(got.fields().len(), OpCounts::FIELD_COUNT);
        for ((class, got), (_, want)) in got.fields().into_iter().zip(want.fields()) {
            assert_eq!(
                got, want,
                "{what}: {phase} {class}: recycled {got} != instantiated {want}"
            );
        }
    }
    let total = got
        .outcome
        .phase_costs
        .iter()
        .fold(OpCounts::default(), |mut sum, phase| {
            sum.add(phase);
            sum
        });
    assert!(
        total.queue_comparisons > 0 && total.queue_decreases > 0,
        "{what}: {total:?}"
    );
}

fn template(scenario: GrowthScenario, cfg: BgpConfig, seed: u64) -> SimTemplate {
    SimTemplate::new(Arc::new(generate(scenario, N, seed)), cfg)
}

/// What the event seeded `seed` looks like on a newly instantiated
/// simulator: the reference every recycled run is held to.
fn on_fresh(template: &SimTemplate, seed: u64, origin: AsId, k: usize) -> Observed {
    observe(
        &mut template.instantiate_observed(seed, recorder(k)),
        origin,
        k,
    )
}

#[test]
fn recycled_and_instantiated_simulators_are_indistinguishable() {
    for scenario in GrowthScenario::ALL {
        for cfg in [BgpConfig::no_wrate(), BgpConfig::wrate()] {
            let mode = cfg.mrai_mode;
            let template = template(scenario, cfg, 0xA5 + scenario as u64);
            let origins = origins(template.graph(), EVENTS);
            let mut recycled: Option<Simulator<Recorder>> = None;
            for (k, &origin) in origins.iter().enumerate() {
                let seed = hash64_pair(0x5EED, k as u64);
                let sim = match &mut recycled {
                    None => recycled.insert(template.instantiate_observed(seed, recorder(k))),
                    Some(sim) => {
                        sim.recycle(seed);
                        sim.replace_observer(recorder(k));
                        sim
                    }
                };
                let got = observe(sim, origin, k);
                let want = on_fresh(&template, seed, origin, k);
                assert!(got.outcome.total_updates > 0);
                assert!(
                    !got.trace_lines.is_empty(),
                    "the sampled trace must see traffic"
                );
                assert_same_keys_and_op_counts(
                    &got,
                    &want,
                    &format!("{scenario} {mode:?} event {k}"),
                );
                assert_eq!(
                    got, want,
                    "{scenario} {mode:?} event {k}: recycled != instantiated"
                );
            }
        }
    }
}

/// A recycled simulator owes nothing to how its previous run ended. Here
/// it ended badly: the event budget ran out mid-convergence, leaving
/// pending events, messages on the wire, busy processors, queued input
/// and armed MRAI timers.
#[test]
fn recycle_after_a_blown_event_budget() {
    for cfg in [BgpConfig::no_wrate(), BgpConfig::wrate()] {
        let template = template(GrowthScenario::Baseline, cfg, 77);
        let origins = origins(template.graph(), 2);
        let mut sim = template.instantiate_observed(1, recorder(0));
        sim.set_event_limit(400);
        sim.originate(origins[0], Prefix(9));
        let err = sim
            .run_to_quiescence()
            .expect_err("400 events do not converge n=300");
        assert!(err.snapshot.queue_depth > 0, "events are still pending");
        assert_eq!(
            err.snapshot.pending_by_kind.iter().sum::<u64>(),
            err.snapshot.queue_depth,
            "the snapshot counts the heap and the in-order lane"
        );
        assert!(
            err.snapshot.pending_by_kind[0] > 0,
            "UPDATEs are in flight: abandoned on the wire, not only in inboxes"
        );
        // An armed timer is a key in its session's queue, not an event
        // (one is scheduled only once an update waits behind it).
        let armed = |id: AsId| sim.node(id).latest_timer_key_by(SimTime::MAX).time > sim.now();
        assert!(template.graph().node_ids().any(armed), "MRAI timers are armed");
        assert!(
            err.snapshot.busiest_inbox.is_some(),
            "input is still queued"
        );

        let seed = 0xB10B;
        sim.recycle(seed);
        sim.replace_observer(recorder(1));
        let (got, want) = (
            observe(&mut sim, origins[1], 1),
            on_fresh(&template, seed, origins[1], 1),
        );
        assert_same_keys_and_op_counts(&got, &want, "after a blown budget");
        assert_eq!(got, want);
    }
}

/// An L-event left half done — link failed, never restored, withdrawals
/// still in flight — is no obstacle either: every session is back up.
#[test]
fn recycle_after_a_link_failure_without_restore() {
    let template = template(GrowthScenario::Baseline, BgpConfig::wrate(), 78);
    let origins = origins(template.graph(), 2);
    let provider = template
        .graph()
        .providers(origins[0])
        .next()
        .expect("stubs have providers");
    let mut sim = template.instantiate_observed(2, recorder(0));
    sim.originate(origins[0], Prefix(3));
    sim.run_to_quiescence().unwrap();
    sim.fail_link(origins[0], provider);
    assert!(sim.link_down(origins[0], provider));
    sim.run_until(sim.now() + bgpscale_simkernel::SimDuration::from_millis(30))
        .unwrap();

    let seed = 0xFA11;
    sim.recycle(seed);
    sim.replace_observer(recorder(1));
    assert!(!sim.link_down(origins[0], provider));
    assert_eq!(sim.messages_dropped(), 0);
    // The event runs from the stub whose link had failed: both of its
    // sessions must carry routes again.
    let (got, want) = (
        observe(&mut sim, origins[0], 1),
        on_fresh(&template, seed, origins[0], 1),
    );
    assert_same_keys_and_op_counts(&got, &want, "after a link failure");
    assert_eq!(got, want);
}

/// Through the harness: one worker recycles its simulator five times,
/// eight workers never do (six events), and the reports and cost models
/// are the same bytes.
#[test]
fn run_experiment_is_bit_identical_for_jobs_1_4_8() {
    for (scenario, bgp) in [
        (GrowthScenario::Baseline, BgpConfig::no_wrate()),
        (GrowthScenario::DenseCore, BgpConfig::wrate()),
    ] {
        let cfg = ExperimentConfig::new(scenario, N, 6, 0x0DD5, bgp);
        let (report, cost) = run_experiment_with_cost(&cfg, 1);
        for jobs in [4, 8] {
            let (other, other_cost) = run_experiment_with_cost(&cfg, jobs);
            assert_eq!(report, other, "{scenario} report diverged at jobs={jobs}");
            assert_eq!(
                cost.to_json(),
                other_cost.to_json(),
                "{scenario} costs diverged at jobs={jobs}"
            );
        }
    }
}
