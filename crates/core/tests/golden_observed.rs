//! Golden observed artifacts: the bytes a `Recorder` writes, pinned.
//!
//! `golden_churn` pins what the simulator computes; this file pins what an
//! observer is told about it. For observed `run_cell`s (BASELINE and
//! DENSE-CORE, n = 300, both MRAI modes, 3 C-events) and for a
//! `Recorder`-observed L-event and flap storm on a BASELINE n = 300
//! simulator, it hashes the three deterministic artifacts: `metrics.json`,
//! `timeseries.json` and the sampled trace lines. The L-event and the flap
//! storm are where MRAI coalescing folds updates of different root causes
//! into one transmission, so their stamps name interned root sets; both
//! assert that some did.
//!
//! The tables were computed before provenance stamps became a type the
//! observer chooses, and a change that claims to keep the observed bytes
//! must reproduce them unedited. The metrics hashes were re-blessed once,
//! when the recorder's histograms began to carry their samples' exact sum
//! and maximum (and the flush histogram its ≤0 bucket) in place of four
//! side entries; the time-series and trace hashes are the originals.

use std::sync::Arc;

use bgpscale_bgp::rfd::RfdConfig;
use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::flapstorm::{run_flap_storm, FlapStormConfig};
use bgpscale_core::harness::{run_cell, ExperimentConfig, ObserveOptions};
use bgpscale_core::levent::run_l_event;
use bgpscale_core::{SimTemplate, Simulator};
use bgpscale_obs::{
    MetricsRegistry, Recorder, RecorderOptions, TimeSeries, TimeSeriesSpec, TraceRecord,
};
use bgpscale_simkernel::SimDuration;
use bgpscale_topology::{generate, AsGraph, GrowthScenario, NodeType};

const N: usize = 300;
const EVENTS: usize = 3;
const SEED: u64 = 7;
const TRACE_SAMPLE: u64 = 5;
const BIN_US: u64 = 100_000;

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The hashes of `metrics.json`, `timeseries.json` and the trace lines.
fn artifacts(
    metrics: &MetricsRegistry,
    timeseries: Option<&TimeSeries>,
    trace: &[TraceRecord],
) -> [u64; 3] {
    let lines: String = trace.iter().map(|r| r.to_json_line() + "\n").collect();
    assert!(!trace.is_empty(), "the sampled trace has records");
    let timeseries = timeseries.expect("a time series was requested");
    [
        fnv(metrics.to_json().as_bytes()),
        fnv(timeseries.to_json().as_bytes()),
        fnv(lines.as_bytes()),
    ]
}

fn modes() -> [BgpConfig; 2] {
    [BgpConfig::no_wrate(), BgpConfig::wrate()]
}

const SCENARIOS: [GrowthScenario; 2] = [GrowthScenario::Baseline, GrowthScenario::DenseCore];

fn cell_artifacts(scenario: GrowthScenario, bgp: BgpConfig) -> [u64; 3] {
    let cfg = ExperimentConfig::new(scenario, N, EVENTS, SEED, bgp);
    let opts = ObserveOptions {
        trace_sample: Some(TRACE_SAMPLE),
        timeseries_bin_us: Some(BIN_US),
    };
    let observed = run_cell(&cfg, 1, Some(&opts), |_| {}).expect("the cell converges");
    assert!(observed.metrics.counter("provenance.stamped") > 0);
    artifacts(
        &observed.metrics,
        observed.timeseries.as_ref(),
        &observed.trace,
    )
}

/// A simulator over BASELINE n = 300 with a recorder that samples the trace
/// and bins a time series, and the C nodes of its topology.
fn observed_sim(bgp: BgpConfig, seed: u64) -> (Simulator<Recorder>, Vec<bgpscale_topology::AsId>) {
    let graph: AsGraph = generate(GrowthScenario::Baseline, N, SEED);
    let node_types: Vec<NodeType> = graph.node_ids().map(|id| graph.node_type(id)).collect();
    let c_nodes = graph.nodes_of_type(NodeType::C);
    let recorder = Recorder::with_options(
        0,
        RecorderOptions {
            trace_sample: Some(TRACE_SAMPLE),
            timeseries: Some(TimeSeriesSpec {
                bin_us: BIN_US,
                node_types: Arc::from(node_types),
            }),
        },
    );
    let template = SimTemplate::new(Arc::new(graph), bgp);
    (template.instantiate_observed(seed, recorder), c_nodes)
}

/// The artifacts of a finished run, after checking that some delivered
/// stamp named more than one root cause.
fn recorder_artifacts(sim: Simulator<Recorder>) -> [u64; 3] {
    let recorder = sim.into_observer();
    let metrics = recorder.registry();
    assert!(
        metrics.counter("provenance.coalesced") > 0,
        "updates of different root causes were coalesced"
    );
    let (trace, timeseries) = recorder.into_parts();
    artifacts(&metrics, timeseries.as_ref(), &trace)
}

/// An L-event under WRATE on the origin's first provider link, one second
/// into the announcement's convergence: the withdrawals of the failure
/// queue in MRAI windows that hold updates of the announcement, and the
/// two roots coalesce.
fn l_event_artifacts() -> [u64; 3] {
    let (mut sim, c_nodes) = observed_sim(BgpConfig::wrate(), 0x1E);
    let origin = c_nodes[c_nodes.len() / 2];
    let provider = sim
        .graph()
        .providers(origin)
        .next()
        .expect("stubs have providers");
    sim.originate(origin, Prefix(0));
    sim.run_until(sim.now() + SimDuration::from_secs(1))
        .expect("within budget");
    run_l_event(&mut sim, origin, provider, Prefix(0)).expect("the L-event converges");
    recorder_artifacts(sim)
}

/// A flap storm under WRATE and route flap damping: queued withdrawals,
/// re-announcements and reuse wake-ups displace each other inside MRAI
/// windows. (Under NO-WRATE a withdrawal cancels the queued announcement
/// instead of displacing it, and no two roots ever meet.)
fn flap_storm_artifacts() -> [u64; 3] {
    let bgp = BgpConfig {
        rfd: Some(RfdConfig::default()),
        ..BgpConfig::wrate()
    };
    let (mut sim, c_nodes) = observed_sim(bgp, 0xF1A9);
    let origin = c_nodes[1];
    run_flap_storm(&mut sim, origin, Prefix(0), &FlapStormConfig::default())
        .expect("the storm converges");
    recorder_artifacts(sim)
}

/// `GOLDEN_CELLS[scenario][mode]`: BASELINE then DENSE-CORE, NO-WRATE then
/// WRATE; each `[metrics, timeseries, trace]`.
const GOLDEN_CELLS: [[[u64; 3]; 2]; 2] = [
    // BASELINE
    [
        [0xb92d4bb75163d3f0, 0xfdd4b3b6e46b4a74, 0x77b3006bb3ed41d1],
        [0x7ade420e40706ae0, 0xfe24a169602e039f, 0x620044ce188fb1ca],
    ],
    // DENSE-CORE
    [
        [0x1b360487437810d2, 0x008631c60344c4c5, 0x559efbbca818e84e],
        [0x29029479f43ea1d2, 0x55b2a9387da35aa9, 0x3fad8364913e5eb7],
    ],
];
const GOLDEN_L_EVENT: [u64; 3] = [0xe2ebf7dbd1da3fd1, 0x2550968f24cdbeab, 0x73283fb6bc1bee9e];
const GOLDEN_FLAP_STORM: [u64; 3] = [0x9d6ad9331b6c4676, 0x7d854828138da158, 0x2117bd90bc8911a4];

fn show(hashes: [u64; 3]) -> String {
    let cells: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
    format!("[{}]", cells.join(", "))
}

#[test]
fn observed_cells_reproduce_their_golden_artifacts() {
    for (si, &scenario) in SCENARIOS.iter().enumerate() {
        for (mi, bgp) in modes().into_iter().enumerate() {
            let label = bgp.mrai_mode.label();
            let got = cell_artifacts(scenario, bgp);
            assert_eq!(
                got,
                GOLDEN_CELLS[si][mi],
                "{scenario} {label}: got {} ([metrics, timeseries, trace])",
                show(got)
            );
        }
    }
}

#[test]
fn an_observed_l_event_reproduces_its_golden_artifacts() {
    let got = l_event_artifacts();
    assert_eq!(got, GOLDEN_L_EVENT, "L-event: got {}", show(got));
}

#[test]
fn an_observed_flap_storm_reproduces_its_golden_artifacts() {
    let got = flap_storm_artifacts();
    assert_eq!(got, GOLDEN_FLAP_STORM, "flap storm: got {}", show(got));
}

/// Prints the tables in source form. Only for the first commit of this
/// file, or for a change that moves the observed bytes on purpose:
/// `cargo test --release -p bgpscale-core --test golden_observed -- --ignored --nocapture`.
#[test]
#[ignore = "prints the tables instead of checking them"]
fn print_the_tables() {
    println!("=== golden_observed.cells\n[");
    for &scenario in &SCENARIOS {
        let rows: Vec<String> = modes()
            .into_iter()
            .map(|bgp| show(cell_artifacts(scenario, bgp)))
            .collect();
        println!("    // {scenario}\n    [{}],", rows.join(", "));
    }
    println!("]\n=== l_event {}", show(l_event_artifacts()));
    println!("=== flap_storm {}", show(flap_storm_artifacts()));
}
