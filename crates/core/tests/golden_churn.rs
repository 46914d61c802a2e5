//! Golden churn hashes: what the simulator computes, and when, pinned
//! bit for bit.
//!
//! Every figure is a function of the `ChurnReport`s; every convergence
//! time, and the instant each later phase starts at, is a function of the
//! clock the previous phase left behind. A change to the event loop that
//! claims to keep the simulation must reproduce exactly these hashes:
//! the tables below were computed with the simulator that pushed one
//! `MraiExpire` event per timer arm, and are never re-blessed by a change
//! that claims only speed.
//!
//! Hashed, all as integers (floats by bit pattern): the harness's
//! `ChurnReport` of each cell, and — on a simulator driven directly — the
//! `last_activity` and `now()` after every `run_to_quiescence` and
//! `run_until`, every node's update count and every node's best route.
//! `events_processed` and the op counts are deliberately left out: they
//! say how the answer was computed, not what it is.

use bgpscale_bgp::config::MraiScope;
use bgpscale_bgp::rfd::RfdConfig;
use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::flapstorm::{run_flap_storm, FlapStormConfig};
use bgpscale_core::harness::{run_experiment, ChurnReport, ExperimentConfig};
use bgpscale_core::levent::run_l_event;
use bgpscale_core::Simulator;
use bgpscale_simkernel::SimDuration;
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType};

/// FNV-1a over little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The two clocks a phase leaves behind.
    fn clocks(&mut self, sim: &Simulator) {
        self.u64(sim.last_activity().as_micros());
        self.u64(sim.now().as_micros());
    }

    /// Every node's update count and best route for `prefixes`, plus the
    /// messages lost in flight.
    fn routing(&mut self, sim: &Simulator, prefixes: u32) {
        self.u64(sim.churn().total());
        self.u64(sim.churn().withdrawals());
        self.u64(sim.messages_dropped());
        for id in sim.graph().node_ids() {
            self.u64(sim.churn().node_total(id));
            for p in 0..prefixes {
                match sim.node(id).best_route(Prefix(p)) {
                    None => self.u64(u64::MAX),
                    Some((next_hop, path)) => {
                        self.u64(next_hop.map_or(u64::MAX - 1, |nh| u64::from(nh.0)));
                        self.u64(sim.paths().len(path) as u64);
                        for hop in sim.paths().hops(path) {
                            self.u64(u64::from(hop.0));
                        }
                    }
                }
            }
        }
    }

    fn report(&mut self, r: &ChurnReport) {
        let scenario = GrowthScenario::ALL
            .iter()
            .position(|&s| s == r.scenario)
            .expect("a known scenario");
        self.u64(scenario as u64);
        self.u64(r.n as u64);
        self.u64(r.events as u64);
        for t in &r.types {
            self.u64(t.node_count as u64);
            self.f64(t.u_total);
            for f in &t.factors {
                for v in [f.m, f.q, f.e, f.u] {
                    self.f64(v);
                }
            }
            self.u64(t.per_event_u.len() as u64);
            for &u in &t.per_event_u {
                self.f64(u);
            }
        }
        self.f64(r.mean_total_updates);
        self.f64(r.mean_down_convergence_s);
        self.f64(r.mean_up_convergence_s);
    }
}

fn modes() -> [BgpConfig; 2] {
    [BgpConfig::no_wrate(), BgpConfig::wrate()]
}

/// The `count` C nodes spread evenly over the id range.
fn origins(graph: &AsGraph, count: usize) -> Vec<AsId> {
    let c_nodes = graph.nodes_of_type(NodeType::C);
    assert!(c_nodes.len() >= count && count >= 2);
    (0..count)
        .map(|i| c_nodes[i * (c_nodes.len() - 1) / (count - 1)])
        .collect()
}

/// One cell: the harness's report over two C-events (the second on a
/// recycled simulator), then one C-event driven phase by phase.
fn cell_hash(scenario: GrowthScenario, bgp: &BgpConfig, n: usize, seed: u64) -> u64 {
    let mut h = Fnv::new();
    h.report(&run_experiment(&ExperimentConfig::new(scenario, n, 2, seed, *bgp)));

    let graph = generate(scenario, n, seed);
    let origin = origins(&graph, 2)[1];
    let mut sim = Simulator::new(graph, *bgp, seed ^ 0x601D);
    sim.churn_mut().set_enabled(true);
    for phase in 0..3 {
        if phase == 1 {
            sim.withdraw(origin, Prefix(0));
        } else {
            sim.originate(origin, Prefix(0));
        }
        let converged = sim.run_to_quiescence().expect("the phase converges");
        h.u64(converged.as_micros());
        h.clocks(&sim);
        h.routing(&sim, 1);
    }
    h.0
}

const SIZES: [usize; 2] = [300, 1_000];
const SEEDS: [u64; 3] = [1, 2, 3];

/// `GOLDEN[scenario][mode][size][seed]`: scenarios in
/// `GrowthScenario::ALL` order, modes NO-WRATE then WRATE.
const GOLDEN: [[[[u64; 3]; 2]; 2]; 14] = [
    // BASELINE
    [
        [
            [0x185a2dbf8f0f49cf, 0x50f9f8866af49072, 0x85faee239ada1f90],
            [0x508e921dbcfea400, 0x3c729beb69866009, 0xa0b1a52256f538f6],
        ],
        [
            [0x9699fa6e723c5d42, 0xaec1520cd44568f4, 0xcfb8cae56afa81a9],
            [0x96937da64f8f44f8, 0xe5a663c6147ad1ff, 0x43903bdc6d3028e2],
        ],
    ],
    // NO-MIDDLE
    [
        [
            [0xc88dd7aaab3e4ff9, 0xa101aca127052493, 0x6465319919299ba9],
            [0x23979f786dfe06cf, 0x3543b329ee9b6133, 0xfaf1575c5c72eb1f],
        ],
        [
            [0x0f5920c52939ce38, 0xe0a5725607e02648, 0x451c73f0f826f272],
            [0x0588e4ce0bf7ea83, 0xe6dd6b7bda7c3feb, 0x1be6dcde6d6212f1],
        ],
    ],
    // RICH-MIDDLE
    [
        [
            [0x06e9c2fafa5d0720, 0xfb1cef217925d33b, 0xb78d703f66ce4c2b],
            [0x55c56381672c44a1, 0x765a01f85125e2b2, 0x6f610d3737be974d],
        ],
        [
            [0x43a26ab46b9699d0, 0x8281418361241dda, 0xbfc40fb6d35d4163],
            [0x5996f0bd3d949d9a, 0xd69e1ff0571cf76e, 0x32a55cb8d751f716],
        ],
    ],
    // STATIC-MIDDLE
    [
        [
            [0xffb10509d6bde01c, 0xf3ac046d211e99a5, 0x7e0faa95d8e37c37],
            [0x509347088605b337, 0x122c5b50fba6714e, 0x9a3ecac222bad26d],
        ],
        [
            [0x8cfb021f4ce71e59, 0x1263cb2aff7cc277, 0xe841bcacf640cb22],
            [0x8ea92c4c0e75ccb3, 0xf47ab34548c50300, 0x91ae5a17a5b541e5],
        ],
    ],
    // TRANSIT-CLIQUE
    [
        [
            [0x65385eb7338668e4, 0x43ebc7e505bf7128, 0xbb8a78b716c11adf],
            [0xd934da446bef2764, 0x85469167fcfa5f76, 0x7424045c745a85b8],
        ],
        [
            [0xb5e9e4424cae088e, 0x7a52a094f9addf61, 0xef6dc8a08feb7d4d],
            [0xec12318ffb331b09, 0x179ea91cbb6fa277, 0x9f2d3d2f9da0d8f9],
        ],
    ],
    // DENSE-CORE
    [
        [
            [0x46d1bf53121776e9, 0xee37ad2a77870f1e, 0x1fae4ed9714f0a41],
            [0xbb2e40a845081019, 0x353981b5a5815823, 0xa80d3fe3538e9e95],
        ],
        [
            [0x074793ee19c89e03, 0x8c578ea564a70bb3, 0x3d19765bf197c1fb],
            [0x1149b1aaf8b7a340, 0xbd26678ca9290b21, 0x78cfae39f65d3ec7],
        ],
    ],
    // DENSE-EDGE
    [
        [
            [0x07346ec9b24ac47f, 0x61cab9018851823c, 0xec51d34f2181db1a],
            [0xf551fc30ae506b45, 0xcab3ce45999c742d, 0x8341d9557c85fbf3],
        ],
        [
            [0x1fd4a1e1178afe6f, 0xf6ef6701353ab0a6, 0x3f117d4cbd6902ca],
            [0x2f8e999894a2ab92, 0x29c28b565839b5bb, 0xa22dfcd7c0087915],
        ],
    ],
    // TREE
    [
        [
            [0xb71dbf023c1ea683, 0xbeae127d2b9f2b67, 0x583ccf7b0cd8f5bc],
            [0x0d036daad7415b38, 0xd7cd9b7e27611a91, 0x36e81f3ca5b63b13],
        ],
        [
            [0xbb185e952cc4e85f, 0x0b7dc7e8d80ef8f6, 0x80128128d57b44bf],
            [0xeac2663def75daaa, 0x279362c28fef1c6c, 0x02df82ba35373428],
        ],
    ],
    // CONSTANT-MHD
    [
        [
            [0xc940c4a7a75485f7, 0x67eba720da1012b3, 0x462151a91a72647f],
            [0x8a3efa7a573f2e3c, 0x242a0bc3e626b7b5, 0x88830ea00f889e3c],
        ],
        [
            [0x4d275fcffff5d51b, 0x77208e595dbfb98f, 0x9b3895630ba14697],
            [0x3761f4cf6a14ae01, 0xb421e3b3c5fb51b0, 0xb366a9f91dbdd400],
        ],
    ],
    // NO-PEERING
    [
        [
            [0x8af929d91f04cada, 0x3bbe363558c40caf, 0xb745be2db6bb154e],
            [0xd22e355dddd38636, 0x13fe79648fd3ac56, 0x1c0ff5abaa9e616b],
        ],
        [
            [0x81fcf1078d06273e, 0xf793bd077bf701c3, 0x7f085dd5ce5238c6],
            [0x8a6abfe2f205df0d, 0x529ca20cdcec4dec, 0x15c9ea5d57949a02],
        ],
    ],
    // STRONG-CORE-PEERING
    [
        [
            [0x4ee4613c486f0e32, 0x2a875a83d22d6745, 0x7a8e4e69e3a8a582],
            [0xf507e26dbb672ebf, 0xc0244ee288360f25, 0x220c5261d52b94df],
        ],
        [
            [0xda92b9cef2008296, 0x081339186fd801c8, 0x292152b3437329c3],
            [0x5e765453849343e5, 0xf090a26655cbe57b, 0xf46bf2ff1ac3ae7e],
        ],
    ],
    // STRONG-EDGE-PEERING
    [
        [
            [0x8511021c702cb28d, 0x471695c17b5f98e3, 0xb16c61f1ed3f593b],
            [0xa51134636360a82e, 0xf81237d3f9b71f58, 0x76c74fca8842a811],
        ],
        [
            [0x879b9c111a11464c, 0xd0a04c4866ab7841, 0xc45f64835371d30e],
            [0x8a786e06c6160de5, 0x124980cb5b8967be, 0x76f97aa65b642591],
        ],
    ],
    // PREFER-MIDDLE
    [
        [
            [0xed286c389c7f9cbe, 0x988f157ecb0c2f84, 0xc89e55a597fe0ea8],
            [0x4814f8bdd9f4e87a, 0xa1f6373900bdca74, 0x525bdebae52a2995],
        ],
        [
            [0x58eded1229472de1, 0x88109318a22bb1ad, 0xfa7c905283ab5869],
            [0x1315aa06017b44c6, 0x558d7d2b860489dc, 0xee7dfd4a971be067],
        ],
    ],
    // PREFER-TOP
    [
        [
            [0x9ab910d279cd3806, 0xf6573d55f3cf039a, 0xb854d73f56380bfe],
            [0x1a60aa0e327ef311, 0x6a8c91670497f308, 0xf4412c57bd442075],
        ],
        [
            [0x63b7ce8963686471, 0xaa451413e8b5bda6, 0x7e6f9fb7e5e02a59],
            [0x3c3ee31c052ead36, 0xa6f9f73b7768b247, 0xe652f128c8235321],
        ],
    ],
];

#[test]
fn every_cell_reproduces_its_golden_churn() {
    let mut mismatches = Vec::new();
    for (si, &scenario) in GrowthScenario::ALL.iter().enumerate() {
        for (mi, bgp) in modes().iter().enumerate() {
            for (ni, &n) in SIZES.iter().enumerate() {
                for (ki, &seed) in SEEDS.iter().enumerate() {
                    let got = cell_hash(scenario, bgp, n, seed);
                    if got != GOLDEN[si][mi][ni][ki] {
                        mismatches.push(format!(
                            "{scenario} {} n={n} seed={seed}: got {got:#018x}, golden {:#018x}",
                            bgp.mrai_mode.label(),
                            GOLDEN[si][mi][ni][ki]
                        ));
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of 168 churn hashes moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

const EXT_N: usize = 1_000;

fn baseline(seed: u64) -> (AsGraph, Vec<AsId>) {
    let graph = generate(GrowthScenario::Baseline, EXT_N, seed);
    let origins = origins(&graph, 4);
    (graph, origins)
}

/// `run_l_event` on the origin's first provider link, after a warm-up:
/// the outcome, the clocks and the routing it leaves.
fn l_event_hash(bgp: BgpConfig, seed: u64) -> u64 {
    let (graph, origins) = baseline(seed);
    let origin = origins[2];
    let provider = graph.providers(origin).next().expect("stubs have providers");
    let mut sim = Simulator::new(graph, bgp, seed ^ 0x1E);
    let mut h = Fnv::new();
    sim.originate(origin, Prefix(0));
    sim.run_to_quiescence().expect("warm-up converges");
    h.clocks(&sim);
    let o = run_l_event(&mut sim, origin, provider, Prefix(0)).expect("the L-event converges");
    for v in [
        o.fail_updates,
        o.restore_updates,
        o.fail_convergence.as_micros(),
        o.restore_convergence.as_micros(),
        o.unreachable_during_outage as u64,
    ] {
        h.u64(v);
    }
    h.clocks(&sim);
    h.routing(&sim, 1);
    h.0
}

/// `run_flap_storm`, whose every flap starts one period after the clock
/// the previous `run_until` left: outcome, final clocks, routing.
fn flap_storm_hash(rfd: bool, seed: u64) -> u64 {
    let (graph, origins) = baseline(seed);
    let bgp = BgpConfig {
        rfd: rfd.then(RfdConfig::default),
        ..BgpConfig::default()
    };
    let mut sim = Simulator::new(graph, bgp, seed ^ 0xF1A9);
    let mut h = Fnv::new();
    let o = run_flap_storm(&mut sim, origins[1], Prefix(0), &FlapStormConfig::default())
        .expect("the storm converges");
    for v in [
        o.total_updates,
        o.suppressed_nodes as u64,
        o.unreachable_after_storm as u64,
        o.unreachable_after_reuse as u64,
    ] {
        h.u64(v);
    }
    h.clocks(&sim);
    h.routing(&sim, 1);
    h.0
}

/// Actions injected inside open MRAI windows, with the clocks after every
/// `run_until`: four prefixes announced together, withdrawn together one
/// second in, a provider link failed and restored mid-convergence, and
/// everything re-announced — so per-prefix timers, timers of a session
/// that is reset while armed, and deadlines that fall between a timer's
/// arm and its expiry are all on the path.
fn windows_hash(scope: MraiScope, bgp: BgpConfig, seed: u64) -> u64 {
    let (graph, origins) = baseline(seed);
    let provider = graph.providers(origins[0]).next().expect("stubs have providers");
    let bgp = BgpConfig {
        mrai_scope: scope,
        ..bgp
    };
    let mut sim = Simulator::new(graph, bgp, seed ^ 0x3C09E);
    sim.churn_mut().set_enabled(true);
    let mut h = Fnv::new();
    let until = |sim: &mut Simulator, h: &mut Fnv, after: SimDuration| {
        sim.run_until(sim.now() + after).expect("within budget");
        h.clocks(sim);
    };
    for (p, &o) in origins.iter().enumerate() {
        sim.originate(o, Prefix(p as u32));
    }
    until(&mut sim, &mut h, SimDuration::from_secs(1));
    for (p, &o) in origins.iter().enumerate() {
        sim.withdraw(o, Prefix(p as u32));
    }
    until(&mut sim, &mut h, SimDuration::from_millis(300));
    sim.fail_link(origins[0], provider);
    until(&mut sim, &mut h, SimDuration::from_secs(25));
    for (p, &o) in origins.iter().enumerate() {
        sim.originate(o, Prefix(p as u32));
    }
    until(&mut sim, &mut h, SimDuration::from_secs(4));
    sim.restore_link(origins[0], provider);
    until(&mut sim, &mut h, SimDuration::from_secs(40));
    h.routing(&sim, 4);
    sim.run_to_quiescence().expect("converges");
    h.clocks(&sim);
    h.routing(&sim, 4);
    // Quiescent: a deadline with nothing before it moves nothing.
    until(&mut sim, &mut h, SimDuration::from_secs(3_600));
    h.0
}

/// The extension cells, BASELINE n = 1000, `[..][seed]`: L-events by mode,
/// flap storms without and with damping, windows by `[scope][mode]`.
const GOLDEN_L_EVENT: [[u64; 3]; 2] = [
    [0x9e9ce9c5060974d2, 0xbb72cb0deced24be, 0x24420c6504b3d0c8],
    [0x5de54cf2c067ef46, 0xcb1a0df30dac0bbc, 0x57c6d70826d75c55],
];
const GOLDEN_FLAP_STORM: [[u64; 3]; 2] = [
    [0xdfb02ce813e94cfa, 0x35133461704b81bc, 0x57d1a01cef62d4d8],
    [0x6330fa1634a7fe63, 0xe275094293ee3992, 0x46151050b168c647],
];
const GOLDEN_WINDOWS: [[[u64; 3]; 2]; 2] = [
    [
        [0x4fbe63e443785e5c, 0x3f83d5c3eb158e93, 0x918cea91cfa7aad9],
        [0xc9d410978dec3c9c, 0xe74564b4d3741047, 0x6d7dbbe89c3656f4],
    ],
    [
        [0xa77f5d33517b690f, 0x9a076816862c3bd9, 0x86f2c2a2425e3b44],
        [0x235d11c1adfb33f0, 0x225e2df0a2e274c5, 0x455710ca8697353a],
    ],
];

#[test]
fn l_events_reproduce_their_golden_outcomes() {
    for (mi, bgp) in modes().into_iter().enumerate() {
        for (ki, &seed) in SEEDS.iter().enumerate() {
            let got = l_event_hash(bgp, seed);
            assert_eq!(
                got, GOLDEN_L_EVENT[mi][ki],
                "L-event {} seed={seed}: got {got:#018x}",
                bgp.mrai_mode.label()
            );
        }
    }
}

#[test]
fn flap_storms_reproduce_their_golden_outcomes() {
    for (ri, rfd) in [false, true].into_iter().enumerate() {
        for (ki, &seed) in SEEDS.iter().enumerate() {
            let got = flap_storm_hash(rfd, seed);
            assert_eq!(
                got, GOLDEN_FLAP_STORM[ri][ki],
                "flap storm rfd={rfd} seed={seed}: got {got:#018x}"
            );
        }
    }
}

#[test]
fn actions_inside_mrai_windows_reproduce_their_golden_clocks() {
    for (si, scope) in [MraiScope::PerInterface, MraiScope::PerPrefix]
        .into_iter()
        .enumerate()
    {
        for (mi, bgp) in modes().into_iter().enumerate() {
            for (ki, &seed) in SEEDS.iter().enumerate() {
                let got = windows_hash(scope, bgp, seed);
                assert_eq!(
                    got, GOLDEN_WINDOWS[si][mi][ki],
                    "windows {} {} seed={seed}: got {got:#018x}",
                    scope.label(),
                    bgp.mrai_mode.label()
                );
            }
        }
    }
}

/// Prints the four tables in source form. Only for the first commit of
/// this file, or for a change that moves the simulation on purpose:
/// `cargo test --release -p bgpscale-core --test golden_churn -- --ignored --nocapture`.
#[test]
#[ignore = "prints the tables instead of checking them"]
fn print_the_tables() {
    let row = |hashes: Vec<u64>| {
        let cells: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
        format!("[{}]", cells.join(", "))
    };
    println!("=== golden_churn.table\n[");
    for &scenario in &GrowthScenario::ALL {
        println!("    // {scenario}\n    [");
        for bgp in modes() {
            println!("        [");
            for &n in &SIZES {
                let hashes = SEEDS.iter().map(|&s| cell_hash(scenario, &bgp, n, s));
                println!("            {},", row(hashes.collect()));
            }
            println!("        ],");
        }
        println!("    ],");
    }
    println!("]\n=== golden_churn_levent.table\n[");
    for bgp in modes() {
        let hashes = SEEDS.iter().map(|&s| l_event_hash(bgp, s));
        println!("    {},", row(hashes.collect()));
    }
    println!("]\n=== golden_churn_flapstorm.table\n[");
    for rfd in [false, true] {
        let hashes = SEEDS.iter().map(|&s| flap_storm_hash(rfd, s));
        println!("    {},", row(hashes.collect()));
    }
    println!("]\n=== golden_churn_windows.table\n[");
    for scope in [MraiScope::PerInterface, MraiScope::PerPrefix] {
        println!("    [");
        for bgp in modes() {
            let hashes = SEEDS.iter().map(|&s| windows_hash(scope, bgp, s));
            println!("        {},", row(hashes.collect()));
        }
        println!("    ],");
    }
    println!("]");
}

#[test]
fn a_different_seed_changes_the_hash() {
    let bgp = BgpConfig::no_wrate();
    let a = cell_hash(GrowthScenario::Baseline, &bgp, 300, 1);
    assert_eq!(a, GOLDEN[0][0][0][0]);
    assert_ne!(a, cell_hash(GrowthScenario::Baseline, &bgp, 300, 4));
}
