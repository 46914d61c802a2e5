//! What-if growth scenarios: how would different futures of the Internet
//! change BGP churn at tier-1 networks? (The §5 question.)
//!
//! Sweeps three contrasting growth models over increasing network sizes
//! and prints the Fig. 8/9-style comparison.
//!
//! ```sh
//! cargo run --release --example what_if_growth
//! ```

use bgpscale::prelude::*;

fn main() {
    let scenarios = [
        GrowthScenario::Baseline,
        GrowthScenario::DenseCore,    // providers multihome 3× harder
        GrowthScenario::ConstantMhd,  // multihoming stops growing
    ];
    let sizes = [1_000usize, 2_000, 3_000, 4_000];
    let events = 15;
    let seed = 0x2008_0612;

    println!("mean updates per C-event at tier-1 (T) nodes\n");
    print!("{:>6}", "n");
    for s in scenarios {
        print!("  {:>14}", s.name());
    }
    println!();

    for n in sizes {
        print!("{n:>6}");
        for scenario in scenarios {
            let cfg = ExperimentConfig::new(scenario, n, events, seed, BgpConfig::default());
            let report = run_experiment(&cfg);
            print!("  {:>14.2}", report.by_type(NodeType::T).u_total);
        }
        println!();
    }

    println!(
        "\nReading: DENSE-CORE grows fastest (meshed mid-tier providers multiply \
         updates); CONSTANT-MHD stays nearly flat — topology growth alone does \
         not increase per-event churn, growing *connectivity* does (§5.2)."
    );
}
