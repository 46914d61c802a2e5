//! Topology inspector: generate an instance, validate every structural
//! invariant, and measure the paper's four "stable properties" (§3).
//!
//! Optionally writes a Graphviz sketch:
//!
//! ```sh
//! cargo run --release --example inspect_topology            # summary
//! cargo run --release --example inspect_topology -- 2000 7  # n, seed
//! ```

use std::process::ExitCode;

use bgpscale::prelude::*;
use bgpscale::stats::powerlaw::fit_power_law_auto;
use bgpscale::topology::metrics::{degree_sequence, TopologySummary};
use bgpscale::topology::validate::validate;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    let graph = generate(GrowthScenario::Baseline, n, seed);
    match validate(&graph) {
        Ok(()) => println!("validation: OK (all structural invariants hold)"),
        Err(violations) => {
            println!("validation: {} violations!", violations.len());
            for v in violations.iter().take(10) {
                println!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }

    let summary = TopologySummary::compute(&graph, seed);
    println!("\nTopology summary (n = {n}, seed = {seed}):");
    println!(
        "  population        : T={} M={} CP={} C={}",
        summary.population[0], summary.population[1], summary.population[2], summary.population[3]
    );
    println!(
        "  links             : {} transit, {} peering",
        summary.transit_links, summary.peer_links
    );
    println!(
        "  multihoming (mean): M={:.2} CP={:.2} C={:.2}",
        summary.mean_mhd[1], summary.mean_mhd[2], summary.mean_mhd[3]
    );

    println!("\nThe four stable properties (§3):");
    println!("  1. hierarchy          : provider relation acyclic (validated)");
    let degrees = degree_sequence(&graph);
    match fit_power_law_auto(&degrees, 50) {
        Some(fit) => println!(
            "  2. power-law degrees  : α ≈ {:.2} for k ≥ {} (KS = {:.3}); max degree {} vs mean {:.1}",
            fit.alpha, fit.k_min, fit.ks, degrees[0], summary.mean_degree
        ),
        None => println!("  2. power-law degrees  : sample too small to fit"),
    }
    println!("  3. strong clustering  : C = {:.3}", summary.clustering);
    println!(
        "  4. constant path length: {:.2} AS hops (valley-free)",
        summary.avg_path_length
    );
    ExitCode::SUCCESS
}
