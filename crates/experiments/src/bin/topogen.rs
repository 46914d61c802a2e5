//! `topogen` — generate, validate and export AS-level topologies.
//!
//! A standalone tool around `bgpscale-topology` for downstream use
//! (feeding other simulators, plotting degree distributions, rendering
//! sketches):
//!
//! ```text
//! topogen <scenario> <n> [--seed S] [--format summary|dot|edges|ccdf]
//!
//! scenarios: BASELINE, NO-MIDDLE, RICH-MIDDLE, STATIC-MIDDLE,
//!            TRANSIT-CLIQUE, DENSE-CORE, DENSE-EDGE, TREE, CONSTANT-MHD,
//!            NO-PEERING, STRONG-CORE-PEERING, STRONG-EDGE-PEERING,
//!            PREFER-MIDDLE, PREFER-TOP   (case-insensitive, `_` ok)
//!
//! formats:
//!   summary  population, links, stable-property metrics, the generator's
//!            work counters and the generate / validate wall times (default)
//!   dot      Graphviz DOT on stdout
//!   edges    CSV: src,dst,relationship (each link once, from the
//!            customer / lower-id-peer side)
//!   ccdf     CSV: degree,fraction_ge (log-log plottable)
//! ```

#![forbid(unsafe_code)]

use bgpscale_simkernel::Stopwatch;
use bgpscale_topology::generator::generate_with_stats;
use bgpscale_topology::metrics::{
    degree_assortativity, degree_ccdf, TopologySummary,
};
use bgpscale_topology::validate::validate;
use bgpscale_topology::{GrowthScenario, NodeType, Relationship};

fn usage() -> ! {
    eprintln!(
        "usage: topogen <scenario> <n> [--seed S] [--format summary|dot|edges|ccdf]\n\
         scenarios: {}",
        GrowthScenario::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scenario = args
        .next()
        .and_then(|s| GrowthScenario::from_name(&s))
        .unwrap_or_else(|| usage());
    let n: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let mut seed = 42u64;
    let mut format = "summary".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--format" => format = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let watch = Stopwatch::start();
    let (g, stats) = generate_with_stats(&scenario.params(n), seed);
    let generate_s = watch.elapsed_secs_f64();
    let watch = Stopwatch::start();
    let validated = validate(&g);
    let validate_s = watch.elapsed_secs_f64();
    if let Err(violations) = validated {
        eprintln!("generated topology FAILED validation ({} violations):", violations.len());
        for v in violations.iter().take(5) {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }

    match format.as_str() {
        "summary" => {
            let s = TopologySummary::compute(&g, seed);
            println!("scenario        : {scenario}");
            println!("n               : {} (T={} M={} CP={} C={})",
                s.n, s.population[0], s.population[1], s.population[2], s.population[3]);
            println!("links           : {} transit + {} peering", s.transit_links, s.peer_links);
            println!("mean MHD        : M={:.2} CP={:.2} C={:.2}",
                s.mean_mhd[1], s.mean_mhd[2], s.mean_mhd[3]);
            println!("max degree      : {}", s.max_degree);
            println!("clustering      : {:.3}", s.clustering);
            println!("avg path length : {:.2} hops (valley-free)", s.avg_path_length);
            println!("assortativity   : {:.3}", degree_assortativity(&g));
            println!("generator work  : {} draws ({} rejected), {} weight updates, {} ancestry checks",
                stats.draws, stats.rejected_draws, stats.weight_updates, stats.ancestry_checks);
            println!("generate        : {generate_s:.3} s ({:.2} us/link)",
                generate_s * 1e6 / g.link_count().max(1) as f64);
            println!("validate        : {validate_s:.3} s");
            println!("validation      : OK");
        }
        "dot" => print!("{}", g.to_dot()),
        "edges" => {
            println!("src,dst,relationship");
            for id in g.node_ids() {
                for nb in g.neighbors(id) {
                    let emit = match nb.rel {
                        Relationship::Provider => true,
                        Relationship::Peer => id < nb.id,
                        Relationship::Customer => false,
                    };
                    if emit {
                        let rel = match nb.rel {
                            Relationship::Provider => "customer-provider",
                            Relationship::Peer => "peer-peer",
                            Relationship::Customer => unreachable!(),
                        };
                        println!("{},{},{rel}", id.0, nb.id.0);
                    }
                }
            }
        }
        "ccdf" => {
            println!("degree,fraction_ge");
            for (d, f) in degree_ccdf(&g) {
                println!("{d},{f}");
            }
        }
        _ => usage(),
    }

    // Exit code sanity: a topology with no stubs would be useless for
    // churn studies; flag it loudly (TRANSIT-CLIQUE etc. still have stubs).
    if g.count_of_type(NodeType::C) == 0 {
        bgpscale_obs::log!(Info, "warning: no C-type stubs in this instance");
    }
}
