//! The steady state of a cell is (nearly) allocation-free and does not
//! grow.
//!
//! The harness runs every C-event of a worker on one recycled simulator.
//! This test runs six BASELINE n=1000 events that way under simkernel's
//! counting allocator and holds two lines:
//!
//! * events 2..6 allocate at most 0.2 times per delivered UPDATE (cloning
//!   a simulator per event and allocating per visited neighbour read 4.4;
//!   an `Arc<[AsId]>` per export path still read 0.67; with paths
//!   hash-consed into the simulator's arena what remains is buffer
//!   growth, a handful of allocations per event);
//! * the live heap after event 6 is within 10 % of the live heap after
//!   event 1 — recycling keeps buffers, and a buffer that only ever grows
//!   to the union of every event's bursts would show here.
//!
//! One test per file: the allocator's counters are process-global, and a
//! second test on another thread would be counted too. CI runs it with
//! `--release`; it holds in debug builds as well.

use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::SimTemplate;
use bgpscale_simkernel::alloc::{snapshot, CountingAlloc};
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_topology::{generate, GrowthScenario, NodeType};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: usize = 6;
const MAX_ALLOCS_PER_DELIVERY: f64 = 0.2;
const MAX_LIVE_GROWTH: f64 = 1.1;

#[test]
fn recycled_events_allocate_little_and_do_not_ratchet() {
    let graph = Arc::new(generate(GrowthScenario::Baseline, 1000, 0x2008));
    let c_nodes = graph.nodes_of_type(NodeType::C);
    let template = SimTemplate::new(Arc::clone(&graph), BgpConfig::no_wrate());
    let mut sim = template.instantiate(hash64_pair(1, 0));

    let counters = || snapshot().expect("the counting allocator is installed");
    let mut live_after = Vec::new();
    let (mut allocs, mut deliveries) = (0u64, 0u64);
    for k in 0..EVENTS {
        // Originators spread over the stub range, as the harness's
        // shuffle spreads them.
        let origin = c_nodes[k * (c_nodes.len() - 1) / (EVENTS - 1)];
        let (heap, work) = (counters(), sim.cost_counts());
        if k > 0 {
            sim.recycle(hash64_pair(1, k as u64));
        }
        run_c_event(&mut sim, origin, Prefix(k as u32)).expect("the event converges");
        live_after.push(counters().current_bytes);
        if k > 0 {
            allocs += counters().delta_since(&heap).allocs;
            deliveries += sim.cost_counts().since(&work).deliveries;
        }
    }

    assert!(
        deliveries > 20_000,
        "five n=1000 events deliver only {deliveries} updates"
    );
    let per_delivery = allocs as f64 / deliveries as f64;
    assert!(
        per_delivery <= MAX_ALLOCS_PER_DELIVERY,
        "{allocs} allocations for {deliveries} deliveries on a recycled simulator: \
         {per_delivery:.2} per delivery, limit {MAX_ALLOCS_PER_DELIVERY}"
    );
    let (first, last) = (live_after[0] as f64, live_after[EVENTS - 1] as f64);
    assert!(
        last <= MAX_LIVE_GROWTH * first,
        "live heap grew from {first} B after event 1 to {last} B after event {EVENTS} \
         ({live_after:?}): a recycled buffer is ratcheting"
    );
    println!(
        "allocs/delivery {per_delivery:.4} ({allocs} allocations, {deliveries} deliveries), \
         live bytes after each event {live_after:?}"
    );
}
