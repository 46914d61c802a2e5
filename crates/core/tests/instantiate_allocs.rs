//! Instantiating a simulator, and running its first C-event, allocate a
//! number of times that does not grow with the network.
//!
//! Every route of a simulator lives in the simulator-wide columns of one
//! `bgpscale_bgp::RouteSlab` and every queued message in one pooled inbox,
//! so building a simulator is a fixed handful of allocations whatever n
//! is — where one `BgpNode` per AS, with its own output-queue and liveness
//! `Vec`s, made 2n + 7 — and the first event grows each column once or
//! doubles a buffer a few times more at a bigger n, where six per-node
//! prefix-table columns and a per-node inbox buffer made about seven
//! allocations per node.
//!
//! One test per file: the counters of simkernel's counting allocator are
//! process-global, and a second test on another thread would be counted
//! too. CI runs it with `--release`; it holds in debug builds as well.

#![expect(
    clippy::disallowed_methods,
    reason = "the allocator counters are what this test reads"
)]

use std::sync::Arc;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::SimTemplate;
use bgpscale_simkernel::alloc::{snapshot, CountingAlloc};
use bgpscale_topology::{generate, GrowthScenario, NodeType};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of `instantiate` at any n. The event queue's pool and link
/// column are two of them, the route columns' one per-session column a
/// third; the wire, an empty `VecDeque` until the first message is sent,
/// is none, and so are the per-(row, session) columns until the first row.
const INSTANTIATE_ALLOCS: u64 = 7;

/// How many more allocations a first event at n = 4000 may make than one
/// at n = 1000: room for a few more doublings of the buffers that grow
/// with an event's traffic (event queue, wire, inbox pool, path arena).
const FIRST_EVENT_GROWTH: u64 = 64;

/// Allocations of `template.instantiate` and of the first C-event on the
/// simulator it returns, on a BASELINE topology of `n` nodes.
fn allocations_at(n: usize) -> (u64, u64) {
    let graph = Arc::new(generate(GrowthScenario::Baseline, n, 0x2008));
    let origin = graph.nodes_of_type(NodeType::C)[0];
    let template = SimTemplate::new(graph, BgpConfig::no_wrate());
    let counters = || snapshot().expect("the counting allocator is installed");

    let before = counters();
    let mut sim = template.instantiate(7);
    let instantiate = counters().delta_since(&before).allocs;
    let before = counters();
    run_c_event(&mut sim, origin, Prefix(0)).expect("the event converges");
    (instantiate, counters().delta_since(&before).allocs)
}

#[test]
fn instantiating_and_the_first_event_allocate_independently_of_n() {
    let (small, large) = (allocations_at(1000), allocations_at(4000));
    println!(
        "n = 1000: instantiate {}, first event {}; n = 4000: instantiate {}, first event {}",
        small.0, small.1, large.0, large.1
    );
    assert_eq!(small.0, INSTANTIATE_ALLOCS, "instantiate allocates a fixed handful of times");
    assert_eq!(
        large.0, small.0,
        "instantiate allocates {} times at n = 1000 but {} at n = 4000: something is allocated per node",
        small.0, large.0
    );
    assert!(
        large.1 <= small.1 + FIRST_EVENT_GROWTH,
        "the first event allocates {} times at n = 1000 but {} at n = 4000: more than \
         {FIRST_EVENT_GROWTH} more, so something is allocated per node",
        small.1,
        large.1
    );
}
