//! Pins `AsPath::prepended` to one heap allocation per call.
//!
//! The export path is built once per best-route change — 26k times per
//! n=5000 C-event — so a second allocation (a `Vec` copied into the
//! `Arc<[AsId]>`) is paid on the hot path. This file holds a single test
//! because the counters of simkernel's counting allocator are
//! process-global: a second test running on another thread would be
//! counted too.

use std::hint::black_box;

use bgpscale_bgp::AsPath;
use bgpscale_simkernel::alloc::{snapshot, CountingAlloc};
use bgpscale_topology::AsId;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn prepended_allocates_exactly_once() {
    const CALLS: u64 = 1000;
    let tail: Vec<AsId> = (1..6).map(AsId).collect();
    let mut built = Vec::with_capacity(CALLS as usize);
    let before = snapshot().expect("the counting allocator is installed");
    for i in 0..CALLS {
        built.push(AsPath::prepended(AsId(i as u32 + 100), black_box(&tail)));
    }
    let after = snapshot().expect("the counting allocator is installed");
    let made = after.delta_since(&before);
    assert_eq!(
        made.allocs, CALLS,
        "one exact-size Arc<[AsId]> per export path"
    );
    assert_eq!(built[7].as_slice()[0], AsId(107));
    assert_eq!(&built[7].as_slice()[1..], tail.as_slice());
    // Arc header (two counters) plus six 4-byte hops, nothing else.
    let exact = 2 * std::mem::size_of::<usize>() + 6 * std::mem::size_of::<AsId>();
    assert_eq!(made.bytes_allocated, CALLS * exact as u64);
}
