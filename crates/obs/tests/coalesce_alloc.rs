//! Pins the cost of MRAI coalescing in an observed run to a merge and a
//! lookup: once a union of root causes is interned, coalescing into it
//! again allocates nothing.
//!
//! Flap storms and L-events coalesce on every displaced queued update, and
//! they fold the same few causes together over and over. The union is
//! merged into a scratch list the [`RootSets`] table keeps, and a known
//! union is found by binary search. This file holds a single test because
//! the counters of simkernel's counting allocator are process-global: a
//! second test running on another thread would be counted too.

#![expect(
    clippy::disallowed_methods,
    reason = "the allocator counters are what this test reads"
)]

use bgpscale_obs::{Provenance, RootSets, Stamp};
use bgpscale_simkernel::alloc::{snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn coalescing_into_known_root_sets_allocates_nothing() {
    const ROUNDS: u32 = 1000;
    let mut sets = RootSets::new();
    let pair = {
        let mut pair = Provenance::root(9);
        pair.coalesce_with(&Provenance::root(3), &mut sets);
        pair
    };
    // The coalesces the loop repeats, one of each shape: two single
    // roots, a set and a root, a root and a set, a set and one of its own
    // roots. Each yields `{3, 9}` or `{3, 5, 9}`.
    let shape = |round: u32| match round % 4 {
        0 => (Provenance::root(3), Provenance::root(9)),
        1 => (pair, Provenance::root(5)),
        2 => (Provenance::root(5), pair),
        _ => (pair, Provenance::root(9)),
    };
    let coalesce = |round: u32, sets: &mut RootSets| {
        let (mut newest, displaced) = shape(round);
        newest.coalesce_with(&displaced, sets);
        newest.roots(sets).len()
    };
    let first: Vec<usize> = (0..4).map(|round| coalesce(round, &mut sets)).collect();
    assert_eq!(first, [2, 3, 3, 2]);
    assert_eq!(sets.len(), 2);

    let before = snapshot().expect("the counting allocator is installed");
    let roots: usize = (0..ROUNDS).map(|round| coalesce(round, &mut sets)).sum();
    let made = snapshot()
        .expect("the counting allocator is installed")
        .delta_since(&before);
    assert_eq!(
        roots,
        5 * ROUNDS as usize / 2,
        "the same unions as the first time"
    );
    assert_eq!(sets.len(), 2, "found, not interned again");
    assert_eq!(made.allocs, 0, "{ROUNDS} coalesces into a known set");
}
