//! Property tests pinning the timing wheel to the binary-heap oracle.
//!
//! The artifact byte-identity contract rests on the two queue backends
//! delivering the *same* `(time, seq)` pop sequence for any trace. The
//! heap's order is easy to trust (it sorts by the key directly); these
//! properties drive both backends with identical workloads — including
//! deliberate same-time bursts and interleaved mid-drain schedules —
//! and require exact agreement, plus conservation of the wheel's own
//! op counters (`cascades` included).

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventQueue, QueueBackend, SimDuration};
use proptest::prelude::*;

/// Drives a wheel (with the given slot width) and a heap through the
/// same seeded workload, asserting pointwise pop equality throughout.
fn drive_pair(
    slot_bits: u32,
    seed: u64,
    script: &[bool],
    horizon: u64,
) -> (bgpscale_simkernel::QueueOpCounts, u64) {
    let mut g = Xoshiro256StarStar::new(seed);
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel { slot_bits });
    let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
    let mut scheduled = 0u64;
    for &do_pop in script {
        if do_pop {
            assert_eq!(wheel.pop(), heap.pop(), "mid-trace pop disagreement");
        } else {
            // Burst same-time events every few steps so FIFO tie-breaks
            // are exercised, not just distinct timestamps.
            let burst = 1 + g.next_below(3);
            let dt = SimDuration::from_micros(g.next_below(horizon));
            for _ in 0..burst {
                wheel.schedule(wheel.now() + dt, scheduled);
                heap.schedule(heap.now() + dt, scheduled);
                scheduled += 1;
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.now(), heap.now());
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain pop disagreement");
        if a.is_none() {
            break;
        }
    }
    (wheel.op_counts(), scheduled)
}

proptest! {
    /// Exact pop-order parity on random interleaved traces, across
    /// several slot widths (1 bit stresses cascading hardest; 8 is the
    /// production default).
    #[test]
    fn wheel_matches_heap_on_random_traces(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..250),
        slot_bits in prop::sample::select(vec![1u32, 3, 8]),
    ) {
        drive_pair(slot_bits, seed, &script, 1_000_000);
    }

    /// Dense same-time collisions: a tiny horizon forces most events to
    /// share ticks, so parity here is parity of the FIFO tie-break.
    #[test]
    fn wheel_matches_heap_under_same_time_collisions(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        drive_pair(8, seed, &script, 4);
    }

    /// Wheel-op counter conservation: every scheduled event is pushed
    /// exactly once and popped exactly once; insertion-sort moves never
    /// exceed their comparisons; and cascades are bounded by the number
    /// of levels an entry can descend through (levels × pushes).
    #[test]
    fn wheel_op_counters_are_conserved(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..250),
        slot_bits in prop::sample::select(vec![1u32, 4, 8]),
    ) {
        let (ops, scheduled) = drive_pair(slot_bits, seed, &script, 1_000_000);
        prop_assert_eq!(ops.pushes, scheduled);
        prop_assert_eq!(ops.pops, scheduled, "the drain empties the queue");
        prop_assert!(ops.decreases <= ops.comparisons, "every due-list shift was paid for by a comparison");
        let levels = 64u64.div_ceil(slot_bits as u64);
        prop_assert!(
            ops.cascades <= levels * ops.pushes,
            "cascades {} exceed levels({levels}) × pushes({})",
            ops.cascades,
            ops.pushes
        );
    }

    /// The wheel's counters are a pure function of the trace: replays
    /// agree field-for-field, including `cascades`.
    #[test]
    fn wheel_op_counters_replay_identically(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let (a, _) = drive_pair(8, seed, &script, 250_000);
        let (b, _) = drive_pair(8, seed, &script, 250_000);
        prop_assert_eq!(a, b);
    }
}

/// Far-future timers (MRAI-like, ~30 s ahead of a µs-scale cursor) land
/// many levels up; parity must survive the deep cascades down.
#[test]
fn wheel_matches_heap_on_mrai_like_load() {
    let mut g = Xoshiro256StarStar::new(0x2008_0612);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
    for i in 0..3_000u64 {
        // A mix of near deliveries (µs–ms) and far MRAI expiries (~30 s
        // with jitter), like the simulator's steady state.
        let dt = if g.next_below(4) == 0 {
            SimDuration::from_secs(30) + SimDuration::from_micros(g.next_below(7_500_000))
        } else {
            SimDuration::from_micros(1 + g.next_below(100_000))
        };
        wheel.schedule(wheel.now() + dt, i);
        heap.schedule(heap.now() + dt, i);
        if i % 2 == 0 {
            assert_eq!(wheel.pop(), heap.pop());
        }
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert!(wheel.op_counts().cascades > 0, "far timers must cascade");
}

/// One round of a reuse trace: schedule/pop per `script`, then either
/// drain to empty or stop at a `run_until`-style deadline with events
/// still pending. Pops are compared pointwise across all three queues.
fn reuse_round(
    queues: &mut [&mut EventQueue<u64>; 3],
    g: &mut Xoshiro256StarStar,
    script: &[bool],
    drain: bool,
) {
    let mut scheduled = 0u64;
    for &do_pop in script {
        if do_pop {
            let [a, b, c] = queues.each_mut().map(|q| q.pop());
            assert_eq!(a, b, "reused wheel disagrees with the heap");
            assert_eq!(a, c, "reused wheel disagrees with a fresh wheel");
        } else {
            // Near deliveries and far (MRAI-like) timers, so a partial
            // drain leaves entries parked in the upper levels.
            let dt = if g.next_below(4) == 0 {
                SimDuration::from_secs(30) + SimDuration::from_micros(g.next_below(7_500_000))
            } else {
                SimDuration::from_micros(g.next_below(50_000))
            };
            for q in queues.iter_mut() {
                q.schedule(q.now() + dt, scheduled);
            }
            scheduled += 1;
        }
    }
    if drain {
        loop {
            let [a, b, c] = queues.each_mut().map(|q| q.pop());
            assert_eq!(a, b);
            assert_eq!(a, c);
            if a.is_none() {
                break;
            }
        }
    } else {
        // run_until: pop while the next event is due by the deadline.
        let deadline = queues[0].now() + SimDuration::from_secs(1);
        while queues[0].peek_time().is_some_and(|t| t <= deadline) {
            let [a, b, c] = queues.each_mut().map(|q| q.pop());
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
        for q in queues.iter() {
            assert_eq!(q.peek_time(), queues[0].peek_time());
        }
    }
}

proptest! {
    /// Queue reuse across `reset`: a wheel that is reset and reused —
    /// after a full drain or with a `run_until`-style partial drain
    /// leaving events pending in every level — pops exactly what the heap
    /// pops, and each round costs it exactly the ops a brand-new wheel
    /// pays for the same round. (ROADMAP item 5.)
    #[test]
    fn wheel_parity_survives_reset_and_reuse(
        seed in any::<u64>(),
        rounds in prop::collection::vec(
            (prop::collection::vec(any::<bool>(), 1..120), any::<bool>()),
            2..5,
        ),
        slot_bits in prop::sample::select(vec![2u32, 8]),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut reused: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel { slot_bits });
        let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
        for (script, drain) in &rounds {
            let mut fresh: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel { slot_bits });
            let before = reused.op_counts();
            reuse_round(&mut [&mut reused, &mut heap, &mut fresh], &mut g, script, *drain);
            let after = reused.op_counts();
            let paid = bgpscale_simkernel::QueueOpCounts {
                pushes: after.pushes - before.pushes,
                pops: after.pops - before.pops,
                decreases: after.decreases - before.decreases,
                comparisons: after.comparisons - before.comparisons,
                cascades: after.cascades - before.cascades,
            };
            prop_assert_eq!(paid, fresh.op_counts(), "a reused wheel's round must cost what a new wheel's does");
            prop_assert_eq!(reused.len(), heap.len());
            reused.reset();
            heap.reset();
            prop_assert!(reused.is_empty());
            prop_assert_eq!(reused.now(), heap.now());
            prop_assert_eq!(reused.popped(), 0);
            prop_assert_eq!(reused.op_counts(), after, "reset keeps the tallies");
        }
    }
}
