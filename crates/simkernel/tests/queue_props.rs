//! Property-based tests for the counting event queue: delivery order
//! against a sorted oracle, and conservation of the op counters.

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventKey, EventQueue, QueueOpCounts, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a script: pop, or push a burst through one of the
/// queue's two entry points.
#[derive(Clone, Copy, Debug)]
enum Step {
    Pop,
    /// `EventQueue::schedule`.
    Schedule,
    /// `EventQueue::schedule_in_order`, at a time drawn like any other —
    /// so often *before* the lane's last entry, where the push must fall
    /// into the heap.
    InOrder,
}

/// Scripts that pop half the time and split the pushes evenly.
fn steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop::sample::select(vec![Step::Pop, Step::Pop, Step::Schedule, Step::InOrder]),
        len,
    )
}

/// The sorted-oracle property on an interleaved trace: per `script`
/// step either pop (it must be the oracle's `(time, seq)` minimum) or
/// push a burst of one to three same-time events `delay(g)` after
/// `now`, onto the heap or the in-order lane as the step says; then
/// drain, or with `drain == false` stop at a `run_until`-style deadline
/// with events left pending. Returns the number of events scheduled.
fn drive_against_oracle(
    q: &mut EventQueue<u64>,
    g: &mut Xoshiro256StarStar,
    script: &[Step],
    delay: impl Fn(&mut Xoshiro256StarStar) -> SimDuration,
    drain: bool,
) -> u64 {
    let mut oracle: BTreeSet<(SimTime, u64)> = BTreeSet::new();
    let mut scheduled = 0u64;
    for &step in script {
        if let Step::Pop = step {
            assert_eq!(q.pop(), oracle.pop_first(), "pop disagrees with the sorted oracle");
        } else {
            let time = q.now() + delay(g);
            for _ in 0..1 + g.next_below(3) {
                match step {
                    Step::InOrder => q.schedule_in_order(time, scheduled),
                    _ => q.schedule(time, scheduled),
                }
                oracle.insert((time, scheduled));
                scheduled += 1;
            }
        }
        assert_eq!(q.len(), oracle.len());
        assert_eq!(q.peek_time(), oracle.first().map(|&(time, _)| time));
    }
    let deadline = q.now() + SimDuration::from_secs(1);
    while q.peek_time().is_some_and(|t| drain || t <= deadline) {
        assert_eq!(q.pop(), oracle.pop_first(), "pop disagrees with the sorted oracle");
    }
    assert_eq!(q.peek_time(), oracle.first().map(|&(time, _)| time));
    scheduled
}

/// The simulator's steady-state mix: near deliveries (µs–100 ms) and,
/// one time in four, a far MRAI expiry (30 s plus jitter).
fn mrai_like_delay(g: &mut Xoshiro256StarStar) -> SimDuration {
    if g.next_below(4) == 0 {
        SimDuration::from_secs(30) + SimDuration::from_micros(g.next_below(7_500_000))
    } else {
        SimDuration::from_micros(1 + g.next_below(100_000))
    }
}

proptest! {
    /// The pop sequence equals a stable sort of the scheduled
    /// `(time, insertion index)` pairs — the heap is just a lazy sorter.
    #[test]
    fn pop_order_matches_sorted_oracle(times in prop::collection::vec(0u64..500, 1..250)) {
        let mut q = EventQueue::new();
        let mut oracle: Vec<(SimTime, usize)> = Vec::with_capacity(times.len());
        for (idx, &t) in times.iter().enumerate() {
            let time = SimTime::from_micros(t);
            q.schedule(time, idx);
            oracle.push((time, idx));
        }
        // Stable by time; insertion index breaks ties, matching FIFO.
        oracle.sort_by_key(|&(time, idx)| (time, idx));
        let mut popped = Vec::with_capacity(oracle.len());
        while let Some(entry) = q.pop() {
            popped.push(entry);
        }
        prop_assert_eq!(popped, oracle);
    }

    /// Conservation: on a queue that is only pushed and popped,
    /// `pushes == pops + remaining` at every point in the workload.
    #[test]
    fn op_counters_are_conserved(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut q = EventQueue::new();
        for do_pop in script {
            if do_pop {
                let _ = q.pop();
            } else {
                q.schedule(q.now() + SimDuration::from_micros(g.next_below(1_000)), ());
            }
            let ops = q.op_counts();
            prop_assert_eq!(
                ops.pushes,
                ops.pops + q.len() as u64,
                "pushes {} != pops {} + remaining {}",
                ops.pushes,
                ops.pops,
                q.len()
            );
        }
    }

    /// Comparison and sift-move counts are deterministic: replaying the
    /// same seeded workload yields identical tallies.
    #[test]
    fn op_counters_replay_identically(seed in any::<u64>(), n in 1usize..400) {
        let run = |seed: u64, n: usize| {
            let mut g = Xoshiro256StarStar::new(seed);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(q.now() + SimDuration::from_micros(g.next_below(5_000)), i);
                if g.next_below(4) == 0 {
                    let _ = q.pop();
                }
            }
            while q.pop().is_some() {}
            q.op_counts()
        };
        prop_assert_eq!(run(seed, n), run(seed, n));
    }

    /// The sift work is real but bounded: a heap of n elements does at
    /// most ~2·n·log2(n)+n comparisons over a full push/pop cycle.
    #[test]
    fn comparison_count_is_loglinear(times in prop::collection::vec(0u64..10_000, 2..500)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_micros(t), ());
        }
        while q.pop().is_some() {}
        let ops = q.op_counts();
        let n = times.len() as u64;
        let log2n = 64 - n.leading_zeros() as u64;
        let bound = 4 * n * (log2n + 1);
        prop_assert!(
            ops.comparisons <= bound,
            "comparisons {} exceed 4·n·(log2(n)+1) = {bound} for n = {n}",
            ops.comparisons
        );
        prop_assert!(ops.decreases <= ops.comparisons, "every sift move was paid for by a comparison");
    }

    /// Dense same-time collisions on an interleaved trace: a four-tick
    /// horizon makes most events share a timestamp, so agreement with
    /// the oracle here is agreement of the FIFO tie-break — within the
    /// heap, within the lane, and between the two.
    #[test]
    fn interleaved_same_time_collisions_match_sorted_oracle(
        seed in any::<u64>(),
        script in steps(1..200),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut q = EventQueue::new();
        let horizon = |g: &mut Xoshiro256StarStar| SimDuration::from_micros(g.next_below(4));
        let scheduled = drive_against_oracle(&mut q, &mut g, &script, horizon, true);
        prop_assert_eq!(q.op_counts().pushes, scheduled);
        prop_assert_eq!(q.op_counts().pops, scheduled, "the drain empties the queue");
    }

    /// Far timers (30 s ahead of a µs-scale clock) among near deliveries
    /// pop in oracle order too. A far time pushed in order parks the
    /// lane's tail 30 s out, so the near in-order pushes behind it are
    /// the out-of-order ones that land in the heap.
    #[test]
    fn mrai_like_mix_matches_sorted_oracle(
        seed in any::<u64>(),
        script in steps(1..250),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut q = EventQueue::new();
        let scheduled = drive_against_oracle(&mut q, &mut g, &script, mrai_like_delay, true);
        prop_assert_eq!(q.op_counts().pushes, scheduled);
        prop_assert_eq!(q.op_counts().pops, scheduled, "the drain empties the queue");
    }

    /// The simulator's use of the lane: every in-order push is one
    /// constant delay after the clock, so none of them is ever out of
    /// order, while the heap takes the jittered rest. Oracle order, and
    /// the lane's entries are never sifted: the comparisons fit the
    /// log-linear bound of the heap's share alone, plus one per pop.
    #[test]
    fn constant_delay_lane_beside_a_jittered_heap_matches_sorted_oracle(
        seed in any::<u64>(),
        script in steps(1..250),
    ) {
        let link = SimDuration::from_millis(2);
        let mut g = Xoshiro256StarStar::new(seed);
        let mut q = EventQueue::new();
        let mut heap_pushes = 0u64;
        let mut oracle: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut scheduled = 0u64;
        for &step in &script {
            match step {
                Step::Pop => prop_assert_eq!(q.pop(), oracle.pop_first()),
                Step::InOrder => {
                    q.schedule_in_order(q.now() + link, scheduled);
                    oracle.insert((q.now() + link, scheduled));
                    scheduled += 1;
                }
                Step::Schedule => {
                    let time = q.now() + mrai_like_delay(&mut g);
                    q.schedule(time, scheduled);
                    heap_pushes += 1;
                    oracle.insert((time, scheduled));
                    scheduled += 1;
                }
            }
        }
        while let Some(popped) = q.pop() {
            prop_assert_eq!(Some(popped), oracle.pop_first());
        }
        prop_assert!(oracle.is_empty());
        let ops = q.op_counts();
        prop_assert_eq!((ops.pushes, ops.pops), (scheduled, scheduled));
        let log2h = 64 - heap_pushes.leading_zeros() as u64;
        prop_assert!(
            ops.comparisons <= 4 * heap_pushes * (log2h + 1) + ops.pops,
            "lane entries were sifted: {ops:?} with {heap_pushes} heap pushes"
        );
        prop_assert!(ops.decreases <= ops.comparisons);
    }

    /// A key reserved now and scheduled under later pops where a
    /// `schedule` at reservation time would have put the event; a key
    /// never scheduled under leaves every other event where it was. Two
    /// queues run one script: `eager` schedules every timer at once,
    /// `lazy` reserves its key and puts the event there at some later
    /// step, or (one timer in two) never — then the clock is moved past
    /// the key by hand where `eager` pops the event.
    #[test]
    fn reserve_then_schedule_under_the_key_pops_where_schedule_would_have(
        seed in any::<u64>(),
        script in steps(1..250),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let (mut eager, mut lazy) = (EventQueue::new(), EventQueue::new());
        // Per timer id: its key, and whether `lazy` still owes the event.
        let mut timers: Vec<(EventKey, Option<bool>)> = Vec::new();
        let mut never_scheduled = 0u64;
        let pop_both = |eager: &mut EventQueue<u64>,
                            lazy: &mut EventQueue<u64>,
                            timers: &mut Vec<(EventKey, Option<bool>)>| {
            // What `eager` is about to pop may be a timer `lazy` has not
            // scheduled yet: settle every one due by then.
            let due = eager.peek_time();
            for (id, (key, owed)) in timers.iter_mut().enumerate() {
                if *owed == Some(true) && due.is_some_and(|t| key.time <= t) {
                    lazy.schedule_reserved(*key, id as u64);
                    *owed = None;
                }
            }
            let Some((time, id)) = eager.pop() else {
                assert_eq!(lazy.pop(), None);
                return false;
            };
            match timers.get(id as usize) {
                Some(&(key, Some(false))) => lazy.advance_to(key),
                _ => assert_eq!(lazy.pop(), Some((time, id)), "lazy pops out of eager's order"),
            }
            assert_eq!(lazy.last_key(), eager.last_key());
            true
        };
        for &step in &script {
            match step {
                Step::Pop => {
                    pop_both(&mut eager, &mut lazy, &mut timers);
                }
                Step::InOrder => {
                    // A message: both sides alike, ids past the timers'.
                    let time = eager.now() + SimDuration::from_millis(2);
                    eager.schedule_in_order(time, u64::MAX);
                    lazy.schedule_in_order(time, u64::MAX);
                }
                Step::Schedule => {
                    let time = eager.now() + mrai_like_delay(&mut g);
                    let id = timers.len() as u64;
                    eager.schedule(time, id);
                    let key = lazy.reserve(time);
                    let scheduled_later = g.next_below(2) == 0;
                    never_scheduled += u64::from(!scheduled_later);
                    timers.push((key, Some(scheduled_later)));
                }
            }
            // Now and then an owed event is put under its key.
            if let Some((id, (key, owed))) = timers
                .iter_mut()
                .enumerate()
                .find(|(_, (_, owed))| *owed == Some(true) && g.next_below(3) == 0)
            {
                lazy.schedule_reserved(*key, id as u64);
                *owed = None;
            }
        }
        while pop_both(&mut eager, &mut lazy, &mut timers) {}
        prop_assert!(lazy.is_empty());
        prop_assert_eq!(lazy.now(), eager.now());
        let (e, l) = (eager.op_counts(), lazy.op_counts());
        prop_assert_eq!((l.pushes, l.pops), (e.pushes - never_scheduled, e.pops - never_scheduled));
    }

    /// Reuse across `reset`: a queue that is reset — after a full drain
    /// or with far timers still pending — pops like a fresh one, each
    /// round costs it exactly the ops a fresh queue pays (sequence
    /// numbers keep growing; only their order matters), and the
    /// tallies stay monotone across the reset.
    #[test]
    fn reset_then_reuse_pops_like_a_fresh_queue(
        seed in any::<u64>(),
        rounds in prop::collection::vec((steps(1..120), any::<bool>()), 2..5),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut reused = EventQueue::new();
        for (script, drain) in &rounds {
            let before = reused.op_counts();
            let mut replay = g.clone();
            drive_against_oracle(&mut reused, &mut g, script, mrai_like_delay, *drain);
            let mut fresh = EventQueue::new();
            drive_against_oracle(&mut fresh, &mut replay, script, mrai_like_delay, *drain);
            let after = reused.op_counts();
            let paid = QueueOpCounts {
                pushes: after.pushes - before.pushes,
                pops: after.pops - before.pops,
                decreases: after.decreases - before.decreases,
                comparisons: after.comparisons - before.comparisons,
            };
            prop_assert_eq!(paid, fresh.op_counts(), "a reused queue's round costs what a new queue's does");
            reused.reset();
            prop_assert!(reused.is_empty());
            prop_assert_eq!(reused.now(), SimTime::ZERO);
            prop_assert_eq!(reused.popped(), 0);
            prop_assert_eq!(reused.op_counts(), after, "reset keeps the tallies");
        }
    }
}
