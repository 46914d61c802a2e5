//! Property-based tests for the counting event queue: delivery order
//! against a sorted oracle, conservation of the op counters, and each
//! lane's bounds on work and storage — the calendar ring's and the radix
//! heap's — for the queue alone and merged with a FIFO of messages kept
//! beside it, as the simulator keeps its wire.

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventKey, EventQueue, QueueOpCounts, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The one delay every message takes.
const LINK: SimDuration = SimDuration::from_millis(2);

/// The queue's near lane as these tests model it: slots of 32 µs, 4096
/// of them. A key whose slot is less than `RING_SLOTS` after the clock's
/// goes into the ring, every later one into the radix heap.
const SLOT_US: u64 = 32;
const RING_SLOTS: u64 = 4096;

/// The first time that goes into the radix heap while the clock stands
/// at `clock`.
fn horizon(clock: SimTime) -> SimTime {
    SimTime::from_micros((clock.as_micros() / SLOT_US + RING_SLOTS) * SLOT_US)
}

/// Which lane each pending event of a queue is in, and what each lane
/// may cost: the heap compares at most once per filing (a push or a
/// re-filed entry), and the ring examines at most the entries already on
/// the slot's chain when it inserts; the ring never moves an entry.
#[derive(Default)]
struct Lanes {
    /// Pending ring entries per slot.
    slots: BTreeMap<u64, u64>,
    /// The ids of the pending ring entries.
    near: BTreeSet<u64>,
    /// Events pushed into the heap.
    far_pushes: u64,
    /// Over every ring insertion: the entries its slot held.
    near_chains: u64,
}

impl Lanes {
    /// Event `id` at `time` was pushed while the clock stood at `clock`.
    fn push(&mut self, time: SimTime, clock: SimTime, id: u64) {
        if time < horizon(clock) {
            let chain = self.slots.entry(time.as_micros() / SLOT_US).or_default();
            self.near_chains += *chain;
            *chain += 1;
            self.near.insert(id);
        } else {
            self.far_pushes += 1;
        }
    }

    /// Event `id` at `time` popped.
    fn pop(&mut self, time: SimTime, id: u64) {
        if self.near.remove(&id) {
            let slot = time.as_micros() / SLOT_US;
            if let Some(chain) = self.slots.get_mut(&slot) {
                *chain -= 1;
            }
        }
    }

    /// Forgets the pending events and keeps the tallies, as a reset queue
    /// does.
    fn reset(&mut self) {
        self.slots.clear();
        self.near.clear();
    }

    /// The per-lane bounds on the queue's tallies `ops`.
    fn check(&self, ops: QueueOpCounts) {
        assert!(
            ops.comparisons <= self.far_pushes + ops.decreases + self.near_chains,
            "more than one comparison per heap filing plus one per ring entry on an insertion's \
             chain: {ops:?}, {} heap pushes, {} ring chain entries",
            self.far_pushes,
            self.near_chains
        );
        assert!(
            ops.decreases <= 128 * self.far_pushes,
            "an entry moved more than once per bit of its key, or a ring entry moved: {ops:?}, {} heap pushes",
            self.far_pushes
        );
    }
}

/// One step of a script: pop, or push a burst.
#[derive(Clone, Copy, Debug)]
enum Step {
    Pop,
    /// `EventQueue::schedule`, at a time the test draws.
    Schedule,
    /// A message one constant delay from now, on the FIFO beside the
    /// queue.
    Message,
}

/// Scripts that pop half the time and split the pushes evenly.
fn steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop::sample::select(vec![Step::Pop, Step::Pop, Step::Schedule, Step::Message]),
        len,
    )
}

/// The contract `core::sim` runs on: the queue beside a FIFO of events
/// whose keys come from `reserve` in FIFO order. A pop takes the earlier
/// of the FIFO's front and the queue's minimum — the queue's with
/// `pop_by` bounded by the front, the front's by taking its turn with
/// `advance_to` — and the FIFO's pushes, pops and merge comparisons (one
/// per pop that finds both sides non-empty) are counted beside the
/// queue's, as the simulator counts its wire's.
struct Merged {
    q: EventQueue<u64>,
    fifo: VecDeque<(EventKey, u64)>,
    /// The FIFO's share of the tallies (it re-buckets nothing).
    ops: QueueOpCounts,
    /// The lane of each event in the queue.
    lanes: Lanes,
}

impl Merged {
    fn new() -> Merged {
        Merged { q: EventQueue::new(), fifo: VecDeque::new(), ops: QueueOpCounts::ZERO, lanes: Lanes::default() }
    }

    /// Schedules `id` in the queue at `time`.
    fn schedule(&mut self, time: SimTime, id: u64) {
        self.lanes.push(time, self.q.now(), id);
        self.q.schedule(time, id);
    }

    /// Schedules `id` in the queue under the reserved `key`.
    fn schedule_reserved(&mut self, key: EventKey, id: u64) {
        self.lanes.push(key.time, self.q.now(), id);
        self.q.schedule_reserved(key, id);
    }

    /// Puts `id` on the FIFO at `time`, which is not before its back.
    fn send(&mut self, time: SimTime, id: u64) {
        let key = self.q.reserve(time);
        assert!(self.fifo.back().is_none_or(|&(back, _)| back.time <= time), "FIFO out of order");
        self.fifo.push_back((key, id));
        self.ops.pushes += 1;
    }

    /// Pops the earlier of the FIFO's front and the queue's minimum if its
    /// key is at or before `bound`.
    fn pop_by(&mut self, bound: EventKey) -> Option<(SimTime, u64)> {
        let front = self.fifo.front().copied();
        let queue_bound = front.map_or(bound, |(key, _)| key.min(bound));
        if let Some(popped) = self.q.pop_by(queue_bound) {
            self.ops.comparisons += u64::from(front.is_some());
            self.lanes.pop(popped.0, popped.1);
            return Some(popped);
        }
        let (key, id) = front.filter(|&(key, _)| key <= bound)?;
        self.fifo.pop_front();
        self.ops.comparisons += u64::from(!self.q.is_empty());
        self.ops.pops += 1;
        self.q.advance_to(key);
        Some((key.time, id))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_by(EventKey::NEVER)
    }

    fn len(&self) -> usize {
        self.q.len() + self.fifo.len()
    }

    fn peek_time(&self) -> Option<SimTime> {
        let front = self.fifo.front().map(|(key, _)| key.time);
        self.q.peek_time().into_iter().chain(front).min()
    }

    /// The queue's tallies plus the FIFO's.
    fn op_counts(&self) -> QueueOpCounts {
        let (q, f) = (self.q.op_counts(), self.ops);
        QueueOpCounts {
            pushes: q.pushes + f.pushes,
            pops: q.pops + f.pops,
            decreases: q.decreases,
            comparisons: q.comparisons + f.comparisons,
        }
    }

    fn reset(&mut self) {
        self.q.reset();
        self.fifo.clear();
        self.lanes.reset();
    }
}

/// The last key of `time`: `pop_by` with it is a `run_until`-style
/// deadline.
fn end_of(time: SimTime) -> EventKey {
    EventKey { time, seq: u64::MAX }
}

/// The sorted-oracle property on an interleaved trace: per `script`
/// step either pop (it must be the oracle's `(time, seq)` minimum) or
/// push a burst of one to three same-time events — into the queue
/// `delay(g)` after `now`, or onto the FIFO one link delay after it, as
/// the step says; then drain, or with `drain == false` stop at a
/// `run_until`-style deadline with events left pending. Returns the
/// number of events scheduled and the most that were pending at once.
fn drive_against_oracle(
    m: &mut Merged,
    g: &mut Xoshiro256StarStar,
    script: &[Step],
    delay: impl Fn(&mut Xoshiro256StarStar) -> SimDuration,
    drain: bool,
) -> (u64, usize) {
    let mut oracle: BTreeSet<(SimTime, u64)> = BTreeSet::new();
    let mut scheduled = 0u64;
    let mut peak = 0;
    for &step in script {
        if let Step::Pop = step {
            assert_eq!(m.pop(), oracle.pop_first(), "pop disagrees with the sorted oracle");
        } else {
            let now = m.q.now();
            let time = if let Step::Message = step { now + LINK } else { now + delay(g) };
            for _ in 0..1 + g.next_below(3) {
                match step {
                    Step::Message => m.send(time, scheduled),
                    _ => m.schedule(time, scheduled),
                }
                oracle.insert((time, scheduled));
                scheduled += 1;
            }
        }
        assert_eq!(m.len(), oracle.len());
        assert_eq!(m.peek_time(), oracle.first().map(|&(time, _)| time));
        peak = peak.max(m.len());
    }
    let deadline = if drain { SimTime::MAX } else { m.q.now() + SimDuration::from_secs(1) };
    while let Some(popped) = m.pop_by(end_of(deadline)) {
        assert_eq!(Some(popped), oracle.pop_first(), "pop disagrees with the sorted oracle");
    }
    assert!(oracle.first().is_none_or(|&(time, _)| time > deadline), "pop_by stopped early");
    assert_eq!(m.peek_time(), oracle.first().map(|&(time, _)| time));
    m.lanes.check(m.q.op_counts());
    (scheduled, peak)
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

    /// Comparison and re-bucketing counts are deterministic: replaying
    /// the same seeded workload yields identical tallies.
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

    /// The radix heap's bound: an entry only ever moves to a strictly
    /// lower bucket, and its bucket is named by the highest bit in which
    /// its key differs from the reference — a bit of the time when the
    /// times differ, of the sequence number when they are equal. The
    /// times are 2^20 µs (past the ring's 131 ms, so every key is the
    /// heap's) plus less than 2^14 µs: an entry is filed first by bit 20
    /// and, once the first pop made a reference of that bit too, by a bit
    /// below 14 of the time or below 9 of the sequence number (fewer than
    /// 2^9 keys). So it visits at most 1 + 14 + 9 buckets and moves at
    /// most 23 times, and each filing (push or move) costs at most one
    /// comparison.
    #[test]
    fn rebucketing_is_bounded_by_the_key_bits(times in prop::collection::vec(0u64..10_000, 2..500)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_micros((1 << 20) + t), ());
        }
        while q.pop().is_some() {}
        let ops = q.op_counts();
        let n = times.len() as u64;
        prop_assert!(ops.decreases <= 23 * n, "{} moves of {n} entries", ops.decreases);
        prop_assert!(
            ops.comparisons <= ops.pushes + ops.decreases,
            "more than one comparison per filing: {ops:?}"
        );
    }

    /// The ring's bound, on the same times less the offset (all within
    /// its 131 ms): no entry ever moves, and an insertion examines at most
    /// the entries of its 32 µs slot — here, with every key pushed before
    /// the first pop, those pushed before it into the slot.
    #[test]
    fn the_ring_never_moves_an_entry_and_examines_only_its_slot(
        times in prop::collection::vec(0u64..10_000, 2..500),
    ) {
        let mut q = EventQueue::new();
        let mut lanes = Lanes::default();
        for (id, &t) in times.iter().enumerate() {
            lanes.push(SimTime::from_micros(t), q.now(), id as u64);
            q.schedule(SimTime::from_micros(t), ());
        }
        prop_assert_eq!(lanes.far_pushes, 0);
        while q.pop().is_some() {}
        let ops = q.op_counts();
        prop_assert_eq!(ops.decreases, 0, "a ring entry moved");
        prop_assert!(ops.comparisons <= lanes.near_chains, "{ops:?}, {} chain entries", lanes.near_chains);
    }

    /// Dense same-time collisions on an interleaved trace: a four-tick
    /// horizon makes most events share a timestamp, so agreement with
    /// the oracle here is agreement of the FIFO tie-break — within the
    /// heap, within the FIFO, and between the two.
    #[test]
    fn interleaved_same_time_collisions_match_sorted_oracle(
        seed in any::<u64>(),
        script in steps(1..200),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let horizon = |g: &mut Xoshiro256StarStar| SimDuration::from_micros(g.next_below(4));
        let (scheduled, _) = drive_against_oracle(&mut m, &mut g, &script, horizon, true);
        prop_assert_eq!(m.op_counts().pushes, scheduled);
        prop_assert_eq!(m.op_counts().pops, scheduled, "the drain empties the queue");
    }

    /// Far timers (30 s ahead of a µs-scale clock) among near events and
    /// messages pop in oracle order too. After the drain the pool is no
    /// longer than the most events ever pending at once: popped slots are
    /// reused, never left behind.
    #[test]
    fn mrai_like_mix_matches_sorted_oracle(
        seed in any::<u64>(),
        script in steps(1..250),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let (scheduled, peak) = drive_against_oracle(&mut m, &mut g, &script, mrai_like_delay, true);
        prop_assert_eq!(m.op_counts().pushes, scheduled);
        prop_assert_eq!(m.op_counts().pops, scheduled, "the drain empties the queue");
        prop_assert!(m.q.pool_len() <= peak, "pool {} > peak pending {peak}", m.q.pool_len());
    }

    /// The simulator's wire: every message is one constant delay after
    /// the clock, on a FIFO beside the queue, while the queue takes the
    /// jittered rest. Oracle order, the messages never enter the queue
    /// (its pool is no longer than the pushes it took), and the
    /// comparisons are within each lane's bound plus one per merged pop.
    #[test]
    fn constant_delay_fifo_beside_a_jittered_heap_matches_sorted_oracle(
        seed in any::<u64>(),
        script in steps(1..250),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let mut oracle: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut scheduled = 0u64;
        for &step in &script {
            let now = m.q.now();
            match step {
                Step::Pop => prop_assert_eq!(m.pop(), oracle.pop_first()),
                Step::Message => {
                    m.send(now + LINK, scheduled);
                    oracle.insert((now + LINK, scheduled));
                    scheduled += 1;
                }
                Step::Schedule => {
                    let time = now + mrai_like_delay(&mut g);
                    m.schedule(time, scheduled);
                    oracle.insert((time, scheduled));
                    scheduled += 1;
                }
            }
        }
        while let Some(popped) = m.pop() {
            prop_assert_eq!(Some(popped), oracle.pop_first());
        }
        prop_assert!(oracle.is_empty());
        let (ops, queue) = (m.op_counts(), m.q.op_counts());
        prop_assert_eq!((ops.pushes, ops.pops), (scheduled, scheduled));
        prop_assert!(m.q.pool_len() as u64 <= queue.pushes, "messages were filed in the queue");
        m.lanes.check(queue);
        prop_assert!(m.ops.comparisons <= ops.pops, "{:?} merging {ops:?}", m.ops);
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
                Step::Message => {
                    // A message: both sides alike, ids past the timers'.
                    let time = eager.now() + LINK;
                    eager.schedule(time, u64::MAX);
                    lazy.schedule(time, u64::MAX);
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
    /// or with far timers still pending — pops like a fresh one, hands out
    /// a fresh one's keys, and each round costs it exactly the ops a fresh
    /// queue pays (the radix heap's work depends on the bits of the keys,
    /// so the sequence numbers restart); its pool starts over, and the
    /// tallies stay monotone across the reset.
    #[test]
    fn reset_then_reuse_pops_like_a_fresh_queue(
        seed in any::<u64>(),
        rounds in prop::collection::vec((steps(1..120), any::<bool>()), 2..5),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut reused = Merged::new();
        for (script, drain) in &rounds {
            let before = reused.op_counts();
            let mut replay = g.clone();
            drive_against_oracle(&mut reused, &mut g, script, mrai_like_delay, *drain);
            let mut fresh = Merged::new();
            drive_against_oracle(&mut fresh, &mut replay, script, mrai_like_delay, *drain);
            prop_assert_eq!(reused.q.last_key(), fresh.q.last_key(), "the same keys were handed out");
            prop_assert_eq!(reused.q.pool_len(), fresh.q.pool_len());
            let after = reused.op_counts();
            let paid = QueueOpCounts {
                pushes: after.pushes - before.pushes,
                pops: after.pops - before.pops,
                decreases: after.decreases - before.decreases,
                comparisons: after.comparisons - before.comparisons,
            };
            prop_assert_eq!(paid, fresh.op_counts(), "a reused queue's round costs what a new queue's does");
            reused.reset();
            prop_assert_eq!(reused.len(), 0);
            prop_assert_eq!(reused.q.now(), SimTime::ZERO);
            prop_assert_eq!(reused.q.popped(), 0);
            prop_assert_eq!(reused.q.pool_len(), 0);
            prop_assert_eq!(reused.op_counts(), after, "reset keeps the tallies");
        }
    }

    /// The simulator's timers against an oracle of keys: a timer reserves
    /// its key 22.5–30 s ahead and is scheduled under it later or never,
    /// beside messages on the FIFO and processing completions 1–100 ms
    /// ahead. The oracle holds `(key, id)` with the key a `schedule` at
    /// the same moment gets — the queue hands sequence numbers out in
    /// call order, one per `reserve` (a message's too) and `schedule` —
    /// so every pop must also leave `last_key` at the oracle's key.
    #[test]
    fn reserved_timers_beside_a_fifo_and_near_events_match_a_key_oracle(
        seed in any::<u64>(),
        script in prop::collection::vec(0u64..5, 1..300),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let mut oracle: BTreeSet<(EventKey, u64)> = BTreeSet::new();
        let mut reserved: Vec<EventKey> = Vec::new();
        let mut seq = 0u64;
        let mut next_key = |time: SimTime| {
            seq += 1;
            EventKey { time, seq: seq - 1 }
        };
        for (id, &step) in script.iter().enumerate() {
            let id = id as u64;
            match step {
                0 | 1 => {
                    let want = oracle.pop_first();
                    prop_assert_eq!(m.pop(), want.map(|(key, id)| (key.time, id)));
                    if let Some((key, _)) = want {
                        prop_assert_eq!(m.q.last_key(), key);
                    }
                }
                2 => {
                    let time = m.q.now() + LINK;
                    m.send(time, id);
                    oracle.insert((next_key(time), id));
                }
                3 => {
                    let time = m.q.now() + SimDuration::from_micros(1 + g.next_below(100_000));
                    m.schedule(time, id);
                    oracle.insert((next_key(time), id));
                }
                _ => {
                    let time = m.q.now() + SimDuration::from_micros(22_500_000 + g.next_below(7_500_000));
                    let key = m.q.reserve(time);
                    prop_assert_eq!(key, next_key(time));
                    reserved.push(key);
                }
            }
            // Now and then a reserved timer gets its event, if its turn
            // has not passed; one in four is dropped unscheduled.
            if !reserved.is_empty() && g.next_below(3) == 0 {
                let key = reserved.swap_remove(g.next_below(reserved.len() as u64) as usize);
                if key > m.q.last_key() && g.next_below(4) != 0 {
                    m.schedule_reserved(key, id);
                    oracle.insert((key, id));
                }
            }
            prop_assert_eq!(m.len(), oracle.len());
            prop_assert_eq!(m.peek_time(), oracle.first().map(|(key, _)| key.time));
        }
        while let Some((key, id)) = oracle.pop_first() {
            prop_assert_eq!(m.pop(), Some((key.time, id)));
            prop_assert_eq!(m.q.last_key(), key);
        }
        prop_assert_eq!(m.pop(), None);
        m.lanes.check(m.q.op_counts());
    }

    /// `advance_to(k)` then `schedule_reserved(k)`: the turn of a key that
    /// was passed over without an event is taken back by one scheduled
    /// under it at once. Events before `k` pop first (from the FIFO, the
    /// radix heap, or both, so the radix reference is left anywhere before
    /// `k`); then the clock advances to `k`, events at and after `k.time`
    /// are scheduled, and the event under `k` pops first — it holds the
    /// smallest sequence number of its instant — followed by the rest in
    /// oracle order.
    #[test]
    fn advance_to_then_schedule_reserved_at_the_same_key(
        seed in any::<u64>(),
        before in prop::collection::vec(any::<bool>(), 0..40),
        after in prop::collection::vec((any::<bool>(), 0u64..3), 0..40),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let k = m.q.reserve(SimTime::from_micros(30_000_000 + g.next_below(1_000)));
        let mut oracle: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        // A message goes on the FIFO where that keeps it sorted.
        let send_or_schedule = |m: &mut Merged, message: bool, time: SimTime, id: u64| {
            if message && m.fifo.back().is_none_or(|(back, _)| back.time <= time) {
                m.send(time, id);
            } else {
                m.q.schedule(time, id);
            }
        };
        for (id, &message) in before.iter().enumerate() {
            let time = SimTime::from_micros(g.next_below(k.time.as_micros()));
            send_or_schedule(&mut m, message, time, id as u64);
            oracle.insert((time, id as u64));
        }
        while let Some(popped) = m.pop() {
            prop_assert_eq!(Some(popped), oracle.pop_first());
        }
        m.q.advance_to(k);
        prop_assert_eq!(m.q.last_key(), k);
        let base = before.len() as u64;
        for (i, &(message, offset)) in after.iter().enumerate() {
            // Offsets 0–2 µs from `k.time`: many events share its instant.
            let time = k.time + SimDuration::from_micros(offset);
            let id = base + i as u64;
            send_or_schedule(&mut m, message, time, id);
            oracle.insert((time, id));
        }
        m.q.schedule_reserved(k, u64::MAX);
        prop_assert_eq!(m.pop(), Some((k.time, u64::MAX)));
        prop_assert_eq!(m.q.last_key(), k);
        while let Some(popped) = m.pop() {
            prop_assert_eq!(Some(popped), oracle.pop_first());
        }
        prop_assert!(oracle.is_empty());
    }
}

/// Pops `m` empty against `oracle`, key by key.
fn drain_against_key_oracle(m: &mut Merged, oracle: &mut BTreeSet<(EventKey, u64)>) {
    while let Some((key, id)) = oracle.pop_first() {
        assert_eq!(m.pop(), Some((key.time, id)), "pop disagrees with the sorted oracle");
        assert_eq!(m.q.last_key(), key);
    }
    assert_eq!(m.pop(), None);
}

// The two lanes: where a key goes depends on the clock, so one instant's
// keys can sit in both, and the ring's slots wrap round under the clock.
proptest! {
    /// Keys at the ring's horizon — the last slot of the ring and the
    /// first key of the heap, ±2 µs, in same-instant bursts — among near
    /// events whose pops move the clock, and with it the horizon, a slot
    /// or two at a time under keys already filed.
    #[test]
    fn keys_at_the_horizon_edge_match_sorted_oracle(
        seed in any::<u64>(),
        script in prop::collection::vec(0u64..4, 1..300),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let mut oracle: BTreeSet<(EventKey, u64)> = BTreeSet::new();
        for (id, &step) in script.iter().enumerate() {
            let now = m.q.now();
            let time = match step {
                0 => {
                    let want = oracle.pop_first();
                    prop_assert_eq!(m.pop(), want.map(|(key, id)| (key.time, id)), "pop disagrees with the sorted oracle");
                    continue;
                }
                3 => now + SimDuration::from_micros(1 + g.next_below(2 * SLOT_US)),
                _ => SimTime::from_micros(horizon(now).as_micros() + g.next_below(5) - 2),
            };
            for burst in 0..1 + g.next_below(3) {
                let key = m.q.reserve(time);
                m.schedule_reserved(key, (id as u64) << 8 | burst);
                oracle.insert((key, (id as u64) << 8 | burst));
            }
        }
        drain_against_key_oracle(&mut m, &mut oracle);
        m.lanes.check(m.q.op_counts());
    }

    /// An MRAI timer's key is reserved 22.5–30 s ahead, far past the
    /// ring, and its expiry is scheduled under it long after — often only
    /// once the clock has come within the ring's 131 ms, so into the ring,
    /// behind keys of the very same microsecond scheduled in the meantime
    /// with later sequence numbers, into the heap while the instant was
    /// far and into the ring once it was near. The old key pops first.
    #[test]
    fn reserved_keys_scheduled_into_the_ring_long_after_pop_before_later_keys_of_their_instant(
        seed in any::<u64>(),
        script in prop::collection::vec(0u64..5, 1..300),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let mut oracle: BTreeSet<(EventKey, u64)> = BTreeSet::new();
        let mut reserved: Vec<EventKey> = Vec::new();
        for (id, &step) in script.iter().enumerate() {
            let id = id as u64;
            let now = m.q.now();
            let pick = |g: &mut Xoshiro256StarStar, reserved: &[EventKey]| {
                reserved.get(g.next_below(reserved.len().max(1) as u64) as usize).copied()
            };
            match step {
                0 => {
                    let want = oracle.pop_first();
                    prop_assert_eq!(m.pop(), want.map(|(key, id)| (key.time, id)), "pop disagrees with the sorted oracle");
                }
                1 => reserved.push(m.q.reserve(now + SimDuration::from_micros(22_500_000 + g.next_below(7_500_000)))),
                // A key of a timer's own microsecond, with a later seq.
                2 => if let Some(timer) = pick(&mut g, &reserved).filter(|timer| timer.time > now) {
                    let key = m.q.reserve(timer.time);
                    m.schedule_reserved(key, id);
                    oracle.insert((key, id));
                },
                // An event whose pop brings the clock within the ring of a timer.
                3 => if let Some(timer) = pick(&mut g, &reserved) {
                    let time = SimTime::from_micros(timer.time.as_micros().saturating_sub(1 + g.next_below(131_000)));
                    if time > now {
                        let key = m.q.reserve(time);
                        m.schedule_reserved(key, id);
                        oracle.insert((key, id));
                    }
                },
                // A timer's expiry goes under its key, if the clock has not
                // passed it.
                _ => if let Some(timer) = pick(&mut g, &reserved) {
                    reserved.retain(|&other| other != timer);
                    if timer > m.q.last_key() {
                        m.schedule_reserved(timer, id);
                        oracle.insert((timer, id));
                    }
                },
            }
            prop_assert_eq!(m.len(), oracle.len());
        }
        drain_against_key_oracle(&mut m, &mut oracle);
        m.lanes.check(m.q.op_counts());
    }

    /// Keys of three adjacent microseconds around an instant `t` that is
    /// past the ring at first: the keys scheduled then go into the heap.
    /// Then an event `delta` before `t` pops, `t` is within the ring, and
    /// the keys scheduled after go into the ring. Each instant's keys pop
    /// in the order they were scheduled, whichever lane holds them.
    #[test]
    fn same_instant_keys_split_across_the_lanes_pop_in_schedule_order(
        gap in 131_072u64..1_000_000,
        delta in 1u64..131_000,
        keys in prop::collection::vec((0u64..3, any::<bool>()), 1..40),
    ) {
        let t = SimTime::from_micros(gap);
        let mut m = Merged::new();
        let mut oracle: BTreeSet<(EventKey, u64)> = BTreeSet::new();
        let mut schedule = |m: &mut Merged, offset: u64, id: u64| {
            let key = m.q.reserve(t + SimDuration::from_micros(offset));
            m.schedule_reserved(key, id);
            oracle.insert((key, id));
        };
        for (id, &(offset, _)) in keys.iter().enumerate().filter(|(_, (_, late))| !late) {
            schedule(&mut m, offset, id as u64);
        }
        let before = m.lanes.far_pushes;
        let near = SimTime::from_micros(gap - delta);
        m.q.schedule(near, u64::MAX);
        prop_assert_eq!(m.q.pop(), Some((near, u64::MAX)));
        for (id, &(offset, _)) in keys.iter().enumerate().filter(|(_, (_, late))| *late) {
            schedule(&mut m, offset, id as u64);
        }
        prop_assert_eq!(m.lanes.far_pushes, before, "the late keys went into the ring");
        drain_against_key_oracle(&mut m, &mut oracle);
        m.lanes.check(m.q.op_counts());
    }

    /// `advance_to` moves the clock over empty ring slots while ring
    /// entries wait beyond its target, and — with only heap timers
    /// pending — over up to three whole turns of the ring, so new keys
    /// land on slots whose heads a turn before left stale. Every pop
    /// still matches the oracle.
    #[test]
    fn advance_to_across_empty_slots_and_ring_wraps_matches_sorted_oracle(
        seed in any::<u64>(),
        script in prop::collection::vec(0u64..4, 1..250),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut m = Merged::new();
        let mut oracle: BTreeSet<(EventKey, u64)> = BTreeSet::new();
        for (id, &step) in script.iter().enumerate() {
            let (id, now) = (id as u64, m.q.now());
            let time = match step {
                0 => {
                    let want = oracle.pop_first();
                    prop_assert_eq!(m.pop(), want.map(|(key, id)| (key.time, id)), "pop disagrees with the sorted oracle");
                    continue;
                }
                1 => now + SimDuration::from_micros(1 + g.next_below(131_000)),
                2 => now + SimDuration::from_micros(22_500_000 + g.next_below(7_500_000)),
                _ => {
                    // A jump to before the next pending event.
                    let jump = now + SimDuration::from_micros(1 + g.next_below(3 * RING_SLOTS * SLOT_US));
                    let target = oracle
                        .first()
                        .map_or(jump, |(next, _)| jump.min(SimTime::from_micros(next.time.as_micros() - 1)));
                    if target > now {
                        let key = m.q.reserve(target);
                        m.q.advance_to(key);
                        prop_assert_eq!(m.q.last_key(), key);
                    }
                    continue;
                }
            };
            let key = m.q.reserve(time);
            m.schedule_reserved(key, id);
            oracle.insert((key, id));
        }
        drain_against_key_oracle(&mut m, &mut oracle);
        m.lanes.check(m.q.op_counts());
    }

    /// A reset with entries pending on many ring slots and in the heap,
    /// the clock anywhere: the next run starts the clock at zero, on ring
    /// slots the old run left stale, and pops and pays exactly what a
    /// fresh queue does.
    #[test]
    fn reset_in_the_middle_of_a_run_pops_and_pays_like_a_fresh_queue(
        seed in any::<u64>(),
        start in 0u64..10_000_000,
        first in steps(1..150),
        second in steps(1..150),
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let mut reused = Merged::new();
        reused.q.schedule(SimTime::from_micros(start), u64::MAX);
        reused.q.pop();
        drive_against_oracle(&mut reused, &mut g, &first, mrai_like_delay, false);
        reused.reset();
        let before = reused.op_counts();
        let mut replay = g.clone();
        drive_against_oracle(&mut reused, &mut g, &second, mrai_like_delay, false);
        let mut fresh = Merged::new();
        drive_against_oracle(&mut fresh, &mut replay, &second, mrai_like_delay, false);
        let after = reused.op_counts();
        prop_assert_eq!(reused.q.last_key(), fresh.q.last_key());
        prop_assert_eq!(after.decreases - before.decreases, fresh.op_counts().decreases);
        prop_assert_eq!(after.comparisons - before.comparisons, fresh.op_counts().comparisons);
        let pending = |m: &Merged| {
            let mut events: Vec<u64> = m.q.iter_pending().map(|(_, &id)| id).collect();
            events.sort_unstable();
            events
        };
        prop_assert_eq!(pending(&reused), pending(&fresh), "no entry of the first run survived the reset");
    }
}
