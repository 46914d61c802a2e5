//! A deterministic discrete-event queue with exact operation counting.
//!
//! [`EventQueue`] is a hand-rolled **binary min-heap** (array layout,
//! `(time, seq)` keys) with an **in-order lane** beside it: a FIFO for
//! events whose times are already sorted when they are scheduled
//! ([`EventQueue::schedule_in_order`] — a simulator's messages after one
//! constant link delay on a monotone clock). An in-order push is an
//! append and its pop a `pop_front`; nothing is sifted. Both structures
//! are live in every queue and share one sequence counter, and `pop`
//! returns the `(time, seq)`-smaller of heap root and lane front, so the
//! three guarantees the simulator depends on hold whichever entry point
//! scheduled an event:
//!
//! 1. **Monotonic delivery** — events pop in non-decreasing time order, and
//!    scheduling an event in the past (before the last popped time) is a
//!    panic: it would mean the model violated causality.
//! 2. **Deterministic tie-breaking** — events scheduled for the same instant
//!    pop in the order they were scheduled (FIFO), via a monotonically
//!    increasing sequence number. The pop sequence is the total order over
//!    `(time, seq)`, so a run is a pure function of its inputs.
//! 3. **Exact operation counts** — every push, pop, key comparison and
//!    sift move is tallied in [`QueueOpCounts`]. Because delivery order is
//!    a total order over `(time, seq)`, these counts are a pure function
//!    of the schedule/pop trace: bit-identical across worker counts and
//!    machines, and therefore usable as CI perf-regression gates (see
//!    `obs::costmodel`).
//!
//! The lane is an optimisation the caller cannot get wrong: a
//! `schedule_in_order` whose time is before the lane's last entry goes
//! into the heap like any `schedule`, and the pop sequence is the same
//! total order either way.
//!
//! A place in that order can also be held without an event in it:
//! [`EventQueue::reserve`] takes the [`EventKey`] a `schedule` at the
//! same moment would have been given, and
//! [`EventQueue::schedule_reserved`] puts an event there later — or
//! never, for a timer nobody turned out to wait for. Every other event
//! pops exactly where it would have popped had the reserved one been
//! scheduled at once; [`EventQueue::last_key`] tells a caller whether a
//! key it holds has been passed.
//!
//! The heap is implemented directly on a `Vec` (instead of wrapping
//! `std::collections::BinaryHeap`) so the comparison and sift-move counts
//! are under our control rather than at the mercy of the standard
//! library's internal heapify strategy changing between toolchains.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A place in the pop order: events pop in ascending `(time, seq)`, the
/// sequence number being the order in which keys were handed out.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    /// When the event pops.
    pub time: SimTime,
    /// Its rank among the keys of that instant.
    pub seq: u64,
}

impl EventKey {
    /// Before every key a queue hands out: [`EventQueue::last_key`] of a
    /// queue nothing has popped from.
    pub const ZERO: EventKey = EventKey {
        time: SimTime::ZERO,
        seq: 0,
    };
    /// After every key a queue hands out.
    pub const NEVER: EventKey = EventKey {
        time: SimTime::MAX,
        seq: u64::MAX,
    };
}

/// One scheduled entry: ordered by its key.
#[derive(Debug)]
struct Entry<E> {
    key: EventKey,
    event: E,
}

/// Exact counts of the queue's operations. All fields are monotone
/// `u64` tallies over the queue's lifetime (they survive [`EventQueue::reset`],
/// like the sequence counter, so phase-boundary snapshots can be diffed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueOpCounts {
    /// Events scheduled (insertions).
    pub pushes: u64,
    /// Events popped (removals).
    pub pops: u64,
    /// Element moves: sift-up/sift-down swaps — the "decrease-key"-class
    /// restructuring work of the priority queue.
    pub decreases: u64,
    /// `(time, seq)` key comparisons: those made by the sifts, plus one
    /// per pop that finds both the heap and the in-order lane non-empty.
    pub comparisons: u64,
}

impl QueueOpCounts {
    /// All tallies at zero. Preferred over `Default::default()` inside the
    /// queue so the hot construction path stays free of trait dispatch
    /// the determinism analyzer would have to resolve by name.
    pub const ZERO: QueueOpCounts = QueueOpCounts {
        pushes: 0,
        pops: 0,
        decreases: 0,
        comparisons: 0,
    };
}

/// A future-event list keyed by simulated time.
///
/// `E` is the caller's event payload; the queue is agnostic to it.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    /// The in-order lane: entries in `(time, seq)` order front to back,
    /// by construction ([`EventQueue::schedule_in_order`] appends only a
    /// time that is not before the last entry's).
    lane: VecDeque<Entry<E>>,
    next_seq: u64,
    /// Key of the most recently popped event (or the key the clock was
    /// [advanced](EventQueue::advance_to) to); new events may not be
    /// scheduled before its time.
    last: EventKey,
    popped: u64,
    ops: QueueOpCounts,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events in the
    /// heap and as many in the in-order lane.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            lane: VecDeque::with_capacity(cap),
            next_seq: 0,
            last: EventKey::ZERO,
            popped: 0,
            ops: QueueOpCounts::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.last.time
    }

    /// The key of the most recently popped event: every key at or before
    /// it has had its turn, every key after it has not.
    pub fn last_key(&self) -> EventKey {
        self.last
    }

    /// Number of pending events (heap and lane).
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Total number of events popped so far (a cheap progress metric and
    /// runaway-simulation guard).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Exact operation tallies since the queue was created. Monotone:
    /// [`EventQueue::reset`] does *not* clear them, so snapshots taken at
    /// phase boundaries can be subtracted to attribute work per phase.
    pub fn op_counts(&self) -> QueueOpCounts {
        self.ops
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock — the model would
    /// be violating causality.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let key = self.reserve(time);
        self.push_heap(key, event);
    }

    /// Takes the key [`EventQueue::schedule`] would give an event at
    /// `time` right now, without scheduling one. Costs nothing and counts
    /// as nothing; the key is good for one
    /// [`EventQueue::schedule_reserved`], or for none.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock, like
    /// [`EventQueue::schedule`].
    #[inline]
    pub fn reserve(&mut self, time: SimTime) -> EventKey {
        assert!(
            time >= self.last.time,
            "event scheduled in the past: {time:?} < now {:?}",
            self.last.time
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey { time, seq }
    }

    /// Schedules `event` under a key taken earlier with
    /// [`EventQueue::reserve`]: it pops where a `schedule` at reservation
    /// time would have put it.
    ///
    /// # Panics
    /// Panics if the clock has already passed `key`.
    pub fn schedule_reserved(&mut self, key: EventKey, event: E) {
        assert!(
            key >= self.last,
            "event scheduled in the past: {key:?} < last popped {:?}",
            self.last
        );
        debug_assert!(key.seq < self.next_seq, "{key:?} was never reserved");
        self.push_heap(key, event);
    }

    /// Moves the clock forward to `key` without popping anything, as if
    /// an event with that key had just popped — the turn of a reserved key
    /// that was never scheduled. A `key` the clock has already passed
    /// changes nothing. No pending event may precede `key`.
    pub fn advance_to(&mut self, key: EventKey) {
        debug_assert!(
            self.peek_key().is_none_or(|next| next > key),
            "advance to {key:?} over a pending event"
        );
        self.last = self.last.max(key);
    }

    /// Schedules `event` at absolute time `time`, for a caller whose
    /// `time`s never decrease from one call to the next (a constant delay
    /// added to the clock): the entry is appended to the in-order lane —
    /// no comparison, no move — and pops exactly where
    /// [`EventQueue::schedule`] would have put it. A `time` before the
    /// lane's last entry is not an error; that entry goes into the heap.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock, like
    /// [`EventQueue::schedule`].
    pub fn schedule_in_order(&mut self, time: SimTime, event: E) {
        let key = self.reserve(time);
        if self.lane.back().is_some_and(|last| time < last.key.time) {
            self.push_heap(key, event);
        } else {
            self.ops.pushes += 1;
            self.lane.push_back(Entry { key, event });
        }
    }

    #[inline]
    fn push_heap(&mut self, key: EventKey, event: E) {
        self.ops.pushes += 1;
        self.heap.push(Entry { key, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    /// Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_lane = match (self.heap.first(), self.lane.front()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(root), Some(front)) => {
                self.ops.comparisons += 1;
                front.key < root.key
            }
        };
        let entry = if from_lane {
            self.lane.pop_front()?
        } else {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            let entry = self.heap.pop()?;
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
            entry
        };
        debug_assert!(entry.key >= self.last, "queue returned a past event");
        self.last = entry.key;
        self.popped += 1;
        self.ops.pops += 1;
        Some((entry.key.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|key| key.time)
    }

    /// The key of the next event without popping it.
    fn peek_key(&self) -> Option<EventKey> {
        match (self.heap.first(), self.lane.front()) {
            (Some(root), Some(front)) => Some(root.key.min(front.key)),
            (root, front) => root.or(front).map(|e| e.key),
        }
    }

    /// Iterates over the pending events in **unspecified order** (heap
    /// storage order, then the lane — not delivery order). Intended for
    /// diagnostics — counting pending events per kind for an error
    /// snapshot — where only order-insensitive aggregation is sound.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap
            .iter()
            .chain(&self.lane)
            .map(|e| (e.key.time, &e.event))
    }

    /// Removes all pending events and resets the clock and the `popped`
    /// counter. (Sequence numbering and [`QueueOpCounts`] are *not* reset
    /// mid-run; a fresh queue should be used for a fresh run — this is for
    /// reusing allocations.)
    pub fn reset(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.last = EventKey::ZERO;
        self.popped = 0;
    }

    /// Restores the heap invariant upward from `idx` after a push.
    // det::allow(panic-surface, reason = "binary-heap index arithmetic: idx starts in bounds and parent = (idx - 1) / 2 < idx")
    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            self.ops.comparisons += 1;
            if self.heap[idx].key < self.heap[parent].key {
                self.heap.swap(idx, parent);
                self.ops.decreases += 1;
                idx = parent;
            } else {
                break;
            }
        }
    }

    /// Restores the heap invariant downward from `idx` after a pop.
    // det::allow(panic-surface, reason = "binary-heap index arithmetic: children are indexed only after a `< len` check")
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * idx + 1;
            let right = left + 1;
            let mut smallest = idx;
            if left < len {
                self.ops.comparisons += 1;
                if self.heap[left].key < self.heap[smallest].key {
                    smallest = left;
                }
            }
            if right < len {
                self.ops.comparisons += 1;
                if self.heap[right].key < self.heap[smallest].key {
                    smallest = right;
                }
            }
            if smallest == idx {
                break;
            }
            self.heap.swap(idx, smallest);
            self.ops.decreases += 1;
            idx = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i, "FIFO order broken at {i}");
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(4), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.pop();
        q.schedule(SimTime::from_secs(5), 2); // same instant: fine
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.pop();
        q.schedule(SimTime::from_secs(2), ());
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.popped(), 0);
        q.schedule(SimTime::from_micros(1), ()); // past-check reset too
    }

    #[test]
    fn iter_pending_sees_every_event_once() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        q.pop();
        let mut pending: Vec<u64> = q.iter_pending().map(|(_, &e)| e).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![1, 2, 3, 4]);
    }

    #[test]
    fn popped_counts_events() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 10);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Model a chain: each popped event schedules the next one later.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, hop)) = q.pop() {
            seen.push(hop);
            if hop < 5 {
                q.schedule(t + SimDuration::from_millis(10), hop + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_millis(50));
    }

    #[test]
    fn large_volume_stays_sorted() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let mut g = Xoshiro256StarStar::new(1);
        let mut q = EventQueue::new();
        for _ in 0..10_000 {
            q.schedule(SimTime::from_micros(g.next_below(1_000_000)), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn op_counts_track_pushes_and_pops_exactly() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_micros(100 - i), i);
        }
        for _ in 0..20 {
            q.pop();
        }
        let ops = q.op_counts();
        assert_eq!(ops.pushes, 50);
        assert_eq!(ops.pops, 20);
        assert_eq!(ops.pushes, ops.pops + q.len() as u64, "conservation");
    }

    #[test]
    fn sift_work_is_counted() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_micros(100 - i), i);
        }
        while q.pop().is_some() {}
        let ops = q.op_counts();
        assert!(ops.decreases > 0, "descending pushes sift up");
        assert!(ops.comparisons >= ops.decreases, "every move was paid for by a comparison");
    }

    #[test]
    fn with_capacity_reserves_and_reset_keeps_the_storage() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
        assert!(q.heap.capacity() >= 64);
        for i in 0..64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        let cap = q.heap.capacity();
        q.reset();
        assert_eq!(q.heap.capacity(), cap, "reset is for reusing allocations");
    }

    #[test]
    fn in_order_pushes_cost_no_comparisons_and_no_moves() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_in_order(SimTime::from_micros(i / 3), i);
        }
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((SimTime::from_micros(i / 3), i)));
        }
        let ops = q.op_counts();
        assert_eq!((ops.pushes, ops.pops), (100, 100));
        assert_eq!((ops.comparisons, ops.decreases), (0, 0), "the heap never held an entry");
    }

    #[test]
    fn lane_and_heap_merge_in_time_then_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis;
        q.schedule(t(30), "timer");
        q.schedule_in_order(t(10), "msg a");
        q.schedule(t(10), "proc");
        q.schedule_in_order(t(10), "msg b");
        q.schedule_in_order(t(40), "msg c");
        let before = q.op_counts().comparisons;
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec!["msg a", "proc", "msg b", "timer", "msg c"]);
        // One comparison per pop that saw both structures non-empty (the
        // first four); a heap of at most two entries sifts nothing down.
        assert_eq!(q.op_counts().comparisons - before, 4);
    }

    #[test]
    fn an_out_of_order_lane_push_falls_into_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_in_order(SimTime::from_millis(20), 0);
        q.schedule_in_order(SimTime::from_millis(10), 1); // before the lane's tail
        q.schedule_in_order(SimTime::from_millis(20), 2);
        assert_eq!((q.lane.len(), q.heap.len()), (2, 1));
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_len_and_iter_pending_see_both_structures() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 0u64);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(30)));
        q.schedule_in_order(SimTime::from_millis(10), 1);
        q.schedule_in_order(SimTime::from_millis(50), 2);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)), "the lane's front is earlier");
        let mut pending: Vec<u64> = q.iter_pending().map(|(_, &e)| e).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![0, 1, 2]);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(30)), "the heap's root is earlier");
        q.pop();
        assert_eq!((q.len(), q.peek_time()), (1, Some(SimTime::from_millis(50))), "lane only");
        assert!(!q.is_empty());
        q.reset();
        assert!(q.is_empty());
        assert_eq!((q.len(), q.peek_time()), (0, None));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_on_the_lane_too() {
        let mut q = EventQueue::new();
        q.schedule_in_order(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_in_order(SimTime::from_secs(4), ());
    }

    #[test]
    fn reset_keeps_the_lane_storage() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
        assert!(q.lane.capacity() >= 64);
        for i in 0..500 {
            q.schedule_in_order(SimTime::from_micros(i), i);
        }
        let cap = q.lane.capacity();
        q.reset();
        assert_eq!(q.lane.capacity(), cap, "reset is for reusing allocations");
        q.schedule_in_order(SimTime::ZERO, 0); // the lane's tail is forgotten too
        assert_eq!(q.lane.len(), 1);
    }

    #[test]
    fn a_reserved_key_holds_its_place_among_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(30);
        q.schedule(t, "before");
        let key = q.reserve(t);
        q.schedule(t, "after");
        assert_eq!(q.op_counts().pushes, 2, "a reservation is not a push");
        assert_eq!(q.len(), 2);
        q.schedule_reserved(key, "reserved");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec!["before", "reserved", "after"]);
        assert_eq!((q.op_counts().pushes, q.op_counts().pops), (3, 3));
    }

    #[test]
    fn last_key_tells_which_reserved_keys_have_had_their_turn() {
        let mut q = EventQueue::new();
        assert_eq!(q.last_key(), EventKey::ZERO);
        let t = SimTime::from_secs(30);
        let never_scheduled = q.reserve(t);
        q.schedule(t, ());
        let later = q.reserve(SimTime::from_secs(31));
        assert!(never_scheduled > q.last_key() && later > q.last_key());
        q.pop();
        assert!(never_scheduled < q.last_key(), "passed without ever being scheduled");
        assert!(later > q.last_key());
        assert!(later < EventKey::NEVER);
    }

    #[test]
    fn advance_to_moves_the_clock_like_a_pop_and_never_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        let key = q.reserve(SimTime::from_secs(30));
        q.advance_to(key);
        assert_eq!((q.now(), q.last_key()), (SimTime::from_secs(30), key));
        assert_eq!((q.popped(), q.op_counts()), (0, QueueOpCounts::ZERO));
        q.advance_to(EventKey::ZERO);
        assert_eq!(q.last_key(), key, "a passed key changes nothing");
        q.reset();
        assert_eq!(q.last_key(), EventKey::ZERO);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_under_a_key_the_clock_has_passed_panics() {
        let mut q = EventQueue::new();
        let key = q.reserve(SimTime::from_secs(1));
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_reserved(key, ());
    }

    #[test]
    fn op_counts_survive_reset() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.pop();
        let before = q.op_counts();
        q.reset();
        assert_eq!(q.op_counts(), before, "op tallies are monotone");
    }

    #[test]
    fn op_counts_are_a_pure_function_of_the_trace() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let run = || {
            let mut g = Xoshiro256StarStar::new(42);
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(q.now() + SimDuration::from_micros(g.next_below(10_000)), i);
                if i % 3 == 0 {
                    q.pop();
                }
            }
            while q.pop().is_some() {}
            q.op_counts()
        };
        assert_eq!(run(), run());
    }
}
