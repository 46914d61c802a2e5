//! A deterministic discrete-event queue with exact operation counting.
//!
//! [`EventQueue`] fronts two interchangeable backends behind one
//! instrumented API:
//!
//! * a **hierarchical timing wheel** ([`crate::wheel::TimingWheel`]) —
//!   the default, with `O(1)` amortized scheduling for the
//!   MRAI/timer-dominated load, and
//! * a hand-rolled **binary min-heap** (array layout, `(time, seq)`
//!   keys) — kept as the debug oracle the wheel is property-tested
//!   against ([`QueueBackend::Heap`]).
//!
//! Both give the three guarantees the simulator depends on:
//!
//! 1. **Monotonic delivery** — events pop in non-decreasing time order, and
//!    scheduling an event in the past (before the last popped time) is a
//!    panic: it would mean the model violated causality.
//! 2. **Deterministic tie-breaking** — events scheduled for the same instant
//!    pop in the order they were scheduled (FIFO), via a monotonically
//!    increasing sequence number. The pop sequence is the total order over
//!    `(time, seq)`, so the two backends deliver *byte-identical* runs and
//!    the choice of backend is invisible to every artifact.
//! 3. **Exact operation counts** — every push, pop, key comparison, sift
//!    move and wheel cascade is tallied in [`QueueOpCounts`]. Because
//!    delivery order is a total order over `(time, seq)`, these counts are
//!    a pure function of the schedule/pop trace: bit-identical across
//!    worker counts and machines, and therefore usable as CI
//!    perf-regression gates (see `obs::costmodel`).
//!
//! The heap is implemented directly on a `Vec` (instead of wrapping
//! `std::collections::BinaryHeap`) so the comparison and sift-move counts
//! are under our control rather than at the mercy of the standard
//! library's internal heapify strategy changing between toolchains.

use crate::time::SimTime;
use crate::wheel::{TimingWheel, DEFAULT_SLOT_BITS};

/// One scheduled entry: ordered by `(time, seq)`. Shared by both
/// backends so the wheel and the heap file literally the same records.
#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
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
    /// Element moves: sift-up/sift-down swaps on the heap backend, due-list
    /// insertion shifts on the wheel backend — the "decrease-key"-class
    /// restructuring work of the priority queue.
    pub decreases: u64,
    /// Ordering comparisons: `(time, seq)` key comparisons on the heap
    /// backend, seq comparisons of the due-list insertion sort on the wheel.
    pub comparisons: u64,
    /// Entries re-filed into finer wheel levels during cursor jumps.
    /// Always zero on the heap backend.
    pub cascades: u64,
}

impl QueueOpCounts {
    /// All tallies at zero. Preferred over `Default::default()` inside the
    /// queue backends so the hot construction path stays free of trait
    /// dispatch the determinism analyzers would have to resolve by name.
    pub const ZERO: QueueOpCounts = QueueOpCounts {
        pushes: 0,
        pops: 0,
        decreases: 0,
        comparisons: 0,
        cascades: 0,
    };
}

/// Which priority-queue implementation backs an [`EventQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timing wheel (the default). `slot_bits` is the
    /// radix width per level — the tick-granularity knob; 8 gives
    /// 256-slot levels.
    Wheel {
        /// Bits per wheel level, in `1..=16`.
        slot_bits: u32,
    },
    /// Binary min-heap: the debug oracle.
    Heap,
}

impl Default for QueueBackend {
    fn default() -> Self {
        QueueBackend::Wheel {
            slot_bits: DEFAULT_SLOT_BITS,
        }
    }
}

/// A future-event list keyed by simulated time.
///
/// `E` is the caller's event payload; the queue is agnostic to it.
#[derive(Debug)]
pub struct EventQueue<E> {
    inner: Inner<E>,
}

#[derive(Debug)]
enum Inner<E> {
    Heap(HeapQueue<E>),
    Wheel(TimingWheel<E>),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (default backend: the timing wheel) with
    /// the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            inner: Inner::Wheel(TimingWheel::with_capacity(DEFAULT_SLOT_BITS, cap)),
        }
    }

    /// Creates an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            inner: match backend {
                QueueBackend::Heap => Inner::Heap(HeapQueue::new()),
                QueueBackend::Wheel { slot_bits } => Inner::Wheel(TimingWheel::new(slot_bits)),
            },
        }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match &self.inner {
            Inner::Heap(_) => QueueBackend::Heap,
            Inner::Wheel(w) => QueueBackend::Wheel {
                slot_bits: w.slot_bits(),
            },
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Inner::Heap(h) => h.now,
            Inner::Wheel(w) => w.now(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.heap.len(),
            Inner::Wheel(w) => w.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (a cheap progress metric and
    /// runaway-simulation guard).
    pub fn popped(&self) -> u64 {
        match &self.inner {
            Inner::Heap(h) => h.popped,
            Inner::Wheel(w) => w.popped(),
        }
    }

    /// Exact operation tallies since the queue was created. Monotone:
    /// [`EventQueue::reset`] does *not* clear them, so snapshots taken at
    /// phase boundaries can be subtracted to attribute work per phase.
    pub fn op_counts(&self) -> QueueOpCounts {
        match &self.inner {
            Inner::Heap(h) => h.ops,
            Inner::Wheel(w) => w.op_counts(),
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock — the model would
    /// be violating causality.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        match &mut self.inner {
            Inner::Heap(h) => h.schedule(time, event),
            Inner::Wheel(w) => w.schedule(time, event),
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    /// Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.inner {
            Inner::Heap(h) => h.pop(),
            Inner::Wheel(w) => w.pop(),
        }
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.inner {
            Inner::Heap(h) => h.heap.first().map(|e| e.time),
            Inner::Wheel(w) => w.peek_time(),
        }
    }

    /// Iterates over the pending events in **unspecified order** (backend
    /// storage order, not delivery order). Intended for diagnostics —
    /// counting pending events per kind for an error snapshot — where only
    /// order-insensitive aggregation is sound.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        let it: Box<dyn Iterator<Item = (SimTime, &E)> + '_> = match &self.inner {
            Inner::Heap(h) => Box::new(h.heap.iter().map(|e| (e.time, &e.event))),
            Inner::Wheel(w) => Box::new(w.iter_pending()),
        };
        it
    }

    /// Removes all pending events and resets the clock and the `popped`
    /// counter. (Sequence numbering and [`QueueOpCounts`] are *not* reset
    /// mid-run; a fresh queue should be used for a fresh run — this is for
    /// reusing allocations.)
    pub fn reset(&mut self) {
        match &mut self.inner {
            Inner::Heap(h) => h.reset(),
            Inner::Wheel(w) => w.reset(),
        }
    }
}

/// The binary-heap backend (the debug oracle).
#[derive(Debug)]
struct HeapQueue<E> {
    heap: Vec<Entry<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; new events may not be
    /// scheduled before it.
    now: SimTime,
    popped: u64,
    ops: QueueOpCounts,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            ops: QueueOpCounts::ZERO,
        }
    }

    fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.ops.pushes += 1;
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let entry = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        debug_assert!(entry.time >= self.now, "heap returned a past event");
        self.now = entry.time;
        self.popped += 1;
        self.ops.pops += 1;
        Some((entry.time, entry.event))
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.now = SimTime::ZERO;
        self.popped = 0;
    }

    /// Restores the heap invariant upward from `idx` after a push.
    // det::allow(panic-surface, reason = "binary-heap index arithmetic: idx starts in bounds and parent = (idx - 1) / 2 < idx")
    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            self.ops.comparisons += 1;
            if self.heap[idx].key() < self.heap[parent].key() {
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
                if self.heap[left].key() < self.heap[smallest].key() {
                    smallest = left;
                }
            }
            if right < len {
                self.ops.comparisons += 1;
                if self.heap[right].key() < self.heap[smallest].key() {
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

    /// Both backends, so every contract test below runs against each.
    fn backends() -> [QueueBackend; 2] {
        [QueueBackend::default(), QueueBackend::Heap]
    }

    #[test]
    fn default_backend_is_the_wheel() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(
            q.backend(),
            QueueBackend::Wheel {
                slot_bits: DEFAULT_SLOT_BITS
            }
        );
        let q: EventQueue<()> = EventQueue::with_capacity(64);
        assert!(matches!(q.backend(), QueueBackend::Wheel { .. }));
        let q: EventQueue<()> = EventQueue::with_backend(QueueBackend::Heap);
        assert_eq!(q.backend(), QueueBackend::Heap);
    }

    #[test]
    fn pops_in_time_order() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_millis(30), "c");
            q.schedule(SimTime::from_millis(10), "a");
            q.schedule(SimTime::from_millis(20), "b");
            assert_eq!(q.pop().unwrap().1, "a");
            assert_eq!(q.pop().unwrap().1, "b");
            assert_eq!(q.pop().unwrap().1, "c");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.schedule(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i, "FIFO order broken at {i} ({b:?})");
            }
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(5), ());
            assert_eq!(q.now(), SimTime::ZERO);
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_secs(5));
            assert_eq!(q.now(), SimTime::from_secs(5));
        }
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
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_on_the_heap_too() {
        let mut q = EventQueue::with_backend(QueueBackend::Heap);
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(4), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(5), 1);
            q.pop();
            q.schedule(SimTime::from_secs(5), 2); // same instant: fine
            assert_eq!(q.pop().unwrap().1, 2);
        }
    }

    #[test]
    fn peek_does_not_advance() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(2), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn reset_clears_state() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(1), ());
            q.pop();
            q.schedule(SimTime::from_secs(2), ());
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.popped(), 0);
            q.schedule(SimTime::from_micros(1), ()); // past-check reset too
        }
    }

    #[test]
    fn iter_pending_sees_every_event_once() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            for i in 0..5u64 {
                q.schedule(SimTime::from_micros(i), i);
            }
            q.pop();
            let mut pending: Vec<u64> = q.iter_pending().map(|(_, &e)| e).collect();
            pending.sort_unstable();
            assert_eq!(pending, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn popped_counts_events() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            for i in 0..10u64 {
                q.schedule(SimTime::from_micros(i), i);
            }
            while q.pop().is_some() {}
            assert_eq!(q.popped(), 10);
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Model a chain: each popped event schedules the next one later.
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
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
    }

    #[test]
    fn large_volume_stays_sorted() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        for b in backends() {
            let mut g = Xoshiro256StarStar::new(1);
            let mut q = EventQueue::with_backend(b);
            for _ in 0..10_000 {
                q.schedule(SimTime::from_micros(g.next_below(1_000_000)), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
        }
    }

    #[test]
    fn op_counts_track_pushes_and_pops_exactly() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
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
    }

    #[test]
    fn heap_backend_counts_sift_work_and_never_cascades() {
        let mut q = EventQueue::with_backend(QueueBackend::Heap);
        for i in 0..50u64 {
            q.schedule(SimTime::from_micros(100 - i), i);
        }
        while q.pop().is_some() {}
        let ops = q.op_counts();
        assert!(ops.comparisons > 0, "heap work was counted");
        assert_eq!(ops.cascades, 0, "the heap backend never cascades");
    }

    #[test]
    fn op_counts_survive_reset() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(1), ());
            q.pop();
            let before = q.op_counts();
            q.reset();
            assert_eq!(q.op_counts(), before, "op tallies are monotone");
        }
    }

    #[test]
    fn op_counts_are_a_pure_function_of_the_trace() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        for b in backends() {
            let run = || {
                let mut g = Xoshiro256StarStar::new(42);
                let mut q = EventQueue::with_backend(b);
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

    #[test]
    fn wheel_and_heap_agree_on_a_random_trace() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let mut g = Xoshiro256StarStar::new(0xABCD);
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        for i in 0..2_000u64 {
            let dt = SimDuration::from_micros(g.next_below(500_000));
            wheel.schedule(wheel.now() + dt, i);
            heap.schedule(heap.now() + dt, i);
            if i % 4 == 0 {
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
    }
}
