//! A deterministic discrete-event queue with exact operation counting.
//!
//! [`EventQueue`] orders `(time, seq)` keys in two lanes: a **calendar
//! ring** for the keys of the next 131 ms and a **monotone radix heap**
//! for every later one. It makes three guarantees the simulator depends
//! on:
//!
//! 1. **Monotonic delivery** — events pop in non-decreasing time order, and
//!    scheduling an event in the past (before the last popped time) is a
//!    panic: it would mean the model violated causality.
//! 2. **Deterministic tie-breaking** — events scheduled for the same instant
//!    pop in the order they were scheduled (FIFO), via a monotonically
//!    increasing sequence number. The pop sequence is the total order over
//!    `(time, seq)`, so a run is a pure function of its inputs.
//! 3. **Exact operation counts** — every push, pop, key comparison and
//!    re-bucketed entry is tallied in [`QueueOpCounts`]. Because delivery
//!    order is a total order over `(time, seq)`, and the lane a key goes
//!    to depends only on the key and the clock, these counts are a pure
//!    function of the schedule/pop trace: bit-identical across worker
//!    counts and machines, and therefore usable as CI perf-regression
//!    gates (see `obs::costmodel`).
//!
//! Both lanes file an entry under the `u128` key `time << 64 | seq`, whose
//! integer order *is* the `(time, seq)` order.
//!
//! **The near lane** is a ring of 4096 slots of 32 µs each. A key whose
//! slot `time >> 5` is before the clock's slot plus 4096 goes there, into
//! ring slot `(time >> 5) % 4096`, on a chain kept sorted by key; a bitmap
//! marks the non-empty slots and the ring's minimum is cached. The clock
//! only moves forward and no pending key precedes it, so every entry of
//! the ring stays within 4096 slots of the clock's: a circular scan of the
//! bitmap from the clock's slot meets the slots in time order, and the
//! head of the first non-empty one is the ring's minimum. An entry is
//! filed once, where it will pop — the processing completions of the
//! model, at most 100 ms out, never move.
//!
//! **The far lane** files an entry in the bucket named by the bit length
//! of `key ^ reference`, where the reference is the key the heap popped
//! last. Every pending key is at or after the reference, so every key of a
//! lower bucket is smaller than every key of a higher one, and each bucket
//! caches its minimum as entries are filed into it: the minimum is the
//! cached minimum of the lowest non-empty bucket, found without reading an
//! entry. A pop takes it, makes it the reference and re-files the rest of
//! its bucket, each entry into a strictly lower one. An entry therefore
//! moves at most once per bit of the key, however many pops pass over it —
//! a timer 30 s out sits still while the messages of those 30 s come and
//! go. A key stays in the lane it was filed in: a far timer the clock has
//! come within 131 ms of pops from the heap.
//!
//! A pop takes the smaller of the two minima, so the pop sequence is the
//! one total order over `(time, seq)` whichever lane holds each key. All
//! entries live in one pool, each bucket and each ring slot a chain
//! threaded through a column of links beside it and freed slots on a free
//! chain, so the pool is as long as the most entries ever pending at once.
//! Of the tallies, `decreases` counts the heap's re-filed entries, and
//! `comparisons` the heap's filings against a bucket's minimum plus every
//! ring entry an insertion examines on its slot's chain.
//!
//! A place in that order can also be held without an event in it:
//! [`EventQueue::reserve`] takes the [`EventKey`] a `schedule` at the
//! same moment would have been given, and
//! [`EventQueue::schedule_reserved`] puts an event there later — or
//! never, for a timer nobody turned out to wait for. Every other event
//! pops exactly where it would have popped had the reserved one been
//! scheduled at once; [`EventQueue::last_key`] tells a caller whether a
//! key it holds has been passed. A caller may also keep events of its own
//! outside the queue under reserved keys — a FIFO of messages that all
//! take one constant delay is sorted by construction — and merge it with
//! the queue: pop the queue with [`EventQueue::pop_by`] bounded by its own
//! front, and take its front's turn with [`EventQueue::advance_to`],
//! which moves the clock and leaves the heap's reference where it is
//! (entries already filed against it would otherwise sit in the wrong
//! bucket).

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

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

/// `key` as one integer whose order is the `(time, seq)` order: the time
/// in the high half, the sequence number in the low half.
#[inline]
fn radix_key(key: EventKey) -> u128 {
    (u128::from(key.time.as_micros()) << 64) | u128::from(key.seq)
}

/// The inverse of [`radix_key`].
#[inline]
fn event_key(key: u128) -> EventKey {
    EventKey {
        time: SimTime::from_micros((key >> 64) as u64),
        seq: key as u64,
    }
}

/// No slot: the end of a chain.
const NIL: u32 = u32::MAX;

/// Buckets of the heap: bucket `b > 0` holds the keys whose highest bit
/// that differs from the reference is bit `b - 1`, bucket 0 a key equal
/// to it.
const BUCKETS: usize = 129;

/// Slots of the near lane's ring.
const RING: usize = 4096;

/// A ring slot spans `1 << SLOT_BITS` µs: 32 µs, 131 ms for the ring.
const SLOT_BITS: u32 = 5;

/// Words of the ring's occupancy bitmap.
const RING_WORDS: usize = RING / 64;

/// The ring slot of a time, counted from time zero (not yet wrapped).
#[inline]
fn slot_of(time: SimTime) -> u64 {
    time.as_micros() >> SLOT_BITS
}

/// Where slot `slot` sits in the ring.
#[inline]
fn ring_index(slot: u64) -> usize {
    slot as usize % RING
}

/// Where the link of pool slot `at` sits in the link column: after the
/// ring slots' heads.
#[inline]
fn link_of(at: u32) -> usize {
    RING + at as usize
}

/// One entry of the pool. The queue turns the key into its radix key where
/// it compares or files it.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    key: EventKey,
    event: E,
}

/// Exact counts of the queue's operations. All fields are monotone
/// `u64` tallies over the queue's lifetime (they survive [`EventQueue::reset`],
/// so phase-boundary snapshots can be diffed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueOpCounts {
    /// Events scheduled (insertions).
    pub pushes: u64,
    /// Events popped (removals).
    pub pops: u64,
    /// Entries the radix heap re-bucketed: moved from the popped
    /// minimum's bucket to a lower one — the restructuring work of the
    /// priority queue. The ring never moves an entry.
    pub decreases: u64,
    /// `(time, seq)` key comparisons: in the radix heap, one per entry
    /// filed into a bucket that already has a minimum (pushed or
    /// re-bucketed), against that minimum; in the ring, one per entry of
    /// the slot's chain an insertion examines.
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
/// `E` is the caller's event payload; the queue is agnostic to it. It is
/// `Copy` so that a popped slot hands its event out and stays in the pool.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every slot the queue has used: its entries and its free slots.
    pool: Vec<Entry<E>>,
    /// The first slot of each ring slot's chain (stale where
    /// `ring_occupied` has the slot's bit clear), then, at [`link_of`],
    /// the next slot of the chain each pool slot is on: its bucket's, its
    /// ring slot's, or the free chain. Beside the pool, not in it: with a
    /// 16-byte event an entry is 32 bytes, and a link inside it would pad
    /// it to 40. The ring's heads lead the column rather than sit inline:
    /// 16 KB the struct would otherwise carry through every move.
    links: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff ring slot `i` is
    /// non-empty.
    ring_occupied: [u64; RING_WORDS],
    /// The smallest key in the ring, `None` while it is empty: the key of
    /// the head of the first non-empty slot from the clock's.
    ring_min: Option<u128>,
    /// The first slot of each bucket's chain.
    heads: [u32; BUCKETS],
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    occupied: [u64; 3],
    /// The first slot of the free chain.
    free: u32,
    /// Pending entries.
    len: usize,
    /// The key the heap popped last (0 before the first): every entry is
    /// filed by its highest bit that differs from this one.
    reference: u128,
    /// Each non-empty bucket's minimum key and its slot (stale in an
    /// empty bucket).
    mins: [(u128, u32); BUCKETS],
    next_seq: u64,
    /// Key of the most recently popped event (or the key the clock was
    /// [advanced](EventQueue::advance_to) to); new events may not be
    /// scheduled before its time.
    last: EventKey,
    popped: u64,
    ops: QueueOpCounts,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            pool: Vec::with_capacity(cap),
            links: {
                let mut links = Vec::with_capacity(RING + cap);
                links.resize(RING, NIL);
                links
            },
            ring_occupied: [0; RING_WORDS],
            ring_min: None,
            heads: [NIL; BUCKETS],
            occupied: [0; 3],
            free: NIL,
            len: 0,
            reference: 0,
            mins: [(0, NIL); BUCKETS],
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots in the pool: the most events that were ever pending at once
    /// since the queue was created or last [reset](EventQueue::reset).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
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
        self.push(key, event);
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
        self.push(key, event);
    }

    /// Moves the clock forward to `key` without popping anything, as if
    /// an event with that key had just popped — the turn of a reserved key
    /// that was never scheduled, or of an event the caller keeps outside
    /// the heap. A `key` the clock has already passed changes nothing. No
    /// pending event may precede `key`. The heap's reference stays where
    /// it is.
    pub fn advance_to(&mut self, key: EventKey) {
        debug_assert!(
            self.peek_key().is_none_or(|next| next > key),
            "advance to {key:?} over a pending event"
        );
        self.last = self.last.max(key);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    /// Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_by(EventKey::NEVER)
    }

    /// Pops the earliest event if its key is at or before `bound`,
    /// advancing the clock to it; `None` if no pending event is due by
    /// then. A `None` counts nothing, so a run of `pop_by` calls costs
    /// exactly what a `peek_time` before each `pop` would. The earlier of
    /// the ring's minimum and the heap's is popped: from the ring, its
    /// slot's next entry or the next non-empty slot becomes the ring's
    /// minimum; from the heap, the minimum becomes the reference and the
    /// rest of its bucket is re-filed one or more buckets lower. Either
    /// way its slot goes on the free chain.
    pub fn pop_by(&mut self, bound: EventKey) -> Option<(SimTime, E)> {
        let far = self
            .lowest_bucket()
            .and_then(|bucket| self.mins.get(bucket).map(|&(min, at)| (bucket, min, at)));
        let at = match (far, self.ring_min) {
            (Some((bucket, min, at)), near) if near.is_none_or(|near| min < near) => {
                if min > radix_key(bound) {
                    return None;
                }
                self.pop_far(bucket, min, at);
                at
            }
            (_, Some(near)) => {
                if near > radix_key(bound) {
                    return None;
                }
                self.pop_near(near)?
            }
            _ => return None,
        };
        let &Entry { key, event } = self.pool.get(at as usize)?;
        *self.links.get_mut(link_of(at))? = std::mem::replace(&mut self.free, at);
        self.len -= 1;
        debug_assert!(key >= self.last, "queue returned a past event");
        self.last = key;
        self.popped += 1;
        self.ops.pops += 1;
        Some((key.time, event))
    }

    /// Takes the heap's minimum `min`, in slot `at`, out of `bucket`: makes
    /// it the reference and re-files the rest of the bucket.
    fn pop_far(&mut self, bucket: usize, min: u128, at: u32) {
        self.reference = min;
        let mut next = self.unlink_bucket(bucket);
        while let (Some(&link), Some(entry)) =
            (self.links.get(link_of(next)), self.pool.get(next as usize))
        {
            let (moved, moved_key) = (next, radix_key(entry.key));
            next = link;
            if moved != at {
                self.ops.decreases += 1;
                self.file(moved, moved_key);
            }
        }
    }

    /// Takes the ring's minimum `near` off the head of its slot's chain,
    /// handing back the slot of the pool that held it, and finds the
    /// ring's next minimum: the chain's next entry, else the head of the
    /// first non-empty slot from this one — the clock's once the pop
    /// completes.
    fn pop_near(&mut self, near: u128) -> Option<u32> {
        let index = ring_index(slot_of(event_key(near).time));
        let at = *self.links.get(index)?;
        let next = *self.links.get(link_of(at))?;
        if let Some(entry) = self.pool.get(next as usize) {
            *self.links.get_mut(index)? = next;
            self.ring_min = Some(radix_key(entry.key));
        } else {
            if let Some(word) = self.ring_occupied.get_mut(index / 64) {
                *word &= !(1 << (index % 64));
            }
            self.ring_min = self
                .first_occupied_slot(index)
                .and_then(|slot| self.links.get(slot))
                .and_then(|&head| self.pool.get(head as usize))
                .map(|entry| radix_key(entry.key));
        }
        Some(at)
    }

    /// The first non-empty ring slot at or after ring slot `from`, going
    /// round the ring once.
    fn first_occupied_slot(&self, from: usize) -> Option<usize> {
        let (w0, bit) = (from / 64, from % 64);
        let first = self.ring_occupied.get(w0).map_or(0, |word| word & (!0 << bit));
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        // The rest of the ring, ending with the bits of word `w0` before
        // `from`: those above it were just found clear.
        (1..=RING_WORDS).find_map(|i| {
            let w = (w0 + i) % RING_WORDS;
            let word = *self.ring_occupied.get(w)?;
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        })
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|key| key.time)
    }

    /// The key of the next event without popping it: the smaller of the
    /// ring's minimum and the cached minimum of the heap's lowest
    /// non-empty bucket.
    fn peek_key(&self) -> Option<EventKey> {
        let far = self
            .lowest_bucket()
            .and_then(|bucket| self.mins.get(bucket))
            .map(|&(min, _)| min);
        far.into_iter().chain(self.ring_min).min().map(event_key)
    }

    /// Iterates over the pending events in **unspecified order** (bucket
    /// by bucket, then ring slot by ring slot — not delivery order).
    /// Intended for diagnostics — counting pending events per kind for an
    /// error snapshot — where only order-insensitive aggregation is sound.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        let ring_heads = self.links.iter().take(RING).enumerate().filter_map(move |(index, &head)| {
            let word = self.ring_occupied.get(index / 64).copied().unwrap_or(0);
            (word & (1 << (index % 64)) != 0).then_some(head)
        });
        self.heads
            .iter()
            .copied()
            .chain(ring_heads)
            .flat_map(move |head| {
                std::iter::successors(Some(head), move |&at| self.links.get(link_of(at)).copied())
                    .map_while(move |at| self.pool.get(at as usize))
            })
            .map(|entry| (entry.key.time, &entry.event))
    }

    /// Removes all pending events and restores the clock, the `popped`
    /// counter and the sequence numbering of a new queue, so that the
    /// queue hands out a new queue's keys and pays a new queue's
    /// [`QueueOpCounts`] for the same trace (the heap's work depends on
    /// the bits of the keys). Keeps the storage and the tallies, which
    /// stay monotone.
    pub fn reset(&mut self) {
        self.pool.clear();
        self.links.truncate(RING);
        self.heads = [NIL; BUCKETS];
        self.occupied = [0; 3];
        self.ring_occupied = [0; RING_WORDS];
        self.ring_min = None;
        self.free = NIL;
        self.len = 0;
        self.reference = 0;
        self.next_seq = 0;
        self.last = EventKey::ZERO;
        self.popped = 0;
    }

    /// The bucket `key` belongs in: the bit length of `key ^ reference`.
    #[inline]
    fn bucket_of(&self, key: u128) -> usize {
        (u128::BITS - (key ^ self.reference).leading_zeros()) as usize
    }

    /// Files `event` under `key`, in a free slot if there is one: in the
    /// ring if its slot is less than a ring's length after the clock's,
    /// else in the heap.
    fn push(&mut self, key: EventKey, event: E) {
        self.ops.pushes += 1;
        let filled = Entry { key, event };
        let at = match (
            self.links.get(link_of(self.free)),
            self.pool.get_mut(self.free as usize),
        ) {
            (Some(&next), Some(slot)) => {
                *slot = filled;
                std::mem::replace(&mut self.free, next)
            }
            _ => {
                assert!(
                    self.pool.len() < NIL as usize,
                    "more than u32::MAX - 1 pending events"
                );
                self.pool.push(filled);
                self.links.push(NIL);
                (self.pool.len() - 1) as u32
            }
        };
        self.len += 1;
        let slot = slot_of(key.time);
        if slot < slot_of(self.last.time) + RING as u64 {
            self.file_near(at, radix_key(key), ring_index(slot));
        } else {
            self.file(at, radix_key(key));
        }
    }

    /// Puts slot `at`, holding `key`, on ring slot `index`'s chain behind
    /// every smaller key, counting each entry of the chain it examines,
    /// and keeps the ring's minimum.
    #[inline]
    fn file_near(&mut self, at: u32, key: u128, index: usize) {
        let (Some(word), Some(head)) = (self.ring_occupied.get_mut(index / 64), self.links.get_mut(index)) else {
            return;
        };
        let bit = 1 << (index % 64);
        if *word & bit == 0 {
            *word |= bit;
            *head = NIL; // stale until now
        }
        // The link to rewrite: the slot's head, or the last smaller key's.
        let mut before = index;
        let mut next = self.links.get(before).copied().unwrap_or(NIL);
        while let Some(entry) = self.pool.get(next as usize) {
            self.ops.comparisons += 1;
            if radix_key(entry.key) > key {
                break;
            }
            before = link_of(next);
            next = self.links.get(before).copied().unwrap_or(NIL);
        }
        if let Some(link) = self.links.get_mut(link_of(at)) {
            *link = next;
        }
        if let Some(link) = self.links.get_mut(before) {
            *link = at;
        }
        if self.ring_min.is_none_or(|min| key < min) {
            self.ring_min = Some(key);
        }
    }

    /// The lowest non-empty bucket.
    #[inline]
    fn lowest_bucket(&self) -> Option<usize> {
        self.occupied
            .iter()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
    }

    /// Puts slot `at`, holding `key`, at the front of its bucket's chain
    /// and keeps the bucket's minimum: one comparison unless the bucket
    /// was empty.
    #[inline]
    fn file(&mut self, at: u32, key: u128) {
        let bucket = self.bucket_of(key);
        let (Some(head), Some(link), Some(min), Some(word)) = (
            self.heads.get_mut(bucket),
            self.links.get_mut(link_of(at)),
            self.mins.get_mut(bucket),
            self.occupied.get_mut(bucket / 64),
        ) else {
            return;
        };
        let bit = 1 << (bucket % 64);
        if *word & bit == 0 {
            *word |= bit;
            *min = (key, at);
        } else {
            self.ops.comparisons += 1;
            if key < min.0 {
                *min = (key, at);
            }
        }
        *link = std::mem::replace(head, at);
    }

    /// Empties `bucket`, handing back the first slot of its old chain.
    #[inline]
    fn unlink_bucket(&mut self, bucket: usize) -> u32 {
        if let Some(word) = self.occupied.get_mut(bucket / 64) {
            *word &= !(1 << (bucket % 64));
        }
        self.heads
            .get_mut(bucket)
            .map_or(NIL, |head| std::mem::replace(head, NIL))
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
    fn reset_restarts_the_sequence_numbers() {
        let mut q: EventQueue<()> = EventQueue::new();
        let first = q.reserve(SimTime::from_secs(1));
        q.schedule(SimTime::from_secs(1), ());
        q.pop();
        q.reset();
        assert_eq!(q.reserve(SimTime::from_secs(1)), first, "a reset queue hands out a new queue's keys");
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
    fn rebucketing_work_is_counted() {
        // One second out: past the ring's 131 ms, so every key is the heap's.
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_secs(1) + SimDuration::from_micros(100 - i), i);
        }
        while q.pop().is_some() {}
        let ops = q.op_counts();
        assert!(ops.decreases > 0, "the first pop re-files what shares its bucket");
        assert!(ops.comparisons > 0, "the minimum is found by scanning");
    }

    #[test]
    fn a_near_entry_is_filed_once_behind_every_smaller_key_of_its_slot() {
        let mut q = EventQueue::new();
        // Ten keys in one 32 µs slot, each before every earlier one: each
        // insertion examines the slot's head and goes before it.
        for i in 0..10u64 {
            q.schedule(SimTime::from_micros(9 - i), i);
        }
        assert_eq!(q.op_counts().comparisons, 9);
        // A same-instant key goes behind both entries of its instant, past
        // the eight before them.
        q.schedule(SimTime::from_micros(9), 10);
        assert_eq!(q.op_counts().comparisons, 9 + 10, "examined the whole chain");
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10]);
        let ops = q.op_counts();
        assert_eq!(ops.decreases, 0, "the ring never moves an entry");
        assert_eq!(ops.comparisons, 19, "a ring pop compares nothing");
    }

    #[test]
    fn the_horizon_is_a_ring_length_of_slots_after_the_clocks() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_000), 0u64);
        q.pop(); // the clock stands in slot 31
        let edge = (31 + RING as u64) << SLOT_BITS;
        q.schedule(SimTime::from_micros(edge - 1), 1); // the ring's last slot
        q.schedule(SimTime::from_micros(edge), 2); // the heap's first key
        q.schedule(SimTime::from_micros(edge - 1), 3); // behind 1 in the ring
        q.schedule(SimTime::from_micros(edge), 4); // beside 2 in the heap
        let ops = q.op_counts();
        assert_eq!(ops.comparisons, 2, "one ring entry examined, one bucket minimum");
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec![1, 3, 2, 4]);
    }

    #[test]
    fn the_ring_scan_wraps_round_to_the_slots_before_the_clocks() {
        let mut q = EventQueue::new();
        // The clock in the ring's last slot, then keys in the slots after
        // it, whose places in the ring are at its start.
        let last_slot = SimTime::from_micros(((RING as u64) - 1) << SLOT_BITS);
        q.schedule(last_slot, 0u64);
        q.pop();
        for (i, slot) in [3u64, 1, 2, 4_000].into_iter().enumerate() {
            q.schedule(last_slot + SimDuration::from_micros(slot << SLOT_BITS), i as u64 + 1);
        }
        assert_eq!(q.op_counts().decreases, 0);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec![2, 3, 1, 4]);
        assert_eq!(q.op_counts().decreases, 0, "all four were the ring's");
    }

    #[test]
    fn a_far_entry_is_not_moved_by_near_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), u64::MAX);
        q.pop(); // the reference is now 30 s
        q.schedule(SimTime::from_secs(60), u64::MAX);
        let far = q.op_counts();
        // A near event at a time per pop: its bucket is below the far
        // timer's, so it is the minimum without a comparison, and it pops
        // alone from its bucket.
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_secs(30) + SimDuration::from_micros(1 + i), i);
            assert_eq!(q.pop(), Some((SimTime::from_secs(30) + SimDuration::from_micros(1 + i), i)));
        }
        let near = q.op_counts();
        assert_eq!(near.decreases - far.decreases, 0, "the far entry never moved");
        assert_eq!(near.comparisons - far.comparisons, 0, "nothing was compared");
        assert_eq!(q.pop(), Some((SimTime::from_secs(60), u64::MAX)));
    }

    #[test]
    fn with_capacity_reserves_and_reset_keeps_the_storage() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
        assert!(q.pool.capacity() >= 64);
        for i in 0..64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        let cap = q.pool.capacity();
        q.reset();
        assert_eq!(q.pool.capacity(), cap, "reset is for reusing allocations");
        assert_eq!(q.pool_len(), 0);
    }

    #[test]
    fn popped_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8 {
                q.schedule(q.now() + SimDuration::from_millis(1 + i), round);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.pool_len(), 8, "the pool is as long as the most entries pending at once");
    }

    #[test]
    fn pop_by_stops_at_the_bound_and_counts_nothing_there() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "msg");
        let bound = q.reserve(SimTime::from_millis(30));
        q.schedule(SimTime::from_millis(30), "after the bound");
        q.schedule(SimTime::from_millis(20), "timer");
        assert_eq!(q.pop_by(bound), Some((SimTime::from_millis(10), "msg")));
        assert_eq!(q.pop_by(bound), Some((SimTime::from_millis(20), "timer")));
        let before = q.op_counts();
        assert_eq!(q.pop_by(bound), None, "a later key of the bound's own instant");
        assert_eq!(q.op_counts(), before, "a pop_by that pops nothing costs nothing");
        assert_eq!((q.len(), q.now()), (1, SimTime::from_millis(20)));
        let end_of_30ms = EventKey { time: SimTime::from_millis(30), seq: u64::MAX };
        assert_eq!(q.pop_by(end_of_30ms), Some((SimTime::from_millis(30), "after the bound")));
        assert_eq!(q.pop_by(EventKey::NEVER), None);
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
