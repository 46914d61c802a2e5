//! A hierarchical timing wheel with *exact* heap-order parity.
//!
//! The binary heap in [`crate::queue`] costs `O(log n)` counted key
//! comparisons and sift moves per operation, and at Internet scale
//! (tens of thousands of armed MRAI timers) that heap maintenance
//! dominates the per-event budget. The timing wheel replaces it with
//! `O(1)` amortized bucket appends: an event scheduled `d` ticks ahead
//! is filed under the highest radix digit in which `d` differs from the
//! current cursor, and is re-filed ("cascaded") into finer levels only
//! when the cursor enters its window — a classic hashed/hierarchical
//! timing wheel (Varghese & Lauck), specialized here for a simulator
//! that needs **bit-identical artifacts**.
//!
//! ## Exact order parity with the heap
//!
//! The queue contract is a strict total order over `(time, seq)`: pops
//! are sorted by timestamp, FIFO within a timestamp. The wheel
//! preserves that order *exactly* — not approximately, as
//! tick-rounding wheels do — because:
//!
//! 1. The tick is 1 µs, the full resolution of [`SimTime`], so no two
//!    distinct timestamps ever share a level-0 bucket.
//! 2. Levels partition the tick's bits: level `k` covers bit range
//!    `[k·B, (k+1)·B)` for `B = slot_bits`. An entry lives at the level
//!    of the *highest* bit in which its tick differs from the cursor,
//!    so every entry at level `k` agrees with the cursor on all bits
//!    `≥ (k+1)·B`. With equal upper bits, a bigger slot digit means a
//!    strictly later tick — so scanning slots upward from the cursor's
//!    digit visits pending ticks in increasing order, and every level-k
//!    entry precedes every level-(k+1) entry.
//! 3. Within a level-0 bucket all entries share one exact tick (all 64
//!    bits pinned), and buckets accumulate entries in increasing `seq`
//!    order, which the drain keeps; a counted insertion sort into the
//!    due list enforces the FIFO tie-break even so.
//!
//! The cursor only ever jumps to the window start of the first occupied
//! slot it finds (bottom level first), so no occupied slot is ever
//! skipped and `cursor == now` holds between operations. Together these
//! give the parity theorem the artifact byte-identity suite relies on:
//! **for any schedule/pop trace, the wheel's pop sequence equals the
//! heap's** (see the property tests in `tests/wheel_vs_heap.rs`).
//!
//! ## Operation counting
//!
//! The wheel tallies into the same [`QueueOpCounts`] as the heap:
//! `pushes`/`pops` count events, `comparisons`/`decreases` count the
//! seq-order insertion work of bucket drains, and `cascades` counts
//! re-filed entries during cursor jumps (always zero for the heap
//! backend). All are integer tallies over the `(time, seq)` trace, so
//! they remain a pure function of the trace — bit-identical across
//! worker counts and machines — exactly like the heap's counters.

use std::collections::VecDeque;

use crate::queue::{Entry, QueueOpCounts};
use crate::time::SimTime;

/// Default number of bits per wheel level (256 slots/level, 8 levels).
pub const DEFAULT_SLOT_BITS: u32 = 8;

/// One wheel level: `1 << slot_bits` buckets plus an occupancy bitmap
/// (one bit per bucket) so the next occupied slot is found by word
/// scans rather than walking empty buckets.
#[derive(Debug)]
struct Level<E> {
    buckets: Vec<Vec<Entry<E>>>,
    occ: Vec<u64>,
}

impl<E> Level<E> {
    fn new(slots: usize) -> Self {
        let mut buckets = Vec::with_capacity(slots);
        for _ in 0..slots {
            buckets.push(Vec::new());
        }
        Level {
            buckets,
            occ: vec![0u64; slots.div_ceil(64)],
        }
    }

    // det::allow(panic-surface, reason = "slot < buckets.len() = 1 << slot_bits by digit masking, and occ holds ceil(buckets/64) words, so slot >> 6 is in bounds")
    fn mark_occupied(&mut self, slot: usize) {
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    // det::allow(panic-surface, reason = "slot < buckets.len() = 1 << slot_bits by digit masking, and occ holds ceil(buckets/64) words, so slot >> 6 is in bounds")
    fn mark_empty(&mut self, slot: usize) {
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Index of the first occupied slot at or after `from`, scanning the
    /// occupancy bitmap one 64-bit word at a time.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let first_word = from >> 6;
        let mut words = self.occ.iter().enumerate().skip(first_word);
        if let Some((w, &bits)) = words.next() {
            let masked = bits & (!0u64 << (from & 63));
            if masked != 0 {
                return Some((w << 6) + masked.trailing_zeros() as usize);
            }
        }
        for (w, &bits) in words {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// A hierarchical timing wheel over the full 64-bit tick space.
///
/// `ceil(64 / slot_bits)` levels of `1 << slot_bits` slots each cover
/// every representable [`SimTime`], so there is no horizon/overflow
/// list. Pending same-tick entries ready for delivery sit in `due`,
/// sorted by sequence number.
#[derive(Debug)]
pub struct TimingWheel<E> {
    slot_bits: u32,
    /// `(1 << slot_bits) - 1`: mask extracting one level's digit.
    mask: u64,
    levels: Vec<Level<E>>,
    /// Entries at tick `due_tick`, in increasing `seq` order; the pop
    /// side drains this before consulting the wheel again.
    due: VecDeque<Entry<E>>,
    due_tick: u64,
    /// Lower bound on every pending tick; equals `now.as_micros()`
    /// between operations (it only runs ahead transiently inside
    /// `fill_due`).
    cursor: u64,
    len: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    ops: QueueOpCounts,
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel with `slot_bits` bits per level.
    ///
    /// # Panics
    /// Panics unless `1 <= slot_bits <= 16` (beyond 16 the per-level
    /// bucket array is pointlessly large).
    pub fn new(slot_bits: u32) -> Self {
        Self::with_capacity(slot_bits, 0)
    }

    /// Creates an empty wheel, pre-allocating the due list.
    pub fn with_capacity(slot_bits: u32, cap: usize) -> Self {
        assert!(
            (1..=16).contains(&slot_bits),
            "slot_bits must be in 1..=16, got {slot_bits}"
        );
        let slots = 1usize << slot_bits;
        let n_levels = 64usize.div_ceil(slot_bits as usize);
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            levels.push(Level::new(slots));
        }
        TimingWheel {
            slot_bits,
            mask: (slots - 1) as u64,
            levels,
            due: VecDeque::with_capacity(cap),
            due_tick: 0,
            cursor: 0,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            ops: QueueOpCounts::ZERO,
        }
    }

    /// Bits per wheel level (the tick-granularity knob).
    pub fn slot_bits(&self) -> u32 {
        self.slot_bits
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Exact operation tallies (monotone; survive [`TimingWheel::reset`]).
    pub fn op_counts(&self) -> QueueOpCounts {
        self.ops
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        debug_assert_eq!(
            self.cursor,
            self.now.as_micros(),
            "cursor must equal now between operations"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ops.pushes += 1;
        self.len += 1;
        self.insert_entry(Entry { time, seq, event });
    }

    /// Pops the earliest event (by `(time, seq)`), advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() && !self.fill_due() {
            return None;
        }
        let entry = self.due.pop_front()?;
        debug_assert_eq!(entry.time.as_micros(), self.due_tick);
        self.now = entry.time;
        self.len -= 1;
        self.popped += 1;
        self.ops.pops += 1;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.due.front() {
            return Some(front.time);
        }
        if self.len == 0 {
            return None;
        }
        // Level 0: the found slot pins the full tick.
        let c0 = (self.cursor & self.mask) as usize;
        if let Some(s) = self.levels[0].first_occupied_from(c0) {
            return Some(SimTime::from_micros((self.cursor & !self.mask) | s as u64));
        }
        // Higher levels: the first occupied slot at the lowest non-empty
        // level holds the globally earliest entries (levels are strictly
        // time-ordered); its minimum timestamp is the answer.
        for (k, level) in self.levels.iter().enumerate().skip(1) {
            let from = ((self.cursor >> (k as u32 * self.slot_bits)) & self.mask) as usize;
            if let Some(s) = level.first_occupied_from(from) {
                return level.buckets[s].iter().map(|e| e.time).min();
            }
        }
        unreachable!("timing wheel has {} pending events but no occupied slot", self.len)
    }

    /// Iterates over pending events in **unspecified order** (bucket
    /// order, not delivery order); for diagnostics only.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.due
            .iter()
            .chain(
                self.levels
                    .iter()
                    .flat_map(|l| l.buckets.iter().flat_map(|b| b.iter())),
            )
            .map(|e| (e.time, &e.event))
    }

    /// Removes all pending events and resets the clock and the `popped`
    /// counter; sequence numbering and op tallies are kept (matching
    /// the heap backend's reset semantics).
    ///
    /// Bucket storage is released, not kept: which buckets a run fills
    /// depends on its timestamps, so a wheel reused across runs would
    /// otherwise hold the union of every run's bursts.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            for bucket in &mut level.buckets {
                *bucket = Vec::new();
            }
            for word in &mut level.occ {
                *word = 0;
            }
        }
        self.due.clear();
        self.due_tick = 0;
        self.cursor = 0;
        self.len = 0;
        self.now = SimTime::ZERO;
        self.popped = 0;
    }

    /// Level of the highest radix digit in which `tick` differs from
    /// the cursor (0 when equal).
    fn level_of(&self, tick: u64) -> usize {
        let diff = tick ^ self.cursor;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / self.slot_bits) as usize
        }
    }

    /// Files an entry under its level/slot for the current cursor.
    // det::allow(panic-surface, reason = "level < levels.len() because level_of divides a bit index < 64 by slot_bits, and slot <= mask < buckets.len() by construction")
    fn insert_entry(&mut self, entry: Entry<E>) {
        let tick = entry.time.as_micros();
        debug_assert!(tick >= self.cursor, "entry behind the cursor");
        let level = self.level_of(tick);
        let slot = ((tick >> (level as u32 * self.slot_bits)) & self.mask) as usize;
        let l = &mut self.levels[level];
        l.buckets[slot].push(entry);
        l.mark_occupied(slot);
    }

    /// Advances the cursor to the earliest pending tick and moves that
    /// tick's entries into `due` (sorted by `seq`). Returns false iff
    /// nothing is pending.
    ///
    /// Scans bottom-up: a level-0 hit pins an exact tick; a hit at a
    /// higher level only narrows the window — the cursor jumps to the
    /// window start and the bucket cascades into finer levels.
    // det::allow(panic-surface, reason = "slot indices come from first_occupied_from over the occupancy bitmap (always in bounds); due[pos-1] is guarded by pos > 0; the final assert documents that len > 0 implies an occupied slot exists")
    fn fill_due(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            let c0 = (self.cursor & self.mask) as usize;
            if let Some(s) = self.levels[0].first_occupied_from(c0) {
                self.cursor = (self.cursor & !self.mask) | s as u64;
                self.due_tick = self.cursor;
                let mut bucket = std::mem::take(&mut self.levels[0].buckets[s]);
                self.levels[0].mark_empty(s);
                for entry in bucket.drain(..) {
                    debug_assert_eq!(entry.time.as_micros(), self.due_tick);
                    // Counted insertion sort by seq. Buckets accumulate
                    // in increasing seq order, so this is one comparison
                    // and zero moves per entry in practice, but the sort
                    // is what the FIFO tie-break contract rests on.
                    let mut pos = self.due.len();
                    while pos > 0 {
                        self.ops.comparisons += 1;
                        if self.due[pos - 1].seq <= entry.seq {
                            break;
                        }
                        pos -= 1;
                    }
                    self.ops.decreases += (self.due.len() - pos) as u64;
                    self.due.insert(pos, entry);
                }
                // Hand the emptied allocation back to the bucket.
                self.levels[0].buckets[s] = bucket;
                return true;
            }
            let mut advanced = false;
            for k in 1..self.levels.len() {
                let shift = k as u32 * self.slot_bits;
                let from = ((self.cursor >> shift) & self.mask) as usize;
                if let Some(s) = self.levels[k].first_occupied_from(from) {
                    debug_assert!(s > from, "cursor's own higher-level slot must be empty");
                    let mut bucket = std::mem::take(&mut self.levels[k].buckets[s]);
                    self.levels[k].mark_empty(s);
                    // Jump to the window start: digits above level k keep
                    // the cursor's value, level k takes the slot digit,
                    // everything below is zeroed.
                    let upper_shift = shift + self.slot_bits;
                    let upper = if upper_shift >= 64 {
                        0
                    } else {
                        (self.cursor >> upper_shift) << upper_shift
                    };
                    self.cursor = upper | ((s as u64) << shift);
                    for entry in bucket.drain(..) {
                        self.ops.cascades += 1;
                        self.insert_entry(entry);
                    }
                    self.levels[k].buckets[s] = bucket;
                    advanced = true;
                    break;
                }
            }
            assert!(
                advanced,
                "timing wheel invariant broken: {} pending events but no occupied slot",
                self.len
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimingWheel::new(2); // tiny slots force multi-level filing
        w.schedule(SimTime::from_micros(1_000_000), "far");
        w.schedule(SimTime::from_micros(3), "near");
        w.schedule(SimTime::from_micros(700), "mid");
        assert_eq!(w.pop().unwrap().1, "near");
        assert_eq!(w.pop().unwrap().1, "mid");
        assert_eq!(w.pop().unwrap().1, "far");
        assert!(w.pop().is_none());
        assert!(w.op_counts().cascades > 0, "multi-level pops must cascade");
    }

    #[test]
    fn same_tick_pops_fifo_even_when_scheduled_mid_drain() {
        let mut w = TimingWheel::new(8);
        let t = SimTime::from_millis(5);
        w.schedule(t, 0u32);
        w.schedule(t, 1);
        assert_eq!(w.pop().unwrap().1, 0);
        // Same-instant schedule while the due list is mid-drain: must
        // land after the already-queued seq 1.
        w.schedule(t, 2);
        assert_eq!(w.pop().unwrap().1, 1);
        assert_eq!(w.pop().unwrap().1, 2);
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_matches_pop_at_every_step() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let mut g = Xoshiro256StarStar::new(7);
        let mut w = TimingWheel::new(4);
        for i in 0..500u64 {
            w.schedule(SimTime::from_micros(g.next_below(100_000)), i);
        }
        while let Some(peeked) = w.peek_time() {
            let (t, _) = w.pop().expect("peek promised an event");
            assert_eq!(t, peeked);
        }
        assert_eq!(w.popped(), 500);
    }

    #[test]
    fn full_tick_range_is_representable() {
        let mut w = TimingWheel::new(8);
        w.schedule(SimTime::from_micros(u64::MAX), "heat death");
        w.schedule(SimTime::from_micros(0), "big bang");
        assert_eq!(w.pop().unwrap().1, "big bang");
        let (t, e) = w.pop().unwrap();
        assert_eq!(e, "heat death");
        assert_eq!(t.as_micros(), u64::MAX);
    }

    #[test]
    fn cascades_are_counted_and_conserved() {
        let mut w = TimingWheel::new(1); // 64 levels: maximum cascading
        for i in 0..64u64 {
            w.schedule(SimTime::from_micros(1 << i), i);
        }
        while w.pop().is_some() {}
        let ops = w.op_counts();
        assert_eq!(ops.pushes, 64);
        assert_eq!(ops.pops, 64);
        assert!(ops.cascades > 0);
        assert!(ops.decreases <= ops.comparisons, "sort work bound");
    }

    #[test]
    fn reset_keeps_tallies_and_seq_monotone() {
        let mut w = TimingWheel::new(8);
        w.schedule(SimTime::from_secs(1), ());
        w.pop();
        let before = w.op_counts();
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.now(), SimTime::ZERO);
        assert_eq!(w.popped(), 0);
        assert_eq!(w.op_counts(), before, "op tallies are monotone");
        w.schedule(SimTime::from_micros(1), ());
        assert_eq!(w.pop().unwrap().0, SimTime::from_micros(1));
    }

    #[test]
    fn reset_releases_bucket_storage() {
        let reserved = |w: &TimingWheel<u64>| -> usize {
            w.levels
                .iter()
                .flat_map(|l| l.buckets.iter())
                .map(Vec::capacity)
                .sum()
        };
        let mut w = TimingWheel::new(8);
        for i in 0..1000u64 {
            w.schedule(SimTime::from_micros(i * 7919), i);
        }
        // A run_until-style partial drain: drained buckets get their
        // allocation handed back, undrained ones still hold entries.
        for _ in 0..300 {
            w.pop();
        }
        assert!(reserved(&w) > 0);
        w.reset();
        assert_eq!(reserved(&w), 0, "a reused wheel must not ratchet");
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_chain_advances_cleanly() {
        let mut w = TimingWheel::new(3);
        w.schedule(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, hop)) = w.pop() {
            seen.push(hop);
            if hop < 5 {
                w.schedule(t + SimDuration::from_millis(10), hop + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(w.now(), SimTime::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "slot_bits must be in 1..=16")]
    fn zero_slot_bits_is_rejected() {
        let _ = TimingWheel::<()>::new(0);
    }
}
