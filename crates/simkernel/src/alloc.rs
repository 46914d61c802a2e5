//! Optional allocation counting (feature `alloc-count`).
//!
//! When the `alloc-count` feature is enabled, [`CountingAlloc`] wraps the
//! system allocator and tallies allocation calls, bytes requested, and the
//! peak number of live heap bytes into process-global atomics. The
//! benchmark's traced binary (`benchmark/`, `bgpbench-traced`) installs it
//! as the `#[global_allocator]` to report its `alloc.*` metrics.
//!
//! **Allocation counts are wall-side telemetry, not deterministic
//! artifacts.** They vary with worker count (thread stacks, scratch
//! buffers) and allocator/library versions, so they are reported only by
//! the benchmark — never in `costmodel.json`, `metrics.json` or any other
//! byte-identity-gated file.
//!
//! Without the feature the module still compiles (so callers need no
//! `cfg`s): [`snapshot`] simply returns `None` and the crate keeps its
//! `#![forbid(unsafe_code)]`.

/// A point-in-time reading of the process-global allocation tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Number of allocation calls (`alloc` + `realloc`) so far.
    pub allocs: u64,
    /// Total bytes requested across those calls.
    pub bytes_allocated: u64,
    /// Live heap bytes right now (allocated minus freed).
    pub current_bytes: u64,
    /// High-water mark of live heap bytes.
    pub peak_bytes: u64,
}

impl AllocSnapshot {
    /// Allocation activity between `earlier` and `self` (call-count and
    /// byte deltas; `peak_bytes` is carried over as the later reading
    /// since a high-water mark cannot be meaningfully subtracted).
    ///
    /// Deliberately *not* named `since`: this module is wall-side, and
    /// `since` is the deterministic tier's delta-method name
    /// (`SimTime::since`, `OpCounts::since`). det's call graph
    /// resolves ambiguous method names to every workspace impl, so a
    /// shared name would make every deterministic `.since(..)` call
    /// look like a wall-side crossing.
    pub fn delta_since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            current_bytes: self.current_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// Reads the current allocation tallies, or `None` when the crate was
/// built without the `alloc-count` feature (or the counting allocator was
/// not installed as the global allocator).
pub fn snapshot() -> Option<AllocSnapshot> {
    #[cfg(feature = "alloc-count")]
    {
        counting::snapshot_if_active()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}

#[cfg(feature = "alloc-count")]
pub use counting::CountingAlloc;

#[cfg(feature = "alloc-count")]
mod counting {
    use super::AllocSnapshot;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
    static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// A system-allocator wrapper that tallies every allocation into
    /// process-global atomics. Install with:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: bgpscale_simkernel::alloc::CountingAlloc =
    ///     bgpscale_simkernel::alloc::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    fn record_alloc(size: usize) {
        ACTIVE.store(true, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
        let live = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(size: usize) {
        // Saturate rather than wrap: allocations made before the statics
        // initialized can be freed after.
        let _ = CURRENT_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }

    #[allow(unsafe_code)]
    // SAFETY: every call forwards verbatim to `System`, which upholds the
    // GlobalAlloc contract; the bookkeeping uses only atomics.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                record_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            record_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                record_dealloc(layout.size());
                record_alloc(new_size);
            }
            p
        }
    }

    pub(super) fn snapshot_if_active() -> Option<AllocSnapshot> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return None;
        }
        Some(AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
            current_bytes: CURRENT_BYTES.load(Ordering::Relaxed),
            peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_since_subtracts_flow_counters() {
        let earlier = AllocSnapshot {
            allocs: 10,
            bytes_allocated: 1_000,
            current_bytes: 400,
            peak_bytes: 700,
        };
        let later = AllocSnapshot {
            allocs: 25,
            bytes_allocated: 3_000,
            current_bytes: 500,
            peak_bytes: 900,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.allocs, 15);
        assert_eq!(d.bytes_allocated, 2_000);
        assert_eq!(d.peak_bytes, 900, "peak carries the later high-water mark");
    }

    #[cfg(not(feature = "alloc-count"))]
    #[test]
    fn snapshot_is_none_without_the_feature() {
        assert_eq!(snapshot(), None);
    }
}
