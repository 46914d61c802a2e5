//! A minimal scoped-thread worker pool for deterministic fan-out.
//!
//! The experiment layers parallelize *independent* units of work — the
//! C-events of one cell — whose results must be folded back **in index
//! order** so that a parallel run is bit-for-bit identical to a
//! sequential one. This module provides
//! exactly that shape and nothing more: [`run_indexed_with`] evaluates
//! `f(_, 0), f(_, 1), …, f(_, count - 1)` on up to `jobs` worker threads
//! and returns the results ordered by index.
//!
//! Determinism contract:
//!
//! * `f` must be a pure function of its index (each unit derives its own
//!   seed; no shared mutable state), so scheduling order cannot influence
//!   any result. Per-worker state may carry buffers from one unit to the
//!   next, never values a result depends on.
//! * The returned `Vec` is always index-ordered, so any fold the caller
//!   performs over it is independent of which worker finished first.
//! * `jobs <= 1` takes a plain sequential loop — the exact same code path
//!   a single worker would take, with no thread machinery at all.

#![expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned home for thread spawning (clippy.toml names it)"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs`-style request into a concrete worker count:
/// `0` means "use the machine" (`std::thread::available_parallelism`),
/// anything else is taken as-is.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Evaluates `f(state, i)` for `i in 0..count` on up to `jobs` threads
/// and returns the results in index order. Every worker calls `init`
/// once and hands `f` a mutable reference to its own state with each
/// index it claims — scratch buffers, or a simulator recycled from unit
/// to unit.
///
/// Work is distributed dynamically (an atomic next-index counter), so
/// uneven unit costs — a C-event on a 9000-node topology next to one on a
/// 600-node topology — still load-balance. Ordering of the *returned*
/// results is unaffected by the dynamic schedule.
///
/// Panics in `f` propagate: the pool joins all workers and re-raises the
/// first panic rather than returning partial results.
///
/// The determinism contract extends to the state: `f(state, i)` must
/// return the same value whatever indices the worker's state served
/// before, because which worker claims which index is a race. The
/// sequential path (`jobs <= 1`) is the one-worker case: one `init`, every
/// index in order on that state.
pub fn run_indexed_with<S, T, I, F>(jobs: usize, count: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        let mut state = init();
        return (0..count).map(|i| f(&mut state, i)).collect();
    }
    run_threaded(jobs.min(count), count, init, f)
}

#[expect(
    clippy::expect_used,
    reason = "every index below count is claimed by a worker before the scope ends, and a worker's panic is resumed before the slots are read"
)]
fn run_threaded<S, T, I, F>(workers: usize, count: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let value = f(&mut state, i);
                        *slot.lock().expect("result slot poisoned") = Some(value);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let work = |i: usize| {
            // A little arithmetic so the units have non-trivial cost.
            (0..1000u64).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let seq = run_indexed_with(1, 64, || (), |(), i| work(i));
        for jobs in [2, 4, 8] {
            assert_eq!(seq, run_indexed_with(jobs, 64, || (), |(), i| work(i)), "jobs={jobs}");
        }
    }

    #[test]
    fn results_are_index_ordered() {
        let out = run_indexed_with(4, 100, || (), |(), i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn per_worker_state_is_made_once_per_worker_and_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [1, 3, 8] {
            let inits = AtomicUsize::new(0);
            let out = run_indexed_with(
                jobs,
                40,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |served, i| {
                    served.push(i);
                    // The state is the worker's own: indices only grow.
                    assert!(served.windows(2).all(|w| w[0] < w[1]));
                    i * 2
                },
            );
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
            let made = inits.load(Ordering::Relaxed);
            assert!((1..=jobs).contains(&made), "jobs={jobs}: {made} states");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(run_indexed_with(8, 0, || (), |(), i| i), Vec::<usize>::new());
        assert_eq!(run_indexed_with(8, 1, || (), |(), i| i * 7), vec![0]);
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(5), 5);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed_with(4, 16, || (), |(), i| {
                if i == 7 {
                    panic!("unit 7 failed");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
