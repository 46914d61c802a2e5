//! # bgpscale-simkernel
//!
//! A small, fully deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the lowest substrate of the `bgpscale` workspace: the
//! event-driven BGP simulator from the CoNEXT 2008 paper *"On the scalability
//! of BGP: the roles of topology growth and update rate-limiting"* runs on
//! top of it. The kernel deliberately knows nothing about BGP — it provides
//! exactly three things:
//!
//! * **Simulated time** ([`SimTime`], [`SimDuration`]) with microsecond
//!   resolution. Wall-clock time never enters a simulation.
//! * **A deterministic event queue** ([`EventQueue`]) keyed by
//!   `(time, sequence number)` so that events scheduled for the same
//!   instant are delivered in scheduling order, making every run a pure
//!   function of its inputs. It is a monotone radix heap over one pool
//!   of entries, its work counted exactly ([`QueueOpCounts`]). A key can
//!   be reserved without an event ([`EventQueue::reserve`]), so a caller
//!   may keep events of its own beside the heap — a FIFO of messages that
//!   all take one constant delay — and merge them into the same
//!   `(time, sequence number)` order ([`EventQueue::pop_by`],
//!   [`EventQueue::advance_to`]).
//! * **Seeded PRNG streams** ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`])
//!   implemented locally so that results are bit-for-bit reproducible
//!   independent of external crate version churn.
//!
//! ## Example
//!
//! ```
//! use bgpscale_simkernel::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(30), "mrai expiry");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(10), "delivery");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "delivery");
//! assert_eq!(t, SimTime::from_micros(10_000));
//! ```

// The counting global allocator (`alloc-count` feature) is the one place
// in the workspace that needs `unsafe` (the `GlobalAlloc` trait); every
// other configuration keeps the crate-wide forbid.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-count", deny(unsafe_code))]
// The panic surface: a panic in a deterministic crate aborts a cell, so
// every index, unwrap, expect and panic! outside the tests is either
// rewritten away or audited by an `#[expect(<lint>, reason = "...")]` on
// its function.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod alloc;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod rss;
pub mod time;

pub use alloc::AllocSnapshot;
pub use pool::{effective_jobs, run_indexed_with};
pub use queue::{EventKey, EventQueue, QueueOpCounts};
pub use rng::{hash64_bytes, hash64_pair, Rng, SplitMix64, Xoshiro256StarStar};
pub use rss::peak_rss_bytes;
pub use time::{SimDuration, SimTime};
