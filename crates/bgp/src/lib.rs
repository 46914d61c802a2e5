//! # bgpscale-bgp
//!
//! The BGP protocol machine of the CoNEXT 2008 scalability study: a
//! faithful implementation of the per-AS node model of the paper's Fig. 2,
//! **decoupled from any event loop** so it can be unit-tested in isolation
//! and driven by the network simulator in `bgpscale-core`.
//!
//! Components:
//!
//! * [`message`] — UPDATE messages ([`Update`]): announcements carrying an
//!   AS path, and explicit withdrawals.
//! * [`path`] — AS paths, hash-consed into four-byte [`PathId`]s by the
//!   [`PathArena`] a simulator lends to its nodes.
//! * [`policy`] — Gao–Rexford "no-valley / prefer-customer" export rules
//!   and sender-side loop detection.
//! * [`decision`] — the best-route selection process: LOCAL_PREF by
//!   business relationship (customer > peer > provider), then shortest AS
//!   path, then a deterministic hash of the next-hop AS id.
//! * [`mrai`] — the per-interface MRAI rate-limiting output queue, in both
//!   the RFC 1771 flavor (**NO-WRATE**: withdrawals bypass the timer) and
//!   the RFC 4271 flavor (**WRATE**: withdrawals are rate-limited like any
//!   other update).
//! * [`arena`] — [`SessionSlab`], every node's sessions in one global
//!   session id space, cut per node by a checked [`Stripe`], and
//!   [`RouteSlab`], every route of the network —
//!   Adj-RIBs-in, Loc-RIBs, output queues, damping history — in
//!   simulator-wide columns indexed by it.
//! * [`node`] — [`BgpNode`], the view of one node's routes a protocol
//!   step runs on: decision process, export filters, and one MRAI output
//!   queue per neighbor. Processing a message appends the resulting sends
//!   to a list the simulator lends, and arms timers and schedules expiries
//!   and wake-ups through the clock it lends ([`mrai::Clock`]).
//! * [`config`] — [`BgpConfig`]: the WRATE switch, the MRAI scope and
//!   optional damping; the timer value, its jitter range and the
//!   processing and propagation delays are constants beside it.
//! * [`rfd`] — optional Route Flap Damping (RFC 2439), the paper's
//!   future-work mechanism: per-(session, prefix) penalties with
//!   exponential decay, suppression and reuse, under the vendor
//!   parameters, which are constants of the module.

#![forbid(unsafe_code)]
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

pub mod arena;
pub mod config;
pub mod decision;
pub mod message;
pub mod mrai;
pub mod node;
pub mod path;
pub mod policy;
pub mod rfd;

pub use arena::{DampTable, RouteSlab, SessionSlab, Stripe};
pub use bgpscale_obs::{Provenance, RootCauseKind, RootSets, Stamp};
pub use config::{BgpConfig, MraiMode, MraiScope};
pub use message::{Prefix, Update, UpdateKind};
pub use node::{BgpNode, NodeView};
pub use path::{PathArena, PathId};
