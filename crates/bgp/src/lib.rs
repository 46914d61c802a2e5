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
//! * [`node`] — [`BgpNode`]: Adj-RIB-in per neighbor, Loc-RIB, decision
//!   process, export filters, and one MRAI output queue per neighbor.
//!   Processing a message returns the resulting sends and timer requests as
//!   plain data ([`node::Actions`]); the simulator decides when they
//!   happen.
//! * [`config`] — [`BgpConfig`]: timer values, jitter range, processing and
//!   propagation delays, and the WRATE switch.
//! * [`rfd`] — optional Route Flap Damping (RFC 2439), the paper's
//!   future-work mechanism: per-(session, prefix) penalties with
//!   exponential decay, suppression and reuse.

#![forbid(unsafe_code)]

pub mod arena;
pub mod config;
pub mod decision;
pub mod message;
pub mod mrai;
pub mod node;
pub mod path;
pub mod policy;
pub mod rfd;

pub use arena::{DampTable, PrefixTable, SessionSlab};
pub use bgpscale_obs::{Provenance, RootCauseKind, RootSets};
pub use config::{BgpConfig, MraiMode, MraiScope, ServiceTimeModel};
pub use message::{Prefix, Update, UpdateKind};
pub use node::{BgpNode, NodeCostCounters};
pub use path::{PathArena, PathId};
