//! # bgpscale-core
//!
//! The event-driven interdomain routing simulator and churn-analysis
//! framework of the CoNEXT 2008 paper *"On the scalability of BGP: the
//! roles of topology growth and update rate-limiting"*.
//!
//! This crate wires the substrates together: it runs one BGP speaker per
//! AS of a [`bgpscale_topology::AsGraph`] — a [`bgpscale_bgp::BgpNode`]
//! view of the simulator's route columns per protocol step — drives them
//! with the deterministic event kernel from
//! `bgpscale-simkernel`, and measures **churn** — the number of UPDATE
//! messages each AS receives — during the paper's canonical routing event:
//!
//! > the **C-event**: withdraw a prefix owned by a customer stub, let the
//! > network converge, then re-announce it and converge again (§4).
//!
//! Modules:
//!
//! * [`sim`] — [`Simulator`]: per-node FIFO input queue (one pool for
//!   all nodes), single processor
//!   with U(0, 100 ms) service time, link delivery, MRAI expiry events.
//! * [`churn`] — [`churn::ChurnCollector`]: per-(receiver, neighbor)
//!   update counters, toggled on around the measured phases.
//! * [`cevent`] — the C-event protocol (warm-up, DOWN, UP).
//! * [`levent`] — the L-event extension: link failure + recovery with
//!   session resets (the paper's "more complex events" future work).
//! * [`flapstorm`] — a persistently flapping origin, with or without
//!   Route Flap Damping (another future-work item).
//! * [`factors`] — the m/q/e decomposition of the paper's Eq. 1:
//!   `U(X) = Σ_y m_{y,X} · q_{y,X} · e_{y,X}` over neighbor classes
//!   y ∈ {customer, peer, provider}.
//! * [`harness`] — [`harness::run_cell`]: average over many C-events from
//!   distinct originators, producing a [`harness::ChurnReport`] with its
//!   op counts and telemetry, or a typed [`harness::CellError`] when an
//!   event never quiesces; [`harness::run_experiment`] is the front door
//!   for the report alone.
//!
//! ## Example
//!
//! ```
//! use bgpscale_core::harness::{run_experiment, ExperimentConfig};
//! use bgpscale_topology::{GrowthScenario, NodeType};
//!
//! let cell = ExperimentConfig::new(GrowthScenario::Baseline, 300, 3, 7, Default::default());
//! let report = run_experiment(&cell);
//! // Tier-1 nodes hear about every C-event at least twice (DOWN + UP).
//! assert!(report.by_type(NodeType::T).u_total >= 2.0);
//! ```

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

pub mod cevent;
pub mod churn;
pub mod factors;
pub mod flapstorm;
pub mod harness;
mod inbox;
pub mod levent;
pub mod sim;

pub use harness::{
    run_cell, run_experiment, run_experiment_observed_with, run_experiment_with_cost, CellError,
    CellPhase, ChurnReport, ExperimentConfig, ObserveOptions, ObservedReport,
};
pub use sim::{BudgetSnapshot, EventBudgetExceeded, SimTemplate, Simulator};
