//! # bgpscale
//!
//! A from-scratch Rust reproduction of
//!
//! > Ahmed Elmokashfi, Amund Kvalbein, Constantine Dovrolis.
//! > *On the scalability of BGP: the roles of topology growth and update
//! > rate-limiting.* ACM CoNEXT 2008.
//!
//! This facade crate re-exports the whole workspace. The pieces:
//!
//! * [`simkernel`] — a deterministic discrete-event simulation kernel
//!   (simulated time, event queue, seeded PRNG streams).
//! * [`topology`] — the paper's controllable AS-level topology generator:
//!   four node classes (tier-1 / mid-level / content-provider / customer
//!   stubs), geographic regions, preferential attachment, business
//!   relationships, the Table-1 Baseline growth model and its thirteen
//!   what-if deviations.
//! * [`bgp`] — the BGP protocol machine: UPDATE messages, Adj-RIB-in /
//!   Loc-RIB / Adj-RIB-out, Gao–Rexford export policies, the decision
//!   process, and per-interface MRAI rate limiting with both withdrawal
//!   treatments (WRATE / NO-WRATE).
//! * [`core`] — the network simulator and churn-analysis framework:
//!   C-events, per-relation update accounting, and the m/q/e factor
//!   decomposition of the paper's Eq. 1. One experiment cell is one call
//!   of [`core::run_cell`]: the churn report, exact op counts and (when
//!   observed) telemetry, identical for any worker count, or a typed
//!   [`core::CellError`] when a C-event never quiesces.
//!   [`core::run_experiment`] is the front door for the report alone.
//! * [`stats`] — Mann–Kendall trend test, Sen's slope, OLS regression,
//!   normal distribution functions, power-law fitting.
//! * [`experiments`] — drivers that regenerate every table and figure of
//!   the paper's evaluation, with the paper's qualitative claims encoded
//!   as PASS/FAIL checks (see the `repro` binary).
//!
//! ## Quickstart
//!
//! ```
//! use bgpscale::prelude::*;
//!
//! // 1. Generate a Baseline topology with 400 ASes.
//! let graph = generate(GrowthScenario::Baseline, 400, 42);
//!
//! // 2. Run 5 C-events and collect the churn report.
//! let report = run_experiment(&ExperimentConfig {
//!     scenario: GrowthScenario::Baseline,
//!     n: 400,
//!     events: 5,
//!     seed: 42,
//!     bgp: BgpConfig::default(),
//!     event_limit: None,
//!     wheel_slot_bits: None,
//! });
//!
//! // 3. Tier-1 networks hear more churn than customer stubs.
//! assert!(report.by_type(NodeType::T).u_total > report.by_type(NodeType::C).u_total);
//! # let _ = graph;
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the system inventory and the paper-vs-measured
//! record.

#![forbid(unsafe_code)]

pub use bgpscale_bgp as bgp;
pub use bgpscale_core as core;
pub use bgpscale_experiments as experiments;
pub use bgpscale_simkernel as simkernel;
pub use bgpscale_stats as stats;
pub use bgpscale_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use bgpscale_bgp::{BgpConfig, BgpNode, MraiMode, MraiScope, Prefix, Update, UpdateKind};
    pub use bgpscale_core::{run_experiment, ChurnReport, ExperimentConfig, Simulator};
    pub use bgpscale_core::cevent::run_c_event;
    pub use bgpscale_simkernel::{SimDuration, SimTime};
    pub use bgpscale_topology::{
        generate, AsGraph, AsId, GrowthScenario, NodeType, RegionSet, Relationship,
        TopologyParams,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let graph = generate(GrowthScenario::Tree, 120, 7);
        let mut sim = Simulator::new(graph, BgpConfig::default(), 7);
        let origin = sim
            .graph()
            .node_ids()
            .find(|&id| sim.graph().node_type(id) == NodeType::C)
            .unwrap();
        let outcome = run_c_event(&mut sim, origin, Prefix(0)).unwrap();
        assert!(outcome.total_updates > 0);
    }
}
