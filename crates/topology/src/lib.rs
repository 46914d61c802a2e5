//! # bgpscale-topology
//!
//! A controllable, business-relationship-annotated AS-level Internet
//! topology generator, reproducing §3 of *"On the scalability of BGP: the
//! roles of topology growth and update rate-limiting"* (CoNEXT 2008).
//!
//! The generator is deliberately **operational** rather than abstract: its
//! knobs are quantities a network operator would recognize — how many
//! providers a stub buys transit from, how likely a content provider is to
//! peer, what fraction of mid-tier ISPs buy transit directly from tier-1
//! networks — instead of graph-theoretic targets like assortativity.
//!
//! ## Node types
//!
//! * **T** (tier-1): no providers; all T nodes form a full peering clique.
//! * **M** (mid-level): one or more providers (T or M); may peer with M.
//! * **CP** (content provider / stub with peering): providers among T/M;
//!   may peer with M and CP nodes.
//! * **C** (customer stub): providers among T/M; never peers.
//!
//! ## The four stable properties
//!
//! Generated topologies preserve the four invariants the paper identifies
//! as stable across a decade of Internet growth, each verifiable with
//! [`metrics`]:
//!
//! 1. hierarchical structure (the provider relation is acyclic),
//! 2. power-law (truncated) degree distribution via preferential attachment,
//! 3. strong clustering (regions + the T clique),
//! 4. constant average path length (~4 AS hops) as the network grows.
//!
//! ## Example
//!
//! ```
//! use bgpscale_topology::{generate, GrowthScenario, validate::validate};
//!
//! let graph = generate(GrowthScenario::Baseline, 500, 42);
//! assert_eq!(graph.len(), 500);
//! validate(&graph).expect("all structural invariants hold");
//! ```

#![forbid(unsafe_code)]

pub mod generator;
pub mod graph;
pub mod metrics;
pub mod params;
mod sampler;
pub mod scenario;
pub mod types;
pub mod validate;
pub mod valley;

pub use generator::generate;
pub use graph::{AsGraph, Neighbor};
pub use params::TopologyParams;
pub use scenario::GrowthScenario;
pub use types::{AsId, NodeType, RegionSet, Relationship};
