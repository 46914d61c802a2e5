//! The `BENCHMARK.json` runner of the bgpscale simulator.
//!
//! One run takes a workload name and a seed, builds the workload's inputs
//! from the seed, drives the product through its public entry points for a
//! fixed number of seconds, checks what came out, and prints every metric
//! by name with its unit. `README.md` in this directory has the workloads,
//! the metrics and how they relate.

pub mod cli;
pub mod env;
pub mod fingerprint;
pub mod json;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod sut;
pub mod trace;
