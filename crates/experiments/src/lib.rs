//! # bgpscale-experiments
//!
//! Drivers that regenerate **every table and figure** of the CoNEXT 2008
//! paper *"On the scalability of BGP: the roles of topology growth and
//! update rate-limiting"*:
//!
//! | id | content | module |
//! |----|---------|--------|
//! | Table 1 | topology parameters, configured vs realized | [`figures::table1`] |
//! | Fig. 1 | churn growth at a monitor + Mann–Kendall trend | [`figures::fig1`] |
//! | Fig. 3 | an example topology instance (DOT sketch) | [`figures::fig3`] |
//! | Fig. 4 | U(X) vs n for X ∈ {T, M, CP, C} | [`figures::fig4`] |
//! | Fig. 5 | churn components Uc(T), Up(T); Ud(M), Up(M), Uc(M) | [`figures::fig5`] |
//! | Fig. 6 | relative increase + regression of Uc(T), Up(T), Ud(M) | [`figures::fig6`] |
//! | Fig. 7 | relative increase of the m, e, q factors | [`figures::fig7`] |
//! | Fig. 8 | the AS population mix deviations | [`figures::fig8`] |
//! | Fig. 9 | the multihoming-degree deviations | [`figures::fig9`] |
//! | Fig. 10 | the peering deviations | [`figures::fig10`] |
//! | Fig. 11 | the provider-preference deviations | [`figures::fig11`] |
//! | Fig. 12 | WRATE vs NO-WRATE | [`figures::fig12`] |
//! | Ext. E1 | link failure + recovery (L-events) | [`figures::ext_levent`] |
//! | Ext. E2 | within-convergence burstiness | [`figures::ext_burstiness`] |
//! | Ext. E3 | Route Flap Damping vs a flap storm | [`figures::ext_rfd`] |
//! | Ext. E4 | convergence times per MRAI mode | [`figures::ext_convergence`] |
//! | Ext. E5 | concurrent events: per-interface vs per-prefix MRAI | [`figures::ext_concurrency`] |
//! | Ext. E6 | per-event churn vs resident table size | [`figures::ext_tablesize`] |
//!
//! (Fig. 2 is the simulator's architecture diagram — it is *implemented*
//! by `bgpscale-bgp`/`bgpscale-core` rather than regenerated as data.)
//!
//! Every driver returns a [`report::Figure`]: formatted tables plus a list
//! of **shape claims** — the qualitative statements the paper makes about
//! the figure (orderings, constancy, superlinearity) — each evaluated
//! against the fresh simulation output. The `repro` binary prints both.
//!
//! Absolute numbers are not expected to match the paper (different random
//! topology instances, different tie-breaking hashes); the claims are the
//! reproduction criteria.

#![forbid(unsafe_code)]

pub mod churn_trace;
pub mod churnreport;
pub mod figures;
pub mod perf;
pub mod profile;
pub mod report;
pub mod sweep;
pub mod trend;
pub mod wall;

pub use report::{Figure, Table};
pub use sweep::{RunConfig, Sweeper};

/// How `repro` and `topogen` end: the workspace's 0/1/2 exit convention.
/// Their `main` returns it as a [`std::process::ExitCode`];
/// `std::process::exit` is banned in `clippy.toml`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Targets ran and every requested check passed.
    Ok = 0,
    /// A run or a `--check` validation failed.
    Fail = 1,
    /// Usage or configuration error.
    Usage = 2,
}

impl From<Exit> for std::process::ExitCode {
    fn from(exit: Exit) -> std::process::ExitCode {
        std::process::ExitCode::from(exit as u8)
    }
}
