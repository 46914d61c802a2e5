//! One module per reproduced table/figure, plus shared series helpers.
//!
//! Every driver has the signature `run(&mut Sweeper) -> Figure` (those
//! that need no churn sweep — [`table1`], [`fig1`], [`fig3`] — read only
//! its seed and sizes) and encodes the paper's qualitative claims for its
//! figure as PASS/FAIL checks. [`TARGETS`] lists them all by `repro`
//! target name.

pub mod ext_burstiness;
pub mod ext_concurrency;
pub mod ext_convergence;
pub mod ext_levent;
pub mod ext_rfd;
pub mod ext_tablesize;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

use std::sync::Arc;

use bgpscale_core::ChurnReport;
use bgpscale_topology::{NodeType, Relationship};

use crate::report::Figure;
use crate::sweep::Sweeper;

/// A figure driver.
pub type Driver = fn(&mut Sweeper) -> Figure;

/// Every figure `repro` regenerates, by target name, in the order
/// `repro all` runs them.
pub const TARGETS: [(&str, Driver); 18] = [
    ("table1", table1::run),
    ("fig1", fig1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("ext_levent", ext_levent::run),
    ("ext_burstiness", ext_burstiness::run),
    ("ext_rfd", ext_rfd::run),
    ("ext_convergence", ext_convergence::run),
    ("ext_concurrency", ext_concurrency::run),
    ("ext_tablesize", ext_tablesize::run),
];

/// Which of the three per-class factors to extract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Which {
    /// Neighbor count `m`.
    M,
    /// Activation probability `q`.
    Q,
    /// Updates per active neighbor `e`.
    E,
    /// Updates from the class `U_y = mean(m·q·e)`.
    U,
}

/// Extracts the total-churn series `U(ty)` over a sweep.
pub fn series_u(reports: &[Arc<ChurnReport>], ty: NodeType) -> Vec<f64> {
    reports.iter().map(|r| r.by_type(ty).u_total).collect()
}

/// Extracts one factor series over a sweep.
pub fn series_factor(
    reports: &[Arc<ChurnReport>],
    ty: NodeType,
    rel: Relationship,
    which: Which,
) -> Vec<f64> {
    reports
        .iter()
        .map(|r| {
            let f = r.factor(ty, rel);
            match which {
                Which::M => f.m,
                Which::Q => f.q,
                Which::E => f.e,
                Which::U => f.u,
            }
        })
        .collect()
}

/// The sizes of a sweep, as f64 x-values for regression.
pub fn sizes_f64(reports: &[Arc<ChurnReport>]) -> Vec<f64> {
    reports.iter().map(|r| r.n as f64).collect()
}

/// "Roughly equal": `|a − b| ≤ tol · max(|a|, |b|)`.
pub fn roughly_equal(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// True if the series trends upward overall (robust to per-point noise):
/// the last element exceeds the first and the Kendall tau is positive.
pub fn trends_upward(series: &[f64]) -> bool {
    if series.len() < 2 {
        return false;
    }
    let rising_ends = series.last().unwrap() > series.first().unwrap();
    rising_ends && bgpscale_stats::mann_kendall::kendall_s(series) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_upward_logic() {
        assert!(trends_upward(&[1.0, 2.0, 1.8, 3.0]));
        assert!(!trends_upward(&[3.0, 2.0, 1.0]));
        assert!(!trends_upward(&[1.0, 5.0, 1.0])); // ends where it started
        assert!(!trends_upward(&[1.0]));
    }

    #[test]
    fn roughly_equal_tolerance() {
        assert!(roughly_equal(10.0, 11.0, 0.15));
        assert!(!roughly_equal(10.0, 15.0, 0.15));
        assert!(roughly_equal(0.0, 0.0, 0.1));
    }
}
