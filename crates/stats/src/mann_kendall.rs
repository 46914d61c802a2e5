//! The Mann–Kendall trend test and Sen's slope estimator.
//!
//! The paper's Fig. 1 analysis: *"Due to the high variability, we used the
//! Mann-Kendall test to estimate the trend in churn growth."* The test is
//! non-parametric — it counts concordant vs discordant pairs — which makes
//! it robust to the extreme burstiness of BGP update counts.

use crate::dist::two_sided_p;

/// Direction of a detected monotonic trend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trend {
    /// Significantly increasing at the requested level.
    Increasing,
    /// Significantly decreasing.
    Decreasing,
    /// No significant monotonic trend.
    None,
}

/// Result of the Mann–Kendall test.
#[derive(Clone, Copy, Debug)]
pub struct MannKendall {
    /// The S statistic: #concordant − #discordant pairs.
    pub s: i64,
    /// Variance of S under H₀, with the tie correction.
    pub var_s: f64,
    /// The standardized statistic Z.
    pub z: f64,
    /// Two-sided p-value (normal approximation).
    pub p_value: f64,
    /// Kendall's tau: `S / (n(n−1)/2)`.
    pub tau: f64,
}

impl MannKendall {
    /// Classifies the trend at significance level `alpha`.
    pub fn trend(&self, alpha: f64) -> Trend {
        if self.p_value < alpha {
            if self.s > 0 {
                Trend::Increasing
            } else {
                Trend::Decreasing
            }
        } else {
            Trend::None
        }
    }
}

/// Runs the Mann–Kendall test on an evenly spaced series.
///
/// # Panics
/// Panics with fewer than 3 observations (the test is undefined).
pub fn mann_kendall(xs: &[f64]) -> MannKendall {
    let n = xs.len();
    assert!(n >= 3, "Mann–Kendall needs at least 3 observations");
    let s = kendall_s(xs);

    // Tie correction: group the series by equal values.
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut tie_term = 0.0;
    let mut run = 1usize;
    for k in 1..=n {
        if k < n && sorted[k] == sorted[k - 1] {
            run += 1;
        } else {
            if run > 1 {
                let t = run as f64;
                tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
            }
            run = 1;
        }
    }
    let nf = n as f64;
    let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;

    // Continuity-corrected Z.
    let z = if s > 0 {
        (s as f64 - 1.0) / var_s.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var_s.sqrt()
    } else {
        0.0
    };
    MannKendall {
        s,
        var_s,
        z,
        p_value: two_sided_p(z),
        tau: s as f64 / (nf * (nf - 1.0) / 2.0),
    }
}

/// Kendall's S of a series: over every pair `i < j`, +1 if `xs[j]` is
/// above `xs[i]`, −1 if below, 0 on a tie — #concordant − #discordant.
///
/// # Panics
/// Panics on a NaN.
pub fn kendall_s(xs: &[f64]) -> i64 {
    let mut s: i64 = 0;
    for (i, x) in xs.iter().enumerate() {
        for y in &xs[i + 1..] {
            s += match y.partial_cmp(x).expect("NaN in series") {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
        }
    }
    s
}

/// Sen's slope: the median of all pairwise slopes `(x_j − x_i)/(j − i)`.
/// A robust estimate of the per-step trend magnitude; the paper's "grew
/// approximately by a total of 200% over these three years" is this slope
/// times the series length, relative to the starting level.
///
/// # Panics
/// Panics with fewer than 2 observations.
pub fn sens_slope(xs: &[f64]) -> f64 {
    let n = xs.len();
    assert!(n >= 2, "Sen's slope needs at least 2 observations");
    let mut slopes = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            slopes.push((xs[j] - xs[i]) / (j - i) as f64);
        }
    }
    slopes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = slopes.len();
    if m % 2 == 1 {
        slopes[m / 2]
    } else {
        (slopes[m / 2 - 1] + slopes[m / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictly_increasing_series_detected() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mk = mann_kendall(&xs);
        assert_eq!(mk.s, (50 * 49 / 2) as i64, "all pairs concordant");
        assert!((mk.tau - 1.0).abs() < 1e-12);
        assert!(mk.p_value < 1e-6);
        assert_eq!(mk.trend(0.05), Trend::Increasing);
    }

    #[test]
    fn strictly_decreasing_series_detected() {
        let xs: Vec<f64> = (0..50).map(|i| -(i as f64)).collect();
        let mk = mann_kendall(&xs);
        assert_eq!(mk.trend(0.05), Trend::Decreasing);
        assert!((mk.tau + 1.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_series_has_no_trend() {
        let xs: Vec<f64> = (0..60).map(|i| if i % 2 == 0 { 1.0 } else { 2.0 }).collect();
        let mk = mann_kendall(&xs);
        assert_eq!(mk.trend(0.05), Trend::None, "p = {}", mk.p_value);
    }

    #[test]
    fn noisy_trend_still_detected() {
        // Linear trend with deterministic sawtooth noise much larger than
        // the per-step increment.
        let xs: Vec<f64> = (0..200)
            .map(|i| i as f64 * 0.5 + ((i * 37) % 17) as f64)
            .collect();
        let mk = mann_kendall(&xs);
        assert_eq!(mk.trend(0.05), Trend::Increasing);
    }

    #[test]
    fn ties_reduce_variance_correctly() {
        // A series that is constant except one rise: heavy ties.
        let mut xs = vec![5.0; 30];
        for (i, x) in xs.iter_mut().enumerate().skip(25) {
            *x = 6.0 + i as f64;
        }
        let mk = mann_kendall(&xs);
        // Variance must be smaller than the tie-free formula.
        let n = 30.0f64;
        let untied = n * (n - 1.0) * (2.0 * n + 5.0) / 18.0;
        assert!(mk.var_s < untied);
        assert_eq!(mk.trend(0.05), Trend::Increasing);
    }

    #[test]
    fn sens_slope_of_exact_line() {
        let xs: Vec<f64> = (0..40).map(|i| 3.0 + 2.5 * i as f64).collect();
        assert!((sens_slope(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sens_slope_robust_to_outliers() {
        let mut xs: Vec<f64> = (0..40).map(|i| 1.0 * i as f64).collect();
        xs[20] = 1e6; // single wild outlier
        let slope = sens_slope(&xs);
        assert!((slope - 1.0).abs() < 0.1, "slope {slope} not robust");
    }

    #[test]
    fn kendall_s_counts_concordant_minus_discordant_pairs() {
        assert_eq!(kendall_s(&[1.0, 2.0, 1.8, 3.0]), 5 - 1);
        assert_eq!(kendall_s(&[2.0, 2.0]), 0, "a tie counts neither way");
        assert_eq!(kendall_s(&[1.0]), 0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_short_series_rejected() {
        mann_kendall(&[1.0, 2.0]);
    }
}
