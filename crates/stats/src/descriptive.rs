//! Descriptive statistics: means, deviations, confidence intervals.

use crate::dist::normal_quantile;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample variance (n − 1 denominator); 0 with fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Half-width of the normal-approximation 95% confidence interval of the
/// mean: `z₀.₉₇₅ · s/√n`. With the paper's 100-event samples the normal
/// approximation is accurate to well under a percent versus Student's t.
pub fn confidence_interval_95(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    normal_quantile(0.975) * std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Gini coefficient of a non-negative sample: 0 = perfectly even,
/// → 1 = maximally concentrated. Used to quantify how unevenly churn is
/// distributed across ASes (Broido et al. observed that a small fraction
/// of ASes accounts for most Internet churn).
///
/// # Panics
/// Panics on negative values.
pub fn gini(xs: &[f64]) -> f64 {
    assert!(xs.iter().all(|&x| x >= 0.0), "gini requires non-negative data");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    // G = (2 Σ i·x_i) / (n Σ x_i) − (n + 1)/n  with 1-based ranks.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i + 1) as f64 * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// Five-number-style summary used in experiment reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 95% CI half-width of the mean.
    pub ci95: f64,
}

impl Summary {
    /// Computes the summary; an empty slice yields all-zero fields.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            n: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min).min(f64::INFINITY),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(f64::NEG_INFINITY),
            ci95: confidence_interval_95(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        // Population variance is 4; sample variance = 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(confidence_interval_95(&[3.0]), 0.0);
    }

    #[test]
    fn ci_is_z_times_standard_error() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ci = confidence_interval_95(&xs);
        let expected = 1.959964 * std_dev(&xs) / 10.0;
        assert!((ci - expected).abs() < 1e-4);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| (i % 3) as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 3) as f64).collect();
        assert!(confidence_interval_95(&large) < confidence_interval_95(&small));
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn gini_of_equal_values_is_zero() {
        assert!(gini(&[5.0; 10]).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[3.0]), 0.0);
    }

    #[test]
    fn gini_of_total_concentration_approaches_one() {
        let mut xs = vec![0.0; 100];
        xs[0] = 1_000.0;
        let g = gini(&xs);
        assert!(g > 0.98, "gini {g}");
    }

    #[test]
    fn gini_orders_by_inequality() {
        let even = gini(&[1.0, 1.0, 1.0, 1.0]);
        let mild = gini(&[1.0, 2.0, 3.0, 4.0]);
        let wild = gini(&[0.0, 0.0, 1.0, 9.0]);
        assert!(even < mild && mild < wild);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn gini_rejects_negative_values() {
        gini(&[1.0, -2.0]);
    }

    #[test]
    fn summary_of_empty_slice() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }
}
