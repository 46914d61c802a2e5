//! Order statistics over small samples of timings.

/// Sorts `values` ascending. Timings are never NaN; a NaN would be a bug
/// in the caller and sorts last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// The median: the middle value, or the mean of the two middle values.
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile of an ascending-sorted sample: the
/// smallest value with at least `p` (0..=1) of the sample at or below it.
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max − min) ÷ median`, the spread `--selfcheck` records per metric.
/// Returns 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = median(&v);
    if v.is_empty() || m == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / m
}

/// The sum, +0 for no values: `Iterator::sum` of no floats is −0.0, which
/// would print as `-0`.
pub fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

/// `num ÷ den`, or 0 when `den` is 0, so a ratio metric is never NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 25.0);
        // p80 of 50 samples leaves exactly ten samples beyond it.
        assert_eq!(percentile(&v, 0.8), 40.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[9.0], 0.8), 9.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn sum_of_nothing_is_positive_zero() {
        assert!(sum(std::iter::empty()).is_sign_positive());
        assert_eq!(sum([1.5, 2.0].into_iter()), 3.5);
    }

    #[test]
    fn ratio_guards_the_zero_denominator() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }
}
