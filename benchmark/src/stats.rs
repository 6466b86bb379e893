//! The few statistics the benchmark reports: medians, quartiles,
//! geometric means, and the percentile rule of the metrics guide.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// so spreads printed here match the ones the driver computes.
///
/// # Panics
/// Panics on fewer than two samples, as Python does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Quartile spread as a share of the median: `(q3 - q1) / q2`.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Geometric mean, so a 2x change in any one term moves the result by
/// the same factor whichever term it is.
///
/// # Panics
/// Panics on an empty slice or a non-positive term.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no terms");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean term {v} is not positive");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// The percentile rule: the highest of p50/p90/p99/p99.9 that still has at
/// least ten samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In per-mille, so the comparison is exact.
    [(999, 99.9), (990, 99.0), (900, 90.0), (500, 50.0)]
        .into_iter()
        .find(|(permille, _)| samples * (1000 - permille) >= 10 * 1000)
        .map(|(_, q)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_scale_symmetric() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let base = geomean(&[10.0, 1000.0, 7.0]);
        let first = geomean(&[20.0, 1000.0, 7.0]);
        let last = geomean(&[10.0, 1000.0, 14.0]);
        assert!((first / base - last / base).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
