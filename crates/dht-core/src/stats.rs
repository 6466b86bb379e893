//! Summary statistics in exactly the form the paper reports them.
//!
//! Every distributional figure (key counts, query loads, timeouts) plots
//! "the mean, the 1st and 99th percentiles" (§4.2–§4.4), so [`Summary`]
//! carries precisely those plus min/max/std for the extended reports.
//! [`Histogram`] keeps a whole distribution in log₂ buckets, for the
//! hop and latency histograms the experiments export.

/// Mean, standard deviation, and order statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 1st percentile (paper's lower whisker).
    pub p01: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile (paper's upper whisker).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample of `f64` values. Returns an all-zero summary for
    /// an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p01: 0.0,
                p50: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p01: percentile_sorted(&sorted, 0.01),
            p50: percentile_sorted(&sorted, 0.50),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[n - 1],
        }
    }

    /// Summarizes a sample of unsigned counters (key counts, query loads,
    /// timeout counts).
    #[must_use]
    pub fn of_counts(values: &[u64]) -> Self {
        let as_f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Self::of(&as_f)
    }

    /// Summarizes a sample of `usize` values (path lengths).
    #[must_use]
    pub fn of_lens(values: &[usize]) -> Self {
        let as_f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Self::of(&as_f)
    }
}

/// Percentile by the nearest-rank method over a pre-sorted slice.
///
/// Nearest-rank matches how the paper's whiskers behave for the discrete
/// count data it plots (e.g. "(0, 4)" timeout percentiles in Table 4 are
/// attainable values, not interpolations).
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    // Nearest-rank is 1-based; `ceil` sends q = 0.0 to rank 0, which we
    // define explicitly as the minimum (rank 1) rather than relying on the
    // lower clamp bound to catch it.
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds exact zeros and
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, so 64 value buckets
/// cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-shape log₂-bucket histogram over `u64` observations (path
/// lengths, per-phase hop counts, latencies in µs). Alongside the
/// buckets it tracks exact `count`, `sum`, `min`, and `max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket that would hold `value`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            // value in [2^(i-1), 2^i) => ilog2(value) == i-1.
            value.ilog2() as usize + 1
        }
    }

    /// Inclusive upper bound of bucket `i` (`0` for bucket 0, `2^i - 1`
    /// otherwise; bucket 64's bound is `u64::MAX`).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            0
        } else if i == HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all observations, or `0.0` if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs — the compact
    /// form written to the JSON export.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper_bound(i), c))
            .collect()
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by the
    /// nearest-rank rule over the log₂ buckets, or `None` if empty.
    ///
    /// **Error bound.** The rank is exact (bucket counts are exact), so
    /// the true quantile lies inside the selected bucket; the estimate
    /// is that bucket's midpoint, clamped to the exact observed
    /// `[min, max]`. A bucket spans `[2^(i-1), 2^i)`, so the estimate
    /// is always within a factor of 2 of the true quantile — and exact
    /// whenever the bucket is degenerate: an empty-range clamp (all
    /// observations equal), the zero bucket, or a quantile pinned to
    /// `min`/`max`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based: smallest r with r/count >= q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The first and last ranks are the exact observed extremes.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        let mut idx = HISTOGRAM_BUCKETS - 1;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                idx = i;
                break;
            }
        }
        let estimate = if idx == 0 {
            0
        } else {
            let low = 1u64 << (idx - 1);
            let high = Self::bucket_upper_bound(idx);
            low + (high - low) / 2
        };
        Some(estimate.clamp(self.min, self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zeroes() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.p01, 42.0);
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn mean_and_std_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.01), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.50), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
    }

    #[test]
    fn of_counts_matches_of() {
        let a = Summary::of_counts(&[1, 2, 3]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        // Nearest-rank percentiles must be actual sample values.
        let vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s = Summary::of(&vals);
        assert!(vals.contains(&s.p01));
        assert!(vals.contains(&s.p50));
        assert!(vals.contains(&s.p99));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_bad_quantile() {
        let _ = percentile_sorted(&[1.0], 1.5);
    }

    #[test]
    fn percentile_extreme_quantiles_are_min_and_max() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0, "q = 0 is the minimum");
        assert_eq!(
            percentile_sorted(&sorted, 1.0),
            100.0,
            "q = 1 is the maximum"
        );
    }

    #[test]
    fn percentile_single_sample_is_that_sample_for_all_quantiles() {
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_sorted(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_two_samples_split_at_the_median() {
        let sorted = [1.0, 2.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.01), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.50), 1.0, "rank ceil(1.0) = 1");
        assert_eq!(percentile_sorted(&sorted, 0.51), 2.0, "rank ceil(1.02) = 2");
        assert_eq!(percentile_sorted(&sorted, 0.99), 2.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 2.0);
    }

    #[test]
    fn percentile_empty_sample_is_zero_at_any_quantile() {
        assert_eq!(percentile_sorted(&[], 0.0), 0.0);
        assert_eq!(percentile_sorted(&[], 1.0), 0.0);
    }

    #[test]
    fn of_counts_survives_u64_max() {
        let s = Summary::of_counts(&[u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(s.n, 3);
        let expect = u64::MAX as f64;
        assert_eq!(s.mean, expect);
        assert_eq!(s.min, expect);
        assert_eq!(s.max, expect);
        assert_eq!(s.p01, expect);
        assert_eq!(s.p99, expect);
        assert_eq!(s.std_dev, 0.0, "identical samples have zero spread");
        assert!(s.mean.is_finite());
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exact zeros; bucket i covers [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Upper bounds line up with the index rule: a value lands in the
        // first bucket whose bound is >= value.
        for i in 0..HISTOGRAM_BUCKETS {
            let ub = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(ub), i, "bound of bucket {i}");
            if i > 0 && i < HISTOGRAM_BUCKETS - 1 {
                assert_eq!(Histogram::bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_and_summarises() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(8));
        assert!((h.mean() - 2.8).abs() < 1e-12);
        // The zero; 1; 2 and 3; 8.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (3, 2), (15, 1)]);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: no quantile exists.
        assert_eq!(Histogram::new().quantile(0.5), None);

        // All zeros: every quantile is the zero bucket, exactly.
        let mut zeros = Histogram::new();
        for _ in 0..10 {
            zeros.record(0);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(zeros.quantile(q), Some(0), "q={q}");
        }

        // Single bucket with equal observations: the [min, max] clamp
        // collapses the bucket-midpoint error to zero.
        let mut single = Histogram::new();
        for _ in 0..5 {
            single.record(100);
        }
        assert_eq!(single.quantile(0.5), Some(100));
        assert_eq!(single.quantile(1.0), Some(100));

        // u64::MAX lands in the last bucket; q=1 clamps to the exact max.
        let mut extreme = Histogram::new();
        extreme.record(1);
        extreme.record(u64::MAX);
        assert_eq!(extreme.quantile(0.0), Some(1));
        assert_eq!(extreme.quantile(0.5), Some(1));
        assert_eq!(extreme.quantile(1.0), Some(u64::MAX));

        // Out-of-range q clamps instead of panicking.
        assert_eq!(extreme.quantile(-1.0), Some(1));
        assert_eq!(extreme.quantile(2.0), Some(u64::MAX));
    }

    #[test]
    fn quantile_within_factor_of_two() {
        // The documented bound: estimate and true quantile share a
        // log₂ bucket, so they differ by at most 2x.
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let truth = values[((q * 1000.0).ceil() as usize).clamp(1, 1000) - 1];
            let est = h.quantile(q).unwrap();
            assert!(
                est >= truth / 2 && est <= truth.saturating_mul(2),
                "q={q}: estimate {est} vs true {truth}"
            );
        }
    }
}
