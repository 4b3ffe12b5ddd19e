//! Order statistics over one run's samples.

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps a product like 0.999 × 10000 from rounding up past
    // its exact integer value.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile, among p50, p90, p99 and p99.9 and at most
/// `cap`, that has at least ten of `n` samples beyond it. Below that many
/// samples the median is the only figure reported.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    [0.999, 0.99, 0.9]
        .into_iter()
        .filter(|&q| q <= cap)
        .find(|&q| n.saturating_sub(rank(n.max(1), q)) >= 10)
        .unwrap_or(0.5)
}

/// Sorted copy of the samples.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile(&sorted(samples), 0.5)
}

/// Quantile `q` of unsorted samples; 0 when there are none.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile(&sorted(samples), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(pct(&[], 0.9), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(tail_quantile(100, 0.99), 0.9);
        // 99 samples leave only nine beyond rank 90.
        assert_eq!(tail_quantile(99, 0.99), 0.5);
        assert_eq!(tail_quantile(999, 0.99), 0.9);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(10_000, 0.999), 0.999);
        // The cap wins over a sample count that would allow more.
        assert_eq!(tail_quantile(10_000, 0.99), 0.99);
        assert_eq!(tail_quantile(10_000, 0.9), 0.9);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_quantile(20, 0.99), 0.5);
        assert_eq!(tail_quantile(0, 0.99), 0.5);
    }
}
