//! The benchmark's own arithmetic on stored samples: exact order
//! statistics (nearest rank), means and ratios. Nothing here calls into
//! the code under test, so a change to the program cannot move the ruler.

/// Rank (1-based) of the nearest-rank `q`-quantile of `n` samples:
/// `ceil(q·n)`, clamped to `1..=n`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest quantile whose nearest-rank order statistic leaves at least
/// `min_beyond` samples above it, or `None` when `n` is too small for any.
pub fn highest_supported_quantile(n: usize, min_beyond: usize) -> Option<f64> {
    (n > min_beyond).then(|| (n - min_beyond) as f64 / n as f64)
}

/// The exact nearest-rank `q`-quantile of `sorted` (ascending).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Sort a copy of `values` and take its nearest-rank `q`-quantile.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The lower median (nearest-rank 0.5 quantile); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, 0.5)
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Events per second in each whole `slice_s`-long slice of `[0, window_s)`,
/// given event times in seconds from the window's start. A partial last
/// slice is dropped; events outside the window are ignored.
pub fn rate_per_slice(events_s: &[f64], window_s: f64, slice_s: f64) -> Vec<f64> {
    let slices = (window_s / slice_s).floor() as usize;
    let mut counts = vec![0u64; slices];
    for &t in events_s {
        if t >= 0.0 {
            if let Some(c) = counts.get_mut((t / slice_s) as usize) {
                *c += 1;
            }
        }
    }
    counts.into_iter().map(|c| c as f64 / slice_s).collect()
}

/// `num / den`, or 0 when there is nothing to divide by.
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
    fn nearest_rank_on_small_samples() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.8), 4.0);
        assert_eq!(quantile(&xs, 0.81), 5.0);
        // Lower median on an even count.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1500, 0.99), 15);
        assert_eq!(samples_beyond(100, 0.5), 50);
    }

    #[test]
    fn highest_supported_quantile_leaves_exactly_the_minimum_beyond() {
        for n in [11usize, 20, 999, 1000, 1234, 10_000] {
            let q = highest_supported_quantile(n, 10).expect("enough samples");
            assert_eq!(samples_beyond(n, q), 10, "n={n}");
            // Any higher quantile on the same sample leaves fewer.
            let next = (n - 9) as f64 / n as f64;
            assert!(samples_beyond(n, next) < 10, "n={n}");
        }
        assert_eq!(highest_supported_quantile(10, 10), None);
        assert_eq!(highest_supported_quantile(1000, 10), Some(0.99));
    }

    #[test]
    fn quantiles_are_order_statistics_not_interpolations() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 990.0);
        assert_eq!(quantile(&xs, 0.999), 999.0);
        assert!(xs.contains(&quantile(&xs, 0.123_456)));
    }

    #[test]
    fn rates_per_whole_slice() {
        let events = [0.1, 0.2, 0.9, 1.0, 1.5, 2.2, 2.9, 3.1, -0.1];
        // Three whole slices of one second; the partial fourth is dropped.
        assert_eq!(rate_per_slice(&events, 3.5, 1.0), vec![3.0, 2.0, 2.0]);
        assert_eq!(rate_per_slice(&events, 3.5, 2.0), vec![2.5]);
        assert!(rate_per_slice(&events, 0.5, 1.0).is_empty());
    }

    #[test]
    fn empty_inputs_report_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
