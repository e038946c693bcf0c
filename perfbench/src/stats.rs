//! Order statistics for the reported timings.
//!
//! A timing is reported as its median plus a tail: p99, or, when p99
//! has fewer than [`TAIL_BEYOND`] samples above it, the highest rank
//! that does, so a tail figure never rests on one or two outliers.

/// Samples a reported tail percentile must leave above its rank.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile reported when there are enough samples.
const TAIL_PERCENTILE: f64 = 99.0;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The tail of an ascending slice as (percentile, value): p99 when at
/// least [`TAIL_BEYOND`] samples lie beyond its rank, else the highest
/// rank with that many beyond. `None` with too few samples for any.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = nearest_rank(TAIL_PERCENTILE, n);
    if n - rank >= TAIL_BEYOND {
        return Some((TAIL_PERCENTILE, sorted[rank - 1]));
    }
    let rank = n - TAIL_BEYOND;
    Some((rank as f64 * 100.0 / n as f64, sorted[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly above the nearest rank of `p`.
    fn beyond(p: f64, n: usize) -> usize {
        n - nearest_rank(p, n)
    }

    fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
        xs.sort_by(f64::total_cmp);
        xs
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_its_rank() {
        // 1010 samples: rank of p99 is 1000, ten beyond it.
        let xs = sorted((1..=1010).map(f64::from).collect());
        assert_eq!(tail(&xs), Some((99.0, 1000.0)));
        // 999 samples: p99 is rank 990 with only nine beyond, so the
        // tail moves down one rank to 989.
        let xs = sorted((1..=999).map(f64::from).collect());
        assert_eq!(beyond(99.0, 999), 9);
        let (p, v) = tail(&xs).expect("enough samples");
        assert_eq!(v, 989.0);
        assert!(p < 99.0);
    }

    #[test]
    fn tail_falls_back_and_can_be_absent() {
        let xs = sorted((1..=40).map(f64::from).collect());
        // Rank 30 of 40 leaves ten beyond: the 75th percentile.
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        let xs = sorted((1..=10).map(f64::from).collect());
        assert_eq!(tail(&xs), None, "ten samples leave none with ten beyond");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }
}
