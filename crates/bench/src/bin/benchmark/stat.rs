//! Order statistics over timing samples.

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median, quartiles and count of a sample — what every timing is
/// reported as.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: percentile(&sorted, 50.0),
        p25: percentile(&sorted, 25.0),
        p75: percentile(&sorted, 75.0),
        n: sorted.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The highest tail percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` — a percentile with fewer is one
/// or two stragglers, not a property of the system.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact integer work.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 750];
    LADDER
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.p25, s.p75, s.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(median(&[9.0, 1.0]), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
