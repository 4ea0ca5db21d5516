//! Order statistics for latency samples.
//!
//! A tail percentile is only reported where the sample supports it: at
//! least [`MIN_BEYOND`] samples must lie beyond it, so p90 needs 100
//! samples and p99 needs 1000.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` (in `[0, 1]`) of `sorted` (ascending), interpolating
/// linearly between the two closest ranks. `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The highest of p50, p90, p99 and p99.9 that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when not even the
/// median is supported.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| (n as f64 * (1.0 - p) + 1e-6).floor() as usize >= MIN_BEYOND)
}

/// Latency summary of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The highest percentile the sample supports (see [`supported_tail`]).
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarizes an unsorted sample.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p90: percentile(&v, 0.9),
            tail: supported_tail(v.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!((percentile(&[10.0, 20.0], 0.25) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_degenerate_samples() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_count_and_support() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 100);
        assert!((s.p50 - 50.5).abs() < 1e-12);
        assert!((s.p90 - 90.1).abs() < 1e-12);
        assert_eq!(s.tail, Some(0.9));
        assert_eq!(Summary::of(&values[..99]).tail, Some(0.5));
    }
}
