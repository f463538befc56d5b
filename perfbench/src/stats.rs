//! Summary statistics for timing samples.

/// A timing distribution reported as its median and its tail: the
/// highest percentile that still has at least [`TAIL_BEYOND`] samples
/// above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail sample.
    pub tail: f64,
    /// Which percentile `tail` is (100 × its rank / n).
    pub tail_pct: f64,
}

/// Samples required beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Summarizes `samples`. With `2 × TAIL_BEYOND` samples or fewer no
/// percentile above the median has enough beyond it, and the tail falls
/// back to the maximum (`tail_pct` 100).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let (rank, tail_pct) = if n > 2 * TAIL_BEYOND {
        let rank = n - 1 - TAIL_BEYOND;
        (rank, 100.0 * (rank + 1) as f64 / n as f64)
    } else {
        (n - 1, 100.0)
    };
    Summary {
        n,
        p50,
        tail: sorted[rank],
        tail_pct,
    }
}

/// Median of `samples` (see [`summarize`]).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 40);
        assert_eq!(s.p50, 20.5);
        assert_eq!(s.tail, 30.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), TAIL_BEYOND);
        assert_eq!(s.tail_pct, 75.0);
    }

    #[test]
    fn small_samples_fall_back_to_max() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&twenty).tail, 20.0);
    }
}
