//! Aggregation rules the benchmark reports by.
//!
//! Host timings drift with memory contention from neighbouring
//! machines, so every host metric is a ratio of totals over a whole run,
//! never a maximum or a percentile across cells of different sizes.

/// Accumulates work and host time over repetitions; the rate is
/// total work over total time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rate {
    /// Work units finished (simulated tokens, instructions, …).
    pub work: f64,
    /// Host seconds spent on them.
    pub secs: f64,
}

impl Rate {
    /// Adds one repetition.
    pub fn add(&mut self, work: f64, secs: f64) {
        self.work += work;
        self.secs += secs;
    }

    /// Total work per total second (0 before anything was timed).
    #[must_use]
    pub fn per_s(&self) -> f64 {
        if self.secs > 0.0 {
            self.work / self.secs
        } else {
            0.0
        }
    }
}

/// Median of a sample (NaN-free); 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `p`-quantile of `n`
/// samples (the rank is `ceil(n·p)`, as `LatencyStats` computes it).
#[must_use]
pub fn samples_beyond(n: u64, p: f64) -> u64 {
    let rank = (n as f64 * p).ceil() as u64;
    n.saturating_sub(rank.max(1))
}

/// Whether a sample of `n` supports reporting its `p`-quantile: at
/// least ten samples must lie beyond it.
#[must_use]
pub fn supports_percentile(n: u64, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_ratio_of_totals_not_mean_of_ratios() {
        // Per-repetition rates of 100, 300 and 33/s: their mean would
        // be 144.4/s.
        let mut r = Rate::default();
        r.add(100.0, 1.0);
        r.add(300.0, 1.0);
        r.add(100.0, 3.0);
        assert_eq!(r.per_s(), 500.0 / 5.0);
        assert_eq!(Rate::default().per_s(), 0.0);
    }

    #[test]
    fn slow_repetitions_weigh_by_their_time() {
        // One stalled repetition cannot swing the rate more than its
        // share of the run's time.
        let mut steady = Rate::default();
        let mut stalled = Rate::default();
        for i in 0..10 {
            steady.add(10.0, 1.0);
            stalled.add(10.0, if i == 0 { 2.0 } else { 1.0 });
        }
        assert!((steady.per_s() / stalled.per_s() - 11.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(!supports_percentile(100, 0.99));
        // p50 of 20 samples has 10 beyond it.
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
