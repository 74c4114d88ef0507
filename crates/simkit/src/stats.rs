//! Output statistics.
//!
//! The paper reports point estimates over several independent replications
//! ("we did several simulation runs with different seeds and the results were
//! within 4% of each other"). This module provides the collectors used both
//! inside a run (tallies, histograms) and across runs (replication summaries
//! with Student-t confidence intervals).

/// Streaming sample statistics (Welford's online algorithm).
///
/// Numerically stable mean/variance without storing samples; used for
/// latencies, queue lengths at sampling points, and per-replication outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "tally observation must be finite, got {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Half-width of the 95% confidence interval on the mean.
    ///
    /// Uses a two-sided Student-t critical value; returns 0 with fewer than
    /// two observations.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let t = t_critical_95(self.n - 1);
        t * self.std_dev() / (self.n as f64).sqrt()
    }
}

/// Two-sided 95% Student-t critical values by degrees of freedom.
///
/// Exact table through 30 d.o.f., then the normal-approximation limit. This
/// is the standard fixed-replication CI recipe for terminating simulations.
pub fn t_critical_95(dof: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match dof {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[(d - 1) as usize],
        d if d <= 60 => 2.000,
        d if d <= 120 => 1.980,
        _ => 1.960,
    }
}

/// Fixed-bin histogram with geometrically growing bin edges.
///
/// Suited to long-tailed simulation outputs (message latencies, rollback
/// distances) where a log-scale summary is more informative than a mean.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// First bin upper edge.
    first_edge: f64,
    /// Multiplicative bin growth factor (> 1).
    growth: f64,
    bins: Vec<u64>,
    underflow: u64,
    count: u64,
}

impl LogHistogram {
    /// Creates a histogram with `bins` geometric bins starting at
    /// `first_edge` and growing by `growth` per bin.
    pub fn new(first_edge: f64, growth: f64, bins: usize) -> Self {
        assert!(first_edge > 0.0 && growth > 1.0 && bins > 0);
        LogHistogram {
            first_edge,
            growth,
            bins: vec![0; bins],
            underflow: 0,
            count: 0,
        }
    }

    /// Records one observation (negatives count as underflow).
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.first_edge {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.first_edge).ln() / self.growth.ln()).floor() as usize + 1;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Iterator of `(upper_edge, count)` pairs, underflow bin first.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let first = std::iter::once((self.first_edge, self.underflow + self.bins[0]));
        let rest = self.bins.iter().enumerate().skip(1).map(move |(i, &c)| {
            (self.first_edge * self.growth.powi(i as i32), c)
        });
        first.chain(rest)
    }

    /// Approximate quantile (returns a bin upper edge).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = 0;
        for (edge, c) in self.iter() {
            cum += c;
            if cum >= target {
                return edge;
            }
        }
        self.first_edge * self.growth.powi(self.bins.len() as i32 - 1)
    }
}

/// Point estimate with a 95% confidence interval over replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean over replications.
    pub mean: f64,
    /// Half-width of the 95% CI.
    pub ci95: f64,
    /// Number of replications.
    pub n: u64,
}

impl Estimate {
    /// Summarizes a slice of per-replication outputs.
    pub fn from_samples(samples: &[f64]) -> Estimate {
        let mut t = Tally::new();
        for &s in samples {
            t.record(s);
        }
        Estimate::from_tally(&t)
    }

    /// Summarizes an already-accumulated [`Tally`]. Numerically identical
    /// to [`Estimate::from_samples`] over the same observations; lets
    /// callers fold several metrics in one pass instead of materializing a
    /// sample `Vec` per metric.
    pub fn from_tally(t: &Tally) -> Estimate {
        Estimate {
            mean: t.mean(),
            ci95: t.ci95_half_width(),
            n: t.count(),
        }
    }

    /// Relative CI half-width (`ci95 / mean`), or 0 for a zero mean.
    pub fn relative_ci(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.ci95 / self.mean.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
        assert_eq!(t.count(), 8);
        assert!((t.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn tally_empty_is_benign() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert_eq!(t.ci95_half_width(), 0.0);
    }

    #[test]
    fn t_table_spot_checks() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(10) - 2.228).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.960).abs() < 1e-9);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = Tally::new();
        let mut large = Tally::new();
        let mut rng = crate::rng::SimRng::new(5);
        for i in 0..1000 {
            let x = rng.uniform();
            if i < 10 {
                small.record(x);
            }
            large.record(x);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        for x in [0.5, 1.5, 3.0, 3.5, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        // Median of 5 samples is the third: 3.0 → bin with edge 4.0.
        assert_eq!(h.quantile(0.5), 4.0);
        // Everything is below the max edge.
        assert!(h.quantile(1.0) <= 128.0);
        let total: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn histogram_overflow_clamps_to_last_bin() {
        let mut h = LogHistogram::new(1.0, 2.0, 3);
        h.record(1e9);
        let bins: Vec<_> = h.iter().collect();
        assert_eq!(bins.last().unwrap().1, 1);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LogHistogram::new(16.0, 2.0, 32);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        h.record(3.0);
        // One sample lands in the (2, 4] bin; every quantile reports its
        // upper edge, p50 and p99 included.
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 4.0, "q={q}");
        }
        // A single underflow sample reports the first edge instead.
        let mut u = LogHistogram::new(16.0, 2.0, 4);
        u.record(0.5);
        assert_eq!(u.quantile(0.5), 16.0);
        assert_eq!(u.quantile(0.99), 16.0);
    }

    #[test]
    fn saturating_samples_pin_quantiles_to_max_edge() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        // Everything overflows into the clamped last bin (edge 8.0): the
        // quantiles must saturate there rather than invent larger edges.
        for _ in 0..100 {
            h.record(1e12);
        }
        assert_eq!(h.quantile(0.5), 8.0);
        assert_eq!(h.quantile(0.99), 8.0);
        assert_eq!(h.quantile(1.0), 8.0);
    }

    #[test]
    fn quantile_zero_returns_first_edge() {
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        h.record(1.5);
        h.record(100.0);
        // q=0 asks for "at least 0 samples", which the very first bin
        // satisfies even when empty: the histogram's floor is its first edge.
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn estimate_from_samples() {
        let e = Estimate::from_samples(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!(e.n, 5);
        assert!((e.mean - 11.0).abs() < 1e-12);
        assert!(e.ci95 > 0.0);
        assert!(e.relative_ci() > 0.0);
    }

    #[test]
    fn estimate_zero_mean_relative_ci() {
        let e = Estimate::from_samples(&[0.0, 0.0]);
        assert_eq!(e.relative_ci(), 0.0);
    }

    #[test]
    fn estimate_from_tally_matches_from_samples() {
        let samples = [10.0, 12.0, 11.0, 9.0, 13.0];
        let mut t = Tally::new();
        for &s in &samples {
            t.record(s);
        }
        assert_eq!(Estimate::from_tally(&t), Estimate::from_samples(&samples));
    }
}
