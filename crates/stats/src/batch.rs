//! The (modified) batch means method.
//!
//! The paper runs each simulation for 20 batches with a large batch time,
//! discards a warmup prefix, and reports 90% confidence intervals over the
//! per-batch means [Sarg76, Care83]. [`BatchMeans`] implements exactly this:
//! feed it one value per batch, ask for a point estimate with a Student-t
//! half-width. The same estimator over independent replication means is
//! the textbook independent-replications interval, so the experiment
//! harness feeds it one value per replication too.

use crate::ttable::t_quantile_90;
use crate::welford::Welford;

/// A point estimate with a symmetric confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate (mean of batch means).
    pub mean: f64,
    /// Half-width of the confidence interval (`mean ± half_width`).
    pub half_width: f64,
}

impl Estimate {
    /// Half-width as a fraction of the mean (0 when the mean is 0).
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// True if `other`'s mean lies outside this interval and vice versa —
    /// the paper's notion of a *statistically significant* difference.
    #[must_use]
    pub fn significantly_differs_from(&self, other: &Estimate) -> bool {
        (self.mean - other.mean).abs() > self.half_width + other.half_width
    }
}

/// Accumulates one observation per batch and produces two-sided 90%
/// interval estimates (the paper's level).
///
/// ```
/// use ccsim_stats::BatchMeans;
/// let mut bm = BatchMeans::new();
/// for v in [10.1, 9.9, 10.3, 9.8, 10.0] {
///     bm.push(v);
/// }
/// let est = bm.estimate();
/// assert!((est.mean - 10.02).abs() < 1e-9);
/// assert!(est.half_width > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchMeans {
    acc: Welford,
    values: Vec<f64>,
}

impl BatchMeans {
    /// New, empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        BatchMeans::default()
    }

    /// Record one batch mean.
    pub fn push(&mut self, batch_value: f64) {
        self.acc.add(batch_value);
        self.values.push(batch_value);
    }

    /// Number of batches recorded.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.acc.count()
    }

    /// The raw per-batch values, in order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Interval estimate over the batch means. With fewer than two batches
    /// the half-width is zero (no variance information).
    #[must_use]
    pub fn estimate(&self) -> Estimate {
        let n = self.acc.count();
        if n < 2 {
            return Estimate {
                mean: self.acc.mean(),
                half_width: 0.0,
            };
        }
        let se = (self.acc.sample_variance() / n as f64).sqrt();
        Estimate {
            mean: self.acc.mean(),
            half_width: t_quantile_90(n - 1) * se,
        }
    }

    /// Lag-1 autocorrelation of the batch means — the usual diagnostic for
    /// "are my batches long enough?" (large positive values mean the batch
    /// time should grow). Returns 0 with fewer than 3 batches.
    #[must_use]
    pub fn lag1_autocorrelation(&self) -> f64 {
        let n = self.values.len();
        if n < 3 {
            return 0.0;
        }
        let mean = self.acc.mean();
        let denom: f64 = self.values.iter().map(|v| (v - mean).powi(2)).sum();
        if denom == 0.0 {
            return 0.0;
        }
        let num: f64 = self
            .values
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        num / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_than_two_batches_has_zero_halfwidth() {
        let mut bm = BatchMeans::new();
        assert_eq!(bm.estimate().mean, 0.0);
        bm.push(5.0);
        let e = bm.estimate();
        assert_eq!(e.mean, 5.0);
        assert_eq!(e.half_width, 0.0);
    }

    #[test]
    fn estimate_matches_hand_computed_fixture() {
        // Means 10, 12, 11, 13, 9: mean 11, s^2 = 2.5, se = sqrt(0.5),
        // df = 4, t90 = 2.131847 -> half-width 2.131847 * 0.7071067812.
        let mut bm = BatchMeans::new();
        for v in [10.0, 12.0, 11.0, 13.0, 9.0] {
            bm.push(v);
        }
        assert_eq!(bm.batches(), 5);
        let e = bm.estimate();
        assert!((e.mean - 11.0).abs() < 1e-12);
        assert!((e.half_width - 2.131847 * 0.5f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn known_interval() {
        // 20 batches alternating 9 and 11: mean 10, sample std = sqrt(20/19)·1…
        let mut bm = BatchMeans::new();
        for i in 0..20 {
            bm.push(if i % 2 == 0 { 9.0 } else { 11.0 });
        }
        let e = bm.estimate();
        assert!((e.mean - 10.0).abs() < 1e-12);
        // s^2 = 20/19, se = sqrt(20/19/20) = sqrt(1/19), t(19, .95)=1.729133.
        let expect = 1.729133 * (1.0f64 / 19.0).sqrt();
        assert!((e.half_width - expect).abs() < 1e-5);
    }

    #[test]
    fn constant_batches_give_zero_halfwidth() {
        let mut bm = BatchMeans::new();
        for _ in 0..10 {
            bm.push(7.0);
        }
        let e = bm.estimate();
        assert_eq!(e.mean, 7.0);
        assert_eq!(e.half_width, 0.0);
    }

    #[test]
    fn significance_test() {
        let a = Estimate {
            mean: 10.0,
            half_width: 0.5,
        };
        let b = Estimate {
            mean: 11.5,
            half_width: 0.5,
        };
        let c = Estimate {
            mean: 10.6,
            half_width: 0.5,
        };
        assert!(a.significantly_differs_from(&b));
        assert!(!a.significantly_differs_from(&c));
    }

    #[test]
    fn relative_half_width() {
        let e = Estimate {
            mean: 20.0,
            half_width: 1.0,
        };
        assert!((e.relative_half_width() - 0.05).abs() < 1e-12);
        let z = Estimate {
            mean: 0.0,
            half_width: 1.0,
        };
        assert_eq!(z.relative_half_width(), 0.0);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let mut bm = BatchMeans::new();
        for i in 0..40 {
            bm.push(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert!(bm.lag1_autocorrelation() < -0.8);
    }

    #[test]
    fn autocorrelation_of_trend_is_positive() {
        let mut bm = BatchMeans::new();
        for i in 0..40 {
            bm.push(i as f64);
        }
        assert!(bm.lag1_autocorrelation() > 0.8);
    }

    #[test]
    fn autocorrelation_degenerate_cases() {
        let mut bm = BatchMeans::new();
        bm.push(1.0);
        bm.push(2.0);
        assert_eq!(bm.lag1_autocorrelation(), 0.0);
        let mut c = BatchMeans::new();
        for _ in 0..5 {
            c.push(3.0);
        }
        assert_eq!(c.lag1_autocorrelation(), 0.0);
    }
}
