//! Paired comparisons across replications.
//!
//! [`BatchMeans`](crate::BatchMeans) over each replication's mean gives the
//! independent-replications interval for one system. [`paired_t`] sharpens
//! "A beats B" claims when the two systems were simulated under common
//! random numbers: pairing by replication cancels the shared workload
//! noise, so the interval is over the *differences*, which is exactly what
//! a crossover claim needs.

use crate::ttable::t_quantile_90;
use crate::welford::Welford;

/// The result of a paired Student-t comparison of two systems observed
/// under common random numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedT {
    /// Number of pairs.
    pub n: u64,
    /// Mean of the per-replication differences `a[i] - b[i]`.
    pub mean_diff: f64,
    /// Confidence half-width of the mean difference.
    pub half_width: f64,
    /// The t statistic `mean_diff / se` (infinite when the differences
    /// have zero variance and a nonzero mean).
    pub t_stat: f64,
}

impl PairedT {
    /// True when the interval around the mean difference excludes zero —
    /// the paired-t notion of a statistically significant difference.
    #[must_use]
    pub fn significant(&self) -> bool {
        self.mean_diff.abs() > self.half_width
    }

    /// Significant *and* in favor of the first argument (`a > b`).
    #[must_use]
    pub fn significantly_positive(&self) -> bool {
        self.significant() && self.mean_diff > 0.0
    }
}

/// Paired Student-t test over per-replication observations of two systems,
/// with a two-sided 90% interval.
///
/// Returns `None` unless `a` and `b` have the same length of at least two
/// pairs — anything else is not a paired design.
///
/// ```
/// use ccsim_stats::paired_t;
/// let a = [5.0, 7.0, 9.0, 6.0];
/// let b = [4.0, 5.0, 8.0, 6.0];
/// let t = paired_t(&a, &b).unwrap();
/// assert!(t.significantly_positive());
/// ```
#[must_use]
pub fn paired_t(a: &[f64], b: &[f64]) -> Option<PairedT> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let mut acc = Welford::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc.add(x - y);
    }
    let n = acc.count();
    let se = (acc.sample_variance() / n as f64).sqrt();
    let t_stat = if se > 0.0 {
        acc.mean() / se
    } else if acc.mean() == 0.0 {
        0.0
    } else {
        f64::INFINITY * acc.mean().signum()
    };
    Some(PairedT {
        n,
        mean_diff: acc.mean(),
        half_width: t_quantile_90(n - 1) * se,
        t_stat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_t_matches_hand_computed_fixture() {
        // Differences [1, 2, 1, 0]: mean 1, s^2 = 2/3, se = sqrt(1/6),
        // df = 3, t90 = 2.353363.
        let a = [5.0, 7.0, 9.0, 6.0];
        let b = [4.0, 5.0, 8.0, 6.0];
        let t = paired_t(&a, &b).unwrap();
        assert_eq!(t.n, 4);
        assert!((t.mean_diff - 1.0).abs() < 1e-12);
        let se = (1.0f64 / 6.0).sqrt();
        assert!((t.half_width - 2.353363 * se).abs() < 1e-6);
        assert!((t.t_stat - 1.0 / se).abs() < 1e-9);
        assert!(t.significant());
        assert!(t.significantly_positive());
    }

    #[test]
    fn paired_t_insignificant_when_noise_dominates() {
        let a = [10.0, 8.0, 12.0, 9.0];
        let b = [9.0, 10.0, 10.5, 9.5];
        let t = paired_t(&a, &b).unwrap();
        assert!(!t.significant(), "{t:?}");
    }

    #[test]
    fn paired_t_rejects_unpaired_input() {
        assert!(paired_t(&[1.0], &[1.0]).is_none());
        assert!(paired_t(&[1.0, 2.0], &[1.0]).is_none());
        assert!(paired_t(&[], &[]).is_none());
    }

    #[test]
    fn paired_t_degenerate_variance() {
        // Constant positive difference: infinitely significant.
        let t = paired_t(&[2.0, 3.0, 4.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(t.half_width, 0.0);
        assert!(t.t_stat.is_infinite() && t.t_stat > 0.0);
        assert!(t.significantly_positive());
        // Identical series: zero everywhere, not significant.
        let z = paired_t(&[1.0, 2.0], &[1.0, 2.0]).unwrap();
        assert_eq!(z.mean_diff, 0.0);
        assert_eq!(z.t_stat, 0.0);
        assert!(!z.significant());
    }
}
