//! Property tests for the statistics toolkit against naive reference
//! implementations.

use ccsim_des::{SimDuration, SimTime};
use ccsim_stats::{paired_t, BatchMeans, LogHistogram, TimeWeighted, Welford};
use proptest::prelude::*;

fn finite_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, 1..200)
}

/// Adversarial streaming-stats inputs: constant runs, far-apart bimodal
/// mixes, and monotone ramps (both directions) — the sequences that break
/// naive one-pass estimators.
fn adversarial_values() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        // Constant.
        (-1.0e3f64..1.0e3, 5usize..400).prop_map(|(c, n)| vec![c; n]),
        // Bimodal: two centers, deterministic interleave by modulus.
        (0.0f64..10.0, 1.0e3f64..1.0e6, 2usize..10, 10usize..400).prop_map(
            |(lo, hi, period, n)| (0..n)
                .map(|i| if i % period == 0 { lo } else { hi })
                .collect()
        ),
        // Monotone ramps.
        (1usize..400, any::<bool>()).prop_map(|(n, up)| {
            let ramp: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if up {
                ramp
            } else {
                ramp.into_iter().rev().collect()
            }
        }),
    ]
}

proptest! {
    /// Welford matches the two-pass reference for mean and variance.
    #[test]
    fn welford_matches_two_pass(xs in finite_values()) {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!(
                (w.sample_variance() - var).abs() <= 1e-5 * (1.0 + var.abs()),
                "welford {} vs reference {}",
                w.sample_variance(),
                var
            );
        }
        prop_assert_eq!(w.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(w.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Welford merge equals sequential accumulation for any split point.
    #[test]
    fn welford_merge_any_split(xs in finite_values(), split_frac in 0.0f64..1.0) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let (left, right) = xs.split_at(split.min(xs.len()));
        let mut a = Welford::new();
        for &x in left {
            a.add(x);
        }
        let mut b = Welford::new();
        for &x in right {
            b.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
    }

    /// Batch-means intervals are centred on the mean of the batch means
    /// and have a non-negative half-width.
    #[test]
    fn batch_means_interval_properties(xs in proptest::collection::vec(0.0f64..1000.0, 2..60)) {
        let mut bm = BatchMeans::new();
        for &x in &xs {
            bm.push(x);
        }
        let e = bm.estimate();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((e.mean - mean).abs() <= 1e-9 * (1.0 + mean.abs()));
        prop_assert!(e.half_width >= 0.0);
    }

    /// The paired test is antisymmetric and agrees with `BatchMeans` run on
    /// the differences.
    #[test]
    fn paired_t_consistent_with_replications_of_differences(
        pairs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..40),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let t = paired_t(&a, &b).unwrap();
        let rev = paired_t(&b, &a).unwrap();
        prop_assert!((t.mean_diff + rev.mean_diff).abs() <= 1e-9);
        prop_assert!((t.half_width - rev.half_width).abs() <= 1e-9);
        let mut diffs = BatchMeans::new();
        for (x, y) in a.iter().zip(b.iter()) {
            diffs.push(x - y);
        }
        let e = diffs.estimate();
        prop_assert!((e.mean - t.mean_diff).abs() <= 1e-9 * (1.0 + t.mean_diff.abs()));
        prop_assert!((e.half_width - t.half_width).abs() <= 1e-9 * (1.0 + t.half_width));
    }

    /// Histogram quantiles are monotone in q and bounded by observed range
    /// (up to bucket resolution).
    #[test]
    fn histogram_quantiles_monotone(xs in proptest::collection::vec(0.01f64..100.0, 1..300)) {
        let mut h = LogHistogram::new(0.001, 1000.0, 0.05);
        for &x in &xs {
            h.add(x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut last = 0.0;
        for i in 1..=19 {
            let q = h.quantile(f64::from(i) / 20.0);
            prop_assert!(q >= last - 1e-12);
            prop_assert!(q >= lo * 0.94, "q {q} below min {lo}");
            prop_assert!(q <= hi * 1.06, "q {q} above max {hi}");
            last = q;
        }
    }

    /// Welford stays exact (to float tolerance) against the two-pass
    /// reference on the adversarial sequences too — constants, bimodal
    /// mixes, and ramps must not degrade mean or variance.
    #[test]
    fn welford_survives_adversarial_sequences(xs in adversarial_values()) {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!(
                (w.sample_variance() - var).abs() <= 1e-5 * (1.0 + var.abs()),
                "welford {} vs reference {} on adversarial input",
                w.sample_variance(),
                var
            );
        }
    }

    /// The time-weighted average of a step signal equals the Riemann sum.
    #[test]
    fn time_weighted_matches_riemann(
        steps in proptest::collection::vec((1u64..100, 0.0f64..50.0), 1..40)
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut area = 0.0;
        let mut current = 0.0;
        for &(dt_s, value) in &steps {
            let next = now + SimDuration::from_secs(dt_s);
            area += current * dt_s as f64;
            tw.set(next, value);
            current = value;
            now = next;
        }
        // Close the window one second later.
        let end = now + SimDuration::from_secs(1);
        area += current;
        let expect = area / end.as_secs_f64();
        let got = tw.average(end);
        prop_assert!(
            (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
            "{got} vs {expect}"
        );
    }
}
