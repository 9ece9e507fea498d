//! Multi-class workload tests: the classic *large-transaction starvation*
//! phenomenon. When a few large transactions mix with many small ones,
//! restart-oriented concurrency control punishes the large ones — their
//! long lifetimes make them perpetual conflict victims — while blocking
//! lets them through. (An extension; the paper's own workload is
//! single-class, but this is exactly the follow-up question its framework
//! was built to answer.)

use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, SimConfig};
use ccsim_des::SimDuration;
use ccsim_workload::TxnClass;

/// 90% small transactions (the Table-2 class), 10% large 40–60 page ones.
fn mixed_params() -> Params {
    let mut p = Params::paper_baseline().with_mpl(25);
    p.primary_weight = 0.9;
    p.extra_classes.push(TxnClass {
        weight: 0.1,
        min_size: 40,
        max_size: 60,
        write_prob: 0.25,
    });
    p
}

fn metrics() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 6,
        batch_time: SimDuration::from_secs(60),
    }
}

fn report(algo: CcAlgorithm) -> ccsim_core::Report {
    run(SimConfig::new(algo)
        .with_params(mixed_params())
        .with_metrics(metrics())
        .with_seed(0x31A55))
    .unwrap()
    .report
}

#[test]
fn class_mix_matches_weights() {
    let r = report(CcAlgorithm::Blocking);
    assert_eq!(r.class_reports.len(), 2);
    let small = &r.class_reports[0];
    let large = &r.class_reports[1];
    assert!(small.commits > 0 && large.commits > 0);
    let frac = large.commits as f64 / (small.commits + large.commits) as f64;
    // Commit mix tracks the arrival mix under blocking (nobody starves).
    assert!(
        (frac - 0.1).abs() < 0.04,
        "large-class commit fraction {frac:.3}"
    );
}

#[test]
fn optimistic_starves_large_transactions() {
    let occ = report(CcAlgorithm::Optimistic);
    let small = &occ.class_reports[0];
    let large = &occ.class_reports[1];
    // A 50-page readset is ~6x more likely to overlap a committing writer,
    // and each retry takes ~6x longer — restart ratios should separate by
    // a large factor.
    assert!(
        large.restart_ratio > small.restart_ratio * 3.0,
        "large {:.2} vs small {:.2} restarts/commit",
        large.restart_ratio,
        small.restart_ratio
    );
    assert!(
        large.response_time_mean > small.response_time_mean * 2.0,
        "large {:.1}s vs small {:.1}s response",
        large.response_time_mean,
        small.response_time_mean
    );
}

#[test]
fn blocking_treats_large_transactions_more_fairly() {
    let b = report(CcAlgorithm::Blocking);
    let occ = report(CcAlgorithm::Optimistic);
    let fairness = |r: &ccsim_core::Report| {
        let s = &r.class_reports[0];
        let l = &r.class_reports[1];
        // Ratio of large-class to small-class restart ratios, guarding /0.
        (l.restart_ratio + 0.01) / (s.restart_ratio + 0.01)
    };
    assert!(
        fairness(&b) < fairness(&occ),
        "blocking ({:.1}) should be fairer than optimistic ({:.1})",
        fairness(&b),
        fairness(&occ)
    );
    // And the large class must actually complete under blocking.
    assert!(b.class_reports[1].commits > 30);
}

#[test]
fn single_class_runs_have_one_class_report() {
    let r = run(SimConfig::new(CcAlgorithm::Blocking)
        .with_params(Params::paper_baseline().with_mpl(10))
        .with_metrics(metrics()))
    .unwrap()
    .report;
    assert_eq!(r.class_reports.len(), 1);
    assert_eq!(r.class_reports[0].commits, r.commits);
    assert!((r.class_reports[0].response_time_mean - r.response_time_mean).abs() < 1e-9);
}

#[test]
fn class_extension_does_not_perturb_single_class_streams() {
    // Adding the classes machinery must not change the paper's runs: a
    // single-class generator draws no class-selection randomness.
    let base = run(SimConfig::new(CcAlgorithm::Blocking)
        .with_params(Params::paper_baseline().with_mpl(25))
        .with_metrics(metrics())
        .with_seed(777))
    .unwrap()
    .report;
    let again = run(SimConfig::new(CcAlgorithm::Blocking)
        .with_params(Params::paper_baseline().with_mpl(25))
        .with_metrics(metrics())
        .with_seed(777))
    .unwrap()
    .report;
    assert_eq!(base, again);
}
