//! Aggregation of per-replication reports into one summary report.
//!
//! Each replication is an independent simulation (own seed stream); its
//! report already carries a within-run batch means estimate. Across
//! replications the statistically defensible interval treats each
//! replication's mean as one observation (a [`BatchMeans`] fed one value
//! per replication), which is what the aggregate's `throughput` (and
//! utilization) estimates carry. Scalar diagnostics are averaged, counters
//! summed, extrema maxed.

use ccsim_core::{ClassReport, Estimate, Report};
use ccsim_stats::BatchMeans;

/// Error returned by [`aggregate_reports`] when given no replications — a
/// grid point with zero surviving runs has no aggregate (the supervisor
/// records it as a hole instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoReplications;

impl std::fmt::Display for NoReplications {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot aggregate zero replications")
    }
}

impl std::error::Error for NoReplications {}

fn rep_estimate<I: IntoIterator<Item = f64>>(values: I) -> Estimate {
    let mut reps = BatchMeans::new();
    for v in values {
        reps.push(v);
    }
    reps.estimate()
}

fn mean_of<F: Fn(&Report) -> f64>(reports: &[Report], f: F) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

fn max_of<F: Fn(&Report) -> f64>(reports: &[Report], f: F) -> f64 {
    reports.iter().map(f).fold(f64::NEG_INFINITY, f64::max)
}

fn sum_of<F: Fn(&Report) -> u64>(reports: &[Report], f: F) -> u64 {
    reports.iter().map(f).sum()
}

fn aggregate_classes(reports: &[Report]) -> Vec<ClassReport> {
    let classes = reports
        .iter()
        .map(|r| r.class_reports.len())
        .max()
        .unwrap_or(0);
    (0..classes)
        .map(|i| {
            let per_class: Vec<&ClassReport> = reports
                .iter()
                .filter_map(|r| r.class_reports.get(i))
                .collect();
            let n = per_class.len() as f64;
            let commits: u64 = per_class.iter().map(|c| c.commits).sum();
            let restarts: u64 = per_class.iter().map(|c| c.restarts).sum();
            ClassReport {
                commits,
                restarts,
                restart_ratio: if commits > 0 {
                    restarts as f64 / commits as f64
                } else {
                    0.0
                },
                response_time_mean: per_class.iter().map(|c| c.response_time_mean).sum::<f64>() / n,
                response_time_std: per_class.iter().map(|c| c.response_time_std).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Collapse per-replication reports into one aggregate report.
///
/// With a single replication the input report is returned verbatim, so a
/// `--reps 1` sweep is bit-identical to a plain single-run sweep. With
/// several, interval-valued fields (`throughput`, the four utilizations)
/// become cross-replication 90% Student-t estimates, scalar
/// metrics are averaged, `response_time_max` is maxed, event counters are
/// summed, and `throughput_per_batch` is the concatenation of every
/// replication's batch series (in replication order).
///
/// # Errors
/// Returns [`NoReplications`] if `replicates` is empty — a measured point
/// needs at least one run behind it.
pub fn aggregate_reports(replicates: &[Report]) -> Result<Report, NoReplications> {
    if replicates.is_empty() {
        return Err(NoReplications);
    }
    if replicates.len() == 1 {
        return Ok(replicates[0].clone());
    }
    Ok(Report {
        throughput: rep_estimate(replicates.iter().map(|r| r.throughput.mean)),
        throughput_per_batch: replicates
            .iter()
            .flat_map(|r| r.throughput_per_batch.iter().copied())
            .collect(),
        throughput_lag1: mean_of(replicates, |r| r.throughput_lag1),
        response_time_mean: mean_of(replicates, |r| r.response_time_mean),
        response_time_std: mean_of(replicates, |r| r.response_time_std),
        response_time_max: max_of(replicates, |r| r.response_time_max),
        response_time_p50: mean_of(replicates, |r| r.response_time_p50),
        response_time_p95: mean_of(replicates, |r| r.response_time_p95),
        response_time_p99: mean_of(replicates, |r| r.response_time_p99),
        block_ratio: mean_of(replicates, |r| r.block_ratio),
        restart_ratio: mean_of(replicates, |r| r.restart_ratio),
        disk_util_total: rep_estimate(replicates.iter().map(|r| r.disk_util_total.mean)),
        disk_util_useful: rep_estimate(replicates.iter().map(|r| r.disk_util_useful.mean)),
        cpu_util_total: rep_estimate(replicates.iter().map(|r| r.cpu_util_total.mean)),
        cpu_util_useful: rep_estimate(replicates.iter().map(|r| r.cpu_util_useful.mean)),
        avg_active: mean_of(replicates, |r| r.avg_active),
        class_reports: aggregate_classes(replicates),
        commits: sum_of(replicates, |r| r.commits),
        blocks: sum_of(replicates, |r| r.blocks),
        restarts: sum_of(replicates, |r| r.restarts),
        deadlocks: sum_of(replicates, |r| r.deadlocks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tps: f64, commits: u64) -> Report {
        Report {
            throughput: Estimate {
                mean: tps,
                half_width: 0.1,
            },
            throughput_per_batch: vec![tps - 0.5, tps + 0.5],
            throughput_lag1: 0.1,
            response_time_mean: tps / 2.0,
            response_time_std: 1.0,
            response_time_max: tps * 2.0,
            response_time_p50: 1.0,
            response_time_p95: 2.0,
            response_time_p99: 3.0,
            block_ratio: 0.2,
            restart_ratio: 0.4,
            disk_util_total: Estimate {
                mean: 0.8,
                half_width: 0.0,
            },
            disk_util_useful: Estimate {
                mean: 0.6,
                half_width: 0.0,
            },
            cpu_util_total: Estimate {
                mean: 0.3,
                half_width: 0.0,
            },
            cpu_util_useful: Estimate {
                mean: 0.25,
                half_width: 0.0,
            },
            avg_active: 10.0,
            class_reports: vec![ClassReport {
                commits,
                restarts: 2,
                restart_ratio: 2.0 / commits as f64,
                response_time_mean: 1.0,
                response_time_std: 0.5,
            }],
            commits,
            blocks: 7,
            restarts: 3,
            deadlocks: 1,
        }
    }

    #[test]
    fn single_replication_is_identity() {
        let r = report(10.0, 100);
        let agg = aggregate_reports(std::slice::from_ref(&r)).unwrap();
        assert_eq!(agg, r);
    }

    #[test]
    fn multi_replication_summary() {
        let reps = [report(10.0, 100), report(12.0, 110), report(11.0, 90)];
        let agg = aggregate_reports(&reps).unwrap();
        assert!((agg.throughput.mean - 11.0).abs() < 1e-12);
        // Cross-replication CI: s^2 = 1, se = 1/sqrt(3), t90(2) = 2.919986.
        assert!((agg.throughput.half_width - 2.919986 / 3.0f64.sqrt()).abs() < 1e-5);
        assert_eq!(agg.commits, 300);
        assert_eq!(agg.blocks, 21);
        assert_eq!(agg.deadlocks, 3);
        assert_eq!(agg.throughput_per_batch.len(), 6);
        assert!((agg.response_time_max - 24.0).abs() < 1e-12);
        assert!((agg.block_ratio - 0.2).abs() < 1e-12);
        assert_eq!(agg.class_reports.len(), 1);
        assert_eq!(agg.class_reports[0].commits, 300);
        assert_eq!(agg.class_reports[0].restarts, 6);
        assert!((agg.class_reports[0].restart_ratio - 6.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_an_error_not_a_panic() {
        assert_eq!(aggregate_reports(&[]), Err(NoReplications));
        assert!(NoReplications.to_string().contains("zero replications"));
    }
}
