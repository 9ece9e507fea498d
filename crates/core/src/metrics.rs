//! Run-time metric collection and the final [`Report`].
//!
//! Metrics follow the paper's observables: throughput (Figures 3–5, 8, 11,
//! 12, 14, 16, 18, 20), mean and standard deviation of response time
//! (Figures 7, 10), block and restart ratios (Figure 6), and total vs.
//! *useful* resource utilization (Figures 9, 13, 15, 17, 19, 21).

use ccsim_des::{SimDuration, SimTime};
use ccsim_stats::{BatchMeans, Estimate, LogHistogram, TimeWeighted, Welford};

use crate::config::MetricsConfig;

/// Counters that accumulate within one batch and reset at its boundary.
#[derive(Debug, Default, Clone, Copy)]
struct BatchCounters {
    commits: u64,
    blocks: u64,
    restarts: u64,
    useful_cpu_us: u64,
    useful_io_us: u64,
}

/// Per-class accumulators (class 0 = the primary Table-1 class).
#[derive(Debug, Clone, Default)]
struct ClassStats {
    commits: u64,
    restarts: u64,
    response: Welford,
}

/// Live metric collector, driven by the engine.
#[derive(Debug)]
pub struct Metrics {
    cfg: MetricsConfig,
    in_warmup: bool,
    batches_done: u32,
    warmup_done: u32,
    batch: BatchCounters,
    // Totals over the measured window.
    commits: u64,
    blocks: u64,
    restarts: u64,
    deadlocks: u64,
    useful_cpu_us: u64,
    useful_io_us: u64,
    // Busy-time baselines at the last batch boundary.
    cpu_busy_baseline_us: u64,
    io_busy_baseline_us: u64,
    // Series.
    throughput: BatchMeans,
    disk_util_total: BatchMeans,
    disk_util_useful: BatchMeans,
    cpu_util_total: BatchMeans,
    cpu_util_useful: BatchMeans,
    response: Welford,
    response_hist: LogHistogram,
    classes: Vec<ClassStats>,
    active: TimeWeighted,
    avg_active_batches: Welford,
    // Capacity denominators (µs of resource-time per batch); zero when
    // resources are infinite (utilization is then reported as 0).
    cpu_capacity_us: u64,
    io_capacity_us: u64,
}

impl Metrics {
    /// Create a collector. `num_cpus`/`num_disks` of zero mean infinite
    /// resources (utilizations reported as zero). `num_classes` sizes the
    /// per-class breakdown (1 for the paper's single-class workload).
    #[must_use]
    pub fn new(cfg: MetricsConfig, num_cpus: u32, num_disks: u32, num_classes: usize) -> Self {
        let batch_us = cfg.batch_time.as_micros();
        Metrics {
            cfg,
            in_warmup: cfg.warmup_batches > 0,
            batches_done: 0,
            warmup_done: 0,
            batch: BatchCounters::default(),
            commits: 0,
            blocks: 0,
            restarts: 0,
            deadlocks: 0,
            useful_cpu_us: 0,
            useful_io_us: 0,
            cpu_busy_baseline_us: 0,
            io_busy_baseline_us: 0,
            throughput: BatchMeans::new(),
            disk_util_total: BatchMeans::new(),
            disk_util_useful: BatchMeans::new(),
            cpu_util_total: BatchMeans::new(),
            cpu_util_useful: BatchMeans::new(),
            response: Welford::new(),
            response_hist: LogHistogram::for_latencies(),
            classes: vec![ClassStats::default(); num_classes.max(1)],
            active: TimeWeighted::new(SimTime::ZERO, 0.0),
            avg_active_batches: Welford::new(),
            cpu_capacity_us: batch_us * u64::from(num_cpus),
            io_capacity_us: batch_us * u64::from(num_disks),
        }
    }

    /// Record a commit: its transaction class, response time, and the
    /// committing attempt's resource usage (which thereby becomes *useful*
    /// work).
    pub fn on_commit(
        &mut self,
        class: usize,
        response: SimDuration,
        attempt_cpu_us: u64,
        attempt_io_us: u64,
    ) {
        if self.in_warmup {
            return;
        }
        self.batch.commits += 1;
        self.commits += 1;
        let secs = response.as_secs_f64();
        self.response.add(secs);
        self.response_hist.add(secs);
        let cs = &mut self.classes[class];
        cs.commits += 1;
        cs.response.add(response.as_secs_f64());
        self.batch.useful_cpu_us += attempt_cpu_us;
        self.batch.useful_io_us += attempt_io_us;
        self.useful_cpu_us += attempt_cpu_us;
        self.useful_io_us += attempt_io_us;
    }

    /// Record that a transaction blocked.
    pub fn on_block(&mut self) {
        if self.in_warmup {
            return;
        }
        self.batch.blocks += 1;
        self.blocks += 1;
    }

    /// Record a restart of a `class` transaction; `deadlock` marks
    /// deadlock-victim restarts.
    pub fn on_restart(&mut self, class: usize, deadlock: bool) {
        if self.in_warmup {
            return;
        }
        self.batch.restarts += 1;
        self.restarts += 1;
        self.classes[class].restarts += 1;
        if deadlock {
            self.deadlocks += 1;
        }
    }

    /// Record a change in the number of active transactions.
    pub fn on_active_change(&mut self, now: SimTime, active: usize) {
        self.active.set(now, active as f64);
    }

    /// Close a batch at `now`, given the resources' cumulative busy times.
    /// Returns `true` when the configured number of measured batches is
    /// complete and the simulation should stop.
    pub fn on_batch_end(&mut self, now: SimTime, cpu_busy_us: u64, io_busy_us: u64) -> bool {
        let avg_active = self.active.roll_window(now);
        if self.in_warmup {
            self.warmup_done += 1;
            if self.warmup_done >= self.cfg.warmup_batches {
                self.in_warmup = false;
            }
            // Reset baselines so the measured window starts clean.
            self.cpu_busy_baseline_us = cpu_busy_us;
            self.io_busy_baseline_us = io_busy_us;
            self.batch = BatchCounters::default();
            return false;
        }
        let batch_secs = self.cfg.batch_time.as_secs_f64();
        self.throughput.push(self.batch.commits as f64 / batch_secs);
        self.avg_active_batches.add(avg_active);

        let cpu_delta = cpu_busy_us.saturating_sub(self.cpu_busy_baseline_us);
        let io_delta = io_busy_us.saturating_sub(self.io_busy_baseline_us);
        self.cpu_busy_baseline_us = cpu_busy_us;
        self.io_busy_baseline_us = io_busy_us;
        if self.cpu_capacity_us > 0 {
            self.cpu_util_total
                .push(cpu_delta as f64 / self.cpu_capacity_us as f64);
            self.cpu_util_useful
                .push(self.batch.useful_cpu_us as f64 / self.cpu_capacity_us as f64);
        }
        if self.io_capacity_us > 0 {
            self.disk_util_total
                .push(io_delta as f64 / self.io_capacity_us as f64);
            self.disk_util_useful
                .push(self.batch.useful_io_us as f64 / self.io_capacity_us as f64);
        }
        self.batch = BatchCounters::default();
        self.batches_done += 1;
        self.batches_done >= self.cfg.batches
    }

    /// Produce the final report.
    #[must_use]
    pub fn report(&self) -> Report {
        let commits = self.commits.max(1) as f64;
        Report {
            throughput: self.throughput.estimate(),
            throughput_per_batch: self.throughput.values().to_vec(),
            throughput_lag1: self.throughput.lag1_autocorrelation(),
            response_time_mean: self.response.mean(),
            response_time_std: self.response.sample_std_dev(),
            response_time_max: if self.response.count() == 0 {
                0.0
            } else {
                self.response.max()
            },
            response_time_p50: self.response_hist.quantile(0.5),
            response_time_p95: self.response_hist.quantile(0.95),
            response_time_p99: self.response_hist.quantile(0.99),
            block_ratio: self.blocks as f64 / commits,
            restart_ratio: self.restarts as f64 / commits,
            disk_util_total: self.disk_util_total.estimate(),
            disk_util_useful: self.disk_util_useful.estimate(),
            cpu_util_total: self.cpu_util_total.estimate(),
            cpu_util_useful: self.cpu_util_useful.estimate(),
            avg_active: self.avg_active_batches.mean(),
            class_reports: self
                .classes
                .iter()
                .map(|c| ClassReport {
                    commits: c.commits,
                    restarts: c.restarts,
                    restart_ratio: c.restarts as f64 / c.commits.max(1) as f64,
                    response_time_mean: c.response.mean(),
                    response_time_std: c.response.sample_std_dev(),
                })
                .collect(),
            commits: self.commits,
            blocks: self.blocks,
            restarts: self.restarts,
            deadlocks: self.deadlocks,
        }
    }
}

/// Per-transaction-class observables (class 0 = the primary class).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Commits of this class in the measured window.
    pub commits: u64,
    /// Restarts of this class.
    pub restarts: u64,
    /// Restarts per commit of this class.
    pub restart_ratio: f64,
    /// Mean response time of this class, seconds.
    pub response_time_mean: f64,
    /// Response-time standard deviation of this class, seconds.
    pub response_time_std: f64,
}

/// The observables of one simulation run (measured window only).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Transactions committed per simulated second, with confidence
    /// half-width over batches.
    pub throughput: Estimate,
    /// Per-batch throughput values (diagnostics, plotting).
    pub throughput_per_batch: Vec<f64>,
    /// Lag-1 autocorrelation of batch throughputs (batch-size diagnostic).
    pub throughput_lag1: f64,
    /// Mean response time in seconds (submission to commit, across
    /// restarts).
    pub response_time_mean: f64,
    /// Standard deviation of response time in seconds.
    pub response_time_std: f64,
    /// Largest observed response time in seconds.
    pub response_time_max: f64,
    /// Median response time in seconds (log-histogram estimate, ±5%).
    pub response_time_p50: f64,
    /// 95th-percentile response time in seconds.
    pub response_time_p95: f64,
    /// 99th-percentile response time in seconds.
    pub response_time_p99: f64,
    /// Times blocked per commit (the paper's *block ratio*).
    pub block_ratio: f64,
    /// Restarts per commit (the paper's *restart ratio*).
    pub restart_ratio: f64,
    /// Total disk utilization in `[0, 1]` (zero under infinite resources).
    pub disk_util_total: Estimate,
    /// Useful disk utilization: busy time attributable to committed work.
    pub disk_util_useful: Estimate,
    /// Total CPU utilization.
    pub cpu_util_total: Estimate,
    /// Useful CPU utilization.
    pub cpu_util_useful: Estimate,
    /// Time-averaged number of active transactions (the *actual*
    /// multiprogramming level of paper §4.3).
    pub avg_active: f64,
    /// Per-class breakdown (one entry for the paper's single-class runs).
    pub class_reports: Vec<ClassReport>,
    /// Commits in the measured window.
    pub commits: u64,
    /// Blocks in the measured window.
    pub blocks: u64,
    /// Restarts in the measured window.
    pub restarts: u64,
    /// Deadlocks detected in the measured window.
    pub deadlocks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(warmup: u32, batches: u32, secs: u64) -> MetricsConfig {
        MetricsConfig {
            warmup_batches: warmup,
            batches,
            batch_time: SimDuration::from_secs(secs),
        }
    }

    #[test]
    fn warmup_discards_events() {
        let mut m = Metrics::new(cfg(1, 2, 10), 1, 2, 1);
        m.on_commit(0, SimDuration::from_secs(1), 100, 200);
        m.on_block();
        m.on_restart(0, true);
        assert!(!m.on_batch_end(SimTime::from_secs(10), 5_000_000, 9_000_000));
        // Nothing counted yet.
        let r = m.report();
        assert_eq!(r.commits, 0);
        assert_eq!(r.blocks, 0);
        // Now measured.
        m.on_commit(0, SimDuration::from_secs(2), 100, 200);
        assert!(!m.on_batch_end(SimTime::from_secs(20), 6_000_000, 10_000_000));
        assert!(m.on_batch_end(SimTime::from_secs(30), 6_000_000, 10_000_000));
        let r = m.report();
        assert_eq!(r.commits, 1);
        assert!((r.response_time_mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_commits_per_second() {
        let mut m = Metrics::new(cfg(0, 2, 10), 1, 2, 1);
        for _ in 0..50 {
            m.on_commit(0, SimDuration::from_millis(500), 0, 0);
        }
        m.on_batch_end(SimTime::from_secs(10), 0, 0);
        for _ in 0..30 {
            m.on_commit(0, SimDuration::from_millis(500), 0, 0);
        }
        assert!(m.on_batch_end(SimTime::from_secs(20), 0, 0));
        let r = m.report();
        assert!((r.throughput.mean - 4.0).abs() < 1e-12); // (5 + 3) / 2
        assert_eq!(r.throughput_per_batch, vec![5.0, 3.0]);
    }

    #[test]
    fn utilization_uses_busy_deltas() {
        // 1 disk, 10 s batches => capacity 10^7 µs per batch.
        let mut m = Metrics::new(cfg(1, 2, 10), 1, 1, 1);
        m.on_batch_end(SimTime::from_secs(10), 0, 2_000_000); // warmup: baseline 2 s
        m.on_commit(0, SimDuration::from_secs(1), 500_000, 4_000_000);
        m.on_batch_end(SimTime::from_secs(20), 3_000_000, 9_000_000);
        m.on_batch_end(SimTime::from_secs(30), 3_000_000, 9_000_000);
        let r = m.report();
        // Batch 1: io delta 7 s of 10 s => 0.7 total; useful 4 s => 0.4.
        // Batch 2: idle.
        assert!((r.disk_util_total.mean - 0.35).abs() < 1e-9);
        assert!((r.disk_util_useful.mean - 0.2).abs() < 1e-9);
        assert!((r.cpu_util_total.mean - 0.15).abs() < 1e-9);
        assert!((r.cpu_util_useful.mean - 0.025).abs() < 1e-9);
    }

    #[test]
    fn infinite_resources_report_zero_utilization() {
        let mut m = Metrics::new(cfg(0, 1, 10), 0, 0, 1);
        m.on_commit(0, SimDuration::from_secs(1), 100, 100);
        assert!(m.on_batch_end(SimTime::from_secs(10), 42, 42));
        let r = m.report();
        assert_eq!(r.disk_util_total.mean, 0.0);
        assert_eq!(r.cpu_util_total.mean, 0.0);
    }

    #[test]
    fn ratios_are_per_commit() {
        let mut m = Metrics::new(cfg(0, 1, 10), 1, 1, 1);
        for _ in 0..4 {
            m.on_commit(0, SimDuration::from_secs(1), 0, 0);
        }
        for _ in 0..6 {
            m.on_block();
        }
        for _ in 0..2 {
            m.on_restart(0, false);
        }
        m.on_restart(0, true);
        m.on_batch_end(SimTime::from_secs(10), 0, 0);
        let r = m.report();
        assert!((r.block_ratio - 1.5).abs() < 1e-12);
        assert!((r.restart_ratio - 0.75).abs() < 1e-12);
        assert_eq!(r.deadlocks, 1);
    }

    #[test]
    fn avg_active_is_time_weighted() {
        let mut m = Metrics::new(cfg(0, 1, 10), 1, 1, 1);
        m.on_active_change(SimTime::ZERO, 0);
        m.on_active_change(SimTime::from_secs(5), 10);
        assert!(m.on_batch_end(SimTime::from_secs(10), 0, 0));
        let r = m.report();
        assert!((r.avg_active - 5.0).abs() < 1e-9);
    }

    #[test]
    fn report_quantiles_track_the_response_distribution() {
        let mut m = Metrics::new(cfg(0, 1, 10), 1, 1, 1);
        // 1..=1000 ms of response times: p50 ≈ 0.5 s, p95 ≈ 0.95 s, within
        // the histogram's 5% buckets.
        for i in 1..=1000 {
            m.on_commit(0, SimDuration::from_millis(i), 0, 0);
        }
        m.on_batch_end(SimTime::from_secs(10), 0, 0);
        let r = m.report();
        for (got, want) in [
            (r.response_time_p50, 0.5),
            (r.response_time_p95, 0.95),
            (r.response_time_p99, 0.99),
        ] {
            assert!((got - want).abs() <= 0.06 * want, "{got} vs {want}");
        }
    }

    #[test]
    fn report_quantiles_ignore_warmup_and_empty_runs() {
        let mut m = Metrics::new(cfg(1, 1, 10), 1, 1, 1);
        m.on_commit(0, SimDuration::from_secs(9), 0, 0);
        let r = m.report();
        assert_eq!(r.commits, 0);
        assert_eq!(r.response_time_p99, 0.0);
    }

    #[test]
    fn zero_commit_run_reports_safely() {
        let mut m = Metrics::new(cfg(0, 1, 10), 1, 1, 1);
        m.on_block();
        assert!(m.on_batch_end(SimTime::from_secs(10), 0, 0));
        let r = m.report();
        assert_eq!(r.commits, 0);
        assert_eq!(r.throughput.mean, 0.0);
        assert_eq!(r.response_time_max, 0.0);
        assert!((r.block_ratio - 1.0).abs() < 1e-12); // per max(commits,1)
    }
}
