//! Simulation run configuration.

use ccsim_des::SimDuration;
use ccsim_stats::Confidence;
use ccsim_workload::{ParamError, Params};

use crate::algorithm::{CcAlgorithm, VictimPolicy};
use crate::budget::RunBudget;

/// Statistical-analysis settings (the paper's modified batch means method:
/// 20 batches with a large batch time, 90% confidence intervals, after a
/// discarded warmup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Batches discarded before measurement starts.
    pub warmup_batches: u32,
    /// Measured batches.
    pub batches: u32,
    /// Simulated time per batch.
    pub batch_time: SimDuration,
    /// Confidence level for interval estimates.
    pub confidence: Confidence,
}

impl MetricsConfig {
    /// The paper-faithful setting: 20 measured batches, 90% confidence.
    #[must_use]
    pub fn paper() -> Self {
        MetricsConfig {
            warmup_batches: 2,
            batches: 20,
            batch_time: SimDuration::from_secs(150),
            confidence: Confidence::Ninety,
        }
    }

    /// A quick setting for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        MetricsConfig {
            warmup_batches: 1,
            batches: 8,
            batch_time: SimDuration::from_secs(40),
            confidence: Confidence::Ninety,
        }
    }

    /// Total simulated horizon (saturating).
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        let batches = u64::from(self.warmup_batches) + u64::from(self.batches);
        SimDuration::from_micros(self.batch_time.as_micros().saturating_mul(batches))
    }

    /// Validate the settings.
    ///
    /// # Errors
    /// Returns [`ParamError`] if no batches are measured, the batch time
    /// is zero, or the horizon exceeds [`Params::MAX_DURATION`] (which,
    /// with [`Params::validate`], keeps the run's clock from wrapping).
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.batches == 0 {
            return Err(ParamError("metrics.batches must be positive".into()));
        }
        if self.batch_time.is_zero() {
            return Err(ParamError("metrics.batch_time must be positive".into()));
        }
        Params::check_duration("metrics.batch_time", self.batch_time)?;
        Params::check_duration("the metrics horizon", self.horizon())
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::paper()
    }
}

/// Everything needed to run one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Model parameters (paper Table 1).
    pub params: Params,
    /// The concurrency control algorithm under test.
    pub algorithm: CcAlgorithm,
    /// Deadlock victim selection (blocking algorithm only).
    pub victim: VictimPolicy,
    /// Apply the restart delay policy to *every* algorithm, not just
    /// immediate-restart — the paper's Figure 11 ablation.
    pub restart_delay_for_all: bool,
    /// Master random seed; identical configs with identical seeds replay
    /// bit-for-bit.
    pub seed: u64,
    /// Optional separate seed for the *workload* streams (arrivals, think
    /// times, access patterns, disk selection). When set, two configs that
    /// share a `workload_seed` see the same transaction mix regardless of
    /// `seed` — the common-random-numbers pairing used for sharp
    /// algorithm-vs-algorithm comparisons. When `None`, every stream
    /// derives from `seed` exactly as before.
    pub workload_seed: Option<u64>,
    /// Use the two-tier event calendar (near-horizon lane + overflow
    /// heap). On by default; off routes every event through the heap — the
    /// single-tier baseline. Delivery order, and therefore every report,
    /// is byte-identical either way; the switch exists for ablation
    /// benchmarks and the determinism tests that prove the equivalence.
    pub two_tier_calendar: bool,
    /// Batch means settings.
    pub metrics: MetricsConfig,
    /// Hard ceilings for the run (events, simulated time, wall clock). The
    /// default caps events only; see [`RunBudget`].
    pub budget: RunBudget,
}

impl SimConfig {
    /// A configuration with paper-baseline parameters and metrics.
    #[must_use]
    pub fn new(algorithm: CcAlgorithm) -> Self {
        SimConfig {
            params: Params::paper_baseline(),
            algorithm,
            victim: VictimPolicy::Youngest,
            restart_delay_for_all: false,
            seed: 0x5EED_CC85,
            workload_seed: None,
            two_tier_calendar: true,
            metrics: MetricsConfig::paper(),
            budget: RunBudget::default(),
        }
    }

    /// Builder-style parameter replacement.
    #[must_use]
    pub fn with_params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Builder-style seed replacement.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style metrics replacement.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builder-style workload-seed replacement (common random numbers).
    #[must_use]
    pub fn with_workload_seed(mut self, workload_seed: u64) -> Self {
        self.workload_seed = Some(workload_seed);
        self
    }

    /// Builder-style run-budget replacement.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style toggle for the two-tier calendar (see
    /// [`SimConfig::two_tier_calendar`]).
    #[must_use]
    pub fn with_two_tier_calendar(mut self, two_tier: bool) -> Self {
        self.two_tier_calendar = two_tier;
        self
    }

    /// Validate the whole configuration.
    ///
    /// # Errors
    /// Returns [`ParamError`] from parameter or metrics validation.
    pub fn validate(&self) -> Result<(), ParamError> {
        self.params.validate()?;
        self.metrics.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_metrics_horizon() {
        let m = MetricsConfig::paper();
        assert_eq!(m.batches, 20);
        assert_eq!(m.horizon(), SimDuration::from_secs(150 * 22));
        assert!(m.validate().is_ok());
    }

    #[test]
    fn metrics_validation() {
        let mut m = MetricsConfig::quick();
        m.batches = 0;
        assert!(m.validate().is_err());
        let mut m = MetricsConfig::quick();
        m.batch_time = SimDuration::ZERO;
        assert!(m.validate().is_err());
        // Each batch within the duration bound, the horizon over it, even
        // where the batch count alone would overflow `u32`.
        let mut m = MetricsConfig::quick();
        m.batch_time = Params::MAX_DURATION;
        m.warmup_batches = 0;
        m.batches = 1;
        assert!(m.validate().is_ok());
        m.batches = 2;
        let err = m.validate().expect_err("horizon over the bound").0;
        assert!(err.contains("horizon"), "{err}");
        m.warmup_batches = u32::MAX;
        m.batches = u32::MAX;
        assert!(m.validate().is_err());
        m.batch_time = SimDuration::from_micros(u64::MAX);
        let err = m.validate().expect_err("batch over the bound").0;
        assert!(err.contains("batch_time"), "{err}");
    }

    #[test]
    fn config_builders() {
        let c = SimConfig::new(CcAlgorithm::Optimistic)
            .with_seed(99)
            .with_metrics(MetricsConfig::quick())
            .with_params(Params::low_conflict());
        assert_eq!(c.seed, 99);
        assert_eq!(c.metrics, MetricsConfig::quick());
        assert_eq!(c.params.db_size, 10_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn budget_builder_replaces_default() {
        let c = SimConfig::new(CcAlgorithm::Blocking);
        assert_eq!(c.budget, RunBudget::default());
        let c = c.with_budget(RunBudget::unlimited().with_max_events(7));
        assert_eq!(c.budget.max_events, Some(7));
    }

    #[test]
    fn config_validation_propagates() {
        let mut c = SimConfig::new(CcAlgorithm::Blocking);
        c.params.mpl = 0;
        assert!(c.validate().is_err());
    }
}
