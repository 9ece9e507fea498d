//! Simulation parameters (the paper's Table 1) and the baseline settings
//! used in its experiments (Table 2).

use ccsim_des::SimDuration;

/// Physical resource configuration (paper §3, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceSpec {
    /// The "infinite resources" assumption: transactions never queue for CPU
    /// or I/O; every service takes exactly its nominal time.
    Infinite,
    /// A finite machine: a pool of identical CPU servers with one global
    /// queue, and a partitioned database spread across `num_disks` disks,
    /// each with its own FCFS queue.
    Physical {
        /// Number of CPU servers.
        num_cpus: u32,
        /// Number of disks.
        num_disks: u32,
    },
}

impl ResourceSpec {
    /// The paper's base finite configuration (Experiments 1 and 3): 1 CPU
    /// and 2 disks.
    pub const ONE_CPU_TWO_DISKS: ResourceSpec = ResourceSpec::Physical {
        num_cpus: 1,
        num_disks: 2,
    };

    /// Experiment 4's small multiprocessor: 5 CPUs, 10 disks.
    pub const FIVE_CPUS_TEN_DISKS: ResourceSpec = ResourceSpec::Physical {
        num_cpus: 5,
        num_disks: 10,
    };

    /// Experiment 4's large multiprocessor: 25 CPUs, 50 disks.
    pub const TWENTY_FIVE_CPUS_FIFTY_DISKS: ResourceSpec = ResourceSpec::Physical {
        num_cpus: 25,
        num_disks: 50,
    };

    /// True for [`ResourceSpec::Infinite`].
    #[must_use]
    pub fn is_infinite(&self) -> bool {
        matches!(self, ResourceSpec::Infinite)
    }
}

/// How aborted transactions are delayed before re-entering the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartDelayPolicy {
    /// No delay: the transaction goes straight to the back of the ready
    /// queue (the paper's blocking and optimistic algorithms).
    #[default]
    None,
    /// Exponential delay with mean equal to the running average transaction
    /// response time (the paper's immediate-restart algorithm, §4.2).
    Adaptive,
    /// Exponential delay with a fixed mean (used in the paper's sensitivity
    /// analysis of the restart delay).
    Fixed(SimDuration),
}

/// The full parameter set of the simulation model (paper Table 1, plus the
/// knobs the paper varies per experiment and the transaction-class
/// extension).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Number of objects (pages) in the database.
    pub db_size: u64,
    /// Smallest transaction readset size.
    pub min_size: u64,
    /// Largest transaction readset size.
    pub max_size: u64,
    /// Probability that an object read is also written.
    pub write_prob: f64,
    /// Number of terminals (users).
    pub num_terms: u32,
    /// Multiprogramming level: maximum concurrently *active* transactions.
    pub mpl: u32,
    /// Mean time between a transaction's completion and its terminal
    /// submitting the next one (exponential).
    pub ext_think_time: SimDuration,
    /// Mean intra-transaction think time between the read phase and the
    /// write phase (exponential); zero disables the think path.
    pub int_think_time: SimDuration,
    /// I/O time to access one object.
    pub obj_io: SimDuration,
    /// CPU time to access one object.
    pub obj_cpu: SimDuration,
    /// Physical resource configuration.
    pub resources: ResourceSpec,
    /// Restart delay policy for aborted transactions.
    pub restart_delay: RestartDelayPolicy,
    /// Relative frequency weight of the primary (Table 1) transaction
    /// class when `extra_classes` is non-empty (extension).
    pub primary_weight: f64,
    /// Additional transaction classes (extension; empty = the paper's
    /// single-class workload).
    pub extra_classes: Vec<crate::classes::TxnClass>,
}

/// A parameter-validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub String);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid parameters: {}", self.0)
    }
}
impl std::error::Error for ParamError {}

impl Params {
    /// The longest duration a valid configuration may carry: every
    /// duration parameter, the expected service time (the prior of the
    /// adaptive restart delay) and the run's horizon (see
    /// `MetricsConfig::validate` in `ccsim-core`) must not exceed it. At
    /// 2^48 µs it is about 8.9 years of simulated time.
    ///
    /// The bound keeps a validated run's clock from wrapping. Every event
    /// handled happens at or before the horizon (at most `MAX_DURATION`),
    /// and every event is scheduled that far plus at most one delay. A
    /// delay is a service time, a batch length, or an exponential draw,
    /// which is capped at about 36.7 times its mean (see
    /// `ccsim_des::sample_exponential`). The largest mean is the restart
    /// floor `obj_io + obj_cpu`, at most `2 * MAX_DURATION`; the adaptive
    /// mean is its prior or an observed response time, neither above
    /// `MAX_DURATION`. So no event lies past `75 * 2^48 < 2^55` µs, far
    /// below the `u64` clock's `2^64`.
    pub const MAX_DURATION: SimDuration = SimDuration::from_micros(1 << 48);

    /// The largest database a valid configuration may carry: 2^32 − 1
    /// objects. Object ids run from 0 to `db_size − 1`, and the engine
    /// stores each as a 4-byte id (the transaction arena, the lock table
    /// and the sparse `ObjMap` index, whose empty-slot sentinel is
    /// `u32::MAX`), so every id of a validated run fits below the
    /// sentinel. Every catalog configuration stays at or below 10^8.
    pub const MAX_DB_SIZE: u64 = u32::MAX as u64;

    /// Reject a duration over [`Params::MAX_DURATION`], naming it `name`.
    ///
    /// # Errors
    /// Returns [`ParamError`] if `d` exceeds the bound.
    pub fn check_duration(name: &str, d: SimDuration) -> Result<(), ParamError> {
        if d > Params::MAX_DURATION {
            return Err(ParamError(format!(
                "{name} ({} s) exceeds the {} s bound on durations",
                d.as_secs_f64(),
                Params::MAX_DURATION.as_secs_f64()
            )));
        }
        Ok(())
    }

    /// The paper's Table 2 baseline: `db_size=1000`, readset uniform on
    /// `[4, 12]` (mean 8), `write_prob=0.25`, 200 terminals, 1 s external
    /// think time, `obj_io=35 ms`, `obj_cpu=15 ms`, 1 CPU and 2 disks,
    /// `mpl=25`.
    #[must_use]
    pub fn paper_baseline() -> Params {
        Params {
            db_size: 1000,
            min_size: 4,
            max_size: 12,
            write_prob: 0.25,
            num_terms: 200,
            mpl: 25,
            ext_think_time: SimDuration::from_secs(1),
            int_think_time: SimDuration::ZERO,
            obj_io: SimDuration::from_millis(35),
            obj_cpu: SimDuration::from_millis(15),
            resources: ResourceSpec::ONE_CPU_TWO_DISKS,
            // The paper's immediate-restart algorithm always delays restarts
            // adaptively (§4.2); blocking and optimistic ignore this policy
            // unless the Figure 11 `restart_delay_for_all` flag is set.
            restart_delay: RestartDelayPolicy::Adaptive,
            primary_weight: 1.0,
            extra_classes: Vec::new(),
        }
    }

    /// Experiment 1's low-conflict setting: the baseline with a 10x larger
    /// database (10 000 objects).
    #[must_use]
    pub fn low_conflict() -> Params {
        Params {
            db_size: 10_000,
            ..Params::paper_baseline()
        }
    }

    /// The million-scale closed network: a 10^8-object database and 10^6
    /// terminals under infinite resources. The paper's per-object costs and
    /// think times are kept, so per-transaction behaviour matches the
    /// baseline; only the population and database are six/five orders of
    /// magnitude larger. Conflict is negligible at this density — the
    /// regime exists to exercise the engine's sparse lock table, arena
    /// transaction state, and streaming statistics at full scale, with
    /// `mpl` (typically 10^5–10^6) swept by the `exp-scale` experiment.
    #[must_use]
    pub fn exp_scale() -> Params {
        Params {
            db_size: 100_000_000,
            num_terms: 1_000_000,
            mpl: 100_000,
            resources: ResourceSpec::Infinite,
            ..Params::paper_baseline()
        }
    }

    /// The multiprogramming levels swept in every experiment.
    pub const PAPER_MPLS: [u32; 7] = [5, 10, 25, 50, 75, 100, 200];

    /// Mean readset size (`tran_size` in Table 1): midpoint of the uniform
    /// size distribution.
    #[must_use]
    pub fn tran_size(&self) -> f64 {
        (self.min_size + self.max_size) as f64 / 2.0
    }

    /// Expected total CPU demand of one transaction attempt (reads + write
    /// requests), excluding concurrency-control cost. For the baseline this
    /// is the paper's "150 milliseconds of CPU time".
    #[must_use]
    pub fn expected_cpu_demand(&self) -> SimDuration {
        let reads = self.tran_size();
        let writes = reads * self.write_prob;
        SimDuration::from_secs_f64((reads + writes) * self.obj_cpu.as_secs_f64())
    }

    /// Expected total disk demand of one transaction attempt (read I/O plus
    /// deferred-update I/O). For the baseline this is the paper's "350
    /// milliseconds of disk time".
    #[must_use]
    pub fn expected_io_demand(&self) -> SimDuration {
        let reads = self.tran_size();
        let writes = reads * self.write_prob;
        SimDuration::from_secs_f64((reads + writes) * self.obj_io.as_secs_f64())
    }

    /// A rough a-priori estimate of one transaction's no-contention service
    /// time, used to seed the adaptive restart delay before the first commit.
    #[must_use]
    pub fn expected_service_time(&self) -> SimDuration {
        self.expected_cpu_demand()
            .saturating_add(self.expected_io_demand())
            .saturating_add(self.int_think_time)
    }

    /// Validate the parameter set, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    /// Returns [`ParamError`] when any field is out of its legal domain or
    /// fields are mutually inconsistent (e.g. `max_size > db_size`).
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.db_size == 0 {
            return Err(ParamError("db_size must be positive".into()));
        }
        if self.db_size > Params::MAX_DB_SIZE {
            return Err(ParamError(format!(
                "db_size ({}) exceeds the {} bound on database size (2^32 - 1)",
                self.db_size,
                Params::MAX_DB_SIZE
            )));
        }
        if self.min_size == 0 {
            return Err(ParamError("min_size must be positive".into()));
        }
        if self.min_size > self.max_size {
            return Err(ParamError(format!(
                "min_size ({}) exceeds max_size ({})",
                self.min_size, self.max_size
            )));
        }
        if self.max_size > self.db_size {
            return Err(ParamError(format!(
                "max_size ({}) exceeds db_size ({})",
                self.max_size, self.db_size
            )));
        }
        if !(0.0..=1.0).contains(&self.write_prob) {
            return Err(ParamError(format!(
                "write_prob ({}) must lie in [0, 1]",
                self.write_prob
            )));
        }
        if self.num_terms == 0 {
            return Err(ParamError("num_terms must be positive".into()));
        }
        if self.mpl == 0 {
            return Err(ParamError("mpl must be positive".into()));
        }
        if let ResourceSpec::Physical {
            num_cpus,
            num_disks,
        } = self.resources
        {
            if num_cpus == 0 {
                return Err(ParamError("num_cpus must be positive".into()));
            }
            if num_disks == 0 {
                return Err(ParamError("num_disks must be positive".into()));
            }
        }
        if !(self.primary_weight > 0.0 && self.primary_weight.is_finite()) {
            return Err(ParamError(format!(
                "primary_weight ({}) must be positive and finite",
                self.primary_weight
            )));
        }
        let restart_mean = match self.restart_delay {
            RestartDelayPolicy::Fixed(mean) => mean,
            RestartDelayPolicy::None | RestartDelayPolicy::Adaptive => SimDuration::ZERO,
        };
        for (name, d) in [
            ("ext_think_time", self.ext_think_time),
            ("int_think_time", self.int_think_time),
            ("obj_io", self.obj_io),
            ("obj_cpu", self.obj_cpu),
            ("restart_delay", restart_mean),
            ("expected service time", self.expected_service_time()),
        ] {
            Params::check_duration(name, d)?;
        }
        for class in &self.extra_classes {
            class.validate(self.db_size)?;
        }
        Ok(())
    }

    /// Builder-style update of the multiprogramming level.
    #[must_use]
    pub fn with_mpl(mut self, mpl: u32) -> Params {
        self.mpl = mpl;
        self
    }

    /// Builder-style update of the resource configuration.
    #[must_use]
    pub fn with_resources(mut self, resources: ResourceSpec) -> Params {
        self.resources = resources;
        self
    }

    /// Builder-style update of the restart-delay policy.
    #[must_use]
    pub fn with_restart_delay(mut self, policy: RestartDelayPolicy) -> Params {
        self.restart_delay = policy;
        self
    }

    /// Builder-style update of the think times. `ext` and `int` are the
    /// external and internal mean think times.
    #[must_use]
    pub fn with_think_times(mut self, ext: SimDuration, int: SimDuration) -> Params {
        self.ext_think_time = ext;
        self.int_think_time = int;
        self
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_2() {
        let p = Params::paper_baseline();
        assert_eq!(p.db_size, 1000);
        assert_eq!((p.min_size, p.max_size), (4, 12));
        assert_eq!(p.tran_size(), 8.0);
        assert_eq!(p.write_prob, 0.25);
        assert_eq!(p.num_terms, 200);
        assert_eq!(p.ext_think_time, SimDuration::from_secs(1));
        assert_eq!(p.obj_io, SimDuration::from_millis(35));
        assert_eq!(p.obj_cpu, SimDuration::from_millis(15));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn paper_demand_arithmetic() {
        // §4.5: "a transaction requires 150 milliseconds of CPU time and
        // 350 milliseconds of disk time" on average.
        let p = Params::paper_baseline();
        assert_eq!(p.expected_cpu_demand(), SimDuration::from_millis(150));
        assert_eq!(p.expected_io_demand(), SimDuration::from_millis(350));
        assert_eq!(p.expected_service_time(), SimDuration::from_millis(500));
    }

    #[test]
    fn low_conflict_uses_larger_db() {
        let p = Params::low_conflict();
        assert_eq!(p.db_size, 10_000);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_sizes() {
        let mut p = Params::paper_baseline();
        p.db_size = 0;
        assert!(p.validate().is_err());

        let mut p = Params::paper_baseline();
        p.min_size = 13;
        assert!(p.validate().is_err());

        let mut p = Params::paper_baseline();
        p.max_size = 2000;
        assert!(p.validate().is_err());

        let mut p = Params::paper_baseline();
        p.min_size = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_bounds_db_size_by_the_stored_id_width() {
        let mut p = Params::paper_baseline();
        p.db_size = (1 << 32) - 1;
        assert!(p.validate().is_ok(), "2^32 - 1 objects fit 4-byte ids");
        p.db_size = 1 << 32;
        let err = p.validate().expect_err("2^32 objects").0;
        assert!(err.contains("db_size"), "{err}");
        p.db_size = u64::MAX;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_probabilities() {
        let mut p = Params::paper_baseline();
        p.write_prob = 1.5;
        assert!(p.validate().is_err());
        p.write_prob = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_population() {
        let mut p = Params::paper_baseline();
        p.num_terms = 0;
        assert!(p.validate().is_err());
        let mut p = Params::paper_baseline();
        p.mpl = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_resources() {
        let mut p = Params::paper_baseline();
        p.resources = ResourceSpec::Physical {
            num_cpus: 0,
            num_disks: 2,
        };
        assert!(p.validate().is_err());
        p.resources = ResourceSpec::Physical {
            num_cpus: 1,
            num_disks: 0,
        };
        assert!(p.validate().is_err());
        p.resources = ResourceSpec::Infinite;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_bounds_every_duration() {
        let max = Params::MAX_DURATION;
        let over = SimDuration::from_micros(max.as_micros() + 1);
        let mut p = Params::paper_baseline();
        p.ext_think_time = max;
        assert!(p.validate().is_ok(), "the bound itself is allowed");
        type Setter = fn(&mut Params, SimDuration);
        let cases: [(&str, Setter); 5] = [
            ("ext_think_time", |p, d| p.ext_think_time = d),
            ("int_think_time", |p, d| p.int_think_time = d),
            ("obj_io", |p, d| p.obj_io = d),
            ("obj_cpu", |p, d| p.obj_cpu = d),
            ("restart_delay", |p, d| {
                p.restart_delay = RestartDelayPolicy::Fixed(d);
            }),
        ];
        for (name, set) in cases {
            let mut p = Params::paper_baseline();
            set(&mut p, over);
            let err = p.validate().expect_err(name).0;
            assert!(err.contains(name), "{name}: {err}");
            // A saturated conversion (`--ext-think 1e300`) is caught too.
            set(&mut p, SimDuration::from_micros(u64::MAX));
            assert!(p.validate().is_err(), "{name} at u64::MAX");
        }
        // Each access within the bound, but a transaction's expected
        // service time (the adaptive restart prior) over it.
        let mut p = Params::paper_baseline();
        p.obj_io = SimDuration::from_micros(max.as_micros() / 8);
        let err = p.validate().expect_err("service time").0;
        assert!(err.contains("expected service time"), "{err}");
    }

    #[test]
    fn builders_update_fields() {
        let p = Params::paper_baseline()
            .with_mpl(100)
            .with_resources(ResourceSpec::Infinite)
            .with_restart_delay(RestartDelayPolicy::Adaptive)
            .with_think_times(SimDuration::from_secs(3), SimDuration::from_secs(1));
        assert_eq!(p.mpl, 100);
        assert!(p.resources.is_infinite());
        assert_eq!(p.restart_delay, RestartDelayPolicy::Adaptive);
        assert_eq!(p.int_think_time, SimDuration::from_secs(1));
        assert_eq!(p.ext_think_time, SimDuration::from_secs(3));
    }

    #[test]
    fn resource_presets() {
        assert_eq!(
            ResourceSpec::ONE_CPU_TWO_DISKS,
            ResourceSpec::Physical {
                num_cpus: 1,
                num_disks: 2
            }
        );
        assert!(!ResourceSpec::FIVE_CPUS_TEN_DISKS.is_infinite());
        assert!(ResourceSpec::Infinite.is_infinite());
    }

    #[test]
    fn param_error_displays() {
        let e = ParamError("boom".into());
        assert_eq!(e.to_string(), "invalid parameters: boom");
    }
}
