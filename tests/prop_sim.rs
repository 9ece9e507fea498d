//! Property-based testing of the whole simulator: random (small but legal)
//! parameter sets must preserve the model's invariants for every
//! algorithm, and safe algorithms must stay serializable.
//!
//! Runs are kept tiny (short horizons, few terminals) so the property suite
//! stays fast; the fidelity-sensitive assertions live in the deterministic
//! integration tests instead.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::{
    check_conflict_serializable, run, CcAlgorithm, HistoryRecorder, MetricsConfig, Params,
    ResourceSpec, SimConfig, Simulator,
};
use ccsim_des::SimDuration;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomConfig {
    db_size: u64,
    size_lo: u64,
    size_span: u64,
    write_prob: f64,
    num_terms: u32,
    mpl: u32,
    resources: ResourceSpec,
    algo: CcAlgorithm,
    seed: u64,
}

fn algo_strategy() -> impl Strategy<Value = CcAlgorithm> {
    prop_oneof![
        Just(CcAlgorithm::Blocking),
        Just(CcAlgorithm::ImmediateRestart),
        Just(CcAlgorithm::Optimistic),
        Just(CcAlgorithm::WaitDie),
        Just(CcAlgorithm::WoundWait),
        Just(CcAlgorithm::NoWaiting),
        Just(CcAlgorithm::StaticLocking),
        Just(CcAlgorithm::BasicTO),
    ]
}

fn resource_strategy() -> impl Strategy<Value = ResourceSpec> {
    prop_oneof![
        Just(ResourceSpec::Infinite),
        (1u32..4, 1u32..6).prop_map(|(c, d)| ResourceSpec::Physical {
            num_cpus: c,
            num_disks: d
        }),
    ]
}

fn config_strategy() -> impl Strategy<Value = RandomConfig> {
    (
        20u64..500,   // db_size
        1u64..5,      // size_lo
        0u64..6,      // size_span
        0.0f64..=1.0, // write_prob
        2u32..30,     // num_terms
        1u32..30,     // mpl
        resource_strategy(),
        algo_strategy(),
        any::<u64>(),
    )
        .prop_map(
            |(db_size, size_lo, size_span, write_prob, num_terms, mpl, resources, algo, seed)| {
                RandomConfig {
                    db_size,
                    size_lo,
                    size_span,
                    write_prob,
                    num_terms,
                    mpl,
                    resources,
                    algo,
                    seed,
                }
            },
        )
}

fn build(rc: &RandomConfig) -> Option<SimConfig> {
    let mut params = Params::paper_baseline();
    params.db_size = rc.db_size;
    params.min_size = rc.size_lo;
    params.max_size = (rc.size_lo + rc.size_span).min(rc.db_size);
    params.write_prob = rc.write_prob;
    params.num_terms = rc.num_terms;
    params.mpl = rc.mpl;
    params.resources = rc.resources;
    params.ext_think_time = SimDuration::from_millis(500);
    params.validate().ok()?;
    let cfg = SimConfig::new(rc.algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 0,
            batches: 2,
            batch_time: SimDuration::from_secs(20),
        })
        .with_seed(rc.seed);
    Some(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine neither panics nor violates its structural invariants on
    /// random configurations, and every safe algorithm's history is
    /// conflict-serializable.
    #[test]
    fn random_configs_preserve_invariants(rc in config_strategy()) {
        let Some(cfg) = build(&rc) else {
            // Parameter combination was illegal (e.g. max_size > db_size
            // after clamping); generation simply skips it.
            return Ok(());
        };
        let mpl = cfg.params.mpl;
        let terms = cfg.params.num_terms;
        let mut sim = Simulator::new(cfg).expect("validated config");
        let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
        sim.add_sink(Box::new(Rc::clone(&recorder)));
        let report = sim.run_collecting().finished().expect("run within budget").report;
        let history = recorder.take().into_history();

        // Structural invariants.
        prop_assert!(report.avg_active <= f64::from(mpl.min(terms)) + 1e-9);
        prop_assert!(report.response_time_mean >= 0.0);
        prop_assert!(report.disk_util_total.mean <= 1.0 + 1e-9);
        prop_assert!(report.cpu_util_total.mean <= 1.0 + 1e-9);
        prop_assert!(
            report.disk_util_useful.mean <= report.disk_util_total.mean + 0.02,
            "useful {} > total {}",
            report.disk_util_useful.mean,
            report.disk_util_total.mean
        );
        prop_assert_eq!(u64::try_from(history.len()).unwrap(), report.commits);

        // Blocking-family invariants. (Basic T/O has no locks but its
        // readers do wait on pending prewrites, so it may block.)
        if !rc.algo.uses_locks() && rc.algo != CcAlgorithm::BasicTO {
            prop_assert_eq!(report.blocks, 0, "lock-free algorithm blocked");
        }
        if matches!(
            rc.algo,
            CcAlgorithm::ImmediateRestart | CcAlgorithm::NoWaiting
        ) {
            prop_assert_eq!(report.blocks, 0, "no-wait algorithm blocked");
        }
        if rc.algo != CcAlgorithm::Blocking {
            prop_assert_eq!(report.deadlocks, 0, "{} deadlocked", rc.algo);
        }
        if rc.write_prob == 0.0 {
            prop_assert_eq!(report.restarts, 0, "read-only workload restarted");
        }

        // Serializability.
        if let Err(cycle) = check_conflict_serializable(&history) {
            prop_assert!(false, "{} produced a cycle: {cycle}", rc.algo);
        }
    }

    /// Replaying a random configuration reproduces the identical report.
    #[test]
    fn random_configs_are_deterministic(rc in config_strategy()) {
        let Some(cfg) = build(&rc) else { return Ok(()); };
        let a = run(cfg.clone()).expect("validated config").report;
        let b = run(cfg).expect("validated config").report;
        prop_assert_eq!(a, b);
    }
}
