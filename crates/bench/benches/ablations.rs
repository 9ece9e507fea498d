//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! These report *simulated throughput* (committed transactions per bench
//! iteration at identical simulated horizons), so comparing the bench output
//! across functions in a group answers the design question directly:
//!
//! * `victim_policy` — does youngest-victim (the paper's choice) beat
//!   oldest-victim or fewest-locks under high contention?
//! * `prevention` — deadlock prevention (wait-die / wound-wait / no-waiting)
//!   vs. the paper's detection-based blocking.
//! * `restart_delay` — no delay vs. fixed one-transaction-time vs. the
//!   paper's adaptive delay, for immediate-restart.

use std::time::Duration;

use ccsim_bench::bench_metrics;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ccsim_core::{
    run, CcAlgorithm, Params, ResourceSpec, RestartDelayPolicy, SimConfig, VictimPolicy,
};
use ccsim_des::SimDuration;

fn high_contention() -> Params {
    Params::paper_baseline().with_mpl(100)
}

fn bench_victim_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("victim_policy");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for victim in VictimPolicy::ALL {
        g.bench_function(victim.label(), move |b| {
            b.iter(|| {
                let mut cfg = SimConfig::new(CcAlgorithm::Blocking)
                    .with_params(high_contention())
                    .with_metrics(bench_metrics());
                cfg.victim = victim;
                black_box(run(cfg).expect("valid").report.commits)
            });
        });
    }
    g.finish();
}

fn bench_prevention(c: &mut Criterion) {
    let mut g = c.benchmark_group("prevention");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for algo in [
        CcAlgorithm::Blocking,
        CcAlgorithm::StaticLocking,
        CcAlgorithm::WaitDie,
        CcAlgorithm::WoundWait,
        CcAlgorithm::NoWaiting,
        CcAlgorithm::BasicTO,
    ] {
        g.bench_function(algo.label(), move |b| {
            b.iter(|| {
                let cfg = SimConfig::new(algo)
                    .with_params(high_contention())
                    .with_metrics(bench_metrics());
                black_box(run(cfg).expect("valid").report.commits)
            });
        });
    }
    g.finish();
}

fn bench_restart_delay(c: &mut Criterion) {
    let mut g = c.benchmark_group("restart_delay");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let policies: [(&str, RestartDelayPolicy); 3] = [
        ("none", RestartDelayPolicy::None),
        (
            "fixed_one_txn_time",
            RestartDelayPolicy::Fixed(Params::paper_baseline().expected_service_time()),
        ),
        ("adaptive", RestartDelayPolicy::Adaptive),
    ];
    for (name, policy) in policies {
        g.bench_function(name, move |b| {
            b.iter(|| {
                let params = Params::paper_baseline()
                    .with_mpl(100)
                    .with_resources(ResourceSpec::Infinite)
                    .with_restart_delay(policy);
                let cfg = SimConfig::new(CcAlgorithm::ImmediateRestart)
                    .with_params(params)
                    .with_metrics(bench_metrics());
                black_box(run(cfg).expect("valid").report.commits)
            });
        });
    }
    g.finish();
}

fn bench_cc_cpu_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("cc_cpu_cost");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for (name, ms) in [("zero", 0u64), ("one_ms", 1), ("five_ms", 5)] {
        g.bench_function(name, move |b| {
            b.iter(|| {
                let mut params = Params::paper_baseline().with_mpl(50);
                params.cc_cpu = SimDuration::from_millis(ms);
                let cfg = SimConfig::new(CcAlgorithm::Blocking)
                    .with_params(params)
                    .with_metrics(bench_metrics());
                black_box(run(cfg).expect("valid").report.commits)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_victim_policy,
    bench_prevention,
    bench_restart_delay,
    bench_cc_cpu_cost
);
criterion_main!(benches);
