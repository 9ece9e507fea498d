//! Replication-layer guarantees, end to end:
//!
//! * the same `(base_seed, replication)` coordinate replays bit-for-bit no
//!   matter how many worker threads execute the sweep;
//! * different replication indices explore different sample paths;
//! * common random numbers — at one `(mpl, replication)` coordinate every
//!   algorithm is driven by the same workload streams, which we observe by
//!   running the concurrency-control-free engine under different control
//!   seeds and identical workload seeds.

use ccsim_core::{run, CcAlgorithm, Confidence, MetricsConfig, Params, SimConfig};
use ccsim_des::SimDuration;
use ccsim_experiments::{catalog, json, run_experiment, Fidelity, RunOptions};

fn quick() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 4,
        batch_time: SimDuration::from_secs(25),
        confidence: Confidence::Ninety,
    }
}

fn tiny_opts(threads: usize, replications: u32) -> RunOptions {
    RunOptions {
        fidelity: Fidelity::Quick,
        base_seed: 0xBEEF,
        threads,
        replications,
        audit: false,
    }
}

#[test]
fn replicated_sweep_is_identical_across_thread_counts() {
    let mut spec = catalog::exp3();
    spec.mpls = vec![10];
    let serial = run_experiment(&spec, &tiny_opts(1, 3)).expect("sweep completes");
    let parallel = run_experiment(&spec, &tiny_opts(0, 3)).expect("sweep completes");
    for (a, b) in serial.points.iter().zip(parallel.points.iter()) {
        assert_eq!(a.series, b.series);
        assert_eq!(
            a.replicates, b.replicates,
            "{}@{} diverged",
            a.series, a.mpl
        );
        assert_eq!(a.report, b.report);
    }
    assert_eq!(json::to_json(&serial), json::to_json(&parallel));
}

#[test]
fn replications_explore_distinct_sample_paths() {
    let mut spec = catalog::exp3();
    spec.mpls = vec![10];
    let result = run_experiment(&spec, &tiny_opts(0, 3)).expect("sweep completes");
    for p in &result.points {
        assert_eq!(p.replicates.len(), 3);
        for i in 0..p.replicates.len() {
            for j in i + 1..p.replicates.len() {
                assert_ne!(
                    p.replicates[i], p.replicates[j],
                    "{}@{}: replications {i} and {j} replayed the same stream",
                    p.series, p.mpl
                );
            }
        }
    }
}

#[test]
fn crn_replication_means_are_paired_across_algorithms() {
    // Same replication index => same workload seed for every series, so the
    // per-replication throughput vectors support a paired comparison.
    let mut spec = catalog::exp3();
    spec.mpls = vec![10];
    let result = run_experiment(&spec, &tiny_opts(0, 3)).expect("sweep completes");
    let b = result.rep_throughputs("blocking", 10).unwrap();
    let ir = result.rep_throughputs("immediate-restart", 10).unwrap();
    assert_eq!(b.len(), 3);
    assert_eq!(ir.len(), 3);
    let t = result
        .paired_throughput_t("blocking", "immediate-restart", 10)
        .expect("three paired replications");
    assert_eq!(t.n, 3);
    assert!(t.mean_diff.is_finite());
}

#[test]
fn workload_seed_controls_the_workload_streams() {
    // With concurrency control disabled the engine consumes only workload
    // streams, so two runs sharing a workload seed must be bit-identical
    // even under different master (control) seeds...
    let mk = |seed: u64, workload: u64| {
        SimConfig::new(CcAlgorithm::NoCc)
            .with_params(Params::paper_baseline().with_mpl(20))
            .with_metrics(quick())
            .with_seed(seed)
            .with_workload_seed(workload)
    };
    let a = run(mk(111, 7)).unwrap().report;
    let b = run(mk(222, 7)).unwrap().report;
    assert_eq!(
        a, b,
        "control seed leaked into the workload: CRN pairing is broken"
    );
    // ...while changing the workload seed changes the sample path.
    let c = run(mk(111, 8)).unwrap().report;
    assert_ne!(a, c, "workload seed had no effect");
}

#[test]
fn absent_workload_seed_preserves_single_seed_behavior() {
    // `workload_seed: None` must reproduce exactly what `workload_seed ==
    // seed` produces: the pre-replication single-seed behavior.
    let base = SimConfig::new(CcAlgorithm::Blocking)
        .with_params(Params::paper_baseline().with_mpl(15))
        .with_metrics(quick())
        .with_seed(0xABCD);
    let implicit = run(base.clone()).unwrap().report;
    let explicit = run(base.with_workload_seed(0xABCD)).unwrap().report;
    assert_eq!(implicit, explicit);
}
