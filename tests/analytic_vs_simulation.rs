//! Analytical model vs. simulation — the paper's central methodological
//! theme, turned into tests. In the regimes where the analytical tools are
//! valid (no or dilute data contention), the simulator must agree with
//! them; where contention dominates, the analytical bounds must still hold
//! as bounds.

use ccsim_analytic::{AnalyticModel, Contention};
use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, ResourceSpec, SimConfig};
use ccsim_des::SimDuration;

fn metrics() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 6,
        batch_time: SimDuration::from_secs(40),
    }
}

/// Contention-free configuration: huge database, read-only workload, no mpl
/// cap — the simulated network *is* the MVA network.
fn contention_free(resources: ccsim_workload::ResourceSpec) -> Params {
    let mut p = Params::low_conflict()
        .with_mpl(200)
        .with_resources(resources);
    p.write_prob = 0.0;
    p
}

#[test]
fn mva_predicts_contention_free_throughput_one_cpu_two_disks() {
    let params = contention_free(ResourceSpec::ONE_CPU_TWO_DISKS);
    let model = AnalyticModel::new(params.clone());
    let predicted = model.mva(200).expect("finite resources").throughput;
    let simulated = run(SimConfig::new(CcAlgorithm::Optimistic)
        .with_params(params)
        .with_metrics(metrics()))
    .unwrap()
    .report
    .throughput
    .mean;
    let err = (simulated - predicted).abs() / predicted;
    assert!(
        err < 0.05,
        "MVA {predicted:.3} vs simulation {simulated:.3} ({:.1}% off)",
        err * 100.0
    );
}

#[test]
fn mva_predicts_contention_free_throughput_multiprocessor() {
    let params = contention_free(ResourceSpec::FIVE_CPUS_TEN_DISKS);
    let model = AnalyticModel::new(params.clone());
    let predicted = model.mva(200).expect("finite resources").throughput;
    let simulated = run(SimConfig::new(CcAlgorithm::Optimistic)
        .with_params(params)
        .with_metrics(metrics()))
    .unwrap()
    .report
    .throughput
    .mean;
    let err = (simulated - predicted).abs() / predicted;
    // The multi-server MVA approximation is a few percent optimistic.
    assert!(
        err < 0.08,
        "MVA {predicted:.3} vs simulation {simulated:.3} ({:.1}% off)",
        err * 100.0
    );
}

#[test]
fn infinite_resource_formula_matches_simulation() {
    let params = contention_free(ResourceSpec::Infinite);
    let model = AnalyticModel::new(params.clone());
    let predicted = model.infinite_resource_throughput();
    let simulated = run(SimConfig::new(CcAlgorithm::Optimistic)
        .with_params(params)
        .with_metrics(metrics()))
    .unwrap()
    .report
    .throughput
    .mean;
    let err = (simulated - predicted).abs() / predicted;
    assert!(
        err < 0.05,
        "formula {predicted:.2} vs simulation {simulated:.2}"
    );
}

#[test]
fn operational_bounds_hold_under_full_contention() {
    // Even at the paper's most contended settings, no algorithm may exceed
    // the operational bounds.
    for algo in CcAlgorithm::PAPER_TRIO {
        for mpl in [25, 200] {
            let params = Params::paper_baseline().with_mpl(mpl);
            let bound = AnalyticModel::new(params.clone()).throughput_upper_bound();
            let simulated = run(SimConfig::new(algo)
                .with_params(params)
                .with_metrics(metrics()))
            .unwrap()
            .report
            .throughput
            .mean;
            assert!(
                simulated <= bound * 1.01,
                "{algo}@{mpl}: {simulated:.2} exceeds operational bound {bound:.2}"
            );
        }
    }
}

#[test]
fn straw_man_block_ratio_is_the_right_magnitude_in_the_dilute_regime() {
    // At mpl=5 on the baseline database the first-order approximation
    // should get the block ratio right within a factor of two (it ignores
    // queueing correlations and lock-hold-time skew).
    let params = Params::paper_baseline().with_mpl(5);
    let report = run(SimConfig::new(CcAlgorithm::Blocking)
        .with_params(params.clone())
        .with_metrics(metrics()))
    .unwrap()
    .report;
    let predicted = Contention::new(&params).expected_block_ratio(5);
    assert!(
        report.block_ratio < predicted * 2.0 && report.block_ratio > predicted / 4.0,
        "predicted ~{predicted:.3} blocks/commit, simulated {:.3}",
        report.block_ratio
    );
}

#[test]
fn tays_thrashing_heuristic_brackets_the_blocking_knee() {
    // The workload factor says blocking should be degrading well before
    // mpl=75 on the baseline database (factor 1.5 at mpl≈23). Check the
    // simulated knee: throughput at the heuristic mpl is higher than at 3x
    // beyond it (i.e., the curve has turned over in between).
    let heuristic = Contention::new(&Params::paper_baseline()).thrashing_mpl(1.5);
    assert!((10..=50).contains(&heuristic), "heuristic mpl {heuristic}");
    let tps = |mpl: u32| {
        run(SimConfig::new(CcAlgorithm::Blocking)
            .with_params(
                Params::paper_baseline()
                    .with_mpl(mpl)
                    .with_resources(ResourceSpec::Infinite),
            )
            .with_metrics(metrics()))
        .unwrap()
        .report
        .throughput
        .mean
    };
    let at_knee = tps(heuristic * 2);
    let past_knee = tps(heuristic * 8);
    assert!(
        past_knee < at_knee,
        "blocking should thrash past the heuristic knee: {at_knee:.1} vs {past_knee:.1}"
    );
}
