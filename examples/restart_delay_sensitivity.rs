//! The paper's restart-delay sensitivity analysis (§4.2): immediate-restart
//! performance is sensitive to the delay length — "a delay of about one
//! transaction time is best, and throughput begins to drop off rapidly when
//! the delay exceeds more than a few transaction times."
//!
//! This example sweeps fixed restart delays expressed as multiples of the
//! expected transaction service time, plus the paper's adaptive policy, for
//! the immediate-restart algorithm under infinite resources (where the
//! sensitivity is strongest).
//!
//! ```text
//! cargo run --release --example restart_delay_sensitivity
//! ```

use ccsim_core::{
    run, CcAlgorithm, MetricsConfig, Params, ResourceSpec, RestartDelayPolicy, SimConfig,
};
use ccsim_des::SimDuration;

fn main() {
    let base = Params::paper_baseline()
        .with_mpl(100)
        .with_resources(ResourceSpec::Infinite);
    let txn_time = base.expected_service_time();
    println!(
        "Immediate-restart, infinite resources, mpl = 100; one transaction\n\
         time = {:.3} s\n",
        txn_time.as_secs_f64()
    );
    println!(
        "{:>22} {:>14} {:>16}",
        "restart delay", "tps", "restarts/commit"
    );

    let multiples = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    for &m in &multiples {
        let delay = SimDuration::from_secs_f64(txn_time.as_secs_f64() * m);
        let policy = if delay.is_zero() {
            RestartDelayPolicy::None
        } else {
            RestartDelayPolicy::Fixed(delay)
        };
        let cfg = SimConfig::new(CcAlgorithm::ImmediateRestart)
            .with_params(base.clone().with_restart_delay(policy))
            .with_metrics(MetricsConfig::quick());
        let r = run(cfg).expect("valid configuration").report;
        println!(
            "{:>15.1}x txn {:>9.2} ±{:<3.2} {:>16.2}",
            m, r.throughput.mean, r.throughput.half_width, r.restart_ratio
        );
    }

    let cfg = SimConfig::new(CcAlgorithm::ImmediateRestart)
        .with_params(base.with_restart_delay(RestartDelayPolicy::Adaptive))
        .with_metrics(MetricsConfig::quick());
    let r = run(cfg).expect("valid configuration").report;
    println!(
        "{:>22} {:>9.2} ±{:<3.2} {:>16.2}",
        "adaptive (paper)", r.throughput.mean, r.throughput.half_width, r.restart_ratio
    );
    println!(
        "\nExpected shape: throughput peaks around one transaction time and\n\
         decays for long delays; the adaptive policy tracks the peak."
    );
}
