//! Large-transaction starvation under restart-oriented concurrency control.
//!
//! A mixed workload — 90% ordinary Table-2 transactions, 10% large 40–60
//! page transactions — exposes the classic weakness of restart-based
//! methods: the large transactions' long lifetimes make them perpetual
//! conflict victims. Blocking serializes around them instead.
//!
//! ```text
//! cargo run --release --example mixed_workload
//! ```

use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, SimConfig};
use ccsim_workload::TxnClass;

fn main() {
    let mut params = Params::paper_baseline().with_mpl(25);
    params.primary_weight = 0.9;
    params.extra_classes.push(TxnClass {
        weight: 0.1,
        min_size: 40,
        max_size: 60,
        write_prob: 0.25,
    });

    println!(
        "Mixed workload: 90% small (4-12 pages), 10% large (40-60 pages);\n\
         1 CPU / 2 disks, mpl 25.\n"
    );
    println!(
        "{:<18} {:>8} {:>8} {:>11} {:>11} {:>12} {:>12}",
        "algorithm", "sm cmts", "lg cmts", "sm rst/cmt", "lg rst/cmt", "sm resp (s)", "lg resp (s)"
    );
    for algo in CcAlgorithm::PAPER_TRIO {
        let cfg = SimConfig::new(algo)
            .with_params(params.clone())
            .with_metrics(MetricsConfig::quick());
        let r = run(cfg).expect("valid configuration").report;
        let small = &r.class_reports[0];
        let large = &r.class_reports[1];
        println!(
            "{:<18} {:>8} {:>8} {:>11.2} {:>11.2} {:>12.1} {:>12.1}",
            algo.label(),
            small.commits,
            large.commits,
            small.restart_ratio,
            large.restart_ratio,
            small.response_time_mean,
            large.response_time_mean,
        );
    }
    println!(
        "\nExpected shape: under the optimistic algorithm the large class's\n\
         restarts-per-commit and response time explode relative to the small\n\
         class; blocking keeps the two classes far closer together."
    );
}
