//! Quickstart: simulate the paper's baseline system (Table 2: 1000-page
//! database, 200 terminals, 1 CPU / 2 disks, mpl 25) under each of the three
//! concurrency control algorithms and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ccsim_core::{run, CcAlgorithm, MetricsConfig, SimConfig};

fn main() {
    println!("Paper baseline (Table 2), mpl = 25, 1 CPU / 2 disks\n");
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "algorithm", "tps", "resp (s)", "blk/cmt", "rst/cmt", "disk total", "disk useful"
    );
    for algo in CcAlgorithm::PAPER_TRIO {
        let cfg = SimConfig::new(algo).with_metrics(MetricsConfig::quick());
        let r = run(cfg).expect("baseline configuration is valid").report;
        println!(
            "{:<18} {:>7.2} ±{:<4.2} {:>12.2} {:>10.2} {:>10.2} {:>11.1}% {:>11.1}%",
            algo.label(),
            r.throughput.mean,
            r.throughput.half_width,
            r.response_time_mean,
            r.block_ratio,
            r.restart_ratio,
            100.0 * r.disk_util_total.mean,
            100.0 * r.disk_util_useful.mean,
        );
    }
    println!(
        "\n(90% confidence half-widths from batch means; see `repro list` for\n\
         the full figure catalog.)"
    );
}
