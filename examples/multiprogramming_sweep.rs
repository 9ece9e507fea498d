//! Sweep the multiprogramming level for the paper's three algorithms under
//! a chosen resource configuration, printing a throughput table — the core
//! of the paper's Figures 5 and 8.
//!
//! Usage:
//! ```text
//! cargo run --release --example multiprogramming_sweep [infinite|1x2|5x10|25x50]
//! ```

use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, ResourceSpec, SimConfig};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "1x2".to_string());
    let resources = match arg.as_str() {
        "infinite" => ResourceSpec::Infinite,
        "1x2" => ResourceSpec::ONE_CPU_TWO_DISKS,
        "5x10" => ResourceSpec::FIVE_CPUS_TEN_DISKS,
        "25x50" => ResourceSpec::TWENTY_FIVE_CPUS_FIFTY_DISKS,
        other => {
            eprintln!("unknown resource spec {other:?}; use infinite|1x2|5x10|25x50");
            std::process::exit(2);
        }
    };
    println!("# Throughput (commits/sec) vs multiprogramming level — {arg}");
    println!(
        "{:>5} {:>22} {:>22} {:>22}",
        "mpl", "blocking", "immediate-restart", "optimistic"
    );
    for mpl in Params::PAPER_MPLS {
        print!("{mpl:>5}");
        for algo in CcAlgorithm::PAPER_TRIO {
            let cfg = SimConfig::new(algo)
                .with_params(
                    Params::paper_baseline()
                        .with_mpl(mpl)
                        .with_resources(resources),
                )
                .with_metrics(MetricsConfig::quick());
            let r = run(cfg).expect("valid configuration").report;
            print!(
                "{:>15.2} ±{:>4.2}",
                r.throughput.mean, r.throughput.half_width
            );
        }
        println!();
    }
}
