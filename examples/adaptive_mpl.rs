//! The paper's closing open problem: "adaptive algorithms that dynamically
//! adjust the multiprogramming level in order to maximize system throughput
//! need to be designed."
//!
//! This example implements the simplest such controller offline: a
//! hill-climbing search over the multiprogramming level, using simulation
//! runs as its oracle, for each concurrency control algorithm. It prints
//! the mpl it settles on and compares it against the fixed paper grid.
//!
//! ```text
//! cargo run --release --example adaptive_mpl
//! ```

use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, SimConfig};

fn throughput_at(algo: CcAlgorithm, mpl: u32) -> f64 {
    let cfg = SimConfig::new(algo)
        .with_params(Params::paper_baseline().with_mpl(mpl))
        .with_metrics(MetricsConfig::quick())
        .with_seed(0xADA7 ^ u64::from(mpl));
    let report = run(cfg).expect("valid configuration").report;
    report.throughput.mean
}

/// Hill-climb on mpl with a multiplicative step, shrinking the step on
/// reversals — a crude but effective stand-in for an online controller.
fn search(algo: CcAlgorithm) -> (u32, f64, u32) {
    let mut mpl: u32 = 10;
    let mut best = throughput_at(algo, mpl);
    let mut evals = 1;
    let mut step: i64 = 16;
    while step != 0 {
        let candidate = (i64::from(mpl) + step).clamp(1, 200) as u32;
        if candidate == mpl {
            step /= 2;
            continue;
        }
        let tps = throughput_at(algo, candidate);
        evals += 1;
        if tps > best {
            best = tps;
            mpl = candidate;
        } else {
            // Reverse and shrink.
            step = -step / 2;
        }
    }
    (mpl, best, evals)
}

fn main() {
    println!("Hill-climbing the multiprogramming level (1 CPU / 2 disks)\n");
    println!(
        "{:<18} {:>9} {:>12} {:>8}   fixed-grid best (paper sweep)",
        "algorithm", "best mpl", "tps", "evals"
    );
    for algo in CcAlgorithm::PAPER_TRIO {
        let (mpl, tps, evals) = search(algo);
        // Reference: the paper's fixed grid.
        let (grid_mpl, grid_tps) = Params::PAPER_MPLS
            .iter()
            .map(|&m| (m, throughput_at(algo, m)))
            .fold(
                (0, f64::MIN),
                |acc, (m, t)| if t > acc.1 { (m, t) } else { acc },
            );
        println!(
            "{:<18} {:>9} {:>12.3} {:>8}   mpl {} -> {:.3} tps",
            algo.label(),
            mpl,
            tps,
            evals,
            grid_mpl,
            grid_tps
        );
    }
    println!(
        "\nThe controller should land near the knee of each curve (the paper\n\
         found blocking's peak near mpl 25 for this configuration)."
    );
}
