//! Interactive (form-screen) workloads — the paper's Experiment 5.
//!
//! Transactions read their pages, the user stares at the screen for an
//! exponential internal think time *while the transaction holds its locks*,
//! and then the writes are performed. The paper's finding: as internal
//! think time grows, lock-holding times explode and the optimistic
//! algorithm overtakes blocking.
//!
//! ```text
//! cargo run --release --example interactive_workload
//! ```

use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, SimConfig};
use ccsim_des::SimDuration;

fn main() {
    // (internal think, external think) pairs from the paper: the external
    // think time grows with the internal one to keep the ratio of thinking
    // to active transactions roughly constant (§4.5).
    let settings = [(0u64, 1u64), (1, 3), (5, 11), (10, 21)];
    let mpl = 50;

    println!("Experiment 5: 1 CPU / 2 disks, mpl = {mpl}\n");
    println!(
        "{:>10} {:>10}   {:>18} {:>18} {:>18}",
        "int think", "ext think", "blocking tps", "imm-restart tps", "optimistic tps"
    );
    for (int_s, ext_s) in settings {
        print!("{int_s:>9}s {ext_s:>9}s  ");
        let mut tps = Vec::new();
        for algo in CcAlgorithm::PAPER_TRIO {
            let params = Params::paper_baseline()
                .with_mpl(mpl)
                .with_think_times(SimDuration::from_secs(ext_s), SimDuration::from_secs(int_s));
            let cfg = SimConfig::new(algo)
                .with_params(params)
                .with_metrics(MetricsConfig::quick());
            let r = run(cfg).expect("valid configuration").report;
            tps.push(r.throughput.mean);
            print!(
                " {:>12.3} ±{:<4.2}",
                r.throughput.mean, r.throughput.half_width
            );
        }
        let winner = if tps[0] >= tps[1] && tps[0] >= tps[2] {
            "blocking"
        } else if tps[2] >= tps[1] {
            "optimistic"
        } else {
            "immediate-restart"
        };
        println!("   <- {winner} wins");
    }
    println!(
        "\nThe crossover the paper reports: blocking wins at short internal\n\
         thinks; the optimistic algorithm wins once locks are held across\n\
         multi-second user pauses."
    );
}
