//! Analytical model vs. simulation — the methodological heart of the paper,
//! live. Exact Mean Value Analysis predicts the *contention-free* closed
//! network; the simulator then adds data contention, and the gap between
//! the two IS the cost of concurrency control.
//!
//! ```text
//! cargo run --release --example analytic_vs_simulation
//! ```

use ccsim_analytic::{AnalyticModel, Contention};
use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, SimConfig};

fn main() {
    println!("1 CPU / 2 disks, 200 terminals; MVA = no-contention prediction.\n");
    println!(
        "{:>5} {:>10} {:>12} {:>14} {:>12} {:>14}",
        "mpl", "MVA tps", "sim tps*", "CC cost", "pred blocks", "sim blocks"
    );
    for mpl in [5, 10, 25, 50, 75, 100] {
        let params = Params::paper_baseline().with_mpl(mpl);
        // With 200 terminals behind a small mpl cap, the ready queue keeps
        // every active slot full: the right contention-free reference is
        // the saturated MVA (no think delay), populated with `mpl`
        // customers.
        let model = AnalyticModel::new(params.clone());
        let mva = model
            .mva_saturated(mpl)
            .expect("finite resources")
            .throughput;
        let sim = run(SimConfig::new(CcAlgorithm::Blocking)
            .with_params(params.clone())
            .with_metrics(MetricsConfig::quick()))
        .expect("valid configuration")
        .report;
        let cc_cost = 100.0 * (1.0 - sim.throughput.mean / mva);
        let predicted_blocks = Contention::new(&params).expected_block_ratio(mpl);
        println!(
            "{:>5} {:>10.2} {:>12.2} {:>13.1}% {:>12.2} {:>14.2}",
            mpl, mva, sim.throughput.mean, cc_cost, predicted_blocks, sim.block_ratio
        );
    }
    println!(
        "\n* blocking algorithm. At low mpl the simulator slightly beats MVA\n\
         because the model's service times are deterministic (less queueing\n\
         than MVA's exponential assumption); the growing positive gap beyond\n\
         the knee is the cost of data contention. Tay's thrashing heuristic\n\
         puts that knee at mpl ≈ {}.",
        Contention::new(&Params::paper_baseline()).thrashing_mpl(1.5)
    );
}
