//! Serializability as an observable: record the execution history of a
//! contended run and verify it with the conflict-graph checker — then do
//! the same with concurrency control switched off (`NoCc`) and watch the
//! checker produce a concrete conflict cycle.
//!
//! ```text
//! cargo run --release --example serializability_check
//! ```

use ccsim_core::{check_conflict_serializable, run, CcAlgorithm, MetricsConfig, Params, SimConfig};

fn contended() -> Params {
    let mut p = Params::paper_baseline().with_mpl(20);
    p.db_size = 100; // hot database: conflicts on nearly every transaction
    p.write_prob = 0.75;
    p
}

fn main() {
    println!("Workload: 100-page database, write_prob 0.75, mpl 20 — heavy conflict.\n");
    for algo in [
        CcAlgorithm::Blocking,
        CcAlgorithm::ImmediateRestart,
        CcAlgorithm::Optimistic,
        CcAlgorithm::NoCc,
    ] {
        let cfg = SimConfig::new(algo)
            .with_params(contended())
            .with_metrics(MetricsConfig::quick())
            .with_history(true);
        let out = run(cfg).expect("valid configuration");
        let (report, history) = (out.report, out.history.expect("history is on"));
        print!(
            "{:<18} {:>6} commits, {:>5} restarts  ->  ",
            algo.label(),
            report.commits,
            report.restarts
        );
        match check_conflict_serializable(&history) {
            Ok(order) => println!(
                "serializable (witness order over {} transactions)",
                order.len()
            ),
            Err(cycle) => {
                println!("NOT serializable:");
                println!("    {cycle}");
            }
        }
    }
    println!(
        "\nThe three real algorithms always pass; the no-cc baseline commits\n\
         the most transactions but the checker catches its isolation\n\
         violations — the price of that throughput."
    );
}
