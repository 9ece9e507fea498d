//! Structured tracing: follow individual transactions through the model.
//!
//! Runs a short, highly contended simulation with the trace ring attached as
//! an event sink, then prints (a) the full lifecycle of the transaction that
//! restarted the most and (b) the deadlock victims picked by the blocking
//! algorithm.
//!
//! ```text
//! cargo run --release --example trace_inspection
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ccsim_core::{
    CcAlgorithm, MetricsConfig, Params, SimConfig, Simulator, Trace, TraceEvent, TxnId,
};
use ccsim_des::SimDuration;

fn main() {
    let mut params = Params::paper_baseline().with_mpl(15);
    params.db_size = 60; // hot database: plenty of conflicts in a short run
    params.write_prob = 0.6;
    let cfg = SimConfig::new(CcAlgorithm::Blocking)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 0,
            batches: 1,
            batch_time: SimDuration::from_secs(20),
        })
        .with_seed(0x7ACE);
    let mut sim = Simulator::new(cfg).expect("valid configuration");
    let trace = Rc::new(RefCell::new(Trace::with_capacity(100_000)));
    sim.add_sink(Box::new(Rc::clone(&trace)));
    let report = sim
        .run_collecting()
        .finished()
        .expect("run within budget")
        .report;
    let trace = trace.borrow();

    println!(
        "20 simulated seconds: {} commits, {} blocks, {} restarts, {} deadlocks\n",
        report.commits, report.blocks, report.restarts, report.deadlocks
    );

    // Who restarted the most?
    let mut restarts: HashMap<TxnId, u32> = HashMap::new();
    for (_, e) in trace.events() {
        if let TraceEvent::Restart(t) = e {
            *restarts.entry(*t).or_default() += 1;
        }
    }
    if let Some((&victim, &n)) = restarts.iter().max_by_key(|&(_, n)| n) {
        println!("Most-restarted transaction: {victim} ({n} restarts). Lifecycle:");
        for (at, e) in trace.for_txn(victim) {
            println!("  [{at}] {e}");
        }
    }

    println!("\nDeadlocks resolved:");
    let mut shown = 0;
    for (at, e) in trace.events() {
        if let TraceEvent::Deadlock { detector, victim } = e {
            println!("  [{at}] cycle detected via {detector}; restarted {victim}");
            shown += 1;
            if shown >= 5 {
                println!("  ... ({} total)", report.deadlocks);
                break;
            }
        }
    }
    if shown == 0 {
        println!("  (none in this run)");
    }
}
