//! Exactness witness for infinite-resource service runs.
//!
//! Under infinite resources the engine retires a whole run of consecutive
//! service steps with one calendar event. At mpl 1 no request ever queues
//! and no two runs overlap, so infinite resources and one CPU plus one
//! disk are the same system, with no same-instant tie that the run's
//! scheduling position could reorder. The two must then agree on every
//! observable: the trace, the committed history with its read instants,
//! and the report apart from the utilization estimates, which infinite
//! resources do not measure. The one difference is when a read is
//! announced: a service run announces its reads, each with its own
//! instant, when the whole run completes, so the trace comparison leaves
//! out the facts only a history needs and the histories compare those.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::{
    CcAlgorithm, CommittedTxn, HistoryRecorder, MetricsConfig, Params, Report, ResourceSpec,
    RunOutcome, SimConfig, Simulator, Trace, TraceEvent,
};
use ccsim_des::{SimDuration, SimTime};

fn config(
    algo: CcAlgorithm,
    resources: ResourceSpec,
    terminals: u32,
    int_think: SimDuration,
) -> SimConfig {
    let mut params = Params::paper_baseline()
        .with_mpl(1)
        .with_resources(resources)
        .with_think_times(SimDuration::from_secs(1), int_think);
    params.num_terms = terminals;
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 1,
            batches: 3,
            batch_time: SimDuration::from_secs(20),
        })
        .with_seed(0x5E41_CE55)
}

/// What one run shows: its outcome, its trace without the history facts,
/// and its committed history.
struct Observed {
    out: RunOutcome,
    trace: Vec<(SimTime, TraceEvent)>,
    history: Vec<CommittedTxn>,
}

/// Run `cfg` with a lossless trace ring and the history recorder attached.
fn observe(cfg: SimConfig) -> Observed {
    let mut sim = Simulator::new(cfg).expect("valid config");
    let trace = Rc::new(RefCell::new(Trace::with_capacity(1 << 20)));
    let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
    sim.add_sink(Box::new(Rc::clone(&trace)));
    sim.add_sink(Box::new(Rc::clone(&recorder)));
    let out = sim.run_collecting().finished().expect("run within budget");
    let trace = trace.borrow();
    assert_eq!(trace.dropped(), 0, "the ring must keep every event");
    Observed {
        out,
        trace: trace
            .events()
            .filter(|(_, e)| !e.is_history_fact())
            .copied()
            .collect(),
        history: recorder.take().into_history().txns().to_vec(),
    }
}

/// The report with the four utilization estimates blanked.
fn without_utilization(mut report: Report) -> Report {
    let blank = report.throughput;
    report.cpu_util_total = blank;
    report.cpu_util_useful = blank;
    report.disk_util_total = blank;
    report.disk_util_useful = blank;
    report
}

#[test]
fn infinite_resources_match_one_cpu_one_disk_at_mpl_one() {
    let one_by_one = ResourceSpec::Physical {
        num_cpus: 1,
        num_disks: 1,
    };
    let algorithms = CcAlgorithm::ALL.into_iter().chain([CcAlgorithm::NoCc]);
    for algo in algorithms {
        for terminals in [1, 20] {
            for int_think in [SimDuration::ZERO, SimDuration::from_millis(300)] {
                let at = format!("{algo}, {terminals} terminals, internal think {int_think}");
                let inf = observe(config(algo, ResourceSpec::Infinite, terminals, int_think));
                let phys = observe(config(algo, one_by_one, terminals, int_think));
                let trace = &inf.trace;
                assert!(trace.len() > 100, "{at}: only {} events", trace.len());
                assert!(*trace == phys.trace, "{at}: traces differ");
                assert!(!inf.history.is_empty(), "{at}: nothing committed");
                assert!(
                    inf.history == phys.history,
                    "{at}: committed histories differ"
                );
                assert_eq!(
                    without_utilization(inf.out.report.clone()),
                    without_utilization(phys.out.report.clone()),
                    "{at}: reports differ"
                );
                assert!(
                    inf.out.perf.events < phys.out.perf.events,
                    "{at}: {} infinite-resource events vs {} on 1 CPU / 1 disk",
                    inf.out.perf.events,
                    phys.out.perf.events
                );
            }
        }
    }
}
