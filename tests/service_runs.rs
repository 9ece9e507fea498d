//! Exactness witness for infinite-resource service runs.
//!
//! Under infinite resources the engine retires a whole run of consecutive
//! service steps with one calendar event. At mpl 1 no request ever queues
//! and no two runs overlap, so infinite resources and one CPU plus one
//! disk are the same system, with no same-instant tie that the run's
//! scheduling position could reorder. The two must then agree on every
//! observable: the trace, the committed history with its read instants,
//! and the report apart from the utilization estimates, which infinite
//! resources do not measure.

use ccsim_core::{
    run, CcAlgorithm, Confidence, MetricsConfig, Params, Report, ResourceSpec, RunOutcome,
    SimConfig, TraceEvent,
};
use ccsim_des::{SimDuration, SimTime};

fn config(
    algo: CcAlgorithm,
    resources: ResourceSpec,
    terminals: u32,
    int_think: SimDuration,
    cc_cpu: SimDuration,
) -> SimConfig {
    let mut params = Params::paper_baseline()
        .with_mpl(1)
        .with_resources(resources)
        .with_think_times(SimDuration::from_secs(1), int_think);
    params.num_terms = terminals;
    params.cc_cpu = cc_cpu;
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 1,
            batches: 3,
            batch_time: SimDuration::from_secs(20),
            confidence: Confidence::Ninety,
        })
        .with_seed(0x5E41_CE55)
        .with_history(true)
        .with_trace_capacity(1 << 20)
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

fn trace_of(out: &RunOutcome) -> Vec<(SimTime, TraceEvent)> {
    let trace = out.trace.as_ref().expect("tracing is on");
    assert_eq!(trace.dropped(), 0, "the ring must keep every event");
    trace.events().copied().collect()
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
                for cc_cpu in [SimDuration::ZERO, SimDuration::from_millis(1)] {
                    let at = format!(
                        "{algo}, {terminals} terminals, internal think {int_think}, cc_cpu {cc_cpu}"
                    );
                    let inf = run(config(
                        algo,
                        ResourceSpec::Infinite,
                        terminals,
                        int_think,
                        cc_cpu,
                    ))
                    .expect("valid config");
                    let phys = run(config(algo, one_by_one, terminals, int_think, cc_cpu))
                        .expect("valid config");
                    let trace = trace_of(&inf);
                    assert!(trace.len() > 100, "{at}: only {} events", trace.len());
                    assert!(trace == trace_of(&phys), "{at}: traces differ");
                    let history = inf.history.as_ref().expect("history is on").txns();
                    assert!(!history.is_empty(), "{at}: nothing committed");
                    assert!(
                        history == phys.history.as_ref().expect("history is on").txns(),
                        "{at}: committed histories differ"
                    );
                    assert_eq!(
                        without_utilization(inf.report.clone()),
                        without_utilization(phys.report.clone()),
                        "{at}: reports differ"
                    );
                    assert!(
                        inf.perf.events < phys.perf.events,
                        "{at}: {} infinite-resource events vs {} on 1 CPU / 1 disk",
                        inf.perf.events,
                        phys.perf.events
                    );
                }
            }
        }
    }
}
