//! Cross-crate reproducibility: identical configurations with identical
//! seeds must replay bit-for-bit through the whole stack, including the
//! experiment harness and its JSON serialization.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::{
    run, CcAlgorithm, History, HistoryRecorder, MetricsConfig, Params, RunBudget, RunOutcome,
    SimConfig, Simulator, Trace,
};
use ccsim_des::SimDuration;
use ccsim_experiments::{catalog, json, run_experiment, Fidelity, RunOptions};

fn quick() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 4,
        batch_time: SimDuration::from_secs(25),
    }
}

/// Run `cfg` to its end or its budget with a trace ring of `capacity` and
/// the history recorder attached.
fn observed(cfg: SimConfig, capacity: usize) -> (RunOutcome, Trace, History) {
    let mut sim = Simulator::new(cfg).expect("valid config");
    let trace = Rc::new(RefCell::new(Trace::with_capacity(capacity)));
    let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
    sim.add_sink(Box::new(Rc::clone(&trace)));
    sim.add_sink(Box::new(Rc::clone(&recorder)));
    let out = sim.run_collecting();
    let trace = trace.borrow().clone();
    (out, trace, recorder.take().into_history())
}

#[test]
fn simulation_reports_replay_exactly() {
    for algo in CcAlgorithm::ALL {
        let mk = || {
            SimConfig::new(algo)
                .with_params(Params::paper_baseline().with_mpl(30))
                .with_metrics(quick())
                .with_seed(0xD5EED)
        };
        let a = run(mk()).unwrap().report;
        let b = run(mk()).unwrap().report;
        assert_eq!(a, b, "{algo} replay diverged");
    }
}

#[test]
fn experiment_results_and_json_replay_exactly() {
    let mut spec = catalog::exp3();
    spec.mpls = vec![10];
    let opts = RunOptions {
        fidelity: Fidelity::Quick,
        base_seed: 99,
        threads: 1,
        replications: 1,
        audit: false,
    };
    let a = run_experiment(&spec, &opts).expect("sweep completes");
    let b = run_experiment(&spec, &opts).expect("sweep completes");
    assert_eq!(json::to_json(&a), json::to_json(&b));
}

#[test]
fn trace_ring_does_not_perturb_the_run() {
    // The engine skips event emission entirely when nothing observes the
    // run; that fast path must be a pure observer effect. Attaching the
    // trace ring and the history recorder (exp3's resource-limited
    // baseline, mpl 50) must leave the report byte-identical to the
    // unobserved run. The modern in-memory protocols ride the same loop:
    // their certifiers (the shared backward validator's last-commit
    // stamps, TicToc's timestamp intervals) must be equally
    // observer-independent.
    for algo in CcAlgorithm::PAPER_TRIO
        .into_iter()
        .chain(CcAlgorithm::MODERN_TRIO)
    {
        let mk = || {
            SimConfig::new(algo)
                .with_params(Params::paper_baseline().with_mpl(50))
                .with_metrics(quick())
                .with_seed(0x7ACE)
        };
        let detached = run(mk()).unwrap();
        let (attached, trace, history) = observed(mk(), 4096);
        assert!(
            !trace.is_empty(),
            "{algo}: trace ring attached but recorded nothing"
        );
        assert!(!history.is_empty(), "{algo}: history recorded nothing");
        assert_eq!(
            detached.report,
            attached.finished().unwrap().report,
            "{algo}: attaching the trace ring and the history recorder changed the run"
        );
    }
}

#[test]
fn scale_point_is_deterministic_under_observation_and_calendar_choice() {
    // A budgeted slice of the `exp-scale` regime (10^8 objects, sparse
    // lock table, arena txn state), scaled down to tens of thousands of
    // in-flight transactions so the test stays quick. Two pure
    // observer/representation switches must leave the salvaged window
    // byte-identical: attaching the trace ring and the two-tier calendar
    // itself.
    let mk = || {
        let mut params = Params::exp_scale();
        params.num_terms = 50_000;
        params.mpl = 5_000;
        SimConfig::new(CcAlgorithm::Blocking)
            .with_params(params)
            .with_metrics(MetricsConfig {
                warmup_batches: 0,
                batches: 400,
                batch_time: SimDuration::from_millis(250),
            })
            .with_seed(0x5CA1ED)
            .with_budget(RunBudget::unlimited().with_max_events(300_000))
    };
    let collect = |cfg| Simulator::new(cfg).unwrap().run_collecting();
    let base = collect(mk());
    assert!(
        base.stopped.is_some(),
        "the point should stop on its event budget"
    );
    assert!(base.report.commits > 0, "salvaged window has no commits");

    let (traced, _, _) = observed(mk(), 4096);
    assert_eq!(
        base.report, traced.report,
        "attaching the trace ring changed the scale run"
    );

    let heap_only = collect(mk().with_two_tier_calendar(false));
    assert_eq!(
        base.report, heap_only.report,
        "the two-tier calendar changed the scale run"
    );
    assert_eq!(
        base.perf.events, heap_only.perf.events,
        "calendar tiers disagreed on the event count"
    );
    assert_eq!(
        heap_only.perf.calendar.lane_schedules, 0,
        "heap-only run still used the near lane"
    );
    assert!(
        base.perf.calendar.lane_schedules > 0,
        "two-tier run never used the near lane"
    );
}

#[test]
fn many_terminal_infinite_resource_runs_match_across_calendars() {
    // While it handles an arrival or an infinite-resource completion, the
    // engine asks the calendar which event comes next and prefetches that
    // terminal's state. The heap-only calendar always answers the peek and
    // the two-tier one only when its parked bucket knows, so the look-ahead
    // touches different terminals in the two runs; as a pure hint it must
    // leave the report, the engine counters and the trace identical. 10^5
    // terminals at mpl 10^4 keep thousands of events per lane bucket.
    let mk = |two_tier| {
        let mut params = Params::exp_scale();
        params.num_terms = 100_000;
        params.mpl = 10_000;
        SimConfig::new(CcAlgorithm::Blocking)
            .with_params(params)
            .with_metrics(MetricsConfig {
                warmup_batches: 0,
                batches: 400,
                batch_time: SimDuration::from_millis(250),
            })
            .with_seed(0x5CA1ED)
            .with_budget(RunBudget::unlimited().with_max_events(300_000))
            .with_two_tier_calendar(two_tier)
    };
    let ((two_tier, two_tier_trace, _), (heap_only, heap_only_trace, _)) =
        (observed(mk(true), 1 << 16), observed(mk(false), 1 << 16));
    assert!(
        two_tier.stopped.is_some(),
        "the point should stop on its event budget"
    );
    assert!(
        two_tier.report.commits > 0,
        "salvaged window has no commits"
    );
    assert_eq!(two_tier.report, heap_only.report);
    let counters = |p: &ccsim_core::PerfStats| {
        (
            p.events,
            p.peak_calendar,
            p.peak_lock_table,
            p.calendar.schedules,
            p.calendar.pops,
        )
    };
    assert_eq!(counters(&two_tier.perf), counters(&heap_only.perf));
    assert!(two_tier.perf.calendar.lane_pops > 0);
    assert_eq!(heap_only.perf.calendar.lane_pops, 0);
    let events = |trace: &Trace| (trace.dropped(), trace.events().copied().collect::<Vec<_>>());
    let (dropped, two_tier_events) = events(&two_tier_trace);
    assert!(dropped > 0 && two_tier_events.len() == 1 << 16);
    assert_eq!((dropped, two_tier_events), events(&heap_only_trace));
}

#[test]
fn modern_scale_points_are_deterministic_under_observation_and_calendar_choice() {
    // One budget-bounded slice of the `exp-scale` regime per modern
    // protocol: the sparse last-commit stamps (mvcc-si, silo-occ) and
    // timestamp intervals (TicToc) must all survive the same pure
    // observer/representation switches byte-for-byte that the blocking
    // scale point above does — trace ring on and the two-tier calendar
    // off.
    for algo in CcAlgorithm::MODERN_TRIO {
        let mk = || {
            let mut params = Params::exp_scale();
            params.num_terms = 20_000;
            params.mpl = 2_000;
            SimConfig::new(algo)
                .with_params(params)
                .with_metrics(MetricsConfig {
                    warmup_batches: 0,
                    batches: 400,
                    batch_time: SimDuration::from_millis(250),
                })
                .with_seed(0x5CA1ED)
                .with_budget(RunBudget::unlimited().with_max_events(200_000))
        };
        let collect = |cfg| Simulator::new(cfg).unwrap().run_collecting();
        let base = collect(mk());
        assert!(
            base.stopped.is_some(),
            "{algo}: the point should stop on its event budget"
        );
        assert!(
            base.report.commits > 0,
            "{algo}: salvaged window has no commits"
        );

        let (traced, _, _) = observed(mk(), 4096);
        assert_eq!(
            base.report, traced.report,
            "{algo}: attaching the trace ring changed the scale run"
        );

        let heap_only = collect(mk().with_two_tier_calendar(false));
        assert_eq!(
            base.report, heap_only.report,
            "{algo}: the two-tier calendar changed the scale run"
        );
    }
}

#[test]
fn seed_changes_results() {
    let mk = |seed| {
        SimConfig::new(CcAlgorithm::Optimistic)
            .with_params(Params::paper_baseline().with_mpl(30))
            .with_metrics(quick())
            .with_seed(seed)
    };
    let a = run(mk(1)).unwrap().report;
    let b = run(mk(2)).unwrap().report;
    assert_ne!(
        a, b,
        "different seeds should explore different sample paths"
    );
    // ... but estimate the same system: throughputs within a loose factor.
    let ratio = a.throughput.mean / b.throughput.mean;
    assert!(
        (0.5..2.0).contains(&ratio),
        "seeds disagree wildly: {} vs {}",
        a.throughput.mean,
        b.throughput.mean
    );
}

#[test]
fn batch_count_extends_rather_than_perturbs() {
    // Running more batches keeps the same sample path for the early ones:
    // the throughput estimate should move only modestly.
    let mk = |batches| {
        SimConfig::new(CcAlgorithm::Blocking)
            .with_params(Params::paper_baseline().with_mpl(25))
            .with_metrics(MetricsConfig {
                warmup_batches: 1,
                batches,
                batch_time: SimDuration::from_secs(30),
            })
            .with_seed(7)
    };
    let short = run(mk(4)).unwrap().report;
    let long = run(mk(8)).unwrap().report;
    assert_eq!(short.throughput_per_batch.len(), 4);
    assert_eq!(long.throughput_per_batch.len(), 8);
    for (i, (a, b)) in short
        .throughput_per_batch
        .iter()
        .zip(long.throughput_per_batch.iter())
        .enumerate()
    {
        assert!(
            (a - b).abs() < 1e-9,
            "batch {i} diverged between run lengths: {a} vs {b}"
        );
    }
}
