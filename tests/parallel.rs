//! The bucket look-ahead's core contract. The event loop's look-ahead
//! window is the near-lane calendar bucket the clock has just entered:
//! once per bucket, the loop prefetches the arena record and predicted
//! lock-table slot of every event due in it. It replaced the speculative
//! window-parallel mode and inherits that mode's promise: it is read-only,
//! so every report, streaming quantile, and golden trace is byte-identical
//! to a run in which it never fires.
//!
//! A heap-only calendar has no near lane, so its `entered_bucket` yields
//! nothing and the look-ahead is off; the two-tier default turns it on.
//! Speedup is a side effect the benchmarks measure; *these* tests pin the
//! part that must never drift.

use ccsim_audit::attach;
use ccsim_audit::golden::serialize_trace;
use ccsim_core::{
    run, CcAlgorithm, Confidence, MetricsConfig, Params, RunBudget, SimConfig, Simulator,
};
use ccsim_des::SimDuration;

fn quick() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 4,
        batch_time: SimDuration::from_secs(25),
        confidence: Confidence::Ninety,
    }
}

fn tracked_algorithms() -> impl Iterator<Item = CcAlgorithm> {
    CcAlgorithm::PAPER_TRIO
        .into_iter()
        .chain(CcAlgorithm::MODERN_TRIO)
}

#[test]
fn window_mode_reports_are_byte_identical() {
    // Paper trio + modern trio at a contended mpl: the full report must be
    // byte-equal with the look-ahead on and off, and the "on" run must
    // really have had near-lane buckets to look ahead over.
    for algo in tracked_algorithms() {
        let mk = |lookahead| {
            SimConfig::new(algo)
                .with_params(Params::paper_baseline().with_mpl(50))
                .with_metrics(quick())
                .with_seed(0x7ACE)
                .with_two_tier_calendar(lookahead)
        };
        let on = run(mk(true)).expect("look-ahead run finishes");
        let off = run(mk(false)).expect("heap-only run finishes");
        assert_eq!(
            on.report, off.report,
            "{algo}: the look-ahead changed the report"
        );
        assert_eq!(on.perf.events, off.perf.events, "{algo}: event counts");
        assert!(
            on.perf.calendar.lane_schedules > 0,
            "{algo}: the look-ahead run never used the near lane"
        );
        assert_eq!(
            off.perf.calendar.lane_schedules, 0,
            "{algo}: the heap-only run still used the near lane"
        );
        // Replaying the look-ahead run gives the same bytes again.
        assert_eq!(
            on.report,
            run(mk(true)).unwrap().report,
            "{algo}: replay diverged"
        );
    }
}

#[test]
fn window_mode_golden_traces_are_byte_identical() {
    // The same fixed scenario as the golden-trace harness: the serialized
    // event stream with the look-ahead on must match the look-ahead-off
    // text AND the checked-in golden file byte-for-byte.
    for algo in tracked_algorithms() {
        let mk = |lookahead| {
            let mut params = Params::paper_baseline();
            params.db_size = 50;
            params.min_size = 2;
            params.max_size = 6;
            params.write_prob = 0.5;
            params.num_terms = 12;
            params.mpl = 4;
            params.ext_think_time = SimDuration::from_secs(1);
            SimConfig::new(algo)
                .with_params(params)
                .with_metrics(MetricsConfig {
                    warmup_batches: 0,
                    batches: 1,
                    batch_time: SimDuration::from_secs(5),
                    confidence: Confidence::Ninety,
                })
                .with_seed(0x601D)
                .with_two_tier_calendar(lookahead)
        };
        let traced = |lookahead| {
            let cfg = mk(lookahead).with_trace_capacity(1_000_000);
            let out = run(cfg.clone()).unwrap();
            serialize_trace(&cfg, &out.trace.expect("tracing is on"), &out.report)
        };
        let off_text = traced(false);
        let on_text = traced(true);
        let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{}.trace", algo.label()));
        let blessed = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{algo}: reading {}: {e}", golden.display()));
        assert_eq!(
            off_text, on_text,
            "{algo}: the look-ahead trace diverged from the look-ahead-off trace"
        );
        assert_eq!(
            blessed, on_text,
            "{algo}: the look-ahead trace diverged from the golden file"
        );
    }
}

#[test]
fn window_mode_scale_point_is_byte_identical() {
    // A budget-bounded slice of the exp-scale regime (sparse lock table,
    // arena txn state, streaming quantiles), where the look-ahead has the
    // most to prefetch: report, quantiles, and the exact event count must
    // not depend on it, including the budget stop landing on the same
    // event.
    let mk = |lookahead| {
        let mut params = Params::exp_scale();
        params.num_terms = 50_000;
        params.mpl = 5_000;
        SimConfig::new(CcAlgorithm::Blocking)
            .with_params(params)
            .with_metrics(MetricsConfig {
                warmup_batches: 0,
                batches: 400,
                batch_time: SimDuration::from_millis(250),
                confidence: Confidence::Ninety,
            })
            .with_seed(0x5CA1ED)
            .with_budget(RunBudget::unlimited().with_max_events(300_000))
            .with_two_tier_calendar(lookahead)
    };
    let base = Simulator::new(mk(false)).unwrap().run_collecting();
    assert!(base.stopped.is_some(), "the point should stop on budget");
    assert!(base.report.commits > 0, "salvaged window has no commits");
    let ahead = Simulator::new(mk(true)).unwrap().run_collecting();
    assert_eq!(
        base.report, ahead.report,
        "the look-ahead changed the scale report"
    );
    assert_eq!(base.quantiles, ahead.quantiles);
    assert_eq!(base.perf.events, ahead.perf.events);
    assert!(
        ahead.stopped.is_some(),
        "the look-ahead run missed the budget"
    );
    assert!(
        ahead.perf.calendar.lane_schedules > 0,
        "the look-ahead run never used the near lane"
    );
}

#[test]
fn window_mode_is_auditor_clean() {
    // The online invariant auditor rides the look-ahead loop exactly as
    // it rides the look-ahead-off loop: no violations, and neither
    // observation nor the look-ahead perturbs the run.
    for algo in CcAlgorithm::PAPER_TRIO {
        let mk = |lookahead| {
            SimConfig::new(algo)
                .with_params(Params::paper_baseline().with_mpl(50))
                .with_metrics(quick())
                .with_seed(0x7ACE)
                .with_two_tier_calendar(lookahead)
        };
        let mut sim = Simulator::new(mk(true)).unwrap();
        let auditor = attach(&mut sim);
        let audited = sim.run_collecting().finished().unwrap().report;
        let violations = auditor.borrow().report().summaries();
        assert!(
            violations.is_empty(),
            "{algo}: audit violations with the look-ahead on: {violations:?}"
        );
        let plain = run(mk(true)).unwrap().report;
        assert_eq!(audited, plain, "{algo}: the auditor perturbed the run");
        let off = run(mk(false)).unwrap().report;
        assert_eq!(audited, off, "{algo}: the look-ahead perturbed the run");
    }
}
