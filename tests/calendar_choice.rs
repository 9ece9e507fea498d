//! The two-tier calendar's core contract. The default calendar keeps a
//! near-horizon lane of time buckets in front of an overflow heap; the
//! heap-only calendar routes every event through the heap. Delivery order
//! is the same, so every report, event count, and golden trace is
//! byte-identical whichever calendar runs. The exp-scale point's check of
//! the same contract lives in `determinism.rs`
//! (`scale_point_is_deterministic_under_observation_and_calendar_choice`).

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_audit::attach;
use ccsim_audit::golden::serialize_trace;
use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, SimConfig, Simulator, Trace};
use ccsim_des::SimDuration;

fn quick() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 4,
        batch_time: SimDuration::from_secs(25),
    }
}

fn tracked_algorithms() -> impl Iterator<Item = CcAlgorithm> {
    CcAlgorithm::PAPER_TRIO
        .into_iter()
        .chain(CcAlgorithm::MODERN_TRIO)
}

#[test]
fn calendar_choice_leaves_reports_byte_identical() {
    // Paper trio + modern trio at a contended mpl: the full report must be
    // byte-equal under both calendars, and the two-tier run must really
    // have used its near lane.
    for algo in tracked_algorithms() {
        let mk = |two_tier| {
            SimConfig::new(algo)
                .with_params(Params::paper_baseline().with_mpl(50))
                .with_metrics(quick())
                .with_seed(0x7ACE)
                .with_two_tier_calendar(two_tier)
        };
        let on = run(mk(true)).expect("two-tier run finishes");
        let off = run(mk(false)).expect("heap-only run finishes");
        assert_eq!(
            on.report, off.report,
            "{algo}: the calendar choice changed the report"
        );
        assert_eq!(on.perf.events, off.perf.events, "{algo}: event counts");
        assert!(
            on.perf.calendar.lane_schedules > 0,
            "{algo}: the two-tier run never used the near lane"
        );
        assert_eq!(
            off.perf.calendar.lane_schedules, 0,
            "{algo}: the heap-only run still used the near lane"
        );
        // Replaying the two-tier run gives the same bytes again.
        assert_eq!(
            on.report,
            run(mk(true)).unwrap().report,
            "{algo}: replay diverged"
        );
    }
}

#[test]
fn heap_only_calendar_reproduces_the_golden_traces() {
    // The same fixed scenario as the golden-trace harness: the serialized
    // event stream under the two-tier calendar must match the heap-only
    // text AND the checked-in golden file byte-for-byte.
    for algo in tracked_algorithms() {
        let mk = |two_tier| {
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
                })
                .with_seed(0x601D)
                .with_two_tier_calendar(two_tier)
        };
        let traced = |two_tier| {
            let cfg = mk(two_tier);
            let mut sim = Simulator::new(cfg.clone()).unwrap();
            let trace = Rc::new(RefCell::new(Trace::with_capacity(1_000_000)));
            sim.add_sink(Box::new(Rc::clone(&trace)));
            let out = sim.run_collecting().finished().unwrap();
            let trace = trace.borrow();
            serialize_trace(&cfg, &trace, &out.report)
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
            "{algo}: the two-tier trace diverged from the heap-only trace"
        );
        assert_eq!(
            blessed, on_text,
            "{algo}: the two-tier trace diverged from the golden file"
        );
    }
}

#[test]
fn two_tier_runs_audit_clean_and_match_heap_only() {
    // The online invariant auditor rides the two-tier calendar exactly as
    // it rides the heap-only one: no violations, and neither observation
    // nor the calendar choice perturbs the run.
    for algo in CcAlgorithm::PAPER_TRIO {
        let mk = |two_tier| {
            SimConfig::new(algo)
                .with_params(Params::paper_baseline().with_mpl(50))
                .with_metrics(quick())
                .with_seed(0x7ACE)
                .with_two_tier_calendar(two_tier)
        };
        let mut sim = Simulator::new(mk(true)).unwrap();
        let auditor = attach(&mut sim);
        let audited = sim.run_collecting().finished().unwrap().report;
        let violations = auditor.borrow().report().summaries();
        assert!(
            violations.is_empty(),
            "{algo}: audit violations under the two-tier calendar: {violations:?}"
        );
        let plain = run(mk(true)).unwrap().report;
        assert_eq!(audited, plain, "{algo}: the auditor perturbed the run");
        let off = run(mk(false)).unwrap().report;
        assert_eq!(
            audited, off,
            "{algo}: the calendar choice perturbed the run"
        );
    }
}
