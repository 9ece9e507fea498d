//! End-to-end exercises of the online invariant auditor (`ccsim-audit`):
//! real runs of every algorithm must audit clean, per-algorithm event
//! legality must hold on random configurations, a deliberately injected
//! invariant break must be caught with a contextual report, and auditing a
//! sweep must not perturb it no matter how many worker threads run it.

use ccsim_audit::{attach, AuditReport};
use ccsim_core::{
    run, CcAlgorithm, Confidence, MetricsConfig, Params, Report, SimConfig, Simulator, Trace,
    TraceEvent,
};
use ccsim_des::SimDuration;
use ccsim_experiments::{catalog, json, run_experiment, Fidelity, RunOptions};
use proptest::prelude::*;

/// A short but contended configuration: small database, writes likely,
/// brisk arrivals — enough conflicts to exercise every auditor check.
fn contended(algo: CcAlgorithm, mpl: u32, num_terms: u32, seed: u64) -> SimConfig {
    let mut params = Params::paper_baseline();
    params.db_size = 100;
    params.min_size = 2;
    params.max_size = 8;
    params.write_prob = 0.5;
    params.num_terms = num_terms;
    params.mpl = mpl;
    params.ext_think_time = SimDuration::from_millis(500);
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 0,
            batches: 2,
            batch_time: SimDuration::from_secs(15),
            confidence: Confidence::Ninety,
        })
        .with_seed(seed)
}

/// Run `cfg` to completion with an auditor attached.
fn audited(cfg: SimConfig) -> (Report, AuditReport) {
    let mut sim = Simulator::new(cfg).expect("valid config");
    let auditor = attach(&mut sim);
    let out = sim.run_collecting().finished().expect("run within budget");
    let audit = auditor.borrow().report();
    (out.report, audit)
}

/// Run `cfg` with a trace ring large enough to keep every event.
fn traced(cfg: SimConfig) -> Trace {
    let out = run(cfg.with_trace_capacity(1_000_000)).expect("valid config");
    out.trace.expect("tracing is on")
}

#[test]
fn every_algorithm_audits_clean_on_a_contended_run() {
    for algo in CcAlgorithm::ALL {
        let (report, audit) = audited(contended(algo, 10, 25, 0xA0D17));
        assert!(report.commits > 0, "{algo} committed nothing");
        assert!(audit.run_ended, "{algo}: auditor missed the end of the run");
        assert!(
            audit.is_clean(),
            "{algo} violated invariants:\n{}",
            audit.render()
        );
    }
}

#[test]
fn injected_lock_leak_is_caught_with_context() {
    let mut sim = Simulator::new(contended(CcAlgorithm::Blocking, 5, 15, 7)).unwrap();
    let auditor = attach(&mut sim);
    sim.inject_lock_leak();
    sim.run_collecting()
        .finished()
        .expect("run completes within budget");
    let audit = auditor.borrow().report();
    assert!(
        !audit.is_clean(),
        "auditor failed to notice the leaked locks"
    );
    assert!(
        audit
            .violations
            .iter()
            .any(|v| v.message.contains("LocksReleased") || v.message.contains("leaked lock")),
        "violations never name the missing release:\n{}",
        audit.render()
    );
    let with_context = audit
        .violations
        .iter()
        .find(|v| !v.context.is_empty())
        .expect("at least one violation carries trace context");
    assert!(
        with_context.context.contains("commit"),
        "context should show the commit that leaked: {}",
        with_context.context
    );
}

#[test]
fn audited_sweep_replays_identically_across_thread_counts() {
    let mut spec = catalog::exp3();
    spec.mpls = vec![5];
    let opts = |threads| RunOptions {
        fidelity: Fidelity::Quick,
        base_seed: 0xCC85,
        threads,
        replications: 1,
        audit: true,
    };
    let one = run_experiment(&spec, &opts(1)).expect("sweep completes");
    let four = run_experiment(&spec, &opts(4)).expect("sweep completes");
    assert!(one.audit_failures.is_empty(), "{:?}", one.audit_failures);
    assert!(four.audit_failures.is_empty(), "{:?}", four.audit_failures);
    assert_eq!(json::to_json(&one), json::to_json(&four));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Immediate-restart and optimistic runs never emit a `Deadlock` event
    /// — neither algorithm ever waits, so no cycle can form — and blocking
    /// runs never emit an optimistic `ValidationFailure` or a timestamp
    /// rejection, whatever the seed or load level.
    #[test]
    fn restart_based_algorithms_never_deadlock(
        seed in any::<u64>(),
        mpl in 1u32..30,
        num_terms in 2u32..30,
    ) {
        for algo in [CcAlgorithm::ImmediateRestart, CcAlgorithm::Optimistic] {
            let cfg = contended(algo, mpl, num_terms, seed);
            let trace = traced(cfg);
            prop_assert_eq!(trace.dropped(), 0, "{} trace overflowed", algo);
            for (at, e) in trace.events() {
                prop_assert!(
                    !matches!(e, TraceEvent::Deadlock { .. }),
                    "{} emitted a deadlock at {}: {}",
                    algo, at, e
                );
            }
        }
        let cfg = contended(CcAlgorithm::Blocking, mpl, num_terms, seed);
        let trace = traced(cfg);
        prop_assert_eq!(trace.dropped(), 0, "blocking trace overflowed");
        for (at, e) in trace.events() {
            prop_assert!(
                !matches!(
                    e,
                    TraceEvent::ValidationFailure(..) | TraceEvent::TsRejected(..)
                ),
                "blocking emitted a validation-family event at {}: {}",
                at, e
            );
        }
    }

    /// The full auditor stays clean on random configurations of the three
    /// paper algorithms — the per-event legality table, lock ledger, and
    /// flow-balance identities all hold off the beaten path.
    #[test]
    fn paper_trio_audits_clean_on_random_configs(
        seed in any::<u64>(),
        mpl in 1u32..25,
        num_terms in 2u32..25,
    ) {
        for algo in CcAlgorithm::PAPER_TRIO {
            let (_, audit) = audited(contended(algo, mpl, num_terms, seed));
            prop_assert!(
                audit.is_clean(),
                "{} violated invariants:\n{}",
                algo,
                audit.render()
            );
        }
    }
}
