//! End-to-end resilience guarantees of the sweep supervisor:
//!
//! * an injected worker panic or budget exhaustion becomes a typed hole in
//!   the result while the rest of the sweep completes untouched;
//! * a hole is a deterministic fact: a sweep with one gives byte-identical
//!   JSON and text at any thread count, and a budget hole names the event
//!   count and simulated time its run stopped at.
//!
//! Fault injection comes from the `chaos` feature of `ccsim-experiments`
//! (enabled for this test target in the workspace `Cargo.toml`).

use ccsim_experiments::{
    catalog, json, report, run_experiment, run_experiment_supervised, ChaosKind, ChaosPoint,
    ExperimentSpec, FailureKind, Fidelity, RunOptions, SweepControl,
};

fn tiny_spec() -> ExperimentSpec {
    let mut spec = catalog::exp3();
    spec.mpls = vec![5, 25]; // 3 series x 2 mpls = 6 runs
    spec
}

fn tiny_opts() -> RunOptions {
    RunOptions {
        fidelity: Fidelity::Quick,
        base_seed: 42,
        threads: 0,
        replications: 1,
        audit: false,
    }
}

#[test]
fn chaos_panic_is_isolated_to_one_hole() {
    let spec = tiny_spec();
    let clean = run_experiment(&spec, &tiny_opts()).expect("clean sweep");
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 1,
            mpl: 25,
            rep: 0,
            kind: ChaosKind::Panic,
        }),
        ..SweepControl::default()
    };
    let result = run_experiment_supervised(&spec, &tiny_opts(), &ctl).expect("sweep survives");
    assert!(!result.is_clean());
    assert_eq!(result.failures.len(), 1);
    let f = &result.failures[0];
    assert_eq!(f.kind, FailureKind::Panic);
    assert_eq!(
        (f.series.as_str(), f.mpl, f.rep),
        ("immediate-restart", 25, 0)
    );
    assert!(f.detail.contains("injected panic"), "detail: {}", f.detail);
    assert_eq!(result.holes(), vec![("immediate-restart".to_string(), 25)]);
    // Every other point is bit-identical to the clean sweep.
    assert_eq!(result.points.len(), clean.points.len() - 1);
    for p in &result.points {
        let c = clean
            .points
            .iter()
            .find(|c| c.series == p.series && c.mpl == p.mpl)
            .expect("clean sweep has the point");
        assert_eq!(p.report, c.report, "{}@{} perturbed", p.series, p.mpl);
    }
}

#[test]
fn chaos_budget_exhaustion_is_a_typed_budget_hole() {
    let spec = tiny_spec();
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 0,
            mpl: 5,
            rep: 0,
            kind: ChaosKind::BudgetExhaust,
        }),
        ..SweepControl::default()
    };
    let result = run_experiment_supervised(&spec, &tiny_opts(), &ctl).expect("sweep survives");
    assert_eq!(result.failures.len(), 1);
    let f = &result.failures[0];
    assert_eq!(f.kind, FailureKind::Budget);
    assert_eq!((f.series.as_str(), f.mpl), ("blocking", 5));
    assert!(
        f.detail.contains("budget"),
        "detail should describe the exhausted budget: {}",
        f.detail
    );
    assert_eq!(result.points.len(), spec.num_runs() - 1);
}

#[test]
fn budget_hole_is_byte_identical_across_thread_counts() {
    let spec = tiny_spec();
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 2,
            mpl: 25,
            rep: 0,
            kind: ChaosKind::BudgetExhaust,
        }),
        ..SweepControl::default()
    };
    let sweep = |threads| {
        let opts = RunOptions {
            threads,
            ..tiny_opts()
        };
        run_experiment_supervised(&spec, &opts, &ctl).expect("sweep survives")
    };
    let (one, all_cores) = (sweep(1), sweep(0));
    assert_eq!(json::to_json(&one), json::to_json(&all_cores));
    assert_eq!(
        report::render_experiment(&one),
        report::render_experiment(&all_cores)
    );

    assert_eq!(one.failures.len(), 1);
    let f = &one.failures[0];
    assert_eq!(f.kind, FailureKind::Budget);
    assert_eq!((f.series.as_str(), f.mpl, f.rep), ("optimistic", 25, 0));
    // The detail is where the run stopped, in simulation terms only: the
    // first event past the cap and the simulated instant it fell at.
    let prefix = format!(
        "run budget exhausted (event ceiling) after {} events, sim time ",
        ChaosPoint::TINY_EVENT_BUDGET + 1
    );
    let sim_secs = f
        .detail
        .strip_prefix(&prefix)
        .and_then(|t| t.strip_suffix('s'))
        .and_then(|t| t.parse::<f64>().ok());
    assert!(sim_secs.is_some(), "detail: {}", f.detail);
    assert!(report::render_experiment(&one).contains(&format!("[HOLE] {f}\n")));
}
