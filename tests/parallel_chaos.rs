//! Fault injection into the sweep's worker threads: a run that panics on
//! one worker of a multi-threaded sweep must surface loudly, as a typed
//! per-point `Panic` hole that carries the panic message — never a silent
//! hang or a lost point — while the sibling workers finish the rest of
//! the grid with results byte-identical to a clean single-threaded sweep.
//!
//! Fault injection comes from the `chaos` feature of `ccsim-experiments`
//! (enabled for this test target in the workspace `Cargo.toml`).

use ccsim_experiments::{
    catalog, json, run_experiment, run_experiment_supervised, ChaosKind, ChaosPoint, FailureKind,
    Fidelity, RunOptions, SweepControl,
};

#[test]
fn injected_worker_panic_is_loud_and_leaves_a_typed_hole() {
    let mut spec = catalog::exp3();
    spec.mpls = vec![10, 25];
    let opts = |threads| RunOptions {
        fidelity: Fidelity::Quick,
        base_seed: 99,
        threads,
        replications: 1,
        audit: false,
    };

    // The reference: one thread, no chaos.
    let clean = run_experiment(&spec, &opts(1)).expect("sweep completes");
    assert!(clean.is_clean());
    assert_eq!(clean.points.len(), spec.num_runs());

    // Four worker threads; the run at (series 0, mpl 25) panics.
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 0,
            mpl: 25,
            rep: 0,
            kind: ChaosKind::Panic,
        }),
        ..SweepControl::default()
    };
    let holed = run_experiment_supervised(&spec, &opts(4), &ctl).expect("sweep survives");
    assert!(!holed.is_clean(), "chaos sweep reported itself clean");
    assert_eq!(holed.failures.len(), 1, "exactly one point should fail");
    let f = &holed.failures[0];
    assert_eq!(f.kind, FailureKind::Panic, "wrong failure kind: {f}");
    assert_eq!((f.series.as_str(), f.mpl, f.rep), ("blocking", 25, 0));
    assert!(
        f.detail.contains("injected panic"),
        "hole lost the panic message: {f}"
    );
    assert_eq!(holed.holes(), vec![("blocking".to_string(), 25)]);

    // The sibling workers' points are untouched by the panic.
    assert_eq!(holed.points.len(), clean.points.len() - 1);
    for p in &holed.points {
        let c = clean
            .points
            .iter()
            .find(|c| c.series == p.series && c.mpl == p.mpl)
            .expect("clean sweep has the point");
        assert_eq!(p.report, c.report, "{}@{} perturbed", p.series, p.mpl);
    }

    // Without the injection, the same four-thread sweep is clean again
    // and byte-identical to the single-threaded one.
    let again = run_experiment(&spec, &opts(4)).expect("sweep completes");
    assert!(again.is_clean(), "post-chaos sweep still failing");
    assert_eq!(json::to_json(&clean), json::to_json(&again));
}
