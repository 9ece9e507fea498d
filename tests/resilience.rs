//! End-to-end resilience guarantees of the sweep supervisor:
//!
//! * an injected worker panic or budget exhaustion becomes a typed hole in
//!   the result while the rest of the sweep completes untouched;
//! * the one-shot quick retry fills the hole and keeps the failure on
//!   record;
//! * a checkpointed sweep interrupted after K completed runs resumes to a
//!   byte-identical final JSON, for K at the start, middle, and end of the
//!   grid — and likewise after a chaos-injected failure;
//! * a manifest written by a different sweep, or holding an entry outside
//!   the sweep's grid, is rejected, not silently merged.
//!
//! Fault injection comes from the `chaos` feature of `ccsim-experiments`
//! (enabled for this test target in the workspace `Cargo.toml`).

use std::path::PathBuf;

use ccsim_experiments::{
    catalog, json, run_experiment, run_experiment_supervised, ChaosKind, ChaosPoint,
    ExperimentSpec, FailureKind, Fidelity, ManifestError, RetryOutcome, RetryPolicy, RunOptions,
    SweepControl, SweepError,
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
        retry: RetryPolicy::none(),
    }
}

/// A per-test scratch file under the system temp dir; removed on drop so
/// reruns start fresh even after a failed assertion.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ccsim-resilience-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
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
            fail_attempts: 1,
        }),
        ..SweepControl::default()
    };
    let result = run_experiment_supervised(&spec, &tiny_opts(), &ctl).expect("sweep survives");
    assert!(!result.is_clean());
    assert!(!result.interrupted);
    assert_eq!(result.failures.len(), 1);
    let f = &result.failures[0];
    assert_eq!(f.kind, FailureKind::Panic);
    assert_eq!(
        (f.series.as_str(), f.mpl, f.rep),
        ("immediate-restart", 25, 0)
    );
    assert!(f.detail.contains("injected panic"), "detail: {}", f.detail);
    assert_eq!(f.retry, RetryOutcome::NotAttempted);
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
            fail_attempts: 1,
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
fn retry_quick_fills_the_hole_and_keeps_the_failure_on_record() {
    let spec = tiny_spec();
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 2,
            mpl: 5,
            rep: 0,
            kind: ChaosKind::Panic,
            fail_attempts: 1,
        }),
        ..SweepControl::default()
    };
    let opts = RunOptions {
        retry: RetryPolicy::quick_once(),
        ..tiny_opts()
    };
    let result = run_experiment_supervised(&spec, &opts, &ctl).expect("sweep survives");
    // No hole: the grid is complete...
    assert_eq!(result.points.len(), spec.num_runs());
    assert!(result.holes().is_empty());
    // ...but the failure is still recorded, marked as retried.
    assert_eq!(result.failures.len(), 1);
    assert_eq!(
        result.failures[0].retry,
        RetryOutcome::Degraded { attempts: 2 }
    );
    assert!(!result.is_clean());
}

/// Interrupt a checkpointed sweep after `k` completed runs, resume it, and
/// require the final JSON to be byte-identical to an uninterrupted sweep.
fn assert_resume_identical(k: u64, scratch_name: &str) {
    let spec = tiny_spec();
    let opts = RunOptions {
        threads: 1, // deterministic completion order for the stop point
        ..tiny_opts()
    };
    let baseline = json::to_json(&run_experiment(&spec, &opts).expect("clean sweep"));

    let scratch = Scratch::new(scratch_name);
    let partial = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            stop_after: Some(k),
            ..SweepControl::default()
        },
    )
    .expect("interrupted sweep still returns");
    assert!(partial.interrupted);
    // The worker may already hold one dequeued job when the stop lands, so
    // up to k+1 runs can complete; the rest of the grid must be abandoned.
    assert!(
        (partial.points.len() as u64) <= k + 1,
        "stop after {k} let {} runs finish",
        partial.points.len()
    );
    if k + 1 < spec.num_runs() as u64 {
        assert!(
            (partial.points.len() as u64) < spec.num_runs() as u64,
            "stop after {k} should leave work undone"
        );
    }
    assert!(scratch.0.exists(), "manifest was never written");

    let resumed = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            resume: true,
            ..SweepControl::default()
        },
    )
    .expect("resumed sweep completes");
    assert!(resumed.is_clean());
    assert_eq!(
        json::to_json(&resumed),
        baseline,
        "resume after {k} runs diverged from the uninterrupted sweep"
    );
}

#[test]
fn resume_after_first_run_is_byte_identical() {
    assert_resume_identical(1, "resume-start.manifest.jsonl");
}

#[test]
fn resume_mid_grid_is_byte_identical() {
    assert_resume_identical(3, "resume-mid.manifest.jsonl");
}

#[test]
fn resume_before_last_run_is_byte_identical() {
    assert_resume_identical(5, "resume-end.manifest.jsonl");
}

#[test]
fn resume_after_chaos_panic_converges_on_the_clean_result() {
    let spec = tiny_spec();
    let opts = tiny_opts();
    let baseline = json::to_json(&run_experiment(&spec, &opts).expect("clean sweep"));

    let scratch = Scratch::new("resume-chaos.manifest.jsonl");
    let broken = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            chaos: Some(ChaosPoint {
                series_ix: 0,
                mpl: 25,
                rep: 0,
                kind: ChaosKind::Panic,
                fail_attempts: 1,
            }),
            ..SweepControl::default()
        },
    )
    .expect("sweep survives the panic");
    assert_eq!(broken.failures.len(), 1);
    assert_eq!(broken.points.len(), spec.num_runs() - 1);

    // Failed runs are never journaled, so resuming (with the fault gone,
    // as when CCSIM_CHAOS is unset on the retry) re-runs exactly the
    // failed point and lands on the clean result.
    let resumed = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            resume: true,
            ..SweepControl::default()
        },
    )
    .expect("resumed sweep completes");
    assert!(resumed.is_clean());
    assert_eq!(json::to_json(&resumed), baseline);
}

#[test]
fn foreign_manifest_is_rejected_on_resume() {
    let spec = tiny_spec();
    let scratch = Scratch::new("mismatch.manifest.jsonl");
    run_experiment_supervised(
        &spec,
        &tiny_opts(),
        &SweepControl {
            checkpoint: Some(&scratch.0),
            ..SweepControl::default()
        },
    )
    .expect("checkpointed sweep completes");

    let other_seed = RunOptions {
        base_seed: 43,
        ..tiny_opts()
    };
    let err = run_experiment_supervised(
        &spec,
        &other_seed,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            resume: true,
            ..SweepControl::default()
        },
    )
    .expect_err("a manifest from another sweep must not be merged");
    assert!(
        matches!(err, SweepError::Manifest(_)),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("seed") || err.to_string().contains("manifest"));
}

#[test]
fn out_of_grid_manifest_entry_is_rejected_on_resume() {
    // An entry that parses but names a series the sweep does not have is
    // corruption: resuming must refuse it with a typed error rather than
    // replay it into the result.
    let spec = tiny_spec();
    let scratch = Scratch::new("out-of-grid.manifest.jsonl");
    let ctl = |resume| SweepControl {
        checkpoint: Some(&scratch.0),
        resume,
        ..SweepControl::default()
    };
    run_experiment_supervised(&spec, &tiny_opts(), &ctl(false))
        .expect("checkpointed sweep completes");
    let text = std::fs::read_to_string(&scratch.0).expect("read manifest");
    let doctored = text.replacen("{\"series\":0,", "{\"series\":7,", 1);
    assert_ne!(doctored, text, "the manifest journals series 0");
    std::fs::write(&scratch.0, doctored).expect("write manifest");

    let err = run_experiment_supervised(&spec, &tiny_opts(), &ctl(true))
        .expect_err("an out-of-grid entry must not be replayed");
    assert!(
        matches!(err, SweepError::Manifest(ManifestError::Corrupt(_))),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("outside the sweep grid"), "{err}");
}

#[test]
fn retry_recovers_on_the_attempt_after_chaos_stops_failing() {
    // Chaos fails the first 2 attempts; a 3-attempt policy recovers on
    // attempt 3 with the full-fidelity report — the result is bit-identical
    // to a clean sweep, with the failure (and its attempt count) on record.
    let spec = tiny_spec();
    let clean = run_experiment(&spec, &tiny_opts()).expect("clean sweep");
    let opts = RunOptions {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 1, // keep the test fast; determinism is tested elsewhere
            max_backoff_ms: 2,
            jitter_seed: 9,
            degrade_to_quick: false,
        },
        ..tiny_opts()
    };
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 1,
            mpl: 5,
            rep: 0,
            kind: ChaosKind::Panic,
            fail_attempts: 2,
        }),
        ..SweepControl::default()
    };
    let result = run_experiment_supervised(&spec, &opts, &ctl).expect("sweep survives");
    assert!(result.holes().is_empty());
    assert_eq!(result.failures.len(), 1);
    assert_eq!(
        result.failures[0].retry,
        RetryOutcome::Recovered { attempts: 3 }
    );
    assert_eq!(result.failures[0].kind, FailureKind::Panic);
    assert!(result.fully_measured(), "a recovered sweep is canonical");
    // Recovery is invisible in the measurements: every point matches the
    // clean sweep bit for bit.
    assert_eq!(result.points.len(), clean.points.len());
    for (p, c) in result.points.iter().zip(clean.points.iter()) {
        assert_eq!(
            p.report, c.report,
            "{}@{} perturbed by retry",
            p.series, p.mpl
        );
    }
}

#[test]
fn retry_attempts_are_capped_by_the_policy() {
    // Chaos outlasts the policy: 2 attempts allowed, first 5 fail.
    let spec = tiny_spec();
    let opts = RunOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            jitter_seed: 9,
            degrade_to_quick: false,
        },
        ..tiny_opts()
    };
    let ctl = SweepControl {
        chaos: Some(ChaosPoint {
            series_ix: 0,
            mpl: 25,
            rep: 0,
            kind: ChaosKind::Panic,
            fail_attempts: 5,
        }),
        ..SweepControl::default()
    };
    let result = run_experiment_supervised(&spec, &opts, &ctl).expect("sweep survives");
    assert_eq!(result.failures.len(), 1);
    assert_eq!(
        result.failures[0].retry,
        RetryOutcome::Failed { attempts: 2 }
    );
    assert_eq!(result.holes(), vec![("blocking".to_string(), 25)]);
    assert!(!result.fully_measured());
}

#[test]
fn recovered_points_are_journaled_so_resume_skips_them() {
    // A chaos-hit point that recovers on attempt 2 is checkpointed like a
    // clean run; resuming the manifest re-runs nothing and the output is
    // byte-identical to an uninterrupted, fault-free sweep.
    let spec = tiny_spec();
    let opts = RunOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_seed: 0,
            degrade_to_quick: false,
        },
        ..tiny_opts()
    };
    let clean = run_experiment(&spec, &tiny_opts()).expect("clean sweep");
    let baseline = json::to_json(&clean);
    let scratch = Scratch::new("recovered-journal.manifest.jsonl");
    let faulted = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            chaos: Some(ChaosPoint {
                series_ix: 2,
                mpl: 25,
                rep: 0,
                kind: ChaosKind::BudgetExhaust,
                fail_attempts: 1,
            }),
            ..SweepControl::default()
        },
    )
    .expect("sweep survives");
    assert_eq!(
        faulted.failures[0].retry,
        RetryOutcome::Recovered { attempts: 2 }
    );
    // The failure stays on record (so the JSON differs by exactly that),
    // but every measurement matches the fault-free sweep bit for bit.
    assert_eq!(faulted.points.len(), clean.points.len());
    for (p, c) in faulted.points.iter().zip(clean.points.iter()) {
        assert_eq!(p.report, c.report, "{}@{} perturbed", p.series, p.mpl);
    }

    let resumed = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            resume: true,
            ..SweepControl::default()
        },
    )
    .expect("resumed sweep completes");
    assert!(
        resumed.is_clean(),
        "every run was journaled; nothing re-ran"
    );
    assert_eq!(json::to_json(&resumed), baseline);
}

#[test]
fn truncated_manifest_tail_resumes_with_a_warning() {
    let spec = tiny_spec();
    let opts = RunOptions {
        threads: 1,
        ..tiny_opts()
    };
    let baseline = json::to_json(&run_experiment(&spec, &opts).expect("clean sweep"));
    let scratch = Scratch::new("torn-tail.manifest.jsonl");
    run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            ..SweepControl::default()
        },
    )
    .expect("checkpointed sweep completes");
    // Simulate a crash mid-append: cut the final journal line short.
    let text = std::fs::read_to_string(&scratch.0).expect("read manifest");
    let cut = text.trim_end().len() - 30;
    std::fs::write(&scratch.0, &text[..cut]).expect("truncate");

    let resumed = run_experiment_supervised(
        &spec,
        &opts,
        &SweepControl {
            checkpoint: Some(&scratch.0),
            resume: true,
            ..SweepControl::default()
        },
    )
    .expect("tolerant resume");
    assert_eq!(resumed.warnings.len(), 1, "{:?}", resumed.warnings);
    assert!(resumed.warnings[0].contains("truncated final manifest entry"));
    assert!(resumed.is_clean());
    assert_eq!(
        json::to_json(&resumed),
        baseline,
        "the re-run point must replace the torn record exactly"
    );
}
