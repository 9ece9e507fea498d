//! `simulate` at its command-line surface. Every run mode shares one stop
//! rule: a run cut off by its budget fails the command (exit 1, the ceiling
//! named on stderr) instead of printing a partial report as a finished one.
//! The `--profile` cases need the stage profiler compiled in:
//! `cargo test -p ccsim-experiments --features profile --test simulate_cli`.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("spawn simulate")
}

/// `--quick --max-events 500` plus `mode` must stop on the event ceiling.
fn assert_budget_stop(mode: &[&str]) {
    let out = simulate(&[&["--quick", "--max-events", "500"], mode].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{mode:?}: stderr:\n{stderr}");
    assert!(
        stderr.contains("event ceiling"),
        "{mode:?}: stderr does not name the event ceiling:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{mode:?}: a stopped run printed a report:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A short `--quick --batches 1` run in `mode` that finishes: exit 0.
/// Returns its stdout.
fn finished_run(mode: &[&str]) -> String {
    let out = simulate(&[&["--quick", "--batches", "1"], mode].concat());
    assert!(
        out.status.success(),
        "{mode:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn budget_stop_fails_a_plain_run() {
    assert_budget_stop(&[]);
}

#[test]
fn budget_stop_fails_a_perf_run() {
    assert_budget_stop(&["--perf"]);
}

#[cfg(feature = "profile")]
#[test]
fn budget_stop_fails_a_profile_run() {
    assert_budget_stop(&["--profile"]);
}

#[test]
fn budget_stop_fails_audited_and_checked_runs() {
    assert_budget_stop(&["--audit"]);
    assert_budget_stop(&["--check-serializable"]);
    assert_budget_stop(&["--audit", "--check-serializable"]);
}

#[test]
fn finished_runs_print_the_lines_their_mode_asks_for() {
    let plain = finished_run(&[]);
    assert!(plain.contains("throughput"), "{plain}");
    assert!(!plain.contains("engine perf"), "{plain}");
    let perf = finished_run(&["--perf"]);
    assert!(perf.contains("engine perf"), "{perf}");
    assert!(!perf.contains("stages sum to"), "{perf}");
    if cfg!(feature = "profile") {
        let profile = finished_run(&["--profile"]);
        assert!(profile.contains("engine perf"), "{profile}");
        assert!(profile.contains("stages sum to"), "{profile}");
    }
    // --audit and --check-serializable observe one and the same run.
    let both = finished_run(&["--audit", "--check-serializable"]);
    assert!(both.contains("invariant audit  clean"), "{both}");
    assert!(both.contains("serializability  OK"), "{both}");
}

/// Duration inputs that would wrap the simulated clock (or silently become
/// zero) are rejected up front: exit 2, the offending flag named, no
/// panic and no report.
#[test]
fn out_of_range_durations_are_rejected_by_flag() {
    let cases: [&[&str]; 9] = [
        &["--int-think", "1e300"],
        &["--ext-think", "1e300"],
        &["--ext-think", "nan"],
        &["--ext-think", "inf"],
        &["--ext-think", "-1"],
        &["--int-think", "-inf"],
        &["--batch-secs", "18446744073709551615"],
        // Fits the clock's microseconds, but over the duration bound.
        &["--batch-secs", "281474977"],
        &["--ext-think", "281474977"],
    ];
    for args in cases {
        let out = simulate(&[&["--quick", "--batches", "1"], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(args[0]),
            "{args:?}: stderr does not name the flag:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a report");
    }
}

/// A horizon over the duration bound is a configuration error too, even
/// when each batch is within it.
#[test]
fn horizon_over_the_duration_bound_is_rejected() {
    let out = simulate(&[
        "--batch-secs",
        "200000000",
        "--batches",
        "2",
        "--warmup",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("horizon"), "{stderr}");
}

/// `--help` and `-h` print the usage to stdout and exit 0; an unknown flag
/// still exits 2 and points at `--help`.
#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = simulate(&["--quick", flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(usage.contains("--max-events"), "{flag}: {usage}");
        assert!(usage.contains("-h, --help"), "{flag}: {usage}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
    let out = simulate(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --bogus (see --help)"),
        "{stderr}"
    );
}
