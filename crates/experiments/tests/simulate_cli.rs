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

/// `--check-serializable` judges each algorithm by its own guarantee:
/// mvcc-si's histories by snapshot isolation, which admits write skew, and
/// every other algorithm's by conflict serializability, which the unsafe
/// no-cc baseline fails at this point.
#[test]
fn check_serializable_uses_each_algorithm_s_own_oracle() {
    let point = [
        "--quick",
        "--mpl",
        "50",
        "--db",
        "200",
        "--check-serializable",
    ];
    let out = simulate(&[&["--algo", "mvcc-si"], &point[..]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("snapshot isolation  OK ("), "{stdout}");
    assert!(stdout.contains("write-skew pair(s)"), "{stdout}");
    let out = simulate(&[&["--algo", "no-cc"], &point[..]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("serializability  VIOLATED: "), "{stdout}");
}

/// Batch means define no interval from one batch and no lag-1
/// autocorrelation from fewer than three: those print `n/a`, not a zero
/// that reads as exact.
#[test]
fn undefined_batch_statistics_print_as_not_available() {
    let one = finished_run(&[]);
    assert!(one.contains(" ± n/a tps"), "{one}");
    assert!(one.contains("autocorrelation n/a"), "{one}");
    let two = finished_run(&["--batches", "2"]);
    assert!(!two.contains(" ± n/a tps"), "{two}");
    assert!(two.contains("autocorrelation n/a"), "{two}");
    let three = finished_run(&["--batches", "3"]);
    assert!(!three.contains("n/a"), "{three}");
    // Each replication's own interval too; the aggregate's interval, taken
    // across the replications' means, is defined.
    let reps = finished_run(&["--reps", "2"]);
    assert_eq!(
        reps.matches(" ± n/a tps (batch means)").count(),
        2,
        "{reps}"
    );
    let aggregate = reps
        .lines()
        .find(|l| l.contains("throughput  "))
        .unwrap_or_default();
    assert!(!aggregate.contains("n/a"), "{reps}");
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

/// A database past the 32-bit object-id domain is a configuration error:
/// exit 2 with `db_size` named, no panic and no report. The largest legal
/// database runs.
#[test]
fn database_past_the_object_id_domain_is_rejected() {
    let out = simulate(&["--quick", "--batches", "1", "--db", "4294967296"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("db_size"),
        "stderr does not name db_size:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed a report");
    let out = simulate(&["--quick", "--batches", "1", "--db", "4294967295"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}

/// Inputs whose terminal-sized arrays would not fit in memory are
/// configuration errors: exit 2 naming the footprint and its largest
/// structure, before anything is allocated, instead of an abort on a
/// failed allocation.
#[test]
fn oversized_footprints_are_rejected_before_allocation() {
    for (flags, structure) in [
        (
            &["--terminals", "100000000", "--mpl", "10"][..],
            "transaction records",
        ),
        (
            &["--max-size", "100000000", "--db", "100000000", "--mpl", "2"][..],
            "readset region",
        ),
        (
            &["--terminals", "4000000000", "--mpl", "1"][..],
            "transaction records",
        ),
    ] {
        let mut args = vec!["--algo", "blocking", "--quick"];
        args.extend_from_slice(flags);
        let out = simulate(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?} stderr:\n{stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("memory footprint")
                && stderr.contains(structure),
            "{flags:?} does not name the footprint and {structure}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?} printed a report");
    }
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
