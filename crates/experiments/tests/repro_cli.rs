//! `repro` at its command-line surface: `--help` and `-h` print the usage
//! and exit 0, and the usage lists no retry flag.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = repro(&["exp3", flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(usage.contains("--resume"), "{flag}: {usage}");
        assert!(usage.contains("-h, --help"), "{flag}: {usage}");
        assert!(
            !usage.contains("retr"),
            "{flag} lists a retry flag: {usage}"
        );
        assert!(out.stderr.is_empty(), "{flag} started a sweep");
    }
}

#[test]
fn unknown_flag_exits_two_and_points_at_help() {
    let out = repro(&["--retries", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --retries (see --help)"),
        "{stderr}"
    );
}
