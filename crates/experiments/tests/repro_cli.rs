//! `repro` at its command-line surface: `--help` and `-h` print the usage
//! and exit 0, the usage lists no retry or resume flag, and those retired
//! flags are rejected like any other unknown flag.

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
        assert!(usage.contains("--out <dir>"), "{flag}: {usage}");
        assert!(usage.contains("-h, --help"), "{flag}: {usage}");
        for retired in ["retr", "resum"] {
            assert!(!usage.contains(retired), "{flag} lists {retired}: {usage}");
        }
        assert!(out.stderr.is_empty(), "{flag} started a sweep");
    }
}

#[test]
fn unknown_flag_exits_two_and_points_at_help() {
    for (args, flag) in [
        (&["--retries", "3"][..], "--retries"),
        (&["exp3", "--quick", "--resume"], "--resume"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} (see --help)")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started a sweep");
    }
}
