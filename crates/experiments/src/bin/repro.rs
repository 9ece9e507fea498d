//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                    show the experiment catalog
//! repro <id|figN|all> [flags]   run experiments
//!
//! flags:
//!   --list          show the experiment catalog and exit
//!   --quick         smoke fidelity (short batches) instead of paper fidelity
//!   --audit         attach the online invariant auditor to every run; any
//!                   violation fails the command
//!   --seed <u64>    base seed (default 0x0C551985)
//!   --reps <n>      independent replications per point (default 1); means
//!                   and 90% CIs are then taken across replications, with
//!                   common random numbers pairing the algorithms
//!   --threads <n>   worker threads (default: all cores)
//!   --out <dir>     also write <dir>/<id>.json and <dir>/<id>.txt, and
//!                   journal completed runs to <dir>/<id>.manifest.jsonl
//!   --resume        skip runs already journaled in the checkpoint manifest
//!                   (requires --out); the final output is byte-identical
//!                   to an uninterrupted run. A final manifest line cut
//!                   short by a crash is discarded with a warning and its
//!                   run re-executed
//!   --retries <n>   attempt each grid point up to n times at full fidelity
//!                   with deterministic exponential backoff; a recovery is
//!                   journaled and does not fail the command's measurements
//!   --backoff-ms <ms>  base backoff before the first retry (default 50;
//!                   doubles per attempt, capped at 2000, plus jitter)
//!   --retry-quick   after full-fidelity attempts are exhausted, retry once
//!                   at quick fidelity so the hole carries a degraded
//!                   measurement (the failure stays on record and still
//!                   fails the command)
//!   --md <path>     write a combined markdown results appendix
//!   --chart         print an ASCII throughput chart per experiment
//! ```
//!
//! A failed run (panic, budget exhaustion, invalid configuration) never
//! aborts the sweep: it is reported as an explicit hole and the command
//! exits non-zero. SIGINT and SIGTERM both request a cooperative shutdown:
//! in-flight runs finish and are journaled, then the command exits 130
//! with a `--resume` hint — so a service manager's stop signal checkpoints
//! exactly like a ctrl-C.

use std::path::PathBuf;
use std::time::Instant;

use ccsim_experiments::{
    catalog, checks, json, md, report, run_experiment_supervised, write_atomic, ExperimentSpec,
    Fidelity, RetryPolicy, RunOptions, SweepControl,
};

/// Cooperative shutdown flag, set by SIGINT *and* SIGTERM and installed
/// via the raw C `signal` interface so no extra dependency is needed. The
/// handlers only flip an atomic; the supervisor notices between run
/// completions.
mod shutdown {
    use std::sync::atomic::AtomicBool;

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    pub fn install() {
        use std::sync::atomic::Ordering;
        extern "C" fn on_signal(_sig: i32) {
            INTERRUPTED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

struct Cli {
    targets: Vec<String>,
    opts: RunOptions,
    out: Option<PathBuf>,
    md_out: Option<PathBuf>,
    chart: bool,
    resume: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut targets = Vec::new();
    let mut opts = RunOptions::default();
    let mut out = None;
    let mut md_out = None;
    let mut chart = false;
    let mut resume = false;
    // Applied after the loop, so an explicit backoff (0 included) wins
    // over the --retries default whatever the flag order.
    let mut backoff_ms = None;
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.fidelity = Fidelity::Quick,
            "--audit" => opts.audit = true,
            "--chart" => chart = true,
            "--resume" => resume = true,
            "--retry-quick" => opts.retry.degrade_to_quick = true,
            "--retries" => {
                let v = args.next().ok_or("--retries needs a value")?;
                let n: u32 = v
                    .parse()
                    .map_err(|e| format!("bad retry count {v:?}: {e}"))?;
                if n == 0 {
                    return Err("--retries must be at least 1".to_string());
                }
                opts.retry = RetryPolicy {
                    degrade_to_quick: opts.retry.degrade_to_quick,
                    ..RetryPolicy::retries(n)
                };
            }
            "--backoff-ms" => {
                let v = args.next().ok_or("--backoff-ms needs a value")?;
                backoff_ms = Some(v.parse().map_err(|e| format!("bad backoff {v:?}: {e}"))?);
            }
            "--list" => targets.push("list".to_string()),
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.base_seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v
                    .parse()
                    .map_err(|e| format!("bad thread count {v:?}: {e}"))?;
            }
            "--reps" => {
                let v = args.next().ok_or("--reps needs a value")?;
                opts.replications = v
                    .parse()
                    .map_err(|e| format!("bad replication count {v:?}: {e}"))?;
                if opts.replications == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
            }
            "--out" => {
                let v = args.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--md" => {
                let v = args.next().ok_or("--md needs a file path")?;
                md_out = Some(PathBuf::from(v));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            target => targets.push(target.to_string()),
        }
    }
    if let Some(ms) = backoff_ms {
        opts.retry.base_backoff_ms = ms;
    }
    if resume && out.is_none() {
        return Err("--resume needs --out <dir> (the manifest lives there)".to_string());
    }
    if targets.is_empty() {
        targets.push("list".to_string());
    }
    Ok(Cli {
        targets,
        opts,
        out,
        md_out,
        chart,
        resume,
    })
}

/// Resolve run targets to catalog entries: exact id, figure name, or a
/// shared id prefix (e.g. `exp1` matching `exp1-inf` and `exp1-1cpu2dk`).
/// `None` means a target asked for the catalog listing instead.
fn resolve_specs(targets: &[String]) -> Result<Option<Vec<ExperimentSpec>>, String> {
    let mut specs = Vec::new();
    for t in targets {
        match t.as_str() {
            "list" => return Ok(None),
            "all" => specs = catalog::all(),
            other => {
                let found = catalog::by_id(other).or_else(|| catalog::by_figure(other));
                match found {
                    Some(s) => specs.push(s),
                    None => {
                        let group = catalog::by_id_prefix(other);
                        if group.is_empty() {
                            return Err(format!(
                                "no experiment or figure matches {other:?} (try `repro list`)"
                            ));
                        }
                        specs.extend(group);
                    }
                }
            }
        }
    }
    specs.dedup_by_key(|s| s.id);
    Ok(Some(specs))
}

fn list_catalog() {
    println!("{:<20} {:<28} {:>5}  title", "id", "figures", "runs");
    for e in catalog::all() {
        let figures: Vec<&str> = e.views.iter().map(|v| v.figure).collect();
        println!(
            "{:<20} {:<28} {:>5}  {}",
            e.id,
            figures.join(", "),
            e.num_runs(),
            e.title
        );
    }
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let specs = match resolve_specs(&cli.targets) {
        Ok(Some(specs)) => specs,
        Ok(None) => {
            list_catalog();
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    #[cfg(feature = "chaos")]
    let chaos = match ccsim_experiments::ChaosPoint::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: CCSIM_CHAOS: {e}");
            std::process::exit(2);
        }
    };

    shutdown::install();

    let mut failures = 0usize;
    let mut collected = Vec::new();
    for spec in &specs {
        let started = Instant::now();
        eprintln!(
            ">> {} ({} runs x {} rep(s), {:?} fidelity{}{})...",
            spec.id,
            spec.num_runs(),
            cli.opts.replications.max(1),
            cli.opts.fidelity,
            if cli.opts.audit { ", audited" } else { "" },
            if cli.resume { ", resuming" } else { "" }
        );
        let manifest_path = cli
            .out
            .as_ref()
            .map(|dir| dir.join(format!("{}.manifest.jsonl", spec.id)));
        let ctl = SweepControl {
            checkpoint: manifest_path.as_deref(),
            resume: cli.resume,
            interrupt: Some(&shutdown::INTERRUPTED),
            stop_after: None,
            progress: None,
            #[cfg(feature = "chaos")]
            chaos,
        };
        let result = match run_experiment_supervised(spec, &cli.opts, &ctl) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", spec.id);
                std::process::exit(1);
            }
        };
        let elapsed = started.elapsed();
        for w in &result.warnings {
            eprintln!("warning: {}: {w}", spec.id);
        }

        if result.interrupted {
            // Partial results are not written (a stale complete .json must
            // not be overwritten by a truncated one); the manifest already
            // holds every completed run.
            eprintln!(
                "interrupted: {} with {} point(s) collected",
                spec.id,
                result.points.len()
            );
            match &manifest_path {
                Some(m) => eprintln!(
                    "hint: completed runs are journaled in {}; re-run with --resume to continue",
                    m.display()
                ),
                None => eprintln!(
                    "hint: run with --out <dir> to checkpoint progress so --resume can continue"
                ),
            }
            std::process::exit(130);
        }

        let text = report::render_experiment(&result);
        println!("{text}");
        if cli.chart {
            println!("{}", report::ascii_chart(&result, 3));
        }
        if cli.opts.audit {
            if result.audit_failures.is_empty() {
                println!("Invariant audit: clean across all runs.");
            } else {
                failures += result.audit_failures.len();
                println!(
                    "Invariant audit: {} violation(s):",
                    result.audit_failures.len()
                );
                for v in &result.audit_failures {
                    println!("  [FAIL] {v}");
                }
            }
        }
        if !result.failures.is_empty() {
            failures += result.failures.len();
            println!(
                "Run failures ({} hole(s) in the grid):",
                result.failures.len()
            );
            for f in &result.failures {
                println!("  [HOLE] {f}");
            }
        }
        println!("Shape checks vs. the paper:");
        let outcomes = checks::evaluate(&result);
        for c in &outcomes {
            let mark = if c.passed { "PASS" } else { "FAIL" };
            if !c.passed {
                failures += 1;
            }
            println!("  [{mark}] {} — {}", c.description, c.detail);
        }
        println!("  ({:.1}s wall clock)\n", elapsed.as_secs_f64());

        if let Some(dir) = &cli.out {
            let write =
                |name: String, contents: &str| write_atomic(&dir.join(name), contents.as_bytes());
            if let Err(e) = write(format!("{}.json", spec.id), &json::to_json(&result))
                .and_then(|()| write(format!("{}.txt", spec.id), &text))
            {
                eprintln!("error: writing outputs for {}: {e}", spec.id);
                std::process::exit(1);
            }
        }
        collected.push((result, outcomes));
    }
    if let Some(path) = &cli.md_out {
        let doc = md::report_to_markdown(&collected);
        if let Err(e) = write_atomic(path, doc.as_bytes()) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if failures > 0 {
        eprintln!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_to_listing() {
        let cli = parse(&[]).expect("parses");
        assert_eq!(cli.targets, vec!["list"]);
        assert!(!cli.opts.audit);
        assert!(!cli.resume);
        assert_eq!(cli.opts.retry, RetryPolicy::none());
        assert!(resolve_specs(&cli.targets).expect("resolves").is_none());
    }

    #[test]
    fn flags_parse() {
        let cli = parse(&[
            "exp3",
            "--quick",
            "--audit",
            "--seed",
            "9",
            "--reps",
            "3",
            "--threads",
            "2",
            "--retry-quick",
            "--out",
            "results",
            "--resume",
        ])
        .expect("parses");
        assert_eq!(cli.targets, vec!["exp3"]);
        assert_eq!(cli.opts.fidelity, Fidelity::Quick);
        assert!(cli.opts.audit);
        assert_eq!(cli.opts.base_seed, 9);
        assert_eq!(cli.opts.replications, 3);
        assert_eq!(cli.opts.threads, 2);
        assert!(cli.opts.retry.degrade_to_quick);
        assert!(cli.resume);
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("results")));
    }

    #[test]
    fn retry_flags_compose_in_any_order() {
        let cli = parse(&["exp3", "--retries", "3"]).expect("parses");
        assert_eq!(cli.opts.retry.max_attempts, 3);
        assert_eq!(cli.opts.retry.base_backoff_ms, 50);
        assert_eq!(cli.opts.retry.max_backoff_ms, 2_000);
        assert!(!cli.opts.retry.degrade_to_quick);
        // Explicit backoff survives regardless of flag order.
        let a = parse(&["exp3", "--backoff-ms", "10", "--retries", "3"]).expect("parses");
        let b = parse(&["exp3", "--retries", "3", "--backoff-ms", "10"]).expect("parses");
        assert_eq!(a.opts.retry, b.opts.retry);
        assert_eq!(a.opts.retry.base_backoff_ms, 10);
        // ...including an explicit zero, which is not "unset".
        let a = parse(&["exp3", "--backoff-ms", "0", "--retries", "3"]).expect("parses");
        let b = parse(&["exp3", "--retries", "3", "--backoff-ms", "0"]).expect("parses");
        assert_eq!(a.opts.retry, b.opts.retry);
        assert_eq!(a.opts.retry.base_backoff_ms, 0);
        // --retry-quick composes with full-fidelity retries.
        let c = parse(&["exp3", "--retry-quick", "--retries", "2"]).expect("parses");
        assert_eq!(c.opts.retry.max_attempts, 2);
        assert!(c.opts.retry.degrade_to_quick);
        assert!(parse(&["exp3", "--retries", "0"]).is_err());
        assert!(parse(&["exp3", "--backoff-ms", "x"]).is_err());
    }

    #[test]
    fn list_flag_lists() {
        let cli = parse(&["--list"]).expect("parses");
        assert!(resolve_specs(&cli.targets).expect("resolves").is_none());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err(), "missing value");
        assert!(parse(&["--reps", "0"]).is_err(), "reps must be positive");
    }

    #[test]
    fn resume_requires_out() {
        assert!(parse(&["exp3", "--resume"]).is_err());
        assert!(parse(&["exp3", "--resume", "--out", "r"]).is_ok());
    }

    #[test]
    fn exact_id_and_figure_resolve() {
        let specs = resolve_specs(&["exp3".to_string()])
            .expect("resolves")
            .expect("runs");
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].id, "exp3");
        let by_fig =
            resolve_specs(&[specs[0].views[0].figure.replace("Figure ", "fig")]).expect("resolves");
        assert!(by_fig.is_some());
    }

    #[test]
    fn id_prefix_matches_a_group() {
        let specs = resolve_specs(&["exp1".to_string()])
            .expect("resolves")
            .expect("runs");
        assert!(
            specs.len() >= 2,
            "exp1 should expand to the infinite- and limited-resource variants"
        );
        assert!(specs.iter().all(|s| s.id.starts_with("exp1")));
    }

    #[test]
    fn unknown_target_is_an_error() {
        assert!(resolve_specs(&["nope".to_string()]).is_err());
    }

    #[test]
    fn duplicate_targets_dedupe() {
        let specs = resolve_specs(&["exp3".to_string(), "exp3".to_string()])
            .expect("resolves")
            .expect("runs");
        assert_eq!(specs.len(), 1);
    }
}
