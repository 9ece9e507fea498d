//! `repro` — regenerate the paper's tables and figures. `repro --help`
//! prints the flags ([`USAGE`]).
//!
//! A failed run (panic, budget exhaustion, invalid configuration) never
//! aborts the sweep: it is reported as an explicit hole and the command
//! exits non-zero. Holes are never journaled, so after fixing the cause,
//! `--resume` re-runs exactly the holes. SIGINT and SIGTERM both request a
//! cooperative shutdown: in-flight runs finish and are journaled, then the
//! command exits 130 with a `--resume` hint — so a service manager's stop
//! signal checkpoints exactly like a ctrl-C.

use std::path::PathBuf;
use std::time::Instant;

use ccsim_experiments::{
    catalog, checks, json, md, report, run_experiment_supervised, write_atomic, ExperimentSpec,
    Fidelity, RunOptions, SweepControl,
};

/// What `--help` prints.
const USAGE: &str = "\
repro list                    show the experiment catalog
repro <id|figN|all> [flags]   run experiments

flags:
  --list          show the experiment catalog and exit
  --quick         smoke fidelity (short batches) instead of paper fidelity
  --audit         attach the online invariant auditor and the history
                  oracle to every run (snapshot isolation for mvcc-si,
                  conflict serializability otherwise); any violation
                  fails the command
  --seed <u64>    base seed (default 0x0C551985)
  --reps <n>      independent replications per point (default 1); means
                  and 90% CIs are then taken across replications, with
                  common random numbers pairing the algorithms
  --threads <n>   worker threads (default: all cores)
  --out <dir>     also write <dir>/<id>.json and <dir>/<id>.txt, and
                  journal completed runs to <dir>/<id>.manifest.jsonl
  --resume        skip runs already journaled in the checkpoint manifest
                  (requires --out); the final output is byte-identical
                  to an uninterrupted run. Holes are never journaled, so
                  a resume re-runs exactly them. A final manifest line
                  cut short by a crash is discarded with a warning and
                  its run re-executed
  --md <path>     write a combined markdown results appendix
  --chart         print an ASCII throughput chart per experiment
  -h, --help      print this help and exit
";

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

/// Parse the arguments after the program name. `Ok(None)` is a request
/// for [`USAGE`].
fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut targets = Vec::new();
    let mut opts = RunOptions::default();
    let mut out = None;
    let mut md_out = None;
    let mut chart = false;
    let mut resume = false;
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(None),
            "--quick" => opts.fidelity = Fidelity::Quick,
            "--audit" => opts.audit = true,
            "--chart" => chart = true,
            "--resume" => resume = true,
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
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag} (see --help)"))
            }
            target => targets.push(target.to_string()),
        }
    }
    if resume && out.is_none() {
        return Err("--resume needs --out <dir> (the manifest lives there)".to_string());
    }
    if targets.is_empty() {
        targets.push("list".to_string());
    }
    Ok(Some(Cli {
        targets,
        opts,
        out,
        md_out,
        chart,
        resume,
    }))
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
        Ok(Some(c)) => c,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
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
                println!("Invariant audit and history oracle: clean across all runs.");
            } else {
                failures += result.audit_failures.len();
                println!(
                    "Invariant audit and history oracle: {} violation(s):",
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
    use proptest::prelude::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(ToString::to_string)).map(|c| c.expect("not a --help request"))
    }

    #[test]
    fn defaults_to_listing() {
        let cli = parse(&[]).expect("parses");
        assert_eq!(cli.targets, vec!["list"]);
        assert!(!cli.opts.audit);
        assert!(!cli.resume);
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
        assert!(cli.resume);
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("results")));
    }

    #[test]
    fn help_flags_ask_for_usage_wherever_they_appear() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["exp3", "--quick", "--help"],
            &["-h", "--bogus"],
        ] {
            let parsed = parse_args(args.iter().map(ToString::to_string));
            assert!(matches!(parsed, Ok(None)), "{args:?}");
        }
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

    /// The flag names `parse_args` knows, values that parse, values that
    /// do not, and flags that were retired or never existed.
    const WORDS: &[&str] = &[
        "--list",
        "--quick",
        "--audit",
        "--seed",
        "--reps",
        "--threads",
        "--out",
        "--resume",
        "--md",
        "--chart",
        "--help",
        "-h",
        "--retries",
        "--bogus",
        "--",
        "-",
        "",
        "0",
        "1",
        "7",
        "-1",
        "x",
        "0x10",
        "1e3",
        "4294967296",
        "18446744073709551616",
        "exp3",
        "all",
        "list",
        "results",
        " 3",
        "é",
        "\u{0}",
    ];

    proptest! {
        /// Any argv over the real flag names and junk values parses, asks
        /// for help, or fails with an error that quotes the rejected flag
        /// or value. It never panics.
        #[test]
        fn parse_args_never_panics_and_names_what_it_rejects(
            ix in proptest::collection::vec(0..WORDS.len(), 0..8),
        ) {
            let argv: Vec<String> = ix.iter().map(|&i| WORDS[i].to_string()).collect();
            match parse_args(argv.clone()) {
                Ok(Some(cli)) => {
                    prop_assert!(!cli.targets.is_empty());
                    prop_assert!(!cli.resume || cli.out.is_some());
                    prop_assert!(cli.opts.replications >= 1);
                }
                Ok(None) => {
                    prop_assert!(argv.iter().any(|a| a == "--help" || a == "-h"));
                }
                Err(e) => {
                    let named = argv.iter().any(|a| {
                        (a.starts_with("--") && e.contains(a.as_str()))
                            || e.contains(&format!("{a:?}"))
                    });
                    prop_assert!(named, "{:?} names nothing in {:?}", e, argv);
                }
            }
        }
    }
}
