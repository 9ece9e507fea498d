//! `simulate` — run one configuration of the model and print the full
//! report (the exploratory companion to `repro`'s fixed figure catalog).
//!
//! `simulate --help` prints the flags ([`USAGE`]).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

use ccsim_core::{
    run, CcAlgorithm, HistoryRecorder, MetricsConfig, Params, PerfStats, Report, ResourceSpec,
    RunBudget, RunError, SimConfig, Simulator, STAGE_PROFILER_COMPILED,
};
use ccsim_des::{derive_seed, SimDuration, MICROS_PER_SEC};
use ccsim_experiments::{aggregate_reports, check_history, write_atomic};
use ccsim_stats::BatchMeans;

/// What `--help` prints.
const USAGE: &str = "\
simulate --algo blocking --mpl 25 --cpus 1 --disks 2
simulate --algo optimistic --mpl 200 --infinite --db 1000 --check-serializable

flags (defaults = the paper's Table 2 baseline):
  --algo <name>           blocking | immediate-restart | optimistic |
                          wait-die | wound-wait | no-waiting |
                          static-locking | basic-to | mvcc-si |
                          silo-occ | tictoc | no-cc
  --mpl <n>               multiprogramming level
  --db <n>                database size in pages, at most 2^32 - 1
                          (4294967295: object ids are stored in 32 bits)
  --terminals <n>         number of terminals
  --write-prob <p>        probability a read is also written
  --min-size/--max-size   readset size range
  --cpus <n> --disks <n>  physical resources
  --infinite              infinite resources
  --ext-think <secs> --int-think <secs>
  --seed <u64>            master seed
  --reps <n>              independent replications (default 1); prints
                          per-replication throughput and the Student-t
                          interval across replication means
  --batches <n> --batch-secs <n> --warmup <n>
  --quick                 smoke fidelity (short batches) instead of the
                          paper's batch means
  --max-events <n>        run-budget event ceiling (0 = unlimited;
                          default 2000000000); an exhausted budget is a
                          structured error, not a hang
  --out <path>            also write the report to <path> (atomic
                          temp-then-rename write)
  --check-serializable    record the history and judge it by the
                          algorithm's guarantee: snapshot isolation for
                          mvcc-si, conflict serializability for every
                          other algorithm (no-cc is expected to fail)
  --perf                  also print engine throughput (events/sec) and
                          peak calendar / lock-table occupancy
  --profile               also print the per-stage cycle breakdown from
                          the in-engine stage profiler (requires a build
                          with `--features profile`; implies the --perf
                          lines)
  --audit                 attach the online invariant auditor; any
                          violation is printed with its event context
                          and fails the command
  -h, --help              print this help and exit
";

fn algo_by_name(name: &str) -> Option<CcAlgorithm> {
    CcAlgorithm::ALL
        .into_iter()
        .chain([CcAlgorithm::NoCc])
        .find(|a| a.label() == name)
}

struct Cli {
    cfg: SimConfig,
    check_serializable: bool,
    audit: bool,
    perf: bool,
    profile: bool,
    reps: u32,
    out: Option<PathBuf>,
}

/// Parse the arguments after the program name. `Ok(None)` is a request
/// for [`USAGE`]. Every error names the flag it rejects or, for an
/// inconsistent configuration, the parameter.
fn parse(raw: impl IntoIterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut algo = CcAlgorithm::Blocking;
    let mut params = Params::paper_baseline();
    let mut metrics = MetricsConfig::paper();
    let mut budget = RunBudget::default();
    let mut seed = 0xCC85_u64;
    let mut reps = 1_u32;
    let mut check_serializable = false;
    let mut audit = false;
    let mut perf = false;
    let mut profile = false;
    let mut out = None;
    let mut cpus: Option<u32> = None;
    let mut disks: Option<u32> = None;
    let mut infinite = false;

    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "-h" | "--help" => return Ok(None),
            "--algo" => {
                let v = value(&mut args, flag)?;
                algo = algo_by_name(&v).ok_or(format!("{flag}: unknown algorithm {v:?}"))?;
            }
            "--mpl" => params.mpl = num(&mut args, flag)?,
            "--db" => params.db_size = num(&mut args, flag)?,
            "--terminals" => params.num_terms = num(&mut args, flag)?,
            "--write-prob" => params.write_prob = num(&mut args, flag)?,
            "--min-size" => params.min_size = num(&mut args, flag)?,
            "--max-size" => params.max_size = num(&mut args, flag)?,
            "--cpus" => cpus = Some(num(&mut args, flag)?),
            "--disks" => disks = Some(num(&mut args, flag)?),
            "--infinite" => infinite = true,
            "--ext-think" => params.ext_think_time = parse_secs(flag, &value(&mut args, flag)?)?,
            "--int-think" => params.int_think_time = parse_secs(flag, &value(&mut args, flag)?)?,
            "--seed" => seed = num(&mut args, flag)?,
            "--reps" => {
                reps = num(&mut args, flag)?;
                if reps == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
            }
            "--batches" => metrics.batches = num(&mut args, flag)?,
            "--warmup" => metrics.warmup_batches = num(&mut args, flag)?,
            "--batch-secs" => {
                let v = value(&mut args, flag)?;
                let secs: u64 = parse_num(flag, &v)?;
                metrics.batch_time = secs
                    .checked_mul(MICROS_PER_SEC)
                    .map(SimDuration::from_micros)
                    .filter(|&d| d <= Params::MAX_DURATION)
                    .ok_or_else(|| out_of_range(flag, &v))?;
            }
            "--max-events" => {
                let cap: u64 = num(&mut args, flag)?;
                budget.max_events = (cap > 0).then_some(cap);
            }
            "--out" => out = Some(PathBuf::from(value(&mut args, flag)?)),
            "--check-serializable" => check_serializable = true,
            "--perf" => perf = true,
            "--profile" => profile = true,
            "--audit" => audit = true,
            "--quick" => metrics = MetricsConfig::quick(),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag} (see --help)"))
            }
            other => return Err(format!("unexpected argument {other:?} (see --help)")),
        }
    }
    if infinite {
        params.resources = ResourceSpec::Infinite;
    } else if cpus.is_some() || disks.is_some() {
        params.resources = ResourceSpec::Physical {
            num_cpus: cpus.unwrap_or(1),
            num_disks: disks.unwrap_or(2),
        };
    }
    let cfg = SimConfig::new(algo)
        .with_params(params)
        .with_metrics(metrics)
        .with_budget(budget)
        .with_seed(seed);
    cfg.validate().map_err(|e| e.to_string())?;
    if check_serializable && reps > 1 {
        return Err("--check-serializable works on a single run; use --reps 1".to_string());
    }
    if audit && reps > 1 {
        return Err("--audit works on a single run; use --reps 1".to_string());
    }
    if (perf || profile) && (audit || check_serializable || reps > 1) {
        let flag = if profile { "--profile" } else { "--perf" };
        return Err(format!(
            "{flag} measures the bare engine; drop --audit/--check-serializable/--reps"
        ));
    }
    if profile && !STAGE_PROFILER_COMPILED {
        return Err(
            "--profile needs the stage profiler, which is not compiled into this binary; \
             rebuild with `cargo run -p ccsim-experiments --features profile --bin simulate`"
                .to_string(),
        );
    }
    Ok(Some(Cli {
        cfg,
        check_serializable,
        audit,
        perf,
        profile,
        reps,
        out,
    }))
}

/// The value that follows `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or(format!("{flag} needs a value"))
}

/// The value that follows `flag`, parsed as a number.
fn num<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    parse_num(flag, &value(args, flag)?)
}

/// Parse `v`, the value of `flag`, as a duration in seconds: finite, not
/// negative, and within [`Params::MAX_DURATION`] (so the run's clock
/// cannot wrap).
fn parse_secs(flag: &str, v: &str) -> Result<SimDuration, String> {
    let secs: f64 = parse_num(flag, v)?;
    if !(0.0..=Params::MAX_DURATION.as_secs_f64()).contains(&secs) {
        return Err(out_of_range(flag, v));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

fn out_of_range(flag: &str, v: &str) -> String {
    format!(
        "{flag} takes seconds from 0 to {}, not {v:?}",
        Params::MAX_DURATION.as_secs_f64()
    )
}

/// Parse `v`, the value of `flag`, as a number.
fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| format!("{flag}: bad value {v:?}: {e}"))
}

/// `v` to three places, or `n/a` when too few batches define it: batch
/// means report a zero interval from one batch and a zero lag-1
/// autocorrelation from fewer than three, which would read as exact.
fn or_na(defined: bool, v: f64) -> String {
    if defined {
        format!("{v:.3}")
    } else {
        "n/a".to_string()
    }
}

fn render_report(cfg: &SimConfig, r: &Report) -> String {
    let mut s = String::with_capacity(1024);
    let p = &cfg.params;
    let _ = writeln!(s, "configuration");
    let _ = writeln!(s, "  algorithm        {}", cfg.algorithm.label());
    let _ = writeln!(
        s,
        "  database         {} pages, readset U[{}, {}], write_prob {}",
        p.db_size, p.min_size, p.max_size, p.write_prob
    );
    match p.resources {
        ResourceSpec::Infinite => {
            let _ = writeln!(s, "  resources        infinite");
        }
        ResourceSpec::Physical {
            num_cpus,
            num_disks,
        } => {
            let _ = writeln!(
                s,
                "  resources        {num_cpus} CPU(s), {num_disks} disk(s)"
            );
        }
    }
    let _ = writeln!(
        s,
        "  population       {} terminals, mpl {}, think {:.1}s ext / {:.1}s int",
        p.num_terms,
        p.mpl,
        p.ext_think_time.as_secs_f64(),
        p.int_think_time.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "  measurement      {} batches x {:.0}s after {} warmup, 90% CIs",
        cfg.metrics.batches,
        cfg.metrics.batch_time.as_secs_f64(),
        cfg.metrics.warmup_batches,
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "results");
    let _ = writeln!(
        s,
        "  throughput       {:.3} ± {} tps",
        r.throughput.mean,
        or_na(r.throughput_per_batch.len() >= 2, r.throughput.half_width)
    );
    let _ = writeln!(
        s,
        "  response time    mean {:.2}s  sd {:.2}s  p50 {:.2}s  p95 {:.2}s  p99 {:.2}s  max {:.2}s",
        r.response_time_mean,
        r.response_time_std,
        r.response_time_p50,
        r.response_time_p95,
        r.response_time_p99,
        r.response_time_max
    );
    let _ = writeln!(
        s,
        "  conflicts        {:.3} blocks/commit, {:.3} restarts/commit ({} deadlocks)",
        r.block_ratio, r.restart_ratio, r.deadlocks
    );
    let _ = writeln!(
        s,
        "  disk utilization {:.1}% total / {:.1}% useful",
        100.0 * r.disk_util_total.mean,
        100.0 * r.disk_util_useful.mean
    );
    let _ = writeln!(
        s,
        "  cpu utilization  {:.1}% total / {:.1}% useful",
        100.0 * r.cpu_util_total.mean,
        100.0 * r.cpu_util_useful.mean
    );
    let _ = writeln!(
        s,
        "  population       avg {:.1} active of mpl {}; {} commits observed",
        r.avg_active, p.mpl, r.commits
    );
    // An aggregate's lag-1 is the mean of its replications', each defined
    // by that run's own batches.
    let _ = writeln!(
        s,
        "  diagnostics      batch lag-1 autocorrelation {}",
        or_na(cfg.metrics.batches >= 3, r.throughput_lag1)
    );
    s
}

/// Append the `--perf` engine-counter lines to a rendered report.
fn append_perf(text: &mut String, perf: &PerfStats) {
    let _ = writeln!(
        text,
        "  engine perf      {} events in {:.3}s wall = {:.0} events/sec",
        perf.events,
        perf.wall.as_secs_f64(),
        perf.events_per_sec()
    );
    let _ = writeln!(
        text,
        "  peak occupancy   {} calendar events, {} locks in table",
        perf.peak_calendar, perf.peak_lock_table
    );
    let cs = perf.calendar;
    let _ = writeln!(
        text,
        "  calendar ops     {} schedules, {} pops, {} cancels",
        cs.schedules, cs.pops, cs.cancels
    );
    let _ = writeln!(
        text,
        "  near-lane split  {} lane / {} heap schedules, {} lane / {} heap pops",
        cs.lane_schedules, cs.heap_schedules, cs.lane_pops, cs.heap_pops
    );
    let _ = writeln!(
        text,
        "  idle starts      {} cpu, {} disk (started at submit, never queued)",
        perf.elided_cpu_hops, perf.elided_disk_hops
    );
}

/// Report a failed run and exit: exit code 2 for configuration errors
/// (caller mistake), 1 for budget exhaustion (the run itself failed).
fn exit_run_error(e: &RunError) -> ! {
    eprintln!("error: {e}");
    match e {
        RunError::InvalidConfig(_) => std::process::exit(2),
        RunError::BudgetExhausted { .. } => {
            eprintln!(
                "hint: raise the ceiling with --max-events <n> (0 = unlimited) \
                 or shorten the run (--quick, --batches)"
            );
            std::process::exit(1);
        }
    }
}

fn emit(cli: &Cli, text: &str) {
    print!("{text}");
    if let Some(path) = &cli.out {
        if let Err(e) = write_atomic(path, text.as_bytes()) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let cli = match parse(std::env::args().skip(1)) {
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
    if cli.reps > 1 {
        // Replication r's seeds derive from the master seed and r alone, so
        // the sequence is reproducible and extending --reps only appends
        // runs. The workload/control split matches the experiment runner's.
        let replicates: Vec<Report> = (0..cli.reps)
            .map(|r| {
                let cfg = cli
                    .cfg
                    .clone()
                    .with_seed(derive_seed(cli.cfg.seed, &[2, u64::from(r)]))
                    .with_workload_seed(derive_seed(cli.cfg.seed, &[1, u64::from(r)]));
                match run(cfg) {
                    Ok(out) => out.report,
                    Err(e) => {
                        eprintln!("replication {r} failed:");
                        exit_run_error(&e);
                    }
                }
            })
            .collect();
        let agg = aggregate_reports(&replicates).expect("at least one replication ran");
        let mut text = render_report(&cli.cfg, &agg);
        let _ = writeln!(text);
        let _ = writeln!(text, "replications");
        let mut est = BatchMeans::new();
        for (i, r) in replicates.iter().enumerate() {
            let _ = writeln!(
                text,
                "  rep {:<3} throughput {:.3} ± {} tps (batch means)",
                i,
                r.throughput.mean,
                or_na(r.throughput_per_batch.len() >= 2, r.throughput.half_width)
            );
            est.push(r.throughput.mean);
        }
        let e = est.estimate();
        let _ = writeln!(
            text,
            "  across {} replications: {:.3} ± {:.3} tps (Student-t over replication means)",
            cli.reps, e.mean, e.half_width
        );
        emit(&cli, &text);
    } else {
        // One run path for every single-run mode, so a budget stop fails
        // them all alike and --audit and --check-serializable observe the
        // same run. The run always gathers the engine counters (and, in a
        // `profile` build, the per-stage cycles); they are printed only
        // when asked for.
        let mut sim = match Simulator::new(cli.cfg.clone()) {
            Ok(s) => s,
            Err(e) => exit_run_error(&e.into()),
        };
        let recorder = cli.check_serializable.then(|| {
            let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
            sim.add_sink(Box::new(Rc::clone(&recorder)));
            recorder
        });
        let auditor = cli.audit.then(|| ccsim_audit::attach(&mut sim));
        let out = match sim.run_collecting().finished() {
            Ok(o) => o,
            Err(e) => exit_run_error(&e),
        };
        let mut text = render_report(&cli.cfg, &out.report);
        let mut failed = false;
        if let Some(recorder) = recorder {
            match check_history(cli.cfg.algorithm, recorder.borrow().history()) {
                (guarantee, Ok(summary)) => {
                    let _ = writeln!(text, "  {guarantee}  OK ({summary})");
                }
                (guarantee, Err(violation)) => {
                    let _ = writeln!(text, "  {guarantee}  VIOLATED: {violation}");
                    failed = true;
                }
            }
        }
        if let Some(auditor) = auditor {
            let audit = auditor.borrow().report();
            if audit.is_clean() {
                let _ = writeln!(
                    text,
                    "  invariant audit  clean ({} events checked)",
                    audit.events_seen
                );
            } else {
                let _ = writeln!(text);
                let _ = writeln!(text, "{}", audit.render());
                failed = true;
            }
        }
        if cli.perf || cli.profile {
            append_perf(&mut text, &out.perf);
        }
        if cli.profile {
            let _ = writeln!(text);
            match &out.stages {
                Some(p) => text.push_str(&p.render(out.perf.wall)),
                None => {
                    let _ = writeln!(text, "  stage profile    unavailable (no stages recorded)");
                }
            }
        }
        emit(&cli, &text);
        if failed {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rejection(argv: &[&str]) -> String {
        match parse(argv.iter().map(ToString::to_string)) {
            Err(e) => e,
            Ok(_) => panic!("{argv:?} parsed"),
        }
    }

    #[test]
    fn bad_values_name_their_flag() {
        assert!(rejection(&["--db", "x"]).starts_with("--db: bad value \"x\": "));
        assert!(rejection(&["--mpl", "--quick"]).starts_with("--mpl: bad value \"--quick\": "));
        assert_eq!(rejection(&["--quick", "--mpl"]), "--mpl needs a value");
        assert!(rejection(&["--algo", "2pl"]).starts_with("--algo: unknown algorithm \"2pl\""));
        assert!(rejection(&["x"]).starts_with("unexpected argument \"x\""));
    }

    /// Every flag `USAGE` lists, values that parse, values that do not,
    /// and words that are no flag at all.
    const WORDS: &[&str] = &[
        "--algo",
        "--mpl",
        "--db",
        "--terminals",
        "--write-prob",
        "--min-size",
        "--max-size",
        "--cpus",
        "--disks",
        "--infinite",
        "--ext-think",
        "--int-think",
        "--seed",
        "--reps",
        "--batches",
        "--batch-secs",
        "--warmup",
        "--quick",
        "--max-events",
        "--out",
        "--check-serializable",
        "--perf",
        "--profile",
        "--audit",
        "--help",
        "-h",
        "--bogus",
        "-",
        "",
        "0",
        "1",
        "7",
        "0.5",
        "-1",
        "4294967296",
        "18446744073709551616",
        "1e309",
        "NaN",
        "inf",
        "mvcc-si",
        "x",
        " 3",
        "é",
        "\u{0}",
    ];

    /// The parameters `SimConfig::validate` names in its errors.
    const PARAMS: &[&str] = &[
        "db_size",
        "min_size",
        "max_size",
        "write_prob",
        "num_terms",
        "mpl",
        "num_cpus",
        "num_disks",
        "ext_think_time",
        "int_think_time",
        "expected service time",
        "metrics.batches",
        "metrics.batch_time",
        "metrics horizon",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Any argv over the real flags and edge values parses to a valid
        /// configuration, asks for help, or fails with an error that names
        /// the rejected flag (or stray argument), or the parameter
        /// validation rejected. It never panics. No `Simulator` is built:
        /// a valid configuration may size gigabytes.
        #[test]
        fn parse_never_panics_and_names_what_it_rejects(
            ix in proptest::collection::vec(0..WORDS.len(), 0..8),
        ) {
            let argv: Vec<String> = ix.iter().map(|&i| WORDS[i].to_string()).collect();
            match parse(argv.clone()) {
                Ok(Some(cli)) => {
                    prop_assert!(cli.cfg.validate().is_ok(), "{:?}", argv);
                    prop_assert!(cli.reps >= 1);
                }
                Ok(None) => {
                    prop_assert!(argv.iter().any(|a| a == "--help" || a == "-h"));
                }
                Err(e) => {
                    let names_flag = argv
                        .iter()
                        .any(|a| a.starts_with("--") && e.contains(a.as_str()));
                    let names_stray = e.starts_with("unexpected argument ")
                        && argv.iter().any(|a| e.contains(&format!("{a:?}")));
                    let names_param = PARAMS.iter().any(|p| e.contains(p));
                    prop_assert!(
                        names_flag || names_stray || names_param,
                        "{:?} names nothing in {:?}",
                        e,
                        argv
                    );
                }
            }
        }
    }
}
