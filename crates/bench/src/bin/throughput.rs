//! `throughput` — wall-clock engine throughput on the tracked reference
//! point (experiment 1's low-conflict setting, 10 000-page database,
//! mpl 50, 1 CPU / 2 disks).
//!
//! For each of the paper's three algorithms the binary runs `--reps`
//! independent repetitions of the same deterministic configuration,
//! takes the median events/sec, and reports:
//!
//! - `events_per_sec` — calendar events handled per wall-clock second,
//! - `commits_per_sec` — committed transactions per wall-clock second,
//! - peak calendar / lock-table occupancy (exact high-water marks).
//!
//! ```text
//! throughput [--reps 3] [--batches 600] [--mpl 50] [--db 10000]
//!            [--seed <u64>] [--floor-frac 0.30] [--perf] [--profile]
//!            [--scale] [--scale-db 100000000] [--scale-terms 1000000]
//!            [--scale-mpl 100000] [--scale-events 10000000]
//!            [--scale-floor-min 0] [--rss-slack 1.5]
//!            [--out BENCH_7.json] [--check BENCH_7.json]
//!            [--baseline BENCH_7.json] [--stages-from profile.json]
//! ```
//!
//! `--out` archives the measurements as JSON, including a conservative
//! `floor_events_per_sec` per algorithm (`floor-frac` x the measured
//! median — low enough to absorb CI-machine noise, high enough to catch
//! an order-of-magnitude regression). `--check <path>` re-measures and
//! exits nonzero if any algorithm falls below the archived floor; CI's
//! perf-smoke job runs exactly that. `--perf` adds per-algorithm
//! calendar-op counters (schedules/pops/cancels, the near-lane vs
//! overflow-heap split, and elided resource hops) to the report; the
//! counters are always embedded in `--out` JSON. `--baseline <path>`
//! embeds a comparison block into `--out`: this run's events/sec over
//! the events/sec archived in a previous benchmark file.
//!
//! `--profile` (requires a build with the `profile` feature, which turns
//! on `ccsim-core/stage-profiler`) additionally runs each measured point
//! once more with the in-engine stage profiler and prints the per-stage
//! cycle breakdown; the scale point's breakdown is embedded into `--out`
//! JSON. Because the instrumented build pays a timestamp per stage
//! switch, archives meant to carry *floors* should be produced by the
//! default build and given the breakdown via `--stages-from <path>`,
//! which copies the `"stages"` block out of a profile-build archive.
//! `--scale-floor-min <r>` raises the archived scale floor to at least
//! `r` events/sec (used to encode a required speedup over a previous
//! benchmark generation into the archive itself).
//!
//! `--scale` adds the million-scale regime (the `exp-scale` catalog
//! point: a 10^8-page database, 10^6 terminals, mpl 10^5, infinite
//! resources) under an event budget: the run is cut off after
//! `--scale-events` calendar events and the partial window salvaged, so
//! the measurement is bounded no matter how large the regime. The scale
//! block archives events/sec with its floor, the streaming response
//! quantiles (P^2 — a histogram at this scale would dominate memory),
//! peak RSS (`VmHWM`, Linux) with a `--rss-slack` x ceiling, and a
//! fast-path ablation: a scaled-down dense point (a fifth of the
//! terminals and mpl, half the events — still hundreds of events per
//! lane bucket) run with and without the near-horizon calendar lane and
//! the uncontended-hop elision. The derived point keeps the working set
//! in cache so the ratio measures the data structures, not paging; both
//! toggles preserve the event sequence byte for byte, so the events/sec
//! ratio is a pure data-structure speedup. `--check` at a scale archive
//! verifies the events/sec floor, the RSS ceiling, and that the fast
//! paths still win (`fastpath_speedup > 1`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use ccsim_core::{
    run_collecting, run_with_perf, CcAlgorithm, MetricsConfig, Params, PerfStats, Report,
    RunBudget, RunOutcome, SimConfig, StageProfile, StreamingQuantiles, STAGE_PROFILER_COMPILED,
};
use ccsim_des::{CalendarStats, SimDuration};
use ccsim_experiments::json;
use ccsim_experiments::write_atomic;

struct Cli {
    reps: u32,
    batches: u32,
    mpl: u32,
    db: u64,
    seed: u64,
    floor_frac: f64,
    perf: bool,
    profile: bool,
    scale: bool,
    scale_db: u64,
    scale_terms: u32,
    scale_mpl: u32,
    scale_events: u64,
    scale_floor_min: f64,
    rss_slack: f64,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    baseline: Option<PathBuf>,
    stages_from: Option<PathBuf>,
}

/// One algorithm's median-of-reps measurement.
struct Measurement {
    algo: CcAlgorithm,
    events_per_sec: f64,
    commits_per_sec: f64,
    events: u64,
    commits: u64,
    peak_calendar: usize,
    peak_lock_table: usize,
    /// Calendar-op counters from the median rep (identical across reps:
    /// every rep replays the same deterministic event sequence).
    calendar: CalendarStats,
    elided_cpu_hops: u64,
    elided_disk_hops: u64,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        reps: 3,
        batches: 600,
        mpl: 50,
        db: 10_000,
        seed: 0xCC85,
        floor_frac: 0.30,
        perf: false,
        profile: false,
        scale: false,
        scale_db: 100_000_000,
        scale_terms: 1_000_000,
        scale_mpl: 100_000,
        scale_events: 10_000_000,
        scale_floor_min: 0.0,
        rss_slack: 1.5,
        out: None,
        check: None,
        baseline: None,
        stages_from: None,
    };
    let mut args = std::env::args().skip(1);
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => cli.reps = parse_num(&next_val(&mut args, "--reps")?)?,
            "--batches" => cli.batches = parse_num(&next_val(&mut args, "--batches")?)?,
            "--mpl" => cli.mpl = parse_num(&next_val(&mut args, "--mpl")?)?,
            "--db" => cli.db = parse_num(&next_val(&mut args, "--db")?)?,
            "--seed" => cli.seed = parse_num(&next_val(&mut args, "--seed")?)?,
            "--floor-frac" => {
                cli.floor_frac = parse_num(&next_val(&mut args, "--floor-frac")?)?;
            }
            "--perf" => cli.perf = true,
            "--profile" => cli.profile = true,
            "--scale" => cli.scale = true,
            "--scale-db" => cli.scale_db = parse_num(&next_val(&mut args, "--scale-db")?)?,
            "--scale-terms" => {
                cli.scale_terms = parse_num(&next_val(&mut args, "--scale-terms")?)?;
            }
            "--scale-mpl" => cli.scale_mpl = parse_num(&next_val(&mut args, "--scale-mpl")?)?,
            "--scale-events" => {
                cli.scale_events = parse_num(&next_val(&mut args, "--scale-events")?)?;
            }
            "--scale-floor-min" => {
                cli.scale_floor_min = parse_num(&next_val(&mut args, "--scale-floor-min")?)?;
            }
            "--rss-slack" => cli.rss_slack = parse_num(&next_val(&mut args, "--rss-slack")?)?,
            "--out" => cli.out = Some(PathBuf::from(next_val(&mut args, "--out")?)),
            "--check" => cli.check = Some(PathBuf::from(next_val(&mut args, "--check")?)),
            "--baseline" => {
                cli.baseline = Some(PathBuf::from(next_val(&mut args, "--baseline")?));
            }
            "--stages-from" => {
                cli.stages_from = Some(PathBuf::from(next_val(&mut args, "--stages-from")?));
            }
            other => return Err(format!("unknown flag {other} (see --help in the source)")),
        }
    }
    if cli.reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    if !(0.0..1.0).contains(&cli.floor_frac) {
        return Err("--floor-frac must be in [0, 1)".to_string());
    }
    if cli.rss_slack < 1.0 {
        return Err("--rss-slack must be at least 1.0".to_string());
    }
    if cli.scale_events == 0 {
        return Err("--scale-events must be positive".to_string());
    }
    if cli.baseline.is_some() && cli.out.is_none() {
        return Err("--baseline requires --out (it is embedded in the archive)".to_string());
    }
    if cli.stages_from.is_some() && cli.out.is_none() {
        return Err("--stages-from requires --out (it is embedded in the archive)".to_string());
    }
    if cli.scale_floor_min < 0.0 {
        return Err("--scale-floor-min must be non-negative".to_string());
    }
    if cli.profile && !STAGE_PROFILER_COMPILED {
        return Err(
            "the stage profiler is not compiled into this binary; rebuild with \
             `cargo run --release -p ccsim-bench --features profile --bin throughput`"
                .to_string(),
        );
    }
    Ok(cli)
}

fn parse_num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad value {v:?}: {e}"))
}

fn config(cli: &Cli, algo: CcAlgorithm) -> SimConfig {
    let mut params = Params::paper_baseline();
    params.db_size = cli.db;
    params.mpl = cli.mpl;
    let mut metrics = MetricsConfig::paper();
    metrics.batches = cli.batches;
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(metrics)
        .with_seed(cli.seed)
}

fn measure(cli: &Cli, algo: CcAlgorithm) -> Result<Measurement, String> {
    // Every rep runs the identical configuration (same seeds, same event
    // sequence), so the spread across reps is pure wall-clock noise; the
    // median discards warm-up and scheduler hiccups.
    let mut runs: Vec<(Report, PerfStats)> = Vec::with_capacity(cli.reps as usize);
    for _ in 0..cli.reps {
        let (report, perf) =
            run_with_perf(config(cli, algo)).map_err(|e| format!("{}: {e}", algo.label()))?;
        runs.push((report, perf));
    }
    runs.sort_by(|a, b| {
        a.1.events_per_sec()
            .partial_cmp(&b.1.events_per_sec())
            .expect("events/sec is finite")
    });
    let (report, perf) = &runs[runs.len() / 2];
    let secs = perf.wall.as_secs_f64();
    Ok(Measurement {
        algo,
        events_per_sec: perf.events_per_sec(),
        commits_per_sec: if secs > 0.0 {
            report.commits as f64 / secs
        } else {
            0.0
        },
        events: perf.events,
        commits: report.commits,
        peak_calendar: perf.peak_calendar,
        peak_lock_table: perf.peak_lock_table,
        calendar: perf.calendar,
        elided_cpu_hops: perf.elided_cpu_hops,
        elided_disk_hops: perf.elided_disk_hops,
    })
}

/// Min / median / max of a set of repetition rates. The median is the
/// headline number; the endpoints quantify the wall-clock noise the
/// repetition scheme is fighting, so archives record all three.
#[derive(Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

fn spread(mut rates: Vec<f64>) -> Spread {
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rate is finite"));
    Spread {
        min: rates[0],
        median: rates[rates.len() / 2],
        max: *rates.last().expect("at least one rep"),
    }
}

/// The million-scale measurement: the elide-on point (floor source) plus
/// the elide-off ablation at the identical configuration.
struct ScaleMeasurement {
    events_per_sec: f64,
    commits_per_sec: f64,
    events: u64,
    commits: u64,
    peak_calendar: usize,
    peak_lock_table: usize,
    quantiles: StreamingQuantiles,
    /// `Some(reason)` when the run budget cut the window (the expected
    /// outcome at this scale), `None` when the horizon completed.
    stopped: Option<String>,
    /// Fast-path ablation pair, run at a scaled-down point (a fifth of the
    /// terminals and mpl, half the events): fast = two-tier calendar +
    /// uncontended-hop elision, stripped = heap-only + no elision. Both
    /// toggles preserve the event sequence byte for byte, so the two runs
    /// do identical work and the events/sec ratio is a pure
    /// data-structure speedup. The full million point is too
    /// memory-heavy to time the difference reliably on a noisy CI box —
    /// its wall clock is dominated by paging the ~600 MiB working set —
    /// while the derived point still packs hundreds of events per lane
    /// bucket and a six-figure calendar.
    ///
    /// The two arms are *interleaved* (fast, stripped, fast, stripped, …)
    /// rather than run as consecutive blocks, so slow machine drift —
    /// thermal throttling, a noisy CI neighbor arriving mid-benchmark —
    /// lands on both arms equally instead of biasing whichever block ran
    /// second; the speedup is the ratio of medians, with each arm's
    /// min/median/max archived so the residual noise is visible.
    ablation_terms: u32,
    ablation_mpl: u32,
    ablation_events: u64,
    fast: Spread,
    stripped: Spread,
    fastpath_speedup: f64,
    /// Process peak RSS after both runs (`VmHWM`; `None` off Linux).
    peak_rss_bytes: Option<u64>,
    /// Per-stage breakdown of the full point's median rep (profile builds
    /// only — `None` when the stage profiler is compiled out).
    stages: Option<StageProfile>,
    /// Wall time of the profiled median rep (denominator for coverage).
    profiled_wall: std::time::Duration,
}

fn scale_config(cli: &Cli, terms: u32, mpl: u32, max_events: u64, fast_paths: bool) -> SimConfig {
    let mut params = Params::exp_scale();
    params.db_size = cli.scale_db;
    params.num_terms = terms;
    params.mpl = mpl;
    // At mpl 10^5 a single simulated second is tens of millions of events,
    // so the event budget — not the batch horizon — ends the run. Short
    // batches with no warmup let the salvaged window still carry batch
    // counts and feed the streaming quantiles from the first commit.
    let mut metrics = MetricsConfig::quick();
    metrics.warmup_batches = 0;
    metrics.batches = 400;
    metrics.batch_time = SimDuration::from_millis(250);
    SimConfig::new(CcAlgorithm::Blocking)
        .with_params(params)
        .with_metrics(metrics)
        .with_seed(cli.seed)
        .with_budget(RunBudget::unlimited().with_max_events(max_events))
        .with_elision(fast_paths)
        .with_two_tier_calendar(fast_paths)
}

fn measure_scale(cli: &Cli) -> Result<ScaleMeasurement, String> {
    let run_point = |terms: u32, mpl: u32, events: u64, fast: bool| -> Result<RunOutcome, String> {
        let mut outs: Vec<RunOutcome> = Vec::with_capacity(cli.reps as usize);
        for _ in 0..cli.reps {
            outs.push(
                run_collecting(scale_config(cli, terms, mpl, events, fast))
                    .map_err(|e| format!("scale: {e}"))?,
            );
        }
        outs.sort_by(|a, b| {
            a.perf
                .events_per_sec()
                .partial_cmp(&b.perf.events_per_sec())
                .expect("events/sec is finite")
        });
        let mid = outs.len() / 2;
        Ok(outs.swap_remove(mid))
    };
    let full = run_point(cli.scale_terms, cli.scale_mpl, cli.scale_events, true)?;
    let ab_terms = (cli.scale_terms / 5).max(1);
    let ab_mpl = (cli.scale_mpl / 5).max(1).min(ab_terms);
    let ab_events = (cli.scale_events / 2).max(1);
    // Interleave the ablation arms rep by rep (fast, stripped, fast, …) so
    // machine drift during the benchmark hits both arms symmetrically.
    let mut fast_rates = Vec::with_capacity(cli.reps as usize);
    let mut stripped_rates = Vec::with_capacity(cli.reps as usize);
    for _ in 0..cli.reps {
        let fast = run_collecting(scale_config(cli, ab_terms, ab_mpl, ab_events, true))
            .map_err(|e| format!("scale ablation: {e}"))?;
        let stripped = run_collecting(scale_config(cli, ab_terms, ab_mpl, ab_events, false))
            .map_err(|e| format!("scale ablation: {e}"))?;
        debug_assert_eq!(fast.perf.events, stripped.perf.events);
        fast_rates.push(fast.perf.events_per_sec());
        stripped_rates.push(stripped.perf.events_per_sec());
    }
    let fast = spread(fast_rates);
    let stripped = spread(stripped_rates);
    let secs = full.perf.wall.as_secs_f64();
    Ok(ScaleMeasurement {
        events_per_sec: full.perf.events_per_sec(),
        commits_per_sec: if secs > 0.0 {
            full.report.commits as f64 / secs
        } else {
            0.0
        },
        events: full.perf.events,
        commits: full.report.commits,
        peak_calendar: full.perf.peak_calendar,
        peak_lock_table: full.perf.peak_lock_table,
        quantiles: full.quantiles,
        stopped: full.stopped.map(|e| e.to_string()),
        ablation_terms: ab_terms,
        ablation_mpl: ab_mpl,
        ablation_events: ab_events,
        fast,
        stripped,
        fastpath_speedup: if stripped.median > 0.0 {
            fast.median / stripped.median
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
        stages: full.stages,
        profiled_wall: full.perf.wall,
    })
}

/// Process high-water RSS from `/proc/self/status` (`VmHWM`), in bytes.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_bytes() -> Option<u64> {
    None
}

/// Build the `"baseline"` comparison block for `--out` from a previous
/// benchmark archive: per algorithm, the archived events/sec, this run's
/// events/sec, and the speedup ratio.
fn baseline_block(path: &PathBuf, results: &[Measurement]) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let algos = doc
        .get("algorithms")
        .and_then(json::Value::as_arr)
        .ok_or_else(|| format!("{}: missing \"algorithms\" array", path.display()))?;
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "\"baseline\":{{\"path\":\"{}\",\"metric\":\"events_per_sec, median of reps\",\
         \"algorithms\":[",
        path.display()
    );
    for (i, m) in results.iter().enumerate() {
        let base = algos
            .iter()
            .find(|v| v.get("algo").and_then(json::Value::as_str) == Some(m.algo.label()))
            .and_then(|v| v.get("events_per_sec"))
            .and_then(json::Value::as_f64)
            .ok_or_else(|| {
                format!(
                    "{}: no events_per_sec for {}",
                    path.display(),
                    m.algo.label()
                )
            })?;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algo\":\"{}\",\"baseline_events_per_sec\":{base:.0},\
             \"new_events_per_sec\":{:.0},\"speedup\":{:.2}}}",
            m.algo.label(),
            m.events_per_sec,
            m.events_per_sec / base,
        );
    }
    out.push_str("]}");
    Ok(out)
}

/// Serialize a per-stage breakdown as a JSON block (comma-prefixed, ready
/// to append inside the scale object).
fn stages_json(p: &StageProfile, wall: std::time::Duration) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(",\"stages\":[");
    for (i, st) in p.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cycles\":{},\"enters\":{},\"frac\":{:.4},\"secs\":{:.3}}}",
            st.name,
            st.cycles,
            st.enters,
            st.frac,
            p.stage_secs(i)
        );
    }
    let _ = write!(
        out,
        "],\"profiled_wall_secs\":{:.3},\"profile_coverage\":{:.3}",
        p.wall.as_secs_f64(),
        p.covered_frac(wall)
    );
    out
}

/// Extract the archived `"stages"` block (plus its coverage fields) from a
/// profile-build archive, re-emitting it for embedding into a new archive.
/// Lets the floors come from an uninstrumented build while the breakdown
/// comes from the instrumented companion run.
fn stages_block_from(path: &PathBuf) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let scale = doc
        .get("scale")
        .ok_or_else(|| format!("{}: no \"scale\" block", path.display()))?;
    let arr = scale
        .get("stages")
        .and_then(json::Value::as_arr)
        .ok_or_else(|| {
            format!(
                "{}: no \"stages\" in the scale block (re-archive with a \
                 --features profile build and --profile)",
                path.display()
            )
        })?;
    let mut out = String::with_capacity(512);
    out.push_str(",\"stages\":[");
    for (i, st) in arr.iter().enumerate() {
        let field = |key: &str| {
            st.get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{}: stage missing {key}", path.display()))
        };
        let name = st
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("{}: stage missing name", path.display()))?;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cycles\":{:.0},\"enters\":{:.0},\"frac\":{:.4},\"secs\":{:.3}}}",
            name,
            field("cycles")?,
            field("enters")?,
            field("frac")?,
            field("secs")?
        );
    }
    out.push(']');
    for key in ["profiled_wall_secs", "profile_coverage"] {
        if let Some(v) = scale.get(key).and_then(json::Value::as_f64) {
            let _ = write!(out, ",\"{key}\":{v:.3}");
        }
    }
    Ok(out)
}

/// Serialize the scale block for `--out`. Floors follow the small-regime
/// convention (`floor-frac` x measured, raised to at least
/// `--scale-floor-min`); the RSS ceiling goes the other way (`rss-slack` x
/// measured) because memory regressions grow upward.
fn scale_json(cli: &Cli, s: &ScaleMeasurement, extra_stages: Option<&str>) -> String {
    let mut out = String::with_capacity(768);
    let _ = write!(
        out,
        "\"scale\":{{\"point\":{{\"experiment\":\"exp-scale\",\"algo\":\"blocking\",\
         \"db_size\":{},\"num_terms\":{},\"mpl\":{},\"resources\":\"infinite\",\
         \"max_events\":{},\"seed\":{}}},",
        cli.scale_db, cli.scale_terms, cli.scale_mpl, cli.scale_events, cli.seed
    );
    let _ = write!(
        out,
        "\"events_per_sec\":{:.0},\"floor_events_per_sec\":{:.0},\"commits_per_sec\":{:.1},\
         \"events\":{},\"commits\":{},\"peak_calendar\":{},\"peak_lock_table\":{},",
        s.events_per_sec,
        (s.events_per_sec * cli.floor_frac).max(cli.scale_floor_min),
        s.commits_per_sec,
        s.events,
        s.commits,
        s.peak_calendar,
        s.peak_lock_table,
    );
    let _ = write!(
        out,
        "\"stopped\":{},",
        match &s.stopped {
            Some(reason) => format!("\"{reason}\""),
            None => "null".to_string(),
        }
    );
    let q = &s.quantiles;
    let _ = write!(
        out,
        "\"response_quantiles\":{{\"p50\":{:.6},\"p95\":{:.6},\"p99\":{:.6},\"count\":{}}},",
        q.p50, q.p95, q.p99, q.count
    );
    let _ = write!(
        out,
        "\"ablation\":{{\"num_terms\":{},\"mpl\":{},\"max_events\":{},\
         \"interleaved_reps\":{},\
         \"fast_events_per_sec\":{:.0},\"fast_min\":{:.0},\"fast_max\":{:.0},\
         \"baseline_events_per_sec\":{:.0},\"stripped_min\":{:.0},\"stripped_max\":{:.0},\
         \"fastpath_speedup\":{:.3}}}",
        s.ablation_terms,
        s.ablation_mpl,
        s.ablation_events,
        cli.reps,
        s.fast.median,
        s.fast.min,
        s.fast.max,
        s.stripped.median,
        s.stripped.min,
        s.stripped.max,
        s.fastpath_speedup
    );
    match s.peak_rss_bytes {
        Some(rss) => {
            let ceiling = (rss as f64 * cli.rss_slack) as u64;
            let _ = write!(
                out,
                ",\"peak_rss_bytes\":{rss},\"rss_ceiling_bytes\":{ceiling}"
            );
        }
        None => out.push_str(",\"peak_rss_bytes\":null,\"rss_ceiling_bytes\":null"),
    }
    if let Some(p) = &s.stages {
        out.push_str(&stages_json(p, s.profiled_wall));
    } else if let Some(block) = extra_stages {
        out.push_str(block);
    }
    out.push('}');
    out
}

fn to_json(
    cli: &Cli,
    results: &[Measurement],
    baseline: Option<&str>,
    scale: Option<&str>,
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"bench\":\"throughput\",\"reference_point\":");
    out.push_str("{\"experiment\":\"exp1-low-conflict\",");
    let _ = write!(
        out,
        "\"db_size\":{},\"mpl\":{},\"resources\":\"1cpu-2disk\",\"batches\":{},\"seed\":{}}},",
        cli.db, cli.mpl, cli.batches, cli.seed
    );
    let _ = write!(out, "\"reps\":{},", cli.reps);
    out.push_str("\"algorithms\":[");
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algo\":\"{}\",\"events_per_sec\":{:.0},\"commits_per_sec\":{:.1},\
             \"events\":{},\"commits\":{},\"peak_calendar\":{},\"peak_lock_table\":{},\
             \"floor_events_per_sec\":{:.0},",
            m.algo.label(),
            m.events_per_sec,
            m.commits_per_sec,
            m.events,
            m.commits,
            m.peak_calendar,
            m.peak_lock_table,
            m.events_per_sec * cli.floor_frac,
        );
        let cs = &m.calendar;
        let _ = write!(
            out,
            "\"calendar\":{{\"schedules\":{},\"pops\":{},\"cancels\":{},\
             \"lane_schedules\":{},\"heap_schedules\":{},\"lane_pops\":{},\"heap_pops\":{}}},\
             \"elided_cpu_hops\":{},\"elided_disk_hops\":{}}}",
            cs.schedules,
            cs.pops,
            cs.cancels,
            cs.lane_schedules,
            cs.heap_schedules,
            cs.lane_pops,
            cs.heap_pops,
            m.elided_cpu_hops,
            m.elided_disk_hops,
        );
    }
    out.push(']');
    if let Some(block) = scale {
        out.push(',');
        out.push_str(block);
    }
    if let Some(block) = baseline {
        out.push(',');
        out.push_str(block);
    }
    out.push_str("}\n");
    out
}

/// One metric's verdict against its archived bound. Every compared metric
/// produces a line — passes included — so a CI log shows the measured
/// value next to the archived bound whether or not the gate trips, and a
/// failure is diagnosable (how far below the floor? which metric?) from
/// the log alone.
struct CheckLine {
    ok: bool,
    text: String,
}

impl CheckLine {
    fn pass(text: String) -> Self {
        CheckLine { ok: true, text }
    }
    fn fail(text: String) -> Self {
        CheckLine { ok: false, text }
    }
    fn bound(label: &str, measured: f64, relation: &str, bound: f64, unit: &str, ok: bool) -> Self {
        CheckLine {
            ok,
            text: format!(
                "{label}: measured {measured:.0} {unit} {verdict} archived {relation} \
                 {bound:.0} {unit}",
                verdict = if ok { "meets" } else { "violates" },
            ),
        }
    }
}

/// Compare fresh measurements against the floors archived in `path`.
/// Returns one line per algorithm (pass or fail).
fn check_floors(path: &PathBuf, results: &[Measurement]) -> Result<Vec<CheckLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let algos = doc
        .get("algorithms")
        .and_then(json::Value::as_arr)
        .ok_or_else(|| format!("{}: missing \"algorithms\" array", path.display()))?;
    let mut lines = Vec::new();
    for m in results {
        let archived = algos
            .iter()
            .find(|v| v.get("algo").and_then(json::Value::as_str) == Some(m.algo.label()));
        let Some(archived) = archived else {
            lines.push(CheckLine::fail(format!(
                "{}: no archived floor",
                m.algo.label()
            )));
            continue;
        };
        let floor = archived
            .get("floor_events_per_sec")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{}: bad floor for {}", path.display(), m.algo.label()))?;
        lines.push(CheckLine::bound(
            m.algo.label(),
            m.events_per_sec,
            "floor",
            floor,
            "events/sec",
            m.events_per_sec >= floor,
        ));
    }
    Ok(lines)
}

/// Compare a fresh scale measurement against the `"scale"` block archived
/// in `path`: the events/sec floor, the RSS ceiling, and the elision win.
fn check_scale(path: &PathBuf, s: &ScaleMeasurement) -> Result<Vec<CheckLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(block) = doc.get("scale") else {
        return Ok(vec![CheckLine::fail(format!(
            "scale: {} has no archived scale block (re-archive with --scale --out)",
            path.display()
        ))]);
    };
    let mut lines = Vec::new();
    let floor = block
        .get("floor_events_per_sec")
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("{}: bad scale floor", path.display()))?;
    lines.push(CheckLine::bound(
        "scale/blocking",
        s.events_per_sec,
        "floor",
        floor,
        "events/sec",
        s.events_per_sec >= floor,
    ));
    let win = s.fastpath_speedup > 1.0;
    let spread_note = format!(
        "two-tier+elision {:.0} [{:.0}..{:.0}] vs stripped {:.0} [{:.0}..{:.0}] events/sec \
         at terms {}, mpl {}",
        s.fast.median,
        s.fast.min,
        s.fast.max,
        s.stripped.median,
        s.stripped.min,
        s.stripped.max,
        s.ablation_terms,
        s.ablation_mpl
    );
    lines.push(if win {
        CheckLine::pass(format!(
            "scale ablation: fast-path speedup {:.3}x is a win ({spread_note})",
            s.fastpath_speedup
        ))
    } else {
        CheckLine::fail(format!(
            "scale ablation: fast-path speedup {:.3}x is not a win ({spread_note})",
            s.fastpath_speedup
        ))
    });
    // The ceiling only binds where VmHWM is measurable (Linux) and was
    // archived from a Linux machine in the first place.
    if let (Some(rss), Some(ceiling)) = (
        s.peak_rss_bytes,
        block.get("rss_ceiling_bytes").and_then(json::Value::as_f64),
    ) {
        lines.push(CheckLine::bound(
            "scale RSS",
            rss as f64 / (1024.0 * 1024.0),
            "ceiling",
            ceiling / (1024.0 * 1024.0),
            "MiB",
            rss as f64 <= ceiling,
        ));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    for algo in CcAlgorithm::PAPER_TRIO {
        match measure(&cli, algo) {
            Ok(m) => {
                println!(
                    "{:<18} {:>12.0} events/sec  {:>9.1} commits/sec  \
                     (median of {}; {} events, peak cal {}, peak locks {})",
                    m.algo.label(),
                    m.events_per_sec,
                    m.commits_per_sec,
                    cli.reps,
                    m.events,
                    m.peak_calendar,
                    m.peak_lock_table,
                );
                if cli.perf {
                    let cs = &m.calendar;
                    println!(
                        "{:<18} calendar: {} schedules ({} lane / {} heap), \
                         {} pops ({} lane / {} heap), {} cancels; \
                         elided hops: {} cpu, {} disk",
                        "",
                        cs.schedules,
                        cs.lane_schedules,
                        cs.heap_schedules,
                        cs.pops,
                        cs.lane_pops,
                        cs.heap_pops,
                        cs.cancels,
                        m.elided_cpu_hops,
                        m.elided_disk_hops,
                    );
                }
                if cli.profile {
                    // One extra instrumented run per algorithm; the timed
                    // reps above stay untouched so their rates remain
                    // comparable across flag combinations.
                    match run_collecting(config(&cli, m.algo)) {
                        Ok(out) => match out.stages {
                            Some(p) => print!("{}", p.render(out.perf.wall)),
                            None => eprintln!("warning: profiled run produced no stage report"),
                        },
                        Err(e) => {
                            eprintln!("error: {}: {e}", m.algo.label());
                            return ExitCode::from(2);
                        }
                    }
                }
                results.push(m);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let scale = if cli.scale {
        match measure_scale(&cli) {
            Ok(s) => {
                println!(
                    "{:<18} {:>12.0} events/sec  (db {}, terms {}, mpl {}, {} events; \
                     peak cal {}, peak locks {}, {})",
                    "scale/blocking",
                    s.events_per_sec,
                    cli.scale_db,
                    cli.scale_terms,
                    cli.scale_mpl,
                    s.events,
                    s.peak_calendar,
                    s.peak_lock_table,
                    s.stopped.as_deref().unwrap_or("horizon completed"),
                );
                println!(
                    "{:<18} response quantiles (streaming): p50 {:.1}ms  p95 {:.1}ms  \
                     p99 {:.1}ms  over {} commits",
                    "",
                    s.quantiles.p50 * 1e3,
                    s.quantiles.p95 * 1e3,
                    s.quantiles.p99 * 1e3,
                    s.quantiles.count,
                );
                println!(
                    "{:<18} fast-path ablation (terms {}, mpl {}, {} events, {} interleaved \
                     reps): {:.0} [{:.0}..{:.0}] vs {:.0} [{:.0}..{:.0}] events/sec \
                     (two-tier+elision over stripped, medians, {:.2}x); peak RSS {}",
                    "",
                    s.ablation_terms,
                    s.ablation_mpl,
                    s.ablation_events,
                    cli.reps,
                    s.fast.median,
                    s.fast.min,
                    s.fast.max,
                    s.stripped.median,
                    s.stripped.min,
                    s.stripped.max,
                    s.fastpath_speedup,
                    match s.peak_rss_bytes {
                        Some(b) => format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)),
                        None => "unavailable".to_string(),
                    },
                );
                if cli.profile {
                    match &s.stages {
                        Some(p) => print!("{}", p.render(s.profiled_wall)),
                        None => eprintln!("warning: profiled run produced no stage report"),
                    }
                }
                Some(s)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    if let Some(path) = &cli.out {
        let baseline = match &cli.baseline {
            Some(base) => match baseline_block(base, &results) {
                Ok(block) => Some(block),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            None => None,
        };
        let extra_stages = match &cli.stages_from {
            Some(src) => match stages_block_from(src) {
                Ok(block) => Some(block),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            None => None,
        };
        let scale_block = scale
            .as_ref()
            .map(|s| scale_json(&cli, s, extra_stages.as_deref()));
        let text = to_json(&cli, &results, baseline.as_deref(), scale_block.as_deref());
        if let Err(e) = write_atomic(path, text.as_bytes()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &cli.check {
        let mut lines = match check_floors(path, &results) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        if let Some(s) = &scale {
            match check_scale(path, s) {
                Ok(f) => lines.extend(f),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let mut failed = false;
        for l in &lines {
            if l.ok {
                println!("  ok  {}", l.text);
            } else {
                failed = true;
                eprintln!("FAIL  {}", l.text);
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("perf floors OK ({})", path.display());
    }
    ExitCode::SUCCESS
}
