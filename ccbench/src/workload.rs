//! The four workloads, the passes that time them, and the traced pass that
//! turns one run of each into per-layer metrics.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccsim_core::{
    BudgetKind, CcAlgorithm, MetricsConfig, Params, PerfStats, ResourceSpec, RunBudget, RunError,
    SimConfig, Simulator,
};
use ccsim_des::{derive_seed, SimDuration};
use ccsim_experiments::{
    catalog, checks, json, report, run_experiment, run_experiment_supervised, DataPoint,
    ExperimentResult, ExperimentSpec, Fidelity, FigureKind, FigureView, PointProgress, RunOptions,
    Series, SweepControl,
};

use crate::calibrate::HostSpeed;
use crate::layers::{self, Calls, LockReplay, Recorder, Recording};
use crate::spans::{SpanId, Spans};
use crate::{Metric, Outcome};

/// The workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 4] = ["ref-1x2", "contention-inf", "scale-1m", "sweep-quick"];

/// How much work a pass does. `Reduced` shrinks every workload to a few
/// seconds of debug-build work so tests can run each code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as defined.
    Full,
    /// A tiny version of each workload, for tests.
    Reduced,
}

impl Size {
    fn ops(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Reduced => (full / 1000).max(1),
        }
    }
}

/// Measured passes a simulation workload makes at least, after its warm-up.
const MIN_SIM_PASSES: usize = 3;
/// Measured passes of `sweep-quick`, which has no warm-up: one sweep is
/// about as long as the other workloads' whole measurement.
const MIN_SWEEP_PASSES: usize = 2;
/// Set-up repetitions are timed in batches, each scaled by the host speed
/// around it: [`SETUP_BATCHES`] before the measured passes and one after
/// each. A batch makes one repetition, then more until it has taken
/// [`BATCH_TIME`] or made [`BATCH_REPS`]. The cap keeps the number of
/// repetitions, and with it the allocation history behind `peak_rss_mib`,
/// the same from run to run for the fast set-ups.
const SETUP_BATCHES: usize = 4;
const BATCH_TIME: Duration = Duration::from_millis(50);
const BATCH_REPS: usize = 16;

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Simulations run back to back on one workload seed.
pub(crate) struct SimWork {
    /// One series per configuration, so the runs render as one experiment.
    spec: ExperimentSpec,
    configs: Vec<SimConfig>,
    /// Runs stop at a planned simulated-time ceiling instead of finishing
    /// their batches.
    ceiling: bool,
    /// Whether the traced run audits the workload's points.
    audited: bool,
}

pub(crate) struct SweepWork {
    specs: Vec<ExperimentSpec>,
    opts: RunOptions,
    /// The runs whose event streams stand for the sweep's engine layers,
    /// since the sweep supervisor's runs accept no recording sink.
    probe: SimWork,
}

pub(crate) enum Work {
    Sims(SimWork),
    Sweep(SweepWork),
}

fn sim_work(
    id: &'static str,
    title: &'static str,
    params: Params,
    algorithms: &[CcAlgorithm],
    metrics: MetricsConfig,
    ceiling: Option<SimDuration>,
    seed: u64,
) -> SimWork {
    let mpl = params.mpl;
    let spec = ExperimentSpec {
        id,
        title,
        params,
        series: algorithms.iter().copied().map(Series::paper).collect(),
        mpls: vec![mpl],
        restart_delay_for_all: false,
        views: vec![FigureView {
            figure: id,
            caption: title,
            kind: FigureKind::Throughput,
        }],
    };
    // Common random numbers: every algorithm sees one transaction mix.
    let workload_seed = derive_seed(seed, &[0]);
    let configs = spec
        .series
        .iter()
        .zip(1u64..)
        .map(|(s, i)| {
            let cfg = spec
                .config(s, mpl, metrics, derive_seed(seed, &[i]))
                .with_workload_seed(workload_seed);
            match ceiling {
                Some(t) => cfg.with_budget(RunBudget::unlimited().with_max_sim_time(t)),
                None => cfg,
            }
        })
        .collect();
    SimWork {
        spec,
        configs,
        ceiling: ceiling.is_some(),
        // The audited pass goes through `run_experiment`, which has no
        // simulated-time ceiling: a ceiling-stopped point would run its
        // whole horizon there.
        audited: ceiling.is_none(),
    }
}

/// Paper-length batches, `batches` of them (a tiny run when reduced).
fn paper_batches(batches: u32, size: Size) -> MetricsConfig {
    match size {
        Size::Full => MetricsConfig {
            batches,
            ..MetricsConfig::paper()
        },
        Size::Reduced => MetricsConfig {
            warmup_batches: 1,
            batches: 2,
            batch_time: SimDuration::from_secs(20),
            ..MetricsConfig::paper()
        },
    }
}

/// The `sweep-quick` inputs: the catalog and the options of `repro all
/// --quick --threads 1`. They take no seed: the sweep keeps `repro`'s
/// default base seed, where its quick-fidelity shape checks are calibrated
/// (they fail at most other seeds).
fn sweep_inputs(size: Size) -> (Vec<ExperimentSpec>, RunOptions) {
    let specs = match size {
        Size::Full => catalog::all(),
        Size::Reduced => vec![ExperimentSpec {
            mpls: vec![5, 10],
            ..catalog::ablation_victim()
        }],
    };
    let opts = RunOptions {
        fidelity: Fidelity::Quick,
        threads: 1,
        ..RunOptions::default()
    };
    (specs, opts)
}

impl Work {
    pub(crate) fn new(name: &str, seed: u64, size: Size) -> Result<Work, String> {
        use CcAlgorithm::{Blocking, ImmediateRestart, Optimistic};
        Ok(match name {
            "ref-1x2" => Work::Sims(sim_work(
                "ref-1x2",
                "exp1 reference point: db 10 000, mpl 50, 1 CPU / 2 disks",
                Params::low_conflict().with_mpl(50),
                &[Blocking, ImmediateRestart, Optimistic],
                paper_batches(300, size),
                None,
                seed,
            )),
            "contention-inf" => Work::Sims(sim_work(
                "contention-inf",
                "exp2 high contention: db 1 000, mpl 200, infinite resources",
                Params::paper_baseline()
                    .with_mpl(200)
                    .with_resources(ResourceSpec::Infinite),
                &[Blocking, Optimistic],
                paper_batches(30, size),
                None,
                seed,
            )),
            "scale-1m" => {
                let params = match size {
                    Size::Full => Params::exp_scale(),
                    Size::Reduced => Params {
                        db_size: 1_000_000,
                        num_terms: 10_000,
                        mpl: 1_000,
                        ..Params::exp_scale()
                    },
                };
                // Short batches with no warm-up keep the report of the
                // ceiling-stopped run non-empty.
                let metrics = MetricsConfig {
                    warmup_batches: 0,
                    batches: 400,
                    batch_time: SimDuration::from_millis(250),
                    ..MetricsConfig::quick()
                };
                Work::Sims(sim_work(
                    "scale-1m",
                    "exp-scale point: db 10^8, 10^6 terminals, mpl 10^5, infinite resources",
                    params,
                    &[Blocking],
                    metrics,
                    Some(SimDuration::from_secs(1)),
                    seed,
                ))
            }
            "sweep-quick" => {
                let (specs, opts) = sweep_inputs(size);
                let exp3 = catalog::exp3();
                Work::Sweep(SweepWork {
                    specs,
                    opts,
                    probe: sim_work(
                        "sweep-quick",
                        "exp3 paper trio at mpl 50, quick fidelity",
                        exp3.params.with_mpl(50),
                        &CcAlgorithm::PAPER_TRIO,
                        match size {
                            Size::Full => MetricsConfig::quick(),
                            Size::Reduced => paper_batches(0, size),
                        },
                        None,
                        seed,
                    ),
                })
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {}",
                    WORKLOADS.join(", ")
                ))
            }
        })
    }
}

/// One pass over a workload's fixed simulated work.
#[derive(Default)]
struct Pass {
    /// Host time of the simulated work, from the first run through the
    /// rendered report; set-up excluded.
    wall: Duration,
    /// `wall` with each timed unit scaled to the reference host's speed
    /// (equal to `wall` in a pass made without a [`HostSpeed`]).
    scaled_wall: f64,
    /// Time of rendering, JSON serialisation and shape checks.
    render: Duration,
    /// Per simulation run: `run_collecting` time and the engine counters.
    runs: Vec<(Duration, PerfStats)>,
    /// Host seconds per point: per run, or per sweep point between
    /// progress callbacks.
    point_secs: Vec<f64>,
    /// Each experiment's `json::to_json` output.
    json: Vec<String>,
    /// FNV-1a over every rendered report and JSON document.
    digest: u64,
    /// Audit summary lines (audited sweeps only).
    audit_failures: u64,
    /// Shape checks that failed.
    checks_failed: u64,
    ops: Ops,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Pass {
    /// Render, serialise and check one experiment result, folding it into
    /// the pass digest.
    fn report(&mut self, result: &ExperimentResult) {
        let t0 = Instant::now();
        let text = report::render_experiment(result);
        let doc = json::to_json(result);
        for c in checks::evaluate(result) {
            self.ops.check(c.passed);
            self.checks_failed += u64::from(!c.passed);
        }
        self.render += t0.elapsed();
        self.digest = fnv1a(fnv1a(self.digest, text.as_bytes()), doc.as_bytes());
        self.json.push(doc);
    }
}

fn planned_stop(stopped: Option<&RunError>, ceiling: bool) -> bool {
    match stopped {
        None => !ceiling,
        Some(RunError::BudgetExhausted { exceeded, .. }) => {
            ceiling && *exceeded == BudgetKind::SimTime
        }
        Some(RunError::InvalidConfig(_)) => false,
    }
}

/// `t` in seconds, scaled by the host speed measured around it when there
/// is a [`HostSpeed`].
fn scaled(t: Duration, speed: &mut Option<&mut HostSpeed>) -> f64 {
    t.as_secs_f64() * speed.as_deref_mut().map_or(1.0, HostSpeed::factor)
}

/// One pass over a simulation workload. `attach` sees each simulator
/// between its set-up and its run; each run and the report are timing
/// units for `speed`.
fn sim_pass(
    w: &SimWork,
    spans: &mut Spans,
    name: &str,
    mut speed: Option<&mut HostSpeed>,
    attach: &mut dyn FnMut(&SimConfig, &mut Simulator),
) -> Pass {
    let pass_span = spans.open(name, SpanId::ROOT);
    let mut pass = Pass {
        digest: FNV_OFFSET,
        ..Pass::default()
    };
    let mut points = Vec::with_capacity(w.configs.len());
    for (cfg, series) in w.configs.iter().zip(&w.spec.series) {
        let run_span = spans.open(series.label.clone(), pass_span);
        let setup_span = spans.open("setup", run_span);
        let sim = Simulator::new(cfg.clone());
        spans.close(setup_span);
        let Ok(mut sim) = sim else {
            pass.ops.check(false);
            spans.close(run_span);
            continue;
        };
        attach(cfg, &mut sim);
        let loop_span = spans.open("loop+finish", run_span);
        let t1 = Instant::now();
        let out = sim.run_collecting();
        let run = t1.elapsed();
        spans.close(loop_span);
        spans.close(run_span);
        pass.ops
            .check(planned_stop(out.stopped.as_ref(), w.ceiling) && out.report.commits > 0);
        pass.wall += run;
        pass.scaled_wall += scaled(run, &mut speed);
        pass.point_secs.push(run.as_secs_f64());
        pass.runs.push((run, out.perf));
        points.push(DataPoint::single(
            series.label.clone(),
            cfg.params.mpl,
            out.report,
        ));
    }
    let report_span = spans.open("report", pass_span);
    pass.report(&ExperimentResult {
        spec: w.spec.clone(),
        points,
        audit_failures: Vec::new(),
        failures: Vec::new(),
        interrupted: false,
        warnings: Vec::new(),
    });
    pass.wall += pass.render;
    pass.scaled_wall += scaled(pass.render, &mut speed);
    spans.close(report_span);
    spans.close(pass_span);
    pass
}

/// One pass over the catalog sweep. With `timed_points` a progress
/// callback stamps each settled point. Each experiment, with its report,
/// is a timing unit for `speed`.
fn sweep_pass(
    w: &SweepWork,
    opts: &RunOptions,
    spans: &mut Spans,
    name: &str,
    mut speed: Option<&mut HostSpeed>,
    timed_points: bool,
) -> Pass {
    let pass_span = spans.open(name, SpanId::ROOT);
    let mut pass = Pass {
        digest: FNV_OFFSET,
        ..Pass::default()
    };
    for spec in &w.specs {
        let span = spans.open(spec.id, pass_span);
        let marks = Mutex::new(Vec::with_capacity(spec.num_runs()));
        let stamp = |_: PointProgress<'_>| {
            marks
                .lock()
                .expect("the progress log is only locked to push")
                .push(Instant::now());
        };
        let ctl = SweepControl {
            progress: timed_points.then_some(&stamp as &(dyn Fn(PointProgress<'_>) + Sync)),
            ..SweepControl::default()
        };
        let start = Instant::now();
        let result = run_experiment_supervised(spec, opts, &ctl);
        let marks = marks.into_inner().expect("no callback panicked");
        let mut prev = start;
        for m in marks {
            pass.point_secs.push((m - prev).as_secs_f64());
            prev = m;
        }
        match result {
            Ok(result) => {
                let failed = result.failures.len() as u64 + u64::from(result.interrupted);
                pass.ops.attempted += spec.num_runs() as u64;
                pass.ops.failed += failed.min(spec.num_runs() as u64);
                pass.audit_failures += result.audit_failures.len() as u64;
                pass.report(&result);
            }
            Err(_) => pass.ops.check(false),
        }
        let took = start.elapsed();
        pass.wall += took;
        pass.scaled_wall += scaled(took, &mut speed);
        spans.close(span);
    }
    spans.close(pass_span);
    pass
}

/// One batch of set-up repetitions: pushes the raw times to `raw` and the
/// times scaled by the host speed around the batch to `scaled`.
fn setup_batch(
    work: &Work,
    size: Size,
    speed: &mut HostSpeed,
    raw: &mut Vec<f64>,
    scaled: &mut Vec<f64>,
) {
    let start = Instant::now();
    let from = raw.len();
    while raw.len() == from || (start.elapsed() < BATCH_TIME && raw.len() - from < BATCH_REPS) {
        raw.push(work.setup(size).as_secs_f64());
    }
    let f = speed.factor();
    scaled.extend(raw[from..].iter().map(|s| s * f));
}

impl Work {
    /// One untraced pass.
    fn pass(&self, spans: &mut Spans, name: &str, speed: Option<&mut HostSpeed>) -> Pass {
        match self {
            Work::Sims(w) => sim_pass(w, spans, name, speed, &mut |_, _| {}),
            Work::Sweep(w) => sweep_pass(w, &w.opts, spans, name, speed, false),
        }
    }

    /// One timed set-up: the summed `Simulator::new` time of a pass. For the
    /// sweep, building the catalog and options plus a `Simulator` for each
    /// of its runs.
    fn setup(&self, size: Size) -> Duration {
        let mut total = Duration::ZERO;
        let mut build = |cfg: SimConfig| {
            let t0 = Instant::now();
            let sim = Simulator::new(cfg);
            total += t0.elapsed();
            drop(sim);
        };
        match self {
            Work::Sims(w) => w.configs.iter().cloned().for_each(&mut build),
            Work::Sweep(_) => {
                let t0 = Instant::now();
                let (specs, opts) = sweep_inputs(size);
                let inputs = t0.elapsed();
                let metrics = opts.fidelity.metrics();
                for spec in &specs {
                    for series in &spec.series {
                        for &mpl in &spec.mpls {
                            build(spec.config(series, mpl, metrics, opts.base_seed));
                        }
                    }
                }
                total += inputs;
            }
        }
        total
    }
}

/// Compares each pass's digest with the first one's: a pass whose report
/// differs is a failed operation.
struct Digests(Option<u64>);

impl Digests {
    fn check(&mut self, ops: &mut Ops, digest: u64) {
        match self.0 {
            None => self.0 = Some(digest),
            Some(first) => ops.check(first == digest),
        }
    }
}

/// A `kB` field of `/proc/self/status` (0 where it is unavailable).
fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The untraced run: a warm-up pass (simulation workloads), the set-up
/// repetitions, then measured passes until `seconds` have passed. Timings
/// are scaled to the reference host's speed; the raw medians and the speed
/// factor are printed beside them.
pub(crate) fn untraced(work: &Work, seconds: f64, size: Size) -> Outcome {
    let mut spans = Spans::new(false);
    let mut ops = Ops::default();
    let mut digests = Digests(None);
    // The calibration ring stays resident for the whole run; its pages are
    // left out of the reported peak. Built first, it gets fresh pages, so
    // the rise in `VmRSS` is exactly its own.
    let before = status_kib("VmRSS:");
    let mut speed = HostSpeed::new();
    let ring_kib = status_kib("VmRSS:") - before;
    let min_passes = match work {
        Work::Sims(_) => {
            let warm = work.pass(&mut spans, "warm-up", None);
            ops.add(warm.ops);
            digests.check(&mut ops, warm.digest);
            MIN_SIM_PASSES
        }
        Work::Sweep(_) => MIN_SWEEP_PASSES,
    };
    speed.resample();
    let (mut raw_setups, mut setups) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_BATCHES {
        setup_batch(work, size, &mut speed, &mut raw_setups, &mut setups);
    }
    let (mut raw_walls, mut walls) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    while walls.len() < min_passes || start.elapsed() < budget {
        let p = work.pass(&mut spans, "pass", Some(&mut speed));
        ops.add(p.ops);
        digests.check(&mut ops, p.digest);
        raw_walls.push(p.wall.as_secs_f64());
        walls.push(p.scaled_wall);
        setup_batch(work, size, &mut speed, &mut raw_setups, &mut setups);
    }
    Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: vec![
            Metric::sampled("wall_s", "s", &walls),
            Metric::sampled("setup_s", "s", &setups),
            Metric::new(
                "peak_rss_mib",
                (status_kib("VmHWM:") - ring_kib) / 1024.0,
                "MiB",
            ),
        ],
        notes: vec![
            Metric::sampled("raw_wall_s", "s", &raw_walls),
            Metric::sampled("raw_setup_s", "s", &raw_setups),
            Metric::sampled("host_speed", "ratio", speed.factors()),
        ],
        spans: None,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `p`-quantile (nearest rank) of `v`.
fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// The traced run: untraced, recorded and audited passes, the lock replay
/// and the layer micro-benchmarks, reported as per-layer metrics.
pub(crate) fn traced(work: &Work, seed: u64, size: Size) -> Outcome {
    let mut spans = Spans::new(true);
    let mut ops = Ops::default();
    let sims = match work {
        Work::Sims(w) => w,
        Work::Sweep(s) => &s.probe,
    };
    let warm = sim_pass(sims, &mut spans, "pass:warm-up", None, &mut |_, _| {});
    let base = sim_pass(sims, &mut spans, "pass:untraced", None, &mut |_, _| {});
    let mut recordings = Vec::new();
    let rec = sim_pass(sims, &mut spans, "pass:recorded", None, &mut |cfg, sim| {
        let (sink, handle) = Recorder::new(cfg.algorithm == CcAlgorithm::Blocking);
        sim.add_sink(Box::new(sink));
        recordings.push((cfg.algorithm, handle));
    });
    for p in [&warm, &base, &rec] {
        ops.add(p.ops);
    }
    // Observation must not perturb the simulation.
    ops.check(warm.digest == base.digest && base.digest == rec.digest);
    let recordings: Vec<(CcAlgorithm, Recording)> =
        recordings.into_iter().map(|(a, h)| (a, h.take())).collect();

    let mut m = engine_layers(sims, &base, &recordings, seed, size, &mut spans, &mut ops);

    let (exp_pass, audit_failures, overhead) = match work {
        Work::Sims(w) => {
            let audit_failures = if w.audited {
                let span = spans.open("pass:audited", SpanId::ROOT);
                let opts = RunOptions {
                    fidelity: Fidelity::Quick,
                    base_seed: seed,
                    threads: 1,
                    audit: true,
                    ..RunOptions::default()
                };
                let n = match run_experiment(&w.spec, &opts) {
                    Ok(r) => {
                        ops.check(r.is_clean());
                        r.audit_failures.len() as u64
                    }
                    Err(_) => {
                        ops.check(false);
                        0
                    }
                };
                spans.close(span);
                n
            } else {
                0
            };
            let overhead = ratio(rec.wall.as_secs_f64(), base.wall.as_secs_f64());
            (base, audit_failures, overhead)
        }
        Work::Sweep(s) => {
            let timed = sweep_pass(s, &s.opts, &mut spans, "pass:sweep", None, true);
            let audit_opts = RunOptions {
                audit: true,
                ..s.opts.clone()
            };
            let audited = sweep_pass(
                s,
                &audit_opts,
                &mut spans,
                "pass:sweep-audited",
                None,
                false,
            );
            ops.add(timed.ops);
            ops.add(audited.ops);
            // The auditor observes without perturbing.
            ops.check(timed.digest == audited.digest);
            let overhead = ratio(audited.wall.as_secs_f64(), timed.wall.as_secs_f64());
            (timed, audited.audit_failures, overhead)
        }
    };
    ops.check(audit_failures == 0);
    let parse_span = spans.open("experiments:json_parse", SpanId::ROOT);
    let t0 = Instant::now();
    for doc in &exp_pass.json {
        ops.check(json::parse(doc).is_ok());
    }
    let parse = t0.elapsed();
    spans.close(parse_span);
    m.extend([
        Metric::new(
            "experiments.points",
            exp_pass.point_secs.len() as f64,
            "count",
        ),
        Metric::new(
            "experiments.checks_failed",
            exp_pass.checks_failed as f64,
            "count",
        ),
        Metric::new(
            "experiments.point_p50_s",
            quantile(&exp_pass.point_secs, 0.5),
            "s",
        ),
        Metric::new(
            "experiments.point_p90_s",
            quantile(&exp_pass.point_secs, 0.9),
            "s",
        ),
        Metric::new("experiments.render_s", exp_pass.render.as_secs_f64(), "s"),
        Metric::new("experiments.json_parse_s", parse.as_secs_f64(), "s"),
        Metric::new("audit.violations", audit_failures as f64, "count"),
        Metric::new("trace.overhead_ratio", overhead, "ratio"),
    ]);
    Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: m,
        notes: Vec::new(),
        spans: Some(spans.to_json()),
    }
}

/// The `core`, `des`, `workload`, `lockmgr`, `occ` and `resources` layer
/// metrics of one simulation workload, from its untraced pass `base`, the
/// recordings of its recorded pass, the lock replay and the layer micro-benchmarks.
fn engine_layers(
    w: &SimWork,
    base: &Pass,
    recordings: &[(CcAlgorithm, Recording)],
    seed: u64,
    size: Size,
    spans: &mut Spans,
    ops: &mut Ops,
) -> Vec<Metric> {
    let perfs: Vec<&PerfStats> = base.runs.iter().map(|(_, p)| p).collect();
    let events: u64 = perfs.iter().map(|p| p.events).sum();
    let loop_wall: f64 = perfs.iter().map(|p| p.wall.as_secs_f64()).sum();
    let finish: f64 = base
        .runs
        .iter()
        .map(|(run, p)| run.saturating_sub(p.wall).as_secs_f64())
        .sum();
    let cal_ops: u64 = perfs
        .iter()
        .map(|p| p.calendar.schedules + p.calendar.pops + p.calendar.cancels)
        .sum();
    let lane_pops: u64 = perfs.iter().map(|p| p.calendar.lane_pops).sum();
    let pops: u64 = perfs.iter().map(|p| p.calendar.pops).sum();

    // The hold model runs at the largest recorded calendar and that run's
    // mean simulated time between events.
    let (peak_ix, peak) = perfs
        .iter()
        .map(|p| p.peak_calendar)
        .enumerate()
        .max_by_key(|&(_, peak)| peak)
        .unwrap_or((0, 1));
    let horizon_us = recordings
        .get(peak_ix)
        .and_then(|(_, r)| r.end)
        .map_or(0, |(now, _)| now.as_micros());
    let spacing =
        SimDuration::from_micros(horizon_us / perfs.get(peak_ix).map_or(1, |p| p.events.max(1)));
    let params = &w.spec.params;
    let micro = |spans: &mut Spans, name: &str, calls: Calls| {
        spans.summary(name, SpanId::ROOT, calls.calls, calls.total);
        calls.mean_ns(Duration::ZERO)
    };
    let hold = micro(
        spans,
        "micro:des.calendar.hold",
        layers::calendar_hold(peak, spacing, size.ops(2_000_000), seed),
    );
    let exp = micro(
        spans,
        "micro:des.variate.exp",
        layers::exp_variates(params.ext_think_time, size.ops(8_000_000), seed),
    );
    let next_spec = micro(
        spans,
        "micro:workload.next_spec",
        layers::generate_specs(params, size.ops(1_000_000), seed),
    );
    let validate = micro(
        spans,
        "micro:occ.validate",
        layers::validations(params, size.ops(1_000_000), seed),
    );

    let clock = layers::clock_overhead();
    let mut lock = LockReplay::default();
    for (algorithm, r) in recordings {
        if *algorithm != CcAlgorithm::Blocking {
            continue;
        }
        let replay =
            layers::replay_locks(&r.locks, params.db_size as usize, params.num_terms as usize);
        ops.check(
            replay.mismatches == 0 && replay.blocks == r.blocks && replay.deadlocks == r.deadlocks,
        );
        lock.requests += replay.requests;
        lock.blocks += replay.blocks;
        lock.deadlocks += replay.deadlocks;
        lock.mismatches += replay.mismatches;
        for (acc, c) in [
            (&mut lock.request, replay.request),
            (&mut lock.release, replay.release),
            (&mut lock.probe, replay.probe),
        ] {
            acc.calls += c.calls;
            acc.total += c.total;
        }
    }
    for (name, c) in [
        ("replay:lockmgr.request", lock.request),
        ("replay:lockmgr.release_all", lock.release),
        ("replay:lockmgr.find_deadlock", lock.probe),
    ] {
        spans.summary(name, SpanId::ROOT, c.calls, c.total);
    }

    let optimistic = recordings
        .iter()
        .filter(|(a, _)| *a == CcAlgorithm::Optimistic)
        .map(|(_, r)| r);
    let (validations, validation_failures) = optimistic.fold((0, 0), |(v, f), r| {
        (
            v + r.commits + r.validation_failures,
            f + r.validation_failures,
        )
    });

    let (mut cpu_busy, mut cpu_cap, mut disk_busy, mut disk_cap, mut served) =
        (0.0, 0.0, 0.0, 0.0, 0u64);
    for (_, r) in recordings {
        let Some((_, flow)) = r.end else { continue };
        let horizon = flow.horizon_us as f64;
        if let Some(c) = flow.cpu {
            cpu_busy += c.busy_us as f64;
            cpu_cap += horizon * c.servers as f64;
            served += c.served;
        }
        if let Some(d) = flow.disk {
            disk_busy += d.busy_us as f64;
            disk_cap += horizon * d.servers as f64;
            served += d.served;
        }
    }
    let elided: u64 = perfs
        .iter()
        .map(|p| p.elided_cpu_hops + p.elided_disk_hops)
        .sum();

    vec![
        Metric::new("core.events", events as f64, "count"),
        Metric::new("core.events_per_s", ratio(events as f64, loop_wall), "1/s"),
        Metric::new("core.finish_s", finish, "s"),
        Metric::new(
            "des.calendar.ops_per_event",
            ratio(cal_ops as f64, events as f64),
            "ratio",
        ),
        Metric::new(
            "des.calendar.lane_pop_share",
            ratio(lane_pops as f64, pops as f64),
            "ratio",
        ),
        Metric::new("des.calendar.peak", peak as f64, "count"),
        Metric::new("des.calendar.hold_ns", hold, "ns"),
        Metric::new("des.variate.exp_ns", exp, "ns"),
        Metric::new(
            "workload.specs",
            recordings.iter().map(|(_, r)| r.arrivals).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("workload.next_spec_ns", next_spec, "ns"),
        Metric::new("lockmgr.requests", lock.requests as f64, "count"),
        Metric::new(
            "lockmgr.block_ratio",
            ratio(lock.blocks as f64, lock.requests as f64),
            "ratio",
        ),
        Metric::new("lockmgr.deadlocks", lock.deadlocks as f64, "count"),
        Metric::new(
            "lockmgr.peak_locks",
            perfs.iter().map(|p| p.peak_lock_table).max().unwrap_or(0) as f64,
            "count",
        ),
        Metric::new("lockmgr.replay_mismatches", lock.mismatches as f64, "count"),
        Metric::new("lockmgr.request_ns", lock.request.mean_ns(clock), "ns"),
        Metric::new("lockmgr.release_ns", lock.release.mean_ns(clock), "ns"),
        Metric::new("lockmgr.deadlock_probe_ns", lock.probe.mean_ns(clock), "ns"),
        Metric::new("occ.validations", validations as f64, "count"),
        Metric::new(
            "occ.fail_ratio",
            ratio(validation_failures as f64, validations as f64),
            "ratio",
        ),
        Metric::new("occ.validate_ns", validate, "ns"),
        Metric::new("resources.cpu_util", ratio(cpu_busy, cpu_cap), "ratio"),
        Metric::new("resources.disk_util", ratio(disk_busy, disk_cap), "ratio"),
        Metric::new(
            "resources.elided_share",
            ratio(elided as f64, served as f64),
            "ratio",
        ),
    ]
}
