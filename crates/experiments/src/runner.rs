//! The resilient sweep supervisor: runs an experiment's `(series × mpl ×
//! replication)` grid in parallel across OS threads, isolating each run so
//! one bad grid point cannot take down the sweep.
//!
//! Each run is an independent simulation, so parallelism is embarrassing;
//! results are deterministic because every run derives its seeds from the
//! experiment's base seed and its grid coordinates, not from scheduling
//! order.
//!
//! Seeding implements **common random numbers**: a run's *workload* seed is
//! derived from `(mpl, replication)` only — never the series — so at a
//! given point the same replication index drives every algorithm with the
//! same arrival, think-time, and access-pattern streams. The *control*
//! seed (restart delays) does include the series, keeping the algorithms'
//! internal randomness independent. Paired comparisons across series then
//! cancel the shared workload noise (see
//! [`ExperimentResult::paired_throughput_t`]).
//!
//! # Resilience
//!
//! Every run executes under `catch_unwind` with the engine's
//! [`ccsim_core::RunBudget`] active, so a panicking, misconfigured, or
//! livelocked run becomes a typed [`PointFailure`] hole in the result
//! instead of aborting the sweep. A [`RetryPolicy`] re-attempts failed
//! runs with deterministic exponential backoff, optionally falling back to
//! one degraded quick-fidelity fill. With a [`SweepControl::checkpoint`]
//! path, completed runs are journaled to a manifest (atomic rewrite on
//! every update); a later run with [`SweepControl::resume`] skips
//! journaled runs and — because seeds are coordinate-derived — produces
//! byte-identical final output. A [`SweepControl::progress`] callback
//! streams every settled coordinate as it lands.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ccsim_core::{MetricsConfig, Report, RunBudget, RunError, Simulator};
use ccsim_des::derive_seed;
use crossbeam::channel;

#[cfg(feature = "chaos")]
use crate::chaos::{ChaosKind, ChaosPoint};
use crate::manifest::{Manifest, ManifestEntry, ManifestError};
use crate::replicate::aggregate_reports;
use crate::spec::{
    DataPoint, ExperimentResult, ExperimentSpec, FailureKind, PointFailure, RetryOutcome,
};

/// Fidelity of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Paper-faithful: 20 batches of 150 s after warmup. Minutes per
    /// experiment.
    #[default]
    Paper,
    /// Shorter batches for smoke runs and CI. Seconds per experiment.
    Quick,
}

impl Fidelity {
    /// The metrics configuration this fidelity implies.
    #[must_use]
    pub fn metrics(self) -> MetricsConfig {
        match self {
            Fidelity::Paper => MetricsConfig::paper(),
            Fidelity::Quick => MetricsConfig::quick(),
        }
    }

    /// Stable lowercase token (used in the checkpoint manifest header).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Fidelity::Paper => "paper",
            Fidelity::Quick => "quick",
        }
    }
}

/// Per-point retry discipline: how many times a failed grid point is
/// re-attempted, how long to wait between attempts, and whether to fall
/// back to one degraded quick-fidelity fill once full-fidelity attempts
/// are exhausted.
///
/// Backoff is exponential with **deterministic jitter**: the wait before
/// attempt `k` is `min(base · 2^(k-2), max)` plus a jitter term derived
/// from `jitter_seed` and the grid coordinate — two sweeps with the same
/// policy produce the identical backoff schedule, point for point, so
/// retry behavior is as replayable as the simulations themselves (and
/// concurrently failing points still de-synchronize, since the jitter
/// varies per coordinate).
///
/// Attempt numbering is 1-based and counts every execution: attempt 1 is
/// the original run, attempts `2..=max_attempts` are full-fidelity
/// retries, and the optional degraded fill (when [`degrade_to_quick`] is
/// set) is one further attempt. A full-fidelity retry that succeeds is
/// recorded as [`RetryOutcome::Recovered`] and **is** checkpointed — the
/// report is exactly what the first attempt should have produced, because
/// seeds derive from the coordinate, not the attempt. A degraded fill is
/// recorded as [`RetryOutcome::Degraded`] and is **never** checkpointed,
/// so a resumed sweep re-attempts the point at full fidelity.
///
/// [`degrade_to_quick`]: RetryPolicy::degrade_to_quick
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total full-fidelity attempts per point, including the first
    /// (0 is treated as 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds. 0 disables
    /// waiting entirely.
    pub base_backoff_ms: u64,
    /// Ceiling on the exponential backoff (before jitter), in
    /// milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// After the last failed full-fidelity attempt, run once more at
    /// [`Fidelity::Quick`] to fill the hole with a degraded measurement.
    pub degrade_to_quick: bool,
}

impl RetryPolicy {
    /// No retries at all: one attempt, failures become holes.
    #[must_use]
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_seed: 0,
            degrade_to_quick: false,
        }
    }

    /// The historical `--retry-quick` behavior: no full-fidelity retries,
    /// one degraded quick-fidelity fill.
    #[must_use]
    pub const fn quick_once() -> Self {
        RetryPolicy {
            degrade_to_quick: true,
            ..Self::none()
        }
    }

    /// `max_attempts` full-fidelity attempts with the default backoff
    /// curve (50 ms base, 2 s ceiling) and no degraded fill.
    #[must_use]
    pub const fn retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
            jitter_seed: 0xBACC_0FF5,
            degrade_to_quick: false,
        }
    }

    /// Deterministic backoff (milliseconds) to wait *before* attempt
    /// `attempt` at the given grid coordinate. Attempt 1 (the original
    /// run) never waits; retries wait `min(base · 2^(attempt-2), max)`
    /// plus a jitter of up to a quarter of that, derived from
    /// `jitter_seed` and the coordinate.
    #[must_use]
    pub fn backoff_ms(&self, series_ix: usize, mpl: u32, rep: u32, attempt: u32) -> u64 {
        if attempt <= 1 || self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = (attempt - 2).min(20);
        let ceiling = self.max_backoff_ms.max(self.base_backoff_ms);
        let raw = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(ceiling);
        let span = raw / 4;
        let jitter = if span == 0 {
            0
        } else {
            derive_seed(
                self.jitter_seed,
                &[
                    series_ix as u64 + 1,
                    u64::from(mpl),
                    u64::from(rep),
                    u64::from(attempt),
                ],
            ) % (span + 1)
        };
        raw + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Options for [`run_experiment`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Sweep fidelity.
    pub fidelity: Fidelity,
    /// Base seed; each grid point gets a distinct derived seed.
    pub base_seed: u64,
    /// Threads running grid points in parallel (0 = one per available
    /// core).
    pub threads: usize,
    /// Independent replications per `(series, mpl)` point (0 is treated
    /// as 1). Replication `i` reuses one workload stream across all
    /// series — common random numbers.
    pub replications: u32,
    /// Attach the online invariant auditor (`ccsim-audit`) to every run.
    /// Violations do not abort the sweep; they are collected as summary
    /// lines in [`ExperimentResult::audit_failures`].
    pub audit: bool,
    /// Retry discipline for failed grid points (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fidelity: Fidelity::Paper,
            base_seed: 0x0C55_1985,
            threads: 0,
            replications: 1,
            audit: false,
            retry: RetryPolicy::none(),
        }
    }
}

/// One settled grid coordinate, streamed to [`SweepControl::progress`] the
/// moment the supervisor records it. `report` is `None` for a point that
/// failed without a fill.
#[derive(Debug, Clone, Copy)]
pub struct PointProgress<'a> {
    /// Index of the series in the experiment spec.
    pub series_ix: usize,
    /// Multiprogramming level of the point.
    pub mpl: u32,
    /// Replication index of the point.
    pub rep: u32,
    /// The point's report; `None` when the point failed unfilled.
    pub report: Option<&'a Report>,
}

/// Supervisor controls orthogonal to [`RunOptions`]: checkpointing,
/// resumption, stop requests, and progress streaming.
/// `SweepControl::default()` runs a plain uncheckpointed sweep.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Journal completed runs to this manifest path (see
    /// [`crate::manifest`]).
    pub checkpoint: Option<&'a std::path::Path>,
    /// Skip runs already journaled in the checkpoint manifest (which must
    /// match this sweep's spec and options).
    pub resume: bool,
    /// Cooperative stop flag (e.g. set by a SIGINT handler). Checked
    /// between run completions; in-flight runs finish and are journaled,
    /// queued runs are abandoned, and the result is marked
    /// [`ExperimentResult::interrupted`].
    pub interrupt: Option<&'a AtomicBool>,
    /// Stop (as if interrupted) after this many newly journaled runs —
    /// the deterministic "kill after K points" hook used by resume tests.
    pub stop_after: Option<u64>,
    /// Called (on the supervisor thread) for every coordinate this sweep
    /// settles, completions and failures alike, as they land. Runs
    /// replayed from a resumed checkpoint manifest are not reported.
    pub progress: Option<&'a (dyn Fn(PointProgress<'_>) + Sync)>,
    /// Deterministic fault injection (feature `chaos`): the targeted grid
    /// coordinate's first `fail_attempts` attempts fail.
    #[cfg(feature = "chaos")]
    pub chaos: Option<ChaosPoint>,
}

impl std::fmt::Debug for SweepControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SweepControl");
        d.field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("interrupt", &self.interrupt)
            .field("stop_after", &self.stop_after)
            .field("progress", &self.progress.map(|_| "<callback>"));
        #[cfg(feature = "chaos")]
        d.field("chaos", &self.chaos);
        d.finish()
    }
}

/// A sweep-level failure: the supervisor itself (not an individual run)
/// could not proceed.
#[derive(Debug)]
pub enum SweepError {
    /// The worker pool failed outside the per-run isolation guard.
    Pool(String),
    /// The checkpoint manifest could not be opened, validated, or written.
    Manifest(ManifestError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Pool(m) => write!(f, "worker pool failure: {m}"),
            SweepError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Pool(_) => None,
            SweepError::Manifest(e) => Some(e),
        }
    }
}

impl From<ManifestError> for SweepError {
    fn from(e: ManifestError) -> Self {
        SweepError::Manifest(e)
    }
}

/// Domain tags keeping the workload and control seed families disjoint.
const WORKLOAD_DOMAIN: u64 = 1;
const CONTROL_DOMAIN: u64 = 2;

/// Workload-stream seed for one run. Deliberately independent of the
/// series: all algorithms at `(mpl, rep)` see the same transaction mix.
fn workload_seed(base: u64, mpl: u32, rep: u32) -> u64 {
    derive_seed(base, &[WORKLOAD_DOMAIN, u64::from(mpl), u64::from(rep)])
}

/// Control-stream seed for one run (restart delays etc.); series-specific.
fn control_seed(base: u64, series_ix: usize, mpl: u32, rep: u32) -> u64 {
    derive_seed(
        base,
        &[
            CONTROL_DOMAIN,
            series_ix as u64 + 1,
            u64::from(mpl),
            u64::from(rep),
        ],
    )
}

/// Chaos plan resolved from [`SweepControl`]; a no-op without the feature.
#[derive(Debug, Clone, Copy, Default)]
struct ChaosPlan {
    #[cfg(feature = "chaos")]
    point: Option<ChaosPoint>,
}

impl ChaosPlan {
    fn panic_at(self, series_ix: usize, mpl: u32, rep: u32, attempt: u32) -> bool {
        #[cfg(feature = "chaos")]
        if let Some(p) = self.point {
            return p.kind == ChaosKind::Panic && p.targets(series_ix, mpl, rep, attempt);
        }
        let _ = (series_ix, mpl, rep, attempt);
        false
    }

    fn budget_cap_at(self, series_ix: usize, mpl: u32, rep: u32, attempt: u32) -> Option<u64> {
        #[cfg(feature = "chaos")]
        if let Some(p) = self.point {
            if p.kind == ChaosKind::BudgetExhaust && p.targets(series_ix, mpl, rep, attempt) {
                return Some(ChaosPoint::TINY_EVENT_BUDGET);
            }
        }
        let _ = (series_ix, mpl, rep, attempt);
        None
    }
}

/// What a worker reports back for one grid coordinate. A clean run has
/// `success` only; an unfilled failure has `failure` only; a recovered or
/// degraded retry carries both — the filling report plugs the hole while
/// the original failure stays on record. `journal` marks reports safe to
/// checkpoint: clean runs and full-fidelity recoveries, never degraded
/// quick-fidelity fills.
struct PointMsg {
    series_ix: usize,
    mpl: u32,
    rep: u32,
    success: Option<(Report, Vec<String>)>,
    failure: Option<(FailureKind, String, RetryOutcome)>,
    journal: bool,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Execute one run under panic isolation. `Err` carries the typed failure
/// for the hole record.
#[allow(clippy::too_many_arguments)]
fn run_point(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    metrics: MetricsConfig,
    series_ix: usize,
    mpl: u32,
    rep: u32,
    chaos: ChaosPlan,
    attempt: u32,
) -> Result<(Report, Vec<String>), (FailureKind, String)> {
    let series = &spec.series[series_ix];
    let mut cfg = spec
        .config(
            series,
            mpl,
            metrics,
            control_seed(opts.base_seed, series_ix, mpl, rep),
        )
        .with_workload_seed(workload_seed(opts.base_seed, mpl, rep));
    if let Some(cap) = chaos.budget_cap_at(series_ix, mpl, rep, attempt) {
        cfg = cfg.with_budget(RunBudget::unlimited().with_max_events(cap));
    }
    let inject_panic = chaos.panic_at(series_ix, mpl, rep, attempt);
    let audit = opts.audit;
    let label = series.label.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        assert!(
            !inject_panic,
            "chaos: injected panic at {label}@{mpl} rep {rep}"
        );
        let mut sim = Simulator::new(cfg)?;
        let auditor = audit.then(|| ccsim_audit::attach(&mut sim));
        let out = sim.run_collecting().finished()?;
        let failures = auditor.map_or_else(Vec::new, |a| {
            let summaries = a.borrow().report().summaries();
            summaries
                .into_iter()
                .map(|v| format!("{label}@{mpl} rep {rep}: {v}"))
                .collect()
        });
        Ok::<_, RunError>((out.report, failures))
    }));
    match outcome {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e @ RunError::BudgetExhausted { .. })) => Err((FailureKind::Budget, e.to_string())),
        Ok(Err(e @ RunError::InvalidConfig(_))) => Err((FailureKind::Config, e.to_string())),
        Err(payload) => Err((FailureKind::Panic, panic_message(payload.as_ref()))),
    }
}

/// Sleep `ms` milliseconds in short slices, returning early (false) if the
/// sweep is cancelled — a long backoff must not delay shutdown.
fn backoff_sleep(ms: u64, cancel: &AtomicBool) -> bool {
    const SLICE_MS: u64 = 25;
    let mut left = ms;
    while left > 0 {
        if cancel.load(Ordering::Relaxed) {
            return false;
        }
        let step = left.min(SLICE_MS);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
    }
    !cancel.load(Ordering::Relaxed)
}

/// Drive one grid coordinate through the full retry discipline: the
/// original run, up to `max_attempts - 1` full-fidelity retries with
/// deterministic backoff, then (optionally) one degraded quick-fidelity
/// fill. The first failure's kind and detail are what gets recorded — the
/// later attempts exist to fill the hole, not to re-diagnose it.
#[allow(clippy::too_many_arguments)]
fn attempt_point(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    metrics: MetricsConfig,
    si: usize,
    mpl: u32,
    rep: u32,
    chaos: ChaosPlan,
    cancel: &AtomicBool,
) -> PointMsg {
    let policy = opts.retry;
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 1u32;
    let mut first_failure: Option<(FailureKind, String)> = None;
    loop {
        match run_point(spec, opts, metrics, si, mpl, rep, chaos, attempt) {
            Ok(success) => {
                let failure = first_failure.map(|(kind, detail)| {
                    (kind, detail, RetryOutcome::Recovered { attempts: attempt })
                });
                return PointMsg {
                    series_ix: si,
                    mpl,
                    rep,
                    success: Some(success),
                    failure,
                    journal: true,
                };
            }
            Err((kind, detail)) => {
                if first_failure.is_none() {
                    first_failure = Some((kind, detail));
                }
                if attempt < max_attempts {
                    attempt += 1;
                    if backoff_sleep(policy.backoff_ms(si, mpl, rep, attempt), cancel) {
                        continue;
                    }
                    // Cancelled mid-backoff: give up on the point without
                    // burning more attempts.
                    attempt -= 1;
                }
                break;
            }
        }
    }
    let (kind, detail) = first_failure.expect("loop only breaks after a failure");
    if policy.degrade_to_quick && !cancel.load(Ordering::Relaxed) {
        attempt += 1;
        return match run_point(
            spec,
            opts,
            Fidelity::Quick.metrics(),
            si,
            mpl,
            rep,
            chaos,
            attempt,
        ) {
            Ok(success) => PointMsg {
                series_ix: si,
                mpl,
                rep,
                success: Some(success),
                failure: Some((kind, detail, RetryOutcome::Degraded { attempts: attempt })),
                journal: false,
            },
            Err(_) => PointMsg {
                series_ix: si,
                mpl,
                rep,
                success: None,
                failure: Some((kind, detail, RetryOutcome::Failed { attempts: attempt })),
                journal: false,
            },
        };
    }
    let retry = if attempt > 1 {
        RetryOutcome::Failed { attempts: attempt }
    } else {
        RetryOutcome::NotAttempted
    };
    PointMsg {
        series_ix: si,
        mpl,
        rep,
        success: None,
        failure: Some((kind, detail, retry)),
        journal: false,
    }
}

/// Run every replication of every point of `spec` and collect the results
/// (ordered by series, then mpl, regardless of completion order). Failed
/// runs become [`PointFailure`] holes; only a supervisor-level fault
/// (worker pool, checkpoint manifest) aborts the sweep.
///
/// # Errors
/// Returns [`SweepError`] on supervisor-level faults.
pub fn run_experiment(
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<ExperimentResult, SweepError> {
    run_experiment_supervised(spec, opts, &SweepControl::default())
}

/// [`run_experiment`] with explicit supervisor controls: checkpointing,
/// resume, cooperative interruption, and (with feature `chaos`) fault
/// injection.
///
/// # Errors
/// Returns [`SweepError`] on supervisor-level faults — a manifest that
/// cannot be opened/validated/written, or a worker-pool failure outside
/// the per-run isolation guard.
pub fn run_experiment_supervised(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    ctl: &SweepControl<'_>,
) -> Result<ExperimentResult, SweepError> {
    let metrics = opts.fidelity.metrics();
    let reps = opts.replications.max(1);

    let mut manifest = match ctl.checkpoint {
        Some(path) => Some(Manifest::open(path, spec, opts, ctl.resume)?),
        None => None,
    };
    let done: HashSet<(usize, u32, u32)> = manifest
        .as_ref()
        .map(Manifest::completed)
        .unwrap_or_default();
    // Journaled runs enter the collection exactly as if they had just run.
    let mut collected: Vec<(usize, u32, u32, Report, Vec<String>)> = manifest
        .as_ref()
        .map(|m| {
            m.entries()
                .iter()
                .map(|e| (e.series_ix, e.mpl, e.rep, e.report.clone(), e.audit.clone()))
                .collect()
        })
        .unwrap_or_default();
    let jobs: Vec<(usize, u32, u32)> = spec
        .series
        .iter()
        .enumerate()
        .flat_map(|(si, _)| {
            spec.mpls
                .iter()
                .flat_map(move |&mpl| (0..reps).map(move |rep| (si, mpl, rep)))
        })
        .filter(|coord| !done.contains(coord))
        .collect();

    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    }
    .min(jobs.len().max(1));

    let chaos = ChaosPlan {
        #[cfg(feature = "chaos")]
        point: ctl.chaos,
    };

    let (job_tx, job_rx) = channel::unbounded::<(usize, u32, u32)>();
    let (res_tx, res_rx) = channel::unbounded::<PointMsg>();
    let mut interrupted = false;
    // An interrupt raised before the sweep starts abandons the whole queue
    // (checked here, before any sweep thread starts, so no run can slip
    // through).
    if ctl.interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
        interrupted = true;
    } else {
        for job in &jobs {
            job_tx.send(*job).expect("queueing jobs");
        }
    }
    drop(job_tx);

    let cancel = AtomicBool::new(false);
    let mut failures_raw: Vec<(usize, u32, u32, FailureKind, String, RetryOutcome)> = Vec::new();
    let mut manifest_err: Option<ManifestError> = None;
    let mut newly_completed: u64 = 0;

    let pool = crossbeam::scope(|s| {
        for _ in 0..threads {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let cancel = &cancel;
            let spec_ref = &*spec;
            s.spawn(move |_| {
                while !cancel.load(Ordering::Relaxed) {
                    let Ok((si, mpl, rep)) = job_rx.recv() else {
                        break;
                    };
                    let msg = attempt_point(spec_ref, opts, metrics, si, mpl, rep, chaos, cancel);
                    if res_tx.send(msg).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);

        // Supervisor drain loop (runs on the calling thread): journal
        // completions, record failures, honor stop requests. A stop lets
        // in-flight runs finish (and journals them) but abandons the
        // queue.
        let stop = |interrupted: &mut bool| {
            *interrupted = true;
            cancel.store(true, Ordering::Relaxed);
            while job_rx.try_recv().is_some() {}
        };
        while let Ok(msg) = res_rx.recv() {
            if let Some((report, audit)) = msg.success {
                // Clean runs and full-fidelity recoveries are journaled
                // and count toward stop_after; degraded fills are neither.
                if msg.journal {
                    if let Some(m) = manifest.as_mut() {
                        if let Err(e) = m.record(ManifestEntry {
                            series_ix: msg.series_ix,
                            mpl: msg.mpl,
                            rep: msg.rep,
                            audit: audit.clone(),
                            report: report.clone(),
                        }) {
                            if manifest_err.is_none() {
                                manifest_err = Some(ManifestError::Io(e));
                                stop(&mut interrupted);
                            }
                        }
                    }
                    newly_completed += 1;
                }
                if let Some(cb) = ctl.progress {
                    cb(PointProgress {
                        series_ix: msg.series_ix,
                        mpl: msg.mpl,
                        rep: msg.rep,
                        report: Some(&report),
                    });
                }
                collected.push((msg.series_ix, msg.mpl, msg.rep, report, audit));
            } else if let Some(cb) = ctl.progress {
                cb(PointProgress {
                    series_ix: msg.series_ix,
                    mpl: msg.mpl,
                    rep: msg.rep,
                    report: None,
                });
            }
            if let Some((kind, detail, retry)) = msg.failure {
                failures_raw.push((msg.series_ix, msg.mpl, msg.rep, kind, detail, retry));
            }
            let stop_hit = ctl.stop_after.is_some_and(|k| newly_completed >= k);
            let intr_hit = ctl.interrupt.is_some_and(|f| f.load(Ordering::Relaxed));
            if (stop_hit || intr_hit) && !cancel.load(Ordering::Relaxed) {
                stop(&mut interrupted);
            }
        }
    });
    if pool.is_err() {
        return Err(SweepError::Pool(
            "a worker thread died outside the per-run isolation guard".to_string(),
        ));
    }
    if let Some(e) = manifest_err {
        return Err(SweepError::Manifest(e));
    }

    collected.sort_by_key(|(si, mpl, rep, _, _)| (*si, *mpl, *rep));
    let audit_failures: Vec<String> = collected
        .iter()
        .flat_map(|(_, _, _, _, f)| f.iter().cloned())
        .collect();
    let points = collected
        .chunk_by(|a, b| a.0 == b.0 && a.1 == b.1)
        .map(|chunk| {
            let (si, mpl, _, _, _) = chunk[0];
            let replicates: Vec<Report> = chunk.iter().map(|(_, _, _, r, _)| r.clone()).collect();
            DataPoint {
                series: spec.series[si].label.clone(),
                mpl,
                report: aggregate_reports(&replicates, metrics.confidence)
                    .expect("chunks are non-empty by construction"),
                replicates,
            }
        })
        .collect();
    failures_raw.sort_by_key(|a| (a.0, a.1, a.2));
    let failures = failures_raw
        .into_iter()
        .map(|(si, mpl, rep, kind, detail, retry)| PointFailure {
            series: spec.series[si].label.clone(),
            mpl,
            rep,
            kind,
            detail,
            retry,
        })
        .collect();
    Ok(ExperimentResult {
        spec: spec.clone(),
        points,
        audit_failures,
        failures,
        interrupted,
        warnings: manifest
            .as_ref()
            .map(|m| m.warnings().to_vec())
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

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

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = catalog::exp3();
        spec.mpls = vec![5, 25];
        spec
    }

    #[test]
    fn runs_full_grid_in_order() {
        let spec = tiny_spec();
        let result = run_experiment(&spec, &tiny_opts()).expect("sweep completes");
        assert_eq!(result.points.len(), spec.num_runs());
        assert!(result.is_clean());
        let labels: Vec<&str> = result.points.iter().map(|p| p.series.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "blocking",
                "blocking",
                "immediate-restart",
                "immediate-restart",
                "optimistic",
                "optimistic"
            ]
        );
        assert_eq!(result.points[0].mpl, 5);
        assert_eq!(result.points[1].mpl, 25);
        for p in &result.points {
            assert!(p.report.commits > 0, "{}@{} ran nothing", p.series, p.mpl);
            assert_eq!(p.replicates.len(), 1);
            assert_eq!(p.replicates[0], p.report);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let spec = tiny_spec();
        let par = run_experiment(&spec, &tiny_opts()).expect("sweep completes");
        let ser = run_experiment(
            &spec,
            &RunOptions {
                threads: 1,
                ..tiny_opts()
            },
        )
        .expect("sweep completes");
        for (a, b) in par.points.iter().zip(ser.points.iter()) {
            assert_eq!(a.series, b.series);
            assert_eq!(a.mpl, b.mpl);
            assert_eq!(a.report, b.report, "{}@{} differs", a.series, a.mpl);
        }
    }

    #[test]
    fn replications_aggregate_per_point() {
        let mut spec = tiny_spec();
        spec.mpls = vec![5];
        let result = run_experiment(
            &spec,
            &RunOptions {
                replications: 2,
                ..tiny_opts()
            },
        )
        .expect("sweep completes");
        assert_eq!(result.points.len(), 3);
        assert_eq!(result.replications(), 2);
        for p in &result.points {
            assert_eq!(p.replicates.len(), 2);
            assert_ne!(
                p.replicates[0], p.replicates[1],
                "{}@{}: replications should differ",
                p.series, p.mpl
            );
            let mean = (p.replicates[0].throughput.mean + p.replicates[1].throughput.mean) / 2.0;
            assert!((p.report.throughput.mean - mean).abs() < 1e-12);
            assert_eq!(
                p.report.commits,
                p.replicates[0].commits + p.replicates[1].commits
            );
        }
    }

    #[test]
    fn audited_sweep_is_clean_and_identical_to_unaudited() {
        let mut spec = tiny_spec();
        spec.mpls = vec![5];
        let plain = run_experiment(&spec, &tiny_opts()).expect("sweep completes");
        let audited = run_experiment(
            &spec,
            &RunOptions {
                audit: true,
                ..tiny_opts()
            },
        )
        .expect("sweep completes");
        assert!(
            audited.audit_failures.is_empty(),
            "audit violations: {:?}",
            audited.audit_failures
        );
        assert!(plain.audit_failures.is_empty());
        // Observing the run must not perturb it.
        for (a, b) in plain.points.iter().zip(audited.points.iter()) {
            assert_eq!(
                a.report, b.report,
                "{}@{} differs under audit",
                a.series, a.mpl
            );
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        // Workload seeds ignore the series (common random numbers)...
        assert_eq!(workload_seed(1, 5, 0), workload_seed(1, 5, 0));
        assert_ne!(workload_seed(1, 5, 0), workload_seed(1, 5, 1));
        assert_ne!(workload_seed(1, 5, 0), workload_seed(1, 10, 0));
        // ...while control seeds are series-specific and never collide
        // with workload seeds.
        assert_ne!(control_seed(1, 0, 5, 0), control_seed(1, 1, 5, 0));
        assert_ne!(control_seed(1, 0, 5, 0), control_seed(1, 0, 5, 1));
        assert_ne!(control_seed(1, 0, 5, 0), workload_seed(1, 5, 0));
    }

    #[test]
    fn result_accessors() {
        let spec = tiny_spec();
        let result = run_experiment(&spec, &tiny_opts()).expect("sweep completes");
        let pts = result.series_points("blocking");
        assert_eq!(pts.len(), 2);
        assert!(pts[0].mpl < pts[1].mpl);
        let peak = result.peak_throughput("blocking");
        assert!(peak > 0.0);
        assert!(result.throughput_at("blocking", 5).is_some());
        assert!(result.throughput_at("blocking", 999).is_none());
    }

    #[test]
    fn invalid_config_becomes_a_typed_hole_not_a_crash() {
        let mut spec = tiny_spec();
        spec.mpls = vec![0, 5]; // mpl 0 fails validation in every series
        let result = run_experiment(&spec, &tiny_opts()).expect("sweep completes");
        assert!(!result.is_clean());
        assert_eq!(result.failures.len(), 3, "one config failure per series");
        for f in &result.failures {
            assert_eq!(f.kind, FailureKind::Config);
            assert_eq!(f.mpl, 0);
            assert_eq!(f.retry, RetryOutcome::NotAttempted);
        }
        // The valid mpl still ran everywhere.
        assert_eq!(result.points.len(), 3);
        assert!(result.points.iter().all(|p| p.mpl == 5));
        assert_eq!(result.holes().len(), 3);
    }

    #[test]
    fn stop_after_marks_result_interrupted() {
        let spec = tiny_spec();
        let ctl = SweepControl {
            stop_after: Some(2),
            ..SweepControl::default()
        };
        let result = run_experiment_supervised(
            &spec,
            &RunOptions {
                threads: 1,
                ..tiny_opts()
            },
            &ctl,
        )
        .expect("sweep stops cleanly");
        assert!(result.interrupted);
        assert!(result.points.len() < spec.num_runs());
        assert!(!result.points.is_empty());
    }

    #[test]
    fn progress_streams_every_settled_point() {
        use std::sync::Mutex;
        type Seen = (usize, u32, u32, bool);
        let spec = tiny_spec();
        let seen: Mutex<Vec<Seen>> = Mutex::new(Vec::new());
        let cb = |p: PointProgress<'_>| {
            seen.lock()
                .unwrap()
                .push((p.series_ix, p.mpl, p.rep, p.report.is_some()));
        };
        let ctl = SweepControl {
            progress: Some(&cb),
            ..SweepControl::default()
        };
        let result = run_experiment_supervised(&spec, &tiny_opts(), &ctl).expect("sweep completes");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), spec.num_runs());
        assert!(seen.iter().all(|&(.., ok)| ok));
        assert_eq!(result.points.len(), spec.num_runs());
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 100,
            max_backoff_ms: 800,
            jitter_seed: 7,
            degrade_to_quick: false,
        };
        // Attempt 1 (the original run) never waits.
        assert_eq!(policy.backoff_ms(0, 50, 0, 1), 0);
        // Identical inputs give identical waits...
        assert_eq!(
            policy.backoff_ms(0, 50, 0, 2),
            policy.backoff_ms(0, 50, 0, 2)
        );
        // ...and different coordinates de-synchronize via jitter (the
        // probability all three agree by chance is ~(1/26)^2).
        let waits: Vec<u64> = [(0usize, 0u32), (1, 0), (0, 1)]
            .iter()
            .map(|&(si, rep)| policy.backoff_ms(si, 50, rep, 2))
            .collect();
        assert!(
            waits[0] != waits[1] || waits[0] != waits[2],
            "jitter failed to separate coordinates: {waits:?}"
        );
        for attempt in 2..=8 {
            let raw_exp = 100u64 << (attempt - 2);
            let raw = raw_exp.min(800);
            let w = policy.backoff_ms(2, 10, 3, attempt);
            assert!(
                w >= raw && w <= raw + raw / 4,
                "attempt {attempt}: wait {w} outside [{raw}, {}]",
                raw + raw / 4
            );
        }
        // Zero base disables waiting entirely.
        assert_eq!(RetryPolicy::none().backoff_ms(0, 50, 0, 5), 0);
        // quick_once reproduces the historical one-shot degraded retry.
        let q = RetryPolicy::quick_once();
        assert_eq!(q.max_attempts, 1);
        assert!(q.degrade_to_quick);
    }

    #[test]
    fn preset_interrupt_flag_stops_before_any_run() {
        let spec = tiny_spec();
        let flag = AtomicBool::new(true);
        let ctl = SweepControl {
            interrupt: Some(&flag),
            ..SweepControl::default()
        };
        let result =
            run_experiment_supervised(&spec, &tiny_opts(), &ctl).expect("sweep stops cleanly");
        assert!(result.interrupted);
        assert!(result.points.is_empty());
    }
}
