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
//! Every run executes once, under `catch_unwind` with the engine's
//! [`ccsim_core::RunBudget`] active, so a panicking, misconfigured, or
//! livelocked run becomes a typed [`PointFailure`] hole in the result
//! instead of aborting the sweep. A run is a pure function of its grid
//! coordinate, so running it again would fail the same way, and the hole's
//! record reads the same on every host and thread count. With a
//! [`SweepControl::checkpoint`] path, completed runs are journaled to a
//! manifest (atomic rewrite on every update); holes never are, so a later
//! run with [`SweepControl::resume`] skips the journaled runs, re-runs
//! exactly the holes, and — because seeds are coordinate-derived —
//! produces byte-identical final output once their cause is fixed. A
//! [`SweepControl::progress`] callback streams every settled coordinate as
//! it lands.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use ccsim_core::{MetricsConfig, Report, RunBudget, RunError, Simulator};
use ccsim_des::derive_seed;
use crossbeam::channel;

#[cfg(feature = "chaos")]
use crate::chaos::{ChaosKind, ChaosPoint};
use crate::manifest::{Manifest, ManifestEntry, ManifestError};
use crate::replicate::aggregate_reports;
use crate::spec::{DataPoint, ExperimentResult, ExperimentSpec, FailureKind, PointFailure};

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
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fidelity: Fidelity::Paper,
            base_seed: 0x0C55_1985,
            threads: 0,
            replications: 1,
            audit: false,
        }
    }
}

/// One settled grid coordinate, streamed to [`SweepControl::progress`] the
/// moment the supervisor records it. `report` is `None` for a point that
/// failed.
#[derive(Debug, Clone, Copy)]
pub struct PointProgress<'a> {
    /// Index of the series in the experiment spec.
    pub series_ix: usize,
    /// Multiprogramming level of the point.
    pub mpl: u32,
    /// Replication index of the point.
    pub rep: u32,
    /// The point's report; `None` when the point failed.
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
    /// coordinate's run fails.
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
    fn panic_at(self, series_ix: usize, mpl: u32, rep: u32) -> bool {
        #[cfg(feature = "chaos")]
        if let Some(p) = self.point {
            return p.kind == ChaosKind::Panic && p.targets(series_ix, mpl, rep);
        }
        let _ = (series_ix, mpl, rep);
        false
    }

    fn budget_cap_at(self, series_ix: usize, mpl: u32, rep: u32) -> Option<u64> {
        #[cfg(feature = "chaos")]
        if let Some(p) = self.point {
            if p.kind == ChaosKind::BudgetExhaust && p.targets(series_ix, mpl, rep) {
                return Some(ChaosPoint::TINY_EVENT_BUDGET);
            }
        }
        let _ = (series_ix, mpl, rep);
        None
    }
}

/// A run's report and audit summaries, or the typed failure for its hole.
type PointResult = Result<(Report, Vec<String>), (FailureKind, String)>;

/// What a worker reports back for one grid coordinate.
struct PointMsg {
    series_ix: usize,
    mpl: u32,
    rep: u32,
    outcome: PointResult,
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
fn run_point(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    series_ix: usize,
    mpl: u32,
    rep: u32,
    chaos: ChaosPlan,
) -> PointResult {
    let series = &spec.series[series_ix];
    let mut cfg = spec
        .config(
            series,
            mpl,
            opts.fidelity.metrics(),
            control_seed(opts.base_seed, series_ix, mpl, rep),
        )
        .with_workload_seed(workload_seed(opts.base_seed, mpl, rep));
    if let Some(cap) = chaos.budget_cap_at(series_ix, mpl, rep) {
        cfg = cfg.with_budget(RunBudget::unlimited().with_max_events(cap));
    }
    let inject_panic = chaos.panic_at(series_ix, mpl, rep);
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
    let mut failures_raw: Vec<(usize, u32, u32, FailureKind, String)> = Vec::new();
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
                    let outcome = run_point(spec_ref, opts, si, mpl, rep, chaos);
                    let msg = PointMsg {
                        series_ix: si,
                        mpl,
                        rep,
                        outcome,
                    };
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
        while let Ok(PointMsg {
            series_ix,
            mpl,
            rep,
            outcome,
        }) = res_rx.recv()
        {
            let progress = |report| {
                if let Some(cb) = ctl.progress {
                    cb(PointProgress {
                        series_ix,
                        mpl,
                        rep,
                        report,
                    });
                }
            };
            match outcome {
                // A completed run is journaled and counts toward
                // stop_after; a hole is neither, so a resume re-runs it.
                Ok((report, audit)) => {
                    if let Some(m) = manifest.as_mut() {
                        if let Err(e) = m.record(ManifestEntry {
                            series_ix,
                            mpl,
                            rep,
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
                    progress(Some(&report));
                    collected.push((series_ix, mpl, rep, report, audit));
                }
                Err((kind, detail)) => {
                    progress(None);
                    failures_raw.push((series_ix, mpl, rep, kind, detail));
                }
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
        .map(|(si, mpl, rep, kind, detail)| PointFailure {
            series: spec.series[si].label.clone(),
            mpl,
            rep,
            kind,
            detail,
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
