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
//! record reads the same on every host and thread count. The supervisor
//! queues the whole grid, lets the workers drain it, and collects every
//! result; a [`SweepControl::progress`] callback streams each settled
//! coordinate as it lands. There is no checkpoint: a paper-fidelity
//! `repro all` takes well under a minute, and a sweep that is stopped is
//! simply run again.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::{
    check_conflict_serializable, check_snapshot_isolation, CcAlgorithm, History, HistoryRecorder,
    MetricsConfig, Report, RunBudget, RunError, Simulator,
};
use ccsim_des::derive_seed;
use crossbeam::channel;

#[cfg(feature = "chaos")]
use crate::chaos::{ChaosKind, ChaosPoint};
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
    /// Attach the online invariant auditor (`ccsim-audit`) and the history
    /// recorder to every run, and judge each run's history with
    /// [`check_history`]. Violations do not abort the sweep; they are
    /// collected as summary lines in [`ExperimentResult::audit_failures`].
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

/// Supervisor controls orthogonal to [`RunOptions`]: progress streaming
/// and, with feature `chaos`, fault injection.
/// `SweepControl::default()` runs a plain sweep.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Called (on the supervisor thread) for every coordinate this sweep
    /// settles, completions and failures alike, as they land.
    pub progress: Option<&'a (dyn Fn(PointProgress<'_>) + Sync)>,
    /// Deterministic fault injection (feature `chaos`): the targeted grid
    /// coordinate's run fails.
    #[cfg(feature = "chaos")]
    pub chaos: Option<ChaosPoint>,
}

impl std::fmt::Debug for SweepControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SweepControl");
        d.field("progress", &self.progress.map(|_| "<callback>"));
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
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Pool(m) => write!(f, "worker pool failure: {m}"),
        }
    }
}

impl std::error::Error for SweepError {}

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

/// The history oracle: judge `history` by the guarantee `algo` makes —
/// snapshot isolation for mvcc-si, conflict serializability for every other
/// algorithm, no-cc included (the unsafe baseline, which is expected to
/// fail). Returns the guarantee's name and either a summary of a history
/// that keeps it or the violation found.
pub fn check_history(
    algo: CcAlgorithm,
    history: &History,
) -> (&'static str, Result<String, String>) {
    let n = history.len();
    if algo == CcAlgorithm::MvccSi {
        let verdict = check_snapshot_isolation(history).map(|si| {
            let skew = si.write_skew_pairs.len();
            format!("{n} committed transactions, {skew} write-skew pair(s)")
        });
        ("snapshot isolation", verdict.map_err(|v| v.to_string()))
    } else {
        let verdict = check_conflict_serializable(history)
            .map(|_| format!("{n} committed transactions, witness order found"));
        ("serializability", verdict.map_err(|c| c.to_string()))
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
    let algo = cfg.algorithm;
    let label = series.label.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        assert!(
            !inject_panic,
            "chaos: injected panic at {label}@{mpl} rep {rep}"
        );
        let mut sim = Simulator::new(cfg)?;
        let observers = audit.then(|| {
            let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
            sim.add_sink(Box::new(Rc::clone(&recorder)));
            (ccsim_audit::attach(&mut sim), recorder)
        });
        let out = sim.run_collecting().finished()?;
        let failures = observers.map_or_else(Vec::new, |(auditor, recorder)| {
            let mut found = auditor.borrow().report().summaries();
            let (guarantee, verdict) = check_history(algo, recorder.borrow().history());
            if let Err(violation) = verdict {
                found.push(format!("history oracle: {guarantee} VIOLATED: {violation}"));
            }
            found
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
/// runs become [`PointFailure`] holes; only a worker-pool fault aborts the
/// sweep.
///
/// # Errors
/// Returns [`SweepError`] on supervisor-level faults.
pub fn run_experiment(
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<ExperimentResult, SweepError> {
    run_experiment_supervised(spec, opts, &SweepControl::default())
}

/// [`run_experiment`] with explicit supervisor controls: progress
/// streaming and (with feature `chaos`) fault injection.
///
/// # Errors
/// Returns [`SweepError`] when a worker thread fails outside the per-run
/// isolation guard.
pub fn run_experiment_supervised(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    ctl: &SweepControl<'_>,
) -> Result<ExperimentResult, SweepError> {
    let metrics = opts.fidelity.metrics();
    let reps = opts.replications.max(1);
    let jobs: Vec<(usize, u32, u32)> = spec
        .series
        .iter()
        .enumerate()
        .flat_map(|(si, _)| {
            spec.mpls
                .iter()
                .flat_map(move |&mpl| (0..reps).map(move |rep| (si, mpl, rep)))
        })
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
    for job in &jobs {
        job_tx.send(*job).expect("queueing jobs");
    }
    drop(job_tx);

    let mut collected: Vec<(usize, u32, u32, Report, Vec<String>)> = Vec::new();
    let mut failures_raw: Vec<(usize, u32, u32, FailureKind, String)> = Vec::new();

    let pool = crossbeam::scope(|s| {
        for _ in 0..threads {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            s.spawn(move |_| {
                for (series_ix, mpl, rep) in &job_rx {
                    let outcome = run_point(spec, opts, series_ix, mpl, rep, chaos);
                    let msg = PointMsg {
                        series_ix,
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

        // Supervisor drain loop (runs on the calling thread): stream each
        // settled coordinate, then file it as a completion or a hole.
        for PointMsg {
            series_ix,
            mpl,
            rep,
            outcome,
        } in &res_rx
        {
            if let Some(cb) = ctl.progress {
                cb(PointProgress {
                    series_ix,
                    mpl,
                    rep,
                    report: outcome.as_ref().ok().map(|(report, _)| report),
                });
            }
            match outcome {
                Ok((report, audit)) => collected.push((series_ix, mpl, rep, report, audit)),
                Err((kind, detail)) => failures_raw.push((series_ix, mpl, rep, kind, detail)),
            }
        }
    });
    if pool.is_err() {
        return Err(SweepError::Pool(
            "a worker thread died outside the per-run isolation guard".to_string(),
        ));
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
        interrupted: false,
        warnings: Vec::new(),
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
    fn audited_sweep_runs_the_history_oracle_on_every_point() {
        let mut spec = tiny_spec();
        spec.mpls = vec![50];
        let mut unsafe_series = spec.series[0].clone();
        unsafe_series.label = "no-cc".to_string();
        unsafe_series.algorithm = CcAlgorithm::NoCc;
        spec.series = vec![spec.series[0].clone(), unsafe_series];
        spec.params.db_size = 200;
        let audited = run_experiment(
            &spec,
            &RunOptions {
                audit: true,
                replications: 2,
                ..tiny_opts()
            },
        )
        .expect("sweep completes");
        // The unsafe baseline fails the oracle at every point; the blocking
        // series stays clean.
        for rep in 0..2 {
            let prefix = format!("no-cc@50 rep {rep}: history oracle: serializability VIOLATED");
            assert!(
                audited
                    .audit_failures
                    .iter()
                    .any(|f| f.starts_with(&prefix)),
                "{prefix}: {:?}",
                audited.audit_failures
            );
        }
        assert!(
            audited
                .audit_failures
                .iter()
                .all(|f| f.starts_with("no-cc@")),
            "{:?}",
            audited.audit_failures
        );
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
            #[cfg(feature = "chaos")]
            chaos: None,
        };
        let result = run_experiment_supervised(&spec, &tiny_opts(), &ctl).expect("sweep completes");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), spec.num_runs());
        assert!(seen.iter().all(|&(.., ok)| ok));
        assert_eq!(result.points.len(), spec.num_runs());
    }
}
