//! Experiment definitions: what to run and which paper figures the runs
//! regenerate.

use ccsim_core::{CcAlgorithm, MetricsConfig, Params, Report, SimConfig, VictimPolicy};
use ccsim_stats::{paired_t, Confidence, PairedT};

/// Which observable a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Throughput (commits/second) vs. multiprogramming level.
    Throughput,
    /// Block ratio and restart ratio vs. multiprogramming level (Figure 6).
    ConflictRatios,
    /// Mean and standard deviation of response time (Figures 7, 10).
    ResponseTime,
    /// Total and useful disk utilization (Figures 9, 13, 15, 17, 19, 21).
    DiskUtil,
}

/// One figure regenerated from an experiment's runs.
#[derive(Debug, Clone)]
pub struct FigureView {
    /// Paper label, e.g. `"Figure 5"`.
    pub figure: &'static str,
    /// Caption from the paper.
    pub caption: &'static str,
    /// What it plots.
    pub kind: FigureKind,
}

/// One curve in a figure: a label plus the knobs that distinguish it from
/// the other curves (algorithm, victim policy).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Algorithm under test.
    pub algorithm: CcAlgorithm,
    /// Victim policy (blocking only; default elsewhere).
    pub victim: VictimPolicy,
}

impl Series {
    /// The standard series for one of the paper's algorithms.
    #[must_use]
    pub fn paper(algorithm: CcAlgorithm) -> Self {
        Series {
            label: algorithm.label().to_string(),
            algorithm,
            victim: VictimPolicy::Youngest,
        }
    }

    /// The paper's three curves.
    #[must_use]
    pub fn paper_trio() -> Vec<Series> {
        CcAlgorithm::PAPER_TRIO
            .iter()
            .copied()
            .map(Series::paper)
            .collect()
    }

    /// The paper's three curves plus the modern in-memory protocols
    /// (MVCC-SI, Silo OCC, TicToc). The moderns are appended *after* the
    /// trio: control seeds are derived per series index, so extending a
    /// sweep this way leaves the original curves' runs byte-identical.
    #[must_use]
    pub fn paper_trio_with_modern() -> Vec<Series> {
        let mut series = Series::paper_trio();
        series.extend(CcAlgorithm::MODERN_TRIO.iter().copied().map(Series::paper));
        series
    }
}

/// A full experiment: a parameter sweep whose runs regenerate one or more
/// figures.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Short stable identifier (CLI argument), e.g. `"exp2"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Base parameters; `mpl` is overridden per point.
    pub params: Params,
    /// The curves.
    pub series: Vec<Series>,
    /// The x-axis: multiprogramming levels.
    pub mpls: Vec<u32>,
    /// Apply the adaptive restart delay to every algorithm (Figure 11).
    pub restart_delay_for_all: bool,
    /// The figures these runs regenerate.
    pub views: Vec<FigureView>,
}

impl ExperimentSpec {
    /// Materialize the simulator configuration for one `(series, mpl)`
    /// point.
    #[must_use]
    pub fn config(
        &self,
        series: &Series,
        mpl: u32,
        metrics: MetricsConfig,
        seed: u64,
    ) -> SimConfig {
        let mut cfg = SimConfig::new(series.algorithm)
            .with_params(self.params.clone().with_mpl(mpl))
            .with_metrics(metrics)
            .with_seed(seed);
        cfg.victim = series.victim;
        cfg.restart_delay_for_all = self.restart_delay_for_all;
        cfg
    }

    /// Number of simulation runs this experiment needs.
    #[must_use]
    pub fn num_runs(&self) -> usize {
        self.series.len() * self.mpls.len()
    }
}

/// One measured point: a series at one multiprogramming level.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// Legend label of the series this point belongs to.
    pub series: String,
    /// Multiprogramming level.
    pub mpl: u32,
    /// The aggregate report. With one replication this is that run's
    /// report verbatim; with several, scalar metrics are averaged across
    /// replications and `report.throughput` carries the cross-replication
    /// mean with its Student-t half-width.
    pub report: Report,
    /// Per-replication reports, in replication order (always at least one).
    pub replicates: Vec<Report>,
}

impl DataPoint {
    /// A point measured by a single run (the aggregate *is* the run).
    #[must_use]
    pub fn single(series: String, mpl: u32, report: Report) -> Self {
        DataPoint {
            series,
            mpl,
            replicates: vec![report.clone()],
            report,
        }
    }

    /// Number of replications behind this point.
    #[must_use]
    pub fn replication_count(&self) -> usize {
        self.replicates.len().max(1)
    }
}

/// Why a grid point's run failed (see [`PointFailure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked; the supervisor caught the unwind.
    Panic,
    /// The run exceeded its [`ccsim_core::RunBudget`].
    Budget,
    /// The materialized configuration failed validation.
    Config,
}

impl FailureKind {
    /// Stable lowercase token used in JSON and the rendered hole list.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Budget => "budget",
            FailureKind::Config => "config",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One failed run: a typed hole in the sweep grid. The sweep keeps going;
/// the failure is recorded here instead of aborting the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// Legend label of the affected series.
    pub series: String,
    /// Multiprogramming level of the affected point.
    pub mpl: u32,
    /// Replication index of the failed run.
    pub rep: u32,
    /// What went wrong.
    pub kind: FailureKind,
    /// Human-readable detail (panic message, budget counters, ...).
    pub detail: String,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{} rep {} [{}] {}",
            self.series, self.mpl, self.rep, self.kind, self.detail
        )
    }
}

/// All measured points of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The specification that produced it.
    pub spec: ExperimentSpec,
    /// Points, ordered by series then mpl.
    pub points: Vec<DataPoint>,
    /// Invariant-audit failures, one summary line per violating run
    /// (empty when auditing was off or every run was clean). See
    /// [`crate::RunOptions::audit`].
    pub audit_failures: Vec<String>,
    /// Failed runs — the typed holes in the grid. A `(series, mpl)` point
    /// whose every replication failed has no [`DataPoint`] at all; one
    /// where only some failed aggregates the replications that ran.
    pub failures: Vec<PointFailure>,
    /// Always `false`: the supervisor runs every queued point and has no
    /// way to stop a sweep early. Nothing in this crate reads it; it stays
    /// only so that code outside the workspace that builds or reads a result
    /// by field name (the `ccbench` benchmark) keeps compiling.
    pub interrupted: bool,
    /// Always empty: the supervisor has no advisory notes to give. Kept,
    /// like `interrupted`, only for code that builds a result by field
    /// name.
    pub warnings: Vec<String>,
}

impl ExperimentResult {
    /// The points of one series, ordered by mpl.
    #[must_use]
    pub fn series_points(&self, label: &str) -> Vec<&DataPoint> {
        let mut pts: Vec<&DataPoint> = self.points.iter().filter(|p| p.series == label).collect();
        pts.sort_by_key(|p| p.mpl);
        pts
    }

    /// Highest throughput of a series across the sweep (the paper's "best
    /// global throughput" comparisons).
    #[must_use]
    pub fn peak_throughput(&self, label: &str) -> f64 {
        self.series_points(label)
            .iter()
            .map(|p| p.report.throughput.mean)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Throughput of a series at a specific mpl, if measured.
    #[must_use]
    pub fn throughput_at(&self, label: &str, mpl: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.series == label && p.mpl == mpl)
            .map(|p| p.report.throughput.mean)
    }

    /// Replications behind this result (the maximum over its points; 1 for
    /// single-run sweeps).
    #[must_use]
    pub fn replications(&self) -> usize {
        self.points
            .iter()
            .map(DataPoint::replication_count)
            .max()
            .unwrap_or(1)
    }

    /// Per-replication mean throughputs of a series at one mpl, in
    /// replication order.
    #[must_use]
    pub fn rep_throughputs(&self, label: &str, mpl: u32) -> Option<Vec<f64>> {
        self.points
            .iter()
            .find(|p| p.series == label && p.mpl == mpl)
            .map(|p| p.replicates.iter().map(|r| r.throughput.mean).collect())
    }

    /// True when every run of the grid succeeded.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// `(series, mpl)` coordinates that have no data point at all — every
    /// replication failed (holes the renderers show as "—").
    #[must_use]
    pub fn holes(&self) -> Vec<(String, u32)> {
        let mut holes: Vec<(String, u32)> = self
            .failures
            .iter()
            .filter(|f| {
                !self
                    .points
                    .iter()
                    .any(|p| p.series == f.series && p.mpl == f.mpl)
            })
            .map(|f| (f.series.clone(), f.mpl))
            .collect();
        holes.sort();
        holes.dedup();
        holes
    }

    /// Paired Student-t comparison of two series at one mpl, pairing
    /// per-replication throughputs. Because the runner gives the same
    /// replication index the same workload stream in every series (common
    /// random numbers), the pairing cancels shared workload noise. `None`
    /// when either point is missing or there are fewer than two
    /// replications.
    #[must_use]
    pub fn paired_throughput_t(&self, a: &str, b: &str, mpl: u32) -> Option<PairedT> {
        let xa = self.rep_throughputs(a, mpl)?;
        let xb = self.rep_throughputs(b, mpl)?;
        paired_t(&xa, &xb, Confidence::Ninety)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ExperimentSpec {
        ExperimentSpec {
            id: "demo",
            title: "demo",
            params: Params::paper_baseline(),
            series: Series::paper_trio(),
            mpls: vec![5, 10],
            restart_delay_for_all: false,
            views: vec![FigureView {
                figure: "Figure 0",
                caption: "demo",
                kind: FigureKind::Throughput,
            }],
        }
    }

    #[test]
    fn config_materialization() {
        let spec = demo_spec();
        let cfg = spec.config(&spec.series[2], 10, MetricsConfig::quick(), 7);
        assert_eq!(cfg.algorithm, CcAlgorithm::Optimistic);
        assert_eq!(cfg.params.mpl, 10);
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.restart_delay_for_all);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn num_runs_is_grid_size() {
        assert_eq!(demo_spec().num_runs(), 6);
    }

    #[test]
    fn holes_are_points_with_no_data() {
        let result = ExperimentResult {
            spec: demo_spec(),
            points: vec![],
            audit_failures: vec![],
            warnings: vec![],
            failures: vec![
                PointFailure {
                    series: "blocking".into(),
                    mpl: 10,
                    rep: 0,
                    kind: FailureKind::Panic,
                    detail: "boom".into(),
                },
                PointFailure {
                    series: "blocking".into(),
                    mpl: 10,
                    rep: 1,
                    kind: FailureKind::Budget,
                    detail: "over".into(),
                },
            ],
            interrupted: false,
        };
        assert!(!result.is_clean());
        assert_eq!(result.holes(), vec![("blocking".to_string(), 10)]);
        assert_eq!(
            result.failures[0].to_string(),
            "blocking@10 rep 0 [panic] boom"
        );
    }

    #[test]
    fn paper_trio_labels() {
        let s = Series::paper_trio();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].label, "blocking");
        assert_eq!(s[1].label, "immediate-restart");
        assert_eq!(s[2].label, "optimistic");
    }

    #[test]
    fn modern_series_extend_the_trio_without_reordering_it() {
        let s = Series::paper_trio_with_modern();
        assert_eq!(s.len(), 6);
        // The first three must be the trio, unchanged: control seeds are
        // per series index, so the original curves stay byte-identical.
        for (a, b) in s.iter().zip(Series::paper_trio()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.algorithm, b.algorithm);
        }
        assert_eq!(s[3].label, "mvcc-si");
        assert_eq!(s[4].label, "silo-occ");
        assert_eq!(s[5].label, "tictoc");
    }
}
