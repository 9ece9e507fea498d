//! Rendering experiment results: fixed-width tables per figure, ASCII
//! sparkline plots, and the markdown blocks EXPERIMENTS.md is built from.

use std::fmt::Write as _;

use crate::spec::{ExperimentResult, FigureKind, FigureView};

/// Render one figure view as a fixed-width text table.
#[must_use]
pub fn render_view(result: &ExperimentResult, view: &FigureView) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {} — {}", view.figure, view.caption);
    let _ = write!(out, "{:>5}", "mpl");
    for s in &result.spec.series {
        let l = &s.label;
        let head = match view.kind {
            FigureKind::Throughput => l.clone(),
            FigureKind::ConflictRatios => format!("{l} blk/rst"),
            FigureKind::ResponseTime => format!("{l} mean/sd (s)"),
            FigureKind::DiskUtil => format!("{l} tot/useful"),
        };
        let _ = write!(out, "  {head:>24}");
    }
    let _ = writeln!(out);
    for &mpl in &result.spec.mpls {
        let _ = write!(out, "{mpl:>5}");
        for s in &result.spec.series {
            let Some(r) = point(result, &s.label, mpl) else {
                let _ = write!(out, "  {:>24}", "-");
                continue;
            };
            let _ = match view.kind {
                FigureKind::Throughput => write!(
                    out,
                    "  {:>16.3} ±{:>6.3}",
                    r.throughput.mean, r.throughput.half_width
                ),
                FigureKind::ConflictRatios => {
                    write!(out, "  {:>11.3} /{:>11.3}", r.block_ratio, r.restart_ratio)
                }
                FigureKind::ResponseTime => write!(
                    out,
                    "  {:>11.2} /{:>11.2}",
                    r.response_time_mean, r.response_time_std
                ),
                FigureKind::DiskUtil => write!(
                    out,
                    "  {:>10.1}% /{:>10.1}%",
                    100.0 * r.disk_util_total.mean,
                    100.0 * r.disk_util_useful.mean
                ),
            };
        }
        let _ = writeln!(out);
    }
    out
}

fn point<'a>(
    result: &'a ExperimentResult,
    label: &str,
    mpl: u32,
) -> Option<&'a ccsim_core::Report> {
    result
        .points
        .iter()
        .find(|p| p.series == label && p.mpl == mpl)
        .map(|p| &p.report)
}

/// Render every view of an experiment.
#[must_use]
pub fn render_experiment(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} ({})\n", result.spec.title, result.spec.id);
    let reps = result.replications();
    if reps > 1 {
        let _ = writeln!(
            out,
            "{reps} replications per point; ± is the Student-t interval across replication means.\n"
        );
    }
    for view in &result.spec.views {
        out.push_str(&render_view(result, view));
        out.push('\n');
    }
    if !result.failures.is_empty() {
        let _ = writeln!(
            out,
            "Run failures ({}) — missing cells above are holes:",
            result.failures.len()
        );
        for f in &result.failures {
            let _ = writeln!(out, "  [HOLE] {f}");
        }
        out.push('\n');
    }
    out
}

/// A compact ASCII chart of one metric across mpl, one row per series.
/// Useful for eyeballing curve shapes in a terminal.
#[must_use]
pub fn ascii_chart(result: &ExperimentResult, width: usize) -> String {
    const BLOCKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    let max = result
        .points
        .iter()
        .map(|p| p.report.throughput.mean)
        .fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return "(no data)\n".to_string();
    }
    let label_w = result
        .spec
        .series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(0);
    for s in &result.spec.series {
        let _ = write!(out, "{:>label_w$} |", s.label);
        for &mpl in &result.spec.mpls {
            let v = point(result, &s.label, mpl).map_or(0.0, |r| r.throughput.mean);
            let ix = ((v / max) * 8.0).round() as usize;
            for _ in 0..width.max(1) {
                out.push(BLOCKS[ix.min(8)]);
            }
        }
        let _ = writeln!(out, "| peak {:.2} tps", result.peak_throughput(&s.label));
    }
    let _ = write!(out, "{:>label_w$} +", "mpl");
    for &mpl in &result.spec.mpls {
        let cell = format!("{mpl}");
        let w = width.max(1);
        let _ = write!(out, "{cell:<w$}");
    }
    let _ = writeln!(out, "+");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::runner::{run_experiment, Fidelity, RunOptions};
    use crate::spec::ExperimentResult;

    fn small_result() -> ExperimentResult {
        let mut spec = catalog::exp3();
        spec.mpls = vec![5, 25];
        run_experiment(
            &spec,
            &RunOptions {
                fidelity: Fidelity::Quick,
                base_seed: 7,
                ..RunOptions::default()
            },
        )
        .expect("sweep completes")
    }

    /// A hand-built result: one series, one present point (mpl 5) and one
    /// missing point (mpl 10), rendered under every figure kind.
    fn hand_built_result() -> ExperimentResult {
        use crate::spec::{DataPoint, ExperimentSpec, FigureView, Series};
        use ccsim_core::{CcAlgorithm, Estimate, Params, Report};
        let est = |mean, half_width| Estimate { mean, half_width };
        let report = Report {
            throughput: est(12.3456, 0.789),
            throughput_per_batch: vec![12.3456],
            throughput_lag1: 0.0,
            response_time_mean: 2.3456,
            response_time_std: 1.5,
            response_time_max: 9.0,
            response_time_p50: 2.0,
            response_time_p95: 5.0,
            response_time_p99: 8.0,
            block_ratio: 0.125,
            restart_ratio: 1.5,
            disk_util_total: est(0.8765, 0.01),
            disk_util_useful: est(0.4321, 0.01),
            cpu_util_total: est(0.5, 0.0),
            cpu_util_useful: est(0.25, 0.0),
            avg_active: 5.0,
            class_reports: vec![],
            commits: 100,
            blocks: 10,
            restarts: 150,
            deadlocks: 1,
        };
        let view = |figure, kind| FigureView {
            figure,
            caption: "cap",
            kind,
        };
        ExperimentResult {
            spec: ExperimentSpec {
                id: "pin",
                title: "pin",
                params: Params::paper_baseline(),
                series: vec![Series::paper(CcAlgorithm::Blocking)],
                mpls: vec![5, 10],
                restart_delay_for_all: false,
                views: vec![
                    view("Figure 5", FigureKind::Throughput),
                    view("Figure 6", FigureKind::ConflictRatios),
                    view("Figure 7", FigureKind::ResponseTime),
                    view("Figure 9", FigureKind::DiskUtil),
                ],
            },
            points: vec![DataPoint::single("blocking".into(), 5, report)],
            audit_failures: vec![],
            failures: vec![],
            interrupted: false,
            warnings: vec![],
        }
    }

    #[test]
    fn every_view_kind_renders_the_pinned_table() {
        let result = hand_built_result();
        let text: String = result
            .spec
            .views
            .iter()
            .map(|v| render_view(&result, v))
            .collect();
        let expected = [
            "## Figure 5 — cap",
            "  mpl                  blocking",
            "    5            12.346 ± 0.789",
            "   10                         -",
            "## Figure 6 — cap",
            "  mpl          blocking blk/rst",
            "    5        0.125 /      1.500",
            "   10                         -",
            "## Figure 7 — cap",
            "  mpl      blocking mean/sd (s)",
            "    5         2.35 /       1.50",
            "   10                         -",
            "## Figure 9 — cap",
            "  mpl       blocking tot/useful",
            "    5        87.6% /      43.2%",
            "   10                         -",
        ];
        assert_eq!(text, expected.join("\n") + "\n");
    }

    #[test]
    fn tables_render_every_view_kind() {
        let mut result = small_result();
        // Force one of each view kind onto the result for rendering.
        result.spec.views = vec![
            crate::spec::FigureView {
                figure: "Figure 8",
                caption: "t",
                kind: FigureKind::Throughput,
            },
            crate::spec::FigureView {
                figure: "Figure 6",
                caption: "c",
                kind: FigureKind::ConflictRatios,
            },
            crate::spec::FigureView {
                figure: "Figure 10",
                caption: "r",
                kind: FigureKind::ResponseTime,
            },
            crate::spec::FigureView {
                figure: "Figure 9",
                caption: "d",
                kind: FigureKind::DiskUtil,
            },
        ];
        let text = render_experiment(&result);
        assert!(text.contains("Figure 8"));
        assert!(text.contains("Figure 6"));
        assert!(text.contains("blocking"));
        assert!(text.contains("optimistic"));
        // Two mpl rows per table.
        assert!(text.matches("\n    5").count() >= 4);
        assert!(text.matches("\n   25").count() >= 4);
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut result = small_result();
        result
            .points
            .retain(|p| p.mpl != 25 || p.series != "blocking");
        let text = render_view(&result, &result.spec.views[0].clone());
        assert!(text.contains('-'));
    }

    #[test]
    fn failures_render_explicitly() {
        let mut result = small_result();
        result
            .points
            .retain(|p| p.mpl != 25 || p.series != "blocking");
        result.failures.push(crate::spec::PointFailure {
            series: "blocking".to_string(),
            mpl: 25,
            rep: 0,
            kind: crate::spec::FailureKind::Panic,
            detail: "chaos: injected panic".to_string(),
        });
        let text = render_experiment(&result);
        assert!(text.contains("Run failures (1)"));
        assert!(text.contains("[HOLE] blocking@25 rep 0 [panic]"));
    }

    #[test]
    fn ascii_chart_has_one_row_per_series() {
        let result = small_result();
        let chart = ascii_chart(&result, 3);
        assert_eq!(chart.lines().count(), 4); // 3 series + axis
        assert!(chart.contains("blocking"));
        assert!(chart.contains("peak"));
    }

    #[test]
    fn ascii_chart_empty_result() {
        let mut result = small_result();
        for p in &mut result.points {
            p.report.throughput.mean = 0.0;
        }
        assert_eq!(ascii_chart(&result, 3), "(no data)\n");
    }
}
