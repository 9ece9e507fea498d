//! Rendering experiment results: fixed-width tables per figure, ASCII
//! sparkline plots, and the markdown blocks EXPERIMENTS.md is built from.

use std::fmt::Write as _;

use crate::spec::{ExperimentResult, FigureKind, FigureView};

/// Render one figure view as a fixed-width text table.
#[must_use]
pub fn render_view(result: &ExperimentResult, view: &FigureView) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {} — {}", view.figure, view.caption);
    let labels: Vec<&str> = result
        .spec
        .series
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    match view.kind {
        FigureKind::Throughput => {
            let _ = write!(out, "{:>5}", "mpl");
            for l in &labels {
                let _ = write!(out, "  {l:>24}");
            }
            let _ = writeln!(out);
            for &mpl in &result.spec.mpls {
                let _ = write!(out, "{mpl:>5}");
                for l in &labels {
                    match point(result, l, mpl) {
                        Some(r) => {
                            let _ = write!(
                                out,
                                "  {:>16.3} ±{:>6.3}",
                                r.throughput.mean, r.throughput.half_width
                            );
                        }
                        None => {
                            let _ = write!(out, "  {:>24}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        FigureKind::ConflictRatios => {
            let _ = write!(out, "{:>5}", "mpl");
            for l in &labels {
                let _ = write!(out, "  {:>24}", format!("{l} blk/rst"));
            }
            let _ = writeln!(out);
            for &mpl in &result.spec.mpls {
                let _ = write!(out, "{mpl:>5}");
                for l in &labels {
                    match point(result, l, mpl) {
                        Some(r) => {
                            let _ =
                                write!(out, "  {:>11.3} /{:>11.3}", r.block_ratio, r.restart_ratio);
                        }
                        None => {
                            let _ = write!(out, "  {:>24}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        FigureKind::ResponseTime => {
            let _ = write!(out, "{:>5}", "mpl");
            for l in &labels {
                let _ = write!(out, "  {:>24}", format!("{l} mean/sd (s)"));
            }
            let _ = writeln!(out);
            for &mpl in &result.spec.mpls {
                let _ = write!(out, "{mpl:>5}");
                for l in &labels {
                    match point(result, l, mpl) {
                        Some(r) => {
                            let _ = write!(
                                out,
                                "  {:>11.2} /{:>11.2}",
                                r.response_time_mean, r.response_time_std
                            );
                        }
                        None => {
                            let _ = write!(out, "  {:>24}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        FigureKind::DiskUtil => {
            let _ = write!(out, "{:>5}", "mpl");
            for l in &labels {
                let _ = write!(out, "  {:>24}", format!("{l} tot/useful"));
            }
            let _ = writeln!(out);
            for &mpl in &result.spec.mpls {
                let _ = write!(out, "{mpl:>5}");
                for l in &labels {
                    match point(result, l, mpl) {
                        Some(r) => {
                            let _ = write!(
                                out,
                                "  {:>10.1}% /{:>10.1}%",
                                100.0 * r.disk_util_total.mean,
                                100.0 * r.disk_util_useful.mean
                            );
                        }
                        None => {
                            let _ = write!(out, "  {:>24}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
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
