//! Markdown report generation: turns experiment results and their shape
//! checks into a self-contained results appendix (`repro ... --md <path>`).

use std::fmt::Write as _;

use crate::checks::CheckOutcome;
use crate::spec::{ExperimentResult, FigureKind, FigureView};

fn md_view(result: &ExperimentResult, view: &FigureView, out: &mut String) {
    let _ = writeln!(out, "### {} — {}\n", view.figure, view.caption);
    let labels: Vec<&str> = result
        .spec
        .series
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    // Header.
    let _ = write!(out, "| mpl |");
    for l in &labels {
        let col = match view.kind {
            FigureKind::Throughput => format!(" {l} (tps) |"),
            FigureKind::ConflictRatios => format!(" {l} (blk/rst per commit) |"),
            FigureKind::ResponseTime => format!(" {l} (mean/σ s) |"),
            FigureKind::DiskUtil => format!(" {l} (total/useful) |"),
        };
        out.push_str(&col);
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in &labels {
        out.push_str("---|");
    }
    let _ = writeln!(out);
    // Rows.
    for &mpl in &result.spec.mpls {
        let _ = write!(out, "| {mpl} |");
        for l in &labels {
            let cell = result
                .points
                .iter()
                .find(|p| p.series == *l && p.mpl == mpl)
                .map_or("—".to_string(), |p| {
                    let r = &p.report;
                    match view.kind {
                        FigureKind::Throughput => {
                            format!("{:.2} ± {:.2}", r.throughput.mean, r.throughput.half_width)
                        }
                        FigureKind::ConflictRatios => {
                            format!("{:.2} / {:.2}", r.block_ratio, r.restart_ratio)
                        }
                        FigureKind::ResponseTime => {
                            format!("{:.1} / {:.1}", r.response_time_mean, r.response_time_std)
                        }
                        FigureKind::DiskUtil => format!(
                            "{:.0}% / {:.0}%",
                            100.0 * r.disk_util_total.mean,
                            100.0 * r.disk_util_useful.mean
                        ),
                    }
                });
            let _ = write!(out, " {cell} |");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
}

/// Render one experiment (tables plus check verdicts) as markdown.
#[must_use]
pub fn experiment_to_markdown(result: &ExperimentResult, checks: &[CheckOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {} (`{}`)\n", result.spec.title, result.spec.id);
    let reps = result.replications();
    if reps > 1 {
        let _ = writeln!(
            out,
            "_{reps} independent replications per point; ± is the Student-t interval across replication means (common random numbers pair the series)._\n"
        );
    }
    for view in &result.spec.views {
        md_view(result, view, &mut out);
    }
    if !result.failures.is_empty() {
        let _ = writeln!(out, "Run failures (missing cells above are holes):\n");
        for f in &result.failures {
            let _ = writeln!(out, "- ⚠️ {f}");
        }
        let _ = writeln!(out);
    }
    if !checks.is_empty() {
        let _ = writeln!(out, "Shape checks:\n");
        for c in checks {
            let mark = if c.passed { "✅" } else { "❌" };
            let _ = writeln!(out, "- {mark} {} — {}", c.description, c.detail);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a full results appendix.
#[must_use]
pub fn report_to_markdown(results: &[(ExperimentResult, Vec<CheckOutcome>)]) -> String {
    let mut out = String::from("# Reproduction results\n\n");
    let total: usize = results.iter().map(|(_, c)| c.len()).sum();
    let passed: usize = results
        .iter()
        .flat_map(|(_, c)| c.iter())
        .filter(|c| c.passed)
        .count();
    let _ = writeln!(out, "Shape checks: **{passed}/{total} passed**.\n");
    for (result, checks) in results {
        out.push_str(&experiment_to_markdown(result, checks));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::checks;
    use crate::runner::{run_experiment, Fidelity, RunOptions};

    fn small_result() -> ExperimentResult {
        let mut spec = catalog::exp3();
        spec.mpls = vec![5, 25];
        run_experiment(
            &spec,
            &RunOptions {
                fidelity: Fidelity::Quick,
                base_seed: 3,
                ..RunOptions::default()
            },
        )
        .expect("sweep completes")
    }

    #[test]
    fn markdown_tables_are_well_formed() {
        let result = small_result();
        let evals = checks::evaluate(&result);
        let md = experiment_to_markdown(&result, &evals);
        assert!(md.contains("## Experiment 3"));
        assert!(md.contains("### Figure 8"));
        assert!(md.contains("| mpl |"));
        // One separator and two data rows per table, three tables.
        assert_eq!(md.matches("| 25 |").count(), 3);
        assert!(md.contains("Shape checks:"));
        // Every table row has a consistent column count.
        for line in md.lines().filter(|l| l.starts_with('|')) {
            assert_eq!(line.matches('|').count(), 5, "ragged markdown row: {line}");
        }
    }

    #[test]
    fn full_report_counts_checks() {
        let result = small_result();
        let evals = checks::evaluate(&result);
        let n = evals.len();
        let md = report_to_markdown(&[(result, evals)]);
        assert!(md.starts_with("# Reproduction results"));
        assert!(md.contains(&format!("/{n} passed")));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut result = small_result();
        result.points.retain(|p| p.mpl != 25);
        let md = experiment_to_markdown(&result, &[]);
        assert!(md.contains('—'));
    }

    #[test]
    fn failures_render_as_hole_list() {
        let mut result = small_result();
        result.points.retain(|p| p.mpl != 25);
        result.failures.push(crate::spec::PointFailure {
            series: "optimistic".to_string(),
            mpl: 25,
            rep: 1,
            kind: crate::spec::FailureKind::Budget,
            detail: "budget exhausted".to_string(),
        });
        let md = experiment_to_markdown(&result, &[]);
        assert!(md.contains("Run failures"));
        assert!(md.contains("- ⚠️ optimistic@25 rep 1 [budget] budget exhausted\n"));
    }
}
