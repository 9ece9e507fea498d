//! Shape checks: the paper's qualitative claims, encoded as assertions over
//! experiment results. Reproduction means the *shapes* hold — who wins, by
//! roughly what factor, where the crossovers fall — not the absolute
//! numbers (the paper's hardware was a room of VAX 11/750s).

use crate::spec::ExperimentResult;

/// One qualitative expectation and whether the measured data satisfied it.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The claim, phrased as in the paper.
    pub description: String,
    /// Did the measured result satisfy it?
    pub passed: bool,
    /// The measured quantities behind the verdict.
    pub detail: String,
}

fn outcome(description: &str, passed: bool, detail: String) -> CheckOutcome {
    CheckOutcome {
        description: description.to_string(),
        passed,
        detail,
    }
}

const B: &str = "blocking";
const IR: &str = "immediate-restart";
const O: &str = "optimistic";
const SI: &str = "mvcc-si";
/// The modern in-memory protocols exp1 and exp2 carry beyond the trio.
const MODERN: [&str; 3] = [SI, "silo-occ", "tictoc"];

/// "`a` beats `b` at `mpl`". With two or more replications this is a paired
/// Student-t over per-replication throughputs — sharp because the runner's
/// common random numbers give both series the same workload per
/// replication, so the pairing cancels shared noise. With a single
/// replication it degrades to the plain mean comparison.
fn beats_at(result: &ExperimentResult, a: &str, b: &str, mpl: u32) -> (bool, String) {
    match result.paired_throughput_t(a, b, mpl) {
        Some(t) => (
            t.significantly_positive(),
            format!(
                "{a}−{b} @{mpl}: Δ {:+.3} ± {:.3} tps (paired-t, n={})",
                t.mean_diff, t.half_width, t.n
            ),
        ),
        None => {
            let ta = result.throughput_at(a, mpl).unwrap_or(0.0);
            let tb = result.throughput_at(b, mpl).unwrap_or(0.0);
            (
                ta > tb,
                format!("@{mpl}: {a} {ta:.2} vs {b} {tb:.2} (single run)"),
            )
        }
    }
}

/// "`a` has caught up to `b` at `mpl`": `b` is no longer significantly
/// ahead of `a` under the paired test — the crossover point has been
/// reached even if `a` is not yet significantly in front. Falls back to a
/// 5%-tolerance mean comparison for single replications.
fn caught_up_at(result: &ExperimentResult, a: &str, b: &str, mpl: u32) -> (bool, String) {
    match result.paired_throughput_t(b, a, mpl) {
        Some(t) => (
            !t.significantly_positive(),
            format!(
                "{a} within noise of {b} @{mpl}: Δ({b}−{a}) {:+.3} ± {:.3} tps (paired-t, n={})",
                t.mean_diff, t.half_width, t.n
            ),
        ),
        None => {
            let ta = result.throughput_at(a, mpl).unwrap_or(0.0);
            let tb = result.throughput_at(b, mpl).unwrap_or(0.0);
            (
                ta >= tb * 0.95,
                format!("@{mpl}: {a} {ta:.2} vs {b} {tb:.2} (single run)"),
            )
        }
    }
}

fn est_at(result: &ExperimentResult, label: &str, mpl: u32) -> Option<ccsim_core::Estimate> {
    result
        .points
        .iter()
        .find(|p| p.series == label && p.mpl == mpl)
        .map(|p| p.report.throughput)
}

/// Evaluate the paper's claims for `result` (selected by experiment id).
/// Unknown ids get only the generic liveness check.
#[must_use]
pub fn evaluate(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let mut out = vec![liveness(result)];
    match result.spec.id {
        "exp1-inf" | "exp1-1x2" => out.extend(exp1(result)),
        "exp2" => out.extend(exp2(result)),
        "exp3" => out.extend(exp3(result)),
        "exp3-delay" => out.extend(exp3_delay(result)),
        "exp4-5x10" => out.extend(exp4_small(result)),
        "exp4-25x50" => out.extend(exp4_large(result)),
        "exp5-1s" => out.extend(exp5_short(result)),
        "exp5-5s" | "exp5-10s" => out.extend(exp5_long(result)),
        "ablation-mixed" => out.extend(ablation_mixed(result)),
        "ablation-tso" => out.extend(ablation_tso(result)),
        _ => {}
    }
    out
}

fn liveness(result: &ExperimentResult) -> CheckOutcome {
    let all_commit = result.points.iter().all(|p| p.report.commits > 0);
    outcome(
        "every configuration commits transactions",
        all_commit,
        format!("{} points measured", result.points.len()),
    )
}

fn peaks(result: &ExperimentResult) -> (f64, f64, f64) {
    (
        result.peak_throughput(B),
        result.peak_throughput(IR),
        result.peak_throughput(O),
    )
}

/// Experiment 1: "if conflicts are rare, it makes little difference which
/// concurrency control algorithm is used" (blocking ahead by a small
/// amount).
fn exp1(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, ir, o) = peaks(result);
    let max = b.max(ir).max(o);
    let min = b.min(ir).min(o);
    vec![
        outcome(
            "the three algorithms perform within ~15% of each other",
            (max - min) / max < 0.15,
            format!("peaks: blocking {b:.2}, immediate-restart {ir:.2}, optimistic {o:.2}"),
        ),
        outcome(
            "blocking is at least as good as the restart algorithms",
            b >= ir * 0.97 && b >= o * 0.97,
            format!("blocking {b:.2} vs ir {ir:.2} / occ {o:.2}"),
        ),
    ]
}

/// Experiment 2 (Figures 5–7): under infinite resources, blocking thrashes
/// past a knee, the optimistic algorithm keeps climbing, immediate-restart
/// plateaus, and blocking's thrashing is driven by blocking (not restarts).
fn exp2(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let mut v = Vec::new();
    let o_25 = result.throughput_at(O, 25).unwrap_or(0.0);
    let o_200 = result.throughput_at(O, 200).unwrap_or(0.0);
    // The climb must be large *and* outside the confidence intervals of
    // both endpoints (CI-separated means, not a lucky pair of seeds).
    let separated = match (est_at(result, O, 25), est_at(result, O, 200)) {
        (Some(lo), Some(hi)) => hi.significantly_differs_from(&lo),
        _ => false,
    };
    v.push(outcome(
        "optimistic throughput keeps increasing with mpl (Fig. 5)",
        o_200 > o_25 * 1.5 && separated,
        format!("occ: {o_25:.2} @25 vs {o_200:.2} @200 (CI-separated: {separated})"),
    ));
    let b_peak = result.peak_throughput(B);
    let b_200 = result.throughput_at(B, 200).unwrap_or(0.0);
    v.push(outcome(
        "blocking thrashes beyond its knee (Fig. 5)",
        b_200 < b_peak * 0.75,
        format!("blocking: peak {b_peak:.2} vs {b_200:.2} @200"),
    ));
    let ir_100 = result.throughput_at(IR, 100).unwrap_or(0.0);
    let ir_200 = result.throughput_at(IR, 200).unwrap_or(0.0);
    v.push(outcome(
        "immediate-restart reaches a plateau (Fig. 5)",
        ir_100 > 0.0 && (ir_200 - ir_100).abs() / ir_100 < 0.15,
        format!("ir: {ir_100:.2} @100 vs {ir_200:.2} @200"),
    ));
    let block_lo = ratio_at(result, B, 25, |r| r.block_ratio);
    let block_hi = ratio_at(result, B, 200, |r| r.block_ratio);
    v.push(outcome(
        "blocking's block ratio explodes with mpl (Fig. 6)",
        block_hi > block_lo * 3.0 && block_hi > 1.0,
        format!("block ratio: {block_lo:.2} @25 vs {block_hi:.2} @200"),
    ));
    let rr_occ = ratio_at(result, O, 100, |r| r.restart_ratio);
    let rr_ir = ratio_at(result, IR, 100, |r| r.restart_ratio);
    v.push(outcome(
        "optimistic restarts more than immediate-restart at high mpl (Fig. 6)",
        rr_occ > rr_ir,
        format!("restart ratio @100: occ {rr_occ:.2} vs ir {rr_ir:.2}"),
    ));
    let sd_b = ratio_at(result, B, 50, |r| r.response_time_std);
    let sd_ir = ratio_at(result, IR, 50, |r| r.response_time_std);
    v.push(outcome(
        "immediate-restart has larger response-time variance than blocking (Fig. 7)",
        sd_ir > sd_b,
        format!("response σ @50: ir {sd_ir:.2}s vs blocking {sd_b:.2}s"),
    ));
    v.push(modern_trio_beats_optimistic(result));
    v
}

/// Extension (EXPERIMENTS.md, "Modern in-memory protocols"): at high mpl
/// mvcc-si, silo-occ and tictoc all run above optimistic, each outside
/// both confidence intervals, and snapshot reads give mvcc-si the lowest
/// restart ratio of the four.
fn modern_trio_beats_optimistic(result: &ExperimentResult) -> CheckOutcome {
    let mut above = true;
    let mut si_fewest = true;
    let mut detail = Vec::new();
    for mpl in [100, 200] {
        let rr = |label| ratio_at(result, label, mpl, |r| r.restart_ratio);
        let occ = est_at(result, O, mpl);
        let mut parts = Vec::new();
        for label in std::iter::once(O).chain(MODERN) {
            let est = est_at(result, label, mpl);
            if label != O {
                above &= matches!(
                    (est, occ),
                    (Some(e), Some(o)) if e.mean > o.mean && e.significantly_differs_from(&o)
                );
            }
            if label != SI {
                si_fewest &= rr(SI) < rr(label);
            }
            let tps = est.map_or("missing".into(), |e| {
                format!("{:.2} ± {:.2}", e.mean, e.half_width)
            });
            parts.push(format!("{label} {tps} (rr {:.2})", rr(label)));
        }
        detail.push(format!("@{mpl}: {}", parts.join(", ")));
    }
    outcome(
        "mvcc-si, silo-occ and tictoc all beat optimistic at high mpl, and mvcc-si restarts least (extension)",
        above && si_fewest,
        detail.join("; "),
    )
}

/// Experiment 3 (Figures 8–10): with 1 CPU / 2 disks the best global
/// throughput belongs to blocking; immediate-restart ≥ optimistic; at
/// mpl=200 immediate-restart has crossed over blocking and leads
/// optimistic; disks saturate near blocking's peak.
fn exp3(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, ir, o) = peaks(result);
    let mut v = vec![
        outcome(
            "blocking attains the best global throughput (Fig. 8)",
            b >= ir && b >= o,
            format!("peaks: blocking {b:.2}, ir {ir:.2}, occ {o:.2}"),
        ),
        outcome(
            "immediate-restart performs as well as or better than optimistic (Fig. 8)",
            ir >= o * 0.95,
            format!("peaks: ir {ir:.2} vs occ {o:.2}"),
        ),
    ];
    // The paper's crossover claim: by mpl=200 blocking has thrashed down to
    // immediate-restart's level (no longer significantly ahead), while
    // immediate-restart is significantly ahead of optimistic.
    let (ir_caught_b, detail_b) = caught_up_at(result, IR, B, 200);
    let (ir_beats_o, detail_o) = beats_at(result, IR, O, 200);
    v.push(outcome(
        "at mpl=200 immediate-restart catches blocking and beats optimistic (Fig. 8)",
        ir_caught_b && ir_beats_o,
        format!("{detail_b}; {detail_o}"),
    ));
    // Disk utilization near blocking's peak mpl.
    let util = result
        .series_points(B)
        .iter()
        .map(|p| p.report.disk_util_total.mean)
        .fold(0.0_f64, f64::max);
    v.push(outcome(
        "disks saturate at blocking's peak (Fig. 9)",
        util > 0.90,
        format!("max total disk utilization {:.1}%", util * 100.0),
    ));
    let sd_b = ratio_at(result, B, 50, |r| r.response_time_std);
    let sd_ir = ratio_at(result, IR, 50, |r| r.response_time_std);
    v.push(outcome(
        "immediate-restart shows the worst response-time variance (Fig. 10)",
        sd_ir > sd_b,
        format!("response σ @50: ir {sd_ir:.2}s vs blocking {sd_b:.2}s"),
    ));
    v
}

/// Figure 11: the adaptive delay arrests high-mpl degradation; blocking is
/// the clear winner.
fn exp3_delay(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, ir, o) = peaks(result);
    let b_200 = result.throughput_at(B, 200).unwrap_or(0.0);
    let o_200 = result.throughput_at(O, 200).unwrap_or(0.0);
    vec![
        outcome(
            "blocking emerges as the clear winner (Fig. 11)",
            b >= ir && b >= o,
            format!("peaks: blocking {b:.2}, ir {ir:.2}, occ {o:.2}"),
        ),
        outcome(
            "the delay arrests throughput degradation at high mpl (Fig. 11)",
            b_200 > b * 0.6 && o_200 > o * 0.6,
            format!("@200 vs peak: blocking {b_200:.2}/{b:.2}, occ {o_200:.2}/{o:.2}"),
        ),
    ]
}

/// Figures 12–13: at 5×10 blocking still wins; restart algorithms burn more
/// total disk than blocking.
fn exp4_small(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, ir, o) = peaks(result);
    let b_util = max_util(result, B);
    let o_util = max_util(result, O);
    vec![
        outcome(
            "blocking still provides the highest overall throughput (Fig. 12)",
            b >= ir && b >= o * 0.97,
            format!("peaks: blocking {b:.2}, ir {ir:.2}, occ {o:.2}"),
        ),
        outcome(
            "optimistic's total disk utilization exceeds blocking's (Fig. 13)",
            o_util > b_util,
            format!(
                "max total disk util: occ {:.1}% vs blocking {:.1}%",
                o_util * 100.0,
                b_util * 100.0
            ),
        ),
    ]
}

/// Figures 14–15: at 25×50 the optimistic algorithm's peak edges past
/// blocking's (the system starts behaving as if resources were infinite).
fn exp4_large(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, _, o) = peaks(result);
    vec![outcome(
        "optimistic's peak throughput beats blocking's, though not by much (Fig. 14)",
        o >= b * 0.98,
        format!("peaks: occ {o:.2} vs blocking {b:.2}"),
    )]
}

/// Figure 16: with only 1 s of internal think, blocking still wins.
fn exp5_short(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, _, o) = peaks(result);
    vec![outcome(
        "with a 1 s internal think time, blocking performs better (Fig. 16)",
        b >= o * 0.97,
        format!("peaks: blocking {b:.2} vs occ {o:.2}"),
    )]
}

/// Figures 18 and 20: with 5–10 s internal thinks the optimistic algorithm
/// overtakes blocking, and its peak also beats immediate-restart's.
fn exp5_long(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let (b, ir, o) = peaks(result);
    vec![
        outcome(
            "long internal thinks favor the optimistic algorithm (Figs. 18/20)",
            o > b,
            format!("peaks: occ {o:.2} vs blocking {b:.2}"),
        ),
        outcome(
            "optimistic's best throughput beats immediate-restart's (Figs. 18/20)",
            o > ir,
            format!("peaks: occ {o:.2} vs ir {ir:.2}"),
        ),
    ]
}

/// Mixed-size ablation: restart-oriented algorithms starve the large class.
fn ablation_mixed(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let starvation = |label: &str| -> f64 {
        // Worst large-vs-small restart-ratio disparity across the sweep.
        result
            .series_points(label)
            .iter()
            .filter_map(|p| {
                let classes = &p.report.class_reports;
                if classes.len() < 2 {
                    return None;
                }
                Some((classes[1].restart_ratio + 0.01) / (classes[0].restart_ratio + 0.01))
            })
            .fold(0.0_f64, f64::max)
    };
    let b = starvation(B);
    let o = starvation(O);
    let ir = starvation(IR);
    vec![outcome(
        "restart-oriented algorithms starve large transactions more than blocking",
        o > b && ir > b,
        format!("large/small restart disparity: blocking {b:.1}, ir {ir:.1}, occ {o:.1}"),
    )]
}

/// Locking vs. basic T/O: under scarce resources the paper's resource
/// argument predicts blocking beats any restart-prone scheme, basic T/O
/// included ([Lin83]'s setting rather than [Gall82]'s).
fn ablation_tso(result: &ExperimentResult) -> Vec<CheckOutcome> {
    let b = result.peak_throughput(B);
    let to = result.peak_throughput("basic-to");
    vec![outcome(
        "under scarce resources blocking beats basic timestamp ordering",
        b >= to,
        format!("peaks: blocking {b:.2} vs basic-to {to:.2}"),
    )]
}

fn ratio_at(
    result: &ExperimentResult,
    label: &str,
    mpl: u32,
    f: fn(&ccsim_core::Report) -> f64,
) -> f64 {
    result
        .points
        .iter()
        .find(|p| p.series == label && p.mpl == mpl)
        .map_or(0.0, |p| f(&p.report))
}

fn max_util(result: &ExperimentResult, label: &str) -> f64 {
    result
        .series_points(label)
        .iter()
        .map(|p| p.report.disk_util_total.mean)
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DataPoint, ExperimentSpec, FigureKind, FigureView, Series};
    use ccsim_core::{Estimate, Params, Report};

    fn fake_report(tps: f64) -> Report {
        Report {
            throughput: Estimate {
                mean: tps,
                half_width: 0.1,
            },
            throughput_per_batch: vec![tps],
            throughput_lag1: 0.0,
            response_time_mean: 1.0,
            response_time_std: 0.5,
            response_time_max: 2.0,
            response_time_p50: 1.0,
            response_time_p95: 1.8,
            response_time_p99: 1.95,
            block_ratio: 0.1,
            restart_ratio: 0.1,
            disk_util_total: Estimate {
                mean: 0.5,
                half_width: 0.0,
            },
            disk_util_useful: Estimate {
                mean: 0.4,
                half_width: 0.0,
            },
            cpu_util_total: Estimate {
                mean: 0.2,
                half_width: 0.0,
            },
            cpu_util_useful: Estimate {
                mean: 0.2,
                half_width: 0.0,
            },
            avg_active: 5.0,
            class_reports: vec![],
            commits: 100,
            blocks: 10,
            restarts: 10,
            deadlocks: 1,
        }
    }

    fn fake_result(id: &'static str, tps: &[(&str, u32, f64)]) -> ExperimentResult {
        ExperimentResult {
            spec: ExperimentSpec {
                id,
                title: "fake",
                params: Params::paper_baseline(),
                series: Series::paper_trio(),
                mpls: vec![25, 200],
                restart_delay_for_all: false,
                views: vec![FigureView {
                    figure: "Figure 0",
                    caption: "fake",
                    kind: FigureKind::Throughput,
                }],
            },
            points: tps
                .iter()
                .map(|&(s, mpl, v)| DataPoint::single(s.to_string(), mpl, fake_report(v)))
                .collect(),
            audit_failures: Vec::new(),
            failures: Vec::new(),
            interrupted: false,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn exp1_checks_pass_when_algorithms_agree() {
        let r = fake_result(
            "exp1-inf",
            &[
                ("blocking", 25, 10.0),
                ("immediate-restart", 25, 9.6),
                ("optimistic", 25, 9.5),
            ],
        );
        let outcomes = evaluate(&r);
        assert!(outcomes.iter().all(|o| o.passed), "{outcomes:#?}");
    }

    #[test]
    fn exp1_checks_fail_on_wide_spread() {
        let r = fake_result(
            "exp1-inf",
            &[
                ("blocking", 25, 10.0),
                ("immediate-restart", 25, 5.0),
                ("optimistic", 25, 9.5),
            ],
        );
        let outcomes = evaluate(&r);
        assert!(outcomes.iter().any(|o| !o.passed));
    }

    #[test]
    fn exp3_winner_check() {
        let good = fake_result(
            "exp3",
            &[
                ("blocking", 25, 5.0),
                ("blocking", 200, 3.0),
                ("immediate-restart", 25, 4.0),
                ("immediate-restart", 200, 3.5),
                ("optimistic", 25, 3.8),
                ("optimistic", 200, 3.0),
            ],
        );
        let outcomes = evaluate(&good);
        let winner = outcomes
            .iter()
            .find(|o| o.description.contains("best global"))
            .unwrap();
        assert!(winner.passed, "{winner:?}");
    }

    fn fake_point_reps(s: &str, mpl: u32, tps: &[f64]) -> DataPoint {
        let replicates: Vec<Report> = tps.iter().map(|&v| fake_report(v)).collect();
        DataPoint {
            series: s.to_string(),
            mpl,
            report: crate::replicate::aggregate_reports(&replicates)
                .expect("test replicates are non-empty"),
            replicates,
        }
    }

    #[test]
    fn exp3_crossover_uses_paired_t_with_replications() {
        let mut r = fake_result("exp3", &[]);
        r.points = vec![
            fake_point_reps(B, 200, &[3.0, 3.1, 2.9]),
            fake_point_reps(IR, 200, &[3.5, 3.7, 3.4]),
            fake_point_reps(O, 200, &[3.0, 3.2, 2.9]),
        ];
        let outcomes = evaluate(&r);
        let cross = outcomes
            .iter()
            .find(|o| o.description.contains("at mpl=200"))
            .unwrap();
        assert!(cross.passed, "{cross:?}");
        assert!(cross.detail.contains("paired-t"), "{}", cross.detail);
    }

    #[test]
    fn exp3_crossover_rejects_blocking_still_ahead() {
        // Blocking is consistently ahead of immediate-restart in every
        // replication, so the crossover has not happened yet.
        let mut r = fake_result("exp3", &[]);
        r.points = vec![
            fake_point_reps(B, 200, &[4.0, 4.1, 3.9]),
            fake_point_reps(IR, 200, &[3.5, 3.6, 3.4]),
            fake_point_reps(O, 200, &[3.0, 3.1, 2.9]),
        ];
        let outcomes = evaluate(&r);
        let cross = outcomes
            .iter()
            .find(|o| o.description.contains("at mpl=200"))
            .unwrap();
        assert!(!cross.passed, "{cross:?}");
    }

    #[test]
    fn exp3_crossover_rejects_insignificant_difference() {
        // The immediate-restart vs optimistic differences flip sign: the
        // mean gap is positive but nowhere near paired-t significance.
        let mut r = fake_result("exp3", &[]);
        r.points = vec![
            fake_point_reps(B, 200, &[3.0, 3.4, 3.1]),
            fake_point_reps(IR, 200, &[3.5, 2.8, 3.6]),
            fake_point_reps(O, 200, &[3.4, 2.9, 3.0]),
        ];
        let outcomes = evaluate(&r);
        let cross = outcomes
            .iter()
            .find(|o| o.description.contains("at mpl=200"))
            .unwrap();
        assert!(!cross.passed, "{cross:?}");
    }

    #[test]
    fn liveness_fails_on_dead_point() {
        let mut r = fake_result("exp2", &[("blocking", 25, 1.0)]);
        r.points[0].report.commits = 0;
        let outcomes = evaluate(&r);
        assert!(!outcomes[0].passed);
    }

    #[test]
    fn unknown_id_gets_only_liveness() {
        let r = fake_result("mystery", &[("blocking", 25, 1.0)]);
        assert_eq!(evaluate(&r).len(), 1);
    }

    /// exp2's points at mpl 100 and 200 for optimistic and the modern trio,
    /// as `(series, tps, restart ratio)`; every half-width is 0.1.
    fn modern_check(series: &[(&str, f64, f64)]) -> CheckOutcome {
        let mut r = fake_result("exp2", &[]);
        for mpl in [100, 200] {
            for &(s, tps, rr) in series {
                let mut report = fake_report(tps);
                report.restart_ratio = rr;
                r.points.push(DataPoint::single(s.to_string(), mpl, report));
            }
        }
        modern_trio_beats_optimistic(&r)
    }

    #[test]
    fn modern_trio_check_needs_every_gap_outside_the_intervals() {
        let with_silo = |tps| {
            modern_check(&[
                (O, 90.0, 1.2),
                (SI, 120.0, 0.3),
                ("silo-occ", tps, 0.6),
                ("tictoc", 112.0, 0.5),
            ])
        };
        let pass = with_silo(110.0);
        assert!(pass.passed, "{pass:?}");
        assert!(pass
            .detail
            .contains("@200: optimistic 90.00 ± 0.10 (rr 1.20)"));
        // Above optimistic, but inside the two half-widths.
        let tie = with_silo(90.15);
        assert!(!tie.passed, "{tie:?}");
    }

    #[test]
    fn modern_trio_check_needs_mvcc_si_to_restart_least() {
        let c = modern_check(&[
            (O, 90.0, 1.2),
            (SI, 120.0, 0.3),
            ("silo-occ", 110.0, 0.6),
            ("tictoc", 112.0, 0.25),
        ]);
        assert!(!c.passed, "{c:?}");
    }

    #[test]
    fn modern_trio_check_fails_on_a_missing_series() {
        let c = modern_check(&[(O, 90.0, 1.2), (SI, 120.0, 0.3), ("silo-occ", 110.0, 0.6)]);
        assert!(!c.passed, "{c:?}");
        assert!(c.detail.contains("tictoc missing"), "{}", c.detail);
    }
}
