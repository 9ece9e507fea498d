//! Golden-trace regression harness.
//!
//! Small seeded runs of the paper's algorithms are serialized into a
//! stable, line-oriented text form and compared against checked-in
//! references under `tests/golden/`. Any engine change that alters the
//! event stream — a reordered emit, a different lock-grant cascade, an RNG
//! stream split — shows up as a readable line diff instead of a silent
//! behavioural drift.
//!
//! To regenerate after an *intentional* change, rerun the golden tests
//! with `UPDATE_GOLDEN=1` and review the diff in version control.

use std::fmt::Write as _;
use std::path::Path;

use ccsim_core::{Report, SimConfig, Trace};

/// Serialize a run's full event trace (plus a config header and an
/// aggregate footer) into the stable golden text form. The facts only a
/// history needs ([`ccsim_core::TraceEvent::is_history_fact`]) are left
/// out, so the form stays the one the checked-in files were written in.
///
/// The caller must use a trace capacity large enough that nothing was
/// dropped; a truncated trace would produce an unstable serialization, so
/// it is reported in the header to make the mistake visible.
#[must_use]
pub fn serialize_trace(cfg: &SimConfig, trace: &Trace, report: &Report) -> String {
    let events: Vec<_> = trace
        .events()
        .filter(|(_, e)| !e.is_history_fact())
        .collect();
    let mut out = String::new();
    let p = &cfg.params;
    let _ = writeln!(out, "# ccsim golden trace v1");
    let _ = writeln!(
        out,
        "# algorithm={} seed={} terms={} mpl={} db={} sizes={}..{} wp={}",
        cfg.algorithm.label(),
        cfg.seed,
        p.num_terms,
        p.mpl,
        p.db_size,
        p.min_size,
        p.max_size,
        p.write_prob,
    );
    let _ = writeln!(out, "# events={} dropped={}", events.len(), trace.dropped());
    for (at, e) in events {
        let _ = writeln!(out, "[{at}] {e}");
    }
    let _ = writeln!(
        out,
        "# commits={} blocks={} restarts={} deadlocks={}",
        report.commits, report.blocks, report.restarts, report.deadlocks
    );
    out
}

/// Line-by-line comparison. Returns `None` when the texts are identical,
/// otherwise a readable report of the first divergence with surrounding
/// context.
#[must_use]
pub fn diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let first = exp
        .iter()
        .zip(act.iter())
        .position(|(e, a)| e != a)
        .unwrap_or(exp.len().min(act.len()));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traces diverge at line {} (expected {} lines, actual {}):",
        first + 1,
        exp.len(),
        act.len()
    );
    let from = first.saturating_sub(2);
    let to = (first + 3).min(exp.len().max(act.len()));
    for i in from..to {
        match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => {
                let _ = writeln!(out, "   {e}");
            }
            (e, a) => {
                if let Some(e) = e {
                    let _ = writeln!(out, " - {e}");
                }
                if let Some(a) = a {
                    let _ = writeln!(out, " + {a}");
                }
            }
        }
    }
    Some(out)
}

/// Compare `actual` against the golden file at `path`.
///
/// With the environment variable `UPDATE_GOLDEN=1`, the file is
/// (re)written instead and the check passes — the standard workflow after
/// an intentional behaviour change.
///
/// # Errors
/// Returns a human-readable message when the file is missing (and
/// `UPDATE_GOLDEN` is unset), unreadable, or differs from `actual`.
pub fn check_or_update(path: &Path, actual: &str) -> Result<(), String> {
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        return std::fs::write(path, actual)
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let expected = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read golden file {}: {e}\n(run with UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    })?;
    match diff(&expected, actual) {
        None => Ok(()),
        Some(d) => Err(format!(
            "{} does not match the current run.\n{d}\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1.",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_have_no_diff() {
        assert!(diff("a\nb\nc\n", "a\nb\nc\n").is_none());
    }

    #[test]
    fn diff_pinpoints_first_divergence() {
        let d = diff("a\nb\nc\nd\n", "a\nb\nX\nd\n").expect("texts differ");
        assert!(d.contains("line 3"), "{d}");
        assert!(d.contains(" - c"), "{d}");
        assert!(d.contains(" + X"), "{d}");
    }

    #[test]
    fn diff_handles_length_mismatch() {
        let d = diff("a\nb\n", "a\nb\nc\n").expect("texts differ");
        assert!(d.contains("line 3"), "{d}");
        assert!(d.contains(" + c"), "{d}");
    }

    #[test]
    fn serialization_is_deterministic() {
        use ccsim_core::{CcAlgorithm, MetricsConfig, SimConfig, Simulator};
        use std::{cell::RefCell, rc::Rc};
        let cfg = || {
            let mut c = SimConfig::new(CcAlgorithm::Blocking).with_metrics(MetricsConfig::quick());
            c.params.num_terms = 10;
            c.params.mpl = 4;
            c.seed = 7;
            c
        };
        let serialized = || {
            let mut sim = Simulator::new(cfg()).expect("valid");
            let trace = Rc::new(RefCell::new(Trace::with_capacity(1_000_000)));
            sim.add_sink(Box::new(Rc::clone(&trace)));
            let out = sim.run_collecting().finished().expect("within budget");
            let trace = trace.borrow();
            assert_eq!(trace.dropped(), 0);
            assert!(trace.events().any(|(_, e)| e.is_history_fact()));
            serialize_trace(&cfg(), &trace, &out.report)
        };
        let (s1, s2) = (serialized(), serialized());
        assert_eq!(s1, s2);
        assert!(s1.contains("# ccsim golden trace v1"));
        assert!(s1.contains("algorithm=blocking"));
        assert!(!s1.contains("reads") && !s1.contains("commit point"));
    }
}
