//! Budgeted smoke of the million-scale regime (`exp-scale`): the run must
//! stop on its event budget with a salvaged window, audit clean, and — on
//! every Linux run — keep peak RSS under [`RSS_CEILING_BYTES`]. The test
//! lives in its own integration binary so the process high-water mark
//! (`VmHWM`) is attributable to this regime alone.
//!
//! The point is profile-scaled: release builds (the CI `scale-smoke` job
//! runs `cargo test --release --test scale_smoke`) exercise the full
//! 10^6-terminal, mpl-10^5 shape; debug builds shrink terminals and the
//! budget so tier-1 `cargo test -q` stays fast while walking the same
//! sparse-lock-table / arena / streaming-quantile code paths.

use ccsim_audit::attach;
use ccsim_core::{
    BudgetKind, CcAlgorithm, MetricsConfig, Params, RunBudget, RunError, SimConfig, Simulator,
};
use ccsim_des::SimDuration;

/// The `exp-scale` regime, profile-scaled as described in the module doc.
fn scale_cfg() -> SimConfig {
    let mut params = Params::exp_scale();
    let max_events = if cfg!(debug_assertions) {
        params.num_terms = 100_000;
        params.mpl = 10_000;
        200_000
    } else {
        2_000_000
    };
    // Budget, not horizon, ends the run: no warmup and short batches so
    // the salvaged window carries batch counts and response quantiles
    // from the first commit.
    let metrics = MetricsConfig {
        warmup_batches: 0,
        batches: 400,
        batch_time: SimDuration::from_millis(250),
    };
    SimConfig::new(CcAlgorithm::Blocking)
        .with_params(params)
        .with_metrics(metrics)
        .with_seed(0x5CA1E)
        .with_budget(RunBudget::unlimited().with_max_events(max_events))
}

/// Peak-RSS ceiling (523.75 MiB): 1.25x the 419.0 MiB `VmHWM` of the
/// audited release smoke itself. The usual rule, 1.5x the `VmHWM` of the
/// full exp-scale point run unaudited to 10 million events (blocking, seed
/// 52357), gives 1.5 x 225.9 = 338.9 MiB, which the audited smoke does
/// not fit under: the auditor's own state is the difference. The debug
/// smoke peaks near 49 MiB (2-core x86-64 Linux).
const RSS_CEILING_BYTES: u64 = 549_191_680;

/// Peak resident set (`VmHWM`) of this test process.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .expect("a VmHWM line in kB in /proc/self/status");
    kb * 1024
}

#[test]
fn budgeted_scale_point_audits_clean_and_stays_under_the_rss_ceiling() {
    let cfg = scale_cfg();
    let budget_events = cfg.budget.max_events.expect("budget caps events");
    let mut sim = Simulator::new(cfg).expect("exp-scale config is valid");
    let auditor = attach(&mut sim);
    let out = sim.run_collecting();

    // Bounded completion: the event ceiling — not an error, not the
    // horizon — ended the run, and the partial window was salvaged.
    match &out.stopped {
        Some(RunError::BudgetExhausted { exceeded, .. }) => {
            assert_eq!(
                *exceeded,
                BudgetKind::Events,
                "stopped on the wrong ceiling"
            );
        }
        other => panic!("expected an event-budget stop, got {other:?}"),
    }
    assert!(out.perf.events >= budget_events);
    assert!(out.report.commits > 0, "salvaged window has no commits");
    let r = &out.report;
    assert!(
        r.response_time_p50 > 0.0
            && r.response_time_p50 <= r.response_time_p95
            && r.response_time_p95 <= r.response_time_p99,
        "response quantiles out of order: p50 {} p95 {} p99 {}",
        r.response_time_p50,
        r.response_time_p95,
        r.response_time_p99
    );

    // The auditor saw the whole run — including the budget-stop finish —
    // and found every invariant intact.
    let audit = auditor.borrow().report();
    assert!(audit.run_ended, "auditor missed the end of the run");
    assert!(audit.is_clean(), "invariants violated:\n{}", audit.render());

    // Memory ceiling: binds on every Linux run. VmHWM comes from /proc,
    // so other platforms say out loud that they skip it.
    #[cfg(target_os = "linux")]
    {
        let rss = peak_rss_bytes();
        let mib = |b: u64| b as f64 / f64::from(1 << 20);
        let msg = format!(
            "peak RSS {:.1} MiB, ceiling {:.1} MiB",
            mib(rss),
            mib(RSS_CEILING_BYTES)
        );
        eprintln!("{msg}");
        assert!(rss <= RSS_CEILING_BYTES, "{msg}: over the ceiling");
    }
    #[cfg(not(target_os = "linux"))]
    eprintln!("skipping RSS ceiling check: VmHWM is only readable on Linux");
}
