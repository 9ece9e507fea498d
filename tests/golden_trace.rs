//! Golden-trace regression harness: a small contended run of each paper
//! algorithm is serialized to a stable text form and compared line-by-line
//! against the checked-in files in `tests/golden/`. Any change to engine
//! scheduling, conflict resolution, or seeding shows up here as a readable
//! diff instead of a silent drift in summary statistics.
//!
//! To bless an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then review the trace diffs like any other code change.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use ccsim_audit::golden::{check_or_update, serialize_trace};
use ccsim_core::{CcAlgorithm, MetricsConfig, Params, SimConfig, Simulator, Trace};
use ccsim_des::SimDuration;

/// The fixed scenario behind every golden file: a dozen terminals hammering
/// a 50-page database with half the accesses writing, so all three
/// algorithms block/restart/validate within a 5-second horizon — short
/// enough that the full event stream fits in a reviewable text file.
fn golden_config(algo: CcAlgorithm) -> SimConfig {
    let mut params = Params::paper_baseline();
    params.db_size = 50;
    params.min_size = 2;
    params.max_size = 6;
    params.write_prob = 0.5;
    params.num_terms = 12;
    params.mpl = 4;
    params.ext_think_time = SimDuration::from_secs(1);
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 0,
            batches: 1,
            batch_time: SimDuration::from_secs(5),
        })
        .with_seed(0x601D)
}

/// Run `cfg` with a trace ring large enough to keep every event and
/// serialize its trace in the golden text form.
fn golden_text(cfg: &SimConfig) -> String {
    let mut sim = Simulator::new(cfg.clone()).unwrap();
    let trace = Rc::new(RefCell::new(Trace::with_capacity(1_000_000)));
    sim.add_sink(Box::new(Rc::clone(&trace)));
    let out = sim.run_collecting().finished().unwrap();
    let trace = trace.borrow();
    let algo = cfg.algorithm;
    assert_eq!(trace.dropped(), 0, "{algo} golden trace overflowed");
    assert!(!trace.is_empty(), "{algo} golden run recorded nothing");
    serialize_trace(cfg, &trace, &out.report)
}

fn golden_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{label}.trace"))
}

fn tracked_algorithms() -> impl Iterator<Item = CcAlgorithm> {
    CcAlgorithm::PAPER_TRIO
        .into_iter()
        .chain(CcAlgorithm::MODERN_TRIO)
}

#[test]
fn paper_trio_traces_match_golden_files() {
    for algo in tracked_algorithms() {
        let text = golden_text(&golden_config(algo));
        if let Err(msg) = check_or_update(&golden_path(algo.label()), &text) {
            panic!("{algo}: {msg}");
        }
    }
}

#[test]
fn golden_serialization_is_bit_stable() {
    // Two fresh runs of the same scenario must serialize byte-identically —
    // the property that lets the files above act as regression anchors.
    let cfg = golden_config(CcAlgorithm::Blocking);
    assert_eq!(golden_text(&cfg), golden_text(&cfg));
}
