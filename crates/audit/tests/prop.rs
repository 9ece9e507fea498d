//! Property-based auditor coverage for the modern in-memory protocols
//! (MVCC-SI, Silo OCC, TicToc): random contended workloads at low, medium
//! and saturated multiprogramming levels must audit clean, and each
//! protocol's event stream must stay inside its legal vocabulary — no
//! blocking-family events ever, no deadlocks and no timestamp rejections.
//! The facts a history is built from (reads, publications, commit points)
//! belong to every protocol's vocabulary.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_audit::attach;
use ccsim_core::{CcAlgorithm, MetricsConfig, Params, SimConfig, Simulator, Trace, TraceEvent};
use ccsim_des::SimDuration;
use proptest::prelude::*;

/// The load levels under test: lightly loaded, busy, and far past the
/// paper's thrashing point.
const MPLS: [u32; 3] = [5, 50, 200];

fn contended(algo: CcAlgorithm, mpl: u32, db_size: u64, write_prob: f64, seed: u64) -> SimConfig {
    let mut params = Params::paper_baseline();
    params.db_size = db_size;
    params.min_size = 2;
    params.max_size = 8;
    params.write_prob = write_prob;
    // Enough terminals that the active-set cap actually binds.
    params.num_terms = mpl + mpl / 2 + 5;
    params.mpl = mpl;
    params.ext_think_time = SimDuration::from_millis(500);
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 0,
            batches: 2,
            batch_time: SimDuration::from_secs(10),
        })
        .with_seed(seed)
}

/// True if `event` may appear in a certification-at-commit protocol's
/// stream.
fn legal_modern_event(event: &TraceEvent) -> bool {
    match event {
        TraceEvent::Arrive(_)
        | TraceEvent::Admit(_)
        | TraceEvent::Commit(_)
        | TraceEvent::Restart(_)
        | TraceEvent::ValidationFailure(..)
        | TraceEvent::Read(..)
        | TraceEvent::Publish(..)
        | TraceEvent::CommitPoint(..) => true,
        TraceEvent::Acquire(..)
        | TraceEvent::Block(..)
        | TraceEvent::Grant(..)
        | TraceEvent::Deadlock { .. }
        | TraceEvent::LocksReleased(..)
        | TraceEvent::TsRejected(..) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every modern protocol audits clean on random contended workloads at
    /// each load level, and commits something at the low and medium ones
    /// (at mpl 200 a protocol may legitimately spend the whole short run
    /// restarting).
    #[test]
    fn modern_trio_audits_clean_across_load_levels(
        seed in any::<u64>(),
        db_size in 50u64..400,
        write_prob in 0.1f64..0.9,
    ) {
        for algo in CcAlgorithm::MODERN_TRIO {
            for mpl in MPLS {
                let cfg = contended(algo, mpl, db_size, write_prob, seed);
                let mut sim = Simulator::new(cfg).expect("valid config");
                let auditor = attach(&mut sim);
                let out = sim.run_collecting().finished().expect("run within budget");
                let audit = auditor.borrow().report();
                prop_assert!(
                    audit.run_ended,
                    "{}@{}: auditor missed the end of the run", algo, mpl
                );
                prop_assert!(
                    audit.is_clean(),
                    "{}@{}: {}", algo, mpl, audit.render()
                );
                if mpl < 200 {
                    prop_assert!(
                        out.report.commits > 0,
                        "{}@{}: committed nothing", algo, mpl
                    );
                }
            }
        }
    }

    /// The forbidden-event vocabulary, checked against the raw trace: the
    /// modern protocols never block, never deadlock, never touch the lock
    /// manager and never reject on basic-T/O timestamps.
    #[test]
    fn modern_trio_stays_inside_its_event_vocabulary(
        seed in any::<u64>(),
        db_size in 50u64..400,
        write_prob in 0.1f64..0.9,
    ) {
        for algo in CcAlgorithm::MODERN_TRIO {
            for mpl in MPLS {
                let cfg = contended(algo, mpl, db_size, write_prob, seed);
                let mut sim = Simulator::new(cfg).expect("valid config");
                let trace = Rc::new(RefCell::new(Trace::with_capacity(4_000_000)));
                sim.add_sink(Box::new(Rc::clone(&trace)));
                sim.run_collecting().finished().expect("run within budget");
                let trace = trace.borrow();
                prop_assert_eq!(trace.dropped(), 0, "{}@{} trace overflowed", algo, mpl);
                for (at, e) in trace.events() {
                    prop_assert!(
                        legal_modern_event(e),
                        "{}@{} emitted a forbidden event at {}: {}", algo, mpl, at, e
                    );
                }
            }
        }
    }
}
