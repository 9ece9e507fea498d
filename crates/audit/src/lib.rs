//! `ccsim-audit` — an online invariant auditor and golden-trace regression
//! harness for the simulation engine.
//!
//! The simulator emits a typed event per state transition (see
//! [`ccsim_core::TraceEvent`]). This crate consumes that stream through
//! the [`ccsim_core::EventSink`] observer interface and *re-derives* the
//! model's state machine independently, flagging any event the paper's
//! model rules out:
//!
//! - the active set exceeding the multiprogramming level,
//! - commits from blocked transactions, blocks without a later grant or
//!   restart, grants for objects a transaction never blocked on,
//! - mutual-exclusion breaches (two writers, writer alongside readers),
//! - lock-count mismatches between the engine's lock manager and the
//!   event-derived holdings, and locks that outlive their owner,
//! - events that are illegal for the configured algorithm (a deadlock
//!   under immediate-restart, a validation failure under blocking, ...),
//! - end-of-run conservation laws: arrivals = commits + in-flight,
//!   useful ≤ total utilization, and exact Little's-law flow balance at
//!   the physical CPU/disk queues.
//!
//! # Quick start
//!
//! ```
//! use ccsim_core::{CcAlgorithm, MetricsConfig, SimConfig, Simulator};
//!
//! let cfg = SimConfig::new(CcAlgorithm::Blocking)
//!     .with_metrics(MetricsConfig::quick())
//!     .with_seed(7);
//! let mut sim = Simulator::new(cfg).expect("valid configuration");
//! let auditor = ccsim_audit::attach(&mut sim);
//! let out = sim.run_collecting().finished().expect("run within budget");
//! let audit = auditor.borrow().report();
//! assert!(out.report.throughput.mean > 0.0);
//! assert!(audit.is_clean(), "{}", audit.render());
//! ```
//!
//! The [`golden`] module adds a complementary regression net: full event
//! traces of small seeded runs serialized to a stable text form and
//! compared against checked-in references (regenerate intentionally with
//! `UPDATE_GOLDEN=1`).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod auditor;
pub mod golden;

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::Simulator;

pub use auditor::{AuditReport, Auditor, Violation};

/// Attach a fresh auditor to `sim` and return a shared handle onto it;
/// once the run has ended, `borrow().report()` holds the findings.
pub fn attach(sim: &mut Simulator) -> Rc<RefCell<Auditor>> {
    let auditor = Rc::new(RefCell::new(Auditor::new(sim.config())));
    sim.add_sink(Box::new(Rc::clone(&auditor)));
    auditor
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::{CcAlgorithm, MetricsConfig, SimConfig};

    #[test]
    fn paper_trio_quick_runs_audit_clean() {
        for algo in CcAlgorithm::PAPER_TRIO {
            let cfg = SimConfig::new(algo)
                .with_metrics(MetricsConfig::quick())
                .with_seed(42);
            let mut sim = Simulator::new(cfg).expect("valid config");
            let auditor = attach(&mut sim);
            let out = sim.run_collecting().finished().expect("run within budget");
            let audit = auditor.borrow().report();
            assert!(out.report.commits > 0);
            assert!(audit.run_ended, "run end must reach the sink");
            assert!(audit.is_clean(), "{algo}: {}", audit.render());
            assert!(audit.events_seen > 0);
        }
    }
}
