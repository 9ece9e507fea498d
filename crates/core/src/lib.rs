//! `ccsim-core` — the closed queuing model of Agrawal, Carey & Livny's
//! *"Models for Studying Concurrency Control Performance: Alternatives and
//! Implications"* (SIGMOD 1985), with pluggable concurrency control.
//!
//! The model (paper Figures 1–2): a fixed set of terminals submits
//! transactions; at most `mpl` are *active* at once (the rest wait in the
//! ready queue); active transactions alternate concurrency-control requests
//! with object accesses, may block or restart on conflict, write deferred
//! updates at commit, and return to their terminal for an external think
//! time. Underneath sit a pooled CPU resource and a partitioned disk array
//! (or the idealized *infinite resources* assumption).
//!
//! # Quick start
//!
//! ```
//! use ccsim_core::{run, CcAlgorithm, MetricsConfig, SimConfig};
//!
//! let cfg = SimConfig::new(CcAlgorithm::Blocking)
//!     .with_metrics(MetricsConfig::quick())
//!     .with_seed(7);
//! let out = run(cfg).expect("valid configuration");
//! assert!(out.report.throughput.mean > 0.0);
//! ```
//!
//! [`run`] is shorthand for the one run path: build a [`Simulator`], attach
//! any [`EventSink`] observers with [`Simulator::add_sink`], drive it with
//! [`Simulator::run_collecting`], and call [`RunOutcome::finished`] to
//! treat a budget stop as an error.
//!
//! Observers are the one way to see inside a run. The [`Trace`] ring keeps
//! the last N events, and the [`HistoryRecorder`] builds the
//! committed-transaction [`History`] that [`check_conflict_serializable`]
//! and [`check_snapshot_isolation`] judge. Attach each through an
//! `Rc<RefCell<_>>` handle and read it once the run is over:
//!
//! ```
//! use std::{cell::RefCell, rc::Rc};
//! use ccsim_core::{check_conflict_serializable, CcAlgorithm, HistoryRecorder};
//! use ccsim_core::{MetricsConfig, SimConfig, Simulator};
//!
//! let cfg = SimConfig::new(CcAlgorithm::Blocking).with_metrics(MetricsConfig::quick());
//! let mut sim = Simulator::new(cfg).expect("valid configuration");
//! let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
//! sim.add_sink(Box::new(Rc::clone(&recorder)));
//! sim.run_collecting().finished().expect("run within budget");
//! assert!(check_conflict_serializable(recorder.borrow().history()).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod algorithm;
mod arena;
mod budget;
mod config;
mod engine;
mod metrics;
mod profiler;
mod sink;
mod trace;
mod txn;

pub use algorithm::{CcAlgorithm, VictimPolicy};
pub use budget::{BudgetKind, RunBudget, RunError};
pub use config::{MetricsConfig, SimConfig};
pub use engine::{run, PerfStats, RunOutcome, Simulator};
pub use metrics::{ClassReport, Metrics, Report};
pub use profiler::{Stage, StageProfile, StageSample, STAGE_COUNT, STAGE_PROFILER_COMPILED};
pub use sink::{CenterFlow, EventSink, FlowStats, HistoryRecorder};
pub use trace::{Trace, TraceEvent};
pub use txn::{AttemptUsage, Program, ProgramShape, Step, TxnState};

// Re-export the vocabulary types callers need to configure runs.
pub use ccsim_history::{
    check_conflict_serializable, check_snapshot_isolation, CommittedTxn, History, SiReport,
    SiViolation,
};
pub use ccsim_lockmgr::LockMode;
pub use ccsim_stats::Estimate;
pub use ccsim_workload::{
    ObjId, ParamError, Params, ResourceSpec, RestartDelayPolicy, TermId, TxnId,
};
