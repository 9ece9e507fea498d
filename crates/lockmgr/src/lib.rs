//! `ccsim-lockmgr` — the locking substrate of the study.
//!
//! Implements strict two-phase locking with read/write modes, in-place and
//! queued lock upgrades, per-object FCFS queues, and deadlock detection over
//! an on-demand waits-for graph. Two request flavors serve the paper's two
//! locking algorithms:
//!
//! * [`LockManager::request`] queues on conflict — the **blocking**
//!   algorithm (dynamic 2PL; the caller runs [`LockManager::find_deadlock`]
//!   after each block and restarts a victim from the returned cycle);
//! * [`LockManager::try_request`] denies on conflict — the
//!   **immediate-restart** algorithm aborts the requester instead of queueing.
//!
//! The crate is purely logical: it knows nothing about simulated time or
//! resources, which keeps it independently testable.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod graph;
mod manager;

pub use manager::{Grant, LockManager, LockMode, RequestOutcome};
