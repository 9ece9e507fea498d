//! `ccsim-resources` — the physical queuing model of the paper's Figure 2.
//!
//! Two resource types underlie every logical service in the model:
//!
//! * [`ServerPool`] — a pool of identical CPU servers fed by one global
//!   two-class FCFS queue (concurrency-control requests get [`Priority::High`]);
//! * [`DiskArray`] — a partitioned disk array, one FCFS queue per disk; the
//!   caller picks the disk for each request.
//!
//! Both are *passive* components driven by the caller's event calendar:
//! they hold a request's payload only while it waits, and hand it back
//! when it starts, so the caller carries each request in service (the
//! simulator puts it in the completion event). Both account cumulative
//! busy time so the experiment harness can compute the paper's total and
//! useful utilizations.
//!
//! The "infinite resources" assumption needs no component here: the core
//! simulator simply schedules every service to complete after its nominal
//! duration without queueing.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod disks;
mod pool;

pub use disks::{DiskArray, DiskStarted};
pub use pool::{Priority, Request, ServerPool, Started};
