//! `ccsim-history` — execution-history recording and conflict-
//! serializability verification.
//!
//! The simulator's concurrency control algorithms are supposed to admit
//! only serializable executions; this crate *checks* that claim instead of
//! assuming it. The engine's history recorder (an event sink in
//! `ccsim-core`) builds one [`CommittedTxn`] per commit from the event
//! stream — when each object was read, which objects were written, and the
//! commit instant at which the writes were atomically published (the
//! deferred-update model makes publication atomic). The
//! checker rebuilds the conflict graph from those timestamps and verifies
//! it is acyclic, producing either a witness serial order or the offending
//! cycle.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod checker;
mod dsg;
mod record;

pub use checker::{check_conflict_serializable, Conflict, ConflictKind, CycleError};
pub use dsg::{check_snapshot_isolation, SiReport, SiViolation};
pub use record::{CommittedTxn, History};
