//! The [`EventSink`] observer interface: the one way to observe a run.
//!
//! The engine's typed event stream (see [`crate::TraceEvent`]) goes to
//! every sink attached with [`crate::Simulator::add_sink`], and to nothing
//! else. Any number of consumers subscribe alike, without the engine
//! knowing about them: the bounded [`Trace`] ring buffer, the
//! [`HistoryRecorder`] that builds the committed-transaction [`History`]
//! for the serializability and snapshot-isolation oracles, an online
//! invariant auditor (`ccsim-audit`), custom instrumentation. A caller
//! keeps an `Rc<RefCell<_>>` handle on the sink it attaches to read its
//! findings once the run is over. With no sink attached the engine emits
//! nothing at all.
//!
//! At the end of a run each sink also receives the final [`Report`] plus
//! [`FlowStats`], the physical resource centers' queueing totals. The
//! flow numbers are bookkept two independent ways inside the resource
//! layer (a queue-length time integral vs. per-request waiting times), so
//! a sink can check the operational form of Little's law — the time
//! integral of queue length must equal the total waiting time accumulated
//! by requests — as an exact identity.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ccsim_des::SimTime;
use ccsim_history::{CommittedTxn, History};
use ccsim_workload::TxnId;

use crate::metrics::Report;
use crate::trace::{Trace, TraceEvent};

/// Per-service-center queueing totals over a whole run, measured at the
/// final simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CenterFlow {
    /// Number of servers at the center.
    pub servers: usize,
    /// Cumulative busy time across all servers, µs.
    pub busy_us: u64,
    /// Requests fully served.
    pub served: u64,
    /// ∫ (queue length) dt over the run, µs·requests. Counts *waiting*
    /// requests only (not those in service).
    pub queue_integral_us: u64,
    /// Total time spent waiting in queue by requests that have already
    /// entered service, µs.
    pub total_wait_us: u64,
    /// Waiting time accrued so far by requests still queued at the end of
    /// the run, µs.
    pub pending_wait_us: u64,
}

impl CenterFlow {
    /// Little's-law flow balance, operational form: the queue-length time
    /// integral must exactly equal the waiting time accumulated by all
    /// requests (completed or still pending). The two sides are bookkept
    /// independently, so a mismatch means the center lost or invented work.
    #[must_use]
    pub fn flow_balanced(&self) -> bool {
        self.queue_integral_us == self.total_wait_us + self.pending_wait_us
    }
}

/// End-of-run flow statistics for the physical resource centers. Both are
/// `None` under infinite resources (no queues exist to balance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Total simulated horizon, µs.
    pub horizon_us: u64,
    /// The CPU pool, if physical.
    pub cpu: Option<CenterFlow>,
    /// The disk array (aggregated over all disks), if physical.
    pub disk: Option<CenterFlow>,
}

/// An observer of the engine's event stream.
///
/// Sinks are registered with [`crate::Simulator::add_sink`] and receive
/// every event the engine emits — including warmup, unlike [`Report`]
/// metrics — in simulation order.
pub trait EventSink {
    /// Called for every state transition, at the simulated instant `now`.
    fn on_event(&mut self, now: SimTime, event: &TraceEvent);

    /// Called once when the run completes, with the final report and the
    /// resource centers' flow totals.
    fn on_run_end(&mut self, _now: SimTime, _report: &Report, _flow: &FlowStats) {}
}

/// The trace ring buffer is itself just an event sink that retains the
/// last N events.
impl EventSink for Trace {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        self.push(now, *event);
    }
}

/// The sink that records the committed-transaction [`History`] from the
/// event stream. An attempt starts at its `Admit`, collects its `Read`s,
/// `Publish`es and `CommitPoint`, and becomes one [`CommittedTxn`] at its
/// `Commit`; a `Restart` drops it, so an aborted attempt's reads never
/// reach the history.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    history: History,
    /// The attempts in flight, keyed by transaction.
    attempts: HashMap<TxnId, CommittedTxn>,
}

impl HistoryRecorder {
    /// A recorder with an empty history.
    #[must_use]
    pub fn new() -> Self {
        HistoryRecorder::default()
    }

    /// The transactions committed so far, in commit-event order.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The recorded history.
    #[must_use]
    pub fn into_history(self) -> History {
        self.history
    }
}

impl EventSink for HistoryRecorder {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::Admit(id) => {
                let attempt = CommittedTxn {
                    id,
                    start: now,
                    reads: Vec::new(),
                    writes: Vec::new(),
                    commit_at: now,
                };
                self.attempts.insert(id, attempt);
            }
            TraceEvent::Restart(id) => {
                self.attempts.remove(&id);
            }
            TraceEvent::Read(id, obj, at) => {
                if let Some(t) = self.attempts.get_mut(&id) {
                    t.reads.push((obj, at));
                }
            }
            TraceEvent::Publish(id, obj) => {
                if let Some(t) = self.attempts.get_mut(&id) {
                    t.writes.push(obj);
                }
            }
            TraceEvent::CommitPoint(id, at) => {
                if let Some(t) = self.attempts.get_mut(&id) {
                    t.commit_at = at;
                }
            }
            TraceEvent::Commit(id) => {
                if let Some(t) = self.attempts.remove(&id) {
                    self.history.push(t);
                }
            }
            _ => {}
        }
    }
}

/// A shared sink: the engine owns one handle and the caller keeps another,
/// to read the observer's findings once the run has consumed the
/// simulator.
impl<S: EventSink> EventSink for Rc<RefCell<S>> {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        self.borrow_mut().on_event(now, event);
    }

    fn on_run_end(&mut self, now: SimTime, report: &Report, flow: &FlowStats) {
        self.borrow_mut().on_run_end(now, report, flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_an_event_sink() {
        let mut trace = Trace::with_capacity(2);
        let sink: &mut dyn EventSink = &mut trace;
        sink.on_event(SimTime::from_secs(1), &TraceEvent::Arrive(TxnId(1)));
        sink.on_event(SimTime::from_secs(2), &TraceEvent::Commit(TxnId(1)));
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn aborted_attempt_reads_never_reach_the_history() {
        use ccsim_workload::ObjId;
        let (t, o, at) = (TxnId(3), ObjId(7), SimTime::from_secs);
        let mut rec = HistoryRecorder::new();
        for (s, e) in [
            (1, TraceEvent::Arrive(t)),
            (1, TraceEvent::Admit(t)),
            (2, TraceEvent::Read(t, ObjId(5), at(2))),
            (3, TraceEvent::Restart(t)),
            (4, TraceEvent::Admit(t)),
            (5, TraceEvent::Read(t, o, at(5))),
            (6, TraceEvent::Publish(t, o)),
            (6, TraceEvent::CommitPoint(t, at(6))),
            (6, TraceEvent::Commit(t)),
        ] {
            rec.on_event(at(s), &e);
        }
        let expected = CommittedTxn {
            id: t,
            start: at(4),
            reads: vec![(o, at(5))],
            writes: vec![o],
            commit_at: at(6),
        };
        assert_eq!(rec.into_history().txns(), &[expected]);
    }

    #[test]
    fn flow_balance_is_exact() {
        let mut f = CenterFlow {
            servers: 1,
            busy_us: 10,
            served: 2,
            queue_integral_us: 100,
            total_wait_us: 60,
            pending_wait_us: 40,
        };
        assert!(f.flow_balanced());
        f.pending_wait_us = 41;
        assert!(!f.flow_balanced());
    }
}
