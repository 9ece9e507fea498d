//! The [`EventSink`] observer interface.
//!
//! The engine's typed event stream (see [`crate::TraceEvent`]) originally
//! fed exactly one consumer: the bounded [`Trace`] ring buffer. `EventSink`
//! generalizes that into an observer trait so any number of consumers —
//! the trace buffer, an online invariant auditor (`ccsim-audit`), custom
//! instrumentation — can subscribe to every state transition via
//! [`crate::Simulator::add_sink`] without the engine knowing about them.
//!
//! At the end of a run each sink also receives the final [`Report`] plus
//! [`FlowStats`], the physical resource centers' queueing totals. The
//! flow numbers are bookkept two independent ways inside the resource
//! layer (a queue-length time integral vs. per-request waiting times), so
//! a sink can check the operational form of Little's law — the time
//! integral of queue length must equal the total waiting time accumulated
//! by requests — as an exact identity.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_des::SimTime;

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
    use ccsim_workload::TxnId;

    #[test]
    fn trace_is_an_event_sink() {
        let mut trace = Trace::with_capacity(2);
        let sink: &mut dyn EventSink = &mut trace;
        sink.on_event(SimTime::from_secs(1), &TraceEvent::Arrive(TxnId(1)));
        sink.on_event(SimTime::from_secs(2), &TraceEvent::Commit(TxnId(1)));
        assert_eq!(trace.len(), 2);
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
