//! Structured execution tracing.
//!
//! The engine emits one typed [`TraceEvent`] per interesting state
//! transition to every attached [`crate::EventSink`]. [`Trace`] is the sink
//! that keeps them: a bounded ring buffer, attached like any other observer
//! with [`crate::Simulator::add_sink`]. Traces make the model's behaviour
//! inspectable — which transaction blocked on which object, who was picked
//! as a deadlock victim, when validation failed — without attaching a
//! debugger to a discrete-event simulation.
//!
//! The buffer is bounded ([`Trace::with_capacity`]) so tracing long runs
//! keeps the *last* N events; tests and examples use small horizons where
//! nothing is dropped.

use std::collections::VecDeque;
use std::fmt;

use ccsim_des::SimTime;
use ccsim_lockmgr::LockMode;
use ccsim_workload::{ObjId, TxnId};

fn mode_str(mode: LockMode) -> &'static str {
    match mode {
        LockMode::Read => "read",
        LockMode::Write => "write",
    }
}

/// One traced state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A terminal submitted a new transaction.
    Arrive(TxnId),
    /// A transaction was admitted into the active set (attempt start).
    Admit(TxnId),
    /// A lock request was granted immediately (no queueing). Also covers
    /// in-place read→write upgrades.
    Acquire(TxnId, ObjId, LockMode),
    /// A lock request blocked on an object (or, under basic T/O, a read
    /// parked on a pending smaller-timestamp prewrite).
    Block(TxnId, ObjId),
    /// A queued lock request was granted (or a parked basic-T/O read
    /// resumed; the resumed read is then re-checked, so it may block again).
    Grant(TxnId, ObjId, LockMode),
    /// A deadlock was detected and a victim chosen.
    Deadlock {
        /// The transaction whose block completed the cycle.
        detector: TxnId,
        /// The transaction chosen for restart.
        victim: TxnId,
    },
    /// A transaction was aborted and will retry.
    Restart(TxnId),
    /// An optimistic validation failed against a committed writer.
    ValidationFailure(TxnId, ObjId),
    /// A basic-T/O operation arrived too late and was rejected.
    TsRejected(TxnId, ObjId),
    /// A transaction committed.
    Commit(TxnId),
    /// All locks of a terminating transaction were released (`n` distinct
    /// objects). Emitted immediately after `Commit`/`Restart` by every
    /// lock-using algorithm; the count lets an auditor cross-check its own
    /// event-derived holdings against the lock manager's.
    LocksReleased(TxnId, u32),
    /// A read of an object, with the instant that fixes the version it
    /// observed: the access instant under the lock-based, optimistic and
    /// Silo protocols, the attempt's snapshot under snapshot isolation, the
    /// observed write timestamp under TicToc, and the timestamp-check grant
    /// under basic T/O. The event carries the instant itself because one
    /// infinite-resource service-run event applies several reads whose
    /// instants lie before it.
    Read(TxnId, ObjId, SimTime),
    /// A write the committing transaction publishes. Emitted just before
    /// the transaction's `CommitPoint`.
    Publish(TxnId, ObjId),
    /// The commit point: the instant the transaction's writes became
    /// visible (its validation, or TicToc's logical commit timestamp), else
    /// the commit instant. Emitted immediately before every `Commit`,
    /// read-only ones included.
    CommitPoint(TxnId, SimTime),
}

impl TraceEvent {
    /// The transaction the event is about (the detector for deadlocks).
    #[must_use]
    pub fn txn(&self) -> TxnId {
        match *self {
            TraceEvent::Arrive(t)
            | TraceEvent::Admit(t)
            | TraceEvent::Acquire(t, _, _)
            | TraceEvent::Block(t, _)
            | TraceEvent::Grant(t, _, _)
            | TraceEvent::Restart(t)
            | TraceEvent::ValidationFailure(t, _)
            | TraceEvent::TsRejected(t, _)
            | TraceEvent::Commit(t)
            | TraceEvent::LocksReleased(t, _)
            | TraceEvent::Read(t, ..)
            | TraceEvent::Publish(t, _)
            | TraceEvent::CommitPoint(t, _) => t,
            TraceEvent::Deadlock { detector, .. } => detector,
        }
    }

    /// True for the facts only a history needs (`Read`, `Publish`,
    /// `CommitPoint`); the golden-trace writer leaves them out.
    #[must_use]
    pub fn is_history_fact(&self) -> bool {
        matches!(
            self,
            TraceEvent::Read(..) | TraceEvent::Publish(..) | TraceEvent::CommitPoint(..)
        )
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Arrive(t) => write!(f, "{t} arrives"),
            TraceEvent::Admit(t) => write!(f, "{t} admitted"),
            TraceEvent::Acquire(t, o, m) => write!(f, "{t} acquires {o} ({})", mode_str(m)),
            TraceEvent::Block(t, o) => write!(f, "{t} blocks on {o}"),
            TraceEvent::Grant(t, o, m) => write!(f, "{t} granted {o} ({})", mode_str(m)),
            TraceEvent::Deadlock { detector, victim } => {
                write!(f, "deadlock via {detector}; victim {victim}")
            }
            TraceEvent::Restart(t) => write!(f, "{t} restarts"),
            TraceEvent::ValidationFailure(t, o) => {
                write!(f, "{t} fails validation on {o}")
            }
            TraceEvent::TsRejected(t, o) => {
                write!(f, "{t} rejected by timestamp order on {o}")
            }
            TraceEvent::Commit(t) => write!(f, "{t} commits"),
            TraceEvent::LocksReleased(t, n) => write!(f, "{t} releases {n} lock(s)"),
            TraceEvent::Read(t, o, at) => write!(f, "{t} reads {o} as of {at}"),
            TraceEvent::Publish(t, o) => write!(f, "{t} publishes {o}"),
            TraceEvent::CommitPoint(t, at) => write!(f, "{t} commit point {at}"),
        }
    }
}

/// A bounded, timestamped event log.
#[derive(Debug, Clone)]
pub struct Trace {
    events: VecDeque<(SimTime, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `capacity` most-recent events. A capacity
    /// of zero disables recording entirely: pushes are no-ops (nothing is
    /// retained and nothing is counted as dropped).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Append an event at `now`.
    pub fn push(&mut self, now: SimTime, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((now, event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained events concerning one transaction, oldest first.
    #[must_use]
    pub fn for_txn(&self, txn: TxnId) -> Vec<(SimTime, TraceEvent)> {
        self.events
            .iter()
            .filter(|(_, e)| e.txn() == txn)
            .copied()
            .collect()
    }

    /// Render the trace as one line per event.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} earlier events dropped ...", self.dropped);
        }
        for (at, e) in &self.events {
            let _ = writeln!(out, "[{at}] {e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> TxnId {
        TxnId(v)
    }
    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::with_capacity(10);
        tr.push(at(1), TraceEvent::Arrive(t(1)));
        tr.push(at(2), TraceEvent::Admit(t(1)));
        tr.push(at(3), TraceEvent::Commit(t(1)));
        assert_eq!(tr.len(), 3);
        let kinds: Vec<TraceEvent> = tr.events().map(|&(_, e)| e).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEvent::Arrive(t(1)),
                TraceEvent::Admit(t(1)),
                TraceEvent::Commit(t(1))
            ]
        );
    }

    #[test]
    fn capacity_bound_keeps_latest() {
        let mut tr = Trace::with_capacity(2);
        tr.push(at(1), TraceEvent::Arrive(t(1)));
        tr.push(at(2), TraceEvent::Arrive(t(2)));
        tr.push(at(3), TraceEvent::Arrive(t(3)));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 1);
        let first = tr.events().next().unwrap();
        assert_eq!(first.1, TraceEvent::Arrive(t(2)));
    }

    #[test]
    fn per_txn_filter() {
        let mut tr = Trace::with_capacity(10);
        tr.push(at(1), TraceEvent::Arrive(t(1)));
        tr.push(at(1), TraceEvent::Arrive(t(2)));
        tr.push(at(2), TraceEvent::Block(t(1), ObjId(9)));
        tr.push(
            at(3),
            TraceEvent::Deadlock {
                detector: t(1),
                victim: t(2),
            },
        );
        let mine = tr.for_txn(t(1));
        assert_eq!(mine.len(), 3);
        assert_eq!(tr.for_txn(t(2)).len(), 1);
    }

    #[test]
    fn render_includes_drop_marker() {
        let mut tr = Trace::with_capacity(1);
        tr.push(at(1), TraceEvent::Commit(t(1)));
        tr.push(at(2), TraceEvent::Commit(t(2)));
        let text = tr.render();
        assert!(text.contains("1 earlier events dropped"));
        assert!(text.contains("txn2 commits"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            TraceEvent::Block(t(3), ObjId(7)).to_string(),
            "txn3 blocks on obj7"
        );
        assert_eq!(
            TraceEvent::Deadlock {
                detector: t(1),
                victim: t(2)
            }
            .to_string(),
            "deadlock via txn1; victim txn2"
        );
        assert_eq!(
            TraceEvent::ValidationFailure(t(4), ObjId(2)).to_string(),
            "txn4 fails validation on obj2"
        );
        assert_eq!(
            TraceEvent::Acquire(t(5), ObjId(3), LockMode::Write).to_string(),
            "txn5 acquires obj3 (write)"
        );
        assert_eq!(
            TraceEvent::Grant(t(5), ObjId(3), LockMode::Read).to_string(),
            "txn5 granted obj3 (read)"
        );
        assert_eq!(
            TraceEvent::TsRejected(t(6), ObjId(1)).to_string(),
            "txn6 rejected by timestamp order on obj1"
        );
        assert_eq!(
            TraceEvent::LocksReleased(t(7), 4).to_string(),
            "txn7 releases 4 lock(s)"
        );
        assert_eq!(
            TraceEvent::Read(t(9), ObjId(4), at(2)).to_string(),
            "txn9 reads obj4 as of 2.000000s"
        );
        assert_eq!(
            TraceEvent::Publish(t(9), ObjId(4)).to_string(),
            "txn9 publishes obj4"
        );
        assert_eq!(TraceEvent::CommitPoint(t(9), at(3)).txn(), t(9));
        assert!(TraceEvent::CommitPoint(t(9), at(3)).is_history_fact());
        assert!(!TraceEvent::Commit(t(9)).is_history_fact());
    }

    #[test]
    fn capacity_n_retains_exactly_last_n_in_order() {
        for capacity in [1usize, 2, 3, 7] {
            let mut tr = Trace::with_capacity(capacity);
            let total = 10u64;
            for i in 0..total {
                tr.push(at(i), TraceEvent::Arrive(t(i)));
            }
            assert_eq!(tr.len(), capacity.min(total as usize));
            assert_eq!(tr.dropped(), total - capacity as u64);
            let kept: Vec<u64> = tr
                .events()
                .map(|&(_, e)| match e {
                    TraceEvent::Arrive(TxnId(v)) => v,
                    other => panic!("unexpected event {other:?}"),
                })
                .collect();
            let expected: Vec<u64> = (total - capacity as u64..total).collect();
            assert_eq!(kept, expected, "capacity {capacity}");
        }
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut tr = Trace::with_capacity(0);
        for i in 0..5 {
            tr.push(at(i), TraceEvent::Commit(t(i)));
        }
        assert_eq!(tr.len(), 0);
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0, "a disabled trace counts nothing");
        assert!(tr.render().is_empty());
        assert!(tr.for_txn(t(0)).is_empty());
    }
}
