//! History records: what each committed transaction did, and when.

use ccsim_des::SimTime;
use ccsim_workload::{ObjId, TxnId};

/// One committed transaction's footprint (final, committing attempt only —
/// aborted attempts publish nothing and cannot affect serializability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Transaction identity.
    pub id: TxnId,
    /// When the committing attempt began executing.
    pub start: SimTime,
    /// Each object read, with the instant its access completed.
    pub reads: Vec<(ObjId, SimTime)>,
    /// Objects written (published atomically at `commit_at` under the
    /// deferred-update model).
    pub writes: Vec<ObjId>,
    /// The commit point: the instant the writes became visible (the
    /// validation instant for optimistic CC; the commit event for locking).
    pub commit_at: SimTime,
}

impl CommittedTxn {
    /// True if the transaction wrote nothing.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

/// An execution history: committed transactions in commit-*event* order.
///
/// Note that `commit_at` (the publication instant) is **not** necessarily
/// monotone in this order: an optimistic transaction publishes at its
/// validation instant but its commit event fires only after its deferred
/// updates, so a faster transaction that validated later can finish first.
/// The checker orders per-object timelines by `commit_at` itself.
#[derive(Debug, Clone, Default)]
pub struct History {
    txns: Vec<CommittedTxn>,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        History::default()
    }

    /// Append a committed transaction (in commit-event order).
    pub fn push(&mut self, txn: CommittedTxn) {
        self.txns.push(txn);
    }

    /// The committed transactions, in commit-event order.
    #[must_use]
    pub fn txns(&self) -> &[CommittedTxn] {
        &self.txns
    }

    /// Number of committed transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True if no transactions committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, commit_s: u64) -> CommittedTxn {
        CommittedTxn {
            id: TxnId(id),
            start: SimTime::ZERO,
            reads: vec![(ObjId(1), SimTime::from_secs(commit_s))],
            writes: vec![],
            commit_at: SimTime::from_secs(commit_s),
        }
    }

    #[test]
    fn push_in_order() {
        let mut h = History::new();
        h.push(t(1, 1));
        h.push(t(2, 2));
        h.push(t(3, 2)); // ties allowed
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.txns()[0].id, TxnId(1));
    }

    #[test]
    fn out_of_order_commit_stamps_are_accepted() {
        // Publication order and commit-event order legitimately differ for
        // optimistic CC (validation precedes the deferred updates).
        let mut h = History::new();
        h.push(t(1, 5));
        h.push(t(2, 1));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn read_only_detection() {
        assert!(t(1, 1).is_read_only());
        let mut w = t(1, 1);
        w.writes.push(ObjId(9));
        assert!(!w.is_read_only());
    }
}
