//! `ccsim-occ` — backward validation, the certifier shared by the
//! optimistic protocols.
//!
//! The paper's optimistic algorithm (after Kung & Robinson): "Transactions
//! are allowed to execute unhindered and are validated only after they have
//! reached their commit points. A transaction is restarted at its commit
//! point if it finds that any object that it read has been written by
//! another transaction which committed during its lifetime."
//!
//! [`Validator`] keeps one per-object table of *last committed write*
//! instants and checks `(object, bound)` pairs against it: a pair fails if
//! the object was written by a transaction that committed after its bound.
//! The protocols it serves differ only in the pairs they check:
//!
//! | protocol | pairs checked |
//! |---|---|
//! | optimistic (Kung–Robinson) | each read, bounded by the attempt start |
//! | silo-occ | each read, bounded by the instant that read completed |
//! | mvcc-si (first-committer-wins) | each write, bounded by the attempt start (the snapshot) |
//!
//! Validation and write-stamping happen in one logical step (Kung–Robinson's
//! critical section), which the simulator guarantees by performing both at a
//! single event. The deferred physical updates then proceed under the
//! protection of the already-published stamps.

#![warn(missing_docs)]
#![warn(clippy::all)]

use ccsim_des::SimTime;
use ccsim_workload::{ObjId, ObjMap};

/// Why a validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The checked object that was overwritten.
    pub obj: ObjId,
    /// When the conflicting transaction committed.
    pub committed_at: SimTime,
}

/// Backward-validation state: the last committed write time of each object.
///
/// The stamp table is a sparse [`ObjMap`] holding an entry only for objects
/// with a committed write on record, so memory follows write traffic rather
/// than `db_size` — at `db_size = 10^8` a dense stamp array would cost
/// 800 MB up front. An absent entry means "never written", which is
/// observably identical to a dense layout's `SimTime::ZERO` sentinel: a
/// conflict requires a stamp later than its bound, and no bound precedes
/// time zero, so a (physically impossible) commit at exactly time zero is
/// treated as erasing the stamp rather than setting an unobservable one.
#[derive(Debug, Default)]
pub struct Validator {
    last_write: ObjMap<SimTime>,
    validations: u64,
    failures: u64,
}

impl Validator {
    /// An empty validator presized for small-regime runs. The stamp table
    /// is sparse, so `db_size` is only a pre-sizing hint (capped): big
    /// databases start small and the table grows with write traffic.
    #[must_use]
    pub fn with_capacity(db_size: usize) -> Self {
        Validator {
            last_write: ObjMap::with_capacity(db_size.min(1024)),
            ..Validator::default()
        }
    }

    /// Validate `(object, bound)` pairs, in order.
    ///
    /// # Errors
    /// Returns the first [`Conflict`] found: some object was written by a
    /// transaction that committed strictly after the pair's bound.
    pub fn validate_each(
        &mut self,
        checks: impl IntoIterator<Item = (ObjId, SimTime)>,
    ) -> Result<(), Conflict> {
        self.validations += 1;
        for (obj, bound) in checks {
            if let Some(committed_at) = self.last_write.get(obj) {
                if committed_at > bound {
                    self.failures += 1;
                    return Err(Conflict { obj, committed_at });
                }
            }
        }
        Ok(())
    }

    /// Validate a transaction attempt that started executing at `start` and
    /// read `readset`: every read is bounded by the attempt start.
    ///
    /// # Errors
    /// As [`Validator::validate_each`]: some object in the readset was
    /// written by a transaction that committed *during the attempt's
    /// lifetime* (strictly after `start`).
    pub fn validate(&mut self, start: SimTime, readset: &[ObjId]) -> Result<(), Conflict> {
        self.validate_each(readset.iter().map(|&obj| (obj, start)))
    }

    /// Record a successful commit at time `now` writing `writeset`. Must be
    /// called at the same instant as the successful validation (the
    /// critical section).
    pub fn commit(&mut self, now: SimTime, writeset: impl IntoIterator<Item = ObjId>) {
        for obj in writeset {
            if now == SimTime::ZERO {
                // Equivalent to the dense layout's "never written" sentinel.
                self.last_write.remove(obj);
            } else {
                self.last_write.insert(obj, now);
            }
        }
    }

    /// Lifetime counters: `(validations, failures)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.validations, self.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn o(v: u64) -> ObjId {
        ObjId(v)
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_validator_accepts_everything() {
        let mut v = Validator::default();
        assert!(v.validate(t(0), &[o(1), o(2), o(3)]).is_ok());
        assert_eq!(v.counters(), (1, 0));
    }

    #[test]
    fn conflict_when_read_overwritten_during_lifetime() {
        let mut v = Validator::default();
        // T2 commits a write to obj 5 at t=10.
        v.commit(t(10), [o(5)]);
        // An attempt that started at t=3 and read obj 5 must fail.
        let err = v.validate(t(3), &[o(1), o(5)]).unwrap_err();
        assert_eq!(err.obj, o(5));
        assert_eq!(err.committed_at, t(10));
        assert_eq!(v.counters(), (1, 1));
    }

    #[test]
    fn no_conflict_with_writes_before_start() {
        let mut v = Validator::default();
        v.commit(t(10), [o(5)]);
        // An attempt that started at t=10 (or later) saw that committed
        // state when it read — no conflict.
        assert!(v.validate(t(10), &[o(5)]).is_ok());
        assert!(v.validate(t(11), &[o(5)]).is_ok());
    }

    #[test]
    fn write_write_does_not_conflict_by_itself() {
        // Backward validation only checks the readset; a blind write to an
        // object someone else wrote is fine (our workload always reads what
        // it writes, so this matches the paper's conflict definition).
        let mut v = Validator::default();
        v.commit(t(10), [o(5)]);
        assert!(v.validate(t(3), &[o(1)]).is_ok());
        v.commit(t(12), [o(5)]);
        let err = v.validate_each([(o(5), t(11))]).unwrap_err();
        assert_eq!(err.committed_at, t(12));
        assert!(v.validate_each([(o(5), t(12))]).is_ok());
    }

    #[test]
    fn failed_validation_stamps_nothing() {
        let mut v = Validator::default();
        v.commit(t(10), [o(1)]);
        assert!(v.validate(t(0), &[o(1), o(2)]).is_err());
        // Only a commit stamps: obj 2 still reads as never written.
        assert!(v.validate_each([(o(2), SimTime::ZERO)]).is_ok());
        assert_eq!(v.counters(), (2, 1));
    }

    #[test]
    fn later_write_overwrites_stamp() {
        let mut v = Validator::default();
        v.commit(t(5), [o(9)]);
        v.commit(t(8), [o(9)]);
        let err = v.validate_each([(o(9), t(7))]).unwrap_err();
        assert_eq!(err.committed_at, t(8));
        // A reader that started between the two writes conflicts with the
        // second one.
        assert!(v.validate(t(6), &[o(9)]).is_err());
        assert!(v.validate(t(8), &[o(9)]).is_ok());
    }

    #[test]
    fn read_only_transactions_still_validate() {
        let mut v = Validator::default();
        v.commit(t(10), [o(3)]);
        assert!(v.validate(t(5), &[o(3)]).is_err());
        assert!(v.validate(t(12), &[o(3)]).is_ok());
        // A read-only commit publishes nothing: the t=10 stamp stands.
        v.commit(t(13), []);
        let err = v.validate_each([(o(3), t(9))]).unwrap_err();
        assert_eq!(err.committed_at, t(10));
        assert!(v.validate_each([(o(3), t(10))]).is_ok());
    }

    #[test]
    fn empty_readset_always_validates() {
        let mut v = Validator::default();
        v.commit(t(10), [o(1)]);
        assert!(v.validate(t(0), &[]).is_ok());
    }

    #[test]
    fn a_read_that_already_saw_the_write_revalidates() {
        // Bounding a read by the instant it completed (Silo) is more
        // permissive than bounding it by the attempt start (Kung–Robinson):
        // a read that already saw the newer version revalidates cleanly.
        let mut v = Validator::default();
        v.commit(t(5), [o(1)]);
        // Attempt started at t=1 and read obj 1 at t=6, after the write.
        assert!(v.validate(t(1), &[o(1)]).is_err());
        assert!(v.validate_each([(o(1), t(6))]).is_ok());
        // Read at t=3, before the write committed: the stamp moved under it.
        let err = v.validate_each([(o(1), t(3))]).unwrap_err();
        assert_eq!((err.obj, err.committed_at), (o(1), t(5)));
        assert_eq!(v.counters(), (3, 2));
    }

    #[test]
    fn validate_each_reports_the_first_late_pair_in_order() {
        let mut v = Validator::default();
        v.commit(t(5), [o(1), o(2)]);
        let err = v
            .validate_each([(o(3), t(0)), (o(2), t(4)), (o(1), t(4))])
            .unwrap_err();
        assert_eq!(err.obj, o(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// First-committer-wins over a write set, as mvcc-si certifies: a
        /// commit fails iff a prior commit to its write object happened
        /// strictly inside its (start, now] window.
        #[test]
        fn fcw_matches_interval_overlap_model(
            ops in proptest::collection::vec(
                (0u64..8, 0u64..20, 1u64..10), 1..40
            ),
        ) {
            let mut v = Validator::default();
            // Naive model: the (object, instant) of every commit so far.
            let mut committed: Vec<(u64, u64)> = Vec::new();
            let mut clock = 0u64;
            for (i, &(obj, start_back, dur)) in ops.iter().enumerate() {
                clock += dur;
                let start = clock.saturating_sub(start_back);
                let now = clock;
                let expect_conflict = committed
                    .iter()
                    .any(|&(ob, at)| ob == obj && at > start);
                let got = v.validate_each([(o(obj), t(start))]);
                prop_assert_eq!(
                    got.is_err(),
                    expect_conflict,
                    "op {} obj {} start {} now {}",
                    i, obj, start, now
                );
                if got.is_ok() {
                    v.commit(t(now), [o(obj)]);
                    committed.push((obj, now));
                }
            }
        }
    }
}
