//! Snapshot-isolation oracle over the dependency serialization graph.
//!
//! Snapshot isolation admits non-serializable executions, so the plain
//! conflict-serializability checker would (correctly!) reject histories an
//! SI engine is *supposed* to produce. This module checks the weaker — but
//! still precise — contract instead, following Fekete et al., "Making
//! Snapshot Isolation Serializable" (TODS 2005):
//!
//! 1. **First committer wins**: no two committed writers of the same object
//!    may be concurrent (their `[start, commit_at]` intervals overlap). A
//!    violation means the engine published a lost update — an outright bug,
//!    not an SI anomaly.
//! 2. Every cycle in the DSG of an SI history must pass through at least
//!    two consecutive *vulnerable* anti-dependency edges — RW edges between
//!    concurrent transactions. Removing all vulnerable RW edges must
//!    therefore leave the graph acyclic; a residual cycle proves the
//!    history was not produced under snapshot isolation at all.
//! 3. The vulnerable edges that *were* removed are reported, with classic
//!    write skew (a pair of concurrent transactions, each anti-depending on
//!    the other) counted explicitly — anomalies are surfaced, never hidden.

use std::collections::{BTreeMap, HashMap};

use ccsim_workload::TxnId;

use crate::checker::{conflict_edges, toposort_or_cycle, Conflict, ConflictKind, CycleError};
use crate::record::History;

/// Outcome of a successful snapshot-isolation check.
#[derive(Debug, Clone)]
pub struct SiReport {
    /// A witness serial order of the DSG with vulnerable RW edges removed.
    pub serial_order: Vec<TxnId>,
    /// Anti-dependency edges between concurrent transactions (the edges SI
    /// permits that serializability would not).
    pub vulnerable_rw: Vec<Conflict>,
    /// Unordered pairs of concurrent transactions with *mutual* vulnerable
    /// anti-dependencies: classic write skew.
    pub write_skew_pairs: Vec<(TxnId, TxnId)>,
}

impl SiReport {
    /// True if the history was in fact fully serializable (no vulnerable
    /// anti-dependencies at all).
    #[must_use]
    pub fn is_serializable(&self) -> bool {
        self.vulnerable_rw.is_empty()
    }
}

/// Why a history is *not* consistent with snapshot isolation.
#[derive(Debug, Clone)]
pub enum SiViolation {
    /// Two committed transactions wrote the same object while concurrent:
    /// first-committer-wins was not enforced.
    FirstCommitterWins {
        /// The writer that committed first.
        first: TxnId,
        /// The overlapping writer that should have aborted.
        second: TxnId,
        /// The object both wrote.
        obj: ccsim_workload::ObjId,
    },
    /// The DSG still has a cycle after every vulnerable anti-dependency is
    /// removed — impossible under SI.
    ResidualCycle(CycleError),
}

impl std::fmt::Display for SiViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiViolation::FirstCommitterWins { first, second, obj } => write!(
                f,
                "first-committer-wins violated on {obj}: {second} committed while concurrent with {first}"
            ),
            SiViolation::ResidualCycle(c) => {
                write!(f, "cycle without vulnerable anti-dependencies: {c}")
            }
        }
    }
}

/// True if the committing attempts of `a` and `b` overlapped in time, i.e.
/// neither's snapshot could see the other's writes. Boundary instants do
/// not overlap: a transaction starting exactly at another's commit instant
/// reads a snapshot that already includes it.
fn concurrent(
    a: (ccsim_des::SimTime, ccsim_des::SimTime),
    b: (ccsim_des::SimTime, ccsim_des::SimTime),
) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// Check that `history` is consistent with snapshot isolation.
///
/// # Errors
/// Returns [`SiViolation`] if first-committer-wins was broken or the DSG
/// has a cycle not explained by vulnerable anti-dependencies.
pub fn check_snapshot_isolation(history: &History) -> Result<SiReport, SiViolation> {
    let txns = history.txns();
    let intervals: HashMap<TxnId, (ccsim_des::SimTime, ccsim_des::SimTime)> = txns
        .iter()
        .map(|t| (t.id, (t.start, t.commit_at)))
        .collect();

    // First committer wins: per object, writers sorted by commit instant
    // must have pairwise-disjoint intervals; since commit times are sorted,
    // checking consecutive pairs suffices.
    // Ordered by object, so the violation reported is the same on every run.
    let mut writers: BTreeMap<ccsim_workload::ObjId, Vec<&crate::record::CommittedTxn>> =
        BTreeMap::new();
    for t in txns {
        for &obj in &t.writes {
            writers.entry(obj).or_default().push(t);
        }
    }
    for (obj, mut ws) in writers {
        ws.sort_by_key(|t| (t.commit_at, t.id));
        for pair in ws.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if concurrent((a.start, a.commit_at), (b.start, b.commit_at)) {
                return Err(SiViolation::FirstCommitterWins {
                    first: a.id,
                    second: b.id,
                    obj,
                });
            }
        }
    }

    // Split the DSG: vulnerable anti-dependencies are legal under SI and
    // excluded from the acyclicity requirement.
    let (vulnerable_rw, kept): (Vec<Conflict>, Vec<Conflict>) =
        conflict_edges(history).into_iter().partition(|e| {
            e.kind == ConflictKind::ReadWrite
                && match (intervals.get(&e.from), intervals.get(&e.to)) {
                    (Some(&a), Some(&b)) => concurrent(a, b),
                    _ => false,
                }
        });

    let serial_order = toposort_or_cycle(history, &kept).map_err(SiViolation::ResidualCycle)?;

    // Classic write skew: mutual vulnerable anti-dependencies.
    let mut seen: std::collections::HashSet<(TxnId, TxnId)> = std::collections::HashSet::new();
    for e in &vulnerable_rw {
        seen.insert((e.from, e.to));
    }
    let mut write_skew_pairs: Vec<(TxnId, TxnId)> = seen
        .iter()
        .filter(|&&(a, b)| a < b && seen.contains(&(b, a)))
        .copied()
        .collect();
    write_skew_pairs.sort();

    Ok(SiReport {
        serial_order,
        vulnerable_rw,
        write_skew_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommittedTxn;
    use ccsim_des::SimTime;
    use ccsim_workload::ObjId;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn txn(
        id: u64,
        start_s: u64,
        reads: &[(u64, u64)],
        writes: &[u64],
        commit_s: u64,
    ) -> CommittedTxn {
        CommittedTxn {
            id: TxnId(id),
            start: s(start_s),
            reads: reads.iter().map(|&(o, at)| (ObjId(o), s(at))).collect(),
            writes: writes.iter().map(|&o| ObjId(o)).collect(),
            commit_at: s(commit_s),
        }
    }

    fn history(txns: Vec<CommittedTxn>) -> History {
        let mut h = History::new();
        let mut sorted = txns;
        sorted.sort_by_key(|t| t.commit_at);
        for t in sorted {
            h.push(t);
        }
        h
    }

    #[test]
    fn serial_history_reports_no_anomalies() {
        // t1 writes x, then t2 reads the new version and writes y.
        let h = history(vec![
            txn(1, 0, &[(1, 0)], &[1], 2),
            txn(2, 3, &[(1, 3)], &[2], 5),
        ]);
        let rep = check_snapshot_isolation(&h).expect("serial history is SI");
        assert!(rep.is_serializable());
        assert!(rep.write_skew_pairs.is_empty());
        assert_eq!(rep.serial_order, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn write_skew_is_counted_not_rejected() {
        // The textbook anomaly: t1 reads {x,y} writes x; t2 reads {x,y}
        // writes y; both run on the same snapshot. Not serializable, but a
        // legal SI outcome — the oracle must accept it and count the skew.
        let h = history(vec![
            txn(1, 0, &[(1, 1), (2, 1)], &[1], 4),
            txn(2, 0, &[(1, 1), (2, 1)], &[2], 5),
        ]);
        let rep = check_snapshot_isolation(&h).expect("write skew is legal SI");
        assert!(!rep.is_serializable());
        assert_eq!(rep.write_skew_pairs, vec![(TxnId(1), TxnId(2))]);
        // The plain checker rejects the same history.
        assert!(crate::checker::check_conflict_serializable(&h).is_err());
    }

    #[test]
    fn lost_update_is_a_first_committer_wins_violation() {
        // Two concurrent writers of the same object both committed.
        let h = history(vec![
            txn(1, 0, &[(1, 1)], &[1], 4),
            txn(2, 0, &[(1, 1)], &[1], 5),
        ]);
        match check_snapshot_isolation(&h) {
            Err(SiViolation::FirstCommitterWins { first, second, obj }) => {
                assert_eq!((first, second, obj), (TxnId(1), TxnId(2), ObjId(1)));
            }
            other => panic!("expected FCW violation, got {other:?}"),
        }
    }

    #[test]
    fn sequential_writers_of_one_object_are_fine() {
        let h = history(vec![
            txn(1, 0, &[(1, 0)], &[1], 2),
            txn(2, 2, &[(1, 2)], &[1], 4), // starts exactly at t1's commit
        ]);
        let rep = check_snapshot_isolation(&h).expect("sequential rewrites are SI");
        assert!(rep.is_serializable());
    }

    #[test]
    fn non_concurrent_anti_dependencies_stay_in_the_graph() {
        // RW between txns with disjoint intervals is not vulnerable and is
        // kept: here it is consistent (all edges point t1 -> t2).
        let h = history(vec![
            txn(1, 0, &[(2, 1)], &[1], 2), // [0,2]: read y=initial, write x
            txn(2, 3, &[(1, 4)], &[2], 5), // [3,5]: read t1's x, write y
        ]);
        let rep = check_snapshot_isolation(&h).expect("forward edges only");
        assert!(rep.is_serializable());
        assert_eq!(rep.serial_order, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn residual_cycle_is_rejected() {
        // A cycle whose closing edge is a WR between non-concurrent
        // transactions: t1 "reads" t3's version of z at time 9 despite
        // committing at 2. No honest SI engine produces this history —
        // vulnerable-edge removal cannot explain it, so the oracle must
        // reject rather than excuse it.
        let h = history(vec![
            txn(1, 0, &[(3, 9)], &[1], 2), // read-at 9 after commit 2: bug
            txn(2, 3, &[(1, 4)], &[2], 5), // reads t1's x => WR t1->t2
            txn(3, 6, &[(2, 7)], &[3], 8), // reads t2's y => WR t2->t3
        ]);
        match check_snapshot_isolation(&h) {
            Err(SiViolation::ResidualCycle(c)) => assert!(c.edges.len() >= 3),
            other => panic!("expected residual cycle, got {other:?}"),
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let fcw = SiViolation::FirstCommitterWins {
            first: TxnId(1),
            second: TxnId(2),
            obj: ObjId(7),
        };
        let text = format!("{fcw}");
        assert!(text.contains("first-committer-wins"), "{text}");
        assert!(text.contains("obj7") || text.contains('7'), "{text}");
    }
}
