//! The conflict-serializability checker.
//!
//! Under the deferred-update model every committed transaction publishes
//! its writes atomically at its commit point, so the version a read
//! observes is determined by timestamps alone: a read of `X` at time `t`
//! sees the write of the last transaction that committed a write to `X` at
//! or before `t`. The conflict graph is therefore:
//!
//! * **WW**: writers of `X` ordered by commit time (a chain suffices);
//! * **WR**: the writer a read observes → the reader;
//! * **RW**: a reader of `X` → the next writer of `X` to commit after the
//!   read (anti-dependency; the WW chain covers later writers).
//!
//! The history is conflict-serializable iff this graph is acyclic; the
//! checker returns a witness serial order (a topological sort) or the
//! offending cycle with its labeled conflict edges.

use std::collections::{BTreeMap, HashMap};

use ccsim_des::SimTime;
use ccsim_workload::{ObjId, TxnId};

use crate::record::History;

/// The kind of dependency an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Write–write: both transactions wrote the object.
    WriteWrite,
    /// Write–read: the reader observed the writer's version.
    WriteRead,
    /// Read–write (anti-dependency): the writer overwrote what the reader
    /// saw.
    ReadWrite,
}

/// One conflict-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The transaction that must serialize first.
    pub from: TxnId,
    /// The transaction that must serialize second.
    pub to: TxnId,
    /// The object they conflict on.
    pub obj: ObjId,
    /// The dependency kind.
    pub kind: ConflictKind,
}

/// A serializability violation: a cycle in the conflict graph.
#[derive(Debug, Clone)]
pub struct CycleError {
    /// The edges of the cycle, in order (`edges[i].to == edges[i+1].from`,
    /// wrapping around).
    pub edges: Vec<Conflict>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conflict cycle:")?;
        for e in &self.edges {
            write!(f, " {}-[{:?} on {}]->{}", e.from, e.kind, e.obj, e.to)?;
        }
        Ok(())
    }
}
impl std::error::Error for CycleError {}

/// Build every conflict edge of `history`'s dependency serialization graph
/// (see the module docs for the WW/WR/RW rules).
pub(crate) fn conflict_edges(history: &History) -> Vec<Conflict> {
    let txns = history.txns();

    // Per-object timelines.
    #[derive(Default)]
    struct Timeline {
        writers: Vec<(SimTime, TxnId)>, // sorted by commit time
        readers: Vec<(SimTime, TxnId)>, // read-completion time
    }
    // Ordered by object, so the edges — and with them the witness order
    // and the cycle reported — are the same on every run.
    let mut objects: BTreeMap<ObjId, Timeline> = BTreeMap::new();
    for t in txns {
        for &(obj, at) in &t.reads {
            objects.entry(obj).or_default().readers.push((at, t.id));
        }
        for &obj in &t.writes {
            objects
                .entry(obj)
                .or_default()
                .writers
                .push((t.commit_at, t.id));
        }
    }

    let mut edges: Vec<Conflict> = Vec::new();
    for (&obj, tl) in &mut objects {
        tl.writers.sort_by_key(|&(at, id)| (at, id));
        // WW chain.
        for pair in tl.writers.windows(2) {
            edges.push(Conflict {
                from: pair[0].1,
                to: pair[1].1,
                obj,
                kind: ConflictKind::WriteWrite,
            });
        }
        for &(read_at, reader) in &tl.readers {
            // The version read: last writer committed at or before read_at,
            // excluding the reader itself (a transaction always sees its
            // own deferred writes, which creates no edge).
            let observed = tl
                .writers
                .iter()
                .take_while(|&&(at, _)| at <= read_at)
                .filter(|&&(_, id)| id != reader)
                .last();
            if let Some(&(_, writer)) = observed {
                edges.push(Conflict {
                    from: writer,
                    to: reader,
                    obj,
                    kind: ConflictKind::WriteRead,
                });
            }
            // Anti-dependency to the next writer after the read.
            let overwriter = tl
                .writers
                .iter()
                .find(|&&(at, id)| at > read_at && id != reader);
            if let Some(&(_, writer)) = overwriter {
                edges.push(Conflict {
                    from: reader,
                    to: writer,
                    obj,
                    kind: ConflictKind::ReadWrite,
                });
            }
        }
    }
    edges
}

/// Topologically sort the graph `edges` induces over `history`'s committed
/// transactions, or reconstruct a cycle. Edges naming unknown transactions
/// are ignored (reads that observe a never-committed id cannot occur: only
/// commits are recorded).
pub(crate) fn toposort_or_cycle(
    history: &History,
    edges: &[Conflict],
) -> Result<Vec<TxnId>, CycleError> {
    let txns = history.txns();
    let index: HashMap<TxnId, usize> = txns.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
    let n = txns.len();
    let mut adj: Vec<Vec<(usize, Conflict)>> = vec![Vec::new(); n];
    for &e in edges {
        let (Some(&f), Some(&t)) = (index.get(&e.from), index.get(&e.to)) else {
            continue;
        };
        if f != t {
            adj[f].push((t, e));
        }
    }

    // Iterative DFS with three colors; reconstruct the cycle on a back edge.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut order: Vec<usize> = Vec::with_capacity(n); // reverse topological
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        // Stack of (node, next-edge-index); parallel path of entry edges.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut entry_edge: Vec<Option<Conflict>> = vec![None];
        color[root] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let (succ, edge) = adj[node][*next];
                *next += 1;
                match color[succ] {
                    Color::White => {
                        color[succ] = Color::Gray;
                        stack.push((succ, 0));
                        entry_edge.push(Some(edge));
                    }
                    Color::Gray => {
                        // Back edge: the cycle is the stack suffix from
                        // `succ` plus this closing edge.
                        let pos = stack
                            .iter()
                            .position(|&(v, _)| v == succ)
                            .expect("gray node is on the stack");
                        let mut cycle: Vec<Conflict> = entry_edge[pos + 1..]
                            .iter()
                            .map(|e| e.expect("non-root stack entries have entry edges"))
                            .collect();
                        cycle.push(edge);
                        return Err(CycleError { edges: cycle });
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                order.push(node);
                stack.pop();
                entry_edge.pop();
            }
        }
    }
    order.reverse();
    Ok(order.into_iter().map(|i| txns[i].id).collect())
}

/// Check conflict-serializability.
///
/// # Errors
/// Returns the conflict cycle if the history is not serializable;
/// otherwise returns a witness serial order of all committed transactions.
pub fn check_conflict_serializable(history: &History) -> Result<Vec<TxnId>, CycleError> {
    let edges = conflict_edges(history);
    toposort_or_cycle(history, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommittedTxn;

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    fn txn(id: u64, reads: &[(u64, u64)], writes: &[u64], commit_s: u64) -> CommittedTxn {
        CommittedTxn {
            id: TxnId(id),
            start: SimTime::ZERO,
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
    fn empty_history_is_serializable() {
        let h = History::new();
        assert_eq!(check_conflict_serializable(&h).unwrap(), vec![]);
    }

    #[test]
    fn disjoint_transactions_are_serializable() {
        let h = history(vec![txn(1, &[(1, 1)], &[1], 2), txn(2, &[(2, 1)], &[2], 3)]);
        let order = check_conflict_serializable(&h).unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn serial_rw_chain_is_serializable() {
        // T1 writes X at 2; T2 reads it at 3, writes Y at 4; T3 reads Y at 5.
        let h = history(vec![
            txn(1, &[], &[1], 2),
            txn(2, &[(1, 3)], &[2], 4),
            txn(3, &[(2, 5)], &[], 6),
        ]);
        let order = check_conflict_serializable(&h).unwrap();
        assert_eq!(order, vec![TxnId(1), TxnId(2), TxnId(3)]);
    }

    #[test]
    fn classic_nonserializable_interleaving_is_caught() {
        // Lost-update shape with values made visible by timestamps:
        // T1 reads X at 1 (before T2's commit), T2 reads X at 2 (before
        // T1's commit); both write X. Whatever order we pick, someone read
        // a stale version: T1 -> T2 (RW) and T2 -> T1 (RW).
        let h = history(vec![txn(1, &[(1, 1)], &[1], 5), txn(2, &[(1, 2)], &[1], 6)]);
        let err = check_conflict_serializable(&h).unwrap_err();
        assert!(err.edges.len() >= 2, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("cycle"), "{msg}");
    }

    #[test]
    fn write_skew_is_caught() {
        // T1 reads X,Y then writes X; T2 reads X,Y then writes Y; both read
        // before either committed.
        let h = history(vec![
            txn(1, &[(1, 1), (2, 1)], &[1], 5),
            txn(2, &[(1, 2), (2, 2)], &[2], 6),
        ]);
        let err = check_conflict_serializable(&h).unwrap_err();
        let kinds: Vec<ConflictKind> = err.edges.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ConflictKind::ReadWrite));
    }

    #[test]
    fn own_writes_create_no_self_edges() {
        // A transaction reads X after another writer committed, and also
        // writes X itself: WR from the writer, WW to itself excluded.
        let h = history(vec![txn(1, &[], &[1], 2), txn(2, &[(1, 3)], &[1], 4)]);
        let order = check_conflict_serializable(&h).unwrap();
        assert_eq!(order, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn ww_chain_orders_writers_by_commit() {
        let h = history(vec![
            txn(3, &[], &[7], 3),
            txn(1, &[], &[7], 1),
            txn(2, &[], &[7], 2),
        ]);
        let order = check_conflict_serializable(&h).unwrap();
        assert_eq!(order, vec![TxnId(1), TxnId(2), TxnId(3)]);
    }

    #[test]
    fn three_cycle_is_reported_with_edges_connected() {
        // T1 reads X before T2 writes it; T2 reads Y before T3 writes it;
        // T3 reads Z before T1 writes it: RW cycle of length 3.
        let h = history(vec![
            txn(1, &[(1, 1)], &[3], 10),
            txn(2, &[(2, 2)], &[1], 11),
            txn(3, &[(3, 3)], &[2], 12),
        ]);
        let err = check_conflict_serializable(&h).unwrap_err();
        // Edges must chain: to == next.from.
        for w in err.edges.windows(2) {
            assert_eq!(w[0].to, w[1].from, "{err}");
        }
        assert_eq!(
            err.edges.last().unwrap().to,
            err.edges.first().unwrap().from,
            "{err}"
        );
    }

    #[test]
    fn reader_sees_latest_committed_version() {
        // W1 commits X at 2, W2 commits X at 4; reader reads at 5 → edge
        // from W2 (and only an implied chain from W1).
        let h = history(vec![
            txn(1, &[], &[1], 2),
            txn(2, &[], &[1], 4),
            txn(3, &[(1, 5)], &[], 6),
        ]);
        let order = check_conflict_serializable(&h).unwrap();
        let pos = |id| order.iter().position(|&t| t == TxnId(id)).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
    }
}
