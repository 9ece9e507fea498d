//! Cycle detection over a dynamically supplied waits-for relation.
//!
//! The lock manager materializes waits-for edges on demand from its lock
//! table; this module provides the depth-first search that finds a cycle
//! through a given start node. Because every transaction has at most one
//! outstanding lock request, the graph's out-degree is small and the
//! search is cheap.
//!
//! The search runs in a caller-owned [`DfsScratch`]: the path, the stacked
//! successor lists and the frames are `Vec`s whose capacity survives from
//! one probe to the next, and the visited set is an array of probe stamps
//! indexed by a caller-supplied node number. A probe therefore allocates
//! nothing once the buffers have grown to the largest search seen, and a
//! visited check is one indexed load instead of a scan of the nodes
//! visited so far.

use ccsim_workload::TxnId;

/// One DFS stack frame: the slice of the successor arena belonging to this
/// node, plus the absolute cursor of the next successor to try.
#[derive(Debug)]
struct Frame {
    begin: usize,
    cursor: usize,
    end: usize,
}

/// Reusable buffers for [`find_cycle_through`].
#[derive(Debug, Default)]
pub(crate) struct DfsScratch {
    /// The current DFS path, start first.
    path: Vec<TxnId>,
    /// Successor lists of the nodes on the path, stacked.
    succ: Vec<TxnId>,
    frames: Vec<Frame>,
    /// `marks[slot(t)] == stamp` iff `t` was visited by the current probe.
    marks: Vec<u32>,
    /// The current probe's stamp; bumped per probe so that `marks` never
    /// needs clearing (except once every 2^32 probes).
    stamp: u32,
}

impl DfsScratch {
    /// Reset for a probe over nodes numbered `0..nodes`.
    fn begin(&mut self, nodes: usize) {
        if self.marks.len() != nodes {
            self.marks.clear();
            self.marks.resize(nodes, 0);
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.marks.fill(0);
            self.stamp = 1;
        }
        self.path.clear();
        self.succ.clear();
        self.frames.clear();
    }

    /// Mark node `i` visited; false if it already was.
    fn visit(&mut self, i: usize) -> bool {
        let fresh = self.marks[i] != self.stamp;
        self.marks[i] = self.stamp;
        fresh
    }
}

/// Find a cycle through `start`, if one exists, following `successors`.
///
/// `successors(t, out)` must append `t`'s successors to `out` (and touch
/// nothing already in it). `slot(t)` numbers every node the search can
/// reach in `0..nodes`, distinct nodes getting distinct numbers; it backs
/// the visited set.
///
/// Returns the cycle as a list of transactions `[start, ..., t_k]` such that
/// each waits for the next and `t_k` waits for `start`. Only cycles through
/// `start` are sought: deadlock detection runs each time a transaction
/// blocks, and a new edge can only create cycles through the newly blocked
/// transaction.
pub(crate) fn find_cycle_through<S, F>(
    start: TxnId,
    scratch: &mut DfsScratch,
    nodes: usize,
    slot: S,
    mut successors: F,
) -> Option<Vec<TxnId>>
where
    S: Fn(TxnId) -> usize,
    F: FnMut(TxnId, &mut Vec<TxnId>),
{
    // Iterative DFS keeping the current path for cycle reconstruction.
    // Successor lists live stacked in one arena; a frame's slice is
    // truncated away when the frame pops.
    scratch.begin(nodes);
    scratch.visit(slot(start));
    scratch.path.push(start);
    successors(start, &mut scratch.succ);
    scratch.frames.push(Frame {
        begin: 0,
        cursor: 0,
        end: scratch.succ.len(),
    });

    loop {
        let frame = scratch.frames.last_mut()?;
        if frame.cursor >= frame.end {
            let begin = frame.begin;
            scratch.frames.pop();
            scratch.succ.truncate(begin);
            scratch.path.pop();
            continue;
        }
        let next = scratch.succ[frame.cursor];
        frame.cursor += 1;
        if next == start {
            return Some(scratch.path.clone());
        }
        if !scratch.visit(slot(next)) {
            continue;
        }
        scratch.path.push(next);
        let begin = scratch.succ.len();
        successors(next, &mut scratch.succ);
        scratch.frames.push(Frame {
            begin,
            cursor: begin,
            end: scratch.succ.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn txn(v: u64) -> TxnId {
        TxnId(v)
    }

    fn graph(edges: &[(u64, u64)]) -> HashMap<TxnId, Vec<TxnId>> {
        let mut g: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for &(a, b) in edges {
            g.entry(txn(a)).or_default().push(txn(b));
        }
        g
    }

    /// Search `edges` from `start` in a fresh scratch, numbering node `t`
    /// as `t` itself.
    fn cycle(edges: &[(u64, u64)], start: u64) -> Option<Vec<TxnId>> {
        cycle_in(&mut DfsScratch::default(), edges, start)
    }

    fn cycle_in(scratch: &mut DfsScratch, edges: &[(u64, u64)], start: u64) -> Option<Vec<TxnId>> {
        let g = graph(edges);
        let nodes = edges.iter().map(|&(a, b)| a.max(b)).fold(start, u64::max) + 1;
        find_cycle_through(
            txn(start),
            scratch,
            nodes as usize,
            |t| t.0 as usize,
            |t, out| {
                if let Some(succ) = g.get(&t) {
                    out.extend_from_slice(succ);
                }
            },
        )
    }

    #[test]
    fn no_cycle_in_dag() {
        assert!(cycle(&[(1, 2), (2, 3), (1, 3)], 1).is_none());
    }

    #[test]
    fn self_loop() {
        assert_eq!(cycle(&[(1, 1)], 1).unwrap(), vec![txn(1)]);
    }

    #[test]
    fn two_cycle() {
        assert_eq!(cycle(&[(1, 2), (2, 1)], 1).unwrap(), vec![txn(1), txn(2)]);
    }

    #[test]
    fn long_cycle() {
        let c = cycle(&[(1, 2), (2, 3), (3, 4), (4, 1)], 1).unwrap();
        assert_eq!(c, vec![txn(1), txn(2), txn(3), txn(4)]);
    }

    #[test]
    fn cycle_not_through_start_is_ignored() {
        // 2 -> 3 -> 2 is a cycle, but 1 only feeds into it.
        assert!(cycle(&[(1, 2), (2, 3), (3, 2)], 1).is_none());
    }

    #[test]
    fn picks_cycle_among_branches() {
        // Branch 1->5 dead-ends; 1->2->3->1 cycles.
        let c = cycle(&[(1, 5), (1, 2), (2, 3), (3, 1), (5, 6)], 1).unwrap();
        assert_eq!(c, vec![txn(1), txn(2), txn(3)]);
    }

    #[test]
    fn diamond_no_cycle() {
        assert!(cycle(&[(1, 2), (1, 3), (2, 4), (3, 4)], 1).is_none());
    }

    #[test]
    fn large_chain_terminates() {
        let edges: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i + 1)).collect();
        assert!(cycle(&edges, 0).is_none());
    }

    #[test]
    fn arena_frames_unwind_correctly() {
        // A deep dead-end branch explored before the cycling branch must
        // not leave stale successors behind when its frames unwind.
        let edges = [
            (1, 10),
            (10, 11),
            (11, 12),
            (12, 13),
            (1, 2),
            (2, 3),
            (3, 1),
        ];
        assert_eq!(cycle(&edges, 1).unwrap(), vec![txn(1), txn(2), txn(3)]);
    }

    #[test]
    fn reused_scratch_forgets_earlier_probes() {
        // A probe must not see the previous probe's visited marks, nor its
        // leftover path, and a node-count change must resize the marks.
        let mut scratch = DfsScratch::default();
        let diamond = [(1, 2), (1, 3), (2, 4), (3, 4)];
        let ring = [(1, 2), (2, 3), (3, 1)];
        assert!(cycle_in(&mut scratch, &diamond, 1).is_none());
        assert_eq!(
            cycle_in(&mut scratch, &ring, 1).unwrap(),
            vec![txn(1), txn(2), txn(3)]
        );
        assert_eq!(
            cycle_in(&mut scratch, &ring, 2).unwrap(),
            vec![txn(2), txn(3), txn(1)]
        );
        let wide = [(1, 40), (40, 1)];
        assert_eq!(
            cycle_in(&mut scratch, &wide, 40).unwrap(),
            vec![txn(40), txn(1)]
        );
        assert!(cycle_in(&mut scratch, &diamond, 1).is_none());
    }

    #[test]
    fn stamp_wraparound_clears_the_marks() {
        let mut scratch = DfsScratch::default();
        let ring = [(1, 2), (2, 3), (3, 1)];
        assert!(cycle_in(&mut scratch, &ring, 1).is_some());
        scratch.stamp = u32::MAX;
        assert!(cycle_in(&mut scratch, &[(1, 2), (2, 3)], 1).is_none());
        assert_eq!(scratch.stamp, 1);
        assert!(cycle_in(&mut scratch, &ring, 1).is_some());
    }
}
