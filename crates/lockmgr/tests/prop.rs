//! Property-based tests: the lock manager maintains its invariants under
//! arbitrary interleavings of requests, denials, and releases, and never
//! violates mutual exclusion. The sparse hashed table is additionally
//! cross-checked, operation by operation, against a naive dense-`Vec`
//! reference model for grant order, deadlock detection, and exact peak-lock
//! accounting.

use ccsim_lockmgr::{Grant, LockManager, LockMode, RequestOutcome};
use ccsim_workload::{ObjId, TxnId};
use proptest::prelude::*;

/// A deliberately naive dense reference model of the lock table: one
/// `Vec` entry per object (the pre-sparse storage layout), linear scans
/// everywhere, and the exact queueing discipline the real manager
/// documents — FCFS with upgrades queueing ahead of plain waiters.
mod dense_ref {
    use super::{Grant, LockMode, ObjId, RequestOutcome, TxnId};
    use std::collections::BTreeMap;

    #[derive(Default, Clone)]
    struct Entry {
        holders: Vec<(u64, LockMode)>,
        /// `(txn, mode, is_upgrade)` in queue order.
        queue: Vec<(u64, LockMode, bool)>,
    }

    impl Entry {
        fn holder_mode(&self, txn: u64) -> Option<LockMode> {
            self.holders
                .iter()
                .find(|(t, _)| *t == txn)
                .map(|&(_, m)| m)
        }
        fn compatible_for(&self, txn: u64, mode: LockMode) -> bool {
            self.holders
                .iter()
                .all(|&(t, m)| t == txn || m.compatible_with(mode))
        }
    }

    #[derive(Default)]
    pub struct DenseRef {
        table: Vec<Entry>,
        /// Held objects per transaction, in acquisition order (the release
        /// order the real manager documents).
        held: BTreeMap<u64, Vec<u64>>,
        waiting: BTreeMap<u64, u64>,
        held_count: usize,
        peak: usize,
    }

    impl DenseRef {
        pub fn new(db_size: usize) -> Self {
            DenseRef {
                table: vec![Entry::default(); db_size],
                ..DenseRef::default()
            }
        }

        pub fn request(
            &mut self,
            txn: u64,
            obj: u64,
            mode: LockMode,
            may_queue: bool,
        ) -> RequestOutcome {
            assert!(!self.waiting.contains_key(&txn));
            let entry = &mut self.table[obj as usize];
            match entry.holder_mode(txn) {
                Some(LockMode::Write) => RequestOutcome::Granted,
                Some(LockMode::Read) if mode == LockMode::Read => RequestOutcome::Granted,
                Some(LockMode::Read) => {
                    if entry.holders.len() == 1 {
                        entry.holders[0].1 = LockMode::Write;
                        RequestOutcome::Granted
                    } else if may_queue {
                        let pos = entry.queue.iter().take_while(|w| w.2).count();
                        entry.queue.insert(pos, (txn, LockMode::Write, true));
                        self.waiting.insert(txn, obj);
                        RequestOutcome::Queued
                    } else {
                        RequestOutcome::Denied
                    }
                }
                None => {
                    if entry.queue.is_empty() && entry.compatible_for(txn, mode) {
                        entry.holders.push((txn, mode));
                        self.held_count += 1;
                        self.peak = self.peak.max(self.held_count);
                        self.held.entry(txn).or_default().push(obj);
                        RequestOutcome::Granted
                    } else if may_queue {
                        entry.queue.push((txn, mode, false));
                        self.waiting.insert(txn, obj);
                        RequestOutcome::Queued
                    } else {
                        RequestOutcome::Denied
                    }
                }
            }
        }

        fn drain(entry: &mut Entry, obj: u64, held_count: &mut usize, grants: &mut Vec<Grant>) {
            while let Some(&(txn, mode, is_upgrade)) = entry.queue.first() {
                if is_upgrade {
                    if entry.holders.len() == 1 && entry.holders[0].0 == txn {
                        entry.holders[0].1 = LockMode::Write;
                        entry.queue.remove(0);
                        grants.push(Grant {
                            txn: TxnId(txn),
                            obj: ObjId(obj),
                            mode: LockMode::Write,
                        });
                    } else {
                        break;
                    }
                } else if entry.compatible_for(txn, mode) {
                    entry.queue.remove(0);
                    entry.holders.push((txn, mode));
                    *held_count += 1;
                    grants.push(Grant {
                        txn: TxnId(txn),
                        obj: ObjId(obj),
                        mode,
                    });
                } else {
                    break;
                }
            }
        }

        pub fn release_all(&mut self, txn: u64) -> Vec<Grant> {
            let mut grants = Vec::new();
            if self.held.get(&txn).is_none_or(Vec::is_empty) && !self.waiting.contains_key(&txn) {
                return grants;
            }
            if let Some(obj) = self.waiting.remove(&txn) {
                let entry = &mut self.table[obj as usize];
                entry.queue.retain(|w| w.0 != txn);
                Self::drain(entry, obj, &mut self.held_count, &mut grants);
            }
            for obj in self.held.remove(&txn).unwrap_or_default() {
                let entry = &mut self.table[obj as usize];
                let before = entry.holders.len();
                entry.holders.retain(|(t, _)| *t != txn);
                self.held_count -= before - entry.holders.len();
                Self::drain(entry, obj, &mut self.held_count, &mut grants);
            }
            for g in &grants {
                self.waiting.remove(&g.txn.0);
                let held = self.held.entry(g.txn.0).or_default();
                if !held.contains(&g.obj.0) {
                    held.push(g.obj.0);
                }
            }
            self.peak = self.peak.max(self.held_count);
            grants
        }

        fn waits_for(&self, txn: u64) -> Vec<u64> {
            let Some(&obj) = self.waiting.get(&txn) else {
                return Vec::new();
            };
            let entry = &self.table[obj as usize];
            let me = entry.queue.iter().position(|w| w.0 == txn).unwrap();
            let my_mode = entry.queue[me].1;
            let mut out = Vec::new();
            for &(holder, hmode) in &entry.holders {
                if holder != txn && !hmode.compatible_with(my_mode) {
                    out.push(holder);
                }
            }
            for &(ahead, amode, _) in &entry.queue[..me] {
                if ahead != txn && !amode.compatible_with(my_mode) {
                    out.push(ahead);
                }
            }
            out
        }

        /// Is `txn` on a waits-for cycle through itself?
        pub fn has_deadlock(&self, txn: u64) -> bool {
            if !self.waiting.contains_key(&txn) {
                return false;
            }
            let mut seen = std::collections::BTreeSet::new();
            let mut stack = self.waits_for(txn);
            while let Some(t) = stack.pop() {
                if t == txn {
                    return true;
                }
                if seen.insert(t) {
                    stack.extend(self.waits_for(t));
                }
            }
            false
        }

        pub fn locks_held(&self, txn: u64) -> usize {
            self.held.get(&txn).map_or(0, Vec::len)
        }
        pub fn waiting_on(&self, txn: u64) -> Option<u64> {
            self.waiting.get(&txn).copied()
        }
        pub fn holders_of(&self, obj: u64) -> &[(u64, LockMode)] {
            &self.table[obj as usize].holders
        }
        pub fn queue_len(&self, obj: u64) -> usize {
            self.table[obj as usize].queue.len()
        }
        pub fn locks_in_table(&self) -> usize {
            self.held_count
        }
        pub fn peak_locks_in_table(&self) -> usize {
            self.peak
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Request { txn: u64, obj: u64, write: bool },
    TryRequest { txn: u64, obj: u64, write: bool },
    ReleaseAll { txn: u64 },
}

fn op_strategy(txns: u64, objs: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..txns, 0..objs, any::<bool>()).prop_map(|(txn, obj, write)| Op::Request {
            txn,
            obj,
            write
        }),
        (0..txns, 0..objs, any::<bool>()).prop_map(|(txn, obj, write)| Op::TryRequest {
            txn,
            obj,
            write
        }),
        (0..txns).prop_map(|txn| Op::ReleaseAll { txn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay random operation sequences; after every step the manager's
    /// internal invariants must hold, and writers must be exclusive.
    #[test]
    fn invariants_hold_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(8, 6), 1..300)
    ) {
        let mut lm = LockManager::new();
        // A transaction with an outstanding queued request may not issue
        // another; track blocked transactions and skip their requests, and
        // track aborted/committed ones so ids can be reused via release.
        let mut blocked: std::collections::HashSet<u64> = Default::default();
        for op in ops {
            match op {
                Op::Request { txn, obj, write } => {
                    if blocked.contains(&txn) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    match lm.request(TxnId(txn), ObjId(obj), mode) {
                        RequestOutcome::Queued => {
                            blocked.insert(txn);
                            // Deadlock detection must never panic; resolve by
                            // aborting the youngest (max id) in the cycle.
                            while let Some(cycle) = lm.find_deadlock(TxnId(txn)) {
                                let victim = *cycle.iter().max().unwrap();
                                let grants = lm.release_all(victim);
                                blocked.remove(&victim.0);
                                for g in grants {
                                    blocked.remove(&g.txn.0);
                                }
                                if lm.waiting_on(TxnId(txn)).is_none() {
                                    break;
                                }
                            }
                        }
                        RequestOutcome::Granted => {}
                        RequestOutcome::Denied => unreachable!("request never denies"),
                    }
                }
                Op::TryRequest { txn, obj, write } => {
                    if blocked.contains(&txn) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    let out = lm.try_request(TxnId(txn), ObjId(obj), mode);
                    prop_assert!(out != RequestOutcome::Queued, "try_request queued");
                }
                Op::ReleaseAll { txn } => {
                    let grants = lm.release_all(TxnId(txn));
                    blocked.remove(&txn);
                    for g in grants {
                        blocked.remove(&g.txn.0);
                    }
                }
            }
            lm.assert_consistent();
            // Mutual exclusion: no object may have a writer plus anyone else.
            for obj in 0..6 {
                let holders: Vec<(TxnId, LockMode)> = lm.holders_of(ObjId(obj)).collect();
                let writers = holders
                    .iter()
                    .filter(|(_, m)| *m == LockMode::Write)
                    .count();
                if writers > 0 {
                    prop_assert_eq!(holders.len(), 1, "writer not exclusive on obj{}", obj);
                }
            }
        }
    }

    /// The sparse hashed table is observationally identical to the dense
    /// reference model under interleaved acquire / release / restart
    /// sequences: same request outcomes, same grant order, same deadlock
    /// verdicts, and exact agreement on per-txn and table-wide lock
    /// accounting including the peak.
    #[test]
    fn sparse_table_matches_dense_reference(
        ops in proptest::collection::vec(op_strategy(8, 6), 1..400)
    ) {
        let mut lm = LockManager::with_capacity(6, 8);
        let mut dr = dense_ref::DenseRef::new(6);
        let mut blocked: std::collections::HashSet<u64> = Default::default();
        for op in ops {
            match op {
                Op::Request { txn, obj, write } => {
                    if blocked.contains(&txn) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    let oi = lm.request(TxnId(txn), ObjId(obj), mode);
                    let or = dr.request(txn, obj, mode, true);
                    prop_assert_eq!(oi, or, "request outcome diverged");
                    if oi == RequestOutcome::Queued {
                        blocked.insert(txn);
                        // Deadlock resolution: abort the youngest (max id)
                        // member of the implementation's cycle in *both*
                        // models — a restart — and compare the fallout.
                        loop {
                            let cycle = lm.find_deadlock(TxnId(txn));
                            prop_assert_eq!(
                                cycle.is_some(),
                                dr.has_deadlock(txn),
                                "deadlock detection diverged"
                            );
                            let Some(cycle) = cycle else { break };
                            let victim = *cycle.iter().max().unwrap();
                            let gi = lm.release_all(victim);
                            let gr = dr.release_all(victim.0);
                            prop_assert_eq!(&gi, &gr, "restart grant order diverged");
                            blocked.remove(&victim.0);
                            for g in &gi {
                                blocked.remove(&g.txn.0);
                            }
                            if lm.waiting_on(TxnId(txn)).is_none() {
                                break;
                            }
                        }
                    }
                }
                Op::TryRequest { txn, obj, write } => {
                    if blocked.contains(&txn) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    let oi = lm.try_request(TxnId(txn), ObjId(obj), mode);
                    let or = dr.request(txn, obj, mode, false);
                    prop_assert_eq!(oi, or, "try_request outcome diverged");
                }
                Op::ReleaseAll { txn } => {
                    let gi = lm.release_all(TxnId(txn));
                    let gr = dr.release_all(txn);
                    prop_assert_eq!(&gi, &gr, "release grant order diverged");
                    blocked.remove(&txn);
                    for g in &gi {
                        blocked.remove(&g.txn.0);
                    }
                }
            }
            // Full observable-state comparison after every operation.
            prop_assert_eq!(lm.locks_in_table(), dr.locks_in_table());
            prop_assert_eq!(
                lm.peak_locks_in_table(),
                dr.peak_locks_in_table(),
                "peak lock accounting diverged"
            );
            for t in 0..8u64 {
                prop_assert_eq!(lm.locks_held(TxnId(t)), dr.locks_held(t));
                prop_assert_eq!(
                    lm.waiting_on(TxnId(t)).map(|o| o.0),
                    dr.waiting_on(t)
                );
            }
            for o in 0..6u64 {
                let hi: Vec<(u64, LockMode)> = lm
                    .holders_of(ObjId(o))
                    .map(|(t, m)| (t.0, m))
                    .collect();
                prop_assert_eq!(hi, dr.holders_of(o).to_vec(), "holders diverged on obj{}", o);
                prop_assert_eq!(lm.queue_len(ObjId(o)), dr.queue_len(o));
            }
            lm.assert_consistent();
        }
    }

    /// The lockstep comparison again, with three twists aimed at the
    /// hashed index's probe path: object ids are remapped to arbitrary keys
    /// spread over the table's whole key domain, ids below `u32::MAX` (so
    /// home slots collide and cluster unpredictably instead of landing in
    /// Fibonacci-spread order), the table starts at minimum
    /// capacity (so the run crosses growth/rehash boundaries and the cached
    /// hash shift must track them), and `prefetch` is interleaved before
    /// every request and release. Prefetch is a pure hint — if it ever
    /// perturbed probe order, entry migration, or the peak-lock accounting,
    /// the dense reference (which has no hashing at all) would diverge.
    #[test]
    fn sparse_table_matches_dense_on_wide_keys_with_prefetch(
        salt in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(8, 6), 1..400)
    ) {
        // Injective for obj < 64: distinct bits 26 and up, salt scrambles
        // the low 26 (including the bits the Fibonacci hash feeds the home
        // slot). For the 6 objects used every key is below 6 << 26, inside
        // the 32-bit key domain.
        let wide = |o: u64| (o << 26) ^ (salt & ((1u64 << 26) - 1));
        let mut lm = LockManager::with_capacity(1, 8);
        let mut dr = dense_ref::DenseRef::new(6);
        let mut blocked: std::collections::HashSet<u64> = Default::default();
        let widen = |gs: &[Grant]| -> Vec<Grant> {
            gs.iter()
                .map(|g| Grant { txn: g.txn, obj: ObjId(wide(g.obj.0)), mode: g.mode })
                .collect()
        };
        for op in ops {
            match op {
                Op::Request { txn, obj, write } => {
                    if blocked.contains(&txn) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    lm.prefetch(ObjId(wide(obj)));
                    let oi = lm.request(TxnId(txn), ObjId(wide(obj)), mode);
                    let or = dr.request(txn, obj, mode, true);
                    prop_assert_eq!(oi, or, "request outcome diverged");
                    if oi == RequestOutcome::Queued {
                        blocked.insert(txn);
                        loop {
                            let cycle = lm.find_deadlock(TxnId(txn));
                            prop_assert_eq!(
                                cycle.is_some(),
                                dr.has_deadlock(txn),
                                "deadlock detection diverged"
                            );
                            let Some(cycle) = cycle else { break };
                            let victim = *cycle.iter().max().unwrap();
                            let gi = lm.release_all(victim);
                            let gr = dr.release_all(victim.0);
                            prop_assert_eq!(&gi, &widen(&gr), "restart grant order diverged");
                            blocked.remove(&victim.0);
                            for g in &gi {
                                blocked.remove(&g.txn.0);
                            }
                            if lm.waiting_on(TxnId(txn)).is_none() {
                                break;
                            }
                        }
                    }
                }
                Op::TryRequest { txn, obj, write } => {
                    if blocked.contains(&txn) {
                        continue;
                    }
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    lm.prefetch(ObjId(wide(obj)));
                    let oi = lm.try_request(TxnId(txn), ObjId(wide(obj)), mode);
                    let or = dr.request(txn, obj, mode, false);
                    prop_assert_eq!(oi, or, "try_request outcome diverged");
                }
                Op::ReleaseAll { txn } => {
                    let gi = lm.release_all(TxnId(txn));
                    let gr = dr.release_all(txn);
                    prop_assert_eq!(&gi, &widen(&gr), "release grant order diverged");
                    blocked.remove(&txn);
                    for g in &gi {
                        blocked.remove(&g.txn.0);
                    }
                }
            }
            // Probe-order-sensitive accounting: exact lock counts and the
            // peak must match a model with no hash table at all.
            prop_assert_eq!(lm.locks_in_table(), dr.locks_in_table());
            prop_assert_eq!(
                lm.peak_locks_in_table(),
                dr.peak_locks_in_table(),
                "peak lock accounting diverged"
            );
            for t in 0..8u64 {
                prop_assert_eq!(lm.locks_held(TxnId(t)), dr.locks_held(t));
                prop_assert_eq!(
                    lm.waiting_on(TxnId(t)).map(|o| o.0),
                    dr.waiting_on(t).map(wide)
                );
            }
            for o in 0..6u64 {
                lm.prefetch(ObjId(wide(o)));
                let hi: Vec<(u64, LockMode)> = lm
                    .holders_of(ObjId(wide(o)))
                    .map(|(t, m)| (t.0, m))
                    .collect();
                prop_assert_eq!(hi, dr.holders_of(o).to_vec(), "holders diverged on obj{}", o);
                prop_assert_eq!(lm.queue_len(ObjId(wide(o))), dr.queue_len(o));
            }
            lm.assert_consistent();
        }
    }

    /// After releasing everything, the table is empty — no leaks.
    #[test]
    fn full_release_leaves_no_state(
        ops in proptest::collection::vec(op_strategy(6, 4), 1..100)
    ) {
        let mut lm = LockManager::new();
        let mut blocked: std::collections::HashSet<u64> = Default::default();
        for op in ops {
            if let Op::Request { txn, obj, write } = op {
                if blocked.contains(&txn) {
                    continue;
                }
                let mode = if write { LockMode::Write } else { LockMode::Read };
                if lm.request(TxnId(txn), ObjId(obj), mode) == RequestOutcome::Queued {
                    blocked.insert(txn);
                }
            }
        }
        for txn in 0..6 {
            lm.release_all(TxnId(txn));
        }
        lm.assert_consistent();
        for txn in 0..6 {
            prop_assert_eq!(lm.locks_held(TxnId(txn)), 0);
            prop_assert!(lm.waiting_on(TxnId(txn)).is_none());
        }
        for obj in 0..4 {
            prop_assert!(lm.holders_of(ObjId(obj)).next().is_none());
            prop_assert_eq!(lm.queue_len(ObjId(obj)), 0);
        }
    }
}

/// A deadlock probe, then slot-array growth forced by a colliding
/// transaction id, then a second probe: the search's visited marks are
/// indexed by slot, so they must follow the resized array. Both verdicts
/// must match the dense reference.
#[test]
fn deadlock_probe_survives_slot_array_growth() {
    fn request(
        lm: &mut LockManager,
        dr: &mut dense_ref::DenseRef,
        txn: u64,
        obj: u64,
    ) -> RequestOutcome {
        let got = lm.request(TxnId(txn), ObjId(obj), LockMode::Write);
        assert_eq!(got, dr.request(txn, obj, LockMode::Write, true));
        got
    }
    let mut lm = LockManager::new();
    let mut dr = dense_ref::DenseRef::new(8);
    // t1 holds o1 and waits for o2, held by t2: no cycle yet.
    request(&mut lm, &mut dr, 1, 1);
    request(&mut lm, &mut dr, 2, 2);
    assert_eq!(request(&mut lm, &mut dr, 1, 2), RequestOutcome::Queued);
    assert_eq!(lm.find_deadlock(TxnId(1)).is_some(), dr.has_deadlock(1));
    assert!(lm.find_deadlock(TxnId(1)).is_none());
    // t65 collides with t1 modulo the default 64 slots, so claiming its
    // slot doubles the array; it then closes the cycle t1 -> t2 -> t65 -> t1.
    request(&mut lm, &mut dr, 65, 3);
    assert_eq!(request(&mut lm, &mut dr, 2, 3), RequestOutcome::Queued);
    assert_eq!(request(&mut lm, &mut dr, 65, 1), RequestOutcome::Queued);
    lm.assert_consistent();
    for t in [1, 2, 65] {
        let cycle = lm.find_deadlock(TxnId(t));
        assert_eq!(cycle.is_some(), dr.has_deadlock(t), "verdict for t{t}");
    }
    let cycle = lm.find_deadlock(TxnId(65)).expect("three-way deadlock");
    assert_eq!(cycle, vec![TxnId(65), TxnId(1), TxnId(2)]);
}
