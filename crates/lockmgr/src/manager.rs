//! The lock table.
//!
//! Implements the locking substrate shared by the paper's blocking and
//! immediate-restart algorithms (and the wait-die / wound-wait extensions):
//! read locks taken at read time, upgraded to write locks at write time,
//! all locks released together at end of transaction (strict two-phase
//! locking with deferred updates).
//!
//! Queueing discipline: FCFS per object, except that **upgrade requests
//! queue ahead of non-upgrade requests** (a conversion blocks every later
//! request anyway, and ordering it first avoids needless denial cascades).
//! A request is granted immediately only if it is compatible with all
//! current holders *and* no request is queued ahead of it — readers do not
//! jump over queued writers, so writers cannot starve.
//!
//! # Storage layout
//!
//! The table is *sparse*: it holds state only for objects that currently
//! have a holder or a waiter, so memory scales with the number of locks in
//! flight (at most `mpl × tran_size`), not with `db_size`. That is what
//! makes `db_size = 10^8` runs practical — a dense `Vec<Entry>` indexed by
//! [`ObjId`] would cost gigabytes while a run touches a vanishing fraction
//! of the database. Concretely:
//!
//! * `entries` is a pool of [`Entry`] slots; `index` is an open-addressed
//!   hash map (`ObjId → slot`, Fibonacci hashing, backward-shift deletion)
//!   over that pool.
//! * When a release or queue cancellation empties an entry (no holders, no
//!   waiters), its slot is pushed onto a free list and the index entry is
//!   removed; the next lock on *any* object pops the slot and reuses its
//!   `holders`/`queue` allocations. Steady-state locking is therefore
//!   allocation-free, exactly as the dense layout was.
//! * Invariant: an indexed entry is never empty, and every pool slot is
//!   either indexed or on the free list ([`LockManager::assert_consistent`]
//!   checks both, plus exact `held_count` occupancy accounting — the
//!   `peak_locks_in_table` statistic is unchanged by the sparse layout).
//!
//! Per-transaction state (held objects, outstanding request) lives in a
//! slot array indexed by `TxnId % nslots`; the engine derives transaction
//! ids as `serial * num_terms + terminal`, so sizing the slot array to the
//! terminal count makes the mapping collision-free. Standalone users get a
//! default slot count that doubles transparently whenever two live
//! transactions would collide.

use std::collections::VecDeque;

use ccsim_workload::{ObjId, ObjMap, TxnId};

use crate::graph::find_cycle_through;

/// Lock modes. Reads share; writes exclude everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared lock.
    Read,
    /// Exclusive lock.
    Write,
}

impl LockMode {
    /// Can a holder in `self` mode coexist with a request in `other` mode
    /// from a *different* transaction?
    #[must_use]
    pub fn compatible_with(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Read, LockMode::Read))
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock was acquired (or was already held in a sufficient mode).
    Granted,
    /// The request joined the object's queue; the transaction must block.
    Queued,
    /// The request conflicts and queueing was not permitted
    /// ([`LockManager::try_request`] — the immediate-restart algorithm).
    Denied,
}

/// A lock granted to a previously blocked transaction during a release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The transaction whose queued request was granted.
    pub txn: TxnId,
    /// The object it now holds.
    pub obj: ObjId,
    /// The granted mode.
    pub mode: LockMode,
}

#[derive(Debug, Clone)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// True if the waiter already holds a read lock on the object and is
    /// converting it to a write lock.
    is_upgrade: bool,
}

#[derive(Debug, Default)]
struct Entry {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Waiter>,
}

impl Entry {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    fn is_sole_holder(&self, txn: TxnId) -> bool {
        self.holders.len() == 1 && self.holders[0].0 == txn
    }

    fn compatible_for(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(t, m)| t == txn || m.compatible_with(mode))
    }
}

/// Per-transaction state, addressed by `TxnId % slots.len()`.
///
/// A slot is *vacant* (reusable by any transaction hashing to it) once its
/// occupant neither holds locks nor waits; `tid` then only records the last
/// occupant and carries no meaning.
#[derive(Debug)]
struct TxnSlot {
    tid: TxnId,
    /// Objects on which the occupant holds a lock, in acquisition order.
    held: Vec<ObjId>,
    /// The occupant's single outstanding blocked request, if any.
    waiting: Option<ObjId>,
}

impl TxnSlot {
    fn new() -> Self {
        TxnSlot {
            tid: TxnId(0),
            held: Vec::new(),
            waiting: None,
        }
    }

    fn is_vacant(&self) -> bool {
        self.held.is_empty() && self.waiting.is_none()
    }
}

/// Default transaction-slot count for standalone construction via
/// [`LockManager::new`]; grows on demand.
const DEFAULT_TXN_SLOTS: usize = 64;

/// The lock manager: sparse hashed lock table plus per-transaction slot
/// array (see the module docs for the storage layout).
#[derive(Debug)]
pub struct LockManager {
    /// Pool of entry slots; live ones are reachable through `index`,
    /// retired ones through `free`. Retired slots keep their
    /// `holders`/`queue` allocations for reuse.
    entries: Vec<Entry>,
    /// Sparse `ObjId → entries` slot map: present iff the object currently
    /// has at least one holder or waiter.
    index: ObjMap<u32>,
    /// Retired entry slots available for reuse (LIFO).
    free: Vec<u32>,
    /// Per-transaction state, indexed by `TxnId % txns.len()`.
    txns: Vec<TxnSlot>,
    /// Total `(txn, obj)` holder pairs in the table (current occupancy).
    held_count: usize,
    /// High-water mark of `held_count` over the manager's lifetime.
    peak_held: usize,
    /// Counters for observability.
    grants: u64,
    blocks: u64,
    denials: u64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl LockManager {
    /// An empty lock table with default capacity. The object table and the
    /// transaction slot array both grow on demand.
    #[must_use]
    pub fn new() -> Self {
        LockManager::with_capacity(0, DEFAULT_TXN_SLOTS)
    }

    /// An empty lock table presized for `db_size` objects and `txn_slots`
    /// concurrently live transactions. When transaction ids are assigned as
    /// `serial * txn_slots + index` (the engine's terminal numbering), the
    /// slot mapping is collision-free and never reallocates.
    ///
    /// The table is sparse, so `db_size` is only a pre-sizing *hint* (capped
    /// well below `10^8` — memory follows locks in flight, not objects).
    #[must_use]
    pub fn with_capacity(db_size: usize, txn_slots: usize) -> Self {
        // Pre-size for modest small-regime runs; big runs grow on demand.
        let hint = db_size.min(1024);
        let nslots = txn_slots.max(1);
        let mut txns = Vec::with_capacity(nslots);
        txns.resize_with(nslots, TxnSlot::new);
        LockManager {
            entries: Vec::with_capacity(hint),
            index: ObjMap::with_capacity(hint),
            free: Vec::new(),
            txns,
            held_count: 0,
            peak_held: 0,
            grants: 0,
            blocks: 0,
            denials: 0,
        }
    }

    /// Hint the CPU to pull `obj`'s lock-table index line into cache ahead
    /// of an upcoming request/release probe for the same object.
    ///
    /// Purely a performance hint (forwarded to [`ObjMap::prefetch`]): it has
    /// no effect on grant decisions, queue order, statistics, or any other
    /// observable behaviour, so interleaving prefetch calls anywhere leaves
    /// the table byte-identical.
    #[inline]
    pub fn prefetch(&self, obj: ObjId) {
        self.index.prefetch(obj);
    }

    /// The entry slot for `obj`, creating one (recycled if possible) when
    /// the object has no lock state yet.
    fn ensure_obj(&mut self, obj: ObjId) -> usize {
        if let Some(i) = self.index.get(obj) {
            return i as usize;
        }
        let i = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                let i = self.entries.len();
                assert!(
                    i <= u32::MAX as usize,
                    "more than 2^32 concurrently locked objects"
                );
                self.entries.push(Entry::default());
                i
            }
        };
        self.index.insert(obj, i as u32);
        i
    }

    /// The live entry for `obj`, if it has any lock state.
    #[inline]
    fn entry_of(&self, obj: ObjId) -> Option<&Entry> {
        self.index.get(obj).map(|i| &self.entries[i as usize])
    }

    /// Retire entry slot `i` (known empty) back to the free list so its
    /// allocations are reused by the next locked object.
    fn retire(&mut self, obj: ObjId, i: usize) {
        debug_assert!(self.entries[i].holders.is_empty() && self.entries[i].queue.is_empty());
        let removed = self.index.remove(obj);
        debug_assert_eq!(removed, Some(i as u32));
        self.free.push(i as u32);
    }

    /// The slot currently occupied by `tid`, if it is live.
    fn slot_of(&self, tid: TxnId) -> Option<usize> {
        let i = (tid.0 % self.txns.len() as u64) as usize;
        let s = &self.txns[i];
        (s.tid == tid && !s.is_vacant()).then_some(i)
    }

    /// Claim a slot for `tid`, growing the slot array if another live
    /// transaction occupies it.
    fn claim_slot(&mut self, tid: TxnId) -> usize {
        loop {
            let i = (tid.0 % self.txns.len() as u64) as usize;
            let s = &mut self.txns[i];
            if s.tid == tid || s.is_vacant() {
                s.tid = tid;
                return i;
            }
            self.grow_slots();
        }
    }

    /// Double the slot-array modulus until every live transaction maps to a
    /// distinct slot, then re-place them.
    fn grow_slots(&mut self) {
        let old_len = self.txns.len();
        let live: Vec<TxnSlot> = std::mem::take(&mut self.txns)
            .into_iter()
            .filter(|s| !s.is_vacant())
            .collect();
        let mut n = old_len.max(live.len()).max(1);
        loop {
            n *= 2;
            assert!(
                n <= 1 << 32,
                "cannot find a collision-free transaction slot modulus"
            );
            let mut residues: Vec<u64> = live.iter().map(|s| s.tid.0 % n as u64).collect();
            residues.sort_unstable();
            if residues.windows(2).all(|w| w[0] != w[1]) {
                break;
            }
        }
        let mut txns = Vec::with_capacity(n);
        txns.resize_with(n, TxnSlot::new);
        for s in live {
            let i = (s.tid.0 % n as u64) as usize;
            txns[i] = s;
        }
        self.txns = txns;
    }

    /// Request `mode` on `obj` for `txn`, queueing on conflict (the
    /// blocking algorithm). After a [`RequestOutcome::Queued`] result the
    /// caller should run [`LockManager::find_deadlock`].
    ///
    /// # Panics
    /// Panics if `txn` is already waiting (the model allows one outstanding
    /// request), or downgrades a write lock to read.
    pub fn request(&mut self, txn: TxnId, obj: ObjId, mode: LockMode) -> RequestOutcome {
        self.request_inner(txn, obj, mode, true)
    }

    /// Request `mode` on `obj` for `txn`, returning
    /// [`RequestOutcome::Denied`] instead of queueing on conflict (the
    /// immediate-restart algorithm: "if a lock request is denied, the
    /// requesting transaction is aborted").
    pub fn try_request(&mut self, txn: TxnId, obj: ObjId, mode: LockMode) -> RequestOutcome {
        self.request_inner(txn, obj, mode, false)
    }

    fn request_inner(
        &mut self,
        txn: TxnId,
        obj: ObjId,
        mode: LockMode,
        may_queue: bool,
    ) -> RequestOutcome {
        assert!(
            self.waiting_on(txn).is_none(),
            "{txn} already has an outstanding lock request"
        );
        let oi = self.ensure_obj(obj);
        match self.entries[oi].holder_mode(txn) {
            Some(LockMode::Write) => {
                // Write covers both modes; re-request is a no-op.
                self.grants += 1;
                RequestOutcome::Granted
            }
            Some(LockMode::Read) if mode == LockMode::Read => {
                self.grants += 1;
                RequestOutcome::Granted
            }
            Some(LockMode::Read) => {
                // Upgrade read -> write.
                if self.entries[oi].is_sole_holder(txn) {
                    self.entries[oi].holders[0].1 = LockMode::Write;
                    self.grants += 1;
                    RequestOutcome::Granted
                } else if may_queue {
                    let si = self.claim_slot(txn);
                    let entry = &mut self.entries[oi];
                    let pos = entry.queue.iter().take_while(|w| w.is_upgrade).count();
                    entry.queue.insert(
                        pos,
                        Waiter {
                            txn,
                            mode: LockMode::Write,
                            is_upgrade: true,
                        },
                    );
                    self.txns[si].waiting = Some(obj);
                    self.blocks += 1;
                    RequestOutcome::Queued
                } else {
                    self.denials += 1;
                    RequestOutcome::Denied
                }
            }
            None => {
                if self.entries[oi].queue.is_empty() && self.entries[oi].compatible_for(txn, mode) {
                    let si = self.claim_slot(txn);
                    self.entries[oi].holders.push((txn, mode));
                    self.held_count += 1;
                    if self.held_count > self.peak_held {
                        self.peak_held = self.held_count;
                    }
                    self.txns[si].held.push(obj);
                    self.grants += 1;
                    RequestOutcome::Granted
                } else if may_queue {
                    let si = self.claim_slot(txn);
                    self.entries[oi].queue.push_back(Waiter {
                        txn,
                        mode,
                        is_upgrade: false,
                    });
                    self.txns[si].waiting = Some(obj);
                    self.blocks += 1;
                    RequestOutcome::Queued
                } else {
                    self.denials += 1;
                    RequestOutcome::Denied
                }
            }
        }
    }

    /// Release every lock `txn` holds and cancel its queued request (if
    /// any). Returns the requests granted as a consequence, in grant order.
    /// Used both at commit (after deferred updates) and at abort.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.release_all_into(txn, &mut grants);
        grants
    }

    /// Allocation-free form of [`LockManager::release_all`]: consequent
    /// grants are appended to `grants` (existing contents are untouched),
    /// letting the caller reuse one buffer across calls.
    pub fn release_all_into(&mut self, txn: TxnId, grants: &mut Vec<Grant>) {
        let start = grants.len();
        let Some(si) = self.slot_of(txn) else {
            return; // unknown or already-finished transaction: no-op
        };
        // Cancel an outstanding queued request.
        if let Some(obj) = self.txns[si].waiting.take() {
            let ei = self
                .index
                .get(obj)
                .expect("waited-on object has lock state") as usize;
            let entry = &mut self.entries[ei];
            entry.queue.retain(|w| w.txn != txn);
            // Removing a waiter can unblock those behind it (e.g. a
            // queued upgrade vanishing lets queued readers through).
            let from = grants.len();
            Self::drain_queue(entry, grants, &mut self.held_count);
            let emptied = entry.holders.is_empty() && entry.queue.is_empty();
            Self::patch_grants(obj, grants, from);
            if emptied {
                self.retire(obj, ei);
            }
        }
        // Release held locks, in acquisition order. The held list is moved
        // out and handed back so its allocation survives with the slot.
        // While releasing lock k the index line for lock k+1 is prefetched:
        // at 10^6-terminal scale the sparse index outgrows cache and every
        // probe would otherwise start with a cold miss.
        let mut held = std::mem::take(&mut self.txns[si].held);
        for k in 0..held.len() {
            let obj = held[k];
            if let Some(&next) = held.get(k + 1) {
                self.index.prefetch(next);
            }
            let ei = self.index.get(obj).expect("held object has lock state") as usize;
            let entry = &mut self.entries[ei];
            let before = entry.holders.len();
            entry.holders.retain(|(t, _)| *t != txn);
            self.held_count -= before - entry.holders.len();
            let from = grants.len();
            Self::drain_queue(entry, grants, &mut self.held_count);
            let emptied = entry.holders.is_empty() && entry.queue.is_empty();
            Self::patch_grants(obj, grants, from);
            if emptied {
                self.retire(obj, ei);
            }
        }
        held.clear();
        self.txns[si].held = held;
        // Index the new grants (an upgrade grant's object is already in the
        // holder's held list).
        for &g in &grants[start..] {
            let gsi = self.claim_slot(g.txn);
            let slot = &mut self.txns[gsi];
            slot.waiting = None;
            if !slot.held.contains(&g.obj) {
                slot.held.push(g.obj);
            }
            self.grants += 1;
        }
        // Draining can promote several queued readers in place of one
        // writer, so occupancy may exceed the pre-release peak.
        if self.held_count > self.peak_held {
            self.peak_held = self.held_count;
        }
    }

    /// Grant queued requests that have become compatible, FCFS.
    fn drain_queue(entry: &mut Entry, grants: &mut Vec<Grant>, held_count: &mut usize) {
        while let Some(head) = entry.queue.front() {
            if head.is_upgrade {
                if entry.is_sole_holder(head.txn) {
                    let txn = head.txn;
                    entry.holders[0].1 = LockMode::Write;
                    entry.queue.pop_front();
                    grants.push(Grant {
                        txn,
                        obj: ObjId(0), // patched below
                        mode: LockMode::Write,
                    });
                } else {
                    break;
                }
            } else if entry.compatible_for(head.txn, head.mode) {
                let w = entry.queue.pop_front().expect("front exists");
                entry.holders.push((w.txn, w.mode));
                *held_count += 1;
                grants.push(Grant {
                    txn: w.txn,
                    obj: ObjId(0), // patched below
                    mode: w.mode,
                });
            } else {
                break;
            }
        }
    }

    /// Look for a deadlock involving `txn` (called right after `txn`
    /// blocks). Returns the waits-for cycle if one exists.
    ///
    /// Waits-for edges run from a waiter to (a) every holder whose lock
    /// conflicts with the waiter's requested mode and (b) every waiter
    /// *ahead* of it in the queue with a conflicting mode — FCFS queueing
    /// means those will be granted first, so they are genuine waits.
    #[must_use]
    pub fn find_deadlock(&self, txn: TxnId) -> Option<Vec<TxnId>> {
        self.waiting_on(txn)?;
        find_cycle_through(txn, |t, out| self.waits_for_into(t, out))
    }

    fn waits_for_into(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        let Some(obj) = self.waiting_on(txn) else {
            return;
        };
        let Some(entry) = self.entry_of(obj) else {
            return;
        };
        let Some(me_pos) = entry.queue.iter().position(|w| w.txn == txn) else {
            return;
        };
        let my_mode = entry.queue[me_pos].mode;
        for &(holder, hmode) in &entry.holders {
            if holder != txn && !(hmode.compatible_with(my_mode)) {
                out.push(holder);
            }
        }
        for ahead in entry.queue.iter().take(me_pos) {
            if ahead.txn != txn
                && !(ahead.mode.compatible_with(my_mode) && my_mode.compatible_with(ahead.mode))
            {
                out.push(ahead.txn);
            }
        }
    }

    /// The transactions a request for `mode` on `obj` by `txn` would have
    /// to wait for *right now*: conflicting holders plus every queued waiter
    /// with a conflicting mode (a new request joins the back of the queue).
    /// Empty means the request would be granted immediately. Used by the
    /// deadlock-prevention schemes (wait-die, wound-wait) to decide before
    /// requesting.
    #[must_use]
    pub fn blockers(&self, txn: TxnId, obj: ObjId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.blockers_into(txn, obj, mode, &mut out);
        out
    }

    /// Allocation-free form of [`LockManager::blockers`]: blockers are
    /// appended to `out` (existing contents are untouched).
    pub fn blockers_into(&self, txn: TxnId, obj: ObjId, mode: LockMode, out: &mut Vec<TxnId>) {
        let Some(entry) = self.entry_of(obj) else {
            return;
        };
        match entry.holder_mode(txn) {
            Some(LockMode::Write) => {}
            Some(LockMode::Read) if mode == LockMode::Read => {}
            Some(LockMode::Read) => {
                // Upgrade: waits for every other holder.
                for &(t, _) in &entry.holders {
                    if t != txn {
                        out.push(t);
                    }
                }
                // Upgrades queue ahead of plain waiters but behind earlier
                // upgrades, which necessarily conflict (both want Write).
                for w in entry.queue.iter().take_while(|w| w.is_upgrade) {
                    if w.txn != txn {
                        out.push(w.txn);
                    }
                }
            }
            None => {
                let before = out.len();
                for &(t, m) in &entry.holders {
                    if t != txn && !m.compatible_with(mode) {
                        out.push(t);
                    }
                }
                for w in &entry.queue {
                    if w.txn != txn
                        && !(w.mode.compatible_with(mode) && mode.compatible_with(w.mode))
                    {
                        out.push(w.txn);
                    }
                }
                // Even a compatible request must queue behind any waiter
                // (no overtaking); if the queue is non-empty the request
                // waits for at least the queue head.
                if out.len() == before && !entry.queue.is_empty() {
                    out.push(entry.queue[0].txn);
                }
            }
        }
    }

    /// The mode `txn` holds on `obj`, if any.
    #[must_use]
    pub fn holds(&self, txn: TxnId, obj: ObjId) -> Option<LockMode> {
        self.entry_of(obj).and_then(|e| e.holder_mode(txn))
    }

    /// The object `txn` is blocked on, if it is blocked.
    #[must_use]
    pub fn waiting_on(&self, txn: TxnId) -> Option<ObjId> {
        let i = (txn.0 % self.txns.len() as u64) as usize;
        let s = &self.txns[i];
        if s.tid == txn {
            s.waiting
        } else {
            None
        }
    }

    /// Number of locks `txn` currently holds.
    #[must_use]
    pub fn locks_held(&self, txn: TxnId) -> usize {
        self.slot_of(txn).map_or(0, |i| self.txns[i].held.len())
    }

    /// Total locks currently held across all transactions (table
    /// occupancy; one writer or each reader counts as one lock).
    #[must_use]
    pub fn locks_in_table(&self) -> usize {
        self.held_count
    }

    /// The most locks ever held at once (peak table occupancy).
    #[must_use]
    pub fn peak_locks_in_table(&self) -> usize {
        self.peak_held
    }

    /// Entry slots ever allocated (live + free). Bounded by the peak number
    /// of *concurrently* locked objects, not by `db_size` — the memory
    /// story of the sparse table, surfaced for the scale benchmarks.
    #[must_use]
    pub fn entry_slots(&self) -> usize {
        self.entries.len()
    }

    /// All current holders of `obj` (test/diagnostic aid).
    #[must_use]
    pub fn holders_of(&self, obj: ObjId) -> &[(TxnId, LockMode)] {
        self.entry_of(obj).map_or(&[], |e| e.holders.as_slice())
    }

    /// Queue length on `obj`.
    #[must_use]
    pub fn queue_len(&self, obj: ObjId) -> usize {
        self.entry_of(obj).map_or(0, |e| e.queue.len())
    }

    /// Lifetime counters: `(grants, blocks, denials)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.grants, self.blocks, self.denials)
    }

    /// Verify internal invariants. Intended for tests; panics on violation.
    ///
    /// # Panics
    /// Panics if any transaction slot disagrees with the lock table, if
    /// multiple holders coexist with a writer, if a grantable queue head was
    /// left waiting, if the occupancy counter drifts, or if the sparse
    /// table's slot accounting breaks (an indexed entry is empty, a slot is
    /// both indexed and free, or a pool slot is neither).
    pub fn assert_consistent(&self) {
        // Sparse-layout accounting: every pool slot is exactly one of
        // indexed (and then non-empty) or free (and then empty).
        let mut seen = vec![false; self.entries.len()];
        for (obj, i) in self.index.iter() {
            let entry = &self.entries[i as usize];
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "entry slot {i} indexed twice"
            );
            assert!(
                !entry.holders.is_empty() || !entry.queue.is_empty(),
                "{obj}: indexed entry is empty (should be retired)"
            );
        }
        for &i in &self.free {
            let entry = &self.entries[i as usize];
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "entry slot {i} free-listed twice or also indexed"
            );
            assert!(
                entry.holders.is_empty() && entry.queue.is_empty(),
                "free entry slot {i} still has lock state"
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "orphaned entry slot (neither indexed nor free)"
        );
        let mut holder_pairs = 0usize;
        for (obj, ei) in self.index.iter() {
            let entry = &self.entries[ei as usize];
            holder_pairs += entry.holders.len();
            let writers = entry
                .holders
                .iter()
                .filter(|(_, m)| *m == LockMode::Write)
                .count();
            if writers > 0 {
                assert_eq!(
                    entry.holders.len(),
                    1,
                    "{obj} has a writer plus other holders"
                );
            }
            for &(t, _) in &entry.holders {
                let si = self.slot_of(t).unwrap_or_else(|| {
                    panic!("{obj} holder {t} has no transaction slot");
                });
                assert!(
                    self.txns[si].held.contains(&obj),
                    "{obj} holder {t} missing from held index"
                );
            }
            for w in &entry.queue {
                assert_eq!(
                    self.waiting_on(w.txn),
                    Some(obj),
                    "queued {} missing from waiting index",
                    w.txn
                );
                if w.is_upgrade {
                    assert_eq!(
                        entry.holder_mode(w.txn),
                        Some(LockMode::Read),
                        "upgrade waiter {} does not hold a read lock",
                        w.txn
                    );
                }
            }
            // No grantable head left waiting.
            if let Some(head) = entry.queue.front() {
                if head.is_upgrade {
                    assert!(
                        !entry.is_sole_holder(head.txn),
                        "{obj}: grantable upgrade left queued"
                    );
                } else {
                    assert!(
                        !entry.compatible_for(head.txn, head.mode),
                        "{obj}: grantable head left queued"
                    );
                }
            }
        }
        assert_eq!(
            holder_pairs, self.held_count,
            "lock occupancy counter drifted"
        );
        for slot in &self.txns {
            if slot.is_vacant() {
                continue;
            }
            let txn = slot.tid;
            for &obj in &slot.held {
                assert!(
                    self.entry_of(obj)
                        .is_some_and(|e| e.holder_mode(txn).is_some()),
                    "held index lists {txn} on {obj} but table disagrees"
                );
            }
            if let Some(obj) = slot.waiting {
                assert!(
                    self.entry_of(obj)
                        .is_some_and(|e| e.queue.iter().any(|w| w.txn == txn)),
                    "waiting index lists {txn} on {obj} but queue disagrees"
                );
            }
        }
    }
}

impl LockManager {
    // `drain_queue` borrows only the entry and cannot see the object id, so
    // grants are created with a placeholder and patched here.
    fn patch_grants(obj: ObjId, grants: &mut [Grant], from: usize) {
        for g in &mut grants[from..] {
            g.obj = obj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> TxnId {
        TxnId(v)
    }
    fn o(v: u64) -> ObjId {
        ObjId(v)
    }

    #[test]
    fn read_locks_share() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Read),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(2), o(7), LockMode::Read),
            RequestOutcome::Granted
        );
        assert_eq!(lm.holders_of(o(7)).len(), 2);
        lm.assert_consistent();
    }

    #[test]
    fn write_excludes_read() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Write),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(2), o(7), LockMode::Read),
            RequestOutcome::Queued
        );
        assert_eq!(lm.waiting_on(t(2)), Some(o(7)));
        lm.assert_consistent();
    }

    #[test]
    fn read_excludes_write() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Read),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(2), o(7), LockMode::Write),
            RequestOutcome::Queued
        );
        lm.assert_consistent();
    }

    #[test]
    fn reacquisition_is_noop() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Read),
            RequestOutcome::Granted
        );
        lm.request(t(1), o(8), LockMode::Write);
        assert_eq!(
            lm.request(t(1), o(8), LockMode::Read),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(1), o(8), LockMode::Write),
            RequestOutcome::Granted
        );
        assert_eq!(lm.locks_held(t(1)), 2);
        lm.assert_consistent();
    }

    #[test]
    fn sole_reader_upgrades_in_place() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Write),
            RequestOutcome::Granted
        );
        assert_eq!(lm.holds(t(1), o(7)), Some(LockMode::Write));
        lm.assert_consistent();
    }

    #[test]
    fn upgrade_waits_for_other_readers() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Read);
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Write),
            RequestOutcome::Queued
        );
        lm.assert_consistent();
        // When t2 releases, the upgrade is granted.
        let grants = lm.release_all(t(2));
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(1),
                obj: o(7),
                mode: LockMode::Write
            }]
        );
        assert_eq!(lm.holds(t(1), o(7)), Some(LockMode::Write));
        lm.assert_consistent();
    }

    #[test]
    fn upgrade_queues_ahead_of_plain_waiters() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Read);
        // t3 queues a plain write first, then t1 requests its upgrade.
        assert_eq!(
            lm.request(t(3), o(7), LockMode::Write),
            RequestOutcome::Queued
        );
        assert_eq!(
            lm.request(t(1), o(7), LockMode::Write),
            RequestOutcome::Queued
        );
        lm.assert_consistent();
        let grants = lm.release_all(t(2));
        // Upgrade first despite arriving later.
        assert_eq!(grants[0].txn, t(1));
        assert_eq!(grants[0].mode, LockMode::Write);
        lm.assert_consistent();
    }

    #[test]
    fn fcfs_no_reader_overtaking() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Write); // queued
                                                 // A later read must not jump the queued writer.
        assert_eq!(
            lm.request(t(3), o(7), LockMode::Read),
            RequestOutcome::Queued
        );
        lm.assert_consistent();
        let grants = lm.release_all(t(1));
        assert_eq!(grants.len(), 1);
        assert_eq!(
            grants[0],
            Grant {
                txn: t(2),
                obj: o(7),
                mode: LockMode::Write
            }
        );
        let grants = lm.release_all(t(2));
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(3),
                obj: o(7),
                mode: LockMode::Read
            }]
        );
        lm.assert_consistent();
    }

    #[test]
    fn release_grants_multiple_readers_together() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Write);
        lm.request(t(2), o(7), LockMode::Read);
        lm.request(t(3), o(7), LockMode::Read);
        let grants = lm.release_all(t(1));
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.mode == LockMode::Read));
        assert_eq!(lm.holders_of(o(7)).len(), 2);
        lm.assert_consistent();
    }

    #[test]
    fn try_request_denies_instead_of_queueing() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Write);
        assert_eq!(
            lm.try_request(t(2), o(7), LockMode::Read),
            RequestOutcome::Denied
        );
        assert_eq!(lm.waiting_on(t(2)), None);
        // Upgrade denial.
        lm.request(t(2), o(8), LockMode::Read);
        lm.request(t(3), o(8), LockMode::Read);
        assert_eq!(
            lm.try_request(t(2), o(8), LockMode::Write),
            RequestOutcome::Denied
        );
        let (_, _, denials) = lm.counters();
        assert_eq!(denials, 2);
        lm.assert_consistent();
    }

    #[test]
    fn classic_two_txn_deadlock() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.request(t(2), o(2), LockMode::Write);
        assert_eq!(
            lm.request(t(1), o(2), LockMode::Read),
            RequestOutcome::Queued
        );
        assert!(lm.find_deadlock(t(1)).is_none());
        assert_eq!(
            lm.request(t(2), o(1), LockMode::Read),
            RequestOutcome::Queued
        );
        let cycle = lm.find_deadlock(t(2)).expect("deadlock expected");
        let mut c = cycle.clone();
        c.sort();
        assert_eq!(c, vec![t(1), t(2)]);
        lm.assert_consistent();
    }

    #[test]
    fn upgrade_upgrade_deadlock() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Read);
        lm.request(t(1), o(7), LockMode::Write);
        lm.request(t(2), o(7), LockMode::Write);
        let cycle = lm.find_deadlock(t(2)).expect("upgrade deadlock");
        let mut c = cycle;
        c.sort();
        assert_eq!(c, vec![t(1), t(2)]);
        lm.assert_consistent();
    }

    #[test]
    fn queue_order_deadlock_is_detected() {
        // t1 holds read on A. t2 write-waits on A. t3 read-waits on A
        // (behind t2). t2's wait depends on t1; if t1 then waits on
        // something t3 holds, the cycle goes through queue-ahead edges.
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Read);
        lm.request(t(3), o(2), LockMode::Write);
        lm.request(t(2), o(1), LockMode::Write); // waits on t1
        lm.request(t(3), o(1), LockMode::Read); // waits behind t2 (conflicting)
        assert_eq!(
            lm.request(t(1), o(2), LockMode::Read),
            RequestOutcome::Queued
        ); // waits on t3
        let cycle = lm.find_deadlock(t(1)).expect("3-cycle through queue edge");
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(3)));
        lm.assert_consistent();
    }

    #[test]
    fn aborting_victim_breaks_deadlock() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.request(t(2), o(2), LockMode::Write);
        lm.request(t(1), o(2), LockMode::Write);
        lm.request(t(2), o(1), LockMode::Write);
        assert!(lm.find_deadlock(t(2)).is_some());
        // Abort t2: its lock on o2 goes to t1; t1 unblocks.
        let grants = lm.release_all(t(2));
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(1),
                obj: o(2),
                mode: LockMode::Write
            }]
        );
        assert!(lm.find_deadlock(t(1)).is_none());
        assert_eq!(lm.waiting_on(t(1)), None);
        assert_eq!(lm.locks_held(t(1)), 2);
        lm.assert_consistent();
    }

    #[test]
    fn release_of_waiter_unblocks_queue_behind_it() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Write); // queued
        lm.request(t(3), o(7), LockMode::Read); // queued behind writer
                                                // Abort the queued writer: t3's read becomes grantable.
        let grants = lm.release_all(t(2));
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(3),
                obj: o(7),
                mode: LockMode::Read
            }]
        );
        lm.assert_consistent();
    }

    #[test]
    fn release_all_idempotent_for_unknown_txn() {
        let mut lm = LockManager::new();
        assert!(lm.release_all(t(99)).is_empty());
        lm.assert_consistent();
    }

    #[test]
    fn counters_track_activity() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Read);
        lm.request(t(2), o(1), LockMode::Write);
        lm.try_request(t(3), o(1), LockMode::Write);
        let (grants, blocks, denials) = lm.counters();
        assert_eq!((grants, blocks, denials), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "outstanding lock request")]
    fn double_wait_panics() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.request(t(2), o(1), LockMode::Write);
        lm.request(t(2), o(2), LockMode::Read);
    }

    #[test]
    fn blockers_reports_conflicts() {
        let mut lm = LockManager::new();
        assert!(lm.blockers(t(1), o(7), LockMode::Write).is_empty());
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Read);
        // A third read is free; a write waits for both readers.
        assert!(lm.blockers(t(3), o(7), LockMode::Read).is_empty());
        let mut b = lm.blockers(t(3), o(7), LockMode::Write);
        b.sort();
        assert_eq!(b, vec![t(1), t(2)]);
        // An upgrade by t1 waits only for t2.
        assert_eq!(lm.blockers(t(1), o(7), LockMode::Write), vec![t(2)]);
        // Holding a write means no blockers for anything.
        lm.release_all(t(2));
        lm.request(t(1), o(7), LockMode::Write);
        assert!(lm.blockers(t(1), o(7), LockMode::Read).is_empty());
        assert!(lm.blockers(t(1), o(7), LockMode::Write).is_empty());
        lm.assert_consistent();
    }

    #[test]
    fn blockers_includes_queued_waiters() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Read);
        lm.request(t(2), o(7), LockMode::Write); // queued
                                                 // A new read waits for the queued writer (no overtaking).
        assert_eq!(lm.blockers(t(3), o(7), LockMode::Read), vec![t(2)]);
        // A new write waits for the read holder and the queued writer.
        let mut b = lm.blockers(t(3), o(7), LockMode::Write);
        b.sort();
        assert_eq!(b, vec![t(1), t(2)]);
    }

    #[test]
    fn release_empties_entries_in_place() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.release_all(t(1));
        assert!(lm.holders_of(o(1)).is_empty(), "entry should be emptied");
        assert_eq!(lm.locks_held(t(1)), 0);
        assert_eq!(lm.locks_in_table(), 0);
        lm.assert_consistent();
    }

    #[test]
    fn occupancy_counter_tracks_holders() {
        let mut lm = LockManager::new();
        assert_eq!(lm.locks_in_table(), 0);
        lm.request(t(1), o(1), LockMode::Read);
        lm.request(t(2), o(1), LockMode::Read);
        lm.request(t(1), o(2), LockMode::Write);
        assert_eq!(lm.locks_in_table(), 3);
        // In-place upgrade does not change occupancy.
        lm.release_all(t(2));
        lm.request(t(1), o(1), LockMode::Write);
        assert_eq!(lm.locks_in_table(), 2);
        lm.release_all(t(1));
        assert_eq!(lm.locks_in_table(), 0);
        lm.assert_consistent();
    }

    #[test]
    fn colliding_txn_ids_grow_slot_array() {
        // Two live transactions whose ids collide modulo the default slot
        // count (64) must both be representable.
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.request(t(65), o(2), LockMode::Write);
        assert_eq!(lm.holds(t(1), o(1)), Some(LockMode::Write));
        assert_eq!(lm.holds(t(65), o(2)), Some(LockMode::Write));
        assert_eq!(lm.locks_held(t(1)), 1);
        assert_eq!(lm.locks_held(t(65)), 1);
        lm.assert_consistent();
        // And a queued collision too.
        assert_eq!(
            lm.request(t(129), o(1), LockMode::Read),
            RequestOutcome::Queued
        );
        assert_eq!(lm.waiting_on(t(129)), Some(o(1)));
        lm.assert_consistent();
        let grants = lm.release_all(t(1));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, t(129));
        lm.assert_consistent();
    }

    #[test]
    fn entry_slots_recycle_across_objects() {
        // Locking n distinct objects sequentially must not grow the pool
        // past the concurrency high-water mark: each release retires the
        // entry and the next object reuses it.
        let mut lm = LockManager::new();
        for i in 0..1000u64 {
            lm.request(t(1), o(i * 97), LockMode::Write);
            lm.release_all(t(1));
            lm.assert_consistent();
        }
        assert_eq!(lm.entry_slots(), 1, "pool grew despite sequential reuse");
        assert_eq!(lm.peak_locks_in_table(), 1);
        // Two objects at once needs two slots, no more.
        lm.request(t(1), o(5), LockMode::Read);
        lm.request(t(2), o(6), LockMode::Read);
        assert_eq!(lm.entry_slots(), 2);
        lm.release_all(t(1));
        lm.release_all(t(2));
        lm.assert_consistent();
    }

    #[test]
    fn huge_object_ids_stay_sparse() {
        // db_size = 10^8-style ids: memory must follow locks in flight.
        let mut lm = LockManager::with_capacity(100_000_000, 8);
        for i in 0..100u64 {
            lm.request(t(i % 8), o(99_999_999 - i * 1_000_003), LockMode::Read);
        }
        assert_eq!(lm.locks_in_table(), 100);
        assert_eq!(lm.entry_slots(), 100);
        lm.assert_consistent();
        for i in 0..8 {
            lm.release_all(t(i));
        }
        assert_eq!(lm.locks_in_table(), 0);
        lm.assert_consistent();
    }

    #[test]
    fn canceling_sole_waiter_retires_entry() {
        // A waiter queued behind a holder on one object, canceled after the
        // holder already released a *different* object, must leave no empty
        // indexed entry behind.
        let mut lm = LockManager::new();
        lm.request(t(1), o(7), LockMode::Write);
        lm.request(t(2), o(7), LockMode::Read); // queued
        let grants = lm.release_all(t(1)); // t2 granted
        assert_eq!(grants.len(), 1);
        lm.release_all(t(2));
        assert_eq!(lm.entry_slots(), 1);
        lm.assert_consistent();
        // Now: waiter is the only occupant (holder aborts first), then the
        // waiter itself aborts — both paths must retire the entry.
        lm.request(t(3), o(9), LockMode::Write);
        lm.request(t(4), o(9), LockMode::Write); // queued
        lm.release_all(t(4)); // cancel the queued request only
        assert_eq!(lm.queue_len(o(9)), 0);
        lm.release_all(t(3));
        assert_eq!(lm.locks_in_table(), 0);
        lm.assert_consistent();
    }

    #[test]
    fn slot_reuse_after_release() {
        // Sequential transactions mapping to the same slot (engine pattern:
        // one live txn per terminal) reuse it without growth.
        let mut lm = LockManager::with_capacity(16, 4);
        for serial in 0..100u64 {
            let id = t(serial * 4 + 2); // terminal 2
            lm.request(id, o(serial % 16), LockMode::Write);
            assert_eq!(lm.locks_held(id), 1);
            lm.release_all(id);
            assert_eq!(lm.locks_held(id), 0);
        }
        lm.assert_consistent();
    }
}
