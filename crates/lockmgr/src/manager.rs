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
//! makes `db_size = 10^8` runs practical — a dense table indexed by
//! [`ObjId`] would cost gigabytes while a run touches a vanishing fraction
//! of the database. Each fact is stored once:
//!
//! * `entries` is a pool of 24-byte [`Entry`] slots; `index` is an
//!   open-addressed hash map (`ObjId → slot`, Fibonacci hashing,
//!   backward-shift deletion) over that pool, 8 bytes a slot. An entry
//!   keeps its object id and its first holder inline, which is all most
//!   locked objects ever need.
//! * Object ids are stored as 4-byte keys, in the entry and in the index
//!   ([`ObjId::narrow`], a checked conversion: `Params::validate` bounds
//!   `db_size` by 2^32 − 1, so every id fits). The API takes and returns
//!   [`ObjId`].
//! * Further holders and the wait queue live in a [`Side`] allocation,
//!   taken from `sides` only when an object becomes shared or contended.
//!   When a release or queue cancellation empties an entry (no holders, no
//!   waiters), its slot goes onto `free` and its side (if any) onto
//!   `free_sides`, each keeping its allocations; the next lock on *any*
//!   object reuses them. Steady-state locking is therefore
//!   allocation-free, and an object with one holder and no waiter costs
//!   no heap allocation at all.
//! * Each transaction's held locks form a singly linked list threaded
//!   through the holder records in acquisition order: a holder's `next` is
//!   the entry slot of the same transaction's next lock. Release walks the
//!   list entry by entry with no hash probe until an emptied entry leaves
//!   the index.
//! * Invariant: an indexed entry is never empty, and every pool slot (and
//!   every side) is either in use or on its free list
//!   ([`LockManager::assert_consistent`] checks both, every held list, and
//!   exact `held_count` occupancy accounting).
//!
//! Per-transaction state (held-list ends and count, the entry slot of the
//! outstanding request) is a 24-byte [`TxnSlot`] in an array indexed by
//! `TxnId % nslots`; the engine derives transaction ids as
//! `serial * num_terms + terminal`, so sizing the slot array to the
//! terminal count makes the mapping collision-free. Standalone users get a
//! default slot count that doubles transparently whenever two live
//! transactions would collide.

use std::cell::RefCell;
use std::collections::VecDeque;

use ccsim_workload::{ObjId, ObjMap, TxnId};

use crate::graph::{find_cycle_through, DfsScratch};

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

/// Absent entry slot, side or held-list link.
const NONE: u32 = u32::MAX;

/// One transaction's lock on one object, and its link to the same
/// transaction's next lock.
#[derive(Debug, Clone, Copy)]
struct Holder {
    txn: TxnId,
    /// Entry slot of `txn`'s next lock in acquisition order, or [`NONE`].
    next: u32,
    mode: LockMode,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// True if the waiter already holds a read lock on the object and is
    /// converting it to a write lock.
    is_upgrade: bool,
}

/// Holders after the first, plus the wait queue, of a shared or contended
/// object.
#[derive(Debug, Default)]
struct Side {
    holders: Vec<Holder>,
    queue: VecDeque<Waiter>,
}

/// An object's lock state. The holder order is `first` then
/// `sides[side].holders`; `first` is `None` only while the entry has no
/// holder at all.
#[derive(Debug)]
struct Entry {
    /// The object, as a 4-byte id (see [`Entry::obj`]).
    obj: u32,
    first: Option<Holder>,
    /// Index into `sides`, or [`NONE`].
    side: u32,
}

impl Entry {
    /// The entry's object.
    #[inline]
    fn obj(&self) -> ObjId {
        ObjId::from(self.obj)
    }
}

/// The wait queue of an object without a side.
static NO_WAITERS: VecDeque<Waiter> = VecDeque::new();

/// Read-only view of an entry together with its side.
#[derive(Clone, Copy)]
struct View<'a> {
    entry: &'a Entry,
    side: Option<&'a Side>,
}

impl<'a> View<'a> {
    fn holders(self) -> impl Iterator<Item = &'a Holder> {
        let rest = self.side.map_or(&[][..], |s| &s.holders[..]);
        self.entry.first.iter().chain(rest)
    }

    fn queue(self) -> &'a VecDeque<Waiter> {
        self.side.map_or(&NO_WAITERS, |s| &s.queue)
    }

    fn is_empty(self) -> bool {
        self.entry.first.is_none() && self.queue().is_empty()
    }

    fn holder_mode(self, txn: TxnId) -> Option<LockMode> {
        self.holders().find(|h| h.txn == txn).map(|h| h.mode)
    }

    fn is_sole_holder(self, txn: TxnId) -> bool {
        self.entry.first.is_some_and(|h| h.txn == txn)
            && self.side.is_none_or(|s| s.holders.is_empty())
    }

    fn compatible_for(self, txn: TxnId, mode: LockMode) -> bool {
        self.holders()
            .all(|h| h.txn == txn || h.mode.compatible_with(mode))
    }
}

/// Per-transaction state, addressed by `TxnId % slots.len()`.
///
/// A slot is *vacant* (reusable by any transaction hashing to it) once its
/// occupant neither holds locks nor waits; `tid` then only records the last
/// occupant and carries no meaning.
#[derive(Debug, Clone, Copy)]
struct TxnSlot {
    tid: TxnId,
    /// Entry slots of the first and last held locks (the held list's ends),
    /// or [`NONE`].
    head: u32,
    tail: u32,
    /// Length of the held list.
    held: u32,
    /// Entry slot of the occupant's single outstanding blocked request, or
    /// [`NONE`].
    waiting: u32,
}

impl TxnSlot {
    const VACANT: TxnSlot = TxnSlot {
        tid: TxnId(0),
        head: NONE,
        tail: NONE,
        held: 0,
        waiting: NONE,
    };

    fn is_vacant(&self) -> bool {
        self.held == 0 && self.waiting == NONE
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
    /// retired ones through `free`.
    entries: Vec<Entry>,
    /// Sparse `ObjId → entries` slot map: present iff the object currently
    /// has at least one holder or waiter.
    index: ObjMap<u32>,
    /// Retired entry slots available for reuse (LIFO).
    free: Vec<u32>,
    /// Side allocations of shared or contended entries; retired ones keep
    /// their `holders`/`queue` capacity for reuse.
    sides: Vec<Side>,
    /// Retired sides available for reuse (LIFO).
    free_sides: Vec<u32>,
    /// Per-transaction state, indexed by `TxnId % txns.len()`.
    txns: Vec<TxnSlot>,
    /// Deadlock-search buffers, reused by every probe. Behind a `RefCell`
    /// because a probe only reads the table (`find_deadlock(&self)`).
    dfs: RefCell<DfsScratch>,
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

    /// Length of the per-transaction slot array for `txn_slots` slots.
    fn slot_count(txn_slots: usize) -> usize {
        txn_slots.max(1)
    }

    /// Bytes of the per-transaction slot array that
    /// [`LockManager::with_capacity`] allocates for `txn_slots` slots.
    #[must_use]
    pub fn slot_bytes(txn_slots: usize) -> u128 {
        Self::slot_count(txn_slots) as u128 * size_of::<TxnSlot>() as u128
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
        LockManager {
            entries: Vec::with_capacity(hint),
            index: ObjMap::with_capacity(hint),
            free: Vec::new(),
            sides: Vec::new(),
            free_sides: Vec::new(),
            txns: vec![TxnSlot::VACANT; Self::slot_count(txn_slots)],
            dfs: RefCell::default(),
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
        let key = obj.narrow();
        let i = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize].obj = key;
                i as usize
            }
            None => {
                let i = self.entries.len();
                assert!(
                    i < NONE as usize,
                    "more than 2^32 - 1 concurrently locked objects"
                );
                self.entries.push(Entry {
                    obj: key,
                    first: None,
                    side: NONE,
                });
                i
            }
        };
        self.index.insert(obj, i as u32);
        i
    }

    /// Entry slot `i` with its side.
    #[inline]
    fn view(&self, i: usize) -> View<'_> {
        let entry = &self.entries[i];
        let side = (entry.side != NONE).then(|| &self.sides[entry.side as usize]);
        View { entry, side }
    }

    /// The live entry for `obj`, if it has any lock state.
    #[inline]
    fn view_of(&self, obj: ObjId) -> Option<View<'_>> {
        self.index.get(obj).map(|i| self.view(i as usize))
    }

    /// The side of entry slot `i`, taking one (recycled if possible) when
    /// the entry has none yet.
    fn side_mut(&mut self, i: usize) -> &mut Side {
        if self.entries[i].side == NONE {
            let s = match self.free_sides.pop() {
                Some(s) => s,
                None => {
                    self.sides.push(Side::default());
                    (self.sides.len() - 1) as u32
                }
            };
            self.entries[i].side = s;
        }
        &mut self.sides[self.entries[i].side as usize]
    }

    /// Retire entry slot `i` if it is empty: its index entry goes, and the
    /// slot and its side return to their free lists with their allocations.
    fn retire_if_empty(&mut self, i: usize) {
        if !self.view(i).is_empty() {
            return;
        }
        let entry = &mut self.entries[i];
        let removed = self.index.remove(entry.obj());
        debug_assert_eq!(removed, Some(i as u32));
        if entry.side != NONE {
            self.free_sides
                .push(std::mem::replace(&mut entry.side, NONE));
        }
        self.free.push(i as u32);
    }

    /// Add `holder` (with no successor yet) as the last holder of entry `i`.
    fn push_holder(&mut self, i: usize, txn: TxnId, mode: LockMode) {
        let holder = Holder {
            txn,
            next: NONE,
            mode,
        };
        if self.entries[i].first.is_none() {
            self.entries[i].first = Some(holder);
        } else {
            self.side_mut(i).holders.push(holder);
        }
        self.held_count += 1;
    }

    /// Remove `txn`'s holder record from entry `i`, keeping the order of
    /// the rest; returns the record's held-list link.
    fn remove_holder(&mut self, i: usize, txn: TxnId) -> u32 {
        let entry = &mut self.entries[i];
        let first = entry.first.expect("held entry has a holder");
        let side = (entry.side != NONE).then(|| &mut self.sides[entry.side as usize]);
        self.held_count -= 1;
        if first.txn == txn {
            entry.first = side.and_then(|s| (!s.holders.is_empty()).then(|| s.holders.remove(0)));
            return first.next;
        }
        let holders = &mut side.expect("a second holder lives in the side").holders;
        let pos = holders
            .iter()
            .position(|h| h.txn == txn)
            .expect("held entry lists the holder");
        holders.remove(pos).next
    }

    /// `txn`'s holder record in entry `i`.
    fn holder_mut(&mut self, i: usize, txn: TxnId) -> &mut Holder {
        let entry = &mut self.entries[i];
        match &mut entry.first {
            Some(h) if h.txn == txn => h,
            _ => self.sides[entry.side as usize]
                .holders
                .iter_mut()
                .find(|h| h.txn == txn)
                .expect("held entry lists the holder"),
        }
    }

    /// Append entry `i` to the held list of the transaction in slot `si`
    /// (whose holder record in `i` was just pushed).
    fn link_held(&mut self, si: usize, i: usize) {
        let slot = &mut self.txns[si];
        let (txn, tail) = (slot.tid, slot.tail);
        slot.tail = i as u32;
        slot.held += 1;
        if tail == NONE {
            slot.head = i as u32;
        } else {
            self.holder_mut(tail as usize, txn).next = i as u32;
        }
    }

    /// Slot index of `tid` (where it lives if it is live).
    #[inline]
    fn slot_index(&self, tid: TxnId) -> usize {
        (tid.0 % self.txns.len() as u64) as usize
    }

    /// The slot currently occupied by `tid`, if it is live.
    fn slot_of(&self, tid: TxnId) -> Option<usize> {
        let i = self.slot_index(tid);
        let s = &self.txns[i];
        (s.tid == tid && !s.is_vacant()).then_some(i)
    }

    /// Claim a slot for `tid`, growing the slot array if another live
    /// transaction occupies it.
    fn claim_slot(&mut self, tid: TxnId) -> usize {
        loop {
            let i = self.slot_index(tid);
            let s = &mut self.txns[i];
            if s.tid == tid || s.is_vacant() {
                s.tid = tid;
                return i;
            }
            self.grow_slots();
        }
    }

    /// Double the slot-array modulus until every live transaction maps to a
    /// distinct slot, then re-place them. Held lists are threaded through
    /// entry slots, so moving a transaction's slot moves nothing else.
    fn grow_slots(&mut self) {
        let old_len = self.txns.len();
        let live: Vec<TxnSlot> = self
            .txns
            .iter()
            .filter(|s| !s.is_vacant())
            .copied()
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
        self.txns = vec![TxnSlot::VACANT; n];
        for s in live {
            let i = (s.tid.0 % n as u64) as usize;
            self.txns[i] = s;
        }
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
        let view = self.view(oi);
        match view.holder_mode(txn) {
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
                if view.is_sole_holder(txn) {
                    self.entries[oi].first.as_mut().expect("sole holder").mode = LockMode::Write;
                    self.grants += 1;
                    RequestOutcome::Granted
                } else if may_queue {
                    let si = self.claim_slot(txn);
                    let queue = &mut self.side_mut(oi).queue;
                    let pos = queue.iter().take_while(|w| w.is_upgrade).count();
                    queue.insert(
                        pos,
                        Waiter {
                            txn,
                            mode: LockMode::Write,
                            is_upgrade: true,
                        },
                    );
                    self.txns[si].waiting = oi as u32;
                    self.blocks += 1;
                    RequestOutcome::Queued
                } else {
                    self.denials += 1;
                    RequestOutcome::Denied
                }
            }
            None => {
                if view.queue().is_empty() && view.compatible_for(txn, mode) {
                    let si = self.claim_slot(txn);
                    self.push_holder(oi, txn, mode);
                    self.link_held(si, oi);
                    if self.held_count > self.peak_held {
                        self.peak_held = self.held_count;
                    }
                    self.grants += 1;
                    RequestOutcome::Granted
                } else if may_queue {
                    let si = self.claim_slot(txn);
                    self.side_mut(oi).queue.push_back(Waiter {
                        txn,
                        mode,
                        is_upgrade: false,
                    });
                    self.txns[si].waiting = oi as u32;
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
        let Some(si) = self.slot_of(txn) else {
            return; // unknown or already-finished transaction: no-op
        };
        // Cancel an outstanding queued request.
        let waiting = std::mem::replace(&mut self.txns[si].waiting, NONE);
        if waiting != NONE {
            let ei = waiting as usize;
            let side = self.entries[ei].side as usize;
            self.sides[side].queue.retain(|w| w.txn != txn);
            // Removing a waiter can unblock those behind it (e.g. a
            // queued upgrade vanishing lets queued readers through).
            self.drain_queue(ei, grants);
            self.retire_if_empty(ei);
        }
        // Release held locks, in acquisition order, following the held
        // list. While releasing lock k the index line for lock k+1 is
        // prefetched: at 10^6-terminal scale the sparse index outgrows
        // cache, and retiring the emptied entry probes it.
        let slot = std::mem::replace(
            &mut self.txns[si],
            TxnSlot {
                tid: txn,
                ..TxnSlot::VACANT
            },
        );
        let mut ei = slot.head;
        while ei != NONE {
            let next = self.remove_holder(ei as usize, txn);
            if next != NONE {
                self.index.prefetch(self.entries[next as usize].obj());
            }
            self.drain_queue(ei as usize, grants);
            self.retire_if_empty(ei as usize);
            ei = next;
        }
        // Draining can promote several queued readers in place of one
        // writer, so occupancy may exceed the pre-release peak.
        if self.held_count > self.peak_held {
            self.peak_held = self.held_count;
        }
    }

    /// Grant entry `i`'s queued requests that have become compatible, FCFS,
    /// appending them to `grants` and to the grantees' held lists (an
    /// upgrade's object is already on its holder's list).
    fn drain_queue(&mut self, i: usize, grants: &mut Vec<Grant>) {
        loop {
            let view = self.view(i);
            let Some(&head) = view.queue().front() else {
                return;
            };
            let upgrade = head.is_upgrade;
            let grantable = if upgrade {
                view.is_sole_holder(head.txn)
            } else {
                view.compatible_for(head.txn, head.mode)
            };
            if !grantable {
                return;
            }
            self.side_mut(i).queue.pop_front();
            let si = self.claim_slot(head.txn);
            self.txns[si].waiting = NONE;
            if upgrade {
                self.entries[i].first.as_mut().expect("sole holder").mode = LockMode::Write;
            } else {
                self.push_holder(i, head.txn, head.mode);
                self.link_held(si, i);
            }
            grants.push(Grant {
                txn: head.txn,
                obj: self.entries[i].obj(),
                mode: head.mode,
            });
            self.grants += 1;
        }
    }

    /// Look for a deadlock involving `txn` (called right after `txn`
    /// blocks). Returns the waits-for cycle if one exists.
    ///
    /// Waits-for edges run from a waiter to (a) every holder whose lock
    /// conflicts with the waiter's requested mode and (b) every waiter
    /// *ahead* of it in the queue with a conflicting mode — FCFS queueing
    /// means those will be granted first, so they are genuine waits.
    ///
    /// A cycle through `txn` needs an edge into it, so the search runs only
    /// when some other transaction could wait for `txn` (see
    /// `LockManager::may_be_waited_for`); otherwise the answer is `None`
    /// without it. The search reuses buffers kept in the manager and marks
    /// visited transactions by slot, so a probe allocates only the cycle
    /// it returns.
    #[must_use]
    pub fn find_deadlock(&self, txn: TxnId) -> Option<Vec<TxnId>> {
        self.waiting_on(txn)?;
        if !self.may_be_waited_for(txn) {
            return None;
        }
        let mut scratch = self.dfs.borrow_mut();
        find_cycle_through(
            txn,
            &mut scratch,
            self.txns.len(),
            |t| self.slot_index(t),
            |t, out| self.waits_for_into(t, out),
        )
    }

    /// Could another transaction wait for the waiting `txn`? Only
    /// [`LockManager::waits_for_into`] draws edges, and it draws one into
    /// `txn` only from a waiter on an object `txn` holds or from a waiter
    /// queued behind `txn` on the object `txn` waits for. False when there
    /// is neither; true does not promise an edge.
    fn may_be_waited_for(&self, txn: TxnId) -> bool {
        let s = &self.txns[self.slot_index(txn)];
        debug_assert!(s.tid == txn && s.waiting != NONE);
        if self
            .view(s.waiting as usize)
            .queue()
            .back()
            .is_some_and(|w| w.txn != txn)
        {
            return true;
        }
        let mut ei = s.head;
        while ei != NONE {
            let view = self.view(ei as usize);
            if view.queue().iter().any(|w| w.txn != txn) {
                return true;
            }
            ei = view
                .holders()
                .find(|h| h.txn == txn)
                .expect("held entry lists the holder")
                .next;
        }
        false
    }

    fn waits_for_into(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        let s = &self.txns[self.slot_index(txn)];
        if s.tid != txn || s.waiting == NONE {
            return;
        }
        let view = self.view(s.waiting as usize);
        let queue = view.queue();
        let Some(me_pos) = queue.iter().position(|w| w.txn == txn) else {
            return;
        };
        let my_mode = queue[me_pos].mode;
        for h in view.holders() {
            if h.txn != txn && !(h.mode.compatible_with(my_mode)) {
                out.push(h.txn);
            }
        }
        for ahead in queue.iter().take(me_pos) {
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
        let Some(view) = self.view_of(obj) else {
            return;
        };
        let queue = view.queue();
        match view.holder_mode(txn) {
            Some(LockMode::Write) => {}
            Some(LockMode::Read) if mode == LockMode::Read => {}
            Some(LockMode::Read) => {
                // Upgrade: waits for every other holder.
                for h in view.holders() {
                    if h.txn != txn {
                        out.push(h.txn);
                    }
                }
                // Upgrades queue ahead of plain waiters but behind earlier
                // upgrades, which necessarily conflict (both want Write).
                for w in queue.iter().take_while(|w| w.is_upgrade) {
                    if w.txn != txn {
                        out.push(w.txn);
                    }
                }
            }
            None => {
                let before = out.len();
                for h in view.holders() {
                    if h.txn != txn && !h.mode.compatible_with(mode) {
                        out.push(h.txn);
                    }
                }
                for w in queue {
                    if w.txn != txn
                        && !(w.mode.compatible_with(mode) && mode.compatible_with(w.mode))
                    {
                        out.push(w.txn);
                    }
                }
                // Even a compatible request must queue behind any waiter
                // (no overtaking); if the queue is non-empty the request
                // waits for at least the queue head.
                if out.len() == before && !queue.is_empty() {
                    out.push(queue[0].txn);
                }
            }
        }
    }

    /// The mode `txn` holds on `obj`, if any.
    #[must_use]
    pub fn holds(&self, txn: TxnId, obj: ObjId) -> Option<LockMode> {
        self.view_of(obj).and_then(|v| v.holder_mode(txn))
    }

    /// The object `txn` is blocked on, if it is blocked.
    #[must_use]
    pub fn waiting_on(&self, txn: TxnId) -> Option<ObjId> {
        let s = &self.txns[self.slot_index(txn)];
        (s.tid == txn && s.waiting != NONE).then(|| self.entries[s.waiting as usize].obj())
    }

    /// Number of locks `txn` currently holds.
    #[must_use]
    pub fn locks_held(&self, txn: TxnId) -> usize {
        self.slot_of(txn).map_or(0, |i| self.txns[i].held as usize)
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

    /// All current holders of `obj`, in holder order (test/diagnostic aid).
    pub fn holders_of(&self, obj: ObjId) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.view_of(obj)
            .into_iter()
            .flat_map(View::holders)
            .map(|h| (h.txn, h.mode))
    }

    /// Queue length on `obj`.
    #[must_use]
    pub fn queue_len(&self, obj: ObjId) -> usize {
        self.view_of(obj).map_or(0, |v| v.queue().len())
    }

    /// Lifetime counters: `(grants, blocks, denials)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.grants, self.blocks, self.denials)
    }

    /// Verify internal invariants. Intended for tests; panics on violation.
    ///
    /// # Panics
    /// Panics if any transaction slot disagrees with the lock table, if a
    /// held list does not end at its tail, miscounts, or misses or repeats
    /// a holder, if multiple holders coexist with a writer, if a grantable
    /// queue head was left waiting, if the occupancy counter drifts, or if
    /// the sparse table's slot or side accounting breaks (an indexed entry
    /// is empty, a slot or side is both in use and free, or neither).
    pub fn assert_consistent(&self) {
        // Sparse-layout accounting: every pool slot is exactly one of
        // indexed (and then non-empty) or free (and then empty, sideless);
        // every side belongs to exactly one indexed entry or is free.
        let mut seen = vec![false; self.entries.len()];
        let mut side_seen = vec![false; self.sides.len()];
        for (obj, i) in self.index.iter() {
            let entry = &self.entries[i as usize];
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "entry slot {i} indexed twice"
            );
            assert_eq!(
                entry.obj(),
                obj,
                "entry slot {i} indexed under another object"
            );
            assert!(
                !self.view(i as usize).is_empty(),
                "{obj}: indexed entry is empty (should be retired)"
            );
            if entry.side != NONE {
                assert!(
                    !std::mem::replace(&mut side_seen[entry.side as usize], true),
                    "side {} shared by two entries",
                    entry.side
                );
            }
        }
        for &i in &self.free {
            let entry = &self.entries[i as usize];
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "entry slot {i} free-listed twice or also indexed"
            );
            assert!(
                entry.first.is_none() && entry.side == NONE,
                "free entry slot {i} still has lock state"
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "orphaned entry slot (neither indexed nor free)"
        );
        for &s in &self.free_sides {
            let side = &self.sides[s as usize];
            assert!(
                !std::mem::replace(&mut side_seen[s as usize], true),
                "side {s} free-listed twice or also in use"
            );
            assert!(
                side.holders.is_empty() && side.queue.is_empty(),
                "free side {s} still has lock state"
            );
        }
        assert!(
            side_seen.iter().all(|&s| s),
            "orphaned side (neither in use nor free)"
        );
        let mut holder_pairs = 0usize;
        for (obj, ei) in self.index.iter() {
            let view = self.view(ei as usize);
            let holders: Vec<&Holder> = view.holders().collect();
            holder_pairs += holders.len();
            if view.entry.first.is_none() {
                assert!(holders.is_empty(), "{obj}: side holders without a first");
            }
            let writers = holders.iter().filter(|h| h.mode == LockMode::Write).count();
            if writers > 0 {
                assert_eq!(holders.len(), 1, "{obj} has a writer plus other holders");
            }
            for h in &holders {
                assert!(
                    self.slot_of(h.txn).is_some(),
                    "{obj} holder {} has no transaction slot",
                    h.txn
                );
            }
            for w in view.queue() {
                assert_eq!(
                    self.waiting_on(w.txn),
                    Some(obj),
                    "queued {} missing from waiting index",
                    w.txn
                );
                if w.is_upgrade {
                    assert_eq!(
                        view.holder_mode(w.txn),
                        Some(LockMode::Read),
                        "upgrade waiter {} does not hold a read lock",
                        w.txn
                    );
                }
            }
            // No grantable head left waiting.
            if let Some(head) = view.queue().front() {
                if head.is_upgrade {
                    assert!(
                        !view.is_sole_holder(head.txn),
                        "{obj}: grantable upgrade left queued"
                    );
                } else {
                    assert!(
                        !view.compatible_for(head.txn, head.mode),
                        "{obj}: grantable head left queued"
                    );
                }
            }
        }
        assert_eq!(
            holder_pairs, self.held_count,
            "lock occupancy counter drifted"
        );
        // Every held list ends at its tail, has exactly `held` entries and
        // lists each of its transaction's holder records once; together the
        // lists cover all `held_count` pairs, so no record is unlisted.
        let mut listed = std::collections::HashSet::new();
        for slot in &self.txns {
            if slot.is_vacant() {
                continue;
            }
            let txn = slot.tid;
            let (mut ei, mut last, mut n) = (slot.head, NONE, 0u32);
            while ei != NONE {
                let view = self.view(ei as usize);
                let obj = view.entry.obj();
                assert!(
                    self.index.get(obj) == Some(ei),
                    "{txn}'s held list reaches retired entry slot {ei}"
                );
                assert!(
                    listed.insert((txn, ei)),
                    "{txn}'s held list visits {obj} twice"
                );
                let holder = view.holders().find(|h| h.txn == txn).unwrap_or_else(|| {
                    panic!("held list lists {txn} on {obj} but table disagrees")
                });
                n += 1;
                assert!(n <= slot.held, "{txn}'s held list is longer than its count");
                last = ei;
                ei = holder.next;
            }
            assert_eq!(n, slot.held, "{txn}'s held list is shorter than its count");
            assert_eq!(
                last, slot.tail,
                "{txn}'s held list does not end at its tail"
            );
            if n == 0 {
                assert_eq!(slot.head, NONE, "{txn}'s empty held list has a head");
            }
            if slot.waiting != NONE {
                let view = self.view(slot.waiting as usize);
                assert!(
                    self.index.get(view.entry.obj()) == Some(slot.waiting)
                        && view.queue().iter().any(|w| w.txn == txn),
                    "waiting index lists {txn} on {} but queue disagrees",
                    view.entry.obj()
                );
            }
        }
        assert_eq!(
            listed.len(),
            self.held_count,
            "a holder record is on no held list"
        );
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
        assert_eq!(lm.holders_of(o(7)).count(), 2);
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
        assert_eq!(lm.holders_of(o(7)).count(), 2);
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
    fn upgrade_with_a_plain_waiter_behind_it_is_searched() {
        // t1 and t2 share o1; t1's upgrade queues ahead of t3's plain read,
        // and t3 holds o2, which t2 then waits for. The only edge into t1
        // comes from t3, queued behind it on the object it waits for (and
        // holds).
        let mut lm = LockManager::new();
        lm.request(t(3), o(2), LockMode::Write);
        lm.request(t(1), o(1), LockMode::Read);
        lm.request(t(2), o(1), LockMode::Read);
        assert_eq!(
            lm.request(t(1), o(1), LockMode::Write),
            RequestOutcome::Queued
        );
        assert_eq!(
            lm.request(t(3), o(1), LockMode::Read),
            RequestOutcome::Queued
        );
        assert_eq!(
            lm.request(t(2), o(2), LockMode::Write),
            RequestOutcome::Queued
        );
        for requester in [t(1), t(2)] {
            let mut cycle = lm.find_deadlock(requester).expect("3-cycle");
            cycle.sort();
            assert_eq!(cycle, vec![t(1), t(2), t(3)]);
        }
        lm.assert_consistent();
    }

    #[test]
    fn waiter_queued_behind_a_plain_requester_is_searched() {
        // t2 holds nothing; its only in-edge is from t3, queued behind it
        // on o1: t2 -> t1 -> t3 -> t2.
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Read);
        lm.request(t(3), o(2), LockMode::Write);
        lm.request(t(2), o(1), LockMode::Write);
        lm.request(t(3), o(1), LockMode::Read);
        lm.request(t(1), o(2), LockMode::Read);
        let mut cycle = lm.find_deadlock(t(2)).expect("cycle through t2");
        cycle.sort();
        assert_eq!(cycle, vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn held_object_with_a_waiter_is_searched() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.request(t(2), o(2), LockMode::Write);
        lm.request(t(1), o(3), LockMode::Read);
        lm.request(t(3), o(3), LockMode::Write);
        // t3 waits on o3, which t1 holds, but t1 waits for no one yet.
        assert_eq!(
            lm.request(t(1), o(2), LockMode::Read),
            RequestOutcome::Queued
        );
        assert!(lm.find_deadlock(t(1)).is_none());
        // t2 holds o2, where t1 waits: t2 -> t1 -> t2.
        assert_eq!(
            lm.request(t(2), o(1), LockMode::Read),
            RequestOutcome::Queued
        );
        let mut cycle = lm.find_deadlock(t(2)).expect("2-cycle");
        cycle.sort();
        assert_eq!(cycle, vec![t(1), t(2)]);
    }

    #[test]
    fn requester_nobody_waits_for_finds_no_deadlock_beside_a_cycle() {
        let mut lm = LockManager::new();
        lm.request(t(1), o(1), LockMode::Write);
        lm.request(t(2), o(2), LockMode::Write);
        lm.request(t(4), o(4), LockMode::Write);
        lm.request(t(1), o(2), LockMode::Write);
        lm.request(t(2), o(1), LockMode::Write);
        // Left unresolved: t1 and t2 wait for each other.
        assert!(lm.find_deadlock(t(1)).is_some());
        // t3 holds nothing, t4 holds an object nobody waits on; both queue
        // last, behind the cycle.
        assert_eq!(
            lm.request(t(3), o(1), LockMode::Read),
            RequestOutcome::Queued
        );
        assert_eq!(
            lm.request(t(4), o(2), LockMode::Write),
            RequestOutcome::Queued
        );
        assert!(lm.find_deadlock(t(3)).is_none());
        assert!(lm.find_deadlock(t(4)).is_none());
        assert!(lm.find_deadlock(t(2)).is_some());
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
        assert!(
            lm.holders_of(o(1)).next().is_none(),
            "entry should be emptied"
        );
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
    fn layout_sizes_are_pinned() {
        // The scale regime keeps ~10^5 transaction slots and ~6 x 10^5
        // entries live; these sizes are what the storage layout promises.
        assert_eq!(std::mem::size_of::<TxnSlot>(), 24);
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn sides_are_taken_only_for_shared_or_contended_objects() {
        let mut lm = LockManager::new();
        for i in 0..100u64 {
            lm.request(t(i % 8), o(i), LockMode::Read);
        }
        lm.request(t(1), o(1), LockMode::Write); // in-place upgrade
        assert!(lm.sides.is_empty(), "a sole holder took a side");
        lm.request(t(2), o(1), LockMode::Read); // queued: a side
        lm.request(t(4), o(3), LockMode::Read); // shared: a side
        assert_eq!(lm.sides.len(), 2);
        lm.assert_consistent();
        for i in 0..8 {
            lm.release_all(t(i));
        }
        lm.assert_consistent();
        assert_eq!(lm.free_sides.len(), 2, "retired sides are kept");
        // A new contended object reuses a retired side.
        lm.request(t(1), o(5), LockMode::Write);
        lm.request(t(2), o(5), LockMode::Write);
        assert_eq!((lm.sides.len(), lm.free_sides.len()), (2, 1));
        lm.assert_consistent();
    }

    #[test]
    fn release_promotes_the_second_holder_in_order() {
        let mut lm = LockManager::new();
        for i in 1..=4 {
            lm.request(t(i), o(7), LockMode::Read);
        }
        lm.release_all(t(1));
        lm.release_all(t(3));
        let holders: Vec<TxnId> = lm.holders_of(o(7)).map(|(t, _)| t).collect();
        assert_eq!(holders, vec![t(2), t(4)]);
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
