//! Speculative window-parallel execution: shared worker-pool state and the
//! read-only chunk-speculation lanes.
//!
//! The merge thread (the thread driving [`crate::Simulator`]) pops a safe
//! time window of events off the calendar, publishes a frozen [`SpecView`]
//! of the engine to a pool of worker lanes, and *helps* claim chunks
//! itself. Workers do strictly read-only work per planned event — resolve
//! the target `(terminal, epoch)`, check the arena epoch, predict the next
//! concurrency-control object from the transaction's program counter, pull
//! the lock-table home line into cache, and record a validation *hint* —
//! then the merge thread applies every event serially in global-seq order.
//! Because the merge is serial and the speculation mutates nothing,
//! reports, streaming quantiles, and golden traces are byte-identical to
//! the sequential engine at any worker count; the speedup comes from
//! resolving the window's DRAM misses (lock-table home slots, arena
//! regions, pool payloads) concurrently before the serial pass needs them.
//!
//! # Window protocol (and why it cannot use-after-free)
//!
//! The shared state is one [`WindowShared`]; the per-window [`SpecView`]
//! lives on the merge thread's stack and is only reachable through
//! `WindowShared::view` while the window's generation is *odd*:
//!
//! 1. **Publish** — merge stores the view pointer, chunk count, and the
//!    claim-ticket base, then bumps the generation to odd (`Release`).
//! 2. **Speculate** — a worker that observes an odd, not-yet-handled
//!    generation registers in `outstanding` (`SeqCst`), re-checks the
//!    generation (if it moved on, it deregisters and retries), and then
//!    claims chunk tickets from the monotone `claim` counter. The merge
//!    thread runs the same claim loop, so every chunk is speculated even
//!    with zero live workers (e.g. on a one-core host).
//! 3. **Close + quiesce** — when the tickets run out, merge bumps the
//!    generation to even (`SeqCst`) and spins until `outstanding == 0`.
//!    A late worker either re-checks the now-even generation and leaves,
//!    or is already registered — in which case merge is still waiting on
//!    it. Only after quiescence does merge mutate engine state, so no
//!    lane ever dereferences the view concurrently with a mutation.
//!
//! The claim counter is *monotone across windows* (each publish re-bases
//! it instead of resetting it), so a stale ticket from a previous window
//! decodes to an out-of-range chunk index and is discarded — tickets can
//! never alias a chunk of a newer window.
//!
//! A panicking worker lane marks the window `poisoned` (its registration
//! is released by the catch-unwind path, so quiescence still completes)
//! and the merge thread re-raises the failure as a panic, which the sweep
//! supervisor already converts into a typed per-point failure hole.

use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use ccsim_des::{ExpBlock, ExpRefill, SimTime, Xoshiro256StarStar};
use ccsim_lockmgr::LockManager;
use ccsim_resources::{DiskArray, ServerPool};

use crate::algorithm::CcAlgorithm;
use crate::arena::TxnArena;
use crate::engine::{Event, Payload};
use crate::txn::Step;

/// Planned events per speculation chunk: one claim ticket's worth of work.
/// Small enough that lanes load-balance within a window, large enough that
/// the ticket counter is not contended.
pub(crate) const CHUNK: usize = 64;

/// Hard cap on planned events per window. Windows are usually closed
/// earlier by the time horizon or a batch boundary.
pub(crate) const WINDOW_CAP: usize = 4096;

/// Maximum tracked lanes (merge thread is lane 0). Worker counts above
/// this still run; only per-lane busy attribution saturates.
pub const MAX_LANES: usize = 8;

/// Hint kinds (low 3 bits of a hint word).
pub(crate) const HINT_NONE: u64 = 0;
/// The target transaction's epoch had already moved on at speculation time.
pub(crate) const HINT_STALE: u64 = 1;
/// Target resolved and epoch-checked; no lock-table touch predicted.
pub(crate) const HINT_CHECKED: u64 = 2;
/// Target resolved; the predicted lock-table home line was prefetched.
pub(crate) const HINT_LOCKSTEP: u64 = 3;
/// Two events in one chunk hash to the same lock-table home slot: a
/// cross-shard interaction, conservatively demoted to serial replay.
pub(crate) const HINT_CONFLICT: u64 = 4;

/// Pack a hint word: kind (3 bits) | terminal (29 bits) | epoch (32 bits).
#[inline]
pub(crate) fn encode_hint(kind: u64, term: usize, epoch: u32) -> u64 {
    debug_assert!(kind < 8);
    debug_assert!(term < (1 << 29));
    kind | ((term as u64) << 3) | (u64::from(epoch) << 32)
}

/// Unpack a hint word into `(kind, terminal, epoch)`.
#[inline]
pub(crate) fn decode_hint(h: u64) -> (u64, usize, u32) {
    (h & 0x7, ((h >> 3) & 0x1FFF_FFFF) as usize, (h >> 32) as u32)
}

/// The frozen, read-only view of the engine a window's speculation runs
/// over. Raw pointers because the merge thread re-borrows the engine
/// mutably between windows; the window protocol (see module docs)
/// guarantees no lane dereferences them outside an open window.
pub(crate) struct SpecView {
    /// The planned `(time, event)` window, in global-seq order.
    pub planned: *const (SimTime, Event),
    /// Number of planned events.
    pub n: usize,
    /// One hint word per planned event, written by speculation lanes.
    pub hints: *const AtomicU64,
    pub arena: *const TxnArena,
    pub lockmgr: *const LockManager,
    pub cpus: *const Option<ServerPool<Payload>>,
    pub disks: *const Option<DiskArray<Payload>>,
    pub algorithm: CcAlgorithm,
    /// External-think sampler state (frozen) for refill precompute.
    pub ext_think: *const ExpBlock,
    /// The live think stream's current state (frozen while the window is
    /// open); the refill snapshots it so installation self-validates.
    pub think_rng: *const Xoshiro256StarStar,
    /// Chunk 0's lane deposits the precomputed refill here; merge takes it
    /// after quiescence.
    pub refill: *const UnsafeCell<Option<ExpRefill>>,
}

// The view is published through an `AtomicPtr` and dereferenced on worker
// threads; everything it points at must be free of interior mutability
// (shared `&` access from several threads at once). Enforce that at
// compile time so a future `Cell` in any of these types fails loudly.
#[allow(dead_code)]
fn assert_spec_view_targets_are_sync() {
    fn is_sync<T: Sync>() {}
    is_sync::<TxnArena>();
    is_sync::<LockManager>();
    is_sync::<Option<ServerPool<Payload>>>();
    is_sync::<Option<DiskArray<Payload>>>();
    is_sync::<ExpBlock>();
    is_sync::<Xoshiro256StarStar>();
    is_sync::<(SimTime, Event)>();
    is_sync::<AtomicU64>();
}

/// Cross-thread window coordination (see module docs for the protocol).
pub(crate) struct WindowShared {
    /// The open window's [`SpecView`] (merge-thread stack memory; only
    /// dereferenced while registered in an odd generation).
    pub view: AtomicPtr<SpecView>,
    /// Window generation: odd = open, even = closed/idle.
    pub generation: AtomicU64,
    /// Monotone chunk-ticket counter (never reset; re-based per window).
    pub claim: AtomicU64,
    /// `claim`'s value at publish time: ticket − base = chunk index.
    pub base: AtomicU64,
    /// Chunks in the open window.
    pub nchunks: AtomicU64,
    /// Lanes currently registered inside the window.
    pub outstanding: AtomicUsize,
    /// Run over: worker lanes exit their spin loops.
    pub stop: AtomicBool,
    /// A lane panicked inside this run.
    pub poisoned: AtomicBool,
    /// Per-lane busy nanoseconds (lane 0 = merge thread's speculation help).
    pub busy_ns: [AtomicU64; MAX_LANES],
    /// Set when a budget or shared-pool ceiling trips: lanes stop burning
    /// cycles speculating windows that will never be applied.
    pub budget_near: AtomicBool,
}

impl WindowShared {
    pub fn new() -> Self {
        WindowShared {
            view: AtomicPtr::new(std::ptr::null_mut()),
            generation: AtomicU64::new(0),
            claim: AtomicU64::new(0),
            base: AtomicU64::new(0),
            nchunks: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            busy_ns: Default::default(),
            budget_near: AtomicBool::new(false),
        }
    }

    /// Open a window (merge thread only): publish the view and hand out
    /// `nchunks` fresh tickets. The generation bump is the `Release` fence
    /// workers acquire everything else through.
    pub fn publish(&self, view: *mut SpecView, nchunks: usize) {
        self.base
            .store(self.claim.load(Ordering::Relaxed), Ordering::Relaxed);
        self.nchunks.store(nchunks as u64, Ordering::Relaxed);
        self.view.store(view, Ordering::Relaxed);
        let g = self.generation.fetch_add(1, Ordering::Release);
        debug_assert_eq!(g % 2, 0, "publish on an open window");
    }

    /// Close the window: no lane that has not yet registered may enter.
    pub fn close(&self) {
        let g = self.generation.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(g % 2, 1, "close on an idle window");
    }

    /// Wait for every registered lane to leave the (closed) window. After
    /// this returns the merge thread may mutate engine state again.
    pub fn quiesce(&self) {
        let mut spins = 0u32;
        while self.outstanding.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Claim and speculate chunk tickets of the currently open window until
/// they run out. Callers must be inside the window: the merge thread
/// between `publish` and `close`, or a worker lane registered in
/// `outstanding`.
pub(crate) fn run_chunks(shared: &WindowShared, lane: usize) {
    let view = shared.view.load(Ordering::Acquire);
    let nchunks = shared.nchunks.load(Ordering::Relaxed);
    let base = shared.base.load(Ordering::Relaxed);
    let t0 = std::time::Instant::now();
    loop {
        if shared.budget_near.load(Ordering::Relaxed) {
            break;
        }
        let ticket = shared.claim.fetch_add(1, Ordering::Relaxed);
        let Some(idx) = ticket.checked_sub(base) else {
            break;
        };
        if idx >= nchunks {
            break;
        }
        // SAFETY: a ticket inside [base, base + nchunks) proves the window
        // is the one this lane entered (tickets are monotone across
        // windows and a new window cannot be published before quiescence),
        // so `view` points at the merge thread's live per-window stack
        // slot for at least as long as this lane stays registered.
        unsafe { speculate_chunk(&*view, idx as usize) };
    }
    if lane < MAX_LANES {
        shared.busy_ns[lane].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A worker lane: spin (then yield) for window publications, register,
/// speculate chunks, deregister. `chaos` injects exactly one panic on the
/// first window this lane joins — the chaos-engineering probe for the
/// poisoned-window path (`CCSIM_CHAOS`).
pub(crate) fn worker_loop(shared: &WindowShared, lane: usize, chaos: bool) {
    if chaos {
        // Fire at lane startup, not on first window join: a lane may
        // never win a registration race on a loaded (or single-core)
        // host, and the probe must be deterministic for CI.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            panic!("chaos: injected worker-lane panic (CCSIM_CHAOS)");
        }));
        if r.is_err() {
            shared.poisoned.store(true, Ordering::SeqCst);
        }
    }
    let mut last_done: u64 = 0;
    let mut spins: u32 = 0;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let g = shared.generation.load(Ordering::Acquire);
        if g.is_multiple_of(2) || g == last_done {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        spins = 0;
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        if shared.generation.load(Ordering::SeqCst) != g {
            // The window closed between the load and the registration;
            // leave so `quiesce` cannot miss us.
            shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_chunks(shared, lane);
        }));
        if r.is_err() {
            shared.poisoned.store(true, Ordering::SeqCst);
        }
        last_done = g;
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Speculate one chunk of planned events: resolve each event's target
/// transaction, epoch-check it against the (frozen) arena, predict its
/// next concurrency-control object from the program counter, prefetch the
/// lock-table home line, and store a hint word. Strictly read-only apart
/// from the hint array and (chunk 0 only) the refill cell.
///
/// # Safety
/// `view` and everything it points at must be alive and frozen: callers
/// go through [`run_chunks`], whose window protocol guarantees it.
unsafe fn speculate_chunk(view: &SpecView, chunk: usize) {
    let planned = std::slice::from_raw_parts(view.planned, view.n);
    let hints = std::slice::from_raw_parts(view.hints, view.n);
    let lo = chunk * CHUNK;
    let hi = (lo + CHUNK).min(view.n);
    let arena = &*view.arena;
    let lockmgr = &*view.lockmgr;
    let cpus = (*view.cpus).as_ref();
    let disks = (*view.disks).as_ref();
    let uses_locks = view.algorithm.uses_locks();
    // Home slots seen so far in this chunk (for the conflict predicate).
    let mut homes = [usize::MAX; CHUNK];
    for i in lo..hi {
        let (_, ev) = planned[i];
        // Resolve the event's target `(terminal, epoch)`. Pooled
        // completions carry no payload in the event itself; peek the
        // server's in-service slot instead (a snapshot — an earlier event
        // in the window may retire it, which the epoch check at merge
        // time catches).
        let target: Option<Payload> = match ev {
            Event::Arrive(_) | Event::BatchEnd => None,
            Event::CpuDone(server) => cpus.and_then(|p| p.in_service(server)).copied(),
            Event::DiskDone(disk) => disks.and_then(|d| d.in_service(disk)).copied(),
            Event::CpuDoneFast { term, epoch, .. } => Some((term as usize, epoch)),
            Event::DiskDoneFast { term, epoch, .. } => Some((term as usize, epoch)),
            Event::InfDone(term, epoch, _) => Some((term, epoch)),
            Event::Delay(term, epoch, _) => Some((term, epoch)),
        };
        let Some((term, epoch)) = target else {
            continue;
        };
        let fresh = arena.get(term).is_some_and(|t| t.epoch == epoch);
        if !fresh {
            hints[i].store(encode_hint(HINT_STALE, term, epoch), Ordering::Relaxed);
            continue;
        }
        let txn = arena.get(term).expect("fresh target is live");
        let obj = if uses_locks {
            match txn.step() {
                Step::PreclaimLock(k) => Some(arena.lock_plan_at(term, k).0),
                Step::LockRead(r) => Some(arena.read_at(term, r)),
                Step::LockWrite(w) => Some(arena.write_obj_at(term, w)),
                _ => None,
            }
        } else {
            None
        };
        match obj {
            Some(obj) => {
                lockmgr.prefetch(obj);
                let home = lockmgr.home_slot(obj);
                let slot = i - lo;
                let dup = homes[..slot].contains(&home);
                homes[slot] = home;
                let kind = if dup { HINT_CONFLICT } else { HINT_LOCKSTEP };
                hints[i].store(encode_hint(kind, term, epoch), Ordering::Relaxed);
            }
            None => {
                hints[i].store(encode_hint(HINT_CHECKED, term, epoch), Ordering::Relaxed);
            }
        }
    }
    if chunk == 0 {
        // Precompute the next external-think refill off the critical path.
        // Exactly one lane holds ticket 0, so the cell write is exclusive;
        // merge takes it only after quiescence.
        let ext = &*view.ext_think;
        if !ext.mean().is_zero() {
            let refill = ext.precompute_refill(&*view.think_rng);
            *(*view.refill).get() = Some(refill);
        }
    }
}

/// Window-parallel run counters, reported through
/// [`crate::PerfStats::parallel`]. All-integer so perf snapshots stay
/// `Eq`; derive busy *fractions* by dividing by [`loop_wall_us`].
///
/// [`loop_wall_us`]: ParallelStats::loop_wall_us
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelStats {
    /// Configured worker count (`SimConfig::workers`).
    pub workers: u32,
    /// Windows popped and merged.
    pub windows: u64,
    /// Events planned into windows (every merged event except overlay
    /// replays).
    pub planned: u64,
    /// Planned events a lane speculated a resolvable hint for.
    pub speculated: u64,
    /// Speculated hints still valid at merge time (the prefetch paid off).
    pub applied: u64,
    /// Speculated hints invalidated by an earlier event in the window
    /// (epoch moved on); their work was discarded.
    pub rolled_back: u64,
    /// Events applied through the serial replay path (every rolled-back or
    /// conflict-demoted event; replay *is* the normal handler, which is
    /// why the merged trajectory is exact).
    pub replayed: u64,
    /// Hints demoted by the same-home-slot conflict predicate.
    pub conflicts: u64,
    /// Speculative external-think refills actually installed.
    pub refills_installed: u64,
    /// Mid-merge events that landed inside the open window and were
    /// delivered through the overlay heap.
    pub overlay_events: u64,
    /// Per-lane busy microseconds (lane 0 = merge thread's speculation
    /// help; lanes beyond [`MAX_LANES`] fold into nothing).
    pub worker_busy_us: [u64; MAX_LANES],
    /// Wall microseconds of the whole event loop (busy-fraction
    /// denominator).
    pub loop_wall_us: u64,
}

impl ParallelStats {
    /// Fraction of loop wall time `lane` spent speculating.
    #[must_use]
    pub fn busy_fraction(&self, lane: usize) -> f64 {
        if self.loop_wall_us == 0 || lane >= MAX_LANES {
            return 0.0;
        }
        self.worker_busy_us[lane] as f64 / self.loop_wall_us as f64
    }

    /// Rolled-back (plus conflict-demoted) share of planned events.
    #[must_use]
    pub fn rollback_ratio(&self) -> f64 {
        if self.planned == 0 {
            return 0.0;
        }
        (self.rolled_back + self.conflicts) as f64 / self.planned as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_words_round_trip() {
        for (kind, term, epoch) in [
            (HINT_NONE, 0usize, 0u32),
            (HINT_STALE, 999_983, 7),
            (HINT_CHECKED, (1 << 29) - 1, u32::MAX),
            (HINT_LOCKSTEP, 123_456, 42),
            (HINT_CONFLICT, 1, 1),
        ] {
            let (k, t, e) = decode_hint(encode_hint(kind, term, epoch));
            assert_eq!((k, t, e), (kind, term, epoch));
        }
    }

    #[test]
    fn ticket_protocol_discards_stale_tickets() {
        let shared = WindowShared::new();
        // Simulate leftover tickets from a previous window.
        shared.claim.store(70, Ordering::Relaxed);
        shared.base.store(64, Ordering::Relaxed);
        shared.nchunks.store(4, Ordering::Relaxed);
        // A fresh window re-bases: tickets below the new base must never
        // decode into a chunk index.
        shared
            .base
            .store(shared.claim.load(Ordering::Relaxed), Ordering::Relaxed);
        let base = shared.base.load(Ordering::Relaxed);
        let stale_ticket = 65u64; // from the old window
        assert!(stale_ticket.checked_sub(base).is_none());
    }

    #[test]
    fn rollback_ratio_and_busy_fraction_handle_zero() {
        let s = ParallelStats::default();
        assert_eq!(s.rollback_ratio(), 0.0);
        assert_eq!(s.busy_fraction(0), 0.0);
        let mut s = s;
        s.planned = 100;
        s.rolled_back = 5;
        s.conflicts = 5;
        s.loop_wall_us = 1_000;
        s.worker_busy_us[1] = 250;
        assert!((s.rollback_ratio() - 0.10).abs() < 1e-12);
        assert!((s.busy_fraction(1) - 0.25).abs() < 1e-12);
        assert_eq!(s.busy_fraction(MAX_LANES), 0.0);
    }
}
