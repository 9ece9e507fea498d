//! Arena/SoA storage for per-terminal transaction state.
//!
//! The engine keeps one transaction record per terminal. With `num_terms`
//! up to 10^6 (the `exp-scale` regime), the old layout — a `Vec<Option<Txn>>`
//! where every `Txn` owned five small heap vectors (readset, write flags,
//! write objects, static lock plan, read times) — fragmented the heap into
//! millions of tiny allocations. This arena replaces it:
//!
//! * [`TxnRec`] is the fixed-width per-terminal record (program counter,
//!   lifecycle state, timestamps, usage counters), stored in one flat
//!   `Vec<TxnRec>`.
//! * The variable-length per-transaction data lives in shared flat arrays
//!   of `num_terms × cap` elements, where `cap` is the largest readset any
//!   workload class can draw; terminal `t` owns the slice
//!   `[t*cap, (t+1)*cap)`. The static-locking plan and the history-only
//!   read-times arrays are allocated lazily on first use, so runs that
//!   need neither pay nothing.
//!
//! Installing a new transaction copies its [`TxnSpec`] into the terminal's
//! region; the spec's own buffers are recycled by the engine through the
//! generator exactly as before, so the RNG draw sequence — and therefore
//! every golden trace — is untouched by the layout change.
//!
//! Stepping through a program is the single hottest operation in the
//! engine, and the arithmetic [`Program::step_at`] decode it used to do
//! per advance is a div/mod chain with data-dependent branches. The arena
//! therefore keeps a [`ProgramTable`]: every *distinct* program (keyed by
//! shape, think flag, read count, write count — a few dozen per run) is
//! decoded once into a shared flat `Vec<Step>`, each record stores its
//! program's offset, and [`TxnArena::advance`] is a single indexed load.
//! The table is a pure cache of `step_at`'s output, so the step sequence —
//! and every simulation output — is byte-identical to the decoded path
//! (debug builds assert the equivalence on every advance).

use ccsim_des::SimTime;
use ccsim_workload::{ObjId, TxnId, TxnSpec};

use crate::txn::{AttemptUsage, Program, ProgramShape, Step, TxnState};

/// Fixed-width runtime record of one terminal's current transaction.
///
/// Field semantics are identical to the pre-arena `Txn` struct; the
/// variable-length data (readset, write objects, lock plan, read times)
/// lives in the owning [`TxnArena`]'s shared arrays instead.
#[derive(Debug, Clone)]
pub struct TxnRec {
    /// Globally unique id (preserved across restarts of the transaction).
    pub id: TxnId,
    /// The access program shape (kept across restarts — paper footnote 1).
    pub program: Program,
    /// Program counter into [`Program::step_at`].
    pub pc: usize,
    /// The decoded step at `pc`, kept in sync by `advance`/`begin_attempt`.
    cur: Step,
    /// Lifecycle state.
    pub state: TxnState,
    /// When this transaction first entered the ready queue.
    pub arrival: SimTime,
    /// When the current attempt was admitted (the optimistic start time).
    pub attempt_start: SimTime,
    /// Attempt epoch, bumped on every restart; stale events are dropped by
    /// comparing epochs.
    pub epoch: u32,
    /// Resource usage of the current attempt.
    pub usage: AttemptUsage,
    /// Times this transaction blocked (across all attempts).
    pub blocks: u32,
    /// Times this transaction restarted.
    pub restarts: u32,
    /// True while a concurrency-control CPU charge is in flight.
    pub cc_charged: bool,
    /// When this attempt's writes were (will be) published.
    pub publish_at: Option<SimTime>,
    /// Workload class index (0 = the primary Table-1 class).
    pub class: usize,
    /// Offset of this record's decoded program in the arena's
    /// [`ProgramTable`] (`TxnArena::advance` reads `steps[prog_base + pc]`).
    prog_base: u32,
    /// Readset length (valid prefix of the terminal's `reads` region).
    n_reads: u32,
    /// Write-set length (valid prefix of the `write_objs` region).
    n_writes: u32,
    /// Read-times length (valid prefix of the `read_times` region).
    n_read_times: u32,
    /// False until the terminal's first arrival installs a transaction.
    live: bool,
}

impl TxnRec {
    /// The step the transaction is currently at.
    #[must_use]
    pub fn step(&self) -> Step {
        self.cur
    }

    /// Advance to the next step.
    pub fn advance(&mut self) {
        self.pc += 1;
        self.cur = self.program.step_at(self.pc);
        self.cc_charged = false;
    }

    /// Rewind for a fresh attempt after a restart.
    pub fn begin_attempt(&mut self, now: SimTime) {
        self.pc = 0;
        self.cur = self.program.step_at(0);
        self.cc_charged = false;
        self.attempt_start = now;
        self.usage.reset();
        self.n_read_times = 0;
        self.publish_at = None;
    }

    /// Bump the epoch (called at restart so stale events are ignored).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    fn vacant() -> Self {
        TxnRec {
            id: TxnId(0),
            program: Program::new(ProgramShape::LockFree, false, 1, 0),
            pc: 0,
            cur: Step::ReadIo(0),
            state: TxnState::AtTerminal,
            arrival: SimTime::ZERO,
            attempt_start: SimTime::ZERO,
            epoch: 0,
            usage: AttemptUsage::default(),
            blocks: 0,
            restarts: 0,
            cc_charged: false,
            publish_at: None,
            class: 0,
            prog_base: 0,
            n_reads: 0,
            n_writes: 0,
            n_read_times: 0,
            live: false,
        }
    }
}

/// Cache of decoded step programs shared by every terminal (see the module
/// docs). Within one run the shape/think key is constant, so the index is
/// a dense `(reads, writes)` grid; a key change (tests only) resets it.
#[derive(Debug, Default)]
struct ProgramTable {
    /// Shape/think flag the cached entries were decoded under.
    key: Option<(ProgramShape, bool)>,
    /// `(reads, writes) → offset into steps`; `ABSENT` = not yet decoded.
    index: Vec<u32>,
    /// Index row width (`cap + 1`: reads and writes both range `0..=cap`).
    stride: usize,
    /// Every distinct decoded program, concatenated.
    steps: Vec<Step>,
}

impl ProgramTable {
    const ABSENT: u32 = u32::MAX;

    /// The offset of `program`'s decoded steps, decoding it on first sight.
    fn ensure(&mut self, shape: ProgramShape, thinks: bool, cap: usize, program: Program) -> u32 {
        let stride = cap + 1;
        if self.key != Some((shape, thinks)) || self.stride != stride {
            self.key = Some((shape, thinks));
            self.stride = stride;
            self.index.clear();
            self.index.resize(stride * stride, Self::ABSENT);
            self.steps.clear();
        }
        let slot = program.num_reads() * stride + program.num_writes();
        let mut base = self.index[slot];
        if base == Self::ABSENT {
            base = u32::try_from(self.steps.len()).expect("program table overflow");
            self.steps
                .extend((0..program.len()).map(|pc| program.step_at(pc)));
            self.index[slot] = base;
        }
        base
    }
}

/// The arena: per-terminal records plus shared flat data regions.
#[derive(Debug)]
pub struct TxnArena {
    /// Per-terminal region width: the largest readset any class can draw.
    cap: usize,
    recs: Vec<TxnRec>,
    /// Readsets, in access order: terminal `t` owns `[t*cap, (t+1)*cap)`.
    reads: Vec<ObjId>,
    /// Written objects, in write (= read) order; same regioning.
    write_objs: Vec<ObjId>,
    /// Static-locking preclaim plans `(object, write?)` in ascending object
    /// order. Empty unless some transaction runs `Static2pl`.
    lock_plan: Vec<(ObjId, bool)>,
    /// Read-completion times (history recording only). Empty until first use.
    read_times: Vec<SimTime>,
    /// Observed validity bounds (`rts` at read time), parallel to
    /// `read_times`. TicToc only; empty until first use.
    read_auxes: Vec<SimTime>,
    /// Decoded-program cache backing [`TxnArena::advance`].
    programs: ProgramTable,
}

impl TxnArena {
    /// An arena for `num_terms` terminals whose transactions read at most
    /// `cap` objects.
    #[must_use]
    pub fn new(num_terms: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        TxnArena {
            cap,
            recs: vec![TxnRec::vacant(); num_terms],
            reads: vec![ObjId(0); num_terms * cap],
            write_objs: vec![ObjId(0); num_terms * cap],
            lock_plan: Vec::new(),
            read_times: Vec::new(),
            read_auxes: Vec::new(),
            programs: ProgramTable::default(),
        }
    }

    /// Advance `term`'s transaction to its next step. Hot-path equivalent
    /// of [`TxnRec::advance`]: the step comes from the decoded-program
    /// table as one indexed load instead of the arithmetic decode.
    #[inline]
    pub fn advance(&mut self, term: usize) {
        let rec = &mut self.recs[term];
        rec.pc += 1;
        rec.cur = self.programs.steps[rec.prog_base as usize + rec.pc];
        rec.cc_charged = false;
        debug_assert_eq!(
            rec.cur,
            rec.program.step_at(rec.pc),
            "program table diverged from step_at"
        );
    }

    /// Number of terminals.
    #[must_use]
    pub fn num_terms(&self) -> usize {
        self.recs.len()
    }

    /// The record of terminal `term`'s current transaction, if one has ever
    /// been installed.
    #[inline]
    #[must_use]
    pub fn get(&self, term: usize) -> Option<&TxnRec> {
        let r = &self.recs[term];
        r.live.then_some(r)
    }

    /// Mutable form of [`TxnArena::get`].
    #[inline]
    pub fn get_mut(&mut self, term: usize) -> Option<&mut TxnRec> {
        let r = &mut self.recs[term];
        r.live.then_some(r)
    }

    /// Iterate over the live records (debug census).
    pub fn live(&self) -> impl Iterator<Item = &TxnRec> {
        self.recs.iter().filter(|r| r.live)
    }

    /// Install a fresh transaction at `term`, copying `spec` into the
    /// terminal's data region. Semantically identical to the old
    /// `Txn::new_reusing` plus class assignment.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &mut self,
        term: usize,
        id: TxnId,
        spec: &TxnSpec,
        shape: ProgramShape,
        thinks: bool,
        arrival: SimTime,
        epoch: u32,
        class: usize,
    ) {
        let n = spec.num_reads();
        assert!(
            n <= self.cap,
            "readset of {n} exceeds arena region capacity {}",
            self.cap
        );
        let base = term * self.cap;
        self.reads[base..base + n].copy_from_slice(spec.reads());
        let mut w = 0usize;
        for (i, &obj) in spec.reads().iter().enumerate() {
            if spec.writes_at(i) {
                self.write_objs[base + w] = obj;
                w += 1;
            }
        }
        if shape == ProgramShape::Static2pl {
            if self.lock_plan.is_empty() {
                self.lock_plan = vec![(ObjId(0), false); self.recs.len() * self.cap];
            }
            let plan = &mut self.lock_plan[base..base + n];
            for (i, slot) in plan.iter_mut().enumerate() {
                *slot = (spec.read_at(i), spec.writes_at(i));
            }
            plan.sort_unstable_by_key(|&(obj, _)| obj);
        }
        let program = Program::new(shape, thinks, spec.num_reads(), spec.num_writes());
        let prog_base = self.programs.ensure(shape, thinks, self.cap, program);
        self.recs[term] = TxnRec {
            id,
            program,
            pc: 0,
            cur: program.step_at(0),
            state: TxnState::Ready,
            arrival,
            attempt_start: arrival,
            epoch,
            usage: AttemptUsage::default(),
            blocks: 0,
            restarts: 0,
            cc_charged: false,
            publish_at: None,
            class,
            prog_base,
            n_reads: n as u32,
            n_writes: w as u32,
            n_read_times: 0,
            live: true,
        };
    }

    /// The readset of `term`'s transaction, in access order.
    #[inline]
    #[must_use]
    pub fn reads(&self, term: usize) -> &[ObjId] {
        let base = term * self.cap;
        &self.reads[base..base + self.recs[term].n_reads as usize]
    }

    /// The `i`-th object read by `term`'s transaction.
    #[inline]
    #[must_use]
    pub fn read_at(&self, term: usize, i: usize) -> ObjId {
        debug_assert!(i < self.recs[term].n_reads as usize);
        self.reads[term * self.cap + i]
    }

    /// The objects written by `term`'s transaction, in write order.
    #[inline]
    #[must_use]
    pub fn write_objs(&self, term: usize) -> &[ObjId] {
        let base = term * self.cap;
        &self.write_objs[base..base + self.recs[term].n_writes as usize]
    }

    /// The `j`-th object written by `term`'s transaction.
    #[inline]
    #[must_use]
    pub fn write_obj_at(&self, term: usize, j: usize) -> ObjId {
        debug_assert!(j < self.recs[term].n_writes as usize);
        self.write_objs[term * self.cap + j]
    }

    /// The `k`-th entry of `term`'s static preclaim plan.
    #[inline]
    #[must_use]
    pub fn lock_plan_at(&self, term: usize, k: usize) -> (ObjId, bool) {
        debug_assert!(k < self.recs[term].n_reads as usize);
        self.lock_plan[term * self.cap + k]
    }

    /// Record the completion time of `term`'s next read (history recording).
    pub fn push_read_time(&mut self, term: usize, now: SimTime) {
        if self.read_times.is_empty() {
            self.read_times = vec![SimTime::ZERO; self.recs.len() * self.cap];
        }
        let rec = &mut self.recs[term];
        let at = term * self.cap + rec.n_read_times as usize;
        debug_assert!(rec.n_read_times < rec.n_reads);
        self.read_times[at] = now;
        rec.n_read_times += 1;
    }

    /// Record a TicToc read observation for `term`'s next read: the
    /// version's write timestamp (which doubles as the history read
    /// instant in `read_times`) plus the validity bound (`rts`) the word
    /// carried at access time, kept in lockstep in a second lazily
    /// allocated region.
    pub fn push_read_obs(&mut self, term: usize, wts: SimTime, rts: SimTime) {
        if self.read_auxes.is_empty() {
            self.read_auxes = vec![SimTime::ZERO; self.recs.len() * self.cap];
        }
        let at = term * self.cap + self.recs[term].n_read_times as usize;
        self.read_auxes[at] = rts;
        self.push_read_time(term, wts);
    }

    /// Read-completion times recorded for `term`'s current attempt.
    #[must_use]
    pub fn read_times(&self, term: usize) -> &[SimTime] {
        let n = self.recs[term].n_read_times as usize;
        if n == 0 {
            return &[];
        }
        let base = term * self.cap;
        &self.read_times[base..base + n]
    }

    /// Observed `rts` bounds recorded via [`TxnArena::push_read_obs`] for
    /// `term`'s current attempt, parallel to [`TxnArena::read_times`].
    #[must_use]
    pub fn read_auxes(&self, term: usize) -> &[SimTime] {
        let n = self.recs[term].n_read_times as usize;
        if n == 0 {
            return &[];
        }
        let base = term * self.cap;
        &self.read_auxes[base..base + n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(reads: usize, write_ixs: &[usize]) -> TxnSpec {
        let objs: Vec<ObjId> = (0..reads as u64).map(|v| ObjId(v * 10)).collect();
        let writes: Vec<bool> = (0..reads).map(|i| write_ixs.contains(&i)).collect();
        TxnSpec::new(objs, writes)
    }

    #[test]
    fn install_copies_spec_into_region() {
        let mut a = TxnArena::new(4, 8);
        assert!(a.get(2).is_none());
        let s = spec(3, &[1]);
        a.install(
            2,
            TxnId(7),
            &s,
            ProgramShape::Dynamic2pl,
            false,
            SimTime::from_secs(1),
            0,
            0,
        );
        let rec = a.get(2).expect("installed");
        assert_eq!(rec.id, TxnId(7));
        assert_eq!(rec.state, TxnState::Ready);
        assert_eq!(rec.step(), Step::LockRead(0));
        assert_eq!(a.reads(2), s.reads());
        assert_eq!(a.write_objs(2), &[ObjId(10)]);
        assert_eq!(a.read_at(2, 1), ObjId(10));
        assert_eq!(a.write_obj_at(2, 0), ObjId(10));
        // Other terminals untouched.
        assert!(a.get(0).is_none() && a.get(3).is_none());
    }

    #[test]
    fn static_plan_is_sorted_by_object() {
        let mut a = TxnArena::new(2, 4);
        let s = TxnSpec::new(
            vec![ObjId(30), ObjId(10), ObjId(20)],
            vec![true, false, true],
        );
        a.install(
            1,
            TxnId(1),
            &s,
            ProgramShape::Static2pl,
            false,
            SimTime::ZERO,
            0,
            0,
        );
        assert_eq!(a.lock_plan_at(1, 0), (ObjId(10), false));
        assert_eq!(a.lock_plan_at(1, 1), (ObjId(20), true));
        assert_eq!(a.lock_plan_at(1, 2), (ObjId(30), true));
    }

    #[test]
    fn lifecycle_matches_old_txn_semantics() {
        let mut a = TxnArena::new(1, 4);
        let s = spec(2, &[1]);
        a.install(
            0,
            TxnId(7),
            &s,
            ProgramShape::Dynamic2pl,
            false,
            SimTime::from_secs(1),
            0,
            0,
        );
        a.push_read_time(0, SimTime::from_secs(2));
        assert_eq!(a.read_times(0), &[SimTime::from_secs(2)]);
        let rec = a.get_mut(0).unwrap();
        rec.advance();
        assert_eq!(rec.step(), Step::ReadIo(0));
        rec.usage.add_cpu(ccsim_des::SimDuration::from_millis(15));
        rec.bump_epoch();
        rec.begin_attempt(SimTime::from_secs(5));
        assert_eq!(rec.pc, 0);
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.usage, AttemptUsage::default());
        assert_eq!(rec.attempt_start, SimTime::from_secs(5));
        assert_eq!(
            rec.arrival,
            SimTime::from_secs(1),
            "arrival survives restart"
        );
        assert_eq!(a.read_times(0), &[], "read times reset with the attempt");
    }

    #[test]
    fn reinstall_overwrites_without_leaking_lengths() {
        let mut a = TxnArena::new(1, 8);
        a.install(
            0,
            TxnId(1),
            &spec(6, &[0, 1, 2]),
            ProgramShape::LockFree,
            false,
            SimTime::ZERO,
            0,
            0,
        );
        assert_eq!(a.reads(0).len(), 6);
        assert_eq!(a.write_objs(0).len(), 3);
        a.install(
            0,
            TxnId(2),
            &spec(2, &[]),
            ProgramShape::LockFree,
            false,
            SimTime::ZERO,
            1,
            0,
        );
        assert_eq!(a.reads(0).len(), 2);
        assert_eq!(a.write_objs(0).len(), 0);
        assert_eq!(a.get(0).unwrap().epoch, 1);
    }

    #[test]
    fn program_table_matches_step_at_for_every_shape() {
        // Walk an installed transaction to Commit with the table-backed
        // `TxnArena::advance` and check every decoded step against the
        // arithmetic reference, across shapes, think flags, and sizes
        // (including reinstalls that hit and miss the table cache).
        for shape in [
            ProgramShape::Dynamic2pl,
            ProgramShape::Static2pl,
            ProgramShape::LockFree,
        ] {
            for thinks in [false, true] {
                let mut a = TxnArena::new(1, 6);
                for reads in 1..=6usize {
                    for nw in 0..=reads {
                        let wr: Vec<usize> = (0..nw).collect();
                        a.install(
                            0,
                            TxnId(1),
                            &spec(reads, &wr),
                            shape,
                            thinks,
                            SimTime::ZERO,
                            0,
                            0,
                        );
                        let program = a.get(0).unwrap().program;
                        assert_eq!(a.get(0).unwrap().step(), program.step_at(0));
                        for pc in 1..program.len() {
                            a.advance(0);
                            let rec = a.get(0).unwrap();
                            assert_eq!(rec.pc, pc);
                            assert_eq!(
                                rec.step(),
                                program.step_at(pc),
                                "{shape:?} {thinks} {reads} {nw} pc={pc}"
                            );
                        }
                        assert_eq!(a.get(0).unwrap().step(), Step::Commit);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds arena region capacity")]
    fn oversized_readset_panics() {
        let mut a = TxnArena::new(1, 2);
        a.install(
            0,
            TxnId(1),
            &spec(3, &[]),
            ProgramShape::LockFree,
            false,
            SimTime::ZERO,
            0,
            0,
        );
    }
}
