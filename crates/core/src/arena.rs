//! Arena/SoA storage for per-terminal transaction state.
//!
//! The engine keeps one transaction record per terminal. With `num_terms`
//! up to 10^6 (the `exp-scale` regime) the storage stores each fact once,
//! in a few flat arrays rather than millions of small allocations:
//!
//! * [`TxnRec`] is the fixed-width (80-byte) per-terminal record: program
//!   counter, lifecycle state, timestamps, usage counters and the lengths
//!   of the terminal's regions, stored in one flat `Vec<TxnRec>`. The
//!   program shape and think flag are per-run constants held once by the
//!   arena, and the read and write counts are the record's own region
//!   lengths, so the record carries no copy of its program.
//! * The readsets live in one shared flat array of `num_terms × cap`
//!   objects, where `cap` is the largest readset any workload class can
//!   draw; terminal `t` owns the slice `[t*cap, (t+1)*cap)`. Each object
//!   is stored as a 4-byte id ([`ObjId::narrow`], a checked conversion:
//!   `Params::validate` bounds `db_size` by 2^32 − 1, so every id fits),
//!   and the accessors widen them back to [`ObjId`], so no caller sees the
//!   narrow form. The write set is a subset of the readset, so it is a
//!   per-terminal bitmask over the readset, `ceil(cap / 64)` words wide,
//!   rather than a second copy of the objects: bit `i` is set when the
//!   `i`-th read is also written, and the written objects in write order
//!   are the set bits in read order. The static-locking plan (4-byte ids
//!   too) and the history-only read-times arrays are allocated lazily on
//!   first use, so runs that need neither pay nothing.
//!
//! Installing a new transaction copies its [`TxnSpec`] into the terminal's
//! region; the spec's own buffers are recycled by the engine through the
//! generator exactly as before, so the RNG draw sequence — and therefore
//! every golden trace — is untouched by the layout.
//!
//! Stepping through a program is the single hottest operation in the
//! engine, and the arithmetic [`Program::step_at`] decode is a div/mod
//! chain with data-dependent branches. The arena therefore keeps a
//! [`ProgramTable`]: every *distinct* program (keyed by read count and
//! write count — a few dozen per run) is decoded once into a shared flat
//! `Vec<Step>`, each record stores its program's offset, and the current
//! step is a single indexed load ([`TxnArena::step`]). The table is a pure
//! cache of `step_at`'s output, so the step sequence — and every
//! simulation output — is byte-identical to the decoded path (debug builds
//! assert the equivalence on every advance).
//!
//! Beside each decoded step the table keeps the [`ServiceRun`] that starts
//! there: the maximal run of consecutive service steps (`ReadIo`,
//! `ReadCpu`, `WriteCpu`, `UpdateIo`) and its I/O and CPU step counts.
//! Under infinite resources no service ever waits, so the engine retires a
//! whole run with one calendar event; the table lets it size the run at
//! submission and apply it at completion without scanning the program. A
//! run stops at the first lock, `Validate`, `IntThink` or `Commit` step,
//! and, in an arena built with `read_ends_run` (TicToc, whose read
//! observes the object's current word when it completes), after every
//! `ReadCpu`.

use ccsim_des::SimTime;
use ccsim_workload::{ObjId, TxnId, TxnSpec};

use crate::txn::{AttemptUsage, Program, ProgramShape, Step, TxnState};

/// `publish_at` of an attempt that has not published its writes. A
/// validated run's clock stays far below it (see `Params::MAX_DURATION`).
const UNPUBLISHED: SimTime = SimTime(u64::MAX);

/// Fixed-width runtime record of one terminal's current transaction.
///
/// The variable-length data (readset, write mask, lock plan, read times)
/// lives in the owning [`TxnArena`]'s shared arrays.
#[derive(Debug, Clone)]
pub(crate) struct TxnRec {
    /// Globally unique id (preserved across restarts of the transaction).
    pub id: TxnId,
    /// When this transaction first entered the ready queue.
    pub arrival: SimTime,
    /// When the current attempt was admitted (the optimistic start time).
    pub attempt_start: SimTime,
    /// Resource usage of the current attempt.
    pub usage: AttemptUsage,
    /// When this attempt's writes were (will be) published, or
    /// [`UNPUBLISHED`].
    publish_at: SimTime,
    /// Program counter into the record's decoded program.
    pub pc: u32,
    /// Attempt epoch, bumped on every restart; stale events are dropped by
    /// comparing epochs.
    pub epoch: u32,
    /// Offset of this record's decoded program in the arena's
    /// [`ProgramTable`] (the current step is `steps[prog_base + pc]`).
    prog_base: u32,
    /// Readset length (valid prefix of the terminal's `reads` region).
    n_reads: u32,
    /// Write-set length (set bits of the terminal's write mask).
    n_writes: u32,
    /// Read-times length (valid prefix of the `read_times` region).
    n_read_times: u32,
    /// Workload class index (0 = the primary Table-1 class).
    pub class: u32,
    /// Lifecycle state.
    pub state: TxnState,
    /// False until the terminal's first arrival installs a transaction.
    live: bool,
}

impl TxnRec {
    /// Rewind for a fresh attempt after a restart.
    pub fn begin_attempt(&mut self, now: SimTime) {
        self.pc = 0;
        self.attempt_start = now;
        self.usage.reset();
        self.n_read_times = 0;
        self.publish_at = UNPUBLISHED;
    }

    /// Bump the epoch (called at restart so stale events are ignored).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Record that this attempt's writes are published at `at`.
    pub fn publish(&mut self, at: SimTime) {
        debug_assert!(at < UNPUBLISHED);
        self.publish_at = at;
    }

    /// When this attempt's writes were published, if they were.
    #[must_use]
    pub fn published_at(&self) -> Option<SimTime> {
        (self.publish_at != UNPUBLISHED).then_some(self.publish_at)
    }

    const VACANT: TxnRec = TxnRec {
        id: TxnId(0),
        arrival: SimTime::ZERO,
        attempt_start: SimTime::ZERO,
        usage: AttemptUsage {
            cpu_us: 0,
            io_us: 0,
        },
        publish_at: UNPUBLISHED,
        pc: 0,
        epoch: 0,
        prog_base: 0,
        n_reads: 0,
        n_writes: 0,
        n_read_times: 0,
        class: 0,
        state: TxnState::AtTerminal,
        live: false,
    };
}

/// The maximal run of consecutive service steps that starts at one step of
/// a program (see the module docs); empty at a non-service step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ServiceRun {
    /// I/O steps in the run (`ReadIo`, `UpdateIo`).
    pub ios: u32,
    /// CPU steps in the run (`ReadCpu`, `WriteCpu`).
    pub cpus: u32,
}

impl ServiceRun {
    /// Number of steps the run covers.
    #[inline]
    #[must_use]
    pub fn len(self) -> usize {
        (self.ios + self.cpus) as usize
    }
}

/// Cache of decoded step programs shared by every terminal (see the module
/// docs). The shape, think flag and run rule are the run's, so a program is
/// keyed by its read and write counts alone, in a dense `(reads, writes)`
/// grid.
#[derive(Debug, Default)]
struct ProgramTable {
    /// `(reads, writes) → offset into steps`; `ABSENT` = not yet decoded.
    index: Vec<u32>,
    /// Every distinct decoded program, concatenated.
    steps: Vec<Step>,
    /// The service run starting at each step, parallel to `steps`.
    runs: Vec<ServiceRun>,
}

impl ProgramTable {
    const ABSENT: u32 = u32::MAX;

    /// The offset of `program`'s decoded steps, decoding it on first sight;
    /// `cap` bounds both of its counts, and `read_ends_run` ends a service
    /// run after every `ReadCpu`.
    fn ensure(&mut self, cap: usize, program: Program, read_ends_run: bool) -> u32 {
        let stride = cap + 1;
        if self.index.is_empty() {
            self.index.resize(stride * stride, Self::ABSENT);
        }
        let slot = program.num_reads() * stride + program.num_writes();
        let mut base = self.index[slot];
        if base == Self::ABSENT {
            base = u32::try_from(self.steps.len()).expect("program table overflow");
            self.steps
                .extend((0..program.len()).map(|pc| program.step_at(pc)));
            // Back to front: a step's run is the step plus the run after it.
            self.runs.resize(self.steps.len(), ServiceRun::default());
            let mut after = ServiceRun::default();
            for pc in (base as usize..self.steps.len()).rev() {
                let step = self.steps[pc];
                let tail = if read_ends_run && matches!(step, Step::ReadCpu(_)) {
                    ServiceRun::default()
                } else {
                    after
                };
                after = match step {
                    Step::ReadIo(_) | Step::UpdateIo(_) => ServiceRun {
                        ios: tail.ios + 1,
                        ..tail
                    },
                    Step::ReadCpu(_) | Step::WriteCpu(_) => ServiceRun {
                        cpus: tail.cpus + 1,
                        ..tail
                    },
                    _ => ServiceRun::default(),
                };
                self.runs[pc] = after;
            }
            self.index[slot] = base;
        }
        base
    }
}

/// The arena: per-terminal records plus shared flat data regions.
#[derive(Debug)]
pub(crate) struct TxnArena {
    /// Per-terminal region width: the largest readset any class can draw.
    cap: usize,
    /// Per-terminal write-mask width in words: `ceil(cap / 64)`.
    mask_words: usize,
    /// The run's program shape, think flag and service-run rule.
    shape: ProgramShape,
    thinks: bool,
    read_ends_run: bool,
    recs: Vec<TxnRec>,
    /// Readsets as 4-byte ids, in access order: terminal `t` owns
    /// `[t*cap, (t+1)*cap)`.
    reads: Vec<u32>,
    /// Write flags over the readsets: terminal `t` owns words
    /// `[t*mask_words, (t+1)*mask_words)`, bit `i` flagging read `i`.
    write_mask: Vec<u64>,
    /// Static-locking preclaim plans `(object, write?)` in ascending object
    /// order, objects as 4-byte ids. Empty unless the run's shape is
    /// `Static2pl`.
    lock_plan: Vec<(u32, bool)>,
    /// Read-completion times (history recording only). Empty until first use.
    read_times: Vec<SimTime>,
    /// Observed validity bounds (`rts` at read time), parallel to
    /// `read_times`. TicToc only; empty until first use.
    read_auxes: Vec<SimTime>,
    /// Decoded-program cache backing [`TxnArena::step`].
    programs: ProgramTable,
}

impl TxnArena {
    /// An arena for `num_terms` terminals whose transactions read at most
    /// `cap` objects and run `shape` programs, with an internal think step
    /// when `thinks`; `read_ends_run` ends every service run after a
    /// `ReadCpu` (see the module docs).
    #[must_use]
    pub fn new(
        num_terms: usize,
        cap: usize,
        shape: ProgramShape,
        thinks: bool,
        read_ends_run: bool,
    ) -> Self {
        let (cap, mask_words) = Self::region_widths(cap);
        TxnArena {
            cap,
            mask_words,
            shape,
            thinks,
            read_ends_run,
            recs: vec![TxnRec::VACANT; num_terms],
            reads: vec![0; num_terms * cap],
            write_mask: vec![0; num_terms * mask_words],
            lock_plan: Vec::new(),
            read_times: Vec::new(),
            read_auxes: Vec::new(),
            programs: ProgramTable::default(),
        }
    }

    /// Per-terminal region widths for readsets of at most `cap` objects:
    /// `(objects, write-mask words)`.
    fn region_widths(cap: usize) -> (usize, usize) {
        let cap = cap.max(1);
        (cap, cap.div_ceil(64))
    }

    /// The bytes of every array an arena for `num_terms` terminals and
    /// readsets of at most `cap` objects allocates, by structure: the
    /// records, the readset region and write mask, and the lazily allocated
    /// regions a run will use — the static-locking plan when `shape` is
    /// `Static2pl`, the read times when `read_times`, and the observed
    /// bounds when `read_auxes`.
    #[must_use]
    pub fn footprint(
        num_terms: usize,
        cap: usize,
        shape: ProgramShape,
        read_times: bool,
        read_auxes: bool,
    ) -> [(&'static str, u128); 5] {
        let (cap, mask_words) = Self::region_widths(cap);
        let per_term = |bytes: usize, used: bool| {
            if used {
                num_terms as u128 * bytes as u128
            } else {
                0
            }
        };
        let region = |elem: usize, used: bool| per_term(elem * cap, used);
        [
            ("transaction records", per_term(size_of::<TxnRec>(), true)),
            (
                "readset region and write mask",
                region(size_of::<u32>(), true) + per_term(mask_words * size_of::<u64>(), true),
            ),
            (
                "static-locking plan",
                region(size_of::<(u32, bool)>(), shape == ProgramShape::Static2pl),
            ),
            ("read times", region(size_of::<SimTime>(), read_times)),
            (
                "observed read bounds",
                region(size_of::<SimTime>(), read_auxes),
            ),
        ]
    }

    /// The step `term`'s transaction is at: one indexed load from the
    /// decoded-program table.
    #[inline]
    #[must_use]
    pub fn step(&self, term: usize) -> Step {
        let rec = &self.recs[term];
        self.programs.steps[rec.prog_base as usize + rec.pc as usize]
    }

    /// The service run starting at `term`'s current step (empty when that
    /// step is not a service step): one indexed load, like
    /// [`TxnArena::step`].
    #[inline]
    #[must_use]
    pub fn run(&self, term: usize) -> ServiceRun {
        let rec = &self.recs[term];
        self.programs.runs[rec.prog_base as usize + rec.pc as usize]
    }

    /// The step `k` places past `term`'s current step.
    #[inline]
    #[must_use]
    pub fn step_ahead(&self, term: usize, k: usize) -> Step {
        let rec = &self.recs[term];
        self.programs.steps[rec.prog_base as usize + rec.pc as usize + k]
    }

    /// Advance `term`'s transaction to its next step.
    #[inline]
    pub fn advance(&mut self, term: usize) {
        self.advance_by(term, 1);
    }

    /// Advance `term`'s transaction `n` steps.
    #[inline]
    pub fn advance_by(&mut self, term: usize, n: usize) {
        let rec = &mut self.recs[term];
        rec.pc += n as u32;
        debug_assert_eq!(
            self.step(term),
            self.program(term).step_at(self.recs[term].pc as usize),
            "program table diverged from step_at"
        );
    }

    /// The arithmetic program of `term`'s transaction (the reference the
    /// decoded table caches).
    fn program(&self, term: usize) -> Program {
        let rec = &self.recs[term];
        Program::new(
            self.shape,
            self.thinks,
            rec.n_reads as usize,
            rec.n_writes as usize,
        )
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

    /// Hint the CPU to pull `term`'s state into cache: the record's two
    /// lines and the first line of its readset, the memory handling an
    /// event for `term` touches first. A pure hint ([`ccsim_des::prefetch`]).
    #[inline]
    pub fn prefetch(&self, term: usize) {
        ccsim_des::prefetch(&self.recs[term]);
        ccsim_des::prefetch(&self.reads[term * self.cap]);
    }

    /// Install a fresh transaction of workload class `class` at `term`,
    /// copying `spec` into the terminal's data region.
    pub fn install(
        &mut self,
        term: usize,
        id: TxnId,
        spec: &TxnSpec,
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
        for (slot, &obj) in self.reads[base..base + n].iter_mut().zip(spec.reads()) {
            *slot = obj.narrow();
        }
        let mask = &mut self.write_mask[term * self.mask_words..(term + 1) * self.mask_words];
        mask.fill(0);
        for i in (0..n).filter(|&i| spec.writes_at(i)) {
            mask[i / 64] |= 1 << (i % 64);
        }
        if self.shape == ProgramShape::Static2pl {
            if self.lock_plan.is_empty() {
                self.lock_plan = vec![(0, false); self.recs.len() * self.cap];
            }
            let plan = &mut self.lock_plan[base..base + n];
            for (i, slot) in plan.iter_mut().enumerate() {
                *slot = (self.reads[base + i], spec.writes_at(i));
            }
            plan.sort_unstable_by_key(|&(obj, _)| obj);
        }
        let program = Program::new(self.shape, self.thinks, n, spec.num_writes());
        self.recs[term] = TxnRec {
            id,
            arrival,
            attempt_start: arrival,
            epoch,
            prog_base: self.programs.ensure(self.cap, program, self.read_ends_run),
            n_reads: u32::try_from(n).expect("readset length fits in u32"),
            n_writes: u32::try_from(spec.num_writes()).expect("write-set length fits in u32"),
            class: u32::try_from(class).expect("class index fits in u32"),
            state: TxnState::Ready,
            live: true,
            ..TxnRec::VACANT
        };
    }

    /// The readset of `term`'s transaction, in access order.
    #[inline]
    pub fn reads(&self, term: usize) -> impl ExactSizeIterator<Item = ObjId> + '_ {
        let base = term * self.cap;
        self.reads[base..base + self.recs[term].n_reads as usize]
            .iter()
            .map(|&obj| ObjId::from(obj))
    }

    /// The `i`-th object read by `term`'s transaction.
    #[inline]
    #[must_use]
    pub fn read_at(&self, term: usize, i: usize) -> ObjId {
        debug_assert!(i < self.recs[term].n_reads as usize);
        ObjId::from(self.reads[term * self.cap + i])
    }

    /// `term`'s write-mask words.
    #[inline]
    fn mask(&self, term: usize) -> &[u64] {
        &self.write_mask[term * self.mask_words..(term + 1) * self.mask_words]
    }

    /// The objects written by `term`'s transaction, in write (= read)
    /// order.
    pub fn write_objs(&self, term: usize) -> impl Iterator<Item = ObjId> + '_ {
        let reads = &self.reads[term * self.cap..];
        self.mask(term)
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let i = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        ObjId::from(reads[w * 64 + i])
                    })
                })
            })
    }

    /// Replace `out` with the objects written by `term`'s transaction, for
    /// the commit paths that take the write set as a slice.
    pub fn write_set_into(&self, term: usize, out: &mut Vec<ObjId>) {
        out.clear();
        out.extend(self.write_objs(term));
    }

    /// The `j`-th object written by `term`'s transaction.
    #[inline]
    #[must_use]
    pub fn write_obj_at(&self, term: usize, j: usize) -> ObjId {
        debug_assert!(j < self.recs[term].n_writes as usize);
        let mut j = j;
        for (w, &word) in self.mask(term).iter().enumerate() {
            let n = word.count_ones() as usize;
            if j < n {
                let mut bits = word;
                for _ in 0..j {
                    bits &= bits - 1;
                }
                return ObjId::from(
                    self.reads[term * self.cap + w * 64 + bits.trailing_zeros() as usize],
                );
            }
            j -= n;
        }
        unreachable!("write index past the write set")
    }

    /// The `k`-th entry of `term`'s static preclaim plan.
    #[inline]
    #[must_use]
    pub fn lock_plan_at(&self, term: usize, k: usize) -> (ObjId, bool) {
        debug_assert!(k < self.recs[term].n_reads as usize);
        let (obj, write) = self.lock_plan[term * self.cap + k];
        (ObjId::from(obj), write)
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
    use proptest::prelude::*;

    fn spec(reads: usize, write_ixs: &[usize]) -> TxnSpec {
        let objs: Vec<ObjId> = (0..reads as u64).map(|v| ObjId(v * 10)).collect();
        let writes: Vec<bool> = (0..reads).map(|i| write_ixs.contains(&i)).collect();
        TxnSpec::new(objs, writes)
    }

    fn install(a: &mut TxnArena, term: usize, id: u64, s: &TxnSpec, at: SimTime, epoch: u32) {
        a.install(term, TxnId(id), s, at, epoch, 0);
    }

    #[test]
    fn install_copies_spec_into_region() {
        let mut a = TxnArena::new(4, 8, ProgramShape::Dynamic2pl, false, false);
        assert!(a.get(2).is_none());
        let s = spec(3, &[1]);
        install(&mut a, 2, 7, &s, SimTime::from_secs(1), 0);
        let rec = a.get(2).expect("installed");
        assert_eq!(rec.id, TxnId(7));
        assert_eq!(rec.state, TxnState::Ready);
        assert_eq!(rec.published_at(), None);
        assert_eq!(a.step(2), Step::LockRead(0));
        assert_eq!(a.reads(2).collect::<Vec<_>>(), s.reads());
        assert_eq!(a.write_objs(2).collect::<Vec<_>>(), [ObjId(10)]);
        assert_eq!(a.read_at(2, 1), ObjId(10));
        assert_eq!(a.write_obj_at(2, 0), ObjId(10));
        // Other terminals untouched.
        assert!(a.get(0).is_none() && a.get(3).is_none());
    }

    #[test]
    fn static_plan_is_sorted_by_object() {
        let mut a = TxnArena::new(2, 4, ProgramShape::Static2pl, false, false);
        let s = TxnSpec::new(
            vec![ObjId(30), ObjId(10), ObjId(20)],
            vec![true, false, true],
        );
        install(&mut a, 1, 1, &s, SimTime::ZERO, 0);
        assert_eq!(a.lock_plan_at(1, 0), (ObjId(10), false));
        assert_eq!(a.lock_plan_at(1, 1), (ObjId(20), true));
        assert_eq!(a.lock_plan_at(1, 2), (ObjId(30), true));
        // Write order is read order, not plan order.
        assert_eq!(a.write_objs(1).collect::<Vec<_>>(), [ObjId(30), ObjId(20)]);
    }

    #[test]
    fn lifecycle_matches_old_txn_semantics() {
        let mut a = TxnArena::new(1, 4, ProgramShape::Dynamic2pl, false, false);
        let s = spec(2, &[1]);
        install(&mut a, 0, 7, &s, SimTime::from_secs(1), 0);
        a.push_read_time(0, SimTime::from_secs(2));
        assert_eq!(a.read_times(0), &[SimTime::from_secs(2)]);
        a.advance(0);
        assert_eq!(a.step(0), Step::ReadIo(0));
        let rec = a.get_mut(0).unwrap();
        rec.usage.add_cpu(ccsim_des::SimDuration::from_millis(15));
        rec.publish(SimTime::from_secs(3));
        assert_eq!(rec.published_at(), Some(SimTime::from_secs(3)));
        rec.bump_epoch();
        rec.begin_attempt(SimTime::from_secs(5));
        assert_eq!(rec.pc, 0);
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.usage, AttemptUsage::default());
        assert_eq!(rec.attempt_start, SimTime::from_secs(5));
        assert_eq!(rec.published_at(), None, "publication resets");
        assert_eq!(
            rec.arrival,
            SimTime::from_secs(1),
            "arrival survives restart"
        );
        assert_eq!(a.step(0), Step::LockRead(0));
        assert_eq!(a.read_times(0), &[], "read times reset with the attempt");
    }

    #[test]
    fn reinstall_overwrites_without_leaking_lengths() {
        let mut a = TxnArena::new(1, 8, ProgramShape::LockFree, false, false);
        install(&mut a, 0, 1, &spec(6, &[0, 1, 2]), SimTime::ZERO, 0);
        assert_eq!(a.reads(0).len(), 6);
        assert_eq!(a.write_objs(0).count(), 3);
        install(&mut a, 0, 2, &spec(2, &[]), SimTime::ZERO, 1);
        assert_eq!(a.reads(0).len(), 2);
        assert_eq!(a.write_objs(0).count(), 0, "stale write bits survived");
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
                let mut a = TxnArena::new(1, 6, shape, thinks, false);
                for reads in 1..=6usize {
                    for nw in 0..=reads {
                        let wr: Vec<usize> = (0..nw).collect();
                        install(&mut a, 0, 1, &spec(reads, &wr), SimTime::ZERO, 0);
                        let program = Program::new(shape, thinks, reads, nw);
                        assert_eq!(a.step(0), program.step_at(0));
                        for pc in 1..program.len() {
                            a.advance(0);
                            assert_eq!(a.get(0).unwrap().pc as usize, pc);
                            assert_eq!(
                                a.step(0),
                                program.step_at(pc),
                                "{shape:?} {thinks} {reads} {nw} pc={pc}"
                            );
                        }
                        assert_eq!(a.step(0), Step::Commit);
                    }
                }
            }
        }
    }

    #[test]
    fn run_table_matches_a_scan_of_step_at() {
        // The run at each step, recomputed by scanning the arithmetic
        // reference: it covers consecutive service steps, stops at the
        // first step that is not one and, when reads end runs, right after
        // the first `ReadCpu`; its counts are those of the steps covered.
        fn scan(program: Program, pc: usize, read_ends_run: bool) -> (ServiceRun, Vec<Step>) {
            let mut run = ServiceRun::default();
            let mut steps = Vec::new();
            for step in (pc..program.len()).map(|k| program.step_at(k)) {
                match step {
                    Step::ReadIo(_) | Step::UpdateIo(_) => run.ios += 1,
                    Step::ReadCpu(_) | Step::WriteCpu(_) => run.cpus += 1,
                    _ => break,
                }
                steps.push(step);
                if read_ends_run && matches!(step, Step::ReadCpu(_)) {
                    break;
                }
            }
            (run, steps)
        }
        const CAP: usize = 12;
        for shape in [
            ProgramShape::Dynamic2pl,
            ProgramShape::Static2pl,
            ProgramShape::LockFree,
        ] {
            for thinks in [false, true] {
                for read_ends_run in [false, true] {
                    let mut a = TxnArena::new(1, CAP, shape, thinks, read_ends_run);
                    for reads in 1..=CAP {
                        for nw in 0..=reads {
                            let wr: Vec<usize> = (0..nw).collect();
                            install(&mut a, 0, 1, &spec(reads, &wr), SimTime::ZERO, 0);
                            let program = Program::new(shape, thinks, reads, nw);
                            for pc in 0..program.len() {
                                a.recs[0].pc = u32::try_from(pc).unwrap();
                                let (want, steps) = scan(program, pc, read_ends_run);
                                let at = format!(
                                    "{shape:?} {thinks} {read_ends_run} {reads} {nw} pc={pc}"
                                );
                                assert_eq!(a.run(0), want, "{at}");
                                assert_eq!(want.len(), steps.len(), "{at}");
                                let covered: Vec<Step> =
                                    (0..want.len()).map(|k| a.step_ahead(0, k)).collect();
                                assert_eq!(covered, steps, "{at}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_matches_the_allocated_regions() {
        let mut a = TxnArena::new(3, 70, ProgramShape::Static2pl, false, true);
        install(&mut a, 0, 1, &spec(2, &[1]), SimTime::ZERO, 0);
        a.push_read_obs(0, SimTime::ZERO, SimTime::ZERO);
        let bytes = |v: usize| v as u128;
        let got = TxnArena::footprint(3, 70, ProgramShape::Static2pl, true, true);
        assert_eq!(
            got.map(|(_, b)| b),
            [
                bytes(size_of_val(a.recs.as_slice())),
                bytes(size_of_val(a.reads.as_slice()) + size_of_val(a.write_mask.as_slice())),
                bytes(size_of_val(a.lock_plan.as_slice())),
                bytes(size_of_val(a.read_times.as_slice())),
                bytes(size_of_val(a.read_auxes.as_slice())),
            ]
        );
        let unused = TxnArena::footprint(3, 70, ProgramShape::LockFree, false, false);
        assert_eq!(unused[2..].iter().map(|&(_, b)| b).sum::<u128>(), 0);
    }

    #[test]
    fn stored_object_ids_are_4_bytes() {
        let mut a = TxnArena::new(3, 5, ProgramShape::Static2pl, false, false);
        assert_eq!(std::mem::size_of_val(a.reads.as_slice()), 3 * 5 * 4);
        let top = ObjId(u64::from(u32::MAX) - 1);
        let s = TxnSpec::new(vec![top, ObjId(0)], vec![true, false]);
        install(&mut a, 1, 1, &s, SimTime::ZERO, 0);
        assert_eq!(
            std::mem::size_of_val(a.lock_plan.as_slice()),
            3 * 5 * 8,
            "a plan entry is a 4-byte id and a write flag"
        );
        // The widest legal id survives the round trip through every view.
        assert_eq!(a.reads(1).collect::<Vec<_>>(), [top, ObjId(0)]);
        assert_eq!(a.read_at(1, 0), top);
        assert_eq!(a.write_obj_at(1, 0), top);
        assert_eq!(a.write_objs(1).collect::<Vec<_>>(), [top]);
        assert_eq!(a.lock_plan_at(1, 1), (top, true));
    }

    #[test]
    #[should_panic(expected = "fits in 32 bits")]
    fn install_rejects_ids_past_32_bits() {
        let mut a = TxnArena::new(1, 2, ProgramShape::LockFree, false, false);
        let s = TxnSpec::new(vec![ObjId(1 << 32)], vec![false]);
        install(&mut a, 0, 1, &s, SimTime::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds arena region capacity")]
    fn oversized_readset_panics() {
        let mut a = TxnArena::new(1, 2, ProgramShape::LockFree, false, false);
        install(&mut a, 0, 1, &spec(3, &[]), SimTime::ZERO, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The write mask reproduces the spec's written objects in read
        /// order, by index and as a whole, for caps whose masks span one
        /// to three words; a neighbouring terminal's install never leaks
        /// into them.
        #[test]
        fn write_mask_matches_the_spec(
            cap in 1usize..=130,
            flags in proptest::collection::vec(any::<bool>(), 130..131),
            other in proptest::collection::vec(any::<bool>(), 130..131),
            fill in 0.0f64..=1.0,
        ) {
            let n = ((cap as f64 * fill).round() as usize).clamp(1, cap);
            let objs: Vec<ObjId> = (0..n as u64).map(|v| ObjId(v * 7 + 3)).collect();
            let s = TxnSpec::new(objs.clone(), flags[..n].to_vec());
            let neighbour = TxnSpec::new(objs.clone(), other[..n].to_vec());
            let mut a = TxnArena::new(3, cap, ProgramShape::Dynamic2pl, false, false);
            install(&mut a, 1, 1, &s, SimTime::ZERO, 0);
            install(&mut a, 0, 2, &neighbour, SimTime::ZERO, 0);
            install(&mut a, 2, 3, &neighbour, SimTime::ZERO, 0);
            let want: Vec<ObjId> = (0..n).filter(|&i| flags[i]).map(|i| objs[i]).collect();
            prop_assert_eq!(a.write_objs(1).collect::<Vec<_>>(), want.clone());
            for (j, &obj) in want.iter().enumerate() {
                prop_assert_eq!(a.write_obj_at(1, j), obj);
            }
            let mut built = vec![ObjId(99)];
            a.write_set_into(1, &mut built);
            prop_assert_eq!(built, want);
        }
    }
}
