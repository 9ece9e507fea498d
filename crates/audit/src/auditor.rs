//! The online invariant auditor.
//!
//! [`Auditor`] subscribes to the engine's event stream (via
//! [`EventSink`]) and continuously re-derives the simulation's state
//! machine from events alone: which transaction occupies each terminal,
//! which phase it is in, which locks it holds. Any event that contradicts
//! the derived state — an admission beyond the multiprogramming level, a
//! commit while blocked, two writers on one object, a restart no rule
//! permits for the configured algorithm — is recorded as a [`Violation`]
//! carrying the simulated time, the transaction, and the last few trace
//! events for context. The facts a history is built from must sit where
//! the history recorder reads them: a read inside its attempt, at an
//! instant the algorithm can read at, and a commit's publications and
//! commit point directly before its `Commit`.
//!
//! At end of run the auditor additionally checks global conservation laws:
//! every arrival is accounted for (committed or still in the closed loop),
//! no lock survives its owner, useful utilization cannot exceed total, and
//! the physical queues satisfy the operational form of Little's law
//! *exactly* (see [`ccsim_core::CenterFlow::flow_balanced`]).

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use ccsim_core::{CcAlgorithm, EventSink, FlowStats, LockMode, Report, SimConfig, TraceEvent};
use ccsim_des::SimTime;
use ccsim_workload::{ObjId, TxnId};

/// How many preceding events each violation report includes.
const CONTEXT_EVENTS: usize = 16;
/// Violations recorded in full; beyond this only the count grows.
const MAX_RECORDED: usize = 50;
/// Slack allowed between mean useful and mean total utilization. Useful
/// work is attributed to the batch a transaction *commits* in, while busy
/// time accrues when the work happens, so batch edges can skew the means
/// slightly in either direction.
const UTIL_TOLERANCE: f64 = 0.02;

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated instant of the offending event (end of run for the
    /// global checks).
    pub at: SimTime,
    /// The transaction involved, when one is.
    pub txn: Option<TxnId>,
    /// What was violated.
    pub message: String,
    /// The last few trace events before (and including) the offender.
    pub context: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.txn {
            Some(t) => write!(f, "[{}] {}: {}", self.at, t, self.message),
            None => write!(f, "[{}] {}", self.at, self.message),
        }
    }
}

/// The auditor's findings over one run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Recorded violations, in detection order (capped at `MAX_RECORDED`).
    pub violations: Vec<Violation>,
    /// Total violations detected, including any beyond the recording cap.
    pub total: u64,
    /// Events observed over the run.
    pub events_seen: u64,
    /// Whether the end-of-run checks have run (false if the report was
    /// taken from a simulation that is still in progress).
    pub run_ended: bool,
}

impl AuditReport {
    /// True if no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// One line per violation (no context), for compact display.
    #[must_use]
    pub fn summaries(&self) -> Vec<String> {
        self.violations.iter().map(Violation::to_string).collect()
    }

    /// Full human-readable report including per-violation event context.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!("audit clean ({} events checked)", self.events_seen);
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit found {} violation(s) over {} events:",
            self.total, self.events_seen
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
            for line in v.context.lines() {
                let _ = writeln!(out, "    | {line}");
            }
        }
        if self.total > self.violations.len() as u64 {
            let _ = writeln!(
                out,
                "  ... {} further violation(s) not recorded",
                self.total - self.violations.len() as u64
            );
        }
        out
    }
}

/// Where a transaction is in its lifecycle, as derivable from events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Arrived (or restarted) and waiting in the ready queue.
    Queued,
    /// In the active set, running.
    Active,
    /// In the active set, waiting for the given object.
    Blocked(ObjId),
    /// Committed; its `LocksReleased` event is still outstanding.
    Committed,
}

/// The adjacency obligations the event stream creates: some events must be
/// followed *immediately* by a specific other event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A `LocksReleased` for this transaction (after `Commit`/`Restart`
    /// under a lock-using algorithm).
    Release(TxnId),
    /// A `Restart` for this transaction (after `Deadlock`,
    /// `ValidationFailure` or `TsRejected`).
    Restart(TxnId),
    /// A `VersionInstalled` for this transaction (after `Commit` under
    /// multiversion CC: every MVCC commit must account for its versions).
    Install(TxnId),
    /// A further `Publish` or the `CommitPoint` for this transaction (after
    /// a `Publish`).
    Publication(TxnId),
    /// The `Commit` for this transaction (after its `CommitPoint`).
    Commit(TxnId),
}

impl Expect {
    fn satisfied_by(self, event: &TraceEvent) -> bool {
        match (self, event) {
            (Expect::Release(t), TraceEvent::LocksReleased(u, _)) => t == *u,
            (Expect::Restart(t), TraceEvent::Restart(u)) => t == *u,
            (Expect::Install(t), TraceEvent::VersionInstalled(u, _)) => t == *u,
            (Expect::Publication(t), TraceEvent::Publish(u, _) | TraceEvent::CommitPoint(u, _)) => {
                t == *u
            }
            (Expect::Commit(t), TraceEvent::Commit(u)) => t == *u,
            _ => false,
        }
    }

    fn describe(self) -> String {
        match self {
            Expect::Release(t) => format!("LocksReleased for {t}"),
            Expect::Restart(t) => format!("Restart for {t}"),
            Expect::Install(t) => format!("VersionInstalled for {t}"),
            Expect::Publication(t) => format!("Publish or CommitPoint for {t}"),
            Expect::Commit(t) => format!("Commit for {t}"),
        }
    }
}

/// Per-terminal derived state.
#[derive(Debug)]
struct TermState {
    id: TxnId,
    phase: Phase,
    /// When the current attempt was admitted (its snapshot under MVCC).
    admitted: SimTime,
    /// Locks this transaction holds, per the event stream.
    holdings: HashMap<ObjId, LockMode>,
}

/// The online auditor. Implements [`EventSink`]; attach with
/// [`crate::attach`].
#[derive(Debug)]
pub struct Auditor {
    algo: CcAlgorithm,
    mpl: usize,
    num_terms: usize,
    slots: Vec<Option<TermState>>,
    /// Object → holders, rebuilt from grant events; used for the
    /// mutual-exclusion and leaked-lock checks.
    lock_table: HashMap<ObjId, HashMap<TxnId, LockMode>>,
    active: usize,
    arrivals: u64,
    commits: u64,
    events_seen: u64,
    expect: Option<Expect>,
    recent: VecDeque<(SimTime, TraceEvent)>,
    violations: Vec<Violation>,
    total_violations: u64,
    run_ended: bool,
}

impl Auditor {
    /// Build an auditor for runs of `cfg`.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        let num_terms = cfg.params.num_terms as usize;
        Auditor {
            algo: cfg.algorithm,
            mpl: cfg.params.mpl as usize,
            num_terms,
            slots: (0..num_terms).map(|_| None).collect(),
            lock_table: HashMap::new(),
            active: 0,
            arrivals: 0,
            commits: 0,
            events_seen: 0,
            expect: None,
            recent: VecDeque::with_capacity(CONTEXT_EVENTS),
            violations: Vec::new(),
            total_violations: 0,
            run_ended: false,
        }
    }

    /// The findings so far (complete once the run has ended).
    #[must_use]
    pub fn report(&self) -> AuditReport {
        AuditReport {
            violations: self.violations.clone(),
            total: self.total_violations,
            events_seen: self.events_seen,
            run_ended: self.run_ended,
        }
    }

    /// True once `on_run_end` has been observed.
    #[must_use]
    pub fn run_ended(&self) -> bool {
        self.run_ended
    }

    fn violate(&mut self, at: SimTime, txn: Option<TxnId>, message: String) {
        self.total_violations += 1;
        if self.violations.len() >= MAX_RECORDED {
            return;
        }
        let mut context = String::new();
        for (t, e) in &self.recent {
            let _ = writeln!(context, "[{t}] {e}");
        }
        self.violations.push(Violation {
            at,
            txn,
            message,
            context,
        });
    }

    fn term_of(&self, t: TxnId) -> usize {
        (t.0 % self.num_terms as u64) as usize
    }

    /// The slot for `t` if it currently hosts `t`.
    fn slot_mut(&mut self, t: TxnId) -> Option<&mut TermState> {
        let term = self.term_of(t);
        match self.slots[term].as_mut() {
            Some(s) if s.id == t => Some(s),
            _ => None,
        }
    }

    /// Check that `t` exists and is in one of `phases` (`Blocked(_)` in the
    /// list matches any blocked object). Returns an error message otherwise.
    fn check_phase(&mut self, t: TxnId, phases: &[Phase]) -> Result<Phase, String> {
        let term = self.term_of(t);
        let s = match self.slots[term].as_ref() {
            Some(s) if s.id == t => s,
            Some(s) => {
                return Err(format!(
                    "event addresses {t} but terminal {term} hosts {}",
                    s.id
                ))
            }
            None => {
                return Err(format!(
                    "event addresses {t} but terminal {term} has no transaction"
                ))
            }
        };
        let ok = phases.iter().any(|p| match (p, s.phase) {
            (Phase::Blocked(_), Phase::Blocked(_)) => true,
            (p, q) => *p == q,
        });
        if ok {
            Ok(s.phase)
        } else {
            Err(format!("{t} is {:?}, expected one of {phases:?}", s.phase))
        }
    }

    /// Would granting `mode` on `obj` to `t` violate mutual exclusion,
    /// given the holders the event stream implies?
    fn conflict_with(&self, t: TxnId, obj: ObjId, mode: LockMode) -> Option<String> {
        let holders = self.lock_table.get(&obj)?;
        for (&h, &hm) in holders {
            if h == t {
                continue; // in-place upgrade
            }
            if mode == LockMode::Write || hm == LockMode::Write {
                return Some(format!(
                    "grant of {obj} ({mode:?}) to {t} conflicts with holder {h} ({hm:?})"
                ));
            }
        }
        None
    }

    /// Record that `t` now holds `obj` in `mode` (write dominates on
    /// upgrade).
    fn record_holding(&mut self, t: TxnId, obj: ObjId, mode: LockMode) {
        if let Some(s) = self.slot_mut(t) {
            let e = s.holdings.entry(obj).or_insert(mode);
            if mode == LockMode::Write {
                *e = LockMode::Write;
            }
        }
        let e = self
            .lock_table
            .entry(obj)
            .or_default()
            .entry(t)
            .or_insert(mode);
        if mode == LockMode::Write {
            *e = LockMode::Write;
        }
    }

    /// Is `event` ever legal under the configured algorithm?
    fn legality_error(&self, event: &TraceEvent) -> Option<String> {
        use CcAlgorithm as A;
        let algo = self.algo;
        let ok = match event {
            TraceEvent::Arrive(_)
            | TraceEvent::Admit(_)
            | TraceEvent::Commit(_)
            | TraceEvent::Read(..)
            | TraceEvent::Publish(..)
            | TraceEvent::CommitPoint(..) => true,
            TraceEvent::Acquire(..) | TraceEvent::LocksReleased(..) => algo.uses_locks(),
            // Only algorithms that can wait ever block or receive queued
            // grants: the blocking family, wait-die/wound-wait, and basic
            // T/O readers parked on a pending prewrite.
            TraceEvent::Block(..) | TraceEvent::Grant(..) => matches!(
                algo,
                A::Blocking | A::StaticLocking | A::WaitDie | A::WoundWait | A::BasicTO
            ),
            // Deadlock prevention (wait-die, wound-wait), no-waiting,
            // static locking's canonical acquisition order, and the
            // non-locking algorithms all make deadlock impossible.
            TraceEvent::Deadlock { .. } => algo == A::Blocking,
            // Static locking cannot deadlock and never has a lock denied;
            // the unsafe no-CC baseline never conflicts at all.
            TraceEvent::Restart(_) => !matches!(algo, A::StaticLocking | A::NoCc),
            // Every certification-at-commit protocol can fail validation;
            // snapshot isolation's first-committer-wins check, Silo's
            // read-set re-check, and TicToc's superseded-version check all
            // announce their aborts this way.
            TraceEvent::ValidationFailure(..) => {
                matches!(algo, A::Optimistic | A::MvccSi | A::SiloOcc | A::TicToc)
            }
            TraceEvent::TsRejected(..) => algo == A::BasicTO,
            // Only multiversion CC installs versions.
            TraceEvent::VersionInstalled(..) => algo == A::MvccSi,
        };
        (!ok).then(|| format!("event `{event}` is illegal under {algo}"))
    }

    fn handle(&mut self, at: SimTime, event: &TraceEvent, restart_expected: bool) {
        match *event {
            TraceEvent::Arrive(t) => {
                let term = self.term_of(t);
                if let Some(s) = self.slots[term].as_ref() {
                    self.violate(
                        at,
                        Some(t),
                        format!("arrival at terminal {term} which still hosts {}", s.id),
                    );
                }
                self.slots[term] = Some(TermState {
                    id: t,
                    phase: Phase::Queued,
                    admitted: at,
                    holdings: HashMap::new(),
                });
                self.arrivals += 1;
            }
            TraceEvent::Admit(t) => {
                if let Err(m) = self.check_phase(t, &[Phase::Queued]) {
                    self.violate(at, Some(t), m);
                }
                if let Some(s) = self.slot_mut(t) {
                    s.phase = Phase::Active;
                    s.admitted = at;
                }
                self.active += 1;
                if self.active > self.mpl {
                    self.violate(
                        at,
                        Some(t),
                        format!(
                            "active set grew to {} which exceeds mpl {}",
                            self.active, self.mpl
                        ),
                    );
                }
            }
            TraceEvent::Acquire(t, obj, mode) => {
                if let Err(m) = self.check_phase(t, &[Phase::Active]) {
                    self.violate(at, Some(t), m);
                }
                if let Some(m) = self.conflict_with(t, obj, mode) {
                    self.violate(at, Some(t), m);
                }
                self.record_holding(t, obj, mode);
            }
            TraceEvent::Block(t, obj) => {
                if let Err(m) = self.check_phase(t, &[Phase::Active]) {
                    self.violate(at, Some(t), m);
                }
                if let Some(s) = self.slot_mut(t) {
                    s.phase = Phase::Blocked(obj);
                }
            }
            TraceEvent::Grant(t, obj, mode) => {
                match self.check_phase(t, &[Phase::Blocked(obj)]) {
                    Ok(Phase::Blocked(b)) if b != obj => {
                        self.violate(at, Some(t), format!("granted {obj} but was blocked on {b}"))
                    }
                    Ok(_) => {}
                    Err(m) => self.violate(at, Some(t), m),
                }
                if let Some(s) = self.slot_mut(t) {
                    s.phase = Phase::Active;
                }
                // A lock grant hands the object over; a basic-T/O "grant"
                // only resumes a parked read (no lock exists to record).
                if self.algo.uses_locks() {
                    if let Some(m) = self.conflict_with(t, obj, mode) {
                        self.violate(at, Some(t), m);
                    }
                    self.record_holding(t, obj, mode);
                }
            }
            TraceEvent::Deadlock { detector, victim } => {
                if let Err(m) = self.check_phase(detector, &[Phase::Blocked(ObjId(0))]) {
                    self.violate(at, Some(detector), m);
                }
                if self.slot_mut(victim).is_none() {
                    self.violate(
                        at,
                        Some(victim),
                        format!("deadlock victim {victim} is not a live transaction"),
                    );
                }
                self.expect = Some(Expect::Restart(victim));
            }
            TraceEvent::Restart(t) => {
                // Under these algorithms every restart has an announcing
                // event (deadlock victim selection, validation failure,
                // timestamp rejection) immediately before it.
                let announced = matches!(
                    self.algo,
                    CcAlgorithm::Blocking | CcAlgorithm::Optimistic | CcAlgorithm::BasicTO
                );
                if announced && !restart_expected {
                    self.violate(
                        at,
                        Some(t),
                        format!(
                            "spontaneous restart: no preceding cause under {}",
                            self.algo
                        ),
                    );
                }
                if let Err(m) = self.check_phase(t, &[Phase::Active, Phase::Blocked(ObjId(0))]) {
                    self.violate(at, Some(t), m);
                }
                if let Some(s) = self.slot_mut(t) {
                    s.phase = Phase::Queued;
                }
                if self.active == 0 {
                    self.violate(at, Some(t), "active set underflow on restart".into());
                } else {
                    self.active -= 1;
                }
                if self.algo.uses_locks() {
                    self.expect = Some(Expect::Release(t));
                }
            }
            TraceEvent::ValidationFailure(t, _) | TraceEvent::TsRejected(t, _) => {
                if let Err(m) = self.check_phase(t, &[Phase::Active]) {
                    self.violate(at, Some(t), m);
                }
                self.expect = Some(Expect::Restart(t));
            }
            TraceEvent::Commit(t) => {
                // Committing while blocked (or queued) is a serious engine
                // bug; the phase must be exactly Active.
                if let Err(m) = self.check_phase(t, &[Phase::Active]) {
                    self.violate(at, Some(t), m);
                }
                self.commits += 1;
                if self.active == 0 {
                    self.violate(at, Some(t), "active set underflow on commit".into());
                } else {
                    self.active -= 1;
                }
                if self.algo.uses_locks() {
                    if let Some(s) = self.slot_mut(t) {
                        s.phase = Phase::Committed;
                    }
                    self.expect = Some(Expect::Release(t));
                } else if self.algo == CcAlgorithm::MvccSi {
                    // The slot clears at the obligated VersionInstalled.
                    if let Some(s) = self.slot_mut(t) {
                        s.phase = Phase::Committed;
                    }
                    self.expect = Some(Expect::Install(t));
                } else {
                    let term = self.term_of(t);
                    self.slots[term] = None;
                }
            }
            TraceEvent::VersionInstalled(t, _) => {
                // Adjacency is enforced by the expectation mechanism; an
                // out-of-the-blue installation is caught here.
                let expected = self
                    .recent
                    .iter()
                    .rev()
                    .nth(1)
                    .is_some_and(|(_, prev)| matches!(*prev, TraceEvent::Commit(u) if u == t));
                if !expected {
                    self.violate(
                        at,
                        Some(t),
                        "VersionInstalled without an immediately preceding Commit".into(),
                    );
                }
                if let Err(m) = self.check_phase(t, &[Phase::Committed]) {
                    self.violate(at, Some(t), m);
                }
                let term = self.term_of(t);
                if self.slots[term]
                    .as_ref()
                    .is_some_and(|s| s.id == t && s.phase == Phase::Committed)
                {
                    self.slots[term] = None;
                }
            }
            TraceEvent::Read(t, obj, read_at) => {
                if let Err(m) = self.check_phase(t, &[Phase::Active]) {
                    self.violate(
                        at,
                        Some(t),
                        format!("read of {obj} outside its attempt: {m}"),
                    );
                }
                let admitted = self.slot_mut(t).map_or(at, |s| s.admitted);
                // The instant fixes the version read: the snapshot under
                // MVCC, a point of the attempt elsewhere. TicToc names a
                // version by its logical write timestamp, which may lie
                // anywhere before the read.
                let in_attempt = match self.algo {
                    CcAlgorithm::TicToc => true,
                    CcAlgorithm::MvccSi => read_at == admitted,
                    _ => admitted <= read_at && read_at <= at,
                };
                if !in_attempt {
                    self.violate(
                        at,
                        Some(t),
                        format!(
                            "read of {obj} as of {read_at} is outside the attempt \
                             admitted at {admitted}"
                        ),
                    );
                }
            }
            TraceEvent::Publish(t, _) | TraceEvent::CommitPoint(t, _) => {
                if let Err(m) = self.check_phase(t, &[Phase::Active]) {
                    self.violate(at, Some(t), m);
                }
                self.expect = Some(match event {
                    TraceEvent::Publish(..) => Expect::Publication(t),
                    _ => Expect::Commit(t),
                });
            }
            TraceEvent::LocksReleased(t, n) => {
                // Adjacency is enforced by the expectation mechanism; an
                // out-of-the-blue release is caught here.
                let expected = self
                    .recent
                    .iter()
                    .rev()
                    .nth(1)
                    .is_some_and(|(_, prev)| {
                        matches!(*prev, TraceEvent::Commit(u) | TraceEvent::Restart(u) if u == t)
                    });
                if !expected {
                    self.violate(
                        at,
                        Some(t),
                        "LocksReleased without an immediately preceding Commit/Restart".into(),
                    );
                }
                let held = self.slot_mut(t).map(|s| s.holdings.len() as u32);
                match held {
                    Some(held) if held != n => self.violate(
                        at,
                        Some(t),
                        format!(
                            "lock manager released {n} lock(s) but the event stream \
                             shows {held} held"
                        ),
                    ),
                    Some(_) => {}
                    None => self.violate(
                        at,
                        Some(t),
                        "LocksReleased for a transaction that is not live".into(),
                    ),
                }
                let term = self.term_of(t);
                if let Some(s) = self.slots[term].as_mut().filter(|s| s.id == t) {
                    let objs: Vec<ObjId> = s.holdings.drain().map(|(o, _)| o).collect();
                    let committed = s.phase == Phase::Committed;
                    for obj in objs {
                        if let Some(holders) = self.lock_table.get_mut(&obj) {
                            holders.remove(&t);
                            if holders.is_empty() {
                                self.lock_table.remove(&obj);
                            }
                        }
                    }
                    if committed {
                        self.slots[term] = None;
                    }
                }
            }
        }
    }

    fn end_of_run_checks(&mut self, now: SimTime, report: &Report, flow: &FlowStats) {
        if let Some(exp) = self.expect.take() {
            self.violate(
                now,
                None,
                format!("run ended with a pending obligation: {}", exp.describe()),
            );
        }

        // The closed loop conserves transactions: every arrival either
        // committed (slot cleared) or is still somewhere in the loop.
        let live = self.slots.iter().flatten().count() as u64;
        if self.arrivals != self.commits + live {
            self.violate(
                now,
                None,
                format!(
                    "transaction conservation broken: {} arrivals != {} commits + {live} live",
                    self.arrivals, self.commits
                ),
            );
        }

        // The running active counter must agree with a fresh census.
        let census = self
            .slots
            .iter()
            .flatten()
            .filter(|s| matches!(s.phase, Phase::Active | Phase::Blocked(_)))
            .count();
        if census != self.active {
            self.violate(
                now,
                None,
                format!(
                    "active-set accounting drifted: counter {} vs census {census}",
                    self.active
                ),
            );
        }

        // Measured commits are a subset of observed commit events (the
        // report excludes warmup).
        if report.commits > self.commits {
            self.violate(
                now,
                None,
                format!(
                    "report counts {} commits but only {} commit events were seen",
                    report.commits, self.commits
                ),
            );
        }

        // No lock may survive its owner.
        let leaked: Vec<(ObjId, TxnId)> = self
            .lock_table
            .iter()
            .flat_map(|(&obj, holders)| holders.keys().map(move |&t| (obj, t)))
            .filter(|&(_, t)| {
                let term = (t.0 % self.num_terms as u64) as usize;
                !matches!(self.slots[term].as_ref(), Some(s) if s.id == t)
            })
            .collect();
        for (obj, t) in leaked {
            self.violate(
                now,
                Some(t),
                format!("leaked lock: {obj} still held by departed {t}"),
            );
        }

        // Useful utilization (work belonging to committed transactions)
        // can never exceed total utilization.
        for (name, useful, total) in [
            ("cpu", &report.cpu_util_useful, &report.cpu_util_total),
            ("disk", &report.disk_util_useful, &report.disk_util_total),
        ] {
            if useful.mean > total.mean + UTIL_TOLERANCE {
                self.violate(
                    now,
                    None,
                    format!(
                        "{name} useful utilization {:.4} exceeds total {:.4}",
                        useful.mean, total.mean
                    ),
                );
            }
        }

        // Little's law, operational form, as an exact integer identity.
        for (name, center) in [("cpu", flow.cpu), ("disk", flow.disk)] {
            let Some(c) = center else { continue };
            if !c.flow_balanced() {
                self.violate(
                    now,
                    None,
                    format!(
                        "{name} flow imbalance: ∫queue dt = {} µs but waits sum to {} µs \
                         ({} completed + {} pending)",
                        c.queue_integral_us,
                        c.total_wait_us + c.pending_wait_us,
                        c.total_wait_us,
                        c.pending_wait_us
                    ),
                );
            }
        }
    }
}

impl EventSink for Auditor {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        self.events_seen += 1;
        if self.recent.len() == CONTEXT_EVENTS {
            self.recent.pop_front();
        }
        self.recent.push_back((now, *event));

        if let Some(m) = self.legality_error(event) {
            self.violate(now, Some(event.txn()), m);
        }

        // Settle any adjacency obligation from the previous event.
        let mut restart_expected = false;
        if let Some(exp) = self.expect.take() {
            if exp.satisfied_by(event) {
                restart_expected = matches!(exp, Expect::Restart(_));
            } else {
                self.violate(
                    now,
                    Some(event.txn()),
                    format!(
                        "expected {} immediately, saw `{event}` instead",
                        exp.describe()
                    ),
                );
            }
        }

        self.handle(now, event, restart_expected);
    }

    fn on_run_end(&mut self, now: SimTime, report: &Report, flow: &FlowStats) {
        self.run_ended = true;
        self.end_of_run_checks(now, report, flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::MetricsConfig;

    fn cfg(algo: CcAlgorithm) -> SimConfig {
        let mut c = SimConfig::new(algo).with_metrics(MetricsConfig::quick());
        c.params.num_terms = 10;
        c.params.mpl = 3;
        c
    }

    fn feed(a: &mut Auditor, at_s: u64, e: TraceEvent) {
        a.on_event(SimTime::from_secs(at_s), &e);
    }

    fn t(v: u64) -> TxnId {
        TxnId(v)
    }
    fn o(v: u64) -> ObjId {
        ObjId(v)
    }

    #[test]
    fn clean_lifecycle_is_clean() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Acquire(t(1), o(5), LockMode::Read));
        feed(&mut a, 3, TraceEvent::Commit(t(1)));
        feed(&mut a, 3, TraceEvent::LocksReleased(t(1), 1));
        assert!(a.report().is_clean(), "{}", a.report().render());
    }

    #[test]
    fn admission_beyond_mpl_is_flagged() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        for i in 1..=4 {
            feed(&mut a, i, TraceEvent::Arrive(t(i)));
            feed(&mut a, i, TraceEvent::Admit(t(i)));
        }
        let r = a.report();
        assert_eq!(r.total, 1);
        assert!(r.violations[0].message.contains("exceeds mpl"));
    }

    #[test]
    fn commit_while_blocked_is_flagged() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Block(t(1), o(7)));
        feed(&mut a, 3, TraceEvent::Commit(t(1)));
        let r = a.report();
        assert!(!r.is_clean());
        assert!(r.violations[0].message.contains("Blocked"));
    }

    #[test]
    fn two_writers_on_one_object_is_flagged() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        for i in 1..=2 {
            feed(&mut a, i, TraceEvent::Arrive(t(i)));
            feed(&mut a, i, TraceEvent::Admit(t(i)));
        }
        feed(&mut a, 3, TraceEvent::Acquire(t(1), o(9), LockMode::Write));
        feed(&mut a, 4, TraceEvent::Acquire(t(2), o(9), LockMode::Write));
        let r = a.report();
        assert_eq!(r.total, 1);
        assert!(r.violations[0].message.contains("conflicts with holder"));
    }

    #[test]
    fn shared_readers_are_fine_but_writer_on_read_is_not() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        for i in 1..=3 {
            feed(&mut a, i, TraceEvent::Arrive(t(i)));
            feed(&mut a, i, TraceEvent::Admit(t(i)));
        }
        feed(&mut a, 4, TraceEvent::Acquire(t(1), o(9), LockMode::Read));
        feed(&mut a, 4, TraceEvent::Acquire(t(2), o(9), LockMode::Read));
        assert!(a.report().is_clean());
        feed(&mut a, 5, TraceEvent::Acquire(t(3), o(9), LockMode::Write));
        assert_eq!(a.report().total, 1);
    }

    #[test]
    fn missing_lock_release_after_commit_is_flagged() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Acquire(t(1), o(5), LockMode::Write));
        feed(&mut a, 3, TraceEvent::Commit(t(1)));
        // Next event is NOT the obligated LocksReleased.
        feed(&mut a, 4, TraceEvent::Arrive(t(11)));
        let r = a.report();
        assert!(!r.is_clean());
        assert!(r.violations[0].message.contains("expected LocksReleased"));
    }

    #[test]
    fn release_count_mismatch_is_flagged() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Acquire(t(1), o(5), LockMode::Write));
        feed(&mut a, 2, TraceEvent::Acquire(t(1), o(6), LockMode::Read));
        feed(&mut a, 3, TraceEvent::Commit(t(1)));
        feed(&mut a, 3, TraceEvent::LocksReleased(t(1), 1));
        let r = a.report();
        assert_eq!(r.total, 1);
        assert!(r.violations[0].message.contains("shows 2 held"));
    }

    #[test]
    fn upgrade_counts_one_lock() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Acquire(t(1), o(5), LockMode::Read));
        feed(&mut a, 2, TraceEvent::Acquire(t(1), o(5), LockMode::Write));
        feed(&mut a, 3, TraceEvent::Commit(t(1)));
        feed(&mut a, 3, TraceEvent::LocksReleased(t(1), 1));
        assert!(a.report().is_clean(), "{}", a.report().render());
    }

    #[test]
    fn deadlock_under_immediate_restart_is_illegal() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::ImmediateRestart));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(
            &mut a,
            2,
            TraceEvent::Deadlock {
                detector: t(1),
                victim: t(1),
            },
        );
        let r = a.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("illegal under immediate-restart")));
    }

    #[test]
    fn validation_failure_under_blocking_is_illegal() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::ValidationFailure(t(1), o(3)));
        let r = a.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("illegal under blocking")));
    }

    #[test]
    fn spontaneous_restart_under_optimistic_is_flagged() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Restart(t(1)));
        let r = a.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("spontaneous restart")));
    }

    #[test]
    fn mvcc_commit_lifecycle_is_clean_and_installation_is_obligatory() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::MvccSi));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Commit(t(1)));
        feed(&mut a, 2, TraceEvent::VersionInstalled(t(1), 2));
        assert!(a.report().is_clean(), "{}", a.report().render());

        // A commit whose installation never arrives breaks the obligation.
        let mut b = Auditor::new(&cfg(CcAlgorithm::MvccSi));
        feed(&mut b, 1, TraceEvent::Arrive(t(1)));
        feed(&mut b, 1, TraceEvent::Admit(t(1)));
        feed(&mut b, 2, TraceEvent::Commit(t(1)));
        feed(&mut b, 3, TraceEvent::Arrive(t(11)));
        assert!(b
            .report()
            .violations
            .iter()
            .any(|v| v.message.contains("expected VersionInstalled")));
    }

    #[test]
    fn version_installed_outside_mvcc_is_illegal() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::SiloOcc));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Commit(t(1)));
        feed(&mut a, 2, TraceEvent::VersionInstalled(t(1), 1));
        assert!(a
            .report()
            .violations
            .iter()
            .any(|v| v.message.contains("illegal under silo-occ")));
    }

    #[test]
    fn validation_failure_is_legal_for_the_modern_trio() {
        for algo in CcAlgorithm::MODERN_TRIO {
            let mut a = Auditor::new(&cfg(algo));
            feed(&mut a, 1, TraceEvent::Arrive(t(1)));
            feed(&mut a, 1, TraceEvent::Admit(t(1)));
            feed(&mut a, 2, TraceEvent::ValidationFailure(t(1), o(3)));
            feed(&mut a, 2, TraceEvent::Restart(t(1)));
            assert!(a.report().is_clean(), "{algo}: {}", a.report().render());
        }
    }

    #[test]
    fn blocking_events_are_illegal_for_the_modern_trio() {
        for algo in CcAlgorithm::MODERN_TRIO {
            let mut a = Auditor::new(&cfg(algo));
            feed(&mut a, 1, TraceEvent::Arrive(t(1)));
            feed(&mut a, 1, TraceEvent::Admit(t(1)));
            feed(&mut a, 2, TraceEvent::Block(t(1), o(7)));
            assert!(a
                .report()
                .violations
                .iter()
                .any(|v| v.message.contains("illegal under")));
        }
    }

    #[test]
    fn history_facts_in_place_are_clean() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(
            &mut a,
            3,
            TraceEvent::Read(t(1), o(5), SimTime::from_secs(2)),
        );
        feed(&mut a, 4, TraceEvent::Publish(t(1), o(5)));
        feed(
            &mut a,
            4,
            TraceEvent::CommitPoint(t(1), SimTime::from_secs(3)),
        );
        feed(&mut a, 4, TraceEvent::Commit(t(1)));
        assert!(a.report().is_clean(), "{}", a.report().render());
    }

    #[test]
    fn read_outside_its_attempt_is_flagged() {
        // Before admission: no attempt is running yet.
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(
            &mut a,
            1,
            TraceEvent::Read(t(1), o(5), SimTime::from_secs(1)),
        );
        assert!(a.report().violations[0]
            .message
            .contains("outside its attempt"));
        // After the restart that ended the attempt.
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::ValidationFailure(t(1), o(5)));
        feed(&mut a, 2, TraceEvent::Restart(t(1)));
        feed(
            &mut a,
            3,
            TraceEvent::Read(t(1), o(5), SimTime::from_secs(3)),
        );
        assert_eq!(a.report().total, 1, "{}", a.report().render());
        // An instant before the admission, or past the event itself.
        for read_at in [0, 4] {
            let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
            feed(&mut a, 1, TraceEvent::Arrive(t(1)));
            feed(&mut a, 1, TraceEvent::Admit(t(1)));
            feed(
                &mut a,
                3,
                TraceEvent::Read(t(1), o(5), SimTime::from_secs(read_at)),
            );
            assert!(
                a.report().violations[0]
                    .message
                    .contains("outside the attempt"),
                "{}",
                a.report().render()
            );
        }
        // Snapshot isolation reads as of the admission, never later.
        let mut a = Auditor::new(&cfg(CcAlgorithm::MvccSi));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(
            &mut a,
            3,
            TraceEvent::Read(t(1), o(5), SimTime::from_secs(1)),
        );
        assert!(a.report().is_clean(), "{}", a.report().render());
        feed(
            &mut a,
            3,
            TraceEvent::Read(t(1), o(6), SimTime::from_secs(3)),
        );
        assert_eq!(a.report().total, 1, "{}", a.report().render());
    }

    #[test]
    fn publication_or_commit_point_away_from_its_commit_is_flagged() {
        let start = |a: &mut Auditor| {
            for i in [1, 2] {
                feed(a, 1, TraceEvent::Arrive(t(i)));
                feed(a, 1, TraceEvent::Admit(t(i)));
            }
        };
        // A publication followed by another transaction's event.
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        start(&mut a);
        feed(&mut a, 2, TraceEvent::Publish(t(1), o(5)));
        feed(&mut a, 2, TraceEvent::Publish(t(2), o(6)));
        assert!(a.report().violations[0]
            .message
            .contains("expected Publish or CommitPoint for txn1"));
        // A commit point not followed by its commit.
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        start(&mut a);
        feed(
            &mut a,
            2,
            TraceEvent::CommitPoint(t(1), SimTime::from_secs(2)),
        );
        feed(
            &mut a,
            2,
            TraceEvent::Read(t(1), o(5), SimTime::from_secs(2)),
        );
        assert!(a.report().violations[0]
            .message
            .contains("expected Commit for txn1"));
        // A publication straight to the commit, skipping the commit point.
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        start(&mut a);
        feed(&mut a, 2, TraceEvent::Publish(t(1), o(5)));
        feed(&mut a, 2, TraceEvent::Commit(t(1)));
        assert_eq!(a.report().total, 1, "{}", a.report().render());
        // A publication from a transaction not in an attempt.
        let mut a = Auditor::new(&cfg(CcAlgorithm::Optimistic));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 2, TraceEvent::Publish(t(1), o(5)));
        assert!(a.report().violations[0].message.contains("Queued"));
    }

    #[test]
    fn violation_context_carries_recent_events() {
        let mut a = Auditor::new(&cfg(CcAlgorithm::Blocking));
        feed(&mut a, 1, TraceEvent::Arrive(t(1)));
        feed(&mut a, 1, TraceEvent::Admit(t(1)));
        feed(&mut a, 2, TraceEvent::Block(t(1), o(7)));
        feed(&mut a, 3, TraceEvent::Commit(t(1)));
        let r = a.report();
        let v = &r.violations[0];
        assert!(v.context.contains("txn1 blocks on obj7"));
        assert!(v.context.contains("txn1 commits"));
        assert!(r.render().contains("txn1 blocks on obj7"));
    }
}
