//! Per-layer measurements for the traced run, taken from outside the
//! engine: a recording [`EventSink`] keeps the event counts and the lock
//! call stream of each run, the lock stream is replayed into a fresh
//! [`LockManager`], and each remaining layer is driven through its public
//! API at the workload's parameters.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ccsim_core::{EventSink, FlowStats, Report, TraceEvent};
use ccsim_des::{Calendar, ExpBlock, SimDuration, SimTime, Xoshiro256StarStar};
use ccsim_lockmgr::{Grant, LockManager, LockMode, RequestOutcome};
use ccsim_occ::Validator;
use ccsim_workload::{Generator, ObjId, Params, TxnId};

/// What a [`Recorder`] kept of one run.
#[derive(Debug, Default)]
pub struct Recording {
    /// The lock-manager call stream (`Acquire`, `Block`, `Grant`,
    /// `Deadlock`, `Restart`, `LocksReleased`) in emission order; empty
    /// unless the recorder was asked to keep it.
    pub locks: Vec<TraceEvent>,
    keep_locks: bool,
    /// `Arrive` events: one generated transaction spec each.
    pub arrivals: u64,
    /// `Commit` events.
    pub commits: u64,
    /// `Block` events.
    pub blocks: u64,
    /// `Deadlock` events.
    pub deadlocks: u64,
    /// `ValidationFailure` events.
    pub validation_failures: u64,
    /// The final simulated instant and the resource flow totals, from
    /// [`EventSink::on_run_end`].
    pub end: Option<(SimTime, FlowStats)>,
}

/// An in-memory recording sink; the shared handle returned by
/// [`Recorder::new`] reads the recording after the run.
pub struct Recorder(Rc<RefCell<Recording>>);

impl Recorder {
    /// A recorder, keeping the lock call stream when `keep_locks`.
    #[must_use]
    pub fn new(keep_locks: bool) -> (Self, Rc<RefCell<Recording>>) {
        let rec = Rc::new(RefCell::new(Recording {
            keep_locks,
            ..Recording::default()
        }));
        (Recorder(Rc::clone(&rec)), rec)
    }
}

impl EventSink for Recorder {
    fn on_event(&mut self, _now: SimTime, event: &TraceEvent) {
        let mut r = self.0.borrow_mut();
        match event {
            TraceEvent::Arrive(_) => r.arrivals += 1,
            TraceEvent::Commit(_) => r.commits += 1,
            TraceEvent::Block(..) => r.blocks += 1,
            TraceEvent::Deadlock { .. } => r.deadlocks += 1,
            TraceEvent::ValidationFailure(..) => r.validation_failures += 1,
            _ => {}
        }
        let lock_call = matches!(
            event,
            TraceEvent::Acquire(..)
                | TraceEvent::Block(..)
                | TraceEvent::Grant(..)
                | TraceEvent::Deadlock { .. }
                | TraceEvent::Restart(_)
                | TraceEvent::LocksReleased(..)
        );
        if r.keep_locks && lock_call {
            r.locks.push(*event);
        }
    }

    fn on_run_end(&mut self, now: SimTime, _report: &Report, flow: &FlowStats) {
        self.0.borrow_mut().end = Some((now, *flow));
    }
}

/// Calls made to one entry point and the time spent in them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    /// Number of calls.
    pub calls: u64,
    /// Total time inside the calls, clock reads included.
    pub total: Duration,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.total += t0.elapsed();
        self.calls += 1;
        r
    }

    /// Mean nanoseconds per call, less `clock`, the cost of the clock
    /// reads that bracket each call.
    #[must_use]
    pub fn mean_ns(&self, clock: Duration) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let per = self.total.as_secs_f64() * 1e9 / self.calls as f64;
        (per - clock.as_secs_f64() * 1e9).max(0.0)
    }
}

/// The cost of the clock reads [`Calls`] adds to each timed call.
#[must_use]
pub fn clock_overhead() -> Duration {
    let mut c = Calls::default();
    for _ in 0..100_000 {
        c.time(|| black_box(0u64));
    }
    c.total / 100_000
}

/// The result of replaying one run's lock stream.
#[derive(Debug, Default)]
pub struct LockReplay {
    /// Lock requests replayed (`Acquire` plus `Block`).
    pub requests: u64,
    /// Requests that queued.
    pub blocks: u64,
    /// Deadlocks the replayed probes found.
    pub deadlocks: u64,
    /// Outcomes, grants, lock counts or probe results that differ from the
    /// recording.
    pub mismatches: u64,
    /// [`LockManager::request`] calls.
    pub request: Calls,
    /// [`LockManager::release_all_into`] calls.
    pub release: Calls,
    /// [`LockManager::find_deadlock`] calls.
    pub probe: Calls,
}

impl LockReplay {
    fn mismatch_if(&mut self, differs: bool) {
        self.mismatches += u64::from(differs);
    }

    fn probe(&mut self, lm: &LockManager, txn: TxnId) -> Option<Vec<TxnId>> {
        self.probe.time(|| lm.find_deadlock(txn))
    }

    fn request(
        &mut self,
        lm: &mut LockManager,
        txn: TxnId,
        obj: ObjId,
        mode: LockMode,
        want: RequestOutcome,
    ) {
        self.requests += 1;
        let got = self.request.time(|| lm.request(txn, obj, mode));
        self.mismatch_if(got != want);
    }
}

/// Replay a blocking run's lock stream (see [`Recording::locks`]) into a
/// fresh `LockManager::with_capacity(db_size, terms)`, making the calls the
/// engine made and comparing every outcome with the recording.
///
/// The stream does not carry the mode of a blocked request: it is `Write`
/// when the transaction already holds the object as `Read` (a queued
/// upgrade, since the write set is a subset of the read set), else `Read`.
/// The engine probes for a deadlock right after each block, and again after
/// each victim's release while the detector still waits; a probe that
/// finds nothing leaves no event, so the replay makes those probes at the
/// same points and expects them to find nothing.
#[must_use]
pub fn replay_locks(stream: &[TraceEvent], db_size: usize, terms: usize) -> LockReplay {
    let mut lm = LockManager::with_capacity(db_size, terms);
    let mut r = LockReplay::default();
    let mut released: Vec<Grant> = Vec::new();
    let mut next_grant = 0usize;
    let mut reprobe: Option<TxnId> = None;
    for (i, ev) in stream.iter().enumerate() {
        if !matches!(ev, TraceEvent::Grant(..)) {
            // The grant cascade of the last release ends here.
            r.mismatches += released.len().saturating_sub(next_grant) as u64;
            released.clear();
            next_grant = 0;
        }
        if let Some(t) = reprobe {
            let cascade = matches!(
                ev,
                TraceEvent::Restart(_) | TraceEvent::LocksReleased(..) | TraceEvent::Grant(..)
            );
            if !cascade {
                reprobe = None;
                let found_again =
                    matches!(ev, TraceEvent::Deadlock { detector, .. } if *detector == t);
                if !found_again && lm.waiting_on(t).is_some() {
                    let cycle = r.probe(&lm, t);
                    r.mismatch_if(cycle.is_some());
                }
            }
        }
        match *ev {
            TraceEvent::Acquire(t, o, m) => r.request(&mut lm, t, o, m, RequestOutcome::Granted),
            TraceEvent::Block(t, o) => {
                let mode = if lm.holds(t, o) == Some(LockMode::Read) {
                    LockMode::Write
                } else {
                    LockMode::Read
                };
                r.blocks += 1;
                r.request(&mut lm, t, o, mode, RequestOutcome::Queued);
                let detected = matches!(
                    stream.get(i + 1),
                    Some(TraceEvent::Deadlock { detector, .. }) if *detector == t
                );
                if !detected {
                    let cycle = r.probe(&lm, t);
                    r.mismatch_if(cycle.is_some());
                }
            }
            TraceEvent::Deadlock { detector, victim } => {
                let cycle = r.probe(&lm, detector);
                r.mismatch_if(!cycle.is_some_and(|c| c.contains(&victim)));
                r.deadlocks += 1;
                reprobe = Some(detector);
            }
            TraceEvent::LocksReleased(t, n) => {
                r.mismatch_if(lm.locks_held(t) != n as usize);
                r.release.time(|| lm.release_all_into(t, &mut released));
            }
            TraceEvent::Grant(txn, obj, mode) => {
                r.mismatch_if(released.get(next_grant) != Some(&Grant { txn, obj, mode }));
                next_grant += 1;
            }
            _ => {}
        }
    }
    r.mismatches += released.len().saturating_sub(next_grant) as u64;
    if let Some(t) = reprobe {
        if lm.waiting_on(t).is_some() {
            let cycle = r.probe(&lm, t);
            r.mismatch_if(cycle.is_some());
        }
    }
    r
}

/// Hold model of the event calendar: `population` pending events, each
/// operation pops the earliest and schedules one at `now` plus an
/// exponential increment of mean `population × spacing` (which keeps the
/// population steady at the recorded event spacing). Returns the timing of
/// `ops` pop+schedule pairs.
#[must_use]
pub fn calendar_hold(population: usize, spacing: SimDuration, ops: u64, seed: u64) -> Calls {
    let mean_us = (spacing.as_micros().max(1)).saturating_mul(population.max(1) as u64);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut incs = vec![SimDuration::ZERO; 1 << 16];
    ExpBlock::new(SimDuration::from_micros(mean_us)).fill(&mut rng, &mut incs);
    let mut cal: Calendar<u32> = Calendar::new();
    for (i, &d) in incs.iter().cycle().take(population.max(1)).enumerate() {
        cal.schedule(SimTime::ZERO + d, i as u32);
    }
    let mask = incs.len() - 1;
    let t0 = Instant::now();
    for k in 0..ops {
        let (now, e) = cal.pop().expect("the hold model keeps its population");
        cal.schedule(now + incs[k as usize & mask], black_box(e));
    }
    Calls {
        calls: ops,
        total: t0.elapsed(),
    }
}

/// `draws` batched exponential variates ([`ExpBlock::sample`]) of mean
/// `mean`.
#[must_use]
pub fn exp_variates(mean: SimDuration, draws: u64, seed: u64) -> Calls {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut block = ExpBlock::new(mean);
    let mut sum = 0u64;
    let t0 = Instant::now();
    for _ in 0..draws {
        sum = sum.wrapping_add(block.sample(&mut rng).as_micros());
    }
    black_box(sum);
    Calls {
        calls: draws,
        total: t0.elapsed(),
    }
}

/// `specs` transaction specs from a [`Generator`] at `params`, recycling
/// the spec buffers the way the engine does.
#[must_use]
pub fn generate_specs(params: &Params, specs: u64, seed: u64) -> Calls {
    let mut gen = Generator::new(params, Xoshiro256StarStar::seed_from_u64(seed));
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for _ in 0..specs {
        let (_, spec) = gen.next_spec_with_class_reusing(reads, writes);
        (reads, writes) = black_box(spec).into_parts();
    }
    Calls {
        calls: specs,
        total: t0.elapsed(),
    }
}

/// `ops` optimistic validations ([`Validator::validate`], plus
/// [`Validator::commit`] on success) of generated read sets at `params`.
/// Attempt `k` commits at tick `k + mpl` and started at tick `k`, so each
/// validation overlaps the `mpl` commits before it.
#[must_use]
pub fn validations(params: &Params, ops: u64, seed: u64) -> Calls {
    let mut gen = Generator::new(params, Xoshiro256StarStar::seed_from_u64(seed));
    let pool: Vec<(Vec<ObjId>, Vec<ObjId>)> = (0..4096)
        .map(|_| {
            let spec = gen.next_spec();
            let writes = spec.write_objs().collect();
            (spec.into_parts().0, writes)
        })
        .collect();
    let mut v = Validator::with_capacity(params.db_size as usize);
    let mpl = u64::from(params.mpl);
    let t0 = Instant::now();
    for k in 0..ops {
        let (reads, writes) = &pool[k as usize % pool.len()];
        if v.validate(SimTime(k), reads).is_ok() {
            v.commit(SimTime(k + mpl), writes.iter().copied());
        }
    }
    black_box(v.counters());
    Calls {
        calls: ops,
        total: t0.elapsed(),
    }
}
