//! The simulation engine: the paper's closed queuing model (Figures 1–2).
//!
//! Transactions originate at terminals, wait in the *ready queue* for one of
//! `mpl` active slots, then execute their step program, visiting the
//! concurrency-control, object, and update queues. Conflicts block or
//! restart them according to the configured algorithm; commits return them
//! to their terminal for an external think time.
//!
//! One method drives every run: [`Simulator::run_collecting`] runs the
//! event loop until the configured batches finish or the
//! [`crate::RunBudget`] stops it, and returns a [`RunOutcome`] holding the
//! report, the stop reason and the engine counters.
//! [`RunOutcome::finished`] turns a budget stop into an error, and [`run`]
//! is `Simulator::new(cfg)?.run_collecting().finished()`.
//!
//! Every observer of a run — the trace ring, the history recorder, an
//! invariant auditor, custom instrumentation — is an [`EventSink`]
//! attached with [`Simulator::add_sink`] before the run; the engine knows
//! none of them by name. With no sink attached it emits nothing: `emit` is
//! one predicted branch, and the facts only a history needs (each read's
//! version instant, each published write, the commit point) are gathered
//! in `#[cold]` helpers behind the same flag.

use std::collections::VecDeque;

use ccsim_des::{
    sample_exponential, Calendar, CalendarStats, ExpBlock, Exponential, RngStreams, SimDuration,
    SimTime, UniformBlock, Xoshiro256StarStar,
};
use ccsim_lockmgr::{Grant, LockManager, LockMode, RequestOutcome};
use ccsim_occ::Validator;
use ccsim_resources::{DiskArray, Request, ServerPool};
use ccsim_stats::RunningAvg;
use ccsim_tso::{
    ReadOutcome as TsoRead, TicTocManager, TsoManager, TtWord, WriteOutcome as TsoWrite,
};
use ccsim_workload::{Generator, ObjId, ParamError, ResourceSpec, RestartDelayPolicy, TxnId};

use crate::algorithm::{CcAlgorithm, VictimPolicy};
use crate::arena::{ServiceRun, TxnArena};
use crate::budget::{BudgetKind, RunError};
use crate::config::SimConfig;
use crate::metrics::{Metrics, Report};
use crate::profiler::{Stage, StageProfile, StageProfiler};
use crate::sink::{CenterFlow, EventSink, FlowStats};
use crate::trace::TraceEvent;
use crate::txn::{Step, TxnState};

/// RNG stream ids (stable; see `ccsim_des::RngStreams`).
mod streams {
    pub const WORKLOAD: u64 = 0;
    pub const EXT_THINK: u64 = 1;
    pub const DELAYS: u64 = 2;
    pub const DISKS: u64 = 3;
}

/// Payload carried through the resource pools: terminal index + attempt
/// epoch (stale completions are dropped by epoch comparison).
pub(crate) type Payload = (usize, u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServiceKind {
    Cpu,
    Io,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DelayKind {
    IntThink,
    Restart,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A terminal submits a new transaction.
    Arrive(usize),
    /// A CPU server finished a request; the request rides in the event
    /// (the pool holds only queued requests).
    CpuDone {
        /// Server the request occupied.
        server: u32,
        /// Submitting terminal.
        term: u32,
        /// Attempt epoch (stale completions are dropped by comparison).
        epoch: u32,
    },
    /// A disk finished an I/O; the request rides in the event.
    DiskDone {
        /// Disk the I/O occupied.
        disk: u32,
        /// Submitting terminal.
        term: u32,
        /// Attempt epoch.
        epoch: u32,
    },
    /// Under infinite resources: a whole service run completed (see
    /// [`Simulator::inf_done`]).
    InfDone(usize, u32),
    /// An internal-think or restart delay elapsed.
    Delay(usize, u32, DelayKind),
    /// A batch boundary.
    BatchEnd,
}

impl Event {
    /// The terminal the event is addressed to, if any.
    #[inline]
    fn term(self) -> Option<usize> {
        match self {
            Event::Arrive(term) | Event::InfDone(term, _) | Event::Delay(term, ..) => Some(term),
            Event::CpuDone { term, .. } | Event::DiskDone { term, .. } => Some(term as usize),
            Event::BatchEnd => None,
        }
    }
}

/// Why a transaction is being aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortCause {
    /// Deadlock victim (blocking algorithm).
    Deadlock,
    /// Lock denial (immediate-restart / no-waiting).
    Denial,
    /// Failed optimistic validation.
    Validation,
    /// Wounded by an older transaction (wound-wait).
    Wounded,
    /// Died on conflict with an older holder (wait-die).
    Died,
    /// A timestamp-ordering operation arrived too late (basic T/O).
    TsRejected,
}

/// Outcome of a concurrency-control request from the requester's viewpoint.
enum CcAction {
    /// Lock granted: continue to the next step.
    Proceed,
    /// The requester blocked (or was handled entirely elsewhere — e.g.
    /// granted or restarted during deadlock resolution); stop dispatching.
    Suspend,
}

/// The simulator. Construct with [`Simulator::new`], attach observers with
/// [`Simulator::add_sink`], drive with [`Simulator::run_collecting`], or
/// use the convenience [`run`].
pub struct Simulator {
    cfg: SimConfig,
    cal: Calendar<Event>,
    arena: TxnArena,
    generator: Generator,
    /// Spec buffers recycled through the generator so the steady-state
    /// arrival path allocates nothing (and the RNG draw order matches the
    /// pre-arena engine exactly).
    scratch_reads: Vec<ObjId>,
    scratch_writes: Vec<bool>,
    think_rng: Xoshiro256StarStar,
    delay_rng: Xoshiro256StarStar,
    disk_rng: Xoshiro256StarStar,
    /// External think times come from a dedicated stream with a single
    /// fixed-mean consumer, so they are drawn through the batched sampler.
    ext_think: ExpBlock,
    /// Internal think times share `delay_rng` with the (varying-mean)
    /// restart delays, so they stay on the scalar path: a per-distribution
    /// batch buffer would reorder draws across the stream's consumers.
    int_think: Exponential,
    /// Uniform disk choice, batched over the dedicated `disk_rng` stream.
    disk_pick: UniformBlock,
    lockmgr: LockManager,
    /// Backward validation for optimistic, silo-occ and mvcc-si.
    validator: Validator,
    tso: TsoManager,
    tictoc: TicTocManager,
    /// Scratch `(object, observed word)` pairs for TicToc validation,
    /// reused across commits so the hot path never allocates.
    tt_scratch: Vec<(ObjId, TtWord)>,
    /// Scratch write-set list for the TicToc commit and the commit facts
    /// (the arena stores the write set as a mask over the readset); same
    /// reuse discipline.
    ws_scratch: Vec<ObjId>,
    cpus: Option<ServerPool<Payload>>,
    disks: Option<DiskArray<Payload>>,
    ready: VecDeque<usize>,
    active: usize,
    metrics: Metrics,
    resp_avg: RunningAvg,
    /// The observers of the event stream (see [`EventSink`]).
    sinks: Vec<Box<dyn EventSink>>,
    /// The instant of the event being handled (the run's end time once the
    /// loop finishes).
    now: SimTime,
    /// Test hook: when set, the next commit skips its lock release — an
    /// injected conservation violation that an auditor must catch.
    #[cfg(feature = "test-hooks")]
    leak_next_commit: bool,
    next_serial: u64,
    /// Transactions to dispatch before the next calendar event: `(terminal,
    /// epoch)`. Deferring dispatches through this queue instead of recursing
    /// keeps grant/abort cascades at bounded stack depth.
    work: VecDeque<(usize, u32)>,
    done: bool,
    /// Cached `!sinks.is_empty()` so [`Simulator::emit`] is a single
    /// predictable branch when nothing observes the run.
    observed: bool,
    /// Scratch buffer for lock-release grant cascades, reused across events.
    grant_buf: Vec<Grant>,
    /// Scratch buffer for blocker queries (wait-die / wound-wait), reused
    /// across events.
    blocker_buf: Vec<TxnId>,
    /// Events handled so far (the run's total once the loop finishes).
    events: u64,
    /// CPU requests that found a server idle and started at submit.
    started_cpu: u64,
    /// Disk requests that found their disk idle and started at submit.
    started_disk: u64,
    /// Wall-clock time spent in the event loop.
    run_wall: std::time::Duration,
    /// Per-stage cycle accounting over the event loop. Zero-sized with
    /// every call site an empty inline body unless the `stage-profiler`
    /// feature is on, so the steady-state loop normally carries none of it.
    prof: StageProfiler,
}

/// Engine-level performance counters for a completed (or budget-stopped)
/// run: the raw material for events/sec reporting. Deliberately separate
/// from [`Report`] so enabling perf readout cannot perturb experiment
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfStats {
    /// Calendar events handled.
    pub events: u64,
    /// Wall-clock time spent in the event loop.
    pub wall: std::time::Duration,
    /// Peak number of pending calendar events (exact high-water mark).
    pub peak_calendar: usize,
    /// Peak number of locks held in the lock table at once.
    pub peak_lock_table: usize,
    /// Calendar operation counters: schedules, pops, and the near-lane vs
    /// overflow-heap split (`cancels` is always 0).
    pub calendar: CalendarStats,
    /// CPU requests that found a server idle and started at submit, never
    /// queueing.
    pub elided_cpu_hops: u64,
    /// Disk requests that found their disk idle and started at submit,
    /// never queueing.
    pub elided_disk_hops: u64,
}

impl PerfStats {
    /// Events handled per wall-clock second (0 if no time elapsed).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

impl Simulator {
    /// Build a simulator for `cfg`.
    ///
    /// # Errors
    /// Returns [`ParamError`] if the configuration fails validation.
    pub fn new(cfg: SimConfig) -> Result<Self, ParamError> {
        cfg.validate()?;
        check_footprint(&cfg)?;
        // Workload-facing streams (arrivals, think times, access patterns,
        // disk selection) come from `workload_seed` when set, so paired
        // runs of different algorithms can share one transaction mix
        // (common random numbers); control-side streams (restart delays)
        // always come from `seed`.
        let workload_streams = RngStreams::new(cfg.workload_seed.unwrap_or(cfg.seed));
        let streams = RngStreams::new(cfg.seed);
        let params = &cfg.params;
        let (cpus, disks, ncpu, ndisk) = match params.resources {
            ResourceSpec::Infinite => (None, None, 0, 0),
            ResourceSpec::Physical {
                num_cpus,
                num_disks,
            } => (
                Some(ServerPool::new(num_cpus as usize)),
                Some(DiskArray::new(num_disks as usize)),
                num_cpus,
                num_disks,
            ),
        };
        let generator = Generator::new(params, workload_streams.stream(streams::WORKLOAD));
        let metrics = Metrics::new(cfg.metrics, ncpu, ndisk, generator.num_classes());
        let db_size = params.db_size as usize;
        let num_terms = params.num_terms as usize;
        let txn_cap = readset_cap(params);
        Ok(Simulator {
            generator,
            scratch_reads: Vec::new(),
            scratch_writes: Vec::new(),
            think_rng: workload_streams.stream(streams::EXT_THINK),
            delay_rng: streams.stream(streams::DELAYS),
            disk_rng: workload_streams.stream(streams::DISKS),
            ext_think: ExpBlock::new(params.ext_think_time),
            int_think: Exponential::new(params.int_think_time),
            disk_pick: UniformBlock::new(u64::from(ndisk.max(1))),
            lockmgr: LockManager::with_capacity(db_size, num_terms),
            validator: Validator::with_capacity(db_size),
            tso: TsoManager::new(),
            tictoc: TicTocManager::new(),
            tt_scratch: Vec::new(),
            ws_scratch: Vec::new(),
            cpus,
            disks,
            arena: TxnArena::new(
                num_terms,
                txn_cap,
                cfg.algorithm.program_shape(),
                !params.int_think_time.is_zero(),
                cfg.algorithm == CcAlgorithm::TicToc,
            ),
            ready: VecDeque::new(),
            active: 0,
            cal: if cfg.two_tier_calendar {
                Calendar::new()
            } else {
                Calendar::heap_only()
            },
            resp_avg: RunningAvg::new(params.expected_service_time()),
            sinks: Vec::new(),
            now: SimTime::ZERO,
            #[cfg(feature = "test-hooks")]
            leak_next_commit: false,
            next_serial: 0,
            work: VecDeque::new(),
            metrics,
            done: false,
            observed: false,
            grant_buf: Vec::new(),
            blocker_buf: Vec::new(),
            events: 0,
            started_cpu: 0,
            started_disk: 0,
            run_wall: std::time::Duration::ZERO,
            prof: StageProfiler::new(),
            cfg,
        })
    }

    /// Register an additional observer of the engine's event stream. Sinks
    /// see every emitted event (warmup included) in simulation order and
    /// receive the final report plus flow statistics when the run ends.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
        self.observed = true;
    }

    /// The configuration this simulator was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Test hook (`test-hooks` feature): make the next commit *leak* its
    /// locks — the release step is skipped and no `LocksReleased` event is
    /// emitted. This deliberately breaks lock conservation so tests can
    /// verify an attached auditor catches it.
    #[cfg(feature = "test-hooks")]
    pub fn inject_lock_leak(&mut self) {
        self.leak_next_commit = true;
    }

    #[cfg(feature = "test-hooks")]
    fn take_lock_leak(&mut self) -> bool {
        std::mem::take(&mut self.leak_next_commit)
    }

    #[cfg(not(feature = "test-hooks"))]
    fn take_lock_leak(&mut self) -> bool {
        false
    }

    fn run_loop(&mut self) -> Result<(), RunError> {
        let budget = self.cfg.budget;
        let started = std::time::Instant::now();
        self.prime();
        self.prof.start(Stage::Pop);
        let result = loop {
            if self.done {
                break Ok(());
            }
            let Some((now, ev)) = self.cal.pop() else {
                break Ok(());
            };
            if let Err(err) = self.count_event(now, budget) {
                break Err(err);
            }
            self.now = now;
            self.prof.switch(Stage::Handle);
            self.handle(now, ev);
            self.prof.switch(Stage::Pop);
        };
        self.prof.stop();
        self.run_wall = started.elapsed();
        result
    }

    /// Count the event about to run at `now` and check the run budget's
    /// event and sim-time ceilings. On a trip the event is not run and the
    /// error carries the stop point.
    #[inline]
    fn count_event(&mut self, now: SimTime, budget: crate::RunBudget) -> Result<(), RunError> {
        self.events += 1;
        let events = self.events;
        let exceeded = if budget.max_events.is_some_and(|cap| events > cap) {
            BudgetKind::Events
        } else if budget
            .max_sim_time
            .is_some_and(|cap| now.since(SimTime::ZERO) > cap)
        {
            BudgetKind::SimTime
        } else {
            return Ok(());
        };
        Err(RunError::BudgetExhausted {
            exceeded,
            events,
            sim_time: now,
        })
    }

    /// Run until completion *or* budget exhaustion, salvaging whatever was
    /// measured either way: a budget stop is reported in
    /// [`RunOutcome::stopped`] next to the partial report and perf
    /// counters, and every sink has seen the run up to the stop — the
    /// scale regime runs to a simulated-time ceiling and still wants its
    /// observables. Use [`RunOutcome::finished`] when a budget stop is a
    /// failure.
    #[must_use]
    pub fn run_collecting(mut self) -> RunOutcome {
        let stopped = self.run_loop().err();
        let report = self.finish();
        RunOutcome {
            report,
            stopped,
            perf: PerfStats {
                events: self.events,
                wall: self.run_wall,
                peak_calendar: self.cal.peak_len(),
                peak_lock_table: self.lockmgr.peak_locks_in_table(),
                calendar: self.cal.stats(),
                elided_cpu_hops: self.started_cpu,
                elided_disk_hops: self.started_disk,
            },
            stages: self.prof.report(),
        }
    }

    /// Close out a finished run: compute the report and flow statistics and
    /// notify every sink.
    fn finish(&mut self) -> Report {
        let report = self.metrics.report();
        let now = self.now;
        let flow = self.flow_stats(now);
        for sink in &mut self.sinks {
            sink.on_run_end(now, &report, &flow);
        }
        report
    }

    fn flow_stats(&self, now: SimTime) -> FlowStats {
        FlowStats {
            horizon_us: now.since(SimTime::ZERO).as_micros(),
            cpu: self.cpus.as_ref().map(|p| CenterFlow {
                servers: p.num_servers(),
                busy_us: p.busy_micros(now),
                served: p.served(),
                queue_integral_us: p.queue_integral_us(now),
                total_wait_us: p.total_wait_us(),
                pending_wait_us: p.pending_wait_us(now),
            }),
            disk: self.disks.as_ref().map(|d| CenterFlow {
                servers: d.num_disks(),
                busy_us: d.busy_micros(now),
                served: d.served(),
                queue_integral_us: d.queue_integral_us(now),
                total_wait_us: d.total_wait_us(),
                pending_wait_us: d.pending_wait_us(now),
            }),
        }
    }

    fn prime(&mut self) {
        for term in 0..self.arena.num_terms() {
            let at = SimTime::ZERO + self.ext_think.sample(&mut self.think_rng);
            self.cal.schedule(at, Event::Arrive(term));
        }
        self.cal
            .schedule(SimTime::ZERO + self.cfg.metrics.batch_time, Event::BatchEnd);
    }

    // Inlined into the event loop: left to the inliner, the handler's
    // size with the infinite-resource run arm tips it out of line, and an
    // out-of-line handler slowed the physical-resource loop by about 10%
    // (ccbench `ref-1x2`, 2-core x86-64).
    #[inline(always)]
    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrive(term) => {
                self.prefetch_next_event();
                self.on_arrive(term, now);
            }
            Event::BatchEnd => self.on_batch_end(now),
            Event::CpuDone {
                server,
                term,
                epoch,
            } => {
                let pool = self.cpus.as_mut().expect("CpuDone without CPU pool");
                if let Some((s, (next_term, next_epoch))) = pool.complete(now, server as usize) {
                    self.cal
                        .schedule(s.completes_at, cpu_done(s.server, next_term, next_epoch));
                }
                self.service_done((term as usize, epoch), ServiceKind::Cpu, now);
            }
            Event::DiskDone { disk, term, epoch } => {
                let array = self.disks.as_mut().expect("DiskDone without disk array");
                if let Some((s, (next_term, next_epoch))) = array.complete(now, disk as usize) {
                    self.cal
                        .schedule(s.completes_at, disk_done(s.disk, next_term, next_epoch));
                }
                self.service_done((term as usize, epoch), ServiceKind::Io, now);
            }
            Event::InfDone(term, epoch) => {
                self.prefetch_next_event();
                self.inf_done(term, epoch, now);
            }
            Event::Delay(term, epoch, kind) => self.on_delay_done(term, epoch, kind, now),
        }
        self.prof.switch(Stage::Dispatch);
        self.drain_work(now);
        self.prof.switch(Stage::Handle);
    }

    /// Look one event ahead: start pulling the next event's terminal state
    /// into cache, so its misses overlap this event's work instead of
    /// stalling the next one. Called from the `Arrive` and `InfDone` arms,
    /// the event kinds of the infinite-resource scale point (see DESIGN §7,
    /// "One event loop"); a pure hint, so nothing it does is observable.
    #[inline]
    fn prefetch_next_event(&self) {
        if let Some(term) = self.cal.peek().and_then(|(_, ev)| ev.term()) {
            self.arena.prefetch(term);
        }
    }

    /// Mark `term`'s transaction as ready to continue at the current
    /// instant. The actual dispatch happens from [`Simulator::drain_work`],
    /// which bounds stack depth under long grant/abort cascades.
    fn enqueue_dispatch(&mut self, term: usize) {
        let epoch = self.arena.get(term).expect("live txn").epoch;
        self.work.push_back((term, epoch));
    }

    fn drain_work(&mut self, now: SimTime) {
        while let Some((term, epoch)) = self.work.pop_front() {
            let Some(txn) = self.arena.get(term) else {
                continue;
            };
            // Skip work for attempts that restarted (epoch moved on) or
            // transactions that are no longer runnable (e.g. wounded after
            // being granted a lock but before being dispatched).
            if txn.epoch != epoch || txn.state != TxnState::Running {
                continue;
            }
            self.dispatch(term, now);
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, term: usize, now: SimTime) {
        let id = TxnId(self.next_serial * self.arena.num_terms() as u64 + term as u64);
        self.next_serial += 1;
        // Epochs stay monotone per terminal across transactions, so an
        // event addressed to the previous transaction can never match.
        let epoch = self.arena.get(term).map_or(0, |t| t.epoch + 1);
        // Draw the spec into the recycled scratch buffers, copy it into the
        // terminal's arena region, then reclaim the buffers: the
        // steady-state arrival path allocates nothing.
        let reads = std::mem::take(&mut self.scratch_reads);
        let writes = std::mem::take(&mut self.scratch_writes);
        self.prof.switch(Stage::Variate);
        let (class, spec) = self.generator.next_spec_with_class_reusing(reads, writes);
        self.prof.switch(Stage::Handle);
        self.arena.install(term, id, &spec, now, epoch, class);
        let (reads, writes) = spec.into_parts();
        self.scratch_reads = reads;
        self.scratch_writes = writes;
        self.emit(now, TraceEvent::Arrive(id));
        self.ready.push_back(term);
        self.try_admit(now);
    }

    fn on_batch_end(&mut self, now: SimTime) {
        let (cpu_busy, io_busy) = self.busy_micros(now);
        if self.metrics.on_batch_end(now, cpu_busy, io_busy) {
            self.done = true;
        } else {
            self.cal
                .schedule(now + self.cfg.metrics.batch_time, Event::BatchEnd);
        }
    }

    fn on_delay_done(&mut self, term: usize, epoch: u32, kind: DelayKind, now: SimTime) {
        let Some(txn) = self.arena.get_mut(term) else {
            return;
        };
        if txn.epoch != epoch {
            return; // stale: the transaction restarted meanwhile
        }
        match kind {
            DelayKind::IntThink => {
                debug_assert_eq!(txn.state, TxnState::Thinking);
                txn.state = TxnState::Running;
                self.arena.advance(term);
                self.work.push_back((term, epoch));
            }
            DelayKind::Restart => {
                debug_assert_eq!(txn.state, TxnState::RestartDelay);
                txn.state = TxnState::Ready;
                self.ready.push_back(term);
                self.try_admit(now);
            }
        }
    }

    /// Is `(term, epoch)` the attempt now running at `term`? A completion
    /// for an attempt that restarted is stale: its work stays wasted.
    fn is_current(&self, term: usize, epoch: u32) -> bool {
        self.arena.get(term).is_some_and(|txn| txn.epoch == epoch)
    }

    /// A CPU or I/O service completed for `payload` on a physical resource.
    fn service_done(&mut self, payload: Payload, kind: ServiceKind, now: SimTime) {
        let (term, epoch) = payload;
        if !self.is_current(term, epoch) {
            return;
        }
        let step = self.arena.step(term);
        let txn = self.arena.get_mut(term).expect("live txn");
        let params = &self.cfg.params;
        match step {
            Step::ReadIo(_) | Step::UpdateIo(_) => {
                debug_assert_eq!(kind, ServiceKind::Io);
                txn.usage.add_io(params.obj_io);
                self.arena.advance(term);
                self.work.push_back((term, epoch));
            }
            Step::ReadCpu(i) => {
                debug_assert_eq!(kind, ServiceKind::Cpu);
                txn.usage.add_cpu(params.obj_cpu);
                self.arena.advance(term);
                self.record_read(term, i, now);
                self.work.push_back((term, epoch));
            }
            Step::WriteCpu(_) => {
                debug_assert_eq!(kind, ServiceKind::Cpu);
                txn.usage.add_cpu(params.obj_cpu);
                self.arena.advance(term);
                self.work.push_back((term, epoch));
            }
            Step::PreclaimLock(_)
            | Step::LockRead(_)
            | Step::LockWrite(_)
            | Step::Validate
            | Step::IntThink
            | Step::Commit => {
                unreachable!("no service completes at step {step:?}")
            }
        }
    }

    /// Under infinite resources, `term`'s service run completed. No request
    /// waits for a server there, so a run of consecutive service steps is
    /// one fixed delay: [`Simulator::submit_run`] schedules one event for
    /// all of it, and this applies all of it at once — usage, program
    /// counter, and each read at the instant its own step completed. Nothing else observable happens inside a run (see
    /// the run rule in [`crate::arena`]).
    fn inf_done(&mut self, term: usize, epoch: u32, now: SimTime) {
        if !self.is_current(term, epoch) {
            return;
        }
        let run = self.arena.run(term);
        debug_assert!(run.len() > 0, "InfDone at a non-service step");
        let (io, cpu) = (self.cfg.params.obj_io, self.cfg.params.obj_cpu);
        let txn = self.arena.get_mut(term).expect("live txn");
        txn.usage.io_us += u64::from(run.ios) * io.as_micros();
        txn.usage.cpu_us += u64::from(run.cpus) * cpu.as_micros();
        if self.records_reads() {
            let mut at = SimTime::from_micros(now.as_micros() - run_micros(run, io, cpu));
            for k in 0..run.len() {
                match self.arena.step_ahead(term, k) {
                    Step::ReadIo(_) | Step::UpdateIo(_) => at += io,
                    Step::WriteCpu(_) => at += cpu,
                    Step::ReadCpu(i) => {
                        at += cpu;
                        self.record_read(term, i, at);
                    }
                    step => unreachable!("{step:?} inside a service run"),
                }
            }
            debug_assert_eq!(at, now);
        }
        self.arena.advance_by(term, run.len());
        self.work.push_back((term, epoch));
    }

    /// Does a completed read need recording ([`Simulator::record_read`]
    /// does something): for Silo's and TicToc's validation, or as a `Read`
    /// event when something observes the run?
    fn records_reads(&self) -> bool {
        match self.cfg.algorithm {
            CcAlgorithm::BasicTO => false,
            CcAlgorithm::SiloOcc | CcAlgorithm::TicToc => true,
            _ => self.observed,
        }
    }

    /// Record `term`'s `i`-th read, whose access completed at `at`, as the
    /// algorithm's validation and the run's observers need it.
    fn record_read(&mut self, term: usize, i: usize, at: SimTime) {
        match self.cfg.algorithm {
            // Basic T/O announces its reads at the timestamp-check grant
            // instead (the version is fixed there; a larger-timestamp
            // writer may legally publish between the grant and this access
            // completion).
            CcAlgorithm::BasicTO => return,
            // Silo bounds each read's validation by the instant the read
            // observed its object, so it keeps that instant.
            CcAlgorithm::SiloOcc => {
                debug_assert_eq!(self.arena.read_times(term).len(), i);
                self.arena.push_read_time(term, at);
            }
            // TicToc reads a *version* — identified by its write timestamp
            // — not an instant; validation needs the whole observed word
            // (the `rts` bound is what lets a superseded read still commit
            // in the past). The word is the one current now, so a TicToc
            // run ends at each read.
            CcAlgorithm::TicToc => {
                debug_assert_eq!(at, self.now);
                let obj = self.arena.read_at(term, i);
                let observed = self.tictoc.word(obj);
                debug_assert_eq!(self.arena.read_times(term).len(), i);
                self.arena.push_read_obs(term, observed.wts, observed.rts);
            }
            _ => {}
        }
        if self.observed {
            self.emit_read(term, i, at);
        }
    }

    /// Announce `term`'s `i`-th read, whose access completed at `at`, with
    /// the instant that fixes the version it observed: the history
    /// checker's "last writer committed at or before the read" rule then
    /// derives exactly that version.
    #[cold]
    fn emit_read(&mut self, term: usize, i: usize, at: SimTime) {
        let txn = self.arena.get(term).expect("live txn");
        let version_at = match self.cfg.algorithm {
            // Snapshot isolation reads as of the attempt start.
            CcAlgorithm::MvccSi => txn.attempt_start,
            // TicToc reads the version its observed `wts` names.
            CcAlgorithm::TicToc => self.arena.read_times(term)[i],
            _ => at,
        };
        let event = TraceEvent::Read(txn.id, self.arena.read_at(term, i), version_at);
        self.emit_observed(self.now, event);
    }

    // ------------------------------------------------------------------
    // Admission and the step interpreter
    // ------------------------------------------------------------------

    fn try_admit(&mut self, now: SimTime) {
        while self.active < self.cfg.params.mpl as usize {
            let Some(term) = self.ready.pop_front() else {
                break;
            };
            let txn = self.arena.get_mut(term).expect("ready txn exists");
            debug_assert_eq!(txn.state, TxnState::Ready);
            txn.begin_attempt(now);
            txn.state = TxnState::Running;
            let id = txn.id;
            self.active += 1;
            self.metrics.on_active_change(now, self.active);
            self.emit(now, TraceEvent::Admit(id));
            self.enqueue_dispatch(term);
        }
    }

    /// Drive `term`'s transaction forward until it needs to wait for a
    /// service, delay, or lock — or finishes.
    fn dispatch(&mut self, term: usize, now: SimTime) {
        loop {
            let txn = self.arena.get(term).expect("dispatched txn exists");
            debug_assert_eq!(txn.state, TxnState::Running);
            let epoch = txn.epoch;
            match self.arena.step(term) {
                Step::PreclaimLock(k) => {
                    let (obj, write) = self.arena.lock_plan_at(term, k);
                    let mode = if write {
                        LockMode::Write
                    } else {
                        LockMode::Read
                    };
                    // Start pulling the object's index line in before the
                    // request reaches the lock table (pure hint; no
                    // behavioural effect).
                    self.lockmgr.prefetch(obj);
                    self.prof.switch(Stage::LockTable);
                    let act = self.cc_request(term, obj, mode, now);
                    self.prof.switch(Stage::Dispatch);
                    match act {
                        CcAction::Proceed => continue,
                        CcAction::Suspend => return,
                    }
                }
                Step::LockRead(i) => {
                    let obj = self.arena.read_at(term, i);
                    self.lockmgr.prefetch(obj);
                    self.prof.switch(Stage::LockTable);
                    let act = self.cc_request(term, obj, LockMode::Read, now);
                    self.prof.switch(Stage::Dispatch);
                    match act {
                        CcAction::Proceed => continue,
                        CcAction::Suspend => return,
                    }
                }
                Step::LockWrite(j) => {
                    let obj = self.arena.write_obj_at(term, j);
                    self.lockmgr.prefetch(obj);
                    self.prof.switch(Stage::LockTable);
                    let act = self.cc_request(term, obj, LockMode::Write, now);
                    self.prof.switch(Stage::Dispatch);
                    match act {
                        CcAction::Proceed => continue,
                        CcAction::Suspend => return,
                    }
                }
                Step::ReadIo(_) | Step::ReadCpu(_) | Step::WriteCpu(_) | Step::UpdateIo(_)
                    if self.disks.is_none() =>
                {
                    self.submit_run(term, epoch, now);
                    return;
                }
                Step::ReadIo(_) | Step::UpdateIo(_) => {
                    self.submit_io(term, epoch, now);
                    return;
                }
                Step::ReadCpu(_) | Step::WriteCpu(_) => {
                    self.submit_cpu(term, epoch, now);
                    return;
                }
                Step::IntThink => {
                    self.prof.switch(Stage::Variate);
                    let d = self.int_think.sample(&mut self.delay_rng);
                    self.prof.switch(Stage::Dispatch);
                    if d.is_zero() {
                        self.arena.advance(term);
                        continue;
                    }
                    let txn = self
                        .arena
                        .get_mut(term)
                        .expect("terminal has no active transaction");
                    txn.state = TxnState::Thinking;
                    let epoch = txn.epoch;
                    self.cal
                        .schedule(now + d, Event::Delay(term, epoch, DelayKind::IntThink));
                    return;
                }
                Step::Validate => {
                    self.prof.switch(Stage::Validate);
                    let act = self.validate(term, now);
                    self.prof.switch(Stage::Dispatch);
                    match act {
                        CcAction::Proceed => continue,
                        CcAction::Suspend => return,
                    }
                }
                Step::Commit => {
                    self.commit(term, now);
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Concurrency control
    // ------------------------------------------------------------------

    fn cc_request(&mut self, term: usize, obj: ObjId, mode: LockMode, now: SimTime) -> CcAction {
        match self.cfg.algorithm {
            // Static locking shares the blocking discipline; the canonical
            // acquisition order makes its deadlock search a no-op.
            CcAlgorithm::Blocking | CcAlgorithm::StaticLocking => {
                self.cc_blocking(term, obj, mode, now)
            }
            CcAlgorithm::ImmediateRestart => {
                self.cc_no_wait(term, obj, mode, now, AbortCause::Denial)
            }
            CcAlgorithm::NoWaiting => self.cc_no_wait(term, obj, mode, now, AbortCause::Denial),
            CcAlgorithm::WaitDie => self.cc_wait_die(term, obj, mode, now),
            CcAlgorithm::WoundWait => self.cc_wound_wait(term, obj, mode, now),
            CcAlgorithm::BasicTO => self.cc_tso(term, obj, mode, now),
            CcAlgorithm::Optimistic
            | CcAlgorithm::NoCc
            | CcAlgorithm::MvccSi
            | CcAlgorithm::SiloOcc
            | CcAlgorithm::TicToc => {
                unreachable!("lock-free algorithms have no lock steps")
            }
        }
    }

    fn cc_blocking(&mut self, term: usize, obj: ObjId, mode: LockMode, now: SimTime) -> CcAction {
        let txn = self
            .arena
            .get_mut(term)
            .expect("terminal has no active transaction");
        let tid = txn.id;
        match self.lockmgr.request(tid, obj, mode) {
            RequestOutcome::Granted => {
                self.arena.advance(term);
                self.emit(now, TraceEvent::Acquire(tid, obj, mode));
                CcAction::Proceed
            }
            RequestOutcome::Queued => {
                txn.state = TxnState::Blocked;
                self.metrics.on_block();
                self.emit(now, TraceEvent::Block(tid, obj));
                self.resolve_deadlocks(term, now);
                CcAction::Suspend
            }
            RequestOutcome::Denied => unreachable!("request never denies"),
        }
    }

    fn cc_no_wait(
        &mut self,
        term: usize,
        obj: ObjId,
        mode: LockMode,
        now: SimTime,
        cause: AbortCause,
    ) -> CcAction {
        let txn = self
            .arena
            .get_mut(term)
            .expect("terminal has no active transaction");
        let tid = txn.id;
        match self.lockmgr.try_request(tid, obj, mode) {
            RequestOutcome::Granted => {
                self.arena.advance(term);
                self.emit(now, TraceEvent::Acquire(tid, obj, mode));
                CcAction::Proceed
            }
            RequestOutcome::Denied => {
                self.abort_and_restart(term, cause, now);
                CcAction::Suspend
            }
            RequestOutcome::Queued => unreachable!("try_request never queues"),
        }
    }

    /// Wait-die: on conflict, an older requester waits; a younger one dies.
    fn cc_wait_die(&mut self, term: usize, obj: ObjId, mode: LockMode, now: SimTime) -> CcAction {
        let txn = self
            .arena
            .get(term)
            .expect("terminal has no active transaction");
        let tid = txn.id;
        let my_ts = (txn.arrival, tid);
        let mut blockers = std::mem::take(&mut self.blocker_buf);
        self.lockmgr.blockers_into(tid, obj, mode, &mut blockers);
        let older_exists = blockers.iter().any(|&b| self.timestamp_of(b) < my_ts);
        blockers.clear();
        self.blocker_buf = blockers;
        if older_exists {
            // Die: restart keeping the original timestamp (arrival survives
            // restarts), which guarantees eventual progress.
            self.abort_and_restart(term, AbortCause::Died, now);
            return CcAction::Suspend;
        }
        let txn = self
            .arena
            .get_mut(term)
            .expect("terminal has no active transaction");
        match self.lockmgr.request(tid, obj, mode) {
            RequestOutcome::Granted => {
                self.arena.advance(term);
                self.emit(now, TraceEvent::Acquire(tid, obj, mode));
                CcAction::Proceed
            }
            RequestOutcome::Queued => {
                txn.state = TxnState::Blocked;
                self.metrics.on_block();
                self.emit(now, TraceEvent::Block(tid, obj));
                CcAction::Suspend
            }
            RequestOutcome::Denied => unreachable!(),
        }
    }

    /// Wound-wait: on conflict, an older requester wounds (aborts) younger
    /// holders; a younger requester waits. Holders past their commit point
    /// are spared (wounding them gains nothing).
    fn cc_wound_wait(&mut self, term: usize, obj: ObjId, mode: LockMode, now: SimTime) -> CcAction {
        let txn = self
            .arena
            .get(term)
            .expect("terminal has no active transaction");
        let tid = txn.id;
        let my_ts = (txn.arrival, tid);
        // Wound younger blockers one at a time, re-reading the blocker set
        // after each abort: releasing a victim's locks can cascade (grants,
        // further wounds) and retire other would-be victims.
        let mut blockers = std::mem::take(&mut self.blocker_buf);
        loop {
            blockers.clear();
            self.lockmgr.blockers_into(tid, obj, mode, &mut blockers);
            let victim = blockers.iter().copied().find(|&b| {
                let b_term = self.term_of(b);
                self.arena.get(b_term).is_some_and(|bt| {
                    bt.id == b
                        && (bt.arrival, bt.id) > my_ts
                        && bt.state.is_active()
                        && !self.is_committing(b_term)
                })
            });
            match victim {
                Some(b) => {
                    let b_term = self.term_of(b);
                    self.abort_and_restart(b_term, AbortCause::Wounded, now);
                }
                None => break,
            }
        }
        blockers.clear();
        self.blocker_buf = blockers;
        // A wound cascade can come full circle: releasing a victim's locks
        // dispatches waiters, one of which may be older than *us* and wound
        // us in turn. If that happened, our attempt is over.
        let txn = self
            .arena
            .get_mut(term)
            .expect("terminal has no active transaction");
        if txn.id != tid || txn.state != TxnState::Running {
            return CcAction::Suspend;
        }
        match self.lockmgr.request(tid, obj, mode) {
            RequestOutcome::Granted => {
                self.arena.advance(term);
                self.emit(now, TraceEvent::Acquire(tid, obj, mode));
                CcAction::Proceed
            }
            RequestOutcome::Queued => {
                txn.state = TxnState::Blocked;
                self.metrics.on_block();
                self.emit(now, TraceEvent::Block(tid, obj));
                CcAction::Suspend
            }
            RequestOutcome::Denied => unreachable!(),
        }
    }

    /// Basic timestamp ordering: reads/prewrites must respect timestamp
    /// order; late operations restart with a fresh timestamp; readers wait
    /// out pending smaller-timestamp prewrites.
    fn cc_tso(&mut self, term: usize, obj: ObjId, mode: LockMode, now: SimTime) -> CcAction {
        let txn = self
            .arena
            .get_mut(term)
            .expect("terminal has no active transaction");
        let tid = txn.id;
        let ts = (txn.attempt_start, tid);
        match mode {
            LockMode::Read => match self.tso.read(tid, obj, ts) {
                TsoRead::Granted => {
                    self.arena.advance(term);
                    // The version this read observes is decided *now*: the
                    // grant instant is its read time.
                    self.emit(now, TraceEvent::Read(tid, obj, now));
                    CcAction::Proceed
                }
                TsoRead::Wait => {
                    txn.state = TxnState::Blocked;
                    self.metrics.on_block();
                    self.emit(now, TraceEvent::Block(tid, obj));
                    CcAction::Suspend
                }
                TsoRead::Reject => {
                    self.emit(now, TraceEvent::TsRejected(tid, obj));
                    self.abort_and_restart(term, AbortCause::TsRejected, now);
                    CcAction::Suspend
                }
            },
            LockMode::Write => match self.tso.prewrite(tid, obj, ts) {
                TsoWrite::Granted => {
                    self.arena.advance(term);
                    CcAction::Proceed
                }
                TsoWrite::Reject => {
                    self.emit(now, TraceEvent::TsRejected(tid, obj));
                    self.abort_and_restart(term, AbortCause::TsRejected, now);
                    CcAction::Suspend
                }
            },
        }
    }

    /// Resume readers whose awaited prewrite resolved. Unlike lock grants,
    /// the read is *re-checked* (not advanced past): the reader may wait
    /// again on another pending prewrite, be granted, or reject.
    fn process_tso_wakeups(&mut self, woken: Vec<TxnId>, now: SimTime) {
        for w in woken {
            let term = self.term_of(w);
            let Some(txn) = self.arena.get_mut(term) else {
                continue;
            };
            if txn.id != w || txn.state != TxnState::Blocked {
                continue;
            }
            txn.state = TxnState::Running;
            // A TSO wait only ever happens on a read step; report which
            // object the reader resumes on. The re-check may block again.
            let obj = match self.arena.step(term) {
                Step::LockRead(i) => Some(self.arena.read_at(term, i)),
                _ => None,
            };
            if let Some(obj) = obj {
                self.emit(now, TraceEvent::Grant(w, obj, LockMode::Read));
            }
            self.enqueue_dispatch(term);
        }
    }

    /// The commit-point test of the certifying protocols (a no-op for the
    /// others). A failure restarts the attempt; a success publishes its
    /// writes at the commit instant and moves on to the commit.
    fn validate(&mut self, term: usize, now: SimTime) -> CcAction {
        let txn = self
            .arena
            .get(term)
            .expect("terminal has no active transaction");
        let (tid, start) = (txn.id, txn.attempt_start);
        let outcome = if self.cfg.algorithm == CcAlgorithm::TicToc {
            self.certify_tictoc(term)
        } else {
            // Backward validation: each protocol bounds its own pairs.
            let checked = match self.cfg.algorithm {
                // Kung–Robinson: no read overwritten since the attempt
                // started.
                CcAlgorithm::Optimistic => self
                    .validator
                    .validate_each(self.arena.reads(term).map(|obj| (obj, start))),
                // Silo: no read overwritten since that read observed it.
                CcAlgorithm::SiloOcc => self.validator.validate_each(
                    self.arena
                        .reads(term)
                        .zip(self.arena.read_times(term).iter().copied()),
                ),
                // Snapshot isolation's first-committer-wins: no write-set
                // object written since the snapshot; reads need no check.
                CcAlgorithm::MvccSi => self
                    .validator
                    .validate_each(self.arena.write_objs(term).map(|obj| (obj, start))),
                _ => {
                    self.arena.advance(term);
                    return CcAction::Proceed;
                }
            };
            checked
                .map(|()| {
                    // Kung–Robinson's critical section: stamp the write set
                    // at the validation instant.
                    self.validator.commit(now, self.arena.write_objs(term));
                    now
                })
                .map_err(|conflict| conflict.obj)
        };
        match outcome {
            Ok(commit_at) => {
                let txn = self
                    .arena
                    .get_mut(term)
                    .expect("terminal has no active transaction");
                txn.publish(commit_at);
                self.arena.advance(term);
                CcAction::Proceed
            }
            Err(obj) => {
                self.emit(now, TraceEvent::ValidationFailure(tid, obj));
                self.abort_and_restart(term, AbortCause::Validation, now);
                CcAction::Suspend
            }
        }
    }

    /// TicToc: derive a commit timestamp covering every read version and
    /// landing after every read extension of the written objects, instead
    /// of rejecting on physical-time conflicts. Returns the *logical*
    /// commit instant, which the commit point announces, so the
    /// serializability check follows TicToc's timestamp order rather than
    /// physical validation order; or the object whose superseded read
    /// fails the attempt.
    fn certify_tictoc(&mut self, term: usize) -> Result<SimTime, ObjId> {
        let mut scratch = std::mem::take(&mut self.tt_scratch);
        scratch.clear();
        scratch.extend(
            self.arena
                .reads(term)
                .zip(self.arena.read_times(term))
                .zip(self.arena.read_auxes(term))
                .map(|((obj, &wts), &rts)| (obj, TtWord { wts, rts })),
        );
        let mut writes = std::mem::take(&mut self.ws_scratch);
        self.arena.write_set_into(term, &mut writes);
        let outcome = self.tictoc.validate_and_commit(&scratch, &writes);
        self.tt_scratch = scratch;
        self.ws_scratch = writes;
        outcome.map_err(|conflict| conflict.obj)
    }

    /// Detect and break deadlocks after `term` blocked, until `term` is no
    /// longer blocked or no cycle remains.
    fn resolve_deadlocks(&mut self, term: usize, now: SimTime) {
        loop {
            let txn = self
                .arena
                .get(term)
                .expect("terminal has no active transaction");
            if txn.state != TxnState::Blocked {
                return;
            }
            let Some(cycle) = self.lockmgr.find_deadlock(txn.id) else {
                return;
            };
            let victim = self.choose_victim(&cycle);
            let victim_term = self.term_of(victim);
            let detector = self
                .arena
                .get(term)
                .expect("terminal has no active transaction")
                .id;
            self.emit(now, TraceEvent::Deadlock { detector, victim });
            self.abort_and_restart(victim_term, AbortCause::Deadlock, now);
        }
    }

    fn choose_victim(&self, cycle: &[TxnId]) -> TxnId {
        let key = |tid: &TxnId| {
            let t = self.arena.get(self.term_of(*tid)).expect("cycle txn");
            debug_assert_eq!(t.id, *tid);
            (t.arrival, t.id)
        };
        match self.cfg.victim {
            VictimPolicy::Youngest => *cycle.iter().max_by_key(|t| key(t)).expect("cycle"),
            VictimPolicy::Oldest => *cycle.iter().min_by_key(|t| key(t)).expect("cycle"),
            VictimPolicy::FewestLocks => *cycle
                .iter()
                .min_by_key(|t| (self.lockmgr.locks_held(**t), key(t)))
                .expect("cycle"),
        }
    }

    // ------------------------------------------------------------------
    // Transaction termination
    // ------------------------------------------------------------------

    /// Abort `term`'s current attempt and requeue it per the restart-delay
    /// policy.
    fn abort_and_restart(&mut self, term: usize, cause: AbortCause, now: SimTime) {
        let txn = self.arena.get_mut(term).expect("aborting live txn");
        debug_assert!(txn.state.is_active(), "victims are active");
        txn.bump_epoch();
        let tid = txn.id;
        let class = txn.class as usize;
        self.metrics
            .on_restart(class, cause == AbortCause::Deadlock);
        self.emit(now, TraceEvent::Restart(tid));

        // Leave the active set.
        self.active -= 1;
        self.metrics.on_active_change(now, self.active);

        // Release locks (and any queued request); this may unblock others.
        // The grant buffer is taken from (and later returned to) the
        // simulator so release cascades never allocate in steady state.
        let mut grants = std::mem::take(&mut self.grant_buf);
        if self.cfg.algorithm.uses_locks() {
            let held = self.lockmgr.locks_held(tid) as u32;
            self.lockmgr.release_all_into(tid, &mut grants);
            self.emit(now, TraceEvent::LocksReleased(tid, held));
        }
        // Basic T/O: drop prewrites and cancel a parked read; wake readers.
        let tso_woken = if self.cfg.algorithm == CcAlgorithm::BasicTO {
            let ts = (
                self.arena
                    .get(term)
                    .expect("terminal has no active transaction")
                    .attempt_start,
                tid,
            );
            self.tso.abort(tid, ts)
        } else {
            Vec::new()
        };

        // Requeue per policy.
        let delay = self.restart_delay_for(cause);
        let txn = self
            .arena
            .get_mut(term)
            .expect("terminal has no active transaction");
        if delay.is_zero() {
            txn.state = TxnState::Ready;
            self.ready.push_back(term);
        } else {
            txn.state = TxnState::RestartDelay;
            let epoch = txn.epoch;
            self.cal
                .schedule(now + delay, Event::Delay(term, epoch, DelayKind::Restart));
        }

        self.process_grants(&grants, now);
        grants.clear();
        self.grant_buf = grants;
        self.process_tso_wakeups(tso_woken, now);
        self.try_admit(now);
    }

    /// The delay to apply before re-queueing a restarted transaction.
    fn restart_delay_for(&mut self, cause: AbortCause) -> SimDuration {
        let applies = match self.cfg.algorithm {
            // No-waiting is immediate-restart *without* the delay — that is
            // its defining difference, so the Fig. 11 flag does not apply.
            CcAlgorithm::NoWaiting => false,
            CcAlgorithm::ImmediateRestart => true,
            _ => self.cfg.restart_delay_for_all,
        };
        let mut delay = if applies {
            match self.cfg.params.restart_delay {
                RestartDelayPolicy::None => SimDuration::ZERO,
                RestartDelayPolicy::Adaptive => {
                    sample_exponential(self.resp_avg.value(), &mut self.delay_rng)
                }
                RestartDelayPolicy::Fixed(m) => sample_exponential(m, &mut self.delay_rng),
            }
        } else {
            SimDuration::ZERO
        };
        // A denial- or die-restarted transaction whose conflicting lock is
        // its *first* request would otherwise retry at the same simulated
        // instant against the same holder, forever (an empty ready queue
        // readmits it immediately; lock requests cost no simulated time).
        // The paper notes the delay exists precisely so "the same lock
        // conflict will not re-occur repeatedly"; we floor the delay at an
        // exponential draw with mean one object-access time — the cheapest
        // physically meaningful, desynchronizing gap — to rule the
        // zero-time livelock out for the no-delay variants too.
        if delay.is_zero()
            && matches!(
                cause,
                AbortCause::Denial | AbortCause::Died | AbortCause::TsRejected
            )
        {
            let floor_mean = self
                .cfg
                .params
                .obj_io
                .saturating_add(self.cfg.params.obj_cpu);
            delay = sample_exponential(floor_mean, &mut self.delay_rng)
                .max(SimDuration::from_micros(1));
        }
        delay
    }

    fn commit(&mut self, term: usize, now: SimTime) {
        let txn = self.arena.get_mut(term).expect("committing live txn");
        debug_assert_eq!(txn.state, TxnState::Running);
        let tid = txn.id;
        let response = now.since(txn.arrival);
        let usage = txn.usage;
        let class = txn.class as usize;
        let ts = (txn.attempt_start, tid);
        let commit_at = txn.published_at().unwrap_or(now);
        txn.state = TxnState::AtTerminal;

        // Basic T/O applies its buffered writes now, before the commit is
        // announced.
        let tso_woken = if self.cfg.algorithm == CcAlgorithm::BasicTO {
            self.tso.commit(tid, ts)
        } else {
            Vec::new()
        };
        if self.observed {
            self.emit_commit_facts(term, commit_at);
        }
        self.emit(now, TraceEvent::Commit(tid));
        self.resp_avg.observe(response);
        self.metrics
            .on_commit(class, response, usage.cpu_us, usage.io_us);

        self.active -= 1;
        self.metrics.on_active_change(now, self.active);

        // Strict 2PL: locks released after the deferred updates, i.e. here.
        let leak = self.take_lock_leak();
        let mut grants = std::mem::take(&mut self.grant_buf);
        if self.cfg.algorithm.uses_locks() && !leak {
            let held = self.lockmgr.locks_held(tid) as u32;
            self.lockmgr.release_all_into(tid, &mut grants);
            self.emit(now, TraceEvent::LocksReleased(tid, held));
        }

        // The terminal starts thinking about its next transaction.
        self.prof.switch(Stage::Variate);
        let think = self.ext_think.sample(&mut self.think_rng);
        self.prof.switch(Stage::Dispatch);
        self.cal.schedule(now + think, Event::Arrive(term));

        self.process_grants(&grants, now);
        grants.clear();
        self.grant_buf = grants;
        self.process_tso_wakeups(tso_woken, now);
        self.try_admit(now);
    }

    /// Announce what `term`'s commit publishes, directly before its
    /// `Commit`: one `Publish` per write, then the `CommitPoint` at
    /// `commit_at`.
    #[cold]
    fn emit_commit_facts(&mut self, term: usize, commit_at: SimTime) {
        let tid = self.arena.get(term).expect("live txn").id;
        let mut writes = std::mem::take(&mut self.ws_scratch);
        self.arena.write_set_into(term, &mut writes);
        for &obj in &writes {
            self.emit_observed(self.now, TraceEvent::Publish(tid, obj));
        }
        self.ws_scratch = writes;
        self.emit_observed(self.now, TraceEvent::CommitPoint(tid, commit_at));
    }

    /// Resume transactions whose queued lock requests were just granted.
    fn process_grants(&mut self, grants: &[Grant], now: SimTime) {
        for &g in grants {
            let term = self.term_of(g.txn);
            let Some(txn) = self.arena.get_mut(term) else {
                continue;
            };
            if txn.id != g.txn {
                continue;
            }
            debug_assert_eq!(txn.state, TxnState::Blocked);
            txn.state = TxnState::Running;
            debug_assert!(matches!(
                self.arena.step(term),
                Step::PreclaimLock(_) | Step::LockRead(_) | Step::LockWrite(_)
            ));
            self.arena.advance(term);
            self.emit(now, TraceEvent::Grant(g.txn, g.obj, g.mode));
            self.enqueue_dispatch(term);
        }
    }

    // ------------------------------------------------------------------
    // Resource access
    // ------------------------------------------------------------------

    fn submit_cpu(&mut self, term: usize, epoch: u32, now: SimTime) {
        let dur = self.cfg.params.obj_cpu;
        match &mut self.cpus {
            None => unreachable!("CPU service under infinite resources goes through submit_run"),
            Some(pool) => {
                let req = Request {
                    payload: (term, epoch),
                    duration: dur,
                };
                if let Some(s) = pool.submit(now, req) {
                    self.started_cpu += 1;
                    self.cal
                        .schedule(s.completes_at, cpu_done(s.server, term, epoch));
                }
            }
        }
    }

    fn submit_io(&mut self, term: usize, epoch: u32, now: SimTime) {
        let dur = self.cfg.params.obj_io;
        match &mut self.disks {
            None => unreachable!("I/O under infinite resources goes through submit_run"),
            Some(array) => {
                // The paper's I/O model: "chooses a disk (at random, with
                // all disks being equally likely)" (§3). A static
                // object→disk map is NOT equivalent here: restarted
                // transactions re-read the same objects, so a transient
                // queue on one disk attracts every retry of every
                // transaction that touches it — a self-sustaining convoy
                // the paper's model cannot form.
                let disk = self.disk_pick.sample(&mut self.disk_rng) as usize;
                if let Some(s) = array.submit(now, disk, (term, epoch), dur) {
                    self.started_disk += 1;
                    self.cal
                        .schedule(s.completes_at, disk_done(s.disk, term, epoch));
                }
            }
        }
    }

    /// Under infinite resources, start the service run at `term`'s current
    /// step: one event at the end of the whole run (see
    /// [`Simulator::inf_done`]).
    fn submit_run(&mut self, term: usize, epoch: u32, now: SimTime) {
        let run = self.arena.run(term);
        debug_assert!(run.len() > 0);
        let us = run_micros(run, self.cfg.params.obj_io, self.cfg.params.obj_cpu);
        self.cal.schedule(
            now + SimDuration::from_micros(us),
            Event::InfDone(term, epoch),
        );
    }

    /// Busy microseconds of the CPUs and disks so far; zero under infinite
    /// resources, where no utilization is measured.
    fn busy_micros(&self, now: SimTime) -> (u64, u64) {
        let cpu = self.cpus.as_ref().map_or(0, |p| p.busy_micros(now));
        let io = self.disks.as_ref().map_or(0, |d| d.busy_micros(now));
        (cpu, io)
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Publish `event` to the attached sinks. When none is attached
    /// (`observed` is false — the common experiment-sweep case) this is one
    /// predicted-not-taken branch; whether anything observes the run must
    /// never influence the simulation itself.
    #[inline]
    fn emit(&mut self, now: SimTime, event: TraceEvent) {
        if !self.observed {
            return;
        }
        self.emit_observed(now, event);
    }

    #[cold]
    fn emit_observed(&mut self, now: SimTime, event: TraceEvent) {
        for sink in &mut self.sinks {
            sink.on_event(now, &event);
        }
    }

    fn term_of(&self, tid: TxnId) -> usize {
        (tid.0 % self.arena.num_terms() as u64) as usize
    }

    fn timestamp_of(&self, tid: TxnId) -> (SimTime, TxnId) {
        let t = self.arena.get(self.term_of(tid)).expect("live txn");
        debug_assert_eq!(t.id, tid);
        (t.arrival, t.id)
    }

    /// Past the commit point (validation) — only deferred updates remain.
    fn is_committing(&self, term: usize) -> bool {
        self.arena
            .get(term)
            .expect("terminal has no active transaction");
        matches!(self.arena.step(term), Step::UpdateIo(_) | Step::Commit)
    }
}

/// The completion event of a CPU request from `term`'s attempt `epoch`.
fn cpu_done(server: usize, term: usize, epoch: u32) -> Event {
    Event::CpuDone {
        server: server as u32,
        term: term as u32,
        epoch,
    }
}

/// The completion event of an I/O from `term`'s attempt `epoch`.
fn disk_done(disk: usize, term: usize, epoch: u32) -> Event {
    Event::DiskDone {
        disk: disk as u32,
        term: term as u32,
        epoch,
    }
}

/// Microseconds of service a run takes when no request waits.
fn run_micros(run: ServiceRun, io: SimDuration, cpu: SimDuration) -> u64 {
    u64::from(run.ios) * io.as_micros() + u64::from(run.cpus) * cpu.as_micros()
}

/// Region width of the arena: the largest readset any class can draw.
fn readset_cap(params: &ccsim_workload::Params) -> usize {
    ccsim_workload::class_table(params)
        .iter()
        .map(|c| c.max_size as usize)
        .max()
        .unwrap_or(1)
}

/// The most bytes [`Simulator::new`] may commit to the arrays sized by the
/// terminal count: 4 GiB.
///
/// Basis: the largest catalog point, exp-scale at mpl 10^6 (10^6
/// terminals, readsets of at most 12 objects), needs 183 MiB of them, and
/// at most 366 MiB under any algorithm (TicToc's lazily allocated read
/// times and bounds), so the ceiling leaves it more than tenfold headroom.
/// Without a ceiling, a configuration too large for memory aborts the
/// process on a failed allocation, which neither `simulate` nor a sweep's
/// per-point isolation can turn into an error; with it, the configuration
/// is rejected before anything is allocated.
const MAX_FOOTPRINT_BYTES: u64 = 1 << 32;

/// The bytes of the arrays [`Simulator::new`] sizes by the terminal count,
/// by structure. The sizes come from the constructors' own accounting: the
/// arena's records and regions, the lock table's transaction slots, and
/// the calendar nodes `prime` schedules (one arrival per terminal plus the
/// first batch boundary).
fn footprint(cfg: &SimConfig) -> impl Iterator<Item = (&'static str, u128)> + Clone {
    let params = &cfg.params;
    let num_terms = params.num_terms as usize;
    let algo = cfg.algorithm;
    let arena = TxnArena::footprint(
        num_terms,
        readset_cap(params),
        algo.program_shape(),
        matches!(algo, CcAlgorithm::SiloOcc | CcAlgorithm::TicToc),
        algo == CcAlgorithm::TicToc,
    );
    let lock_slots = (
        "lock-table transaction slots",
        LockManager::slot_bytes(num_terms),
    );
    let calendar = (
        "calendar nodes",
        (num_terms as u128 + 1) * Calendar::<Event>::node_bytes() as u128,
    );
    arena.into_iter().chain([lock_slots, calendar])
}

/// Reject `cfg` if [`footprint`] exceeds [`MAX_FOOTPRINT_BYTES`], naming
/// the largest structure.
fn check_footprint(cfg: &SimConfig) -> Result<(), ParamError> {
    let parts = footprint(cfg);
    let total: u128 = parts.clone().map(|(_, bytes)| bytes).sum();
    if total <= u128::from(MAX_FOOTPRINT_BYTES) {
        return Ok(());
    }
    let (name, bytes) = parts
        .max_by_key(|&(_, bytes)| bytes)
        .expect("footprint has parts");
    Err(ParamError(format!(
        "memory footprint of {total} bytes exceeds the {MAX_FOOTPRINT_BYTES}-byte ceiling \
         (largest: {name}, {bytes} bytes)"
    )))
}

/// Everything a run produces (see [`Simulator::run_collecting`]).
#[derive(Debug)]
pub struct RunOutcome {
    /// Metrics over whatever window completed (partial when `stopped`).
    pub report: Report,
    /// `Some` when the run was stopped by its [`crate::RunBudget`] rather
    /// than finishing its configured batches.
    pub stopped: Option<RunError>,
    /// Engine perf counters up to the stopping point.
    pub perf: PerfStats,
    /// Per-stage wall-time breakdown (`stage-profiler` builds only).
    pub stages: Option<StageProfile>,
}

impl RunOutcome {
    /// The outcome of a run that finished its configured batches.
    ///
    /// # Errors
    /// Returns the [`RunError::BudgetExhausted`] held in
    /// [`RunOutcome::stopped`] if the run's budget stopped it first.
    pub fn finished(self) -> Result<Self, RunError> {
        match self.stopped {
            Some(err) => Err(err),
            None => Ok(self),
        }
    }
}

/// Validate `cfg`, run the simulation to completion, and return its
/// outcome: `Simulator::new(cfg)?.run_collecting().finished()`.
///
/// # Errors
/// Returns [`RunError::InvalidConfig`] if the configuration is invalid, or
/// [`RunError::BudgetExhausted`] if the run exceeds its [`crate::RunBudget`].
pub fn run(cfg: SimConfig) -> Result<RunOutcome, RunError> {
    Simulator::new(cfg)?.run_collecting().finished()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetricsConfig;
    use crate::trace::Trace;
    use ccsim_workload::Params;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Run `cfg` with a trace ring of `capacity` attached.
    fn traced(cfg: SimConfig, capacity: usize) -> (Report, Trace) {
        let mut sim = Simulator::new(cfg).expect("valid config");
        let trace = Rc::new(RefCell::new(Trace::with_capacity(capacity)));
        sim.add_sink(Box::new(Rc::clone(&trace)));
        let out = sim.run_collecting().finished().expect("run within budget");
        let trace = Rc::into_inner(trace).expect("the run released the ring");
        (out.report, trace.into_inner())
    }

    fn quick_cfg(algo: CcAlgorithm) -> SimConfig {
        SimConfig::new(algo)
            .with_metrics(MetricsConfig {
                warmup_batches: 1,
                batches: 4,
                batch_time: SimDuration::from_secs(30),
            })
            .with_seed(1234)
    }

    #[test]
    fn event_is_16_bytes() {
        // Calendar nodes carry the event inline; a variant that grows it
        // grows every pending calendar node, which at 10^6 pending events
        // is tens of MiB of resident memory.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn footprint_ceiling_admits_the_scale_point() {
        // The ceiling's basis: exp-scale's 10^6 terminals need 183 MiB of
        // terminal-sized arrays, and at most 366 MiB under any algorithm.
        let total = |cfg: &SimConfig| footprint(cfg).map(|(_, b)| b).sum::<u128>();
        let scale = Params::exp_scale().with_mpl(1_000_000);
        let plain = SimConfig::new(CcAlgorithm::Blocking).with_params(scale.clone());
        assert_eq!(total(&plain), 192_000_032);
        let mut most = 0;
        for algo in CcAlgorithm::ALL.into_iter().chain([CcAlgorithm::NoCc]) {
            let cfg = SimConfig::new(algo).with_params(scale.clone());
            assert!(check_footprint(&cfg).is_ok(), "{algo}");
            most = most.max(total(&cfg));
        }
        assert_eq!(most, 384_000_032);
        let mut over = scale;
        over.num_terms = 100_000_000;
        let err = check_footprint(&SimConfig::new(CcAlgorithm::Blocking).with_params(over))
            .expect_err("10^8 terminals exceed the ceiling");
        assert!(
            err.0.contains("transaction records, 8000000000 bytes"),
            "{err}"
        );
    }

    #[test]
    fn txn_record_is_80_bytes() {
        // One record per terminal: at 10^6 terminals every byte here is a
        // MB of resident memory (the lock table pins its own layouts).
        assert_eq!(std::mem::size_of::<crate::arena::TxnRec>(), 80);
    }

    #[test]
    fn every_algorithm_commits_transactions() {
        for algo in CcAlgorithm::ALL {
            let report = run(quick_cfg(algo)).expect("valid config").report;
            assert!(
                report.commits > 50,
                "{algo} committed only {} transactions",
                report.commits
            );
            assert!(report.throughput.mean > 0.0, "{algo} zero throughput");
            assert!(
                report.response_time_mean > 0.4,
                "{algo} impossibly fast responses: {}",
                report.response_time_mean
            );
        }
    }

    #[test]
    fn identical_seeds_replay_identically() {
        for algo in [CcAlgorithm::Blocking, CcAlgorithm::Optimistic] {
            let a = run(quick_cfg(algo)).unwrap().report;
            let b = run(quick_cfg(algo)).unwrap().report;
            assert_eq!(a, b, "{algo} runs diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(quick_cfg(CcAlgorithm::Blocking)).unwrap().report;
        let b = run(quick_cfg(CcAlgorithm::Blocking).with_seed(4321))
            .unwrap()
            .report;
        assert_ne!(a.commits, b.commits);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = quick_cfg(CcAlgorithm::Blocking);
        cfg.params.mpl = 0;
        assert!(matches!(run(cfg), Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn event_budget_exhausts_deterministically() {
        let budget = crate::RunBudget::unlimited().with_max_events(500);
        let exhaust = || {
            run(quick_cfg(CcAlgorithm::Blocking).with_budget(budget))
                .map(|_| ())
                .expect_err("expected budget exhaustion")
        };
        let a = exhaust();
        let RunError::BudgetExhausted {
            exceeded, events, ..
        } = a
        else {
            panic!("expected budget exhaustion, got {a:?}");
        };
        assert_eq!(exceeded, BudgetKind::Events);
        assert_eq!(events, 501, "stops on the first event past the cap");
        // The twin run fails identically, every field of the error included.
        assert_eq!(a, exhaust());
    }

    #[test]
    fn sim_time_budget_exhausts() {
        let budget = crate::RunBudget::unlimited().with_max_sim_time(SimDuration::from_secs(5));
        let res = run(quick_cfg(CcAlgorithm::Optimistic).with_budget(budget));
        let Err(RunError::BudgetExhausted {
            exceeded, sim_time, ..
        }) = res
        else {
            panic!("expected budget exhaustion, got {res:?}");
        };
        assert_eq!(exceeded, BudgetKind::SimTime);
        assert!(sim_time.since(SimTime::ZERO) > SimDuration::from_secs(5));
    }

    #[test]
    fn default_budget_does_not_perturb_reports() {
        let capped = run(quick_cfg(CcAlgorithm::Blocking)).unwrap().report;
        let uncapped =
            run(quick_cfg(CcAlgorithm::Blocking).with_budget(crate::RunBudget::unlimited()))
                .unwrap()
                .report;
        assert_eq!(capped, uncapped);
    }

    #[test]
    fn low_conflict_algorithms_agree_roughly() {
        // Experiment 1's premise: with rare conflicts the algorithm barely
        // matters. Use the low-conflict database and compare throughputs.
        let mut reports = Vec::new();
        for algo in CcAlgorithm::PAPER_TRIO {
            let cfg = quick_cfg(algo).with_params(Params::low_conflict().with_mpl(10));
            reports.push(run(cfg).unwrap().report);
        }
        let tps: Vec<f64> = reports.iter().map(|r| r.throughput.mean).collect();
        let max = tps.iter().cloned().fold(f64::MIN, f64::max);
        let min = tps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (max - min) / max < 0.15,
            "low-conflict spread too wide: {tps:?}"
        );
    }

    #[test]
    fn disk_bound_throughput_is_capped_by_disk_capacity() {
        // 1 CPU / 2 disks, avg 350 ms of disk time per transaction:
        // the disks cannot push more than 2 / 0.35 ≈ 5.7 tps.
        let cfg =
            quick_cfg(CcAlgorithm::Blocking).with_params(Params::paper_baseline().with_mpl(25));
        let r = run(cfg).unwrap().report;
        assert!(
            r.throughput.mean < 5.8,
            "throughput {} exceeds disk capacity",
            r.throughput.mean
        );
        assert!(r.throughput.mean > 2.0, "throughput {}", r.throughput.mean);
        assert!(r.disk_util_total.mean > 0.5, "disks should be busy");
        assert!(r.disk_util_useful.mean <= r.disk_util_total.mean + 1e-9);
    }

    #[test]
    fn infinite_resources_scale_with_mpl_at_low_conflict() {
        let lo = run(quick_cfg(CcAlgorithm::Optimistic).with_params(
            Params::low_conflict()
                .with_mpl(5)
                .with_resources(ResourceSpec::Infinite),
        ))
        .unwrap()
        .report;
        let hi = run(quick_cfg(CcAlgorithm::Optimistic).with_params(
            Params::low_conflict()
                .with_mpl(50)
                .with_resources(ResourceSpec::Infinite),
        ))
        .unwrap()
        .report;
        assert!(
            hi.throughput.mean > lo.throughput.mean * 2.0,
            "mpl 50 ({}) should far outrun mpl 5 ({})",
            hi.throughput.mean,
            lo.throughput.mean
        );
    }

    #[test]
    fn avg_active_never_exceeds_mpl() {
        for algo in CcAlgorithm::PAPER_TRIO {
            let cfg = quick_cfg(algo).with_params(Params::paper_baseline().with_mpl(10));
            let r = run(cfg).unwrap().report;
            assert!(
                r.avg_active <= 10.0 + 1e-9,
                "{algo} avg_active {} exceeds mpl",
                r.avg_active
            );
            assert!(r.avg_active > 0.5, "{algo} avg_active {}", r.avg_active);
        }
    }

    #[test]
    fn blocking_blocks_and_restart_algorithms_restart() {
        let b = run(quick_cfg(CcAlgorithm::Blocking)).unwrap().report;
        assert!(b.block_ratio > 0.0, "blocking at db=1000 must block");
        let o = run(quick_cfg(CcAlgorithm::Optimistic)).unwrap().report;
        assert_eq!(o.block_ratio, 0.0, "optimistic never blocks");
        let ir = run(quick_cfg(CcAlgorithm::ImmediateRestart))
            .unwrap()
            .report;
        assert_eq!(ir.block_ratio, 0.0, "immediate-restart never blocks");
        assert!(ir.restart_ratio > 0.0);
    }

    #[test]
    fn deadlock_prevention_schemes_never_deadlock() {
        for algo in [
            CcAlgorithm::WaitDie,
            CcAlgorithm::WoundWait,
            CcAlgorithm::NoWaiting,
        ] {
            let r = run(quick_cfg(algo)).unwrap().report;
            assert_eq!(r.deadlocks, 0, "{algo} reported deadlocks");
        }
    }

    #[test]
    fn interactive_think_time_slows_responses() {
        // Unsaturated system (infinite resources, mpl = terminals) so that
        // response time reflects service + internal think, not ready-queue
        // waiting.
        let unsat = Params::low_conflict()
            .with_mpl(200)
            .with_resources(ResourceSpec::Infinite);
        let base = run(quick_cfg(CcAlgorithm::Optimistic).with_params(unsat.clone()))
            .unwrap()
            .report;
        let think = run(quick_cfg(CcAlgorithm::Optimistic).with_params(
            unsat.with_think_times(SimDuration::from_secs(3), SimDuration::from_secs(1)),
        ))
        .unwrap()
        .report;
        assert!(
            (base.response_time_mean - 0.5).abs() < 0.1,
            "base response {} should be ~0.5 s",
            base.response_time_mean
        );
        assert!(
            (think.response_time_mean - 1.5).abs() < 0.2,
            "with a 1 s internal think, response {} should be ~1.5 s",
            think.response_time_mean
        );
    }

    #[test]
    fn mpl_larger_than_terminals_is_harmless() {
        // The mpl caps *active* transactions; with mpl > num_terms it never
        // binds and throughput equals the uncapped closed-loop rate.
        let mut params = Params::paper_baseline().with_mpl(1000);
        params.num_terms = 20;
        let r = run(quick_cfg(CcAlgorithm::Blocking).with_params(params))
            .unwrap()
            .report;
        assert!(r.commits > 100);
        assert!(r.avg_active <= 20.0 + 1e-9);
    }

    #[test]
    fn zero_external_think_time_saturates_the_system() {
        let mut params = Params::paper_baseline().with_mpl(10);
        params.ext_think_time = SimDuration::ZERO;
        let r = run(quick_cfg(CcAlgorithm::Blocking).with_params(params))
            .unwrap()
            .report;
        // Terminals resubmit instantly, so the active set stays pinned.
        assert!(r.avg_active > 9.5, "avg_active {}", r.avg_active);
        assert!(r.commits > 100);
    }

    #[test]
    fn deterministic_transaction_sizes() {
        let mut params = Params::paper_baseline().with_mpl(5);
        params.min_size = 6;
        params.max_size = 6;
        let r = run(quick_cfg(CcAlgorithm::Optimistic).with_params(params))
            .unwrap()
            .report;
        assert!(r.commits > 100);
    }

    #[test]
    fn whole_database_transactions_make_progress() {
        // Every transaction reads the entire (tiny) database and writes all
        // of it: maximal conflict, upgrade deadlocks guaranteed. Progress
        // must still happen via victim selection.
        let mut params = Params::paper_baseline().with_mpl(5);
        params.db_size = 8;
        params.min_size = 8;
        params.max_size = 8;
        params.write_prob = 1.0;
        let r = run(quick_cfg(CcAlgorithm::Blocking).with_params(params))
            .unwrap()
            .report;
        assert!(r.commits > 50, "only {} commits", r.commits);
        assert!(r.deadlocks > 0, "upgrade deadlocks were expected");
    }

    #[test]
    fn no_cc_baseline_outruns_safe_algorithms_under_contention() {
        let nocc = run(quick_cfg(CcAlgorithm::NoCc)).unwrap().report;
        let blocking = run(quick_cfg(CcAlgorithm::Blocking)).unwrap().report;
        assert_eq!(nocc.restarts, 0);
        assert_eq!(nocc.blocks, 0);
        assert!(nocc.throughput.mean >= blocking.throughput.mean * 0.99);
    }

    #[test]
    fn response_percentiles_are_ordered() {
        let r = run(quick_cfg(CcAlgorithm::Blocking)).unwrap().report;
        assert!(r.response_time_p50 > 0.0);
        assert!(r.response_time_p50 <= r.response_time_p95);
        assert!(r.response_time_p95 <= r.response_time_p99);
        assert!(r.response_time_p99 <= r.response_time_max * 1.06);
        // The median of a right-skewed latency distribution sits below the
        // mean.
        assert!(r.response_time_p50 <= r.response_time_mean * 1.1);
    }

    #[test]
    fn static_locking_never_restarts() {
        // Preclaiming in a global order is deadlock-free, and the blocking
        // discipline never denies — so static locking commits every
        // transaction on its first attempt.
        let r = run(quick_cfg(CcAlgorithm::StaticLocking)).unwrap().report;
        assert!(r.commits > 100);
        assert_eq!(r.restarts, 0, "static locking restarted");
        assert_eq!(r.deadlocks, 0, "static locking deadlocked");
        assert!(r.block_ratio > 0.0, "contention should cause waits");
    }

    #[test]
    fn static_locking_trails_dynamic_at_moderate_contention() {
        // Preclaiming holds every lock for the whole transaction, so at the
        // baseline contention level dynamic 2PL should be at least as good.
        let dynamic = run(
            quick_cfg(CcAlgorithm::Blocking).with_params(Params::paper_baseline().with_mpl(25))
        )
        .unwrap()
        .report;
        let static_ = run(quick_cfg(CcAlgorithm::StaticLocking)
            .with_params(Params::paper_baseline().with_mpl(25)))
        .unwrap()
        .report;
        assert!(
            dynamic.throughput.mean >= static_.throughput.mean * 0.95,
            "dynamic {} vs static {}",
            dynamic.throughput.mean,
            static_.throughput.mean
        );
    }

    #[test]
    fn trace_captures_transaction_lifecycles() {
        let (report, trace) = traced(quick_cfg(CcAlgorithm::Blocking), 100_000);
        assert!(!trace.is_empty());
        // Every lifecycle event kind should appear under contention.
        let mut commits = 0u64;
        let mut blocks = 0u64;
        let mut restarts = 0u64;
        let mut deadlocks = 0u64;
        for (_, e) in trace.events() {
            match e {
                crate::trace::TraceEvent::Commit(_) => commits += 1,
                crate::trace::TraceEvent::Block(_, _) => blocks += 1,
                crate::trace::TraceEvent::Restart(_) => restarts += 1,
                crate::trace::TraceEvent::Deadlock { .. } => deadlocks += 1,
                _ => {}
            }
        }
        // Trace counts include warmup; metrics exclude it.
        assert!(commits >= report.commits, "{commits} vs {}", report.commits);
        assert!(blocks >= report.blocks);
        assert!(restarts >= report.restarts);
        assert!(deadlocks >= report.deadlocks);
        // Timestamps are nondecreasing.
        let mut last = SimTime::ZERO;
        for &(at, _) in trace.events() {
            assert!(at >= last);
            last = at;
        }
        let text = trace.render();
        assert!(text.contains("commits"));
    }

    #[test]
    fn trace_ring_never_perturbs_results() {
        // Recording is pure observation: no ring, a disabled ring
        // (capacity 0), a tiny evicting ring, and a lossless one must all
        // report the same simulation.
        let cfg = || quick_cfg(CcAlgorithm::Blocking);
        let silent = run(cfg()).expect("valid config").report;
        for capacity in [0, 8, 100_000] {
            let (report, _) = traced(cfg(), capacity);
            assert_eq!(silent, report, "a ring of {capacity} changed the run");
        }
    }

    #[test]
    fn basic_to_commits_and_never_deadlocks() {
        let r = run(quick_cfg(CcAlgorithm::BasicTO)).unwrap().report;
        assert!(r.commits > 100, "{} commits", r.commits);
        assert_eq!(r.deadlocks, 0, "basic T/O is deadlock-free");
        assert!(r.restarts > 0, "timestamp rejections were expected");
    }

    #[test]
    fn basic_to_readers_wait_on_pending_prewrites() {
        // Under high write contention some reads must park on pending
        // prewrites of older transactions.
        let mut params = Params::paper_baseline().with_mpl(50);
        params.write_prob = 0.75;
        let r = run(quick_cfg(CcAlgorithm::BasicTO).with_params(params))
            .unwrap()
            .report;
        assert!(r.blocks > 0, "expected reader waits, saw none");
        assert_eq!(r.deadlocks, 0);
    }

    #[test]
    fn victim_policies_all_resolve_deadlocks() {
        for victim in VictimPolicy::ALL {
            let mut cfg =
                quick_cfg(CcAlgorithm::Blocking).with_params(Params::paper_baseline().with_mpl(50));
            cfg.victim = victim;
            let r = run(cfg).unwrap().report;
            assert!(r.commits > 100, "{:?}: {} commits", victim, r.commits);
            assert!(
                r.deadlocks > 0,
                "{:?}: expected deadlocks at mpl 50",
                victim
            );
        }
    }

    #[test]
    fn victim_policy_changes_outcomes() {
        let mut young =
            quick_cfg(CcAlgorithm::Blocking).with_params(Params::paper_baseline().with_mpl(75));
        young.victim = VictimPolicy::Youngest;
        let mut old = young.clone();
        old.victim = VictimPolicy::Oldest;
        let a = run(young).unwrap().report;
        let b = run(old).unwrap().report;
        assert_ne!(
            a.commits, b.commits,
            "different victim policies should diverge"
        );
    }

    #[test]
    fn fixed_restart_delay_policy_is_honored() {
        // A very long fixed delay should depress immediate-restart
        // throughput relative to the adaptive policy (the paper's
        // sensitivity result).
        let adaptive = run(quick_cfg(CcAlgorithm::ImmediateRestart).with_params(
            Params::paper_baseline()
                .with_mpl(100)
                .with_resources(ResourceSpec::Infinite),
        ))
        .unwrap()
        .report;
        let long_delay = run(quick_cfg(CcAlgorithm::ImmediateRestart).with_params(
            Params::paper_baseline()
                .with_mpl(100)
                .with_resources(ResourceSpec::Infinite)
                .with_restart_delay(RestartDelayPolicy::Fixed(SimDuration::from_secs(30))),
        ))
        .unwrap()
        .report;
        assert!(
            long_delay.throughput.mean < adaptive.throughput.mean * 0.8,
            "30s delays ({}) should hurt vs adaptive ({})",
            long_delay.throughput.mean,
            adaptive.throughput.mean
        );
    }

    #[test]
    fn optimistic_trace_records_validation_failures() {
        let (report, trace) = traced(quick_cfg(CcAlgorithm::Optimistic), 200_000);
        assert!(report.restarts > 0);
        let failures = trace
            .events()
            .filter(|(_, e)| matches!(e, crate::trace::TraceEvent::ValidationFailure(_, _)))
            .count();
        assert!(failures > 0, "expected validation-failure trace events");
    }

    #[test]
    fn useful_utilization_equals_total_when_no_restarts() {
        // Low conflict + blocking: restarts are rare, so wasted work ~ 0
        // and useful ≈ total.
        let cfg = quick_cfg(CcAlgorithm::Blocking).with_params(Params::low_conflict().with_mpl(10));
        let r = run(cfg).unwrap().report;
        assert!(
            (r.disk_util_total.mean - r.disk_util_useful.mean).abs() < 0.02,
            "total {} vs useful {}",
            r.disk_util_total.mean,
            r.disk_util_useful.mean
        );
    }
}
