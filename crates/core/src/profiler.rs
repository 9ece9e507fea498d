//! Feature-gated in-engine stage profiler.
//!
//! The steady-state event loop is partitioned into a handful of *stages*
//! (calendar pop, event handling, step dispatch, lock-table probing,
//! validation, variate generation). With the `stage-profiler` cargo feature
//! enabled, the engine timestamps every stage transition with the cheapest
//! cycle counter the platform offers (`rdtsc` on x86_64, a monotonic clock
//! elsewhere) and accumulates per-stage cycle and entry counts. Because the
//! stages partition the loop's timeline — every transition closes the
//! previous stage — the per-stage times sum to the whole loop by
//! construction, so the breakdown accounts for (nearly) all of the run's
//! wall time rather than sampling slices of it.
//!
//! With the feature **disabled** (the default), [`StageProfiler`] is a
//! zero-sized struct whose methods are empty `#[inline(always)]` bodies:
//! every call site compiles to nothing, the struct adds no bytes to the
//! simulator, and the steady-state loop contains no profiling code at all.
//! CI's `perf-ab` job pins this by timing the default build against its
//! base revision with ccbench.
//!
//! The profiler observes wall time only; it never reads or influences
//! simulation state, so reports are byte-identical with the feature on or
//! off.

/// Hot-loop stages. Attribution is *inclusive*: work triggered from a stage
/// (e.g. the grant cascade a lock release sets off) is charged to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Popping the next event off the calendar (lane/heap repair and the
    /// per-event budget checks included).
    Pop = 0,
    /// Event decode and completion bookkeeping: epoch filtering, resource
    /// pool completions, scheduling of consequent events.
    Handle = 1,
    /// The step interpreter: walking decoded programs, submitting CPU/disk
    /// services, admission.
    Dispatch = 2,
    /// Concurrency-control requests against the lock table (probe, queue,
    /// deadlock search) and the grant/abort cascades they trigger.
    LockTable = 3,
    /// Commit-point validation (OCC / SI / Silo / TicToc) and its cascades.
    Validate = 4,
    /// Workload variate generation: access specs, think times, restart
    /// delays.
    Variate = 5,
}

/// Number of distinct [`Stage`]s.
pub const STAGE_COUNT: usize = 6;

#[cfg_attr(not(feature = "stage-profiler"), allow(dead_code))]
const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "calendar-pop",
    "event-handle",
    "step-dispatch",
    "lock-table",
    "validation",
    "variate-gen",
];

/// One stage's share of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample {
    /// Stage name (stable, snake/kebab-case — used as a JSON key).
    pub name: &'static str,
    /// Cycles (or nanoseconds on non-x86_64) attributed to the stage.
    pub cycles: u64,
    /// Number of transitions *into* the stage.
    pub enters: u64,
    /// Fraction of the profiled loop time spent in the stage.
    pub frac: f64,
}

/// Per-stage breakdown of a completed run (feature `stage-profiler` only;
/// [`crate::RunOutcome::stages`] is `None` otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Per-stage samples, in [`Stage`] order.
    pub stages: Vec<StageSample>,
    /// Total cycles across all stages (the profiled loop span).
    pub total_cycles: u64,
    /// Wall-clock duration of the profiled loop span.
    pub wall: std::time::Duration,
}

impl StageProfile {
    /// Seconds attributed to stage `i`, scaling cycles to the measured wall
    /// span (cycle frequency is never assumed).
    #[must_use]
    pub fn stage_secs(&self, i: usize) -> f64 {
        self.wall.as_secs_f64() * self.stages[i].frac
    }

    /// Render the per-stage table, with `run_wall` as the denominator line
    /// (the engine's full event-loop wall time, which the profiled span
    /// must cover to ≥95% for the breakdown to be trustworthy).
    #[must_use]
    pub fn render(&self, run_wall: std::time::Duration) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<14} {:>14} {:>12} {:>8} {:>10}",
            "stage", "cycles", "enters", "share", "est. secs"
        );
        for (i, s) in self.stages.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<14} {:>14} {:>12} {:>7.2}% {:>10.3}",
                s.name,
                s.cycles,
                s.enters,
                s.frac * 100.0,
                self.stage_secs(i)
            );
        }
        let covered = if run_wall.as_secs_f64() > 0.0 {
            self.wall.as_secs_f64() / run_wall.as_secs_f64()
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "  stages sum to {:.3} s = {:.1}% of the {:.3} s event loop",
            self.wall.as_secs_f64(),
            covered * 100.0,
            run_wall.as_secs_f64()
        );
        out
    }
}

/// Is the stage profiler compiled into this build?
pub const STAGE_PROFILER_COMPILED: bool = cfg!(feature = "stage-profiler");

#[cfg(feature = "stage-profiler")]
mod imp {
    use super::{Stage, StageProfile, StageSample, STAGE_COUNT, STAGE_NAMES};

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn now_cycles(_origin: std::time::Instant) -> u64 {
        // SAFETY: rdtsc has no preconditions; it reads the TSC.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn now_cycles(origin: std::time::Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// The live accumulator (feature on). One instance per simulator.
    #[derive(Debug)]
    pub struct StageProfiler {
        cycles: [u64; STAGE_COUNT],
        enters: [u64; STAGE_COUNT],
        cur: usize,
        last: u64,
        origin: std::time::Instant,
        started_at: Option<std::time::Instant>,
        wall: std::time::Duration,
        running: bool,
    }

    impl StageProfiler {
        pub fn new() -> Self {
            StageProfiler {
                cycles: [0; STAGE_COUNT],
                enters: [0; STAGE_COUNT],
                cur: 0,
                last: 0,
                origin: std::time::Instant::now(),
                started_at: None,
                wall: std::time::Duration::ZERO,
                running: false,
            }
        }

        /// Open the profiled span; subsequent time accrues to `first`.
        #[inline(always)]
        pub fn start(&mut self, first: Stage) {
            self.cur = first as usize;
            self.enters[self.cur] += 1;
            self.last = now_cycles(self.origin);
            self.started_at = Some(std::time::Instant::now());
            self.running = true;
        }

        /// Close the previous stage and start accruing to `stage`.
        #[inline(always)]
        pub fn switch(&mut self, stage: Stage) {
            let now = now_cycles(self.origin);
            self.cycles[self.cur] += now.wrapping_sub(self.last);
            self.last = now;
            self.cur = stage as usize;
            self.enters[self.cur] += 1;
        }

        /// Close the profiled span (idempotent).
        #[inline(always)]
        pub fn stop(&mut self) {
            if !self.running {
                return;
            }
            let now = now_cycles(self.origin);
            self.cycles[self.cur] += now.wrapping_sub(self.last);
            self.last = now;
            if let Some(at) = self.started_at.take() {
                self.wall += at.elapsed();
            }
            self.running = false;
        }

        pub fn report(&self) -> Option<StageProfile> {
            let total: u64 = self.cycles.iter().sum();
            let stages = (0..STAGE_COUNT)
                .map(|i| StageSample {
                    name: STAGE_NAMES[i],
                    cycles: self.cycles[i],
                    enters: self.enters[i],
                    frac: if total > 0 {
                        self.cycles[i] as f64 / total as f64
                    } else {
                        0.0
                    },
                })
                .collect();
            Some(StageProfile {
                stages,
                total_cycles: total,
                wall: self.wall,
            })
        }
    }
}

#[cfg(not(feature = "stage-profiler"))]
mod imp {
    use super::{Stage, StageProfile};

    /// The compiled-out profiler: a zero-sized type whose methods are empty
    /// and always inlined, so call sites vanish entirely.
    #[derive(Debug)]
    pub struct StageProfiler;

    impl StageProfiler {
        #[inline(always)]
        pub fn new() -> Self {
            StageProfiler
        }
        #[inline(always)]
        pub fn start(&mut self, _first: Stage) {}
        #[inline(always)]
        pub fn switch(&mut self, _stage: Stage) {}
        #[inline(always)]
        pub fn stop(&mut self) {}
        #[inline(always)]
        pub fn report(&self) -> Option<StageProfile> {
            None
        }
    }
}

pub(crate) use imp::StageProfiler;

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "stage-profiler"))]
    #[test]
    fn compiled_out_profiler_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<StageProfiler>(), 0);
        let mut p = StageProfiler::new();
        p.start(Stage::Pop);
        p.switch(Stage::Dispatch);
        p.stop();
        assert!(p.report().is_none());
        assert_eq!(STAGE_PROFILER_COMPILED, cfg!(feature = "stage-profiler"));
    }

    #[cfg(feature = "stage-profiler")]
    #[test]
    fn stage_fractions_partition_the_span() {
        let mut p = StageProfiler::new();
        p.start(Stage::Pop);
        for _ in 0..100 {
            p.switch(Stage::Handle);
            p.switch(Stage::Dispatch);
            p.switch(Stage::Pop);
        }
        p.stop();
        let r = p.report().expect("feature on");
        assert_eq!(r.stages.len(), STAGE_COUNT);
        let sum: f64 = r.stages.iter().map(|s| s.frac).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert_eq!(r.stages[Stage::Pop as usize].enters, 101);
        assert_eq!(r.stages[Stage::Handle as usize].enters, 100);
        assert_eq!(STAGE_PROFILER_COMPILED, cfg!(feature = "stage-profiler"));
        let table = r.render(r.wall);
        assert!(table.contains("calendar-pop"));
    }
}
