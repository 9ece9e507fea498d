//! `ccsim-bench` — benchmark support code.
//!
//! The benches themselves live in `benches/`:
//!
//! * `figures` — one Criterion group per paper table/figure; each benchmark
//!   runs the reduced-fidelity simulation that regenerates that artifact
//!   (the full-fidelity regeneration is `repro <id>`).
//! * `engine` — microbenchmarks of the substrates (event calendar, lock
//!   manager, optimistic validator, workload generator) plus end-to-end
//!   simulated-events-per-second.
//! * `ablations` — design-choice ablations called out in DESIGN.md: deadlock
//!   victim policies, deadlock prevention vs. detection, restart-delay
//!   policies.
//!
//! These are exploratory numbers, not regression gates: tracked engine
//! speed is the `ccbench` package at the repository root (`ccbench/ab.sh`
//! for same-host A/B runs), and `simulate --perf` / `--profile` (the
//! latter built with `--features profile`) give one run's engine counters
//! and per-stage breakdown.

#![warn(missing_docs)]
#![warn(clippy::all)]

use ccsim_core::{Confidence, MetricsConfig};
use ccsim_des::SimDuration;

/// The metrics configuration benchmarks use: short but non-trivial, so a
/// benchmark iteration exercises warmup, measurement, and reporting.
#[must_use]
pub fn bench_metrics() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 3,
        batch_time: SimDuration::from_secs(20),
        confidence: Confidence::Ninety,
    }
}
