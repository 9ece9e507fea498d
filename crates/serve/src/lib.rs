//! `ccsim-serve` — sweep-as-a-service over the reproduction harness.
//!
//! A capacity-planning study is a pile of what-if sweeps: vary mpl,
//! resources, algorithm; re-ask last week's question with one parameter
//! changed. This crate turns the resilient supervised runner in
//! `ccsim-experiments` into a long-running, multi-tenant daemon for
//! exactly that traffic:
//!
//! - **Protocol** — line-delimited JSON over plain TCP (no external
//!   deps; the same hand-rolled `json` module that archives results
//!   parses the wire). One request per connection: `submit` streams
//!   `ack`, per-point `point` events, and a terminal `done` / `paused` /
//!   `error`; `watch` re-attaches to a job by hash; `status` lists the
//!   queue.
//! - **Durability** — jobs are journaled atomically *before* the ack
//!   ([`journal`]), every grid point lands in a checkpoint manifest as
//!   it completes, and restart-after-`kill -9` resumes every unfinished
//!   job to byte-identical output.
//! - **Graceful degradation** — per-client [`ccsim_core::EventPool`]
//!   budgets, queue-depth load shedding with a retry-after hint, and a
//!   drain path (SIGTERM) that checkpoints in-flight points before exit.
//! - **Economy** — a result cache ([`cache`]) keyed by the canonical
//!   config hash ([`job`]): a repeated what-if costs zero simulated
//!   events.
//!
//! See `EXPERIMENTS.md` § "Sweep service" for the protocol reference.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
mod chaos;
pub mod job;
pub mod journal;
pub mod server;

pub use cache::ResultCache;
pub use job::JobSpec;
pub use journal::{JobJournal, JobRecord, JobState};
pub use server::{start, ServerConfig, ServerHandle, MAX_REQUEST_BYTES};

/// Re-exported name of the chaos env var (always defined; the hooks it
/// arms are compiled only with the `chaos` feature).
pub use chaos::ENV as CHAOS_ENV;
