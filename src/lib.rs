//! `ccsim-repro` — umbrella crate for the reproduction of Agrawal, Carey &
//! Livny, *"Models for Studying Concurrency Control Performance:
//! Alternatives and Implications"* (SIGMOD 1985).
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the substance lives in the
//! workspace crates, re-exported here for convenience:
//!
//! | crate | role |
//! |---|---|
//! | [`des`] | discrete-event engine: clock, calendar, RNG, distributions |
//! | [`resources`] | CPU pool and partitioned disk array (physical model) |
//! | [`lockmgr`] | 2PL lock table, upgrades, deadlock detection |
//! | [`occ`] | backward validation of `(object, bound)` pairs for optimistic, silo-occ and mvcc-si |
//! | [`workload`] | Table 1 parameters and transaction generation |
//! | [`stats`] | batch means, confidence intervals, running averages |
//! | [`core`] | the closed queuing model with pluggable CC (Figures 1–2) |
//! | [`experiments`] | figure catalog, parallel sweeps, shape checks |
//! | [`history`] | committed-transaction recording + serializability checker |
//! | [`analytic`] | MVA and contention approximations, validated vs. simulation |

pub use ccsim_analytic as analytic;
pub use ccsim_core as core;
pub use ccsim_des as des;
pub use ccsim_experiments as experiments;
pub use ccsim_history as history;
pub use ccsim_lockmgr as lockmgr;
pub use ccsim_occ as occ;
pub use ccsim_resources as resources;
pub use ccsim_stats as stats;
pub use ccsim_workload as workload;
