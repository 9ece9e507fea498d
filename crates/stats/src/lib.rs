//! `ccsim-stats` — statistical machinery for the concurrency-control
//! performance study.
//!
//! The paper analyzes its simulations with a *modified batch means* method
//! [Sarg76, Care83]: each run is divided into batches, per-batch throughput
//! (and other metrics) form the samples, and 90% Student-t confidence
//! intervals qualify which differences are statistically significant. This
//! crate provides:
//!
//! * [`Welford`] — numerically stable running mean/variance;
//! * [`BatchMeans`] / [`Estimate`] — batch means with t-based intervals and a
//!   lag-1 autocorrelation diagnostic, also used over independent
//!   replication means;
//! * [`TimeWeighted`] — time-weighted averages of step signals (e.g. the
//!   *actual* multiprogramming level the paper discusses in §4.3);
//! * [`RunningAvg`] — the adaptive restart-delay estimator;
//! * [`LogHistogram`] — log-bucketed latency histogram with quantiles, in
//!   O(1) memory at any run length;
//! * [`paired_t`] — paired comparisons of replications under common random
//!   numbers.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod batch;
mod histogram;
mod replication;
mod running;
mod timeweighted;
mod ttable;
mod welford;

pub use batch::{BatchMeans, Estimate};
pub use histogram::LogHistogram;
pub use replication::{paired_t, PairedT};
pub use running::RunningAvg;
pub use timeweighted::TimeWeighted;
pub use ttable::t_quantile_90;
pub use welford::Welford;
