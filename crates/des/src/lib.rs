//! `ccsim-des` — a small, deterministic discrete-event simulation engine.
//!
//! This crate provides the substrate on which the closed queuing model of
//! Agrawal, Carey & Livny's *"Models for Studying Concurrency Control
//! Performance"* (SIGMOD 1985) is built:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time;
//! * [`Calendar`] — an event calendar with FIFO tie-breaking;
//! * [`Xoshiro256StarStar`] / [`RngStreams`] — reproducible random number
//!   streams (one per stochastic model component);
//! * [`Exponential`], [`UniformInclusive`], [`sample_distinct_into`] — the
//!   variate generators the workload model needs;
//! * [`prefetch`] — the one cache-prefetch hint, safe to call on any
//!   reference.
//!
//! # Example
//!
//! ```
//! use ccsim_des::{Calendar, Exponential, RngStreams, SimDuration, SimTime};
//!
//! let streams = RngStreams::new(1);
//! let mut rng = streams.stream(0);
//! let think = Exponential::new(SimDuration::from_secs(1));
//!
//! let mut cal: Calendar<u32> = Calendar::new();
//! cal.schedule(SimTime::ZERO + think.sample(&mut rng), 7);
//! while let Some((now, event)) = cal.pop() {
//!     assert_eq!(event, 7);
//!     assert!(now >= SimTime::ZERO);
//! }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod calendar;
mod dist;
mod prefetch;
mod rng;
mod time;

pub use calendar::{Calendar, CalendarStats};
pub use dist::{
    sample_distinct_into, sample_exponential, ExpBlock, Exponential, UniformBlock, UniformInclusive,
};
pub use prefetch::prefetch;
pub use rng::{derive_seed, BufferedRng, RandomSource, RngStreams, SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime, MICROS_PER_MILLI, MICROS_PER_SEC};
