//! Running averages for adaptive control.
//!
//! The paper's immediate-restart algorithm draws its restart delay from an
//! exponential whose mean is "the running average of the transaction
//! response time". [`RunningAvg`] is that cumulative average, with a
//! configurable prior used until the first observation arrives.

use ccsim_des::SimDuration;

/// Cumulative running average of durations, with a prior for the empty state.
#[derive(Debug, Clone)]
pub struct RunningAvg {
    prior: SimDuration,
    total_us: u128,
    count: u64,
}

impl RunningAvg {
    /// Create with a prior returned until the first observation.
    #[must_use]
    pub fn new(prior: SimDuration) -> Self {
        RunningAvg {
            prior,
            total_us: 0,
            count: 0,
        }
    }

    /// Record an observation.
    pub fn observe(&mut self, d: SimDuration) {
        self.total_us += u128::from(d.as_micros());
        self.count += 1;
    }

    /// Current running average (the prior if nothing observed yet).
    #[must_use]
    pub fn value(&self) -> SimDuration {
        if self.count == 0 {
            self.prior
        } else {
            SimDuration::from_micros((self.total_us / u128::from(self.count)) as u64)
        }
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_until_first_observation() {
        let mut r = RunningAvg::new(SimDuration::from_secs(1));
        assert_eq!(r.value(), SimDuration::from_secs(1));
        r.observe(SimDuration::from_secs(3));
        assert_eq!(r.value(), SimDuration::from_secs(3));
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn cumulative_average() {
        let mut r = RunningAvg::new(SimDuration::ZERO);
        r.observe(SimDuration::from_secs(1));
        r.observe(SimDuration::from_secs(2));
        r.observe(SimDuration::from_secs(3));
        assert_eq!(r.value(), SimDuration::from_secs(2));
    }

    #[test]
    fn no_overflow_on_many_observations() {
        let mut r = RunningAvg::new(SimDuration::ZERO);
        for _ in 0..1_000_000 {
            r.observe(SimDuration::from_secs(1_000));
        }
        assert_eq!(r.value(), SimDuration::from_secs(1_000));
    }
}
