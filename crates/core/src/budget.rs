//! Run budgets and structured run errors.
//!
//! A long sweep is only as robust as its worst run: one livelocked or
//! runaway grid point must not be able to wedge the whole experiment. A
//! [`RunBudget`] puts hard ceilings on a single simulation run — events
//! processed and simulated time — and the engine checks them inside its
//! event loop. A run that exceeds its budget terminates with
//! [`RunError::BudgetExhausted`] carrying exactly where it stopped,
//! instead of hanging the worker that owns it.
//!
//! Both ceilings are *deterministic*: two runs of the same configuration
//! exhaust them at the same event with the same counters, so a budget
//! failure reads the same on every host and thread count.

use std::fmt;

use ccsim_des::{SimDuration, SimTime};
use ccsim_workload::ParamError;

/// Hard ceilings for one simulation run. The default budget allows
/// [`RunBudget::DEFAULT_MAX_EVENTS`] events and is otherwise unlimited —
/// generous enough for every paper-fidelity experiment (which needs on the
/// order of 10⁸ events at its most contended point) while still
/// terminating a zero-progress livelock in minutes rather than never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum calendar events the engine may process (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Maximum simulated time the run may reach (`None` = unlimited; the
    /// batch horizon already bounds healthy runs, so this mainly guards
    /// misconfigured metrics).
    pub max_sim_time: Option<SimDuration>,
}

impl RunBudget {
    /// Default event ceiling: ~10× the busiest paper-fidelity run.
    pub const DEFAULT_MAX_EVENTS: u64 = 2_000_000_000;

    /// A budget with no ceilings at all (pre-budget behavior).
    #[must_use]
    pub const fn unlimited() -> Self {
        RunBudget {
            max_events: None,
            max_sim_time: None,
        }
    }

    /// Builder-style event-ceiling replacement.
    #[must_use]
    pub const fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Builder-style simulated-time-ceiling replacement.
    #[must_use]
    pub const fn with_max_sim_time(mut self, max_sim_time: SimDuration) -> Self {
        self.max_sim_time = Some(max_sim_time);
        self
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            max_events: Some(Self::DEFAULT_MAX_EVENTS),
            max_sim_time: None,
        }
    }
}

/// Which ceiling of a [`RunBudget`] a run exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The event ceiling (`max_events`).
    Events,
    /// The simulated-time ceiling (`max_sim_time`).
    SimTime,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "event",
            BudgetKind::SimTime => "simulated-time",
        })
    }
}

/// Why a simulation run failed to produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The configuration failed validation before the run started.
    InvalidConfig(ParamError),
    /// The run exceeded its [`RunBudget`] and was terminated. `events` and
    /// `sim_time` record where it stopped; both are deterministic for a
    /// given configuration.
    BudgetExhausted {
        /// The ceiling that was exceeded.
        exceeded: BudgetKind,
        /// Events processed when the run stopped.
        events: u64,
        /// Simulated instant the run had reached.
        sim_time: SimTime,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            RunError::BudgetExhausted {
                exceeded,
                events,
                sim_time,
            } => write!(
                f,
                "run budget exhausted ({exceeded} ceiling) after {events} events, \
                 sim time {sim_time}"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidConfig(e) => Some(e),
            RunError::BudgetExhausted { .. } => None,
        }
    }
}

impl From<ParamError> for RunError {
    fn from(e: ParamError) -> Self {
        RunError::InvalidConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_caps_events_only() {
        let b = RunBudget::default();
        assert_eq!(b.max_events, Some(RunBudget::DEFAULT_MAX_EVENTS));
        assert_eq!(b.max_sim_time, None);
        assert_eq!(RunBudget::unlimited().max_events, None);
    }

    #[test]
    fn builders_set_each_ceiling() {
        let b = RunBudget::unlimited()
            .with_max_events(10)
            .with_max_sim_time(SimDuration::from_secs(5));
        assert_eq!(b.max_events, Some(10));
        assert_eq!(b.max_sim_time, Some(SimDuration::from_secs(5)));
    }

    #[test]
    fn errors_render_their_cause() {
        let e = RunError::BudgetExhausted {
            exceeded: BudgetKind::Events,
            events: 42,
            sim_time: SimTime::from_secs(3),
        };
        assert_eq!(
            e.to_string(),
            "run budget exhausted (event ceiling) after 42 events, sim time 3.000000s"
        );
        let v = RunError::from(ParamError("mpl must be positive".into()));
        assert!(v.to_string().contains("invalid configuration"));
    }
}
