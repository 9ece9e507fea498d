#![doc = include_str!("../README.md")]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt::Write as _;

mod calibrate;
mod layers;
mod spans;
mod workload;

pub use layers::{replay_locks, LockReplay, Recorder, Recording};
pub use workload::{Size, WORKLOADS};

/// The seed used when none is given. Seed 1985 is held out: confirm a
/// performance claim on it only once the change is final.
pub const DEFAULT_SEED: u64 = 52357;

/// Spread of the samples behind a timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Samples {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value: the median for a sampled timing.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample spread, for timings taken several times.
    pub samples: Option<Samples>,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// The median of `v` with its spread.
    fn sampled(name: &'static str, unit: &'static str, v: &[f64]) -> Self {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = match n {
            0 => 0.0,
            _ if n % 2 == 1 => s[n / 2],
            _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        };
        Metric {
            name,
            value: median,
            unit,
            samples: Some(Samples {
                n,
                min: s.first().copied().unwrap_or(0.0),
                max: s.last().copied().unwrap_or(0.0),
            }),
        }
    }
}

/// What one benchmark run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: simulation runs and sweep points, pass-to-pass
    /// report comparisons, shape checks, and in the traced run the replays,
    /// audits and JSON parses.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but not part of the result: the
    /// raw timings and the host speed factor of the untraced run.
    pub notes: Vec<Metric>,
    /// The traced run's spans as JSON.
    pub spans: Option<String>,
}

impl Outcome {
    /// True when no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One line per metric, `<workload> <metric> <value> <unit>`, timings
    /// followed by `n=`, `min=` and `max=`; then `host_cores` and
    /// `failed_share`.
    #[must_use]
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = write!(out, "{workload} {} {} {}", m.name, m.value, m.unit);
            if let Some(s) = m.samples {
                let _ = write!(out, " n={} min={} max={}", s.n, s.min, s.max);
            }
            out.push('\n');
        }
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "{workload} host_cores {cores} count");
        let _ = writeln!(out, "{workload} failed_share {share} ratio");
        out
    }

    /// The result as one JSON object with the keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Run `workload` once: untraced, it returns the end-to-end metrics after
/// measuring for at least `seconds`; traced, the per-layer metrics of one
/// traced pass. `size` is [`Size::Full`] except in tests.
///
/// # Errors
/// Returns an error for an unknown workload name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    let work = workload::Work::new(workload, seed, size)?;
    Ok(if trace {
        workload::traced(&work, seed, size)
    } else {
        workload::untraced(&work, seconds, size)
    })
}
