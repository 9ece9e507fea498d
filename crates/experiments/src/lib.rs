//! `ccsim-experiments` — the reproduction harness.
//!
//! Every table and figure in the paper's evaluation section is encoded as an
//! [`ExperimentSpec`] in [`catalog`]; [`run_experiment`] sweeps its
//! `(algorithm × mpl)` grid in parallel; [`report`] renders the same tables
//! the paper plots; [`checks::evaluate`] verifies the paper's qualitative
//! claims against the measured data.
//!
//! The `repro` binary ties it together:
//!
//! ```text
//! repro list                  # show the catalog
//! repro exp3 --quick          # regenerate Figures 8-10 at smoke fidelity
//! repro fig5                  # select by paper figure number
//! repro all --out results/    # full paper reproduction + EXPERIMENTS.md data
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod checks;
pub mod json;
pub mod manifest;
pub mod md;
mod replicate;
pub mod report;
mod runner;
mod spec;

#[cfg(feature = "chaos")]
pub use chaos::{ChaosKind, ChaosPoint};
pub use manifest::{write_atomic, Manifest, ManifestEntry, ManifestError};
pub use replicate::{aggregate_reports, NoReplications};
pub use runner::{
    check_history, run_experiment, run_experiment_supervised, Fidelity, PointProgress, RunOptions,
    SweepControl, SweepError,
};
pub use spec::{
    DataPoint, ExperimentResult, ExperimentSpec, FailureKind, FigureKind, FigureView, PointFailure,
    Series,
};
