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
//! repro all --out results --md results/RESULTS.md
//!                             # full paper reproduction (the checked-in results/)
//! ```
//!
//! Every result file is written with [`write_atomic`], so a sweep killed
//! mid-write leaves each file either as it was or complete.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::io;
use std::path::{Path, PathBuf};

pub mod catalog;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod checks;
pub mod json;
pub mod md;
mod replicate;
pub mod report;
mod runner;
mod spec;

#[cfg(feature = "chaos")]
pub use chaos::{ChaosKind, ChaosPoint};
pub use replicate::{aggregate_reports, NoReplications};
pub use runner::{
    check_history, run_experiment, run_experiment_supervised, Fidelity, PointProgress, RunOptions,
    SweepControl, SweepError,
};
pub use spec::{
    DataPoint, ExperimentResult, ExperimentSpec, FailureKind, FigureKind, FigureView, PointFailure,
    Series,
};

/// Write `contents` to `path` atomically: write a sibling `*.tmp` file,
/// then rename it into place. A crash mid-write leaves either the old
/// file or nothing — never a truncated result.
///
/// # Errors
/// Returns the underlying I/O error from the write or rename.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("ccsim-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join("exp.json");
        write_atomic(&path, b"old").expect("first write");
        write_atomic(&path, b"new").expect("second write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"new");
        assert!(!dir.join("exp.json.tmp").exists());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
