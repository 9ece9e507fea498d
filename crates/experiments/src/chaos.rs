//! Deterministic fault injection for supervisor tests (feature `chaos`).
//!
//! A [`ChaosPoint`] targets one grid coordinate by `(series index, mpl,
//! replication)` and makes its run fail — either by panicking inside the
//! worker (exercising `catch_unwind` isolation) or by shrinking the run's
//! budget to a few events (exercising the engine's
//! [`ccsim_core::RunError::BudgetExhausted`] path). A sweep runs each
//! coordinate once, so the fault always lands; a fresh run of the sweep
//! without the fault fills the hole and must equal the clean result.
//! Injection is coordinate-keyed, never time- or scheduling-keyed, so chaos
//! runs are exactly reproducible.
//!
//! The `repro` binary reads the `CCSIM_CHAOS` environment variable (e.g.
//! `CCSIM_CHAOS=panic@1:50:0`) when built with this feature; integration
//! tests construct [`ChaosPoint`]s directly.

/// How the targeted run should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Panic in the worker before the run starts.
    Panic,
    /// Replace the run's budget with a tiny one so the engine reports
    /// budget exhaustion.
    BudgetExhaust,
}

/// One injected fault, keyed by grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPoint {
    /// Series index into the spec's `series`.
    pub series_ix: usize,
    /// Multiprogramming level.
    pub mpl: u32,
    /// Replication index.
    pub rep: u32,
    /// Failure mode.
    pub kind: ChaosKind,
}

impl ChaosPoint {
    /// Event ceiling used for [`ChaosKind::BudgetExhaust`] — small enough
    /// to trip within milliseconds, large enough to pass engine priming.
    pub const TINY_EVENT_BUDGET: u64 = 64;

    /// Parse `panic@si:mpl:rep` or `budget@si:mpl:rep`.
    ///
    /// # Errors
    /// Returns a description of the malformed field.
    pub fn parse(s: &str) -> Result<ChaosPoint, String> {
        let (kind, coord) = s
            .split_once('@')
            .ok_or_else(|| format!("chaos spec {s:?} has no '@' (want kind@si:mpl:rep)"))?;
        let kind = match kind {
            "panic" => ChaosKind::Panic,
            "budget" => ChaosKind::BudgetExhaust,
            other => return Err(format!("unknown chaos kind {other:?} (panic|budget)")),
        };
        let fields: Vec<&str> = coord.split(':').collect();
        let [si, mpl, rep] = fields.as_slice() else {
            return Err(format!("chaos coordinate {coord:?} is not si:mpl:rep"));
        };
        Ok(ChaosPoint {
            series_ix: si
                .parse()
                .map_err(|e| format!("bad series index {si:?}: {e}"))?,
            mpl: mpl.parse().map_err(|e| format!("bad mpl {mpl:?}: {e}"))?,
            rep: rep
                .parse()
                .map_err(|e| format!("bad replication {rep:?}: {e}"))?,
            kind,
        })
    }

    /// Read a chaos point from the `CCSIM_CHAOS` environment variable.
    ///
    /// # Errors
    /// Returns the parse error for a malformed value; `Ok(None)` when the
    /// variable is unset or empty.
    pub fn from_env() -> Result<Option<ChaosPoint>, String> {
        match std::env::var("CCSIM_CHAOS") {
            Ok(v) if !v.is_empty() => Self::parse(&v).map(Some),
            _ => Ok(None),
        }
    }

    /// Does this fault hit the given grid coordinate?
    #[must_use]
    pub fn targets(&self, series_ix: usize, mpl: u32, rep: u32) -> bool {
        self.series_ix == series_ix && self.mpl == mpl && self.rep == rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_kinds() {
        assert_eq!(
            ChaosPoint::parse("panic@1:50:0"),
            Ok(ChaosPoint {
                series_ix: 1,
                mpl: 50,
                rep: 0,
                kind: ChaosKind::Panic,
            })
        );
        assert_eq!(
            ChaosPoint::parse("budget@0:5:2"),
            Ok(ChaosPoint {
                series_ix: 0,
                mpl: 5,
                rep: 2,
                kind: ChaosKind::BudgetExhaust,
            })
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(ChaosPoint::parse("panic").is_err());
        assert!(ChaosPoint::parse("explode@1:2:3").is_err());
        assert!(ChaosPoint::parse("panic@1:2").is_err());
        assert!(ChaosPoint::parse("panic@a:2:3").is_err());
        assert!(ChaosPoint::parse("panic@1:50:0*2").is_err());
    }

    #[test]
    fn targeting_is_exact() {
        let p = ChaosPoint::parse("panic@1:50:0").unwrap();
        assert!(p.targets(1, 50, 0));
        assert!(!p.targets(1, 50, 1));
        assert!(!p.targets(0, 50, 0));
        assert!(!p.targets(1, 25, 0));
    }
}
