//! Concurrency control strategy selection.

use std::fmt;

/// The concurrency control algorithms the simulator implements.
///
/// The first three are the paper's subjects — chosen as extremes in *when*
/// conflicts are detected (access time vs. commit time) and *how* they are
/// resolved (blocking vs. restarts). The remaining three are extensions that
/// fit the same framework and are used in the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Dynamic two-phase locking: block on conflict, detect deadlocks via a
    /// waits-for graph at each block, restart the youngest transaction in
    /// the cycle (paper §2, "Blocking").
    Blocking,
    /// Lock, but abort-and-restart the requester on any denial, after an
    /// adaptive restart delay (paper §2, "Immediate-Restart").
    ImmediateRestart,
    /// Kung–Robinson style optimistic concurrency control: run unhindered,
    /// validate the readset at commit point, restart on conflict with a
    /// transaction that committed during the attempt's lifetime (paper §2,
    /// "Optimistic").
    Optimistic,
    /// Extension: wait-die deadlock *prevention* — an older requester waits
    /// for a younger holder; a younger requester dies (restarts keeping its
    /// original timestamp).
    WaitDie,
    /// Extension: wound-wait deadlock prevention — an older requester
    /// wounds (aborts) younger holders; a younger requester waits.
    WoundWait,
    /// Extension: no-waiting locking — immediate-restart without the
    /// restart delay (restart the requester at once on any denial).
    NoWaiting,
    /// Extension: static (conservative) two-phase locking — every lock is
    /// acquired before the first access, in a global object order, which
    /// makes deadlock impossible. The discipline of the Ries/Stonebraker
    /// models this paper's simulator descends from.
    StaticLocking,
    /// Extension: basic timestamp ordering (Bernstein–Goodman) — operations
    /// execute in timestamp order per object; late operations restart the
    /// transaction with a fresh timestamp, and readers wait out pending
    /// smaller-timestamp prewrites. The algorithm family of the
    /// `[Gall82]`/`[Lin83]` studies the paper reconciles.
    BasicTO,
    /// Extension: **no concurrency control at all** — transactions run
    /// completely unhindered and always commit. This is *unsafe* (it admits
    /// non-serializable executions, which `ccsim-history` can demonstrate)
    /// and exists purely as the data-contention-free upper bound on
    /// throughput.
    NoCc,
    /// Modern extension: multiversion concurrency control under snapshot
    /// isolation (Larson et al. style) — every read sees the database as of
    /// the attempt's start, writers never block readers, and the commit
    /// point enforces first-committer-wins on the write set. Admits the
    /// classic SI anomalies (write skew), which the history oracle detects
    /// and counts rather than hides.
    MvccSi,
    /// Modern extension: Silo-style optimistic concurrency control — each
    /// read records the instant it observed its object, and validation at
    /// the commit point fails if a write to a read object committed after
    /// that read (serializable). More permissive than [`Optimistic`],
    /// which bounds every read by the attempt start.
    ///
    /// [`Optimistic`]: CcAlgorithm::Optimistic
    SiloOcc,
    /// Modern extension: TicToc-style timestamp recomputation — each access
    /// carries a read/write timestamp interval and the commit point *derives*
    /// a commit timestamp inside every interval instead of rejecting on
    /// physical-time order, aborting only when no such timestamp exists
    /// (serializable).
    TicToc,
}

impl CcAlgorithm {
    /// The paper's three algorithms, in its plotting order.
    pub const PAPER_TRIO: [CcAlgorithm; 3] = [
        CcAlgorithm::Blocking,
        CcAlgorithm::ImmediateRestart,
        CcAlgorithm::Optimistic,
    ];

    /// All *safe* algorithms (everything but the deliberately unsafe
    /// [`CcAlgorithm::NoCc`] baseline).
    pub const ALL: [CcAlgorithm; 11] = [
        CcAlgorithm::Blocking,
        CcAlgorithm::ImmediateRestart,
        CcAlgorithm::Optimistic,
        CcAlgorithm::WaitDie,
        CcAlgorithm::WoundWait,
        CcAlgorithm::NoWaiting,
        CcAlgorithm::StaticLocking,
        CcAlgorithm::BasicTO,
        CcAlgorithm::MvccSi,
        CcAlgorithm::SiloOcc,
        CcAlgorithm::TicToc,
    ];

    /// The three modern in-memory protocols (the 2020s sequel series to the
    /// paper trio), in plotting order.
    pub const MODERN_TRIO: [CcAlgorithm; 3] = [
        CcAlgorithm::MvccSi,
        CcAlgorithm::SiloOcc,
        CcAlgorithm::TicToc,
    ];

    /// Does the algorithm use the lock manager? (Timestamp ordering has
    /// concurrency-control steps but no locks.)
    #[must_use]
    pub fn uses_locks(self) -> bool {
        !matches!(
            self,
            CcAlgorithm::Optimistic
                | CcAlgorithm::NoCc
                | CcAlgorithm::BasicTO
                | CcAlgorithm::MvccSi
                | CcAlgorithm::SiloOcc
                | CcAlgorithm::TicToc
        )
    }

    /// The transaction program shape this algorithm executes.
    #[must_use]
    pub fn program_shape(self) -> crate::txn::ProgramShape {
        use crate::txn::ProgramShape;
        match self {
            CcAlgorithm::Optimistic
            | CcAlgorithm::NoCc
            | CcAlgorithm::MvccSi
            | CcAlgorithm::SiloOcc
            | CcAlgorithm::TicToc => ProgramShape::LockFree,
            CcAlgorithm::StaticLocking => ProgramShape::Static2pl,
            _ => ProgramShape::Dynamic2pl,
        }
    }

    /// Short label used in reports and plots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Blocking => "blocking",
            CcAlgorithm::ImmediateRestart => "immediate-restart",
            CcAlgorithm::Optimistic => "optimistic",
            CcAlgorithm::WaitDie => "wait-die",
            CcAlgorithm::WoundWait => "wound-wait",
            CcAlgorithm::NoWaiting => "no-waiting",
            CcAlgorithm::StaticLocking => "static-locking",
            CcAlgorithm::BasicTO => "basic-to",
            CcAlgorithm::NoCc => "no-cc",
            CcAlgorithm::MvccSi => "mvcc-si",
            CcAlgorithm::SiloOcc => "silo-occ",
            CcAlgorithm::TicToc => "tictoc",
        }
    }
}

impl fmt::Display for CcAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the blocking algorithm picks a deadlock victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// Restart the youngest transaction in the cycle — latest original
    /// arrival time (the paper's choice).
    #[default]
    Youngest,
    /// Restart the oldest transaction in the cycle.
    Oldest,
    /// Restart the transaction holding the fewest locks (least work lost,
    /// approximately).
    FewestLocks,
}

impl VictimPolicy {
    /// All victim policies (for the ablation bench).
    pub const ALL: [VictimPolicy; 3] = [
        VictimPolicy::Youngest,
        VictimPolicy::Oldest,
        VictimPolicy::FewestLocks,
    ];

    /// Label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Youngest => "youngest",
            VictimPolicy::Oldest => "oldest",
            VictimPolicy::FewestLocks => "fewest-locks",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cc_is_excluded_from_all() {
        assert!(!CcAlgorithm::ALL.contains(&CcAlgorithm::NoCc));
        assert!(!CcAlgorithm::NoCc.uses_locks());
        assert_eq!(CcAlgorithm::NoCc.label(), "no-cc");
    }

    #[test]
    fn lock_usage() {
        assert!(CcAlgorithm::Blocking.uses_locks());
        assert!(CcAlgorithm::ImmediateRestart.uses_locks());
        assert!(CcAlgorithm::WaitDie.uses_locks());
        assert!(CcAlgorithm::WoundWait.uses_locks());
        assert!(CcAlgorithm::NoWaiting.uses_locks());
        assert!(CcAlgorithm::StaticLocking.uses_locks());
        assert!(!CcAlgorithm::Optimistic.uses_locks());
        assert!(!CcAlgorithm::BasicTO.uses_locks());
        assert_eq!(
            CcAlgorithm::BasicTO.program_shape(),
            crate::txn::ProgramShape::Dynamic2pl
        );
        for a in CcAlgorithm::MODERN_TRIO {
            assert!(!a.uses_locks(), "{a} must not use the lock manager");
            assert_eq!(a.program_shape(), crate::txn::ProgramShape::LockFree);
        }
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = CcAlgorithm::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), CcAlgorithm::ALL.len());
        assert_eq!(CcAlgorithm::Blocking.to_string(), "blocking");
    }

    #[test]
    fn trio_is_subset_of_all() {
        for a in CcAlgorithm::PAPER_TRIO {
            assert!(CcAlgorithm::ALL.contains(&a));
        }
    }

    #[test]
    fn modern_trio_is_subset_of_all() {
        for a in CcAlgorithm::MODERN_TRIO {
            assert!(CcAlgorithm::ALL.contains(&a));
            assert!(!CcAlgorithm::PAPER_TRIO.contains(&a));
        }
        assert_eq!(CcAlgorithm::MvccSi.label(), "mvcc-si");
        assert_eq!(CcAlgorithm::SiloOcc.label(), "silo-occ");
        assert_eq!(CcAlgorithm::TicToc.label(), "tictoc");
    }
}
