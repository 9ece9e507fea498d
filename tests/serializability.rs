//! End-to-end correctness: every *safe* concurrency control algorithm must
//! produce conflict-serializable histories under heavy contention, and the
//! deliberately unsafe `NoCc` baseline must be caught violating
//! serializability by the same checker — demonstrating that the checker has
//! teeth and that the algorithms' safety is a property of the algorithms,
//! not of the workload.
//!
//! Snapshot isolation is the deliberate exception: MVCC-SI admits write
//! skew, so its histories go through the history-level SI oracle instead —
//! first-committer-wins holds, every conflict cycle is explained by
//! vulnerable anti-dependencies, and the skew that *does* occur is counted,
//! not hidden.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::{
    check_conflict_serializable, check_snapshot_isolation, CcAlgorithm, History, HistoryRecorder,
    MetricsConfig, Params, Report, ResourceSpec, SimConfig, Simulator,
};
use ccsim_des::SimDuration;

fn hot_params() -> Params {
    // Small database, all-write transactions, many concurrent: conflicts on
    // nearly every transaction.
    let mut p = Params::paper_baseline().with_mpl(20);
    p.db_size = 100;
    p.write_prob = 0.75;
    p
}

fn metrics() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 0,
        batches: 3,
        batch_time: SimDuration::from_secs(30),
    }
}

fn cfg(algo: CcAlgorithm, seed: u64) -> SimConfig {
    SimConfig::new(algo)
        .with_params(hot_params())
        .with_metrics(metrics())
        .with_seed(seed)
}

/// Run `c` to completion with the history recorder attached; returns its
/// report and recorded history.
fn recorded(c: SimConfig) -> (Report, History) {
    let mut sim = Simulator::new(c).unwrap();
    let recorder = Rc::new(RefCell::new(HistoryRecorder::new()));
    sim.add_sink(Box::new(Rc::clone(&recorder)));
    let out = sim.run_collecting().finished().unwrap();
    (out.report, recorder.take().into_history())
}

#[test]
fn safe_algorithms_produce_serializable_histories() {
    for algo in CcAlgorithm::ALL {
        for seed in [1, 2] {
            let (report, history) = recorded(cfg(algo, seed));
            // The denial-restart algorithms legitimately collapse on this
            // upgrade-storm workload (every pair of overlapping readers
            // kills each other's upgrades); they still must stay
            // serializable for whatever they commit.
            let floor = match algo {
                CcAlgorithm::NoWaiting => 1,
                CcAlgorithm::ImmediateRestart => 5,
                CcAlgorithm::WaitDie | CcAlgorithm::BasicTO => 20,
                _ => 50,
            };
            assert!(
                history.len() >= floor,
                "{algo}/seed{seed}: too few commits recorded ({})",
                history.len()
            );
            if algo == CcAlgorithm::MvccSi {
                // Snapshot isolation is checked against its own contract;
                // demanding full serializability here would reject legal
                // write skew.
                let rep = check_snapshot_isolation(&history).unwrap_or_else(|e| {
                    panic!("{algo}/seed{seed} violated snapshot isolation: {e}")
                });
                assert_eq!(rep.serial_order.len(), history.len());
            } else {
                let order = check_conflict_serializable(&history).unwrap_or_else(|e| {
                    panic!("{algo}/seed{seed} produced a non-serializable history: {e}")
                });
                assert_eq!(order.len(), history.len());
            }
            assert_eq!(u64::try_from(history.len()).unwrap(), report.commits);
        }
    }
}

#[test]
fn safe_algorithms_stay_serializable_under_infinite_resources() {
    // Infinite resources maximize overlap (every transaction runs truly in
    // parallel), the adversarial case for validation logic.
    for algo in CcAlgorithm::PAPER_TRIO {
        let mut c = cfg(algo, 7);
        c.params.resources = ResourceSpec::Infinite;
        let (_, history) = recorded(c);
        assert!(history.len() > 100, "{algo}: {} commits", history.len());
        check_conflict_serializable(&history)
            .unwrap_or_else(|e| panic!("{algo} violated serializability: {e}"));
    }
}

#[test]
fn basic_to_stays_serializable_with_maximal_overlap() {
    // The adversarial case for timestamp ordering: infinite resources (all
    // transactions truly concurrent) on a hot database, where larger-
    // timestamp writers routinely publish between a reader's timestamp
    // check and its access completion. The history must still check out —
    // reads are recorded at their grant instant, where the version is
    // decided.
    for seed in [1, 2, 3] {
        let mut c = cfg(CcAlgorithm::BasicTO, seed);
        c.params.resources = ResourceSpec::Infinite;
        c.params.mpl = 50;
        let (report, history) = recorded(c);
        // Timestamp rejections are rampant at this contention level; the
        // point is what *does* commit must be serializable.
        assert!(
            report.commits > 10,
            "seed{seed}: {} commits",
            report.commits
        );
        check_conflict_serializable(&history).unwrap_or_else(|e| {
            panic!("basic-to/seed{seed} produced a non-serializable history: {e}")
        });
    }
}

#[test]
fn modern_trio_stays_correct_with_maximal_overlap() {
    // Infinite resources on a hot database: every transaction truly runs in
    // parallel, the adversarial case for commit-time certification. Silo
    // and TicToc must be fully serializable; MVCC-SI must satisfy the SI
    // oracle.
    for algo in CcAlgorithm::MODERN_TRIO {
        for seed in [1, 2] {
            let mut c = cfg(algo, seed);
            c.params.resources = ResourceSpec::Infinite;
            c.params.mpl = 50;
            let (report, history) = recorded(c);
            assert!(
                report.commits > 50,
                "{algo}/seed{seed}: {} commits",
                report.commits
            );
            if algo == CcAlgorithm::MvccSi {
                let rep = check_snapshot_isolation(&history).unwrap_or_else(|e| {
                    panic!("{algo}/seed{seed} violated snapshot isolation: {e}")
                });
                assert_eq!(rep.serial_order.len(), history.len());
            } else {
                check_conflict_serializable(&history).unwrap_or_else(|e| {
                    panic!("{algo}/seed{seed} produced a non-serializable history: {e}")
                });
            }
        }
    }
}

#[test]
fn mvcc_si_write_skew_is_observed_and_counted() {
    // On the hot all-write workload snapshot isolation *will* interleave
    // concurrent readers that write disjoint objects. The oracle's job is
    // to prove every such anomaly is of the permitted shape and report how
    // many occurred; across seeds, at least one run should exhibit skew or
    // vulnerable anti-dependencies (if SI never admitted any, it would be
    // indistinguishable from full serializability and over-restrictive).
    let mut vulnerable_total = 0usize;
    for seed in [1, 2, 3, 4] {
        let mut c = cfg(CcAlgorithm::MvccSi, seed);
        c.params.resources = ResourceSpec::Infinite;
        c.params.mpl = 50;
        let (_, history) = recorded(c);
        let rep = check_snapshot_isolation(&history)
            .unwrap_or_else(|e| panic!("seed{seed} violated snapshot isolation: {e}"));
        vulnerable_total += rep.vulnerable_rw.len();
        // Every write-skew pair must consist of recorded transactions.
        for &(a, b) in &rep.write_skew_pairs {
            assert!(a < b, "pairs are reported in canonical order");
            assert!(history.txns().iter().any(|t| t.id == a));
            assert!(history.txns().iter().any(|t| t.id == b));
        }
    }
    assert!(
        vulnerable_total > 0,
        "SI under maximal overlap should admit some vulnerable anti-dependencies"
    );
}

#[test]
fn dsg_oracle_backstops_the_existing_trio() {
    // Regression backstop over the original algorithms. All three must
    // pass the strict dependency-graph check (above and re-asserted here
    // on a fresh seed). The SI oracle additionally accepts the optimistic
    // history: under Kung–Robinson with writes ⊆ reads, two overlapping
    // writers of one object can never both commit — the later one fails
    // validation — so first-committer-wins holds and zero write skew can
    // appear. Lock-based histories are *not* fed to the SI oracle: a
    // blocked writer's attempt interval legitimately overlaps the
    // holder's, which SI's first-committer-wins rule forbids (and the
    // oracle correctly flags — that rejection is part of its contract).
    for algo in CcAlgorithm::PAPER_TRIO {
        let (_, history) = recorded(cfg(algo, 9));
        check_conflict_serializable(&history)
            .unwrap_or_else(|e| panic!("{algo} violated serializability: {e}"));
        if algo == CcAlgorithm::Optimistic {
            let rep = check_snapshot_isolation(&history)
                .unwrap_or_else(|e| panic!("{algo} rejected by the SI oracle: {e}"));
            assert_eq!(rep.serial_order.len(), history.len());
            assert!(
                rep.write_skew_pairs.is_empty(),
                "{algo}: a serializable history cannot exhibit write skew"
            );
        }
    }
}

#[test]
fn no_cc_baseline_violates_serializability() {
    // Without any concurrency control, overlapping read-modify-write
    // transactions on a hot database produce conflict cycles essentially
    // immediately. If this ever starts passing, the checker lost its teeth.
    let (report, history) = recorded(cfg(CcAlgorithm::NoCc, 3));
    assert!(report.commits > 100, "no-cc should commit freely");
    let err = check_conflict_serializable(&history)
        .expect_err("no-cc must violate serializability under contention");
    assert!(!err.edges.is_empty());
    // The cycle must be well-formed (edges chain and close).
    for w in err.edges.windows(2) {
        assert_eq!(w[0].to, w[1].from);
    }
    assert_eq!(
        err.edges.last().unwrap().to,
        err.edges.first().unwrap().from
    );
}

#[test]
fn no_cc_is_the_throughput_upper_bound() {
    // NoCc pays no blocking and no restarts, so it bounds every safe
    // algorithm from above on the same workload and seed.
    let (nocc, _) = recorded(cfg(CcAlgorithm::NoCc, 11));
    for algo in CcAlgorithm::PAPER_TRIO {
        let (r, _) = recorded(cfg(algo, 11));
        assert!(
            r.throughput.mean <= nocc.throughput.mean * 1.02,
            "{algo} ({}) exceeded the no-cc bound ({})",
            r.throughput.mean,
            nocc.throughput.mean
        );
    }
}

#[test]
fn history_read_times_are_within_attempt_bounds() {
    let (_, history) = recorded(cfg(CcAlgorithm::Blocking, 5));
    for t in history.txns() {
        for &(obj, at) in &t.reads {
            assert!(
                at >= t.start,
                "{}: read of {obj} at {at} precedes attempt start {}",
                t.id,
                t.start
            );
            assert!(
                at <= t.commit_at,
                "{}: read of {obj} at {at} after commit {}",
                t.id,
                t.commit_at
            );
        }
        assert!(!t.reads.is_empty(), "transactions read at least one object");
    }
}
