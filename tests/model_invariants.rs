//! Cross-crate integration tests: physical invariants the closed queuing
//! model must satisfy regardless of concurrency control algorithm.

use ccsim_core::{run, CcAlgorithm, MetricsConfig, Params, Report, ResourceSpec, SimConfig};
use ccsim_des::SimDuration;

fn quick() -> MetricsConfig {
    MetricsConfig {
        warmup_batches: 1,
        batches: 5,
        batch_time: SimDuration::from_secs(30),
    }
}

/// Run `algo` on `params` at the suite's fidelity and seed.
fn simulate(algo: CcAlgorithm, params: Params) -> Report {
    let cfg = SimConfig::new(algo)
        .with_params(params)
        .with_metrics(quick())
        .with_seed(0xBEEF);
    run(cfg).unwrap().report
}

/// Little's-law style bound: a closed system with N terminals and mean
/// external think Z cannot commit more than N/Z transactions per second.
#[test]
fn throughput_bounded_by_terminal_population() {
    for algo in CcAlgorithm::PAPER_TRIO {
        let params = Params::low_conflict()
            .with_mpl(200)
            .with_resources(ResourceSpec::Infinite);
        let bound = f64::from(params.num_terms) / params.ext_think_time.as_secs_f64();
        let r = simulate(algo, params);
        assert!(
            r.throughput.mean < bound,
            "{algo}: {} tps exceeds closed-system bound {bound}",
            r.throughput.mean
        );
    }
}

/// The disks can serve at most `num_disks` seconds of I/O per second, and
/// each commit consumes `(reads + writes) * obj_io` of it.
#[test]
fn throughput_bounded_by_disk_capacity() {
    for algo in CcAlgorithm::PAPER_TRIO {
        let params = Params::paper_baseline().with_mpl(50);
        let per_commit_io = params.expected_io_demand().as_secs_f64();
        let bound = 2.0 / per_commit_io * 1.1; // 2 disks, 10% slack for size variance
        let r = simulate(algo, params);
        assert!(
            r.throughput.mean < bound,
            "{algo}: {} tps exceeds disk bound {bound:.2}",
            r.throughput.mean
        );
    }
}

/// Utilizations are probabilities: within [0, 1], and useful <= total.
#[test]
fn utilizations_are_well_formed() {
    for algo in CcAlgorithm::ALL {
        let r = simulate(algo, Params::paper_baseline().with_mpl(75));
        for (name, v) in [
            ("disk total", r.disk_util_total.mean),
            ("disk useful", r.disk_util_useful.mean),
            ("cpu total", r.cpu_util_total.mean),
            ("cpu useful", r.cpu_util_useful.mean),
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "{algo}: {name} = {v}");
        }
        // Useful time is credited at commit, so work performed in one
        // batch can be credited in the next; allow that boundary smear.
        assert!(
            r.disk_util_useful.mean <= r.disk_util_total.mean + 0.02,
            "{algo}: useful disk {} exceeds total {}",
            r.disk_util_useful.mean,
            r.disk_util_total.mean
        );
        assert!(
            r.cpu_util_useful.mean <= r.cpu_util_total.mean + 0.02,
            "{algo}: useful cpu {} exceeds total {}",
            r.cpu_util_useful.mean,
            r.cpu_util_total.mean
        );
    }
}

/// No transaction can finish faster than its minimal service demand
/// (min_size reads, no writes, no queueing): min_size * (io + cpu).
#[test]
fn response_times_respect_service_floor() {
    for algo in CcAlgorithm::PAPER_TRIO {
        let params = Params::paper_baseline()
            .with_mpl(5)
            .with_resources(ResourceSpec::Infinite);
        let floor =
            params.min_size as f64 * (params.obj_io.as_secs_f64() + params.obj_cpu.as_secs_f64());
        let r = simulate(algo, params);
        assert!(
            r.response_time_mean > floor,
            "{algo}: mean response {} below service floor {floor}",
            r.response_time_mean
        );
    }
}

/// With a single active transaction there are no conflicts at all: no
/// blocks, no restarts, and useful == total utilization.
#[test]
fn mpl_one_is_conflict_free() {
    for algo in CcAlgorithm::ALL {
        let r = simulate(algo, Params::paper_baseline().with_mpl(1));
        assert_eq!(r.blocks, 0, "{algo} blocked at mpl=1");
        assert_eq!(r.restarts, 0, "{algo} restarted at mpl=1");
        assert_eq!(r.deadlocks, 0, "{algo} deadlocked at mpl=1");
        // Useful time is credited at commit while total accrues
        // continuously, so batch-boundary smear leaves a small residual gap
        // even with zero wasted work.
        assert!(
            (r.disk_util_total.mean - r.disk_util_useful.mean).abs() < 0.02,
            "{algo}: wasted work without conflicts (total {} vs useful {})",
            r.disk_util_total.mean,
            r.disk_util_useful.mean
        );
    }
}

/// A read-only workload (write_prob = 0) has no write-write or read-write
/// conflicts, so no algorithm should ever block or restart.
#[test]
fn read_only_workload_is_conflict_free() {
    for algo in CcAlgorithm::ALL {
        let mut params = Params::paper_baseline().with_mpl(100);
        params.write_prob = 0.0;
        let r = simulate(algo, params);
        assert_eq!(r.restarts, 0, "{algo} restarted in a read-only workload");
        assert_eq!(r.blocks, 0, "{algo} blocked in a read-only workload");
        assert!(r.commits > 100);
    }
}

/// All-write transactions (write_prob = 1) on a tiny database: the
/// blocking-based and prioritized-restart algorithms must still make
/// progress. No-waiting locking is *expected* to collapse here — every pair
/// of overlapping readers kills each other's upgrades, the classic
/// no-waiting livelock the restart-delay literature warns about — so for it
/// we only assert it stays far behind blocking.
#[test]
fn write_heavy_small_db_makes_progress() {
    let mk = || {
        let mut params = Params::paper_baseline().with_mpl(20);
        params.db_size = 100;
        params.write_prob = 1.0;
        params
    };
    let blocking = simulate(CcAlgorithm::Blocking, mk());
    for algo in [
        CcAlgorithm::Blocking,
        CcAlgorithm::ImmediateRestart,
        CcAlgorithm::Optimistic,
        CcAlgorithm::WaitDie,
        CcAlgorithm::WoundWait,
        CcAlgorithm::StaticLocking,
    ] {
        let r = simulate(algo, mk());
        assert!(
            r.commits > 20,
            "{algo} nearly livelocked: {} commits",
            r.commits
        );
    }
    let nw = simulate(CcAlgorithm::NoWaiting, mk());
    assert!(
        nw.commits < blocking.commits,
        "no-waiting ({}) should collapse below blocking ({}) under upgrade storms",
        nw.commits,
        blocking.commits
    );
}

/// The observed average multiprogramming level respects the configured cap
/// and reacts to it.
#[test]
fn actual_mpl_tracks_configured_mpl() {
    let lo = simulate(CcAlgorithm::Blocking, Params::paper_baseline().with_mpl(5));
    let hi = simulate(CcAlgorithm::Blocking, Params::paper_baseline().with_mpl(50));
    assert!(lo.avg_active <= 5.0 + 1e-9);
    assert!(hi.avg_active <= 50.0 + 1e-9);
    assert!(
        hi.avg_active > lo.avg_active,
        "raising mpl should raise the active population ({} vs {})",
        hi.avg_active,
        lo.avg_active
    );
}

/// Infinite resources dominate any finite configuration for the same
/// workload and algorithm.
#[test]
fn infinite_resources_dominate_finite() {
    for algo in CcAlgorithm::PAPER_TRIO {
        let fin = simulate(algo, Params::paper_baseline().with_mpl(25));
        let inf = simulate(
            algo,
            Params::paper_baseline()
                .with_mpl(25)
                .with_resources(ResourceSpec::Infinite),
        );
        assert!(
            inf.throughput.mean > fin.throughput.mean,
            "{algo}: infinite ({}) should beat 1x2 ({})",
            inf.throughput.mean,
            fin.throughput.mean
        );
    }
}

/// Doubling the hardware must not reduce throughput (same workload).
#[test]
fn more_hardware_never_hurts() {
    for algo in CcAlgorithm::PAPER_TRIO {
        let small = simulate(algo, Params::paper_baseline().with_mpl(50));
        let big = simulate(
            algo,
            Params::paper_baseline()
                .with_mpl(50)
                .with_resources(ResourceSpec::FIVE_CPUS_TEN_DISKS),
        );
        assert!(
            big.throughput.mean >= small.throughput.mean * 0.98,
            "{algo}: 5x10 ({}) worse than 1x2 ({})",
            big.throughput.mean,
            small.throughput.mean
        );
    }
}
