//! Microbenchmarks of the simulator substrates.

use std::time::Duration;

use ccsim_bench::bench_metrics;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ccsim_core::{run, CcAlgorithm, Params, SimConfig};
use ccsim_des::{Calendar, RandomSource, RngStreams, SimTime, Xoshiro256StarStar};
use ccsim_lockmgr::{LockManager, LockMode};
use ccsim_occ::Validator;
use ccsim_workload::{Generator, ObjId, TxnId};

fn bench_calendar(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..10_000u64 {
                cal.schedule(SimTime::from_micros(rng.next_below(1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = cal.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        });
    });
    g.finish();
}

fn bench_lockmgr(c: &mut Criterion) {
    let mut g = c.benchmark_group("lockmgr");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("grant_release_1k_txns", |b| {
        b.iter(|| {
            let mut lm = LockManager::new();
            for t in 0..1_000u64 {
                // 8 reads + 2 upgrades, disjoint hot range per txn to mix
                // shared and exclusive paths.
                for o in 0..8u64 {
                    lm.request(TxnId(t), ObjId((t * 3 + o) % 500), LockMode::Read);
                }
                lm.request(TxnId(t), ObjId((t * 3) % 500), LockMode::Write);
                black_box(lm.release_all(TxnId(t)));
            }
        });
    });
    g.bench_function("deadlock_detection_chain", |b| {
        // A 32-deep waits-for chain, probed from the tail (no cycle).
        b.iter(|| {
            let mut lm = LockManager::new();
            for t in 0..32u64 {
                lm.request(TxnId(t), ObjId(t), LockMode::Write);
            }
            for t in 1..32u64 {
                lm.request(TxnId(t), ObjId(t - 1), LockMode::Write);
            }
            black_box(lm.find_deadlock(TxnId(31)))
        });
    });
    g.finish();
}

fn bench_occ(c: &mut Criterion) {
    let mut g = c.benchmark_group("occ");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("validate_commit_1k", |b| {
        b.iter(|| {
            let mut v = Validator::new();
            let mut failures = 0u32;
            for t in 0..1_000u64 {
                let readset: Vec<ObjId> = (0..8).map(|i| ObjId((t * 7 + i) % 1000)).collect();
                let start = SimTime::from_millis(t.saturating_sub(3));
                if v.validate(start, &readset).is_ok() {
                    v.commit(SimTime::from_millis(t), readset.into_iter().take(2));
                } else {
                    failures += 1;
                }
            }
            black_box(failures)
        });
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("generate_10k_specs", |b| {
        let params = Params::paper_baseline();
        b.iter(|| {
            let mut gen = Generator::new(&params, RngStreams::new(9).stream(0));
            let mut total = 0usize;
            for _ in 0..10_000 {
                total += gen.next_spec().num_reads();
            }
            black_box(total)
        });
    });
    g.finish();
}

/// End-to-end: simulated transaction commits per wall-second for each
/// algorithm at the baseline configuration.
fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for algo in CcAlgorithm::PAPER_TRIO {
        g.bench_function(format!("baseline_mpl50_{algo}"), move |b| {
            b.iter(|| {
                let cfg = SimConfig::new(algo)
                    .with_params(Params::paper_baseline().with_mpl(50))
                    .with_metrics(bench_metrics());
                black_box(run(cfg).expect("valid").report.commits)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_calendar,
    bench_lockmgr,
    bench_occ,
    bench_workload,
    bench_end_to_end
);
criterion_main!(benches);
