//! One benchmark per paper table/figure.
//!
//! Each benchmark runs the reduced-fidelity simulation sweep that
//! regenerates the corresponding artifact — enough to track the cost and
//! the determinism of every figure's pipeline. The paper-fidelity numbers
//! come from `repro <experiment-id>` (see EXPERIMENTS.md).
//!
//! Table 1 and Table 2 are parameter tables: their "benchmark" checks that
//! building and validating the full parameter set is cheap and allocation-
//! sane, exercising the code that embodies those tables.

use std::time::Duration;

use ccsim_bench::bench_metrics;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ccsim_core::{run, CcAlgorithm, Params, SimConfig};
use ccsim_experiments::catalog;

/// Run a single representative point (one algorithm, one mpl) of an
/// experiment at bench fidelity.
fn run_point(spec: &ccsim_experiments::ExperimentSpec, series_ix: usize, mpl: u32) -> u64 {
    let cfg = spec.config(&spec.series[series_ix], mpl, bench_metrics(), 0xBE7C);
    run(cfg).expect("catalog configs validate").report.commits
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.bench_function("table1_params_validate", |b| {
        b.iter(|| {
            let p = black_box(Params::paper_baseline());
            p.validate().expect("table 2 must validate");
            black_box((p.tran_size(), p.expected_service_time()))
        });
    });
    g.bench_function("table2_baseline_config", |b| {
        b.iter(|| {
            let cfg = SimConfig::new(black_box(CcAlgorithm::Blocking));
            cfg.validate().expect("baseline config");
            black_box(cfg)
        });
    });
    g.finish();
}

/// Figures are grouped by the experiment that regenerates them; each figure
/// gets its own named benchmark so `cargo bench -- fig5` works.
fn bench_figures(c: &mut Criterion) {
    // (figure, experiment id, series index, representative mpl)
    // The representative point is chosen on the interesting part of each
    // curve (the knee/crossover region).
    let figures: &[(&str, &str, usize, u32)] = &[
        ("fig3", "exp1-inf", 0, 50),
        ("fig4", "exp1-1x2", 0, 25),
        ("fig5", "exp2", 2, 100),
        ("fig6", "exp2", 0, 100),
        ("fig7", "exp2", 1, 50),
        ("fig8", "exp3", 0, 25),
        ("fig9", "exp3", 2, 25),
        ("fig10", "exp3", 1, 50),
        ("fig11", "exp3-delay", 0, 100),
        ("fig12", "exp4-5x10", 0, 50),
        ("fig13", "exp4-5x10", 2, 50),
        ("fig14", "exp4-25x50", 2, 100),
        ("fig15", "exp4-25x50", 0, 100),
        ("fig16", "exp5-1s", 0, 25),
        ("fig17", "exp5-1s", 2, 25),
        ("fig18", "exp5-5s", 0, 50),
        ("fig19", "exp5-5s", 2, 50),
        ("fig20", "exp5-10s", 0, 100),
        ("fig21", "exp5-10s", 2, 100),
    ];
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for &(fig, exp_id, series_ix, mpl) in figures {
        let spec = catalog::by_id(exp_id).expect("catalog id");
        g.bench_function(fig, move |b| {
            b.iter(|| black_box(run_point(&spec, series_ix, mpl)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures);
criterion_main!(benches);
