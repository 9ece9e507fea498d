//! Lock-replay fidelity and the name contract between `BENCHMARK.json` and
//! what each workload prints.

use std::collections::BTreeSet;

use ccbench::{replay_locks, run, Recorder, Size, DEFAULT_SEED, WORKLOADS};
use ccsim_core::{CcAlgorithm, MetricsConfig, Params, SimConfig, Simulator};
use ccsim_des::SimDuration;
use ccsim_experiments::json::{self, Value};

#[test]
fn lock_replay_reproduces_a_blocking_run() {
    let params = Params::paper_baseline().with_mpl(50);
    // No warm-up, so the report counts every block and deadlock the
    // stream holds.
    let metrics = MetricsConfig {
        warmup_batches: 0,
        batches: 3,
        batch_time: SimDuration::from_secs(20),
        ..MetricsConfig::quick()
    };
    let cfg = SimConfig::new(CcAlgorithm::Blocking)
        .with_params(params.clone())
        .with_metrics(metrics)
        .with_seed(11);
    let mut sim = Simulator::new(cfg).expect("valid configuration");
    let (sink, recording) = Recorder::new(true);
    sim.add_sink(Box::new(sink));
    let out = sim.run_collecting();
    assert!(out.stopped.is_none());
    let recording = recording.take();
    let replay = replay_locks(
        &recording.locks,
        params.db_size as usize,
        params.num_terms as usize,
    );
    assert_eq!(replay.mismatches, 0);
    assert!(
        replay.blocks > 0 && replay.deadlocks > 0,
        "the run must block and deadlock"
    );
    assert_eq!(replay.blocks, out.report.blocks);
    assert_eq!(replay.deadlocks, out.report.deadlocks);
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn workloads_print_exactly_the_metrics_benchmark_json_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads = names(&doc, "workloads");
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    for n in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(valid_name(n), "{n:?} is not a valid name");
    }
    assert_eq!(workloads, WORKLOADS);
    let all: BTreeSet<&String> = end_to_end.iter().chain(&per_layer).collect();
    assert_eq!(
        all.len(),
        end_to_end.len() + per_layer.len(),
        "names repeat"
    );

    for w in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run(w, DEFAULT_SEED, 0.0, trace, Size::Reduced).expect("known workload");
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(got, *want, "{w} trace={trace}");
            assert!(
                out.correct(),
                "{w} trace={trace}: {} of {} failed",
                out.failed,
                out.attempted
            );
            let last = json::parse(&out.json()).expect("the result line is JSON");
            assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        }
    }
}
