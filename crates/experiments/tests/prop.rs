//! Property tests over the harness's byte-reading surfaces: the JSON
//! parser and the checkpoint manifest it backs. Both read only files on
//! disk, which a crash can tear and a disk can corrupt, so neither may
//! panic on what it reads, and a manifest must never replay an entry
//! that does not belong to its sweep. With the `chaos` feature, the
//! `CCSIM_CHAOS` spec parser is held to the same rule.

use std::collections::HashSet;
use std::path::PathBuf;

use ccsim_core::{ClassReport, Estimate, Report};
use ccsim_experiments::json::{self, Value};
use ccsim_experiments::{
    catalog, ExperimentSpec, Manifest, ManifestEntry, ManifestError, RunOptions,
};
use proptest::prelude::*;

/// Fragments JSON is made of, plus the manifest's non-finite lexemes,
/// escapes good and bad, controls and multi-byte text.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n",
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "E",
    "1.5e-3",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "tru",
    "NaN",
    "inf",
    "-inf",
    "\"k\":",
    "\\u",
    "\\u0041",
    "\\u+041",
    "\\ud800",
    "\\x",
    "é",
    "😀",
    "\u{0}",
    "\u{7f}",
];

/// Characters for generated strings: everything `json::escape` treats
/// specially, and text outside ASCII.
const TEXT: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '—',
    '\u{2028}', '😀',
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..64)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TEXT.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| TEXT[i]).collect())
}

/// Random JSON trees up to four levels deep.
struct Values;

impl Strategy for Values {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        value(rng, 4)
    }
}

fn value(rng: &mut TestRng, depth: u32) -> Value {
    let string = |rng: &mut TestRng| -> String {
        (0..rng.below(8))
            .map(|_| TEXT[rng.below(TEXT.len() as u64) as usize])
            .collect()
    };
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        // Integers beyond f64's mantissa, and any float's shortest form,
        // non-finite lexemes included.
        2 if rng.below(2) == 0 => Value::Num(rng.next_u64().to_string()),
        2 => Value::Num(f64::from_bits(rng.next_u64()).to_string()),
        3 => Value::Str(string(rng)),
        4 => Value::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => json::escape(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape(key, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn rendered(v: &Value) -> String {
    let mut out = String::new();
    render(v, &mut out);
    out
}

/// Any `f64` the engine can report. NaN is generated only as `f64::NAN`:
/// the manifest writes every NaN as the one `NaN` lexeme.
fn float() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        any::<f64>(),
        any::<u64>().prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_nan() {
                f64::NAN
            } else {
                v
            }
        }),
    ]
    .boxed()
}

fn estimate() -> impl Strategy<Value = Estimate> {
    (float(), float()).prop_map(|(mean, half_width)| Estimate { mean, half_width })
}

fn report() -> impl Strategy<Value = Report> {
    let class = (any::<u64>(), any::<u64>(), float(), float(), float()).prop_map(
        |(commits, restarts, restart_ratio, response_time_mean, response_time_std)| ClassReport {
            commits,
            restarts,
            restart_ratio,
            response_time_mean,
            response_time_std,
        },
    );
    (
        (
            estimate(),
            proptest::collection::vec(float(), 0..4),
            float(),
        ),
        proptest::collection::vec(float(), 9..10),
        (estimate(), estimate(), estimate(), estimate()),
        proptest::collection::vec(class, 0..3),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((throughput, per_batch, lag1), f, utils, class_reports, counts)| Report {
                throughput,
                throughput_per_batch: per_batch,
                throughput_lag1: lag1,
                response_time_mean: f[0],
                response_time_std: f[1],
                response_time_max: f[2],
                response_time_p50: f[3],
                response_time_p95: f[4],
                response_time_p99: f[5],
                block_ratio: f[6],
                restart_ratio: f[7],
                disk_util_total: utils.0,
                disk_util_useful: utils.1,
                cpu_util_total: utils.2,
                cpu_util_useful: utils.3,
                avg_active: f[8],
                class_reports,
                commits: counts.0,
                blocks: counts.1,
                restarts: counts.2,
                deadlocks: counts.3,
            },
        )
}

/// Experiment 3 with two replications: 3 series x 7 mpls x 2 reps.
fn sweep() -> (ExperimentSpec, RunOptions) {
    let opts = RunOptions {
        replications: 2,
        ..RunOptions::default()
    };
    (catalog::exp3(), opts)
}

fn grid(spec: &ExperimentSpec, opts: &RunOptions) -> Vec<(usize, u32, u32)> {
    let mut coords = Vec::new();
    for si in 0..spec.series.len() {
        for &mpl in &spec.mpls {
            for rep in 0..opts.replications {
                coords.push((si, mpl, rep));
            }
        }
    }
    coords
}

/// Journal `reports` (with `audits`) at distinct grid coordinates from
/// `start` on, in that completion order, and return the entries.
fn record(
    path: &std::path::Path,
    reports: Vec<Report>,
    audits: &[String],
    start: usize,
) -> Result<Vec<ManifestEntry>, TestCaseError> {
    let (spec, opts) = sweep();
    let coords = grid(&spec, &opts);
    assert!(reports.len() <= coords.len());
    let mut m = Manifest::open(path, &spec, &opts, false).map_err(fail)?;
    let mut entries = Vec::new();
    for (i, report) in reports.into_iter().enumerate() {
        let (series_ix, mpl, rep) = coords[(start + i) % coords.len()];
        let entry = ManifestEntry {
            series_ix,
            mpl,
            rep,
            audit: audits.get(i).into_iter().cloned().collect(),
            report,
        };
        m.record(entry.clone()).map_err(fail)?;
        entries.push(entry);
    }
    Ok(entries)
}

fn fail(e: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::fail(e.to_string())
}

/// A manifest path under the system temp dir, private to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// Reports compare through `Debug`, which prints every `f64` in its
/// shortest round-trip form and tells `-0.0` from `0.0`: equal text means
/// bit-identical values.
fn same_entries(a: &[ManifestEntry], b: &[ManifestEntry]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    /// Any string of JSON fragments parses or fails; it never panics.
    /// What parses renders back to text that parses to the same value.
    #[test]
    fn parse_never_panics_on_json_fragments(doc in soup()) {
        if let Ok(v) = json::parse(&doc) {
            prop_assert_eq!(json::parse(&rendered(&v)), Ok(v));
        }
    }

    /// Generated values round-trip through their rendering.
    #[test]
    fn parse_round_trips_values(v in Values) {
        prop_assert_eq!(json::parse(&rendered(&v)), Ok(v));
    }

    /// Nesting up to 128 arrays/objects parses; one level more is an error.
    #[test]
    fn nesting_deeper_than_128_is_an_error(depth in 0usize..300, objects in any::<u64>()) {
        let object_at = |level: usize| (objects >> (level % 64)) & 1 == 1;
        let mut doc = String::new();
        for level in 0..depth {
            doc.push_str(if object_at(level) { "{\"k\":" } else { "[" });
        }
        doc.push('0');
        for level in (0..depth).rev() {
            doc.push(if object_at(level) { '}' } else { ']' });
        }
        let parsed = json::parse(&doc);
        prop_assert_eq!(parsed.is_ok(), depth <= 128, "depth {}: {:?}", depth, parsed.err());
    }

    /// Recorded reports, NaN, ±inf and -0.0 included, reopen bit-identical.
    #[test]
    fn manifest_entries_reopen_bit_identical(
        reports in proptest::collection::vec(report(), 0..8),
        audits in proptest::collection::vec(text(), 0..8),
        start in 0usize..42,
    ) {
        let path = scratch("round-trip.manifest.jsonl");
        let entries = record(&path, reports, &audits, start)?;
        let (spec, opts) = sweep();
        let back = Manifest::open(&path, &spec, &opts, true).map_err(fail)?;
        prop_assert!(back.warnings().is_empty(), "{:?}", back.warnings());
        prop_assert!(same_entries(back.entries(), &entries), "{:?}", back.entries());
        let _ = std::fs::remove_file(&path);
    }

    /// A manifest cut at any byte, or with one bit flipped, reopens with at
    /// most the final-line warning or is refused with a typed error; every
    /// entry it loads lies in the grid and is unique. A cut past the header
    /// that leaves whole characters always reopens, with a prefix of the
    /// recorded entries.
    #[test]
    fn damaged_manifest_reopens_or_is_rejected(
        reports in proptest::collection::vec(report(), 1..6),
        audits in proptest::collection::vec(text(), 0..6),
        start in 0usize..42,
        at in any::<u64>(),
        in_coords in any::<bool>(),
        bit in 0u8..8,
        cut in any::<bool>(),
    ) {
        let path = scratch("damaged.manifest.jsonl");
        let entries = record(&path, reports, &audits, start)?;
        let mut bytes = std::fs::read(&path).map_err(fail)?;
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap_or(bytes.len());
        // Half the damage lands in an entry's leading coordinates, where a
        // flip can move a run off the grid or onto another entry.
        let pos = if in_coords {
            let starts: Vec<usize> = (1..bytes.len()).filter(|&i| bytes[i - 1] == b'\n').collect();
            starts[(at % starts.len() as u64) as usize] + (at >> 32) as usize % 32
        } else {
            (at % bytes.len() as u64) as usize
        };
        if cut {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).map_err(fail)?;
        let (spec, opts) = sweep();
        let coords: HashSet<_> = grid(&spec, &opts).into_iter().collect();
        match Manifest::open(&path, &spec, &opts, true) {
            Ok(m) => {
                prop_assert!(m.warnings().len() <= 1, "{:?}", m.warnings());
                let loaded: Vec<_> =
                    m.entries().iter().map(|e| (e.series_ix, e.mpl, e.rep)).collect();
                prop_assert!(loaded.iter().all(|c| coords.contains(c)), "{:?}", loaded);
                prop_assert_eq!(loaded.iter().collect::<HashSet<_>>().len(), loaded.len());
                if cut {
                    let n = m.entries().len();
                    prop_assert!(same_entries(m.entries(), &entries[..n]));
                }
            }
            Err(ManifestError::Corrupt(_) | ManifestError::Mismatch(_)) => {
                let whole_chars = std::str::from_utf8(&bytes).is_ok();
                prop_assert!(
                    !cut || pos < header_len || !whole_chars,
                    "a cut at byte {} was refused",
                    pos
                );
            }
            Err(e @ ManifestError::Io(_)) => return Err(fail(e)),
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(feature = "chaos")]
mod chaos_spec {
    use ccsim_experiments::{ChaosKind, ChaosPoint};
    use proptest::prelude::*;

    /// Pieces of chaos specs, well-formed and not.
    const PIECES: &[&str] = &[
        "panic",
        "budget",
        "explode",
        "@",
        ":",
        "*",
        "0",
        "1",
        "50",
        "-1",
        "x",
        " ",
        "",
        "4294967296",
        "18446744073709551616",
        "é",
        "\u{0}",
    ];

    fn kind() -> impl Strategy<Value = (ChaosKind, &'static str)> {
        any::<bool>().prop_map(|panic| {
            if panic {
                (ChaosKind::Panic, "panic")
            } else {
                (ChaosKind::BudgetExhaust, "budget")
            }
        })
    }

    proptest! {
        /// Any string of spec pieces parses or is rejected; it never panics.
        #[test]
        fn parse_never_panics(ix in proptest::collection::vec(0..PIECES.len(), 0..12)) {
            let spec: String = ix.into_iter().map(|i| PIECES[i]).collect();
            let _ = ChaosPoint::parse(&spec);
        }

        /// Every `panic|budget@si:mpl:rep` parses back to its parts.
        #[test]
        fn parse_round_trips_every_coordinate(
            kind in kind(),
            series_ix in any::<usize>(),
            mpl in any::<u32>(),
            rep in any::<u32>(),
        ) {
            let (kind, token) = kind;
            let spec = format!("{token}@{series_ix}:{mpl}:{rep}");
            prop_assert_eq!(
                ChaosPoint::parse(&spec),
                Ok(ChaosPoint { series_ix, mpl, rep, kind })
            );
        }

        /// A fault hits its coordinate's one run, so an attempt-count
        /// suffix means nothing and is rejected.
        #[test]
        fn attempt_suffix_is_rejected(
            kind in kind(),
            coord in (any::<u8>(), any::<u32>(), any::<u32>()),
            n in proptest::collection::vec(0..PIECES.len(), 0..3),
        ) {
            let ((_, token), (si, mpl, rep)) = (kind, coord);
            let n: String = n.into_iter().map(|i| PIECES[i]).collect();
            let spec = format!("{token}@{si}:{mpl}:{rep}*{n}");
            prop_assert!(ChaosPoint::parse(&spec).is_err(), "{:?} parsed", spec);
        }
    }
}
