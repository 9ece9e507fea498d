//! Property tests over the harness's byte-reading surfaces. The JSON
//! parser reads result files from disk, which a crash can tear and a disk
//! can corrupt, so it may not panic on what it reads. With the `chaos`
//! feature, the `CCSIM_CHAOS` spec parser is held to the same rule.

use ccsim_experiments::json::{self, Value};
use proptest::prelude::*;

/// Fragments JSON is made of, plus the non-finite lexemes the parser
/// rejects, escapes good and bad, controls and multi-byte text.
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
        // Integers beyond f64's mantissa, and any finite float's shortest
        // form.
        2 if rng.below(2) == 0 => Value::Num(rng.next_u64().to_string()),
        2 => {
            let x = f64::from_bits(rng.next_u64());
            Value::Num(if x.is_finite() { x } else { f64::MAX }.to_string())
        }
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
