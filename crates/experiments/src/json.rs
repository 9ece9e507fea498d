//! A minimal JSON writer (and parser) for archiving experiment results.
//!
//! The approved dependency list has `serde` but no `serde_json`, and our
//! output is a fixed shape, so a ~hundred-line emitter keeps the tree small
//! and honest. The checkpoint manifest (`crate::manifest`) additionally
//! needs to read its own lines back, so a small recursive-descent parser
//! lives here too. Numbers are kept as raw lexemes so `u64` seeds and
//! bit-exact `f64` round trips both survive.

use std::fmt::Write as _;

use crate::spec::{DataPoint, ExperimentResult};

/// Escape a string per RFC 8259.
pub fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format a float as JSON (finite only; NaN/inf become null).
fn number(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn point_json(p: &DataPoint, out: &mut String) {
    out.push_str("{\"series\":");
    escape(&p.series, out);
    let _ = write!(out, ",\"mpl\":{},", p.mpl);
    let r = &p.report;
    out.push_str("\"throughput\":");
    number(r.throughput.mean, out);
    out.push_str(",\"throughput_ci90\":");
    number(r.throughput.half_width, out);
    out.push_str(",\"response_mean_s\":");
    number(r.response_time_mean, out);
    out.push_str(",\"response_std_s\":");
    number(r.response_time_std, out);
    out.push_str(",\"block_ratio\":");
    number(r.block_ratio, out);
    out.push_str(",\"restart_ratio\":");
    number(r.restart_ratio, out);
    out.push_str(",\"disk_util_total\":");
    number(r.disk_util_total.mean, out);
    out.push_str(",\"disk_util_useful\":");
    number(r.disk_util_useful.mean, out);
    out.push_str(",\"cpu_util_total\":");
    number(r.cpu_util_total.mean, out);
    out.push_str(",\"cpu_util_useful\":");
    number(r.cpu_util_useful.mean, out);
    out.push_str(",\"avg_active\":");
    number(r.avg_active, out);
    let _ = write!(
        out,
        ",\"commits\":{},\"blocks\":{},\"restarts\":{},\"deadlocks\":{}",
        r.commits, r.blocks, r.restarts, r.deadlocks
    );
    if p.replicates.len() > 1 {
        let _ = write!(out, ",\"replications\":{}", p.replicates.len());
        out.push_str(",\"rep_throughputs\":[");
        for (i, rep) in p.replicates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            number(rep.throughput.mean, out);
        }
        out.push(']');
    }
    if r.class_reports.len() > 1 {
        out.push_str(",\"classes\":[");
        for (i, c) in r.class_reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"commits\":{},\"restarts\":{},\"restart_ratio\":",
                c.commits, c.restarts
            );
            number(c.restart_ratio, out);
            out.push_str(",\"response_mean_s\":");
            number(c.response_time_mean, out);
            out.push_str(",\"response_std_s\":");
            number(c.response_time_std, out);
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
}

/// Serialize an experiment result to a JSON document.
#[must_use]
pub fn to_json(result: &ExperimentResult) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"id\":");
    escape(result.spec.id, &mut out);
    out.push_str(",\"title\":");
    escape(result.spec.title, &mut out);
    out.push_str(",\"figures\":[");
    for (i, v) in result.spec.views.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape(v.figure, &mut out);
    }
    out.push_str("],\"points\":[");
    for (i, p) in result.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        point_json(p, &mut out);
    }
    out.push(']');
    // Failure holes and interruption are emitted only when present, so a
    // clean sweep's JSON is byte-identical to what older archives hold.
    if !result.failures.is_empty() {
        out.push_str(",\"failures\":[");
        for (i, f) in result.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"series\":");
            escape(&f.series, &mut out);
            let _ = write!(out, ",\"mpl\":{},\"rep\":{},\"kind\":", f.mpl, f.rep);
            escape(f.kind.token(), &mut out);
            out.push_str(",\"detail\":");
            escape(&f.detail, &mut out);
            out.push_str(",\"retry\":");
            escape(f.retry.token(), &mut out);
            let _ = write!(out, ",\"retry_attempts\":{}", f.retry.attempts());
            out.push('}');
        }
        out.push(']');
    }
    if result.interrupted {
        out.push_str(",\"interrupted\":true");
    }
    out.push('}');
    out
}

/// A parsed JSON value. Numbers keep their raw lexeme so callers choose
/// the integer or float interpretation without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its unparsed lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number as a `u64`, if it parses losslessly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64` (`null` maps to NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            // `f64::from_str` accepts our non-finite lexemes (NaN, inf,
            // -inf) as well as ordinary JSON numbers.
            Value::Num(raw) => raw.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a damaged or hostile file holding
/// `[[[[…` would overflow the stack instead of failing cleanly.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Accepts the output of this module plus the
/// non-finite number lexemes `NaN` / `inf` / `-inf` that the manifest
/// writes for lossless float round trips. Nesting deeper than 128
/// arrays/objects is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits (`from_str_radix`
                            // would also take a leading `+`).
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| {
                                    hex.iter().try_fold(0, |code, &b| {
                                        Some(code * 16 + char::from(b).to_digit(16)?)
                                    })
                                })
                                .ok_or("\\u escape needs four hex digits")?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape codepoint")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        // Non-finite lexemes written by the manifest for lossless floats.
        for lit in ["-inf", "inf", "NaN"] {
            if self.eat_literal(lit) {
                return Ok(Value::Num(lit.to_string()));
            }
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a value at offset {start}"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .to_string();
        // Validate the lexeme parses as a float at all.
        raw.parse::<f64>()
            .map_err(|e| format!("bad number {raw:?}: {e}"))?;
        Ok(Value::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, FigureKind, FigureView, Series};
    use ccsim_core::{Estimate, Params, Report};

    fn tiny_result() -> ExperimentResult {
        ExperimentResult {
            spec: ExperimentSpec {
                id: "t",
                title: "tiny \"quoted\"",
                params: Params::paper_baseline(),
                series: Series::paper_trio(),
                mpls: vec![5],
                restart_delay_for_all: false,
                views: vec![FigureView {
                    figure: "Figure 5",
                    caption: "c",
                    kind: FigureKind::Throughput,
                }],
            },
            points: vec![DataPoint::single(
                "blocking".into(),
                5,
                Report {
                    throughput: Estimate {
                        mean: 1.5,
                        half_width: 0.25,
                    },
                    throughput_per_batch: vec![1.5],
                    throughput_lag1: 0.0,
                    response_time_mean: 2.0,
                    response_time_std: 1.0,
                    response_time_max: 4.0,
                    response_time_p50: 2.0,
                    response_time_p95: 3.5,
                    response_time_p99: 3.9,
                    block_ratio: 0.5,
                    restart_ratio: 0.25,
                    disk_util_total: Estimate {
                        mean: 0.9,
                        half_width: 0.0,
                    },
                    disk_util_useful: Estimate {
                        mean: 0.8,
                        half_width: 0.0,
                    },
                    cpu_util_total: Estimate {
                        mean: 0.3,
                        half_width: 0.0,
                    },
                    cpu_util_useful: Estimate {
                        mean: 0.3,
                        half_width: 0.0,
                    },
                    avg_active: 4.2,
                    class_reports: vec![],
                    commits: 10,
                    blocks: 5,
                    restarts: 2,
                    deadlocks: 1,
                },
            )],
            audit_failures: Vec::new(),
            failures: Vec::new(),
            interrupted: false,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn replicated_points_emit_rep_throughputs() {
        let mut r = tiny_result();
        let single = r.points[0].report.clone();
        let mut second = single.clone();
        second.throughput.mean = 2.5;
        r.points[0].replicates = vec![single, second];
        let j = to_json(&r);
        assert!(j.contains("\"replications\":2"));
        assert!(j.contains("\"rep_throughputs\":[1.5,2.5]"));
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Single-replication points stay free of replication keys.
        assert!(!to_json(&tiny_result()).contains("\"replications\""));
    }

    #[test]
    fn class_breakdown_appears_only_for_multiclass_runs() {
        use ccsim_core::ClassReport;
        let mut r = tiny_result();
        // Single class: no breakdown emitted.
        r.points[0].report.class_reports = vec![ClassReport {
            commits: 10,
            restarts: 2,
            restart_ratio: 0.2,
            response_time_mean: 2.0,
            response_time_std: 1.0,
        }];
        assert!(!to_json(&r).contains("\"classes\""));
        // Two classes: emitted, well-formed.
        r.points[0].report.class_reports.push(ClassReport {
            commits: 3,
            restarts: 9,
            restart_ratio: 3.0,
            response_time_mean: 8.0,
            response_time_std: 4.0,
        });
        let j = to_json(&r);
        assert!(j.contains("\"classes\":[{"));
        assert!(j.contains("\"restart_ratio\":3"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn emits_valid_looking_json() {
        let j = to_json(&tiny_result());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\":\"t\""));
        assert!(j.contains("\"title\":\"tiny \\\"quoted\\\"\""));
        assert!(j.contains("\"figures\":[\"Figure 5\"]"));
        assert!(j.contains("\"throughput\":1.5"));
        assert!(j.contains("\"commits\":10"));
        // Balanced braces and brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn escapes_control_characters() {
        let mut s = String::new();
        escape("a\nb\tc\u{1}", &mut s);
        assert_eq!(s, "\"a\\nb\\tc\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut s = String::new();
        number(f64::NAN, &mut s);
        s.push(',');
        number(f64::INFINITY, &mut s);
        assert_eq!(s, "null,null");
    }

    #[test]
    fn failures_and_interruption_emit_only_when_present() {
        use crate::spec::{FailureKind, PointFailure, RetryOutcome};
        let clean = to_json(&tiny_result());
        assert!(!clean.contains("\"failures\""));
        assert!(!clean.contains("\"interrupted\""));
        let mut r = tiny_result();
        r.failures.push(PointFailure {
            series: "optimistic".into(),
            mpl: 25,
            rep: 1,
            kind: FailureKind::Panic,
            detail: "chaos: injected panic".into(),
            retry: RetryOutcome::Failed { attempts: 3 },
        });
        r.interrupted = true;
        let j = to_json(&r);
        assert!(j.contains(
            "\"failures\":[{\"series\":\"optimistic\",\"mpl\":25,\"rep\":1,\
             \"kind\":\"panic\",\"detail\":\"chaos: injected panic\",\
             \"retry\":\"failed\",\"retry_attempts\":3}]"
        ));
        assert!(j.ends_with(",\"interrupted\":true}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // And the parser reads its own output back.
        let v = parse(&j).expect("parses");
        let failures = v.get("failures").and_then(Value::as_arr).expect("array");
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].get("kind").and_then(Value::as_str),
            Some("panic")
        );
        assert_eq!(v.get("interrupted").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn retry_outcomes_round_trip_through_json() {
        use crate::spec::{FailureKind, PointFailure, RetryOutcome};
        for retry in [
            RetryOutcome::NotAttempted,
            RetryOutcome::Degraded { attempts: 2 },
            RetryOutcome::Recovered { attempts: 3 },
            RetryOutcome::Failed { attempts: 4 },
        ] {
            let mut r = tiny_result();
            r.failures.push(PointFailure {
                series: "blocking".into(),
                mpl: 5,
                rep: 0,
                kind: FailureKind::Budget,
                detail: "d".into(),
                retry,
            });
            let v = parse(&to_json(&r)).expect("parses");
            let f = &v.get("failures").and_then(Value::as_arr).expect("array")[0];
            let token = f.get("retry").and_then(Value::as_str).expect("token");
            let attempts = f
                .get("retry_attempts")
                .and_then(Value::as_u64)
                .expect("attempts") as u32;
            assert_eq!(RetryOutcome::from_parts(token, attempts), Some(retry));
        }
    }

    #[test]
    fn parser_round_trips_documents() {
        let j = to_json(&tiny_result());
        let v = parse(&j).expect("parses");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("t"));
        assert_eq!(
            v.get("title").and_then(Value::as_str),
            Some("tiny \"quoted\"")
        );
        let points = v.get("points").and_then(Value::as_arr).expect("points");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("mpl").and_then(Value::as_u64), Some(5));
        assert_eq!(
            points[0].get("throughput").and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(points[0].get("commits").and_then(Value::as_u64), Some(10));
    }

    #[test]
    fn parser_preserves_exact_lexemes() {
        // u64 beyond f64's 2^53 mantissa survives as an integer...
        let v = parse("{\"seed\":18446744073709551615}").expect("parses");
        assert_eq!(
            v.get("seed").and_then(Value::as_u64),
            Some(u64::MAX),
            "seed lexeme must not round-trip through f64"
        );
        // ...floats round-trip bit-exactly through shortest formatting...
        let x = 0.1f64 + 0.2f64;
        let v = parse(&format!("[{x}]")).expect("parses");
        assert_eq!(v.as_arr().unwrap()[0].as_f64(), Some(x));
        // ...and the manifest's non-finite lexemes are accepted.
        let v = parse("[NaN,inf,-inf,null]").expect("parses");
        let items = v.as_arr().unwrap();
        assert!(items[0].as_f64().unwrap().is_nan());
        assert_eq!(items[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(items[2].as_f64(), Some(f64::NEG_INFINITY));
        assert!(items[3].as_f64().unwrap().is_nan());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("bogus").is_err());
        assert!(parse("\"\\u+041\"").is_err(), "signed \\u escape");
        assert!(parse("\"\\u04\"").is_err(), "short \\u escape");
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let err = parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("offset 128"), "{err}");
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Exactly the cap parses, and the structure survives intact.
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &parse(&doc).expect("128 levels parse");
        let mut depth = 1;
        while let [inner] = v.as_arr().expect("array") {
            v = inner;
            depth += 1;
        }
        assert_eq!(depth, MAX_DEPTH);
        assert_eq!(v, &Value::Arr(Vec::new()));
    }

    #[test]
    fn parser_unescapes_strings() {
        let v = parse("\"a\\nb\\tc\\u0041\\\\\"").expect("parses");
        assert_eq!(v.as_str(), Some("a\nb\tc\u{41}\\"));
    }
}
