//! The checkpoint manifest: a JSONL journal of completed runs that makes
//! sweeps resumable.
//!
//! The supervisor appends one line per completed `(series, mpl, rep)` run
//! — the full [`Report`], losslessly — after a header line that pins the
//! sweep's identity (spec id, seed, fidelity, replications, grid, audit
//! flag). `repro --resume` replays the manifest, skips completed runs, and
//! re-runs only what's missing; because every run's seeds derive from its
//! grid coordinates (not from scheduling), the resumed sweep's final
//! output is byte-identical to an uninterrupted one.
//!
//! Every update rewrites the whole file to a sibling temp file and renames
//! it into place, so a crash mid-write never leaves a truncated manifest.
//! Floats are written with Rust's shortest round-trip formatting (plus the
//! `NaN`/`inf`/`-inf` lexemes) so a parsed-back report is bit-identical to
//! the one that was recorded. Failed runs are deliberately *not*
//! journaled: resume retries them.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use ccsim_core::{ClassReport, Estimate, Report};

use crate::json::{self, Value};
use crate::runner::RunOptions;
use crate::spec::ExperimentSpec;

/// Manifest format version (bump on incompatible layout changes).
const VERSION: u64 = 1;

/// Why a manifest could not be opened or replayed.
#[derive(Debug)]
pub enum ManifestError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The file exists but is not a well-formed manifest.
    Corrupt(String),
    /// The file is a manifest for a *different* sweep (other seed,
    /// fidelity, grid, ...). Resuming it would splice incompatible runs.
    Mismatch(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest I/O error: {e}"),
            ManifestError::Corrupt(m) => write!(f, "corrupt manifest: {m}"),
            ManifestError::Mismatch(m) => write!(f, "manifest mismatch: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// One completed run, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Series index into the spec's `series`.
    pub series_ix: usize,
    /// Multiprogramming level.
    pub mpl: u32,
    /// Replication index.
    pub rep: u32,
    /// Audit summary lines from this run (empty when clean or unaudited).
    pub audit: Vec<String>,
    /// The run's report, bit-identical to the original.
    pub report: Report,
}

/// Write `contents` to `path` atomically: write a sibling `*.tmp` file,
/// then rename it into place. A crash mid-write leaves either the old
/// file or nothing — never a truncated result.
///
/// # Errors
/// Returns the underlying I/O error from the write or rename.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// An open checkpoint manifest bound to one sweep.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    header: String,
    entries: Vec<ManifestEntry>,
    warnings: Vec<String>,
}

impl Manifest {
    /// Open the manifest at `path` for the sweep `(spec, opts)`. With
    /// `resume` set and an existing file, the header is validated against
    /// the sweep and completed entries are loaded; otherwise a fresh
    /// manifest (header only) replaces whatever was there.
    ///
    /// A *final* entry line that fails to parse is tolerated: it is the
    /// signature of a crash mid-append (a writer that died between write
    /// and rename, or an appending journal cut short), so the partial
    /// record is discarded with a note in [`Manifest::warnings`] and the
    /// run it described is simply re-run. Corruption anywhere *before* the
    /// last line is still a hard [`ManifestError::Corrupt`] — that is not
    /// what a crash produces. An entry that parses but names a coordinate
    /// outside the sweep's grid, or one an earlier line journaled, is
    /// corrupt on any line, the last included: a torn write cannot produce
    /// a whole line.
    ///
    /// # Errors
    /// [`ManifestError::Mismatch`] when resuming a manifest recorded for a
    /// different sweep, [`ManifestError::Corrupt`] on unparseable content
    /// or an out-of-grid or repeated entry, or [`ManifestError::Io`] on
    /// filesystem trouble.
    pub fn open(
        path: &Path,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        resume: bool,
    ) -> Result<Manifest, ManifestError> {
        let header = header_line(spec, opts);
        let mut manifest = Manifest {
            path: path.to_path_buf(),
            header,
            entries: Vec::new(),
            warnings: Vec::new(),
        };
        if resume && path.exists() {
            // Bytes that are not UTF-8 are damaged content, not an I/O
            // failure.
            let text = String::from_utf8(std::fs::read(path)?)
                .map_err(|e| ManifestError::Corrupt(format!("not UTF-8: {e}")))?;
            let mut lines = text.lines().filter(|l| !l.trim().is_empty());
            let found = lines
                .next()
                .ok_or_else(|| ManifestError::Corrupt("empty manifest".into()))?;
            if found != manifest.header {
                return Err(ManifestError::Mismatch(format!(
                    "manifest at {} was recorded for a different sweep \
                     (header {found:?}, expected {:?})",
                    path.display(),
                    manifest.header
                )));
            }
            let lines: Vec<&str> = lines.collect();
            let mut seen = HashSet::new();
            for (i, line) in lines.iter().enumerate() {
                let entry = match parse_entry(line) {
                    Ok(entry) => entry,
                    Err(e) if i + 1 == lines.len() => {
                        manifest.warnings.push(format!(
                            "discarded truncated final manifest entry {} ({e}); \
                             its run will be re-executed",
                            i + 1
                        ));
                        break;
                    }
                    Err(e) => {
                        return Err(ManifestError::Corrupt(format!("entry {}: {e}", i + 1)));
                    }
                };
                let (series_ix, mpl, rep) = (entry.series_ix, entry.mpl, entry.rep);
                let in_grid = series_ix < spec.series.len()
                    && spec.mpls.contains(&mpl)
                    && rep < opts.replications.max(1);
                if !in_grid || !seen.insert((series_ix, mpl, rep)) {
                    let problem = if in_grid {
                        "repeats an earlier entry"
                    } else {
                        "lies outside the sweep grid"
                    };
                    return Err(ManifestError::Corrupt(format!(
                        "entry {}: (series {series_ix}, mpl {mpl}, rep {rep}) {problem}",
                        i + 1
                    )));
                }
                manifest.entries.push(entry);
            }
        } else {
            manifest.flush()?;
        }
        Ok(manifest)
    }

    /// Journal one completed run and flush the manifest atomically.
    ///
    /// # Errors
    /// Returns the underlying I/O error.
    pub fn record(&mut self, entry: ManifestEntry) -> io::Result<()> {
        self.entries.push(entry);
        self.flush()
    }

    fn flush(&self) -> io::Result<()> {
        let mut out = String::with_capacity(256 * (self.entries.len() + 1));
        out.push_str(&self.header);
        out.push('\n');
        for e in &self.entries {
            entry_line(e, &mut out);
            out.push('\n');
        }
        write_atomic(&self.path, out.as_bytes())
    }

    /// The journaled runs, in completion order.
    #[must_use]
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Grid coordinates of every journaled run.
    #[must_use]
    pub fn completed(&self) -> HashSet<(usize, u32, u32)> {
        self.entries
            .iter()
            .map(|e| (e.series_ix, e.mpl, e.rep))
            .collect()
    }

    /// Non-fatal anomalies noticed while replaying the manifest (for now:
    /// a discarded truncated final entry). Callers should surface these to
    /// the user.
    #[must_use]
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }
}

/// The identity header pinning which sweep a manifest belongs to.
fn header_line(spec: &ExperimentSpec, opts: &RunOptions) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"kind\":\"ccsim-manifest\",\"version\":{VERSION},\"id\":"
    );
    json::escape(spec.id, &mut out);
    let _ = write!(
        out,
        ",\"base_seed\":{},\"fidelity\":\"{}\",\"replications\":{},\"audit\":{}",
        opts.base_seed,
        opts.fidelity.token(),
        opts.replications.max(1),
        opts.audit
    );
    out.push_str(",\"series\":[");
    for (i, s) in spec.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape(&s.label, &mut out);
    }
    out.push_str("],\"mpls\":[");
    for (i, m) in spec.mpls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{m}");
    }
    out.push_str("]}");
    out
}

/// Lossless float: shortest round-trip decimal, with `NaN`/`inf`/`-inf`
/// lexemes for non-finite values (accepted back by `json::parse`).
fn float(v: f64, out: &mut String) {
    let _ = write!(out, "{v}");
}

fn estimate(e: Estimate, out: &mut String) {
    out.push('[');
    float(e.mean, out);
    out.push(',');
    float(e.half_width, out);
    out.push(']');
}

fn entry_line(e: &ManifestEntry, out: &mut String) {
    let _ = write!(
        out,
        "{{\"series\":{},\"mpl\":{},\"rep\":{}",
        e.series_ix, e.mpl, e.rep
    );
    if !e.audit.is_empty() {
        out.push_str(",\"audit\":[");
        for (i, a) in e.audit.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape(a, out);
        }
        out.push(']');
    }
    out.push_str(",\"report\":");
    report_json(&e.report, out);
    out.push('}');
}

fn report_json(r: &Report, out: &mut String) {
    out.push_str("{\"throughput\":");
    estimate(r.throughput, out);
    out.push_str(",\"throughput_per_batch\":[");
    for (i, v) in r.throughput_per_batch.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        float(*v, out);
    }
    out.push_str("],\"throughput_lag1\":");
    float(r.throughput_lag1, out);
    for (key, v) in [
        ("response_time_mean", r.response_time_mean),
        ("response_time_std", r.response_time_std),
        ("response_time_max", r.response_time_max),
        ("response_time_p50", r.response_time_p50),
        ("response_time_p95", r.response_time_p95),
        ("response_time_p99", r.response_time_p99),
        ("block_ratio", r.block_ratio),
        ("restart_ratio", r.restart_ratio),
    ] {
        let _ = write!(out, ",\"{key}\":");
        float(v, out);
    }
    for (key, e) in [
        ("disk_util_total", r.disk_util_total),
        ("disk_util_useful", r.disk_util_useful),
        ("cpu_util_total", r.cpu_util_total),
        ("cpu_util_useful", r.cpu_util_useful),
    ] {
        let _ = write!(out, ",\"{key}\":");
        estimate(e, out);
    }
    out.push_str(",\"avg_active\":");
    float(r.avg_active, out);
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
        float(c.restart_ratio, out);
        out.push_str(",\"response_time_mean\":");
        float(c.response_time_mean, out);
        out.push_str(",\"response_time_std\":");
        float(c.response_time_std, out);
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"commits\":{},\"blocks\":{},\"restarts\":{},\"deadlocks\":{}}}",
        r.commits, r.blocks, r.restarts, r.deadlocks
    );
}

fn need<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn need_f64(v: &Value, key: &str) -> Result<f64, String> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| format!("key {key:?} is not a number"))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| format!("key {key:?} is not an integer"))
}

fn need_estimate(v: &Value, key: &str) -> Result<Estimate, String> {
    let arr = need(v, key)?
        .as_arr()
        .ok_or_else(|| format!("key {key:?} is not an estimate pair"))?;
    match arr {
        [m, h] => Ok(Estimate {
            mean: m.as_f64().ok_or_else(|| format!("{key:?} mean"))?,
            half_width: h.as_f64().ok_or_else(|| format!("{key:?} half-width"))?,
        }),
        _ => Err(format!("key {key:?} is not a [mean, half_width] pair")),
    }
}

fn parse_entry(line: &str) -> Result<ManifestEntry, String> {
    let v = json::parse(line)?;
    let audit = match v.get("audit") {
        None => Vec::new(),
        Some(a) => a
            .as_arr()
            .ok_or("audit is not an array")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(ToString::to_string)
                    .ok_or("audit entry is not a string".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?,
    };
    Ok(ManifestEntry {
        series_ix: usize::try_from(need_u64(&v, "series")?).map_err(|e| e.to_string())?,
        mpl: u32::try_from(need_u64(&v, "mpl")?).map_err(|e| e.to_string())?,
        rep: u32::try_from(need_u64(&v, "rep")?).map_err(|e| e.to_string())?,
        audit,
        report: parse_report(need(&v, "report")?)?,
    })
}

fn parse_report(v: &Value) -> Result<Report, String> {
    let classes = need(v, "classes")?
        .as_arr()
        .ok_or("classes is not an array")?
        .iter()
        .map(|c| {
            Ok(ClassReport {
                commits: need_u64(c, "commits")?,
                restarts: need_u64(c, "restarts")?,
                restart_ratio: need_f64(c, "restart_ratio")?,
                response_time_mean: need_f64(c, "response_time_mean")?,
                response_time_std: need_f64(c, "response_time_std")?,
            })
        })
        .collect::<Result<Vec<ClassReport>, String>>()?;
    Ok(Report {
        throughput: need_estimate(v, "throughput")?,
        throughput_per_batch: need(v, "throughput_per_batch")?
            .as_arr()
            .ok_or("throughput_per_batch is not an array")?
            .iter()
            .map(|x| x.as_f64().ok_or("batch throughput".to_string()))
            .collect::<Result<Vec<f64>, String>>()?,
        throughput_lag1: need_f64(v, "throughput_lag1")?,
        response_time_mean: need_f64(v, "response_time_mean")?,
        response_time_std: need_f64(v, "response_time_std")?,
        response_time_max: need_f64(v, "response_time_max")?,
        response_time_p50: need_f64(v, "response_time_p50")?,
        response_time_p95: need_f64(v, "response_time_p95")?,
        response_time_p99: need_f64(v, "response_time_p99")?,
        block_ratio: need_f64(v, "block_ratio")?,
        restart_ratio: need_f64(v, "restart_ratio")?,
        disk_util_total: need_estimate(v, "disk_util_total")?,
        disk_util_useful: need_estimate(v, "disk_util_useful")?,
        cpu_util_total: need_estimate(v, "cpu_util_total")?,
        cpu_util_useful: need_estimate(v, "cpu_util_useful")?,
        avg_active: need_f64(v, "avg_active")?,
        class_reports: classes,
        commits: need_u64(v, "commits")?,
        blocks: need_u64(v, "blocks")?,
        restarts: need_u64(v, "restarts")?,
        deadlocks: need_u64(v, "deadlocks")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::runner::Fidelity;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccsim-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample_report(tps: f64) -> Report {
        Report {
            throughput: Estimate {
                mean: tps,
                half_width: 0.1 + tps / 3.0,
            },
            throughput_per_batch: vec![tps - 0.25, tps + 0.25, f64::NAN],
            throughput_lag1: -0.125,
            response_time_mean: 2.0,
            response_time_std: 1.0,
            response_time_max: f64::INFINITY,
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
                mean: 0.1 + 0.2,
                half_width: 0.0,
            },
            avg_active: 4.2,
            class_reports: vec![ClassReport {
                commits: 10,
                restarts: 2,
                restart_ratio: 0.2,
                response_time_mean: 2.0,
                response_time_std: 1.0,
            }],
            commits: 10,
            blocks: 5,
            restarts: 2,
            deadlocks: 1,
        }
    }

    #[test]
    fn reports_round_trip_bit_exactly() {
        let r = sample_report(1.5);
        let mut line = String::new();
        entry_line(
            &ManifestEntry {
                series_ix: 2,
                mpl: 50,
                rep: 3,
                audit: vec!["blocking@50 rep 3: lock leak".into()],
                report: r.clone(),
            },
            &mut line,
        );
        let back = parse_entry(&line).expect("parses");
        assert_eq!(back.series_ix, 2);
        assert_eq!((back.mpl, back.rep), (50, 3));
        assert_eq!(back.audit.len(), 1);
        // NaN breaks PartialEq; compare through the serialized form, which
        // is exact because floats use shortest round-trip formatting.
        let mut reline = String::new();
        entry_line(&back, &mut reline);
        assert_eq!(line, reline);
        assert_eq!(back.report.commits, r.commits);
        assert_eq!(back.report.throughput, r.throughput);
        assert!(back.report.throughput_per_batch[2].is_nan());
        assert_eq!(back.report.response_time_max, f64::INFINITY);
    }

    #[test]
    fn open_record_reopen_replays_entries() {
        let dir = tmpdir("replay");
        let path = dir.join("exp3.manifest.jsonl");
        let spec = catalog::exp3();
        let opts = RunOptions::default();
        let mut m = Manifest::open(&path, &spec, &opts, false).expect("fresh manifest");
        assert!(m.entries().is_empty());
        m.record(ManifestEntry {
            series_ix: 0,
            mpl: 5,
            rep: 0,
            audit: Vec::new(),
            report: sample_report(1.0),
        })
        .expect("record");
        m.record(ManifestEntry {
            series_ix: 1,
            mpl: 25,
            rep: 0,
            audit: Vec::new(),
            report: sample_report(2.0),
        })
        .expect("record");
        let re = Manifest::open(&path, &spec, &opts, true).expect("resume");
        assert_eq!(re.entries().len(), 2);
        assert_eq!(re.completed(), HashSet::from([(0, 5, 0), (1, 25, 0)]));
        assert_eq!(re.entries()[1].report.throughput.mean, 2.0);
        // No stray temp file left behind.
        assert!(!dir.join("exp3.manifest.jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_sweeps_are_rejected() {
        let dir = tmpdir("mismatch");
        let path = dir.join("exp3.manifest.jsonl");
        let spec = catalog::exp3();
        let opts = RunOptions::default();
        Manifest::open(&path, &spec, &opts, false).expect("fresh manifest");
        // Different seed...
        let other = RunOptions {
            base_seed: 7,
            ..opts.clone()
        };
        assert!(matches!(
            Manifest::open(&path, &spec, &other, true),
            Err(ManifestError::Mismatch(_))
        ));
        // ...different fidelity...
        let other = RunOptions {
            fidelity: Fidelity::Quick,
            ..opts.clone()
        };
        assert!(matches!(
            Manifest::open(&path, &spec, &other, true),
            Err(ManifestError::Mismatch(_))
        ));
        // ...different grid.
        let mut other_spec = spec.clone();
        other_spec.mpls = vec![5];
        assert!(matches!(
            Manifest::open(&path, &other_spec, &opts, true),
            Err(ManifestError::Mismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_interior_entries_are_rejected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("exp3.manifest.jsonl");
        let spec = catalog::exp3();
        let opts = RunOptions::default();
        let mut m = Manifest::open(&path, &spec, &opts, false).expect("fresh manifest");
        m.record(ManifestEntry {
            series_ix: 0,
            mpl: 5,
            rep: 0,
            audit: Vec::new(),
            report: sample_report(1.0),
        })
        .expect("record");
        drop(m);
        let text = std::fs::read_to_string(&path).expect("read");
        let (header, good) = text.split_once('\n').expect("header and one entry");
        let good = good.trim_end();
        let edit = |from: &str, to: &str| good.replacen(from, to, 1);
        // A bad line *followed by* a good one is corruption, not a crash
        // artifact. A line that parses but lies outside the grid, or
        // repeats an earlier entry, is rejected on any line, the last
        // included.
        for (entries, case) in [
            (
                vec!["{\"series\":0,\"mpl\":5}".to_string(), good.to_string()],
                "unparseable interior line",
            ),
            (vec![edit("\"series\":0,", "\"series\":7,")], "series 7"),
            (vec![good.to_string(), good.to_string()], "repeated entry"),
            (vec![edit("\"mpl\":5,", "\"mpl\":11,")], "mpl 11"),
            (
                vec![
                    edit("\"series\":0,", "\"series\":1,"),
                    edit("\"rep\":0,", "\"rep\":1,"),
                ],
                "final rep 1 of one replication",
            ),
        ] {
            let doc = std::iter::once(header.to_string())
                .chain(entries)
                .collect::<Vec<_>>()
                .join("\n");
            std::fs::write(&path, doc + "\n").expect("write");
            match Manifest::open(&path, &spec, &opts, true) {
                Err(ManifestError::Corrupt(msg)) => {
                    assert!(msg.starts_with("entry "), "{case}: {msg}");
                }
                other => panic!("{case}: expected a corrupt manifest, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_entry_is_discarded_with_a_warning() {
        let dir = tmpdir("torn-tail");
        let path = dir.join("exp3.manifest.jsonl");
        let spec = catalog::exp3();
        let opts = RunOptions::default();
        let mut m = Manifest::open(&path, &spec, &opts, false).expect("fresh manifest");
        m.record(ManifestEntry {
            series_ix: 0,
            mpl: 5,
            rep: 0,
            audit: Vec::new(),
            report: sample_report(1.0),
        })
        .expect("record");
        m.record(ManifestEntry {
            series_ix: 1,
            mpl: 25,
            rep: 0,
            audit: Vec::new(),
            report: sample_report(2.0),
        })
        .expect("record");
        drop(m);
        // Simulate a crash mid-append: cut the final line short.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.trim_end().len() - 40;
        std::fs::write(&path, &text[..cut]).expect("write");
        let re = Manifest::open(&path, &spec, &opts, true).expect("tolerant resume");
        assert_eq!(re.entries().len(), 1, "intact entry survives");
        assert_eq!(re.completed(), HashSet::from([(0, 5, 0)]));
        assert_eq!(re.warnings().len(), 1);
        assert!(
            re.warnings()[0].contains("truncated final manifest entry"),
            "{:?}",
            re.warnings()
        );
        // An untampered manifest reports no warnings.
        let clean = Manifest::open(&path, &spec, &opts, false).expect("fresh");
        assert!(clean.warnings().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_resume_open_truncates_stale_manifest() {
        let dir = tmpdir("truncate");
        let path = dir.join("exp3.manifest.jsonl");
        let spec = catalog::exp3();
        let opts = RunOptions::default();
        let mut m = Manifest::open(&path, &spec, &opts, false).expect("fresh");
        m.record(ManifestEntry {
            series_ix: 0,
            mpl: 5,
            rep: 0,
            audit: Vec::new(),
            report: sample_report(1.0),
        })
        .expect("record");
        let fresh = Manifest::open(&path, &spec, &opts, false).expect("fresh again");
        assert!(fresh.entries().is_empty());
        let reread = Manifest::open(&path, &spec, &opts, true).expect("resume");
        assert!(reread.entries().is_empty(), "old entries were discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
