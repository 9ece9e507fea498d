//! End-to-end tests for the sweep service: a real daemon on a real
//! socket, driven through the line-delimited JSON protocol.
//!
//! The claims under test are the service's headline guarantees:
//! durable-before-ack submission, crash/drain recovery to byte-identical
//! output, cache hits that cost zero simulated events, typed budget
//! holes instead of wedged jobs, and load shedding with a retry hint.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use ccsim_experiments::json::{self, Value};
use ccsim_experiments::{run_experiment, RetryPolicy};
use ccsim_serve::{start, JobSpec, ServerConfig, MAX_REQUEST_BYTES};

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim-serve-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(mpls: &[u32]) -> JobSpec {
    JobSpec {
        mpls: Some(mpls.to_vec()),
        ..JobSpec::quick("exp3")
    }
}

/// What an uninterrupted local run of the same spec archives.
fn reference_json(spec: &JobSpec) -> String {
    let (espec, opts) = spec.resolve().expect("valid spec");
    let result = run_experiment(&espec, &opts).expect("reference run");
    json::to_json(&result)
}

/// Send one request line and collect every response line until the
/// server closes the connection.
fn request(addr: SocketAddr, req: &str) -> Vec<String> {
    stream_request(addr, req, |_| {})
}

/// Like [`request`], invoking `on_line` as each line arrives (used to
/// trigger a drain mid-stream).
fn stream_request(addr: SocketAddr, req: &str, mut on_line: impl FnMut(&str)) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(req.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    let reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        on_line(&line);
        lines.push(line);
    }
    lines
}

fn event_of(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("event").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    json::parse(line).ok()?.get(key)?.as_u64()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    json::parse(line).ok()?.get(key)?.as_bool()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    json::parse(line)
        .ok()?
        .get(key)?
        .as_str()
        .map(str::to_string)
}

fn submit_line(spec: &JobSpec) -> String {
    format!("{{\"op\":\"submit\",\"spec\":{}}}", spec.to_json())
}

#[test]
fn submit_runs_caches_and_serves_repeats_for_free() {
    let dir = state_dir("cache-hit");
    let mut cfg = ServerConfig::new(&dir);
    cfg.threads = 1;
    let handle = start(cfg).expect("daemon starts");
    let spec = small_spec(&[5, 10]);

    let lines = request(handle.addr(), &submit_line(&spec));
    assert_eq!(event_of(&lines[0]), "ack");
    assert_eq!(field_bool(&lines[0], "deduped"), Some(false));
    let points: Vec<&String> = lines.iter().filter(|l| event_of(l) == "point").collect();
    assert_eq!(points.len(), 6, "3 series x 2 mpls: {lines:#?}");
    assert!(points
        .iter()
        .all(|l| field_bool(l, "replayed") == Some(false)));
    let done = lines.last().expect("terminal line");
    assert_eq!(event_of(done), "done");
    assert_eq!(field_bool(done, "cached"), Some(false));
    assert_eq!(field_bool(done, "fully_measured"), Some(true));
    assert!(field_u64(done, "events_charged").expect("charged") > 0);

    // The archived result is exactly what a local uninterrupted
    // `run_experiment` produces.
    let result_path = field_str(done, "result").expect("result path");
    let archived = std::fs::read_to_string(&result_path).expect("result file");
    assert_eq!(archived, reference_json(&spec));

    // A repeated identical what-if is served from disk: no point events,
    // zero simulated events charged.
    let again = request(handle.addr(), &submit_line(&spec));
    assert_eq!(event_of(&again[0]), "ack");
    let done = again.last().expect("terminal line");
    assert_eq!(event_of(done), "done", "{again:#?}");
    assert_eq!(field_bool(done, "cached"), Some(true));
    assert_eq!(field_u64(done, "events_charged"), Some(0));
    assert!(!again.iter().any(|l| event_of(l) == "point"));
    let cached = std::fs::read_to_string(field_str(done, "result").expect("path")).expect("cache");
    assert_eq!(cached, reference_json(&spec));

    handle.drain();
}

#[test]
fn drain_checkpoints_and_restart_resumes_byte_identical() {
    let dir = state_dir("drain-resume");
    let mut cfg = ServerConfig::new(&dir);
    cfg.threads = 1;
    let handle = start(cfg.clone()).expect("daemon starts");
    let spec = small_spec(&[1, 2, 5]);
    let hash = spec.hash().expect("hash");

    // Request a drain the moment the first point lands: the in-flight
    // point finishes and checkpoints, the rest of the grid is abandoned.
    let lines = stream_request(handle.addr(), &submit_line(&spec), |line| {
        if event_of(line) == "point" {
            handle.request_drain();
        }
    });
    let last = lines.last().expect("terminal line");
    assert_eq!(event_of(last), "paused", "{lines:#?}");
    let drained_points = lines.iter().filter(|l| event_of(l) == "point").count();
    assert!(drained_points < 9, "drain must interrupt the sweep");
    handle.drain();

    // Restart on the same state: the journal re-enqueues the job and the
    // checkpoint manifest replays the drained points instead of
    // re-simulating them.
    let handle = start(cfg).expect("daemon restarts");
    let lines = request(
        handle.addr(),
        &format!("{{\"op\":\"watch\",\"hash\":\"{hash:016x}\"}}"),
    );
    let done = lines.last().expect("terminal line");
    assert_eq!(event_of(done), "done", "{lines:#?}");
    assert_eq!(field_bool(done, "fully_measured"), Some(true));
    assert!(
        lines
            .iter()
            .any(|l| event_of(l) == "point" && field_bool(l, "replayed") == Some(true)),
        "resume must replay checkpointed points: {lines:#?}"
    );
    let archived =
        std::fs::read_to_string(field_str(done, "result").expect("path")).expect("result file");
    assert_eq!(
        archived,
        reference_json(&spec),
        "resumed output must be byte-identical to an uninterrupted run"
    );
    handle.drain();
}

#[test]
fn spent_budget_punches_typed_holes_then_rejects() {
    let dir = state_dir("budget");
    let mut cfg = ServerConfig::new(&dir);
    cfg.threads = 1;
    cfg.client_events = Some(8192); // one charge block for the whole tenant
    cfg.retry = RetryPolicy::none(); // holes, not slow retry loops
    let handle = start(cfg).expect("daemon starts");
    let spec = small_spec(&[5]);
    let hash = spec.hash().expect("hash");

    let lines = request(handle.addr(), &submit_line(&spec));
    let done = lines.last().expect("terminal line");
    assert_eq!(event_of(done), "done", "{lines:#?}");
    assert_eq!(
        field_bool(done, "fully_measured"),
        Some(false),
        "budget exhaustion must degrade, not fully measure"
    );
    assert!(field_u64(done, "failures").expect("failures") > 0);
    // Untrustworthy results never become cache entries.
    assert!(!dir.join("cache").join(format!("{hash:016x}.json")).exists());

    // The tenant's pool is spent: further submissions are refused at the
    // door instead of queued for guaranteed failure.
    let again = request(handle.addr(), &submit_line(&spec));
    assert_eq!(event_of(&again[0]), "rejected", "{again:#?}");
    assert_eq!(field_str(&again[0], "reason").as_deref(), Some("budget"));

    // A different tenant has its own pool and is unaffected.
    let mut other = small_spec(&[5]);
    other.client = "fresh-tenant".to_string();
    let lines = request(handle.addr(), &submit_line(&other));
    assert_eq!(event_of(&lines[0]), "ack", "{lines:#?}");

    handle.drain();
}

#[test]
fn deep_queue_sheds_load_with_retry_hint() {
    let dir = state_dir("shed");
    let mut cfg = ServerConfig::new(&dir);
    cfg.max_queue = 0;
    let handle = start(cfg).expect("daemon starts");
    let lines = request(handle.addr(), &submit_line(&small_spec(&[5])));
    assert_eq!(event_of(&lines[0]), "rejected", "{lines:#?}");
    assert_eq!(field_str(&lines[0], "reason").as_deref(), Some("overload"));
    assert!(field_u64(&lines[0], "retry_after_ms").is_some());
    handle.drain();
}

#[test]
fn concurrent_identical_submissions_share_one_job() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = state_dir("dedupe");
    let mut cfg = ServerConfig::new(&dir);
    cfg.threads = 1;
    // Pause the scheduler so the first job is provably still active
    // (journaled, acked, not started) when the duplicate arrives —
    // without this the race is timing-dependent: a quick sweep can
    // finish inside the accept loop's poll interval on a fast build.
    let gate = Arc::new(AtomicBool::new(true));
    cfg.hold_jobs = Some(Arc::clone(&gate));
    let handle = start(cfg).expect("daemon starts");
    let spec = small_spec(&[1, 2, 5]);

    // First submission on its own connection; don't read it to completion
    // yet, so the job is still active when the duplicate arrives.
    let mut first = TcpStream::connect(handle.addr()).expect("connect");
    first
        .write_all(submit_line(&spec).as_bytes())
        .expect("send");
    first.write_all(b"\n").expect("send");
    let mut first_reader = BufReader::new(first);
    let mut ack = String::new();
    first_reader.read_line(&mut ack).expect("ack");
    assert_eq!(event_of(&ack), "ack");
    let first_job = field_u64(&ack, "job").expect("job id");

    // The duplicate joins the held job rather than creating a second one.
    let mut dup_conn = TcpStream::connect(handle.addr()).expect("connect");
    dup_conn
        .write_all(submit_line(&spec).as_bytes())
        .expect("send");
    dup_conn.write_all(b"\n").expect("send");
    let mut dup_reader = BufReader::new(dup_conn);
    let mut dup_ack = String::new();
    dup_reader.read_line(&mut dup_ack).expect("dup ack");
    assert_eq!(event_of(&dup_ack), "ack");
    assert_eq!(field_bool(&dup_ack, "deduped"), Some(true));
    assert_eq!(field_u64(&dup_ack, "job"), Some(first_job));

    // Release the scheduler; both connections see the same completion.
    gate.store(false, Ordering::SeqCst);
    let dup: Vec<String> = dup_reader.lines().map_while(Result::ok).collect();
    assert_eq!(event_of(dup.last().expect("terminal")), "done");
    let rest: Vec<String> = first_reader.lines().map_while(Result::ok).collect();
    assert_eq!(event_of(rest.last().expect("terminal")), "done");
    handle.drain();
}

#[test]
fn status_reports_the_job_table() {
    let dir = state_dir("status");
    let mut cfg = ServerConfig::new(&dir);
    cfg.threads = 1;
    let handle = start(cfg).expect("daemon starts");
    let spec = small_spec(&[5]);
    let lines = request(handle.addr(), &submit_line(&spec));
    assert_eq!(event_of(lines.last().expect("terminal")), "done");

    let status = request(handle.addr(), "{\"op\":\"status\"}");
    assert_eq!(status.len(), 1);
    let v = json::parse(&status[0]).expect("status json");
    let jobs = v.get("jobs").and_then(Value::as_arr).expect("jobs array");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        jobs[0].get("experiment").and_then(Value::as_str),
        Some("exp3")
    );
    assert_eq!(v.get("queued").and_then(Value::as_u64), Some(0));
    handle.drain();
}

#[test]
fn malformed_requests_get_typed_errors() {
    let dir = state_dir("errors");
    let handle = start(ServerConfig::new(&dir)).expect("daemon starts");
    for (req, needle) in [
        ("not json", "bad request"),
        ("{\"op\":\"frobnicate\"}", "op must be"),
        ("{\"op\":\"submit\"}", "needs a \\\"spec\\\""),
        (
            "{\"op\":\"submit\",\"spec\":{\"experiment\":\"nope\"}}",
            "unknown experiment",
        ),
        ("{\"op\":\"watch\",\"hash\":\"zz\"}", "hex"),
        ("{\"op\":\"watch\",\"hash\":\"00000000000000aa\"}", "no job"),
    ] {
        let lines = request(handle.addr(), req);
        assert_eq!(event_of(&lines[0]), "error", "{req} -> {lines:#?}");
        assert!(lines[0].contains(needle), "{req} -> {lines:#?}");
    }
    handle.drain();
}

#[test]
fn over_cap_request_line_is_refused_and_the_daemon_keeps_serving() {
    let dir = state_dir("over-cap");
    let mut cfg = ServerConfig::new(&dir);
    cfg.threads = 1;
    let handle = start(cfg).expect("daemon starts");
    // A line that fills the whole cap without a newline: the daemon stops
    // reading there, answers with a typed error and closes.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let filler = vec![b' '; MAX_REQUEST_BYTES as usize];
    stream.write_all(&filler).expect("send");
    let lines: Vec<String> = BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .collect();
    assert_eq!(lines.len(), 1, "{lines:#?}");
    assert_eq!(event_of(&lines[0]), "error");
    assert!(lines[0].contains("exceeds"), "{lines:#?}");

    // The daemon is unharmed: a normal submit on a new connection runs.
    let lines = request(handle.addr(), &submit_line(&small_spec(&[5])));
    assert_eq!(event_of(&lines[0]), "ack");
    assert_eq!(event_of(lines.last().expect("terminal line")), "done");
    handle.drain();
}

/// The headline crash-safety claim, against the real binary: SIGKILL the
/// daemon mid-sweep (deterministically, via the chaos hook), restart it,
/// and the resumed job completes byte-identical to an uninterrupted run.
#[cfg(all(unix, feature = "chaos"))]
#[test]
fn kill_nine_mid_sweep_then_restart_resumes_byte_identical() {
    use std::process::{Child, Command, Stdio};

    fn spawn_daemon(dir: &std::path::Path, chaos: Option<&str>) -> (Child, SocketAddr) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ccsim-serve"));
        cmd.args(["serve", "--state"])
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env_remove(ccsim_serve::CHAOS_ENV);
        if let Some(mode) = chaos {
            cmd.env(ccsim_serve::CHAOS_ENV, mode);
        }
        let mut child = cmd.spawn().expect("spawn daemon");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut line)
            .expect("listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .expect("listening line")
            .parse()
            .expect("addr");
        (child, addr)
    }

    let dir = state_dir("kill9");
    let spec = small_spec(&[1, 2, 5]);
    let hash = spec.hash().expect("hash");

    // Daemon armed to abort (kill -9 semantics: no drain, no cleanup)
    // after two freshly simulated points.
    let (mut child, addr) = spawn_daemon(&dir, Some("die-after-points:2"));
    let lines = request(addr, &submit_line(&spec));
    assert_eq!(event_of(&lines[0]), "ack", "{lines:#?}");
    assert!(
        !lines.iter().any(|l| event_of(l) == "done"),
        "daemon must die before finishing: {lines:#?}"
    );
    let status = child.wait().expect("daemon exit");
    assert!(!status.success(), "daemon must have aborted");

    // Restart without chaos: the journaled job is re-enqueued, the
    // checkpoint manifest replays what survived, and the sweep finishes.
    let (mut child, addr) = spawn_daemon(&dir, None);
    let lines = request(
        addr,
        &format!("{{\"op\":\"watch\",\"hash\":\"{hash:016x}\"}}"),
    );
    let done = lines.last().expect("terminal line");
    assert_eq!(event_of(done), "done", "{lines:#?}");
    assert_eq!(field_bool(done, "fully_measured"), Some(true));
    assert!(
        lines
            .iter()
            .any(|l| event_of(l) == "point" && field_bool(l, "replayed") == Some(true)),
        "restart must replay the checkpointed points: {lines:#?}"
    );
    let archived =
        std::fs::read_to_string(field_str(done, "result").expect("path")).expect("result file");
    assert_eq!(
        archived,
        reference_json(&spec),
        "kill -9 -> restart -> resume must be byte-identical"
    );
    child.kill().expect("stop daemon");
    let _ = child.wait();
}
