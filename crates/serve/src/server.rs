//! The daemon: a `TcpListener` accept loop, a serial scheduler over the
//! supervised runner, and the durable state that ties them together.
//!
//! # Lifecycle of a job
//!
//! ```text
//! submit ──journal (atomic, BEFORE ack)──► queued ──► running ──► done
//!                                             ▲           │
//!                                             └──restart──┘  (crash / drain:
//!                                                             checkpoint manifest
//!                                                             makes the re-run a
//!                                                             byte-identical resume)
//! ```
//!
//! Durability is the invariant everything else hangs off: a job is only
//! acknowledged after its record is on disk, every completed grid point
//! is journaled to the job's checkpoint manifest by the supervised
//! runner, and the scheduler always opens manifests with `resume: true` —
//! so a `kill -9` at any instant costs at most the points in flight, and
//! the restarted job's output is byte-identical to an uninterrupted run
//! (seeds derive from grid coordinates, never from wall time or attempt
//! number).
//!
//! Graceful degradation has three levels: per-client [`EventPool`]s bound
//! a tenant's total simulated work (exhaustion punches typed `Budget`
//! holes, it never wedges the daemon); submissions beyond `max_queue` are
//! shed with a `retry_after_ms` hint instead of growing the queue
//! unboundedly; and SIGTERM/`drain` stops the accept loop, lets in-flight
//! points finish and journal, emits `paused` to watchers, and exits —
//! restart picks every non-done job back up.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ccsim_core::EventPool;
use ccsim_experiments::json::{self, Value};
use ccsim_experiments::{
    run_experiment_supervised, write_atomic, PointProgress, RetryPolicy, SweepControl,
};

use crate::cache::ResultCache;
use crate::job::JobSpec;
use crate::journal::{JobJournal, JobState};

/// Poll granularity for the accept loop, socket reads, and the scheduler
/// idle wait — the latency bound on noticing a shutdown request.
const POLL: Duration = Duration::from_millis(50);

/// How the daemon is set up. `ServerConfig::new` picks conservative
/// defaults; the binary maps CLI flags onto the fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Root of the durable state: `jobs.jsonl`, `manifests/`, `results/`,
    /// `cache/`.
    pub state_dir: PathBuf,
    /// Worker threads per sweep (0 = one per core).
    pub threads: usize,
    /// Load-shedding threshold: submissions arriving while this many jobs
    /// are queued are rejected with a `retry_after_ms` hint.
    pub max_queue: usize,
    /// Per-client event allowance (`None` = effectively unlimited; a
    /// metering pool is attached either way so `events_charged` is exact).
    pub client_events: Option<u64>,
    /// Retry discipline applied to every job's grid points.
    pub retry: RetryPolicy,
    /// While this flag is `true` the scheduler accepts, journals, and
    /// acks jobs but does not start them — a pause switch for operators
    /// and the deterministic hook the dedupe tests use to keep a job
    /// active while a duplicate arrives. `None` (the default) never
    /// pauses.
    pub hold_jobs: Option<Arc<AtomicBool>>,
}

impl ServerConfig {
    /// Defaults: ephemeral localhost port, 16-deep queue, unlimited
    /// client budgets, three full-fidelity attempts per point.
    #[must_use]
    pub fn new(state_dir: &Path) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.to_path_buf(),
            threads: 0,
            max_queue: 16,
            client_events: None,
            retry: RetryPolicy::retries(3),
            hold_jobs: None,
        }
    }
}

/// Metering pool size when no per-client limit is configured: large
/// enough to never exhaust, small enough to never overflow on refund.
const UNLIMITED_EVENTS: u64 = u64::MAX / 4;

/// Per-job fan-out state: every event line broadcast so far (so a late
/// subscriber replays the full history in order) plus live subscribers.
#[derive(Default)]
struct JobRuntime {
    /// `(line, terminal)` — terminal lines (`done` / `paused` / `error`)
    /// end a watching connection.
    lines: Vec<(String, bool)>,
    /// A terminal line has been broadcast.
    settled: bool,
    subscribers: Vec<mpsc::Sender<(String, bool)>>,
}

struct Inner {
    cfg: ServerConfig,
    journal: Mutex<JobJournal>,
    runtimes: Mutex<HashMap<u64, JobRuntime>>,
    pools: Mutex<HashMap<String, EventPool>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    results_dir: PathBuf,
    manifests_dir: PathBuf,
}

impl Inner {
    fn broadcast(&self, id: u64, line: String, terminal: bool) {
        let mut rts = self.runtimes.lock().unwrap();
        let rt = rts.entry(id).or_default();
        rt.subscribers
            .retain(|s| s.send((line.clone(), terminal)).is_ok());
        if terminal {
            rt.settled = true;
            rt.subscribers.clear();
        }
        rt.lines.push((line, terminal));
    }

    /// Attach a subscriber: replays history, then streams. The channel
    /// closes after a terminal line.
    fn subscribe(&self, id: u64) -> mpsc::Receiver<(String, bool)> {
        let (tx, rx) = mpsc::channel();
        let mut rts = self.runtimes.lock().unwrap();
        let rt = rts.entry(id).or_default();
        for item in &rt.lines {
            let _ = tx.send(item.clone());
        }
        if !rt.settled {
            rt.subscribers.push(tx);
        }
        rx
    }

    fn pool_for(&self, client: &str) -> EventPool {
        let size = self.cfg.client_events.unwrap_or(UNLIMITED_EVENTS);
        self.pools
            .lock()
            .unwrap()
            .entry(client.to_string())
            .or_insert_with(|| EventPool::new(size))
            .clone()
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`ServerHandle::drain`].
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait: the accept loop stops, the in-flight
    /// sweep checkpoints its current points and reports `paused`, and all
    /// daemon threads join. Durable state is left ready for a restart.
    pub fn drain(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// True once a shutdown has been requested (e.g. by a signal handler
    /// sharing the flag through [`ServerHandle::shutdown_flag`]).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from another thread/handler without consuming the
    /// handle.
    pub fn request_drain(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
    }
}

/// Start the daemon: recover the journal (re-enqueueing every non-done
/// job), bind the listener, and spawn the accept + scheduler threads.
///
/// # Errors
/// Returns a description when the state directory, journal, or listener
/// cannot be set up. Journal recovery warnings go to stderr; they never
/// block startup.
pub fn start(cfg: ServerConfig) -> Result<ServerHandle, String> {
    let manifests_dir = cfg.state_dir.join("manifests");
    let results_dir = cfg.state_dir.join("results");
    for d in [&cfg.state_dir, &manifests_dir, &results_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    let cache = ResultCache::open(&cfg.state_dir.join("cache"))
        .map_err(|e| format!("cannot open result cache: {e}"))?;
    let journal = JobJournal::open(&cfg.state_dir.join("jobs.jsonl"))?;
    for w in journal.warnings() {
        eprintln!("ccsim-serve: warning: {w}");
    }
    let recovered: VecDeque<u64> = journal
        .records()
        .iter()
        .filter(|r| r.state != JobState::Done)
        .map(|r| r.id)
        .collect();
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set listener nonblocking: {e}"))?;

    let inner = Arc::new(Inner {
        cfg,
        journal: Mutex::new(journal),
        runtimes: Mutex::new(HashMap::new()),
        pools: Mutex::new(HashMap::new()),
        queue: Mutex::new(recovered),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        cache,
        results_dir,
        manifests_dir,
    });

    let accept_inner = Arc::clone(&inner);
    let accept = std::thread::spawn(move || accept_loop(&accept_inner, &listener));
    let sched_inner = Arc::clone(&inner);
    let sched = std::thread::spawn(move || scheduler(&sched_inner));

    Ok(ServerHandle {
        addr,
        inner,
        threads: vec![accept, sched],
    })
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                std::thread::spawn(move || handle_conn(&conn_inner, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Largest request line the daemon accepts, newline included. A client
/// line that reaches the cap without a newline is refused with an error
/// reply rather than buffered without bound.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Read one request line of at most [`MAX_REQUEST_BYTES`], tolerating
/// read timeouts so a shutdown is noticed even while a client dawdles.
/// `None` means the connection closed (or the daemon is shutting down)
/// before a request arrived; `Some(Err(detail))` is a request to refuse.
fn read_request(
    inner: &Inner,
    reader: &mut BufReader<TcpStream>,
) -> Option<Result<String, String>> {
    let mut line = Vec::new();
    loop {
        let room = MAX_REQUEST_BYTES - line.len() as u64;
        match Read::take(&mut *reader, room).read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => break,
            Ok(_) if line.len() as u64 >= MAX_REQUEST_BYTES => {
                return Some(Err(format!(
                    "request line exceeds {MAX_REQUEST_BYTES} bytes"
                )));
            }
            // End of stream: serve a final unterminated line, if any.
            Ok(0) if line.is_empty() => return None,
            Ok(0) => break,
            // Bytes up to the end of stream; the next read confirms it.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some(String::from_utf8(line).map_err(|_| "request line is not UTF-8".to_string()))
}

fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
}

fn error_line(detail: &str) -> String {
    let mut out = String::from("{\"event\":\"error\",\"detail\":");
    json::escape(detail, &mut out);
    out.push('}');
    out
}

fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let line = match read_request(inner, &mut reader) {
        None => return,
        Some(Ok(line)) => line,
        Some(Err(detail)) => {
            send_line(&mut writer, &error_line(&detail));
            return;
        }
    };
    let req = match json::parse(&line) {
        Ok(v) => v,
        Err(e) => {
            send_line(&mut writer, &error_line(&format!("bad request: {e}")));
            return;
        }
    };
    match req.get("op").and_then(Value::as_str) {
        Some("submit") => handle_submit(inner, &mut writer, &req),
        Some("watch") => handle_watch(inner, &mut writer, &req),
        Some("status") => {
            let line = status_line(inner);
            send_line(&mut writer, &line);
        }
        _ => {
            send_line(
                &mut writer,
                &error_line("op must be \"submit\", \"watch\", or \"status\""),
            );
        }
    }
}

fn handle_submit(inner: &Arc<Inner>, writer: &mut TcpStream, req: &Value) {
    if inner.shutdown.load(Ordering::SeqCst) {
        send_line(
            writer,
            "{\"event\":\"rejected\",\"reason\":\"draining\",\"retry_after_ms\":1000}",
        );
        return;
    }
    let spec = match req.get("spec").ok_or("submit needs a \"spec\" object") {
        Ok(v) => match JobSpec::from_value(v) {
            Ok(s) => s,
            Err(e) => {
                send_line(writer, &error_line(&e));
                return;
            }
        },
        Err(e) => {
            send_line(writer, &error_line(e));
            return;
        }
    };
    let hash = match spec.hash() {
        Ok(h) => h,
        Err(e) => {
            send_line(writer, &error_line(&e));
            return;
        }
    };
    // Budget check: a tenant whose pool is spent is refused outright
    // rather than queued for guaranteed holes.
    if inner.pool_for(&spec.client).depleted() {
        send_line(writer, "{\"event\":\"rejected\",\"reason\":\"budget\"}");
        return;
    }
    // Dedupe + shed + journal under one journal lock so two identical
    // concurrent submissions cannot both append.
    let (id, fresh) = {
        let mut journal = inner.journal.lock().unwrap();
        if let Some(active) = journal.find_active(hash) {
            (active.id, false)
        } else {
            let depth = journal.queued_depth();
            if depth >= inner.cfg.max_queue {
                // Deterministic hint proportional to the backlog.
                let line = format!(
                    "{{\"event\":\"rejected\",\"reason\":\"overload\",\"retry_after_ms\":{}}}",
                    (depth as u64) * 250
                );
                drop(journal);
                send_line(writer, &line);
                return;
            }
            // Durability before ack: if this append fails, the client
            // gets an error, not a promise we might forget.
            match journal.append(spec, hash) {
                Ok(id) => (id, true),
                Err(e) => {
                    drop(journal);
                    send_line(writer, &error_line(&e));
                    return;
                }
            }
        }
    };
    if fresh {
        inner.queue.lock().unwrap().push_back(id);
        inner.queue_cv.notify_one();
    }
    let ack = format!(
        "{{\"event\":\"ack\",\"job\":{id},\"hash\":\"{hash:016x}\",\"deduped\":{}}}",
        !fresh
    );
    if !send_line(writer, &ack) {
        return;
    }
    stream_job(inner, writer, id);
}

fn handle_watch(inner: &Arc<Inner>, writer: &mut TcpStream, req: &Value) {
    let Some(hash) = req
        .get("hash")
        .and_then(Value::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
    else {
        send_line(writer, &error_line("watch needs a hex \"hash\""));
        return;
    };
    let rec = {
        let journal = inner.journal.lock().unwrap();
        journal
            .records()
            .iter()
            .rev()
            .find(|r| r.hash == hash)
            .cloned()
    };
    let Some(rec) = rec else {
        send_line(writer, &error_line("no job with that hash"));
        return;
    };
    // A job finished in an earlier daemon life has no runtime; synthesize
    // its terminal line from the durable result.
    let has_runtime = inner.runtimes.lock().unwrap().contains_key(&rec.id);
    if rec.state == JobState::Done && !has_runtime {
        let line = done_line(inner, hash, true, 0, 0, true);
        send_line(writer, &line);
        return;
    }
    stream_job(inner, writer, rec.id);
}

/// Relay a job's event stream until a terminal line, the client hangs
/// up, or (bounded by the poll interval) nothing more will ever come.
fn stream_job(inner: &Inner, writer: &mut TcpStream, id: u64) {
    let rx = inner.subscribe(id);
    loop {
        match rx.recv_timeout(POLL) {
            Ok((line, terminal)) => {
                if !send_line(writer, &line) || terminal {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn status_line(inner: &Inner) -> String {
    let journal = inner.journal.lock().unwrap();
    let mut out = String::from("{\"event\":\"status\",\"jobs\":[");
    for (i, r) in journal.records().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let state = match r.state {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        };
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{{\"job\":{},\"hash\":\"{:016x}\",\"state\":\"{state}\",\"client\":",
                r.id, r.hash
            ),
        );
        json::escape(&r.spec.client, &mut out);
        out.push_str(",\"experiment\":");
        json::escape(&r.spec.experiment, &mut out);
        out.push('}');
    }
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!("],\"queued\":{}}}", journal.queued_depth()),
    );
    out
}

fn done_line(
    inner: &Inner,
    hash: u64,
    cached: bool,
    events_charged: u64,
    failures: usize,
    fully_measured: bool,
) -> String {
    let result = if cached && inner.cache.path(hash).exists() {
        inner.cache.path(hash)
    } else {
        inner.results_dir.join(format!("{hash:016x}.json"))
    };
    let mut out = format!(
        "{{\"event\":\"done\",\"hash\":\"{hash:016x}\",\"cached\":{cached},\
         \"events_charged\":{events_charged},\"failures\":{failures},\
         \"fully_measured\":{fully_measured},\"result\":"
    );
    json::escape(&result.display().to_string(), &mut out);
    out.push('}');
    out
}

fn scheduler(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let held = inner
                    .cfg
                    .hold_jobs
                    .as_ref()
                    .is_some_and(|g| g.load(Ordering::SeqCst));
                if !held {
                    if let Some(id) = queue.pop_front() {
                        break id;
                    }
                }
                let (q, _) = inner.queue_cv.wait_timeout(queue, POLL).unwrap();
                queue = q;
            }
        };
        run_job(inner, id);
    }
}

fn run_job(inner: &Arc<Inner>, id: u64) {
    let rec = { inner.journal.lock().unwrap().get(id).cloned() };
    let Some(rec) = rec else { return };
    if rec.state == JobState::Done {
        return;
    }
    if let Err(e) = inner
        .journal
        .lock()
        .unwrap()
        .set_state(id, JobState::Running)
    {
        inner.broadcast(id, error_line(&e), true);
        return;
    }
    let hash = rec.hash;
    // A repeated what-if is served from disk for free.
    if inner.cache.get(hash).is_some() {
        let line = done_line(inner, hash, true, 0, 0, true);
        finish(inner, id, line);
        return;
    }
    let (spec, mut opts) = match rec.spec.resolve() {
        Ok(x) => x,
        Err(e) => {
            finish(inner, id, error_line(&e));
            return;
        }
    };
    opts.threads = inner.cfg.threads;
    opts.retry = inner.cfg.retry;
    let pool = inner.pool_for(&rec.spec.client);
    let consumed_before = pool.consumed();
    opts.event_pool = Some(pool.clone());

    let hex = format!("{hash:016x}");
    let manifest_path = inner.manifests_dir.join(format!("{hex}.manifest.jsonl"));
    #[cfg(feature = "chaos")]
    let chaos_budget = crate::chaos::die_after_points();
    #[cfg(feature = "chaos")]
    let fresh_points = std::sync::atomic::AtomicU64::new(0);
    let progress = |p: PointProgress<'_>| {
        let line = format!(
            "{{\"event\":\"point\",\"hash\":\"{hex}\",\"series\":{},\"mpl\":{},\"rep\":{},\
             \"replayed\":{},\"ok\":{}}}",
            p.series_ix,
            p.mpl,
            p.rep,
            p.replayed,
            p.report.is_some()
        );
        inner.broadcast(id, line, false);
        #[cfg(feature = "chaos")]
        if let Some(budget) = chaos_budget {
            if !p.replayed {
                crate::chaos::count_point(&fresh_points, budget);
            }
        }
    };
    let ctl = SweepControl {
        checkpoint: Some(manifest_path.as_path()),
        resume: true,
        interrupt: Some(&inner.shutdown),
        progress: Some(&progress),
        ..SweepControl::default()
    };
    match run_experiment_supervised(&spec, &opts, &ctl) {
        Err(e) => {
            finish(inner, id, error_line(&e.to_string()));
        }
        Ok(result) => {
            if result.interrupted {
                // Drain: completed points are in the checkpoint manifest,
                // the journal still says running, and a restart resumes.
                inner.broadcast(
                    id,
                    format!("{{\"event\":\"paused\",\"hash\":\"{hex}\"}}"),
                    true,
                );
                return;
            }
            for w in &result.warnings {
                let mut line = format!("{{\"event\":\"warning\",\"hash\":\"{hex}\",\"detail\":");
                json::escape(w, &mut line);
                line.push('}');
                inner.broadcast(id, line, false);
            }
            let text = json::to_json(&result);
            let result_path = inner.results_dir.join(format!("{hex}.json"));
            if let Err(e) = write_atomic(&result_path, text.as_bytes()) {
                finish(
                    inner,
                    id,
                    error_line(&format!("cannot archive result: {e}")),
                );
                return;
            }
            // Only trustworthy results become cache hits: fully measured
            // (no holes, no degraded fills, not interrupted) and clean
            // under the auditor.
            let trusted = result.fully_measured() && result.audit_failures.is_empty();
            if trusted {
                if let Err(e) = inner.cache.put(hash, &text) {
                    eprintln!("ccsim-serve: warning: cache store failed for {hex}: {e}");
                }
            }
            let charged = pool.consumed().saturating_sub(consumed_before);
            let line = done_line(inner, hash, false, charged, result.failures.len(), trusted);
            finish(inner, id, line);
        }
    }
}

fn finish(inner: &Inner, id: u64, terminal_line: String) {
    if let Err(e) = inner.journal.lock().unwrap().set_state(id, JobState::Done) {
        eprintln!("ccsim-serve: warning: cannot journal completion of job {id}: {e}");
    }
    inner.broadcast(id, terminal_line, true);
}
