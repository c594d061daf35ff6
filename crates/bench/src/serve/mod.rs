//! `copernicus-bench serve` — the long-running characterization daemon.
//!
//! A hand-rolled HTTP/1.1 service over `std::net` (the workspace is
//! offline/vendored — no async runtime) that answers "characterize this
//! matrix" requests with the same campaign machinery the offline figures
//! use. Robustness is the point, not an afterthought:
//!
//! * **Backpressure** — a bounded admission queue ([`queue`]); a full
//!   queue answers `429` with `Retry-After` immediately instead of letting
//!   admitted work starve. Queue-depth watermarks surface in `/stats`.
//! * **Deadlines** — each request's `timeout_ms` arms a
//!   [`CancelToken`](copernicus_telemetry::CancelToken) child at
//!   *admission* (queue wait counts), threaded through
//!   `CampaignPolicy::cancel` into the unit loop and the pipeline's
//!   partition loop. Expiry answers `504`.
//! * **Fault isolation** — worker panics are confined per cell by the
//!   campaign runner's `catch_unwind`; protocol garbage is confined per
//!   connection by typed [`protocol`] errors.
//! * **Slow clients** — read/write socket timeouts disconnect peers that
//!   stall mid-request or cannot drain a response.
//! * **Graceful drain** ([`drain`]) — SIGTERM/SIGINT (or
//!   `POST /admin/drain`) stops admission (`/readyz` flips to `503`,
//!   `POST /characterize` answers `503`), finishes every admitted request,
//!   writes every reply, then exits `0`. Nothing accepted is ever dropped.
//! * **Durability** — with `--spool DIR`, every accepted request is
//!   journaled (atomic write) before it is answered, results and per-job
//!   checkpoints land next to it, and on startup unfinished journal
//!   entries are re-enqueued and resumed from their checkpoints. A
//!   `kill -9` mid-job therefore loses nothing: after restart the request
//!   is either answered (`GET /requests/<id>` → `200`) or re-running.
//!
//! Endpoints: `POST /characterize`, `GET /healthz`, `GET /readyz`,
//! `GET /stats`, `GET /requests/<id>`, `POST /admin/drain`.

pub mod drain;
pub mod protocol;
pub mod queue;
pub mod scheduler;

use protocol::{Limits, ProtocolError, Request, Response};
use queue::{BoundedQueue, PushError};
use scheduler::{Job, JobOutcome, RequestSpec};
use serde::Value;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Service counters exported by `GET /stats`. All monotonic except the
/// queue gauges read live from the queue itself.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Requests shed with `429` (queue full).
    pub rejected_busy: AtomicU64,
    /// Requests refused with `503` (draining).
    pub rejected_draining: AtomicU64,
    /// Jobs answered `200`.
    pub completed: AtomicU64,
    /// Jobs answered `504` (deadline expired).
    pub timed_out: AtomicU64,
    /// Jobs answered any other error status.
    pub failed: AtomicU64,
    /// Connections dropped for protocol violations or socket errors.
    pub protocol_errors: AtomicU64,
}

/// Everything the connection threads and workers share.
pub struct ServiceState {
    /// The bounded admission queue.
    pub queue: BoundedQueue<Job>,
    /// Monotonic service counters.
    pub stats: ServiceStats,
    /// Jobs currently executing on a worker.
    pub active_jobs: AtomicUsize,
    /// Responses admitted but not yet written back to their client.
    pub pending_replies: AtomicUsize,
    /// Flipped once by [`ServiceState::begin_drain`]; `/readyz` and
    /// admission key off this.
    draining: AtomicBool,
    /// Request journal/result/checkpoint root (`--spool`).
    pub spool: Option<PathBuf>,
    /// Parser limits.
    pub limits: Limits,
    /// Socket read/write timeout.
    pub socket_timeout: Duration,
    /// Server-assigned request id counter.
    next_id: AtomicU64,
}

impl ServiceState {
    fn new(args: &ServeArgs) -> Self {
        ServiceState {
            queue: BoundedQueue::new(args.queue_capacity),
            stats: ServiceStats::default(),
            active_jobs: AtomicUsize::new(0),
            pending_replies: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            spool: args.spool.clone(),
            limits: Limits {
                max_body: args.max_body_bytes,
                ..Limits::default()
            },
            socket_timeout: Duration::from_millis(args.socket_timeout_ms),
            next_id: AtomicU64::new(0),
        }
    }

    /// A state with defaults and no spool, for unit tests.
    #[cfg(test)]
    pub(crate) fn for_tests() -> Arc<Self> {
        Arc::new(ServiceState::new(&ServeArgs::default()))
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Closes admission: from the moment this returns, `/readyz` answers
    /// `503` and new work is refused. Admitted work still runs to
    /// completion. Idempotent.
    pub(crate) fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.queue.close();
            eprintln!("serve: draining (admission closed)");
        }
    }

    /// The spool directory for a request id, created on demand. `None`
    /// without `--spool`.
    pub fn spool_dir(&self, id: &str) -> Option<PathBuf> {
        let dir = self.spool.as_ref()?.join(id);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("serve: cannot create spool dir {}: {e}", dir.display());
            return None;
        }
        Some(dir)
    }

    fn fresh_id(&self) -> String {
        format!(
            "srv-{}-{}",
            std::process::id(),
            self.next_id.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Renders `GET /stats`.
    fn stats_json(&self) -> String {
        let s = &self.stats;
        let doc = Value::Map(vec![
            ("accepted".to_string(), uint(&s.accepted)),
            ("rejected_busy".to_string(), uint(&s.rejected_busy)),
            ("rejected_draining".to_string(), uint(&s.rejected_draining)),
            ("completed".to_string(), uint(&s.completed)),
            ("timed_out".to_string(), uint(&s.timed_out)),
            ("failed".to_string(), uint(&s.failed)),
            ("protocol_errors".to_string(), uint(&s.protocol_errors)),
            (
                "queue_depth".to_string(),
                Value::UInt(self.queue.len() as u64),
            ),
            (
                "queue_capacity".to_string(),
                Value::UInt(self.queue.capacity() as u64),
            ),
            (
                "queue_high_watermark".to_string(),
                Value::UInt(self.queue.high_watermark() as u64),
            ),
            (
                "active_jobs".to_string(),
                Value::UInt(self.active_jobs.load(Ordering::SeqCst) as u64),
            ),
            ("draining".to_string(), Value::Bool(self.draining())),
        ]);
        serde::json::to_string(&doc)
    }
}

fn uint(a: &AtomicU64) -> Value {
    Value::UInt(a.load(Ordering::Relaxed))
}

/// Parsed `serve` flags.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Listening port (`0` = ephemeral; the bound port is printed).
    pub port: u16,
    /// Campaign worker threads.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Request journal/result directory; enables durability + recovery.
    pub spool: Option<PathBuf>,
    /// Socket read/write timeout in milliseconds.
    pub socket_timeout_ms: u64,
    /// Maximum accepted request body size.
    pub max_body_bytes: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            port: 0,
            workers: 2,
            queue_capacity: 16,
            spool: None,
            socket_timeout_ms: 5000,
            max_body_bytes: Limits::default().max_body,
        }
    }
}

impl ServeArgs {
    /// Parses `serve` arguments.
    ///
    /// # Errors
    ///
    /// A usage string on unknown flags or malformed values.
    pub fn parse(args: Vec<String>) -> Result<ServeArgs, String> {
        let mut parsed = ServeArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--port" => {
                    let v = it.next().ok_or("--port needs a value")?;
                    parsed.port = v.parse().map_err(|e| format!("bad --port {v:?}: {e}"))?;
                }
                "--workers" => {
                    let v = it.next().ok_or("--workers needs a value")?;
                    parsed.workers = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad --workers {v:?}: {e}"))?
                        .clamp(1, 64);
                }
                "--queue" => {
                    let v = it.next().ok_or("--queue needs a value")?;
                    parsed.queue_capacity = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad --queue {v:?}: {e}"))?
                        .max(1);
                }
                "--spool" => {
                    let v = it.next().ok_or("--spool needs a directory")?;
                    parsed.spool = Some(PathBuf::from(v));
                }
                "--socket-timeout-ms" => {
                    let v = it.next().ok_or("--socket-timeout-ms needs a value")?;
                    parsed.socket_timeout_ms = v
                        .parse::<u64>()
                        .map_err(|e| format!("bad --socket-timeout-ms {v:?}: {e}"))?
                        .max(100);
                }
                "--max-body-bytes" => {
                    let v = it.next().ok_or("--max-body-bytes needs a value")?;
                    parsed.max_body_bytes = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad --max-body-bytes {v:?}: {e}"))?
                        .max(64);
                }
                other => {
                    return Err(format!(
                        "unknown serve flag {other:?}\nusage: serve [--port N] [--workers N] [--queue N] [--spool DIR] [--socket-timeout-ms N] [--max-body-bytes N]"
                    ));
                }
            }
        }
        Ok(parsed)
    }
}

/// The `serve` subcommand: binds, recovers the spool, serves until a drain
/// completes. Returns the process exit code.
pub fn serve(args: Vec<String>) -> i32 {
    let args = match ServeArgs::parse(args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    drain::install_signal_handlers();
    let state = Arc::new(ServiceState::new(&args));

    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind 127.0.0.1:{}: {e}", args.port);
            return 1;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: cannot read bound address: {e}");
            return 1;
        }
    };
    if listener.set_nonblocking(true).is_err() {
        eprintln!("serve: cannot switch the listener to non-blocking accept");
        return 1;
    }

    let mut workers = Vec::new();
    for _ in 0..args.workers {
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || scheduler::worker_loop(state)));
    }

    let recovered = recover_spool(&state);
    if recovered > 0 {
        eprintln!("serve: re-enqueued {recovered} unfinished spooled request(s)");
    }

    // The line storm/tests parse to find the ephemeral port. Flushed so a
    // piped parent sees it before the first request.
    println!("serving on http://{addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // True after one poll tick that found the drain complete with no
    // connection accepted since: exit needs two such ticks in a row, so a
    // connection accepted just before the end still has a full tick to be
    // answered (e.g. a `/readyz` probe sent right after the drain reply).
    let mut quiet_tick = false;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                quiet_tick = false;
                let state = Arc::clone(&state);
                // Detached: connection lifetime is bounded by the socket
                // timeouts, and the drain barrier below waits on admitted
                // work (pending_replies), not on idle keep-alive peers.
                std::thread::spawn(move || handle_connection(stream, &state));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if drain::shutdown_requested() {
                    state.begin_drain();
                }
                let drained = state.draining()
                    && state.queue.is_empty()
                    && state.active_jobs.load(Ordering::SeqCst) == 0
                    && state.pending_replies.load(Ordering::SeqCst) == 0;
                if drained && quiet_tick {
                    break;
                }
                quiet_tick = drained;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    for w in workers {
        let _ = w.join();
    }
    eprintln!("serve: drained cleanly");
    0
}

/// Re-enqueues every spooled request that was journaled but never
/// answered, resuming its campaign from the per-job checkpoint. Called
/// before the accept loop opens, under the same admission queue.
fn recover_spool(state: &Arc<ServiceState>) -> usize {
    let Some(root) = state.spool.clone() else {
        return 0;
    };
    let Ok(entries) = std::fs::read_dir(&root) else {
        return 0;
    };
    let mut ids: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("request.json").exists())
        .filter(|e| !e.path().join("result.json").exists())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    // Deterministic recovery order, independent of directory iteration.
    ids.sort();
    let mut recovered = 0;
    for id in ids {
        let path = root.join(&id).join("request.json");
        let Ok(body) = std::fs::read(&path) else {
            continue;
        };
        match RequestSpec::parse(&body) {
            Ok(spec) => {
                // Recovery jobs bypass the deadline: the client's timeout
                // budget is unknowable after a restart, and durability
                // promises the work completes.
                let job = scheduler::recovery_job(
                    id,
                    RequestSpec {
                        timeout_ms: None,
                        ..spec
                    },
                );
                if push_blocking(state, job) {
                    recovered += 1;
                }
            }
            Err(e) => eprintln!("serve: spooled request {} is invalid: {e}", path.display()),
        }
    }
    recovered
}

/// Enqueues a recovery job, waiting for space if the journal holds more
/// requests than the queue (workers are already draining it).
fn push_blocking(state: &ServiceState, mut job: Job) -> bool {
    loop {
        match state.queue.try_push(job) {
            Ok(()) => return true,
            Err((PushError::Closed, _)) => return false,
            Err((PushError::Full, j)) => {
                job = j;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Serves one connection: keep-alive request loop with typed protocol
/// errors and socket timeouts for slow peers.
fn handle_connection(stream: TcpStream, state: &Arc<ServiceState>) {
    let _ = stream.set_read_timeout(Some(state.socket_timeout));
    let _ = stream.set_write_timeout(Some(state.socket_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match protocol::parse_request(&mut reader, &state.limits) {
            Ok(req) => {
                let close = req.wants_close() || state.draining();
                let response = route(&req, state);
                if response.write_to(&mut writer, close).is_err() {
                    // Slow (or gone) client: the write timeout fired.
                    state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if close {
                    break;
                }
            }
            Err(ProtocolError::ConnectionClosed) => break,
            Err(e) => {
                state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if let Some((status, reason)) = e.status() {
                    let body = error_body(&e.to_string());
                    let _ = Response::json(status, reason, body).write_to(&mut writer, true);
                }
                break;
            }
        }
    }
}

fn error_body(message: &str) -> String {
    serde::json::to_string(&Value::Map(vec![(
        "error".to_string(),
        Value::Str(message.to_string()),
    )]))
}

fn simple_body(key: &str, value: &str) -> String {
    serde::json::to_string(&Value::Map(vec![(
        key.to_string(),
        Value::Str(value.to_string()),
    )]))
}

/// Routes one parsed request to its endpoint.
fn route(req: &Request, state: &Arc<ServiceState>) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => Response::json(200, "OK", simple_body("status", "ok")),
        ("GET", "/readyz") => {
            if state.draining() {
                Response::json(
                    503,
                    "Service Unavailable",
                    simple_body("status", "draining"),
                )
            } else {
                Response::json(200, "OK", simple_body("status", "ready"))
            }
        }
        ("GET", "/stats") => Response::json(200, "OK", state.stats_json()),
        ("GET", target) if target.starts_with("/requests/") => {
            lookup_request(state, &target["/requests/".len()..])
        }
        ("POST", "/admin/drain") => {
            state.begin_drain();
            Response::json(200, "OK", simple_body("status", "draining"))
        }
        ("POST", "/characterize") => admit(req, state),
        (_, _) => Response::json(404, "Not Found", error_body("no such endpoint")),
    }
}

/// `GET /requests/<id>`: answered → `200` with the stored result body,
/// journaled but unfinished → `202`, unknown → `404`.
fn lookup_request(state: &ServiceState, id: &str) -> Response {
    if scheduler::validate_id(id).is_err() {
        return Response::json(400, "Bad Request", error_body("invalid request id"));
    }
    let Some(root) = &state.spool else {
        return Response::json(404, "Not Found", error_body("request lookup needs --spool"));
    };
    let dir = root.join(id);
    match std::fs::read_to_string(dir.join("result.json")) {
        Ok(text) => match serde::json::from_str::<Value>(&text) {
            Ok(doc) => {
                let body = doc
                    .get("body")
                    .and_then(Value::as_str)
                    .unwrap_or("{}")
                    .to_string();
                Response::json(200, "OK", body)
            }
            Err(_) => Response::json(
                500,
                "Internal Server Error",
                error_body("stored result is unreadable"),
            ),
        },
        Err(_) if dir.join("request.json").exists() => {
            Response::json(202, "Accepted", simple_body("status", "pending"))
        }
        Err(_) => Response::json(404, "Not Found", error_body("unknown request id")),
    }
}

/// `POST /characterize`: parse → journal → admit → wait → answer.
fn admit(req: &Request, state: &Arc<ServiceState>) -> Response {
    if state.draining() {
        state
            .stats
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        return Response::json(
            503,
            "Service Unavailable",
            error_body("draining: not accepting new work"),
        )
        .with_header("Retry-After", "1");
    }
    let spec = match RequestSpec::parse(&req.body) {
        Ok(spec) => spec,
        // Framing/encoding problems are 400; a well-formed body with
        // invalid content (unknown field, bad hardware override) is 422.
        Err(e) => {
            let (status, reason) = e.status().unwrap_or((400, "Bad Request"));
            return Response::json(status, reason, error_body(&e.to_string()));
        }
    };
    let id = spec.id.clone().unwrap_or_else(|| state.fresh_id());

    // Idempotency: a replayed id that already has a durable answer gets it
    // back verbatim instead of re-running the campaign.
    if let Some(root) = &state.spool {
        if let Ok(text) = std::fs::read_to_string(root.join(&id).join("result.json")) {
            if let Ok(doc) = serde::json::from_str::<Value>(&text) {
                let status = doc.get("status").and_then(Value::as_u64).unwrap_or(200) as u16;
                let body = doc
                    .get("body")
                    .and_then(Value::as_str)
                    .unwrap_or("{}")
                    .to_string();
                return Response::json(status, reason_for(status), body);
            }
        }
    }

    // Journal before admission: once the server has decided to accept, a
    // kill at any later point must leave the request recoverable. A 429
    // below removes the journal again — shed work is the client's to
    // retry.
    let journaled = match state.spool_dir(&id) {
        Some(dir) => {
            let path = dir.join("request.json");
            if let Err(e) = copernicus_telemetry::atomic_write(&path, &req.body) {
                eprintln!("serve: cannot journal {}: {e}", path.display());
                return Response::json(
                    500,
                    "Internal Server Error",
                    error_body("cannot journal the request"),
                );
            }
            Some(dir)
        }
        None => None,
    };

    let cancel = scheduler::deadline_token(&spec);
    let (reply_tx, reply_rx) = mpsc::channel::<JobOutcome>();
    let job = Job {
        id: id.clone(),
        spec,
        reply: Some(reply_tx),
        cancel,
    };
    match state.queue.try_push(job) {
        Ok(()) => {}
        Err((kind, _job)) => {
            if let Some(dir) = journaled {
                let _ = std::fs::remove_file(dir.join("request.json"));
            }
            return match kind {
                PushError::Full => {
                    state.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    Response::json(
                        429,
                        "Too Many Requests",
                        error_body("admission queue is full"),
                    )
                    .with_header("Retry-After", "1")
                }
                PushError::Closed => {
                    state
                        .stats
                        .rejected_draining
                        .fetch_add(1, Ordering::Relaxed);
                    Response::json(
                        503,
                        "Service Unavailable",
                        error_body("draining: not accepting new work"),
                    )
                    .with_header("Retry-After", "1")
                }
            };
        }
    }
    state.stats.accepted.fetch_add(1, Ordering::Relaxed);
    state.pending_replies.fetch_add(1, Ordering::SeqCst);
    // Blocks until the worker answers. The worker always sends (or drops
    // on a scheduler bug, surfacing as 500 to exactly this client); the
    // per-request deadline bounds how long that takes.
    let response = match reply_rx.recv() {
        Ok(outcome) => Response::json(outcome.status, outcome.reason, outcome.body)
            .with_header("X-Request-Id", id),
        Err(_) => Response::json(
            500,
            "Internal Server Error",
            error_body("worker dropped the request"),
        ),
    };
    state.pending_replies.fetch_sub(1, Ordering::SeqCst);
    response
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        422 => "Unprocessable Entity",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_args_parse_with_defaults_and_overrides() {
        let d = ServeArgs::parse(vec![]).expect("defaults");
        assert_eq!(d.port, 0);
        assert_eq!(d.workers, 2);
        assert!(d.spool.is_none());

        let a = ServeArgs::parse(
            [
                "--port",
                "8123",
                "--workers",
                "3",
                "--queue",
                "4",
                "--spool",
                "/tmp/sp",
                "--socket-timeout-ms",
                "750",
                "--max-body-bytes",
                "4096",
            ]
            .map(String::from)
            .to_vec(),
        )
        .expect("parse");
        assert_eq!(a.port, 8123);
        assert_eq!(a.workers, 3);
        assert_eq!(a.queue_capacity, 4);
        assert_eq!(a.spool.as_deref(), Some(std::path::Path::new("/tmp/sp")));
        assert_eq!(a.socket_timeout_ms, 750);
        assert_eq!(a.max_body_bytes, 4096);

        assert!(ServeArgs::parse(vec!["--bogus".to_string()]).is_err());
        assert!(ServeArgs::parse(vec!["--port".to_string()]).is_err());
    }

    #[test]
    fn stats_json_is_well_formed() {
        let state = ServiceState::for_tests();
        state.stats.accepted.store(3, Ordering::Relaxed);
        let doc: Value = serde::json::from_str(&state.stats_json()).expect("stats parse");
        assert_eq!(doc.get("accepted").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("queue_depth").and_then(Value::as_u64), Some(0));
        assert!(doc.get("draining").is_some());
    }

    #[test]
    fn drain_closes_admission_before_it_is_acknowledged() {
        let state = ServiceState::for_tests();
        let request = |method: &str, target: &str, body: &str| Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let ack = route(&request("POST", "/admin/drain", ""), &state);
        assert_eq!(ack.status, 200);
        // No accept-loop tick in between: the acknowledgement itself
        // guarantees admission is already closed.
        assert_eq!(route(&request("GET", "/readyz", ""), &state).status, 503);
        let spec = r#"{"id":"late-1","workload":{"kind":"random","n":16,"density":0.1},"formats":["csr"],"partition_sizes":[8],"seed":1}"#;
        RequestSpec::parse(spec.as_bytes()).expect("the refused request is valid");
        let refused = route(&request("POST", "/characterize", spec), &state);
        assert_eq!(refused.status, 503);
        assert_eq!(state.stats.rejected_draining.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fresh_ids_are_unique_and_valid() {
        let state = ServiceState::for_tests();
        let a = state.fresh_id();
        let b = state.fresh_id();
        assert_ne!(a, b);
        scheduler::validate_id(&a).expect("generated ids validate");
    }
}
