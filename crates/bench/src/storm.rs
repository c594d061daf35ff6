//! `copernicus-bench storm` — the load generator for the serve daemon.
//!
//! Hammers `POST /characterize` from N concurrent keep-alive clients at
//! each requested concurrency level, records per-request latency, and
//! writes p50/p99 + throughput into `BENCH_serve.json` (the serve
//! counterpart of the trajectory points the `perf` harness records).
//!
//! Without `--addr` the storm spawns its own daemon by re-executing itself
//! as `copernicus-bench serve`, parses the bound port off its stdout, and
//! drains it afterwards.
//!
//! `--chaos` turns the storm into a crash-recovery audit: the daemon runs
//! with a spool, gets `SIGKILL`ed mid-storm, is restarted on the same
//! spool, is fed garbage and oversized requests, and is then drained with
//! SIGTERM. The invariant checked is the service's durability contract —
//! **zero accepted-but-lost requests**: after recovery every request id
//! is either answered (`200`) or was never accepted (`404`); nothing may
//! stay pending forever, and no id that was answered before the kill may
//! lose its answer.

use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Parsed `storm` flags.
#[derive(Debug, Clone)]
pub struct StormArgs {
    /// Target daemon (`host:port`); spawn our own when absent.
    pub addr: Option<String>,
    /// Concurrency levels to sweep (clients per level).
    pub levels: Vec<usize>,
    /// Requests each client sends per level.
    pub requests: usize,
    /// Where the benchmark JSON lands.
    pub out: PathBuf,
    /// Run the kill/restart/garbage chaos audit instead of a plain sweep.
    pub chaos: bool,
    /// Spool directory for the chaos daemon (temp default).
    pub spool: Option<PathBuf>,
}

impl Default for StormArgs {
    fn default() -> Self {
        StormArgs {
            addr: None,
            levels: vec![2, 8],
            requests: 8,
            out: PathBuf::from("BENCH_serve.json"),
            chaos: false,
            spool: None,
        }
    }
}

impl StormArgs {
    /// Parses `storm` arguments.
    ///
    /// # Errors
    ///
    /// A usage string on unknown flags or malformed values.
    pub fn parse(args: Vec<String>) -> Result<StormArgs, String> {
        let mut parsed = StormArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--addr" => parsed.addr = Some(it.next().ok_or("--addr needs host:port")?),
                "--levels" => {
                    let v = it.next().ok_or("--levels needs a comma list")?;
                    parsed.levels = v
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .map_err(|e| format!("bad level {s:?}: {e}"))
                                .and_then(|n| {
                                    if (1..=64).contains(&n) {
                                        Ok(n)
                                    } else {
                                        Err(format!("level {n} out of 1..=64"))
                                    }
                                })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if parsed.levels.is_empty() {
                        return Err("--levels must name at least one level".to_string());
                    }
                }
                "--requests" => {
                    let v = it.next().ok_or("--requests needs a value")?;
                    parsed.requests = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad --requests {v:?}: {e}"))?
                        .clamp(1, 10_000);
                }
                "--out" => parsed.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
                "--chaos" => parsed.chaos = true,
                "--spool" => {
                    parsed.spool = Some(PathBuf::from(it.next().ok_or("--spool needs a dir")?));
                }
                other => {
                    return Err(format!(
                        "unknown storm flag {other:?}\nusage: storm [--addr HOST:PORT] [--levels N,M] [--requests N] [--out PATH] [--chaos] [--spool DIR]"
                    ));
                }
            }
        }
        Ok(parsed)
    }
}

/// The `storm` subcommand. Returns the process exit code.
pub fn storm(args: Vec<String>) -> i32 {
    let args = match StormArgs::parse(args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if args.chaos {
        return chaos(&args);
    }

    // Spawn a daemon unless the caller pointed us at one.
    let mut spawned: Option<ServerHandle> = None;
    let addr = match &args.addr {
        Some(a) => a.clone(),
        None => match ServerHandle::spawn(&[]) {
            Ok(handle) => {
                let addr = handle.addr.clone();
                spawned = Some(handle);
                addr
            }
            Err(e) => {
                eprintln!("storm: cannot spawn a daemon: {e}");
                return 1;
            }
        },
    };

    let mut levels = Vec::new();
    for &clients in &args.levels {
        match run_level(&addr, clients, args.requests) {
            Ok(level) => {
                eprintln!(
                    "storm: {clients} client(s) x {} req: ok={} shed={} p50={:.1}ms p99={:.1}ms {:.1} req/s",
                    args.requests, level.ok, level.rejected, level.p50_ms, level.p99_ms, level.req_per_s
                );
                levels.push(level);
            }
            Err(e) => {
                eprintln!("storm: level {clients} failed: {e}");
                if let Some(handle) = spawned.take() {
                    handle.drain_and_wait();
                }
                return 1;
            }
        }
    }
    if let Some(handle) = spawned.take() {
        if !handle.drain_and_wait() {
            eprintln!("storm: daemon did not drain cleanly");
            return 1;
        }
    }

    let doc = bench_doc(&levels, None);
    if let Err(e) =
        copernicus_telemetry::atomic_write(&args.out, serde::json::to_string_pretty(&doc))
    {
        eprintln!("storm: cannot write {}: {e}", args.out.display());
        return 1;
    }
    println!("storm: wrote {}", args.out.display());
    0
}

/// One concurrency level's results.
struct LevelResult {
    clients: usize,
    requests: usize,
    ok: u64,
    rejected: u64,
    errors: u64,
    p50_ms: f64,
    p99_ms: f64,
    req_per_s: f64,
}

/// Runs one concurrency level: `clients` threads, each sending
/// `requests` characterize calls over a keep-alive connection.
fn run_level(addr: &str, clients: usize, requests: usize) -> Result<LevelResult, String> {
    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..clients {
        let addr = addr.to_string();
        handles.push(std::thread::spawn(
            move || -> Result<ClientTally, String> {
                let mut conn = HttpClient::connect(&addr)?;
                let mut tally = ClientTally::default();
                for req in 0..requests {
                    let body = small_spec(client as u64 * 10_000 + req as u64);
                    let t0 = Instant::now();
                    // A keep-alive connection the server closed (drain, slow
                    // verdict) gets one reconnect before counting an error.
                    let outcome = conn.post("/characterize", &body).or_else(|_| {
                        conn = HttpClient::connect(&addr)?;
                        conn.post("/characterize", &body)
                    });
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match outcome {
                        Ok((200, _)) => {
                            tally.ok += 1;
                            tally.latencies_ms.push(ms);
                        }
                        Ok((429 | 503, _)) => tally.rejected += 1,
                        Ok((status, resp)) => {
                            return Err(format!("unexpected status {status}: {resp}"));
                        }
                        Err(e) => {
                            tally.errors += 1;
                            eprintln!("storm: request failed: {e}");
                        }
                    }
                }
                Ok(tally)
            },
        ));
    }
    let mut all = ClientTally::default();
    for h in handles {
        let tally = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        all.ok += tally.ok;
        all.rejected += tally.rejected;
        all.errors += tally.errors;
        all.latencies_ms.extend(tally.latencies_ms);
    }
    if all.ok == 0 {
        return Err("no request succeeded at this level".to_string());
    }
    let elapsed = started.elapsed().as_secs_f64();
    Ok(LevelResult {
        clients,
        requests,
        ok: all.ok,
        rejected: all.rejected,
        errors: all.errors,
        p50_ms: percentile(&mut all.latencies_ms, 50.0),
        p99_ms: percentile(&mut all.latencies_ms, 99.0),
        req_per_s: all.ok as f64 / elapsed.max(1e-9),
    })
}

#[derive(Default)]
struct ClientTally {
    ok: u64,
    rejected: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
}

/// Nearest-rank percentile; sorts in place.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// A tiny characterization body — big enough to exercise the campaign
/// path, small enough that a level finishes in seconds.
fn small_spec(seed: u64) -> String {
    let doc = Value::Map(vec![
        (
            "workload".to_string(),
            Value::Map(vec![
                ("kind".to_string(), Value::Str("random".to_string())),
                ("n".to_string(), Value::UInt(24)),
                ("density".to_string(), Value::Float(0.1)),
            ]),
        ),
        ("seed".to_string(), Value::UInt(seed)),
    ]);
    serde::json::to_string(&doc)
}

fn bench_doc(levels: &[LevelResult], chaos: Option<&ChaosSummary>) -> Value {
    let mut fields = vec![
        (
            "schema".to_string(),
            Value::Str("bench_serve_v1".to_string()),
        ),
        (
            "levels".to_string(),
            Value::Seq(
                levels
                    .iter()
                    .map(|l| {
                        Value::Map(vec![
                            ("clients".to_string(), Value::UInt(l.clients as u64)),
                            (
                                "requests_per_client".to_string(),
                                Value::UInt(l.requests as u64),
                            ),
                            ("ok".to_string(), Value::UInt(l.ok)),
                            ("rejected".to_string(), Value::UInt(l.rejected)),
                            ("errors".to_string(), Value::UInt(l.errors)),
                            ("p50_ms".to_string(), Value::Float(l.p50_ms)),
                            ("p99_ms".to_string(), Value::Float(l.p99_ms)),
                            ("req_per_s".to_string(), Value::Float(l.req_per_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(c) = chaos {
        fields.push((
            "chaos".to_string(),
            Value::Map(vec![
                ("sent".to_string(), Value::UInt(c.sent)),
                (
                    "answered_pre_kill".to_string(),
                    Value::UInt(c.answered_pre_kill),
                ),
                ("answered_total".to_string(), Value::UInt(c.answered_total)),
                ("never_accepted".to_string(), Value::UInt(c.never_accepted)),
                ("lost".to_string(), Value::UInt(c.lost)),
                (
                    "garbage_rejected".to_string(),
                    Value::Bool(c.garbage_rejected),
                ),
                ("clean_exit".to_string(), Value::Bool(c.clean_exit)),
            ]),
        ));
    }
    Value::Map(fields)
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client over std::net
// ---------------------------------------------------------------------------

/// A keep-alive HTTP client for one connection.
struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    fn connect(addr: &str) -> Result<HttpClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(HttpClient { stream, reader })
    }

    fn post(&mut self, target: &str, body: &str) -> Result<(u16, String), String> {
        self.request("POST", target, body.as_bytes())
    }

    fn get(&mut self, target: &str) -> Result<(u16, String), String> {
        self.request("GET", target, b"")
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, String), String> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: storm\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.reader)
    }
}

/// Reads one HTTP response: status line, headers, `Content-Length` body.
fn read_response<R: BufRead>(reader: &mut R) -> Result<(u16, String), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status: {e}"))?;
    if line.is_empty() {
        return Err("connection closed before a status line".to_string());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

// ---------------------------------------------------------------------------
// Daemon child management
// ---------------------------------------------------------------------------

/// A daemon child: this executable re-run as `copernicus-bench serve`.
struct ServerHandle {
    child: Child,
    addr: String,
}

impl ServerHandle {
    /// Spawns `serve` on an ephemeral port and parses the bound address
    /// off its stdout banner.
    fn spawn(extra_args: &[&str]) -> Result<ServerHandle, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader
            .read_line(&mut banner)
            .map_err(|e| format!("read banner: {e}"))?;
        // "serving on http://127.0.0.1:PORT"
        let addr = banner
            .trim()
            .rsplit("http://")
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected banner {banner:?}"))?
            .to_string();
        // Keep the pipe draining so the child never blocks on stdout.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerHandle { child, addr })
    }

    /// Requests a drain over HTTP and waits for a clean exit.
    fn drain_and_wait(mut self) -> bool {
        if let Ok(mut conn) = HttpClient::connect(&self.addr) {
            let _ = conn.post("/admin/drain", "");
        }
        wait_for_exit(&mut self.child, Duration::from_secs(60))
            .map(|code| code == 0)
            .unwrap_or(false)
    }

    /// SIGKILLs the daemon (the chaos crash).
    fn kill_hard(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends SIGTERM (unix) so the daemon drains via its signal handler.
    #[cfg(unix)]
    fn sigterm(&self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
    }

    #[cfg(not(unix))]
    fn sigterm(&self) {
        if let Ok(mut conn) = HttpClient::connect(&self.addr) {
            let _ = conn.post("/admin/drain", "");
        }
    }
}

/// Polls a child for exit without threads or signals.
fn wait_for_exit(child: &mut Child, timeout: Duration) -> Option<i32> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.code(),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

struct ChaosSummary {
    sent: u64,
    answered_pre_kill: u64,
    answered_total: u64,
    never_accepted: u64,
    lost: u64,
    garbage_rejected: bool,
    clean_exit: bool,
}

/// The chaos audit: kill -9 mid-storm, restart on the same spool, feed the
/// parser garbage, drain with SIGTERM — and prove zero accepted-but-lost
/// requests.
fn chaos(args: &StormArgs) -> i32 {
    let spool = args.spool.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("copernicus-storm-chaos-{}", std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&spool) {
        eprintln!("storm: cannot create spool {}: {e}", spool.display());
        return 1;
    }
    let spool_str = spool.display().to_string();
    let serve_args = [
        "--spool",
        spool_str.as_str(),
        "--workers",
        "2",
        "--queue",
        "32",
    ];

    // Phase 1: start, fire requests with known ids, kill -9 mid-flight.
    let mut server = match ServerHandle::spawn(&serve_args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("storm: cannot spawn chaos daemon: {e}");
            return 1;
        }
    };
    let total = (args.requests.max(6)) as u64;
    eprintln!(
        "storm[chaos]: phase 1 — {total} requests against {}",
        server.addr
    );
    // answered[id] = client saw a 200 before the kill.
    let mut answered: BTreeMap<String, bool> = BTreeMap::new();
    let (tx, rx) = std::sync::mpsc::channel::<(String, bool)>();
    let mut senders = Vec::new();
    for i in 0..total {
        let id = format!("chaos-{i}");
        answered.insert(id.clone(), false);
        let addr = server.addr.clone();
        let tx = tx.clone();
        senders.push(std::thread::spawn(move || {
            let body = chaos_spec(&id, i);
            let ok = HttpClient::connect(&addr)
                .and_then(|mut c| c.post("/characterize", &body))
                .map(|(status, _)| status == 200)
                .unwrap_or(false);
            let _ = tx.send((id, ok));
        }));
        // Stagger slightly so the kill lands with work in every state:
        // answered, in-flight, queued, and not-yet-sent.
        std::thread::sleep(Duration::from_millis(30));
        if i == total / 2 {
            eprintln!("storm[chaos]: SIGKILL mid-storm");
            server.kill_hard();
        }
    }
    drop(tx);
    for s in senders {
        let _ = s.join();
    }
    while let Ok((id, ok)) = rx.recv() {
        if ok {
            answered.insert(id, true);
        }
    }
    let answered_pre_kill = answered.values().filter(|&&ok| ok).count() as u64;
    eprintln!("storm[chaos]: {answered_pre_kill}/{total} answered before/around the kill");

    // Phase 2: restart on the same spool; recovery must finish every
    // journaled request. Feed the parser garbage while it works.
    let mut server = match ServerHandle::spawn(&serve_args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("storm: cannot restart chaos daemon: {e}");
            return 1;
        }
    };
    eprintln!(
        "storm[chaos]: phase 2 — restarted on the same spool at {}",
        server.addr
    );
    let garbage_rejected = garbage_is_rejected(&server.addr);

    // Poll every id to a terminal state: 200 (answered) or 404 (never
    // accepted). 202 = journaled-but-pending, must clear; anything else or
    // a timeout is a lost request.
    let mut answered_total = 0u64;
    let mut never_accepted = 0u64;
    let mut lost = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    for (id, was_answered) in &answered {
        let verdict = loop {
            let status = HttpClient::connect(&server.addr)
                .and_then(|mut c| c.get(&format!("/requests/{id}")))
                .map(|(status, _)| status);
            match status {
                Ok(200) => break Some(true),
                Ok(404) => break Some(false),
                Ok(202) | Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                other => {
                    eprintln!("storm[chaos]: {id} stuck at {other:?}");
                    break None;
                }
            }
        };
        match verdict {
            Some(true) => answered_total += 1,
            Some(false) if *was_answered => {
                // Client saw 200, the restarted server lost the result.
                eprintln!("storm[chaos]: {id} was answered but is gone — LOST");
                lost += 1;
            }
            Some(false) => never_accepted += 1,
            None => lost += 1,
        }
    }

    // Phase 3: SIGTERM drain; clean exit required.
    server.sigterm();
    let clean_exit = wait_for_exit(&mut server.child, Duration::from_secs(60)) == Some(0);

    let summary = ChaosSummary {
        sent: total,
        answered_pre_kill,
        answered_total,
        never_accepted,
        lost,
        garbage_rejected,
        clean_exit,
    };
    eprintln!(
        "storm[chaos]: answered={}/{} never_accepted={} lost={} garbage_rejected={} clean_exit={}",
        summary.answered_total,
        summary.sent,
        summary.never_accepted,
        summary.lost,
        summary.garbage_rejected,
        summary.clean_exit
    );
    let doc = bench_doc(&[], Some(&summary));
    if let Err(e) =
        copernicus_telemetry::atomic_write(&args.out, serde::json::to_string_pretty(&doc))
    {
        eprintln!("storm: cannot write {}: {e}", args.out.display());
        return 1;
    }
    let pass = summary.lost == 0 && summary.garbage_rejected && summary.clean_exit;
    if pass {
        println!("storm[chaos]: PASS — zero accepted-but-lost requests");
        0
    } else {
        println!("storm[chaos]: FAIL");
        1
    }
}

fn chaos_spec(id: &str, seed: u64) -> String {
    let doc = Value::Map(vec![
        ("id".to_string(), Value::Str(id.to_string())),
        (
            "workload".to_string(),
            Value::Map(vec![
                ("kind".to_string(), Value::Str("random".to_string())),
                ("n".to_string(), Value::UInt(32)),
                ("density".to_string(), Value::Float(0.1)),
            ]),
        ),
        ("seed".to_string(), Value::UInt(seed)),
    ]);
    serde::json::to_string(&doc)
}

/// Feeds the daemon protocol garbage and an oversized body; both must be
/// answered with a 4xx (or a clean close) and must not take the daemon
/// down.
fn garbage_is_rejected(addr: &str) -> bool {
    // Raw garbage bytes: expect 400 or a typed close, never a hang.
    let garbage_ok = TcpStream::connect(addr)
        .map(|mut s| {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = s.write_all(b"\x00\xffnot http at all\r\n\r\n");
            let mut reader = BufReader::new(s);
            match read_response(&mut reader) {
                Ok((status, _)) => (400..500).contains(&status),
                Err(_) => true, // clean close is acceptable for garbage
            }
        })
        .unwrap_or(false);
    // Oversized body: declare a Content-Length past the limit (the server
    // rejects before reading the body, so sending the real 2 MiB would
    // only fill socket buffers) and expect a 413.
    let oversized_ok = TcpStream::connect(addr)
        .map(|mut s| {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let head =
                "POST /characterize HTTP/1.1\r\nHost: storm\r\nContent-Length: 2097152\r\n\r\n";
            let _ = s.write_all(head.as_bytes());
            let _ = s.write_all(b"{\"partial\":");
            let _ = s.flush();
            let mut reader = BufReader::new(s);
            matches!(read_response(&mut reader), Ok((413, _)))
        })
        .unwrap_or(false);
    // The daemon must still answer after both.
    let alive = HttpClient::connect(addr)
        .and_then(|mut c| c.get("/healthz"))
        .map(|(status, _)| status == 200)
        .unwrap_or(false);
    garbage_ok && oversized_ok && alive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_args_parse() {
        let d = StormArgs::parse(vec![]).expect("defaults");
        assert_eq!(d.levels, vec![2, 8]);
        assert!(!d.chaos);

        let a = StormArgs::parse(
            [
                "--addr",
                "127.0.0.1:9",
                "--levels",
                "1,4,16",
                "--requests",
                "3",
                "--out",
                "/tmp/b.json",
                "--chaos",
            ]
            .map(String::from)
            .to_vec(),
        )
        .expect("parse");
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(a.levels, vec![1, 4, 16]);
        assert_eq!(a.requests, 3);
        assert!(a.chaos);

        assert!(StormArgs::parse(vec!["--levels".into(), "0".into()]).is_err());
        assert!(StormArgs::parse(vec!["--nope".into()]).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 99.0), 5.0);
        assert_eq!(percentile(&mut v, 1.0), 1.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn bench_doc_shape_holds() {
        let levels = [LevelResult {
            clients: 2,
            requests: 4,
            ok: 8,
            rejected: 0,
            errors: 0,
            p50_ms: 1.5,
            p99_ms: 3.0,
            req_per_s: 100.0,
        }];
        let doc = bench_doc(&levels, None);
        let text = serde::json::to_string(&doc);
        let parsed: Value = serde::json::from_str(&text).expect("round trip");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("bench_serve_v1")
        );
        let seq = parsed
            .get("levels")
            .and_then(Value::as_seq)
            .expect("levels");
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].get("ok").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn small_spec_is_a_valid_request() {
        let body = small_spec(7);
        crate::serve::scheduler::RequestSpec::parse(body.as_bytes()).expect("spec parses");
        let body = chaos_spec("chaos-3", 3);
        let spec = crate::serve::scheduler::RequestSpec::parse(body.as_bytes()).expect("parses");
        assert_eq!(spec.id.as_deref(), Some("chaos-3"));
    }
}
