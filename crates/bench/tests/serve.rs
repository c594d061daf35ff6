//! Integration tests for the characterization daemon and its load
//! generator, run against the real `copernicus-bench` binary over real
//! sockets.
//!
//! The headline invariant — **zero accepted-but-lost requests** — is
//! exercised twice: once through a graceful drain with work in flight
//! (every admitted request is answered before exit 0), and once through
//! `storm --chaos`, which SIGKILLs the daemon mid-storm, restarts it on
//! the same spool, and audits every request id to a terminal state.

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_copernicus-bench");

/// A serve daemon child on an ephemeral port.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(extra: &[&str]) -> Server {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdout = child.stdout.take().expect("stdout pipe");
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader.read_line(&mut banner).expect("read banner");
        let addr = banner
            .trim()
            .rsplit("http://")
            .next()
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Server { child, addr }
    }

    fn wait_for_exit(&mut self, timeout: Duration) -> Option<i32> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.code();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One-shot HTTP exchange; returns (status, headers, body).
#[allow(clippy::type_complexity)]
fn http(
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
) -> Result<(u16, Vec<(String, String)>, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("status: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    Ok((status, headers, String::from_utf8_lossy(&body).into_owned()))
}

fn spec(id: &str, n: u64) -> String {
    format!(r#"{{"id": "{id}", "workload": {{"kind": "random", "n": {n}, "density": 0.1}}}}"#)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus-serve-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn round_trip_status_endpoints_and_idempotent_replay() {
    let spool = tmp_dir("roundtrip");
    let spool_arg = spool.display().to_string();
    let mut server = Server::spawn(&["--spool", &spool_arg]);

    let (status, _, body) = http(&server.addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = http(&server.addr, "GET", "/readyz", "").expect("readyz");
    assert_eq!(status, 200);

    let (status, headers, body) =
        http(&server.addr, "POST", "/characterize", &spec("rt-1", 24)).expect("characterize");
    assert_eq!(status, 200, "{body}");
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "x-request-id" && v == "rt-1"),
        "response must echo the request id: {headers:?}"
    );
    let doc: Value = serde::json::from_str(&body).expect("result is JSON");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(doc.get("cells").and_then(Value::as_u64), Some(1));
    let first = body.clone();

    // The spool holds journal + durable result + checkpoint.
    for artifact in ["request.json", "result.json", "checkpoint.jsonl"] {
        assert!(
            spool.join("rt-1").join(artifact).exists(),
            "missing spool artifact {artifact}"
        );
    }

    // Lookup and idempotent replay both return the stored answer.
    let (status, _, looked_up) = http(&server.addr, "GET", "/requests/rt-1", "").expect("lookup");
    assert_eq!(status, 200);
    assert_eq!(looked_up, first);
    let (status, _, replayed) =
        http(&server.addr, "POST", "/characterize", &spec("rt-1", 24)).expect("replay");
    assert_eq!(status, 200);
    assert_eq!(
        replayed, first,
        "a replayed id must not re-run the campaign"
    );

    let (status, _, _) = http(&server.addr, "GET", "/requests/rt-404", "").expect("lookup");
    assert_eq!(status, 404);

    let (status, _, stats) = http(&server.addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    let doc: Value = serde::json::from_str(&stats).expect("stats JSON");
    assert_eq!(doc.get("completed").and_then(Value::as_u64), Some(1));

    // Malformed and oversized bodies come back typed, and the daemon
    // survives them. A body that is not JSON at all is 400; well-formed
    // JSON with invalid content (unknown field, bad override) is 422.
    let (status, _, _) = http(&server.addr, "POST", "/characterize", "not json").expect("bad");
    assert_eq!(status, 400);
    let (status, _, body) = http(
        &server.addr,
        "POST",
        "/characterize",
        r#"{"workload": {"kind": "random", "n": 24, "density": 0.1}, "partion_sizes": [8]}"#,
    )
    .expect("typo");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("partion_sizes"), "{body}");
    let (status, _, body) = http(
        &server.addr,
        "POST",
        "/characterize",
        r#"{"workload": {"kind": "random", "n": 24, "density": 0.1}, "backend": "gpu"}"#,
    )
    .expect("bad backend");
    assert_eq!(status, 422, "{body}");
    let (status, _, _) = http(&server.addr, "GET", "/nope", "").expect("404");
    assert_eq!(status, 404);

    let (status, _, _) = http(&server.addr, "POST", "/admin/drain", "").expect("drain");
    assert_eq!(status, 200);
    assert_eq!(server.wait_for_exit(Duration::from_secs(30)), Some(0));
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn per_request_backend_override_changes_the_model() {
    let mut server = Server::spawn(&[]);
    let body = |backend: &str| {
        format!(
            r#"{{"workload": {{"kind": "random", "n": 24, "density": 0.1}}, "partition_sizes": [8]{backend}}}"#
        )
    };
    let cycles = |result: &str| {
        let doc: Value = serde::json::from_str(result).expect("result JSON");
        doc.get("measurements")
            .and_then(Value::as_seq)
            .and_then(|ms| ms.first())
            .and_then(|m| m.get("report"))
            .and_then(|r| r.get("total_cycles"))
            .and_then(Value::as_u64)
            .expect("total_cycles")
    };
    let (status, _, hls) =
        http(&server.addr, "POST", "/characterize", &body("")).expect("default backend");
    assert_eq!(status, 200, "{hls}");
    let (status, _, cpu) = http(
        &server.addr,
        "POST",
        "/characterize",
        &body(r#", "backend": "cpu""#),
    )
    .expect("cpu backend");
    assert_eq!(status, 200, "{cpu}");
    assert_ne!(
        cycles(&hls),
        cycles(&cpu),
        "the cpu backend must model different cycle totals"
    );

    let (status, _, _) = http(&server.addr, "POST", "/admin/drain", "").expect("drain");
    assert_eq!(status, 200);
    assert_eq!(server.wait_for_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let mut server = Server::spawn(&["--workers", "1", "--queue", "1"]);
    let clients = 8;
    let mut handles = Vec::new();
    for i in 0..clients {
        let addr = server.addr.clone();
        handles.push(std::thread::spawn(move || {
            http(
                &addr,
                "POST",
                "/characterize",
                &spec(&format!("bp-{i}"), 32),
            )
        }));
    }
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        let (status, headers, body) = h.join().expect("client").expect("exchange");
        match status {
            200 => ok += 1,
            429 => {
                shed += 1;
                assert!(
                    headers.iter().any(|(n, _)| n == "retry-after"),
                    "429 must carry Retry-After: {headers:?}"
                );
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    // 1 worker + queue depth 1: at most a handful admitted at once, the
    // rest shed. Both classes must be represented.
    assert!(ok >= 1, "no request got through");
    assert!(shed >= 1, "an 8-deep burst against queue=1 must shed");

    let (_, _, stats) = http(&server.addr, "GET", "/stats", "").expect("stats");
    let doc: Value = serde::json::from_str(&stats).expect("stats JSON");
    assert_eq!(
        doc.get("rejected_busy").and_then(Value::as_u64),
        Some(shed as u64)
    );
    assert!(doc.get("queue_high_watermark").and_then(Value::as_u64) >= Some(1));

    let (status, _, _) = http(&server.addr, "POST", "/admin/drain", "").expect("drain");
    assert_eq!(status, 200);
    assert_eq!(server.wait_for_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn drain_flips_readyz_refuses_work_and_answers_everything_admitted() {
    // One worker and a burst of jobs: the drain begins with work queued,
    // giving the 503 window something to be true about. Each n=1536 job
    // takes ~0.1 s, far longer than the burst takes to be admitted, so
    // jobs are still queued when the drain starts and the window stays
    // open while the worker finishes them.
    let mut server = Server::spawn(&["--workers", "1", "--queue", "16"]);
    let jobs = 6;
    let mut handles = Vec::new();
    for i in 0..jobs {
        let addr = server.addr.clone();
        handles.push(std::thread::spawn(move || {
            http(
                &addr,
                "POST",
                "/characterize",
                &spec(&format!("dr-{i}"), 1536),
            )
        }));
    }
    // Every job must be admitted before the drain request below: a job
    // that reaches the server after the drain is rightly refused. The
    // last read before the drain must still see work queued, or the
    // drain could find nothing left to do and exit before a probe.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, _, stats) = http(&server.addr, "GET", "/stats", "").expect("stats");
        let doc: Value = serde::json::from_str(&stats).expect("stats JSON");
        if doc.get("accepted").and_then(Value::as_u64) == Some(jobs) {
            let queued = doc.get("queue_depth").and_then(Value::as_u64);
            assert!(
                queued.is_some_and(|depth| depth > 0),
                "every job finished before the drain: {stats}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "jobs never admitted: {stats}");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, _) = http(&server.addr, "POST", "/admin/drain", "").expect("drain");
    assert_eq!(status, 200);

    // The drain reply is sent after admission has closed; from then until
    // exit, readyz must read 503 and admission must refuse.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_unready = false;
    while Instant::now() < deadline {
        match http(&server.addr, "GET", "/readyz", "") {
            Ok((503, _, _)) => {
                saw_unready = true;
                break;
            }
            Ok((200, _, _)) => std::thread::sleep(Duration::from_millis(2)),
            Ok((other, _, body)) => panic!("readyz answered {other}: {body}"),
            Err(_) => break, // already exited: too late to observe the flip
        }
    }
    if saw_unready {
        if let Ok((status, _, body)) =
            http(&server.addr, "POST", "/characterize", &spec("dr-late", 24))
        {
            assert_eq!(status, 503, "draining admission must refuse: {body}");
        }
    }

    // Drain contract: every admitted request is answered 200 before exit.
    let mut answered = 0;
    for h in handles {
        let (status, _, body) = h.join().expect("client").expect("exchange");
        assert_eq!(status, 200, "admitted request dropped during drain: {body}");
        answered += 1;
    }
    assert_eq!(answered, jobs);
    assert_eq!(
        server.wait_for_exit(Duration::from_secs(60)),
        Some(0),
        "drain must end in exit 0"
    );
    assert!(saw_unready, "readyz never flipped to 503 during the drain");
}

#[test]
fn storm_records_latency_for_at_least_two_concurrency_levels() {
    let dir = tmp_dir("storm");
    let out = dir.join("BENCH_serve.json");
    let status = Command::new(BIN)
        .args([
            "storm",
            "--levels",
            "1,3",
            "--requests",
            "2",
            "--out",
            out.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run storm");
    assert!(status.success(), "storm failed");
    let text = std::fs::read_to_string(&out).expect("BENCH_serve.json");
    let doc: Value = serde::json::from_str(&text).expect("bench JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("bench_serve_v1")
    );
    let levels = doc.get("levels").and_then(Value::as_seq).expect("levels");
    assert!(levels.len() >= 2, "need >=2 concurrency levels");
    for level in levels {
        for key in ["p50_ms", "p99_ms", "req_per_s"] {
            let v = level.get(key).and_then(Value::as_f64).expect(key);
            assert!(v > 0.0, "{key} must be positive, got {v}");
        }
        assert!(level.get("ok").and_then(Value::as_u64).expect("ok") > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_storm_loses_no_accepted_request_across_kill_and_restart() {
    let dir = tmp_dir("chaos");
    let out = dir.join("BENCH_chaos.json");
    let spool = dir.join("spool");
    let status = Command::new(BIN)
        .args([
            "storm",
            "--chaos",
            "--requests",
            "8",
            "--spool",
            spool.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run chaos storm");
    assert!(
        status.success(),
        "chaos storm must pass (zero lost, garbage rejected, clean exit)"
    );
    let text = std::fs::read_to_string(&out).expect("BENCH_chaos.json");
    let doc: Value = serde::json::from_str(&text).expect("bench JSON");
    let chaos = doc.get("chaos").expect("chaos section");
    assert_eq!(chaos.get("lost").and_then(Value::as_u64), Some(0));
    assert!(matches!(
        chaos.get("garbage_rejected"),
        Some(Value::Bool(true))
    ));
    assert!(matches!(chaos.get("clean_exit"), Some(Value::Bool(true))));
    // Accounting closes: answered + never_accepted == sent.
    let sent = chaos.get("sent").and_then(Value::as_u64).expect("sent");
    let answered = chaos
        .get("answered_total")
        .and_then(Value::as_u64)
        .expect("answered");
    let never = chaos
        .get("never_accepted")
        .and_then(Value::as_u64)
        .expect("never_accepted");
    assert_eq!(answered + never, sent);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_resumes_spooled_work_from_its_checkpoint() {
    // Direct (non-storm) recovery check: journal a request by hand, start
    // the daemon on that spool, and the recovered job must complete with a
    // durable result even though no client is attached.
    let spool = tmp_dir("recover");
    let dir = spool.join("rec-1");
    std::fs::create_dir_all(&dir).expect("spool dir");
    std::fs::write(dir.join("request.json"), spec("rec-1", 24)).expect("journal");

    let spool_arg = spool.display().to_string();
    let mut server = Server::spawn(&["--spool", &spool_arg]);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut done = false;
    while Instant::now() < deadline {
        let (status, _, _) = http(&server.addr, "GET", "/requests/rec-1", "").expect("lookup");
        match status {
            200 => {
                done = true;
                break;
            }
            202 => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("recovery lookup answered {other}"),
        }
    }
    assert!(done, "recovered request never reached a result");
    assert!(dir.join("result.json").exists());

    let (status, _, _) = http(&server.addr, "POST", "/admin/drain", "").expect("drain");
    assert_eq!(status, 200);
    assert_eq!(server.wait_for_exit(Duration::from_secs(30)), Some(0));
    let _ = std::fs::remove_dir_all(&spool);
}
