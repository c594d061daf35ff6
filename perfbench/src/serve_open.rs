//! `serve-open`: the `serve` daemon (two workers, a fresh spool) in a child
//! process, loaded from this process over at most two connections at a
//! time. The mix is 90% small `POST /characterize` specs (random or band,
//! n ≤ 1024, 4–8 formats, p = 16) and 10% `GET /requests/<id>` replays of
//! ids already answered. Open-loop requests are timed from when they were
//! due, so a stall also charges the requests behind it; a closed-loop
//! saturation phase gives the delivered cells per second.

use crate::common::metric;
use crate::common::{
    dir_bytes, fold_spans, peak_rss_mb, trace_session_cell, CellInput, CellKind, Ctx, EndToEnd,
    Layers,
};
use crate::digest::Digest;
use crate::stats::{median, quantile, SplitMix};
use crate::trace::Tracer;
use crate::Outcome;
use copernicus::{CacheStats, CampaignRunner, ExperimentConfig, Measurement};
use copernicus_hls::{EncodeScratch, HwConfig, Session};
use copernicus_workloads::Workload;
use serde::Value;
use sparsemat::{FormatKind, PartitionGrid};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rates (requests/s) of the two measured phases.
const LOW_RPS: f64 = 10.0;
const HIGH_RPS: f64 = 25.0;
/// The latency limit `max_ok_rps` is judged against (p95, ms).
const LIMIT_MS: f64 = 50.0;
/// The fixed ladder `max_ok_rps` climbs.
const LADDER: [f64; 6] = [20.0, 30.0, 40.0, 50.0, 60.0, 80.0];
const CONNECTIONS: usize = 2;
const WORKERS: &str = "2";
/// Specs whose expected answers form the pinned digest.
const DIGEST_SPECS: usize = 64;
/// Daemon start-ups per run; `setup_s` is the fastest. A start-up whose
/// first probe lands after the daemon's first `accept` also waits out the
/// listener's 5 ms idle poll, and on a loaded host that happens in streaks,
/// so a median flips between the two modes from run to run.
const SETUPS: usize = 9;
const P: usize = 16;

// ---------------------------------------------------------------- specs ---

/// One `POST /characterize` body, generated from the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub formats: Vec<FormatKind>,
    pub seed: u64,
}

/// The `k`-th spec of a seed's stream (independent of rates and timing).
pub fn spec(seed: u64, k: usize) -> Spec {
    let mut rng = SplitMix::new(seed ^ (k as u64).wrapping_mul(0x9E37_79B9), 5);
    let n = 256 + rng.below(769) as usize;
    let workload = if rng.below(2) == 0 {
        let density = [0.001, 0.005, 0.01, 0.02][rng.below(4) as usize];
        Workload::Random { n, density }
    } else {
        let width = [1, 2, 4, 8, 16][rng.below(5) as usize];
        Workload::Band { n, width }
    };
    let mut formats = FormatKind::CHARACTERIZED.to_vec();
    let keep = 4 + rng.below(5) as usize;
    while formats.len() > keep {
        formats.remove(rng.below(formats.len() as u64) as usize);
    }
    Spec {
        workload,
        formats,
        seed: rng.below(1_000_000),
    }
}

fn body(id: &str, s: &Spec) -> String {
    let workload = match s.workload {
        Workload::Random { n, density } => {
            format!("{{\"kind\":\"random\",\"n\":{n},\"density\":{density}}}")
        }
        Workload::Band { n, width } => format!("{{\"kind\":\"band\",\"n\":{n},\"width\":{width}}}"),
        Workload::Suite(_) => unreachable!("the mix has no suite specs"),
    };
    let formats: Vec<String> = s.formats.iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"id\":\"{id}\",\"workload\":{workload},\"formats\":[{}],\"partition_sizes\":[{P}],\"seed\":{}}}",
        formats.join(","),
        s.seed
    )
}

fn quick(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::quick()
    }
}

/// What the daemon must answer for a spec: the same campaign in-process,
/// with the runner's workload-cache counters.
pub fn expected(s: &Spec, jobs: usize) -> Result<(Vec<Measurement>, CacheStats), String> {
    let runner = CampaignRunner::new(jobs);
    let ms = runner
        .characterize(&[s.workload], &s.formats, &[P], &quick(s.seed))
        .map_err(|e| e.to_string())?;
    Ok((ms, runner.workloads().stats()))
}

pub fn digest(jobs: usize, seed: u64) -> Result<Digest, String> {
    let mut d = Digest::default();
    for k in 0..DIGEST_SPECS {
        for m in expected(&spec(seed, k), jobs)?.0 {
            d.measurement(&m);
        }
    }
    Ok(d)
}

// ----------------------------------------------------------------- plan ---

#[derive(Debug, Clone)]
enum Req {
    /// `POST /characterize` of spec `k`.
    Post { k: usize },
    /// `GET /requests/<id>` of the post at plan index `target`.
    Replay { target: usize },
}

#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    req: Req,
}

/// Lays out `phases` of `(rate, seconds)` back to back with exponential
/// gaps (independent users; a fixed period would phase-lock with the
/// daemon's accept polling). Spec numbering continues from `first_spec`. A
/// replay targets a post due at least one second earlier, so it is
/// normally answered by the time it is sent.
fn plan(seed: u64, phases: &[(f64, f64)], first_spec: usize) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed, 9);
    let mut out: Vec<Planned> = Vec::new();
    let mut next_spec = first_spec;
    let mut t0 = 0.0;
    for &(rate, secs) in phases {
        let mut due_s = t0;
        loop {
            due_s += -(1.0 - rng.unit()).ln() / rate;
            if due_s >= t0 + secs {
                break;
            }
            let old: Vec<usize> = out
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p.req, Req::Post { .. }) && p.due_s <= due_s - 1.0)
                .map(|(j, _)| j)
                .collect();
            let req = if rng.below(10) == 0 && !old.is_empty() {
                Req::Replay {
                    target: old[rng.below(old.len() as u64) as usize],
                }
            } else {
                next_spec += 1;
                Req::Post { k: next_spec - 1 }
            };
            out.push(Planned { due_s, req });
        }
        t0 += secs;
    }
    out
}

// --------------------------------------------------------------- client ---

/// One HTTP/1.1 exchange on its own connection (`Connection: close`). The
/// daemon writes a response in several small writes; on a kept-alive socket
/// those stall on Nagle plus delayed ACK for about 40 ms, which made
/// latency bimodal from run to run. A fresh connection answers at once.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    reader.get_mut().write_all(head.as_bytes())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let mut len = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let h = line.trim_end().to_ascii_lowercase();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("content-length:") {
            len = v
                .trim()
                .parse()
                .map_err(|_| std::io::ErrorKind::InvalidData)?;
        }
    }
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf)?;
    Ok((status, String::from_utf8_lossy(&buf).into_owned()))
}

// --------------------------------------------------------------- daemon ---

/// The daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `serve` on a free port and polls `/readyz` from the moment
    /// of spawning until it answers 200, as a readiness probe that knows
    /// the port would. Returns the daemon and the start-up time.
    fn start(spool: &Path) -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let start = Instant::now();
        let child = Command::new(exe)
            .args([
                "--daemon",
                "--port",
                &port.to_string(),
                "--workers",
                WORKERS,
                "--spool",
            ])
            .arg(spool)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        };
        loop {
            if let Ok((200, _)) = request(daemon.addr, "GET", "/readyz", "") {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before it was ready: {status}"));
            }
            if start.elapsed() > Duration::from_secs(20) {
                return Err("daemon never became ready".into());
            }
            // Poll without sleeping: the daemon checks its listener only
            // every 5 ms once idle, so a probe that arrives after its first
            // accept would time that poll instead of the start-up.
            std::thread::yield_now();
        }
    }

    fn stats(&self) -> Result<Value, String> {
        let (status, body) = request(self.addr, "GET", "/stats", "").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/stats answered {status}"));
        }
        serde::json::parse(&body).map_err(|e| e.to_string())
    }

    /// Drains through `POST /admin/drain` and returns the exit code.
    fn drain(mut self) -> Result<i32, String> {
        let _ = request(self.addr, "POST", "/admin/drain", "");
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status.code().unwrap_or(-1)),
                Ok(None) if start.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not drain within 30 s".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ------------------------------------------------------------- load run ---

#[derive(Debug, Clone, Default)]
struct Sample {
    latency_ms: f64,
    lag_ms: f64,
    ok: bool,
    replay: bool,
    body: String,
}

/// Sends `plan` open-loop over `CONNECTIONS` connections and returns one
/// sample per request, in plan order.
fn drive(addr: SocketAddr, seed: u64, prefix: &str, plan: &[Planned]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let done: Vec<Mutex<Option<Sample>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(p) = plan.get(i) else { break };
                    let due = t0 + Duration::from_secs_f64(p.due_s);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (method, path, payload) = match p.req {
                        Req::Post { k } => {
                            let id = format!("{prefix}{k}");
                            (
                                "POST",
                                "/characterize".to_string(),
                                body(&id, &spec(seed, k)),
                            )
                        }
                        Req::Replay { target } => {
                            // An answered id is a precondition of a replay:
                            // wait for it (the wait counts as latency).
                            let limit = Instant::now() + Duration::from_secs(20);
                            while done[target].lock().expect("sample lock").is_none()
                                && Instant::now() < limit
                            {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            let Req::Post { k } = plan[target].req else {
                                unreachable!("replays target posts")
                            };
                            ("GET", format!("/requests/{prefix}{k}"), String::new())
                        }
                    };
                    let sent = Instant::now();
                    let result = request(addr, method, &path, &payload);
                    let end = Instant::now();
                    let (ok, body) = match result {
                        Ok((200, body)) => (true, body),
                        _ => (false, String::new()),
                    };
                    *done[i].lock().expect("sample lock") = Some(Sample {
                        latency_ms: end.duration_since(due).as_secs_f64() * 1e3,
                        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        ok,
                        replay: matches!(p.req, Req::Replay { .. }),
                        body,
                    });
                }
            });
        }
    });
    done.into_iter()
        .map(|m| m.into_inner().expect("sample lock").unwrap_or_default())
        .collect()
}

/// p95 latency with every failure counted as missing the limit.
fn p95_counting_failures(samples: &[Sample]) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { s.latency_ms } else { f64::INFINITY })
        .collect();
    quantile(&v, 0.95)
}

fn measurements_of(body: &str) -> Option<Vec<Measurement>> {
    let doc = serde::json::parse(body).ok()?;
    serde::Deserialize::deserialize(doc.get("measurements")?).ok()
}

/// Closed-loop saturation: every connection posts its next spec as soon as
/// the previous answer arrives, until `secs` have passed. Returns (posts,
/// failed posts, cells delivered, wall seconds).
fn saturate(addr: SocketAddr, seed: u64, first_spec: usize, secs: f64) -> (u64, u64, u64, f64) {
    let next = AtomicUsize::new(first_spec);
    let tally = Mutex::new((0u64, 0u64, 0u64));
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                while Instant::now() < stop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let sp = spec(seed, k);
                    let delivered = match request(
                        addr,
                        "POST",
                        "/characterize",
                        &body(&format!("pb-s{k}"), &sp),
                    ) {
                        // Counted, not parsed: the open-loop phases check
                        // every answer in full, and parsing here would take
                        // CPU from the daemon it is saturating.
                        Ok((200, b)) => Some(b.matches("\"class\"").count() as u64)
                            .filter(|&cells| cells == sp.formats.len() as u64),
                        _ => None,
                    };
                    let mut t = tally.lock().expect("tally lock");
                    t.0 += 1;
                    match delivered {
                        Some(cells) => t.2 += cells,
                        None => t.1 += 1,
                    }
                }
            });
        }
    });
    let (posts, failed, cells) = tally.into_inner().expect("tally lock");
    (posts, failed, cells, start.elapsed().as_secs_f64())
}

/// Everything one measured daemon lifetime produced.
struct Load {
    setup_s: f64,
    samples: Vec<Sample>,
    plan: Vec<Planned>,
    phase_len: usize,
    ladder: Vec<(f64, f64, bool)>,
    /// Closed-loop (posts, failed, cells, wall seconds); absent in a traced
    /// run.
    saturation: Option<(u64, u64, u64, f64)>,
    rss_mb: f64,
    stats: Value,
    spool_bytes: u64,
    exit_code: i32,
}

/// One daemon lifetime: set-ups, the two open-loop phases and, for a full
/// run, the ladder and the saturation phase.
fn load(ctx: &Ctx, seconds: f64, full: bool) -> Result<Load, String> {
    // Set-up: every start-up uses a fresh spool; the last daemon serves.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let spool = ctx.dir.join(format!("spool{i}"));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
        let (d, ready_s) = Daemon::start(&spool)?;
        setups.push(ready_s);
        if i + 1 < SETUPS {
            let code = d.drain()?;
            if code != 0 {
                return Err(format!("set-up daemon exited {code}"));
            }
        } else {
            daemon = Some((d, spool));
        }
    }
    let (daemon, spool) = daemon.ok_or("no daemon")?;
    let (low, high) = if full {
        (seconds * 0.15, seconds * 0.25)
    } else {
        (seconds * 0.4, seconds * 0.6)
    };
    let plan_main = plan(ctx.seed, &[(LOW_RPS, low), (HIGH_RPS, high)], 0);
    let phase_len = plan_main.iter().filter(|p| p.due_s < low).count();
    let samples = drive(daemon.addr, ctx.seed, "pb-", &plan_main);
    let mut steps = Vec::new();
    let mut saturation = None;
    if full {
        // The climb stops at the first rate that misses the limit or
        // builds a backlog; all steps together take at most 15% of the run.
        let step_s = seconds * 0.15 / LADDER.len() as f64;
        for (si, &rate) in LADDER.iter().enumerate() {
            let p = plan(
                ctx.seed ^ (si as u64 + 1),
                &[(rate, step_s)],
                1_000_000 * (si + 1),
            );
            let s = drive(daemon.addr, ctx.seed, "pb-l", &p);
            let p95 = p95_counting_failures(&s);
            let q = s.len() / 4;
            let early = median(&s[..q.max(1)].iter().map(|x| x.lag_ms).collect::<Vec<_>>());
            let late = median(
                &s[s.len() - q.max(1)..]
                    .iter()
                    .map(|x| x.lag_ms)
                    .collect::<Vec<_>>(),
            );
            let ok = p95 < LIMIT_MS && late <= early + 10.0;
            steps.push((rate, p95, ok));
            if !ok {
                break;
            }
        }
        saturation = Some(saturate(daemon.addr, ctx.seed, 10_000_000, seconds * 0.45));
    }
    let stats = daemon.stats()?;
    let rss_mb = peak_rss_mb(Some(daemon.child.id()));
    let exit_code = daemon.drain()?;
    Ok(Load {
        setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        samples,
        plan: plan_main,
        phase_len,
        ladder: steps,
        saturation,
        rss_mb,
        stats,
        spool_bytes: dir_bytes(&spool),
        exit_code,
    })
}

/// Checks every answer against the in-process campaign, and every replay
/// against the original answer.
fn check_answers(ctx: &Ctx, l: &Load, out: &mut Outcome) -> Result<Checked, String> {
    let mut specs = Vec::new();
    let mut all_match = true;
    let mut replays_match = true;
    let mut wall = 0.0;
    let (mut grid_hits, mut grid_misses) = (0, 0);
    for (i, p) in l.plan.iter().enumerate() {
        let got = &l.samples[i];
        if !got.ok {
            continue;
        }
        match p.req {
            Req::Post { k } => {
                let s = spec(ctx.seed, k);
                let t = Instant::now();
                let (want, cache) = expected(&s, 1)?;
                wall += t.elapsed().as_secs_f64();
                grid_hits += cache.grid_hits;
                grid_misses += cache.grid_misses;
                all_match &= measurements_of(&got.body).is_some_and(|m| m == want);
                specs.push((s, want));
            }
            Req::Replay { target } => {
                replays_match &= l.samples[target].ok && got.body == l.samples[target].body;
            }
        }
    }
    out.check("every answer equals the in-process campaign", all_match);
    out.check("replays are byte-identical", replays_match);
    out.check("daemon drained with exit code 0", l.exit_code == 0);
    Ok(Checked {
        specs,
        wall_s: wall,
        grid_hits,
        grid_misses,
    })
}

/// The served posts with their expected answers, and the time computing
/// those answers in-process took (the untraced twin of the traced replay).
struct Checked {
    specs: Vec<(Spec, Vec<Measurement>)>,
    wall_s: f64,
    grid_hits: u64,
    grid_misses: u64,
}

fn record_failures(l: &Load, out: &mut Outcome) {
    out.attempted += l.samples.len() as u64;
    out.failed += l.samples.iter().filter(|s| !s.ok).count() as u64;
}

fn stat(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    let l = load(ctx, ctx.seconds, true)?;
    record_failures(&l, out);
    check_answers(ctx, &l, out)?;
    out.digest = Some(digest(1, ctx.seed)?);

    let (low, high) = l.samples.split_at(l.phase_len);
    let lat = |s: &[Sample], q: f64| {
        quantile(
            &s.iter()
                .filter(|x| x.ok)
                .map(|x| x.latency_ms)
                .collect::<Vec<_>>(),
            q,
        )
    };
    let lags: Vec<f64> = l.samples.iter().map(|s| s.lag_ms).collect();
    let replays: Vec<f64> = l
        .samples
        .iter()
        .filter(|s| s.replay && s.ok)
        .map(|s| s.latency_ms)
        .collect();
    out.details.extend([
        metric("req_p50_ms.low", lat(low, 0.5), "ms"),
        metric("req_p95_ms.low", lat(low, 0.95), "ms"),
        metric("req_p50_ms.high", lat(high, 0.5), "ms"),
        metric("req_p95_ms.high", lat(high, 0.95), "ms"),
        metric("serve.gen_lag_ms", quantile(&lags, 0.95), "ms"),
        metric("serve.replay_p50_ms", median(&replays), "ms"),
        metric(
            "max_ok_rps",
            l.ladder
                .iter()
                .take_while(|s| s.2)
                .last()
                .map_or(0.0, |s| s.0),
            "1/s",
        ),
    ]);
    for (rate, p95, ok) in &l.ladder {
        out.details.push(metric(
            &format!("ladder.p95_ms@{rate}"),
            *p95,
            if *ok { "ms" } else { "ms(miss)" },
        ));
    }
    let (posts, failed, cells, wall_s) = l.saturation.ok_or("no saturation phase")?;
    out.attempted += posts;
    out.failed += failed;
    out.details
        .push(metric("saturation.rps", posts as f64 / wall_s, "1/s"));
    Ok(EndToEnd {
        cells_per_s: cells as f64 / wall_s,
        setup_s: l.setup_s,
        peak_rss_mb: l.rss_mb,
    })
}

pub fn trace(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) -> Result<Layers, String> {
    let l = load(ctx, ctx.seconds * 0.5, false)?;
    record_failures(&l, out);
    let Checked {
        specs,
        wall_s: untraced_s,
        grid_hits,
        grid_misses,
    } = check_answers(ctx, &l, out)?;
    let mut layers = Layers {
        untraced_wall_s: untraced_s,
        spool_bytes: l.spool_bytes,
        queue_high_watermark: stat(&l.stats, "queue_high_watermark"),
        rejected_busy: stat(&l.stats, "rejected_busy"),
        memo_lookups: specs.iter().map(|(s, _)| s.formats.len() as u64).sum(),
        cache_grid_hits: grid_hits,
        cache_grid_misses: grid_misses,
        ..Layers::default()
    };
    let start = Instant::now();
    let mut scratch = EncodeScratch::new();
    let mut matches = true;
    let mut cell = 0u64;
    for (s, want) in &specs {
        let cfg = quick(s.seed);
        let m = tr.span("workloads.gen", None, cell, || {
            s.workload.generate(cfg.suite_max_dim, cfg.seed)
        });
        layers.nnz += sparsemat::Matrix::nnz(&m) as u64;
        let grid = tr
            .span("partition.build", None, cell, || PartitionGrid::new(&m, P))
            .map_err(|e| e.to_string())?;
        let hw = HwConfig {
            partition_size: P,
            ..cfg.hw.clone()
        };
        let mut session = Session::new(hw.clone()).map_err(|e| e.to_string())?;
        let mut off = Session::new(HwConfig {
            verify_functional: false,
            ..hw
        })
        .map_err(|e| e.to_string())?;
        for (fi, &format) in s.formats.iter().enumerate() {
            let outcome = trace_session_cell(
                tr,
                &mut layers,
                None,
                cell,
                &mut session,
                Some(&mut off),
                CellInput::Grid(&grid),
                format,
                CellKind::Plain,
                &mut scratch,
            )?;
            matches &= want.get(fi).is_some_and(|m| m.report == outcome.report);
            cell += 1;
        }
    }
    layers.traced_wall_s = start.elapsed().as_secs_f64();
    out.check("traced cells equal the served ones", matches);
    // The served campaigns ran inside the daemon, out of the trace's reach:
    // campaign.self_pct stays 0 here.
    fold_spans(tr, &mut layers);
    out.details.push(metric(
        "serve.replay_p50_ms",
        median(
            &l.samples
                .iter()
                .filter(|s| s.replay && s.ok)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        ),
        "ms",
    ));
    Ok(layers)
}
