//! Request specs, jobs, and the worker pool that runs campaigns.
//!
//! Each worker owns its own [`CampaignRunner`] per job (the Session-per-
//! worker layout from the hot-path PR), with the request's deadline token
//! threaded into the campaign policy so an expired deadline cooperatively
//! cancels the unit loop mid-flight. Worker panics are confined to the
//! job: the runner's own `catch_unwind` isolates cell panics, and the
//! reply channel closing on a scheduler bug surfaces as `500` to exactly
//! one client.

use super::protocol::ProtocolError;
use super::ServiceState;
use copernicus::{CampaignError, CampaignPolicy, CampaignRunner, ExperimentConfig};
use copernicus::{FailureKind, Measurement};
use copernicus_hls::HwConfig;
use copernicus_telemetry::CancelToken;
use copernicus_workloads::Workload;
use serde::Value;
use sparsemat::FormatKind;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Cap on formats × partition sizes per request — an admission-time guard
/// so one giant request cannot monopolize a worker past any deadline.
const MAX_CELLS_PER_REQUEST: usize = 256;

/// A parsed `POST /characterize` body.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// Client-supplied idempotency key, if any.
    pub id: Option<String>,
    /// The matrix to characterize.
    pub workload: Workload,
    /// Formats to sweep.
    pub formats: Vec<FormatKind>,
    /// Partition sizes to sweep.
    pub partition_sizes: Vec<usize>,
    /// Workload generator seed.
    pub seed: u64,
    /// Request deadline in milliseconds (queue wait included).
    pub timeout_ms: Option<u64>,
    /// Transient-failure retries granted per cell.
    pub max_retries: u32,
    /// Hardware-model override assembled from the `backend` and `hw`
    /// fields, already validated. `None` keeps the service default
    /// (`HwConfig::default()` — the paper's HLS pipeline).
    pub hw: Option<HwConfig>,
}

/// Every top-level field `POST /characterize` accepts. Anything else is
/// rejected `422` — a typo like `"partion_sizes"` silently falling back to
/// a default is worse than an error.
const SPEC_FIELDS: [&str; 9] = [
    "id",
    "workload",
    "formats",
    "partition_sizes",
    "seed",
    "timeout_ms",
    "max_retries",
    "backend",
    "hw",
];

impl RequestSpec {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] (`400`) when the body is not UTF-8 or
    /// not JSON; [`ProtocolError::Unprocessable`] (`422`) when it is JSON
    /// but semantically invalid — missing/out-of-range fields, unknown
    /// fields, or a hardware override that fails validation.
    pub fn parse(body: &[u8]) -> Result<RequestSpec, ProtocolError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ProtocolError::Malformed("body is not UTF-8".to_string()))?;
        let doc: Value = serde::json::from_str(text)
            .map_err(|e| ProtocolError::Malformed(format!("body is not JSON: {e}")))?;
        Self::from_doc(&doc).map_err(ProtocolError::Unprocessable)
    }

    fn from_doc(doc: &Value) -> Result<RequestSpec, String> {
        let fields = doc.as_map().ok_or("body must be a JSON object")?;
        for (key, _) in fields {
            if !SPEC_FIELDS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field `{key}` (accepted: {})",
                    SPEC_FIELDS.join(", ")
                ));
            }
        }
        let workload = parse_workload(doc.get("workload").ok_or("missing field `workload`")?)?;

        let formats = match doc.get("formats") {
            None => vec![FormatKind::Csr],
            Some(v) => {
                let seq = v.as_seq().ok_or("`formats` must be an array")?;
                if seq.is_empty() {
                    return Err("`formats` must not be empty".to_string());
                }
                seq.iter()
                    .map(|f| {
                        f.as_str()
                            .ok_or_else(|| "`formats` entries must be strings".to_string())
                            .and_then(|s| s.parse::<FormatKind>().map_err(|e| e.to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let partition_sizes = match doc.get("partition_sizes") {
            None => vec![16],
            Some(v) => {
                let seq = v.as_seq().ok_or("`partition_sizes` must be an array")?;
                if seq.is_empty() {
                    return Err("`partition_sizes` must not be empty".to_string());
                }
                seq.iter()
                    .map(|p| {
                        p.as_u64()
                            .filter(|&p| (1..=4096).contains(&p))
                            .map(|p| p as usize)
                            .ok_or_else(|| {
                                "`partition_sizes` entries must be integers in 1..=4096".to_string()
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        if formats.len() * partition_sizes.len() > MAX_CELLS_PER_REQUEST {
            return Err(format!(
                "request sweeps {} cells; the per-request cap is {MAX_CELLS_PER_REQUEST}",
                formats.len() * partition_sizes.len()
            ));
        }
        let id = match doc.get("id") {
            None => None,
            Some(v) => {
                let s = v.as_str().ok_or("`id` must be a string")?;
                validate_id(s)?;
                Some(s.to_string())
            }
        };
        let hw = parse_hw_override(doc)?;
        Ok(RequestSpec {
            id,
            workload,
            formats,
            partition_sizes,
            seed: doc.get("seed").and_then(Value::as_u64).unwrap_or(42),
            timeout_ms: doc.get("timeout_ms").and_then(Value::as_u64),
            max_retries: doc
                .get("max_retries")
                .and_then(Value::as_u64)
                .map(|r| r.min(8) as u32)
                .unwrap_or(0),
            hw,
        })
    }
}

/// Assembles the per-request hardware override from the `backend` string
/// and the `hw` object, both optional. The override starts from
/// `HwConfig::default()` (not the incoming config — requests are
/// self-contained) and is validated as a whole, so an inconsistent
/// combination is rejected before any work is admitted.
fn parse_hw_override(doc: &Value) -> Result<Option<HwConfig>, String> {
    let mut hw: Option<HwConfig> = None;
    if let Some(v) = doc.get("backend") {
        let s = v.as_str().ok_or("`backend` must be a string")?;
        hw.get_or_insert_with(HwConfig::default).backend = s.parse()?;
    }
    if let Some(v) = doc.get("hw") {
        let map = v.as_map().ok_or("`hw` must be an object")?;
        let cfg = hw.get_or_insert_with(HwConfig::default);
        for (key, val) in map {
            match key.as_str() {
                "backend" => {
                    cfg.backend = val.as_str().ok_or("`hw.backend` must be a string")?.parse()?;
                }
                "stream_codec" => {
                    cfg.stream_codec = val
                        .as_str()
                        .ok_or("`hw.stream_codec` must be a string")?
                        .parse()
                        .map_err(|e| format!("bad `hw.stream_codec`: {e}"))?;
                }
                "clock_mhz" => {
                    cfg.clock_mhz = val
                        .as_f64()
                        .filter(|c| c.is_finite())
                        .ok_or("`hw.clock_mhz` must be a number")?;
                }
                "bus_bytes_per_cycle" => {
                    cfg.bus_bytes_per_cycle = val
                        .as_u64()
                        .ok_or("`hw.bus_bytes_per_cycle` must be an integer")?
                        as usize;
                }
                "cpu_clock_mhz" => {
                    cfg.cpu.clock_mhz = val
                        .as_f64()
                        .filter(|c| c.is_finite())
                        .ok_or("`hw.cpu_clock_mhz` must be a number")?;
                }
                "cpu_simd_width" => {
                    cfg.cpu.simd_width = val
                        .as_u64()
                        .ok_or("`hw.cpu_simd_width` must be an integer")?
                        as usize;
                }
                other => {
                    return Err(format!(
                        "unknown field `hw.{other}` (accepted: backend, stream_codec, clock_mhz, bus_bytes_per_cycle, cpu_clock_mhz, cpu_simd_width)"
                    ))
                }
            }
        }
    }
    if let Some(cfg) = &hw {
        cfg.validate()
            .map_err(|e| format!("invalid `hw` override: {e}"))?;
    }
    Ok(hw)
}

/// Request IDs become spool directory names; keep them path-safe.
pub fn validate_id(id: &str) -> Result<(), String> {
    if id.is_empty() || id.len() > 64 {
        return Err("`id` must be 1..=64 characters".to_string());
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err("`id` may only contain [A-Za-z0-9_-]".to_string());
    }
    Ok(())
}

fn parse_workload(v: &Value) -> Result<Workload, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("`workload.kind` must be \"random\" or \"band\"")?;
    let n = v
        .get("n")
        .and_then(Value::as_u64)
        .filter(|&n| (2..=4096).contains(&n))
        .ok_or("`workload.n` must be an integer in 2..=4096")? as usize;
    match kind {
        "random" => {
            let density = v
                .get("density")
                .and_then(Value::as_f64)
                .filter(|d| d.is_finite() && *d > 0.0 && *d <= 1.0)
                .ok_or("`workload.density` must be in (0, 1]")?;
            Ok(Workload::Random { n, density })
        }
        "band" => {
            let width = v
                .get("width")
                .and_then(Value::as_u64)
                .filter(|&w| w >= 1 && w <= n as u64)
                .ok_or("`workload.width` must be an integer in 1..=n")?
                as usize;
            Ok(Workload::Band { n, width })
        }
        other => Err(format!(
            "`workload.kind` must be \"random\" or \"band\", got {other:?}"
        )),
    }
}

/// What a finished job sends back to the waiting connection thread (and
/// writes into the spool).
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// HTTP status to answer with.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// JSON body.
    pub body: String,
}

/// One admitted request.
pub struct Job {
    /// Request id (client-supplied or server-assigned).
    pub id: String,
    /// The parsed spec.
    pub spec: RequestSpec,
    /// Where the answer goes; `None` for spool-recovery jobs replayed at
    /// startup with no client connected.
    pub reply: Option<std::sync::mpsc::Sender<JobOutcome>>,
    /// Deadline token armed at admission — queue wait counts against it.
    pub cancel: CancelToken,
}

/// Runs jobs until the queue closes and empties; then exits (the drain
/// barrier in `serve` waits for `active_jobs` to reach zero).
pub fn worker_loop(state: Arc<ServiceState>) {
    while let Some(job) = state.queue.pop() {
        state.active_jobs.fetch_add(1, Ordering::SeqCst);
        let outcome = execute_job(&state, &job);
        if let Some(dir) = state.spool_dir(&job.id) {
            persist_outcome(&dir, &outcome);
        }
        match outcome.status {
            200 => state.stats.completed.fetch_add(1, Ordering::Relaxed),
            504 => state.stats.timed_out.fetch_add(1, Ordering::Relaxed),
            _ => state.stats.failed.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(reply) = &job.reply {
            // A vanished client (disconnected while queued) is not an
            // error; the result is already durable in the spool.
            let _ = reply.send(outcome);
        }
        state.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Writes `result.json` atomically so a kill mid-write can never leave a
/// torn (and thus unrecoverable) answer.
fn persist_outcome(dir: &std::path::Path, outcome: &JobOutcome) {
    let doc = Value::Map(vec![
        ("status".to_string(), Value::UInt(u64::from(outcome.status))),
        ("body".to_string(), Value::Str(outcome.body.clone())),
    ]);
    let path = dir.join("result.json");
    if let Err(e) = copernicus_telemetry::atomic_write(&path, serde::json::to_string(&doc)) {
        eprintln!("serve: could not persist {}: {e}", path.display());
    }
}

/// Executes one characterization campaign under the job's deadline token.
/// Per-job checkpointing (and resume, for recovery jobs) goes through the
/// campaign checkpoint machinery in the job's spool directory.
fn execute_job(state: &ServiceState, job: &Job) -> JobOutcome {
    let spec = &job.spec;
    let mut cfg = ExperimentConfig {
        seed: spec.seed,
        ..ExperimentConfig::quick()
    };
    if let Some(hw) = &spec.hw {
        // Per-request hardware override, validated at parse time. The
        // campaign still owns partition_size — it rewrites it per cell.
        cfg.hw = hw.clone();
    }
    let policy = CampaignPolicy {
        max_retries: spec.max_retries,
        cancel: Some(job.cancel.clone()),
        ..CampaignPolicy::default()
    };
    let mut runner = CampaignRunner::sequential().with_policy(policy);
    if let Some(dir) = state.spool_dir(&job.id) {
        let checkpoint = dir.join("checkpoint.jsonl");
        if checkpoint.exists() {
            match runner.resume_from(&checkpoint) {
                Ok(n) if n > 0 => eprintln!("serve: job {} resumed {n} cell(s)", job.id),
                Ok(_) => {}
                Err(e) => eprintln!("serve: job {} checkpoint unreadable: {e}", job.id),
            }
        }
        if let Err(e) = runner.attach_checkpoint(&checkpoint) {
            eprintln!("serve: job {} cannot checkpoint: {e}", job.id);
        }
    }
    let workloads = [spec.workload];
    let result = runner.characterize(&workloads, &spec.formats, &spec.partition_sizes, &cfg);
    match result {
        Ok(measurements) => JobOutcome {
            status: 200,
            reason: "OK",
            body: render_result(&job.id, &measurements),
        },
        Err(e) => classify_error(&job.id, &e),
    }
}

fn render_result(id: &str, measurements: &[Measurement]) -> String {
    let doc = Value::Map(vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("status".to_string(), Value::Str("ok".to_string())),
        ("cells".to_string(), Value::UInt(measurements.len() as u64)),
        (
            "measurements".to_string(),
            serde::Serialize::serialize(&measurements.to_vec()),
        ),
    ]);
    serde::json::to_string(&doc)
}

fn classify_error(id: &str, e: &CampaignError) -> JobOutcome {
    let timed_out = e
        .first_failure()
        .is_some_and(|f| f.kind == FailureKind::Timeout);
    let (status, reason, tag) = if timed_out {
        (504u16, "Gateway Timeout", "timeout")
    } else {
        (422u16, "Unprocessable Entity", "error")
    };
    let doc = Value::Map(vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("status".to_string(), Value::Str(tag.to_string())),
        ("error".to_string(), Value::Str(e.to_string())),
    ]);
    JobOutcome {
        status,
        reason,
        body: serde::json::to_string(&doc),
    }
}

/// The deadline token for a spec: expired specs cancel their campaign
/// cooperatively; specs without a deadline get a plain live token.
pub fn deadline_token(spec: &RequestSpec) -> CancelToken {
    let root = CancelToken::new();
    match spec.timeout_ms {
        Some(ms) => root.child(Some(Duration::from_millis(ms))),
        None => root,
    }
}

/// Runs a recovery job for `execute_job` without a live client: used by
/// startup spool recovery, where the outcome lands only in the spool.
pub fn recovery_job(id: String, spec: RequestSpec) -> Job {
    let cancel = deadline_token(&spec);
    Job {
        id,
        spec,
        reply: None,
        cancel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let body = br#"{
            "id": "req-7",
            "workload": {"kind": "random", "n": 48, "density": 0.1},
            "formats": ["CSR", "COO"],
            "partition_sizes": [8, 16],
            "seed": 7,
            "timeout_ms": 2000,
            "max_retries": 2
        }"#;
        let spec = RequestSpec::parse(body).expect("parse");
        assert_eq!(spec.id.as_deref(), Some("req-7"));
        assert_eq!(
            spec.workload,
            Workload::Random {
                n: 48,
                density: 0.1
            }
        );
        assert_eq!(spec.formats, vec![FormatKind::Csr, FormatKind::Coo]);
        assert_eq!(spec.partition_sizes, vec![8, 16]);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.timeout_ms, Some(2000));
        assert_eq!(spec.max_retries, 2);
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec = RequestSpec::parse(br#"{"workload": {"kind": "band", "n": 32, "width": 3}}"#)
            .expect("parse");
        assert!(spec.id.is_none());
        assert_eq!(spec.formats, vec![FormatKind::Csr]);
        assert_eq!(spec.partition_sizes, vec![16]);
        assert_eq!(spec.seed, 42);
        assert!(spec.timeout_ms.is_none());
    }

    #[test]
    fn rejects_bad_specs_with_messages() {
        for (body, needle) in [
            (&b"not json"[..], "not JSON"),
            (b"{}", "workload"),
            (br#"{"workload": {"kind": "cube", "n": 8}}"#, "kind"),
            (
                br#"{"workload": {"kind": "random", "n": 8, "density": 2.0}}"#,
                "density",
            ),
            (
                br#"{"workload": {"kind": "random", "n": 1, "density": 0.5}}"#,
                "workload.n",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 9}}"#,
                "width",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "formats": ["NOPE"]}"#,
                "NOPE",
            ),
            // The §2 variants the paper does not characterize are unknown
            // names, refused before anything is spooled or run.
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "formats": ["SELL"]}"#,
                "SELL",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "formats": ["JDS"]}"#,
                "JDS",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "formats": ["csr", "BCSC"]}"#,
                "BCSC",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "formats": ["DOK"]}"#,
                "DOK",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "partition_sizes": []}"#,
                "partition_sizes",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "id": "../escape"}"#,
                "id",
            ),
        ] {
            let err = RequestSpec::parse(body).expect_err("must fail");
            assert!(
                err.to_string().contains(needle),
                "error {err:?} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn body_shape_errors_are_400_and_content_errors_are_422() {
        // Not JSON at all: a framing-level 400.
        let e = RequestSpec::parse(b"not json").expect_err("must fail");
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e}");
        assert_eq!(e.status(), Some((400, "Bad Request")));
        // Valid JSON, invalid content: 422.
        let e = RequestSpec::parse(b"{}").expect_err("must fail");
        assert!(matches!(e, ProtocolError::Unprocessable(_)), "{e}");
        assert_eq!(e.status(), Some((422, "Unprocessable Entity")));
        let e = RequestSpec::parse(
            br#"{"workload": {"kind": "band", "n": 8, "width": 2}, "formats": ["SELL"]}"#,
        )
        .expect_err("must fail");
        assert_eq!(e.status(), Some((422, "Unprocessable Entity")), "{e}");
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        // A typo'd field name must not silently fall back to a default.
        let err = RequestSpec::parse(
            br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "partion_sizes": [8]}"#,
        )
        .expect_err("typo must fail");
        assert!(matches!(err, ProtocolError::Unprocessable(_)), "{err}");
        assert!(err.to_string().contains("partion_sizes"), "{err}");
        let err = RequestSpec::parse(
            br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "hw": {"warp_drive": 9}}"#,
        )
        .expect_err("unknown hw knob must fail");
        assert!(err.to_string().contains("hw.warp_drive"), "{err}");
    }

    #[test]
    fn backend_and_hw_overrides_parse_and_validate() {
        use copernicus_hls::BackendKind;
        // No override fields: no HwConfig attached.
        let spec = RequestSpec::parse(br#"{"workload": {"kind": "band", "n": 32, "width": 3}}"#)
            .expect("parse");
        assert!(spec.hw.is_none());
        // A bare backend string selects the backend on an otherwise
        // default config.
        let spec = RequestSpec::parse(
            br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "backend": "cpu"}"#,
        )
        .expect("parse");
        let hw = spec.hw.expect("override attached");
        assert_eq!(hw.backend, BackendKind::Cpu);
        assert_eq!(hw.clock_mhz, HwConfig::default().clock_mhz);
        // The hw object tunes individual knobs, backend included.
        let spec = RequestSpec::parse(
            br#"{"workload": {"kind": "band", "n": 32, "width": 3},
                 "hw": {"backend": "hetero", "cpu_clock_mhz": 1000.0, "cpu_simd_width": 8}}"#,
        )
        .expect("parse");
        let hw = spec.hw.expect("override attached");
        assert_eq!(hw.backend, BackendKind::Hetero);
        assert_eq!(hw.cpu.clock_mhz, 1000.0);
        assert_eq!(hw.cpu.simd_width, 8);
        // Invalid overrides are 422 with a field-naming message.
        for (body, needle) in [
            (
                &br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "backend": "gpu"}"#[..],
                "backend",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "hw": {"cpu_simd_width": 0}}"#,
                "simd_width",
            ),
            (
                br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "hw": 7}"#,
                "object",
            ),
        ] {
            let err = RequestSpec::parse(body).expect_err("must fail");
            assert!(matches!(err, ProtocolError::Unprocessable(_)), "{err}");
            assert!(
                err.to_string().contains(needle),
                "error {err} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn overridden_jobs_execute_on_the_requested_backend() {
        // The same workload on hls and cpu must both succeed and produce
        // different modeled cycle totals (different hardware models).
        let run = |body: &[u8], id: &str| {
            let spec = RequestSpec::parse(body).expect("parse");
            let state = ServiceState::for_tests();
            let outcome = execute_job(&state, &recovery_job(id.to_string(), spec));
            assert_eq!(outcome.status, 200, "{}", outcome.body);
            outcome.body
        };
        let hls = run(
            br#"{"workload": {"kind": "random", "n": 24, "density": 0.2}, "partition_sizes": [8]}"#,
            "b-hls",
        );
        let cpu = run(
            br#"{"workload": {"kind": "random", "n": 24, "density": 0.2}, "partition_sizes": [8], "backend": "cpu"}"#,
            "b-cpu",
        );
        let cycles = |body: &str| {
            let doc: Value = serde::json::from_str(body).expect("json");
            doc.get("measurements")
                .and_then(Value::as_seq)
                .and_then(|ms| ms.first())
                .and_then(|m| m.get("report"))
                .and_then(|r| r.get("total_cycles"))
                .and_then(Value::as_u64)
                .expect("total_cycles")
        };
        assert_ne!(cycles(&hls), cycles(&cpu));
    }

    #[test]
    fn id_validation_blocks_path_tricks() {
        assert!(validate_id("ok-id_9").is_ok());
        for bad in ["", "a/b", "a.b", "..", "a b", &"x".repeat(65)] {
            assert!(validate_id(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn expired_deadline_reports_gateway_timeout() {
        let spec = RequestSpec::parse(
            br#"{"workload": {"kind": "band", "n": 32, "width": 3}, "timeout_ms": 0}"#,
        )
        .expect("parse");
        let state = ServiceState::for_tests();
        let job = recovery_job("t-0".to_string(), spec);
        let outcome = execute_job(&state, &job);
        assert_eq!(outcome.status, 504, "{}", outcome.body);
        assert!(outcome.body.contains("timeout"), "{}", outcome.body);
    }

    #[test]
    fn small_job_round_trips_with_measurements() {
        let spec = RequestSpec::parse(
            br#"{"workload": {"kind": "random", "n": 24, "density": 0.2},
                 "formats": ["CSR", "COO"], "partition_sizes": [8]}"#,
        )
        .expect("parse");
        let state = ServiceState::for_tests();
        let job = recovery_job("t-1".to_string(), spec);
        let outcome = execute_job(&state, &job);
        assert_eq!(outcome.status, 200, "{}", outcome.body);
        let doc: Value = serde::json::from_str(&outcome.body).expect("result is JSON");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(doc.get("cells").and_then(Value::as_u64), Some(2));
        assert_eq!(
            doc.get("measurements")
                .and_then(Value::as_seq)
                .map(<[Value]>::len),
            Some(2)
        );
    }
}
