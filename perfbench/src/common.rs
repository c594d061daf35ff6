//! What every workload shares: run context, the metric sets, set-up probes,
//! memory readings and the traced replay of one session cell.

use crate::trace::{replay_cell, LayerCounts, Totals, Tracer};
use copernicus_hls::{EncodeScratch, RunOutcome, RunRequest, Session};
use sparsemat::{Coo, FormatKind, PartitionGrid};
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Private scratch directory inside the checkout, removed at the end.
    pub dir: PathBuf,
}

/// The run's end-to-end numbers.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub cells_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// Every per-layer metric. A workload that never reaches a layer leaves its
/// counters at zero; times of such layers are reported as shares (`_pct`),
/// so a zero there means "not on this workload's path".
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_s: f64,
    pub nnz: u64,
    pub partition_s: f64,
    pub cache_grid_hits: u64,
    pub cache_grid_misses: u64,
    pub cache_resident_mb: f64,
    pub counts: LayerCounts,
    pub encode_s: f64,
    pub codec_s: f64,
    pub decomp_s: f64,
    pub verify_s: f64,
    pub backend_s: f64,
    pub session_self_s: f64,
    pub spmv_s: f64,
    pub lanes_self_s: f64,
    pub pool_busy_s: f64,
    pub pool_capacity_s: f64,
    pub campaign_self_s: f64,
    pub memo_hits: u64,
    pub memo_lookups: u64,
    pub artifact_s: f64,
    pub artifact_bytes: u64,
    pub spool_bytes: u64,
    pub queue_high_watermark: u64,
    pub rejected_busy: u64,
    /// Wall of the untraced execution the traced replay mirrors.
    pub untraced_wall_s: f64,
    /// Wall of the traced replay.
    pub traced_wall_s: f64,
    /// Σ span self time of the traced replay.
    pub traced_self_s: f64,
    /// Replayed cells whose summed tile timings disagreed with the report.
    pub unfaithful_cells: u64,
    pub cells: u64,
}

/// A named value with its unit, as printed and as emitted in JSON.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metric set (`--trace 0`), in `BENCHMARK.json` order.
pub fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    vec![
        metric("cells_per_s", e.cells_per_s, "1/s"),
        metric("setup_s", e.setup_s, "s"),
        metric("peak_rss_mb", e.peak_rss_mb, "MB"),
    ]
}

/// The per-layer metric set (`--trace 1`), in `BENCHMARK.json` order.
pub fn per_layer_metrics(l: &Layers) -> Vec<Metric> {
    let wall = l.traced_wall_s.max(1e-12);
    let pct = |s: f64| 100.0 * s / wall;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &l.counts;
    vec![
        metric("workloads.gen_s", l.gen_s, "s"),
        metric("workloads.nnz", l.nnz as f64, "count"),
        metric("partition.build_s", l.partition_s, "s"),
        metric("partition.tiles", c.tiles as f64, "count"),
        metric("cache.grid_hits", l.cache_grid_hits as f64, "count"),
        metric("cache.grid_misses", l.cache_grid_misses as f64, "count"),
        metric("cache.resident_mb", l.cache_resident_mb, "MB"),
        metric("encode.busy_s", l.encode_s, "s"),
        metric(
            "encode.structural_bytes",
            c.structural_bytes as f64,
            "bytes",
        ),
        metric("codec.busy_pct", pct(l.codec_s), "%"),
        metric("codec.coded_bytes", c.coded_bytes as f64, "bytes"),
        metric(
            "codec.shrunk_ratio",
            ratio(c.streams_shrunk, c.streams),
            "ratio",
        ),
        metric("decomp.busy_s", l.decomp_s, "s"),
        metric("decomp.rows_emitted", c.rows_emitted as f64, "count"),
        metric("decomp.bram_reads", c.bram_reads as f64, "count"),
        metric("verify.busy_pct", pct(l.verify_s), "%"),
        metric("backend.busy_s", l.backend_s, "s"),
        metric("backend.cpu_share", ratio(c.cpu_tiles, c.tiles), "ratio"),
        metric("session.self_s", l.session_self_s, "s"),
        metric("session.spmv_pct", pct(l.spmv_s), "%"),
        metric("session.lanes_pct", pct(l.lanes_self_s), "%"),
        metric(
            "session.tile_pool_util",
            if l.pool_capacity_s > 0.0 {
                l.pool_busy_s / l.pool_capacity_s
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "campaign.self_pct",
            if l.untraced_wall_s > 0.0 {
                100.0 * l.campaign_self_s / l.untraced_wall_s
            } else {
                0.0
            },
            "%",
        ),
        metric("campaign.memo_hits", l.memo_hits as f64, "count"),
        metric(
            "campaign.memo_hit_ratio",
            ratio(l.memo_hits, l.memo_lookups),
            "ratio",
        ),
        metric("artifact.write_pct", pct(l.artifact_s), "%"),
        metric("artifact.bytes", l.artifact_bytes as f64, "bytes"),
        metric("serve.spool_bytes", l.spool_bytes as f64, "bytes"),
        metric(
            "serve.queue_high_watermark",
            l.queue_high_watermark as f64,
            "count",
        ),
        metric("serve.rejected_busy", l.rejected_busy as f64, "count"),
        metric("trace.coverage", l.traced_self_s / wall, "ratio"),
        metric(
            "trace.overhead_pct",
            if l.untraced_wall_s > 0.0 {
                100.0 * (l.traced_wall_s / l.untraced_wall_s - 1.0)
            } else {
                0.0
            },
            "%",
        ),
    ]
}

/// Whether another repetition still fits in the `seconds` measuring window
/// (at the mean pace so far); the first always runs.
pub fn another_fits(start: Instant, reps: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    reps == 0 || elapsed * (reps + 1) as f64 / reps as f64 <= seconds
}

/// Cells per second of a typical repetition: the median of each timed part
/// (in ms) across repetitions, summed. A burst of host interference then
/// moves only the parts it overlapped, not a whole repetition.
pub fn robust_rate(cells_per_rep: f64, reps: &[&[f64]]) -> f64 {
    let parts = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    let ms: f64 = (0..parts)
        .map(|j| crate::stats::median(&reps.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .sum();
    if ms > 0.0 {
        cells_per_rep * 1e3 / ms
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB; 0.0 when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of set-ups each run times; `setup_s` is their median.
pub const SETUP_PROBES: usize = 9;

/// Times `SETUP_PROBES` fresh processes, each going from exec to the point
/// where the workload's first timed call would start, and returns the
/// median in seconds.
pub fn probe_setup(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                &ctx.workload,
                "--seed",
                &ctx.seed.to_string(),
            ])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
        if !status.success() {
            return Err(format!("set-up probe failed: {status}"));
        }
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&samples))
}

/// How one traced session cell runs.
#[derive(Debug, Clone, Copy)]
pub enum CellKind<'a> {
    Plain,
    Spmv(&'a [f32]),
    Lanes(usize),
}

/// Where a traced cell's input comes from: a shared grid, or a raw matrix
/// the session tiles itself (then `grid` is the benchmark's own tiling for
/// the replay, and `partition_s` what building it took).
#[derive(Debug, Clone, Copy)]
pub enum CellInput<'a> {
    Grid(&'a PartitionGrid<f32>),
    Matrix {
        matrix: &'a Coo<f32>,
        grid: &'a PartitionGrid<f32>,
        partition_s: f64,
    },
}

/// Runs one cell through `Session::run` (one span), the same request with
/// verification off when `session_off` is given (one span), then replays it
/// tile by tile. Folds the layer times into `layers` and returns the
/// session's outcome. The replayed tile timings must sum to the session's
/// report, and a replayed SpMV must reproduce its `y` bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn trace_session_cell(
    tr: &mut Tracer,
    layers: &mut Layers,
    parent: Option<usize>,
    cell: u64,
    session: &mut Session,
    session_off: Option<&mut Session>,
    input: CellInput<'_>,
    format: FormatKind,
    kind: CellKind<'_>,
    scratch: &mut EncodeScratch,
) -> Result<RunOutcome, String> {
    let request = || {
        let r = match input {
            CellInput::Grid(g) => RunRequest::grid(g, format),
            CellInput::Matrix { matrix, .. } => RunRequest::matrix(matrix, format),
        };
        match kind {
            CellKind::Plain => r,
            CellKind::Spmv(x) => r.consume_spmv(x),
            CellKind::Lanes(n) => r.with_lanes(n),
        }
    };
    let t0 = tr.now_ns();
    let out = tr
        .span("session.run", parent, cell, || session.run(request()))
        .map_err(|e| format!("{format}: {e}"))?;
    let run_s = (tr.now_ns() - t0) as f64 * 1e-9;
    let base_s = match session_off {
        Some(off) => {
            let t1 = tr.now_ns();
            tr.span("verify.off_run", parent, cell, || off.run(request()))
                .map_err(|e| format!("{format}: {e}"))?;
            let off_s = (tr.now_ns() - t1) as f64 * 1e-9;
            layers.verify_s += run_s - off_s;
            off_s
        }
        None => run_s,
    };
    let (grid, partition_s) = match input {
        CellInput::Grid(g) => (g, 0.0),
        CellInput::Matrix {
            grid, partition_s, ..
        } => (grid, partition_s),
    };
    let mut y = match kind {
        CellKind::Spmv(_) => Some(vec![0.0f32; grid.shape().0]),
        _ => None,
    };
    let spmv = match (kind, y.as_mut()) {
        (CellKind::Spmv(x), Some(y)) => Some((x, y.as_mut_slice())),
        _ => None,
    };
    let rid = tr.open("replay", parent, cell);
    let cfg = session.config().clone();
    let replay = replay_cell(tr, rid, cell, grid, format, &cfg, scratch, spmv)?;
    tr.close(rid);

    layers.cells += 1;
    layers.counts.add(&replay.counts);
    let faithful = replay.totals.matches(&Totals::of_report(&out.report))
        && match (&y, &out.y) {
            (Some(a), Some(b)) => a
                .iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits())),
            (None, None) => true,
            _ => false,
        };
    layers.unfaithful_cells += u64::from(!faithful);
    let jobs = session.tile_jobs() as f64;
    let self_s = base_s - partition_s - replay.layer_busy_s / jobs;
    layers.session_self_s += self_s;
    if let CellKind::Lanes(_) = kind {
        layers.lanes_self_s += self_s;
    }
    layers.pool_busy_s += replay.layer_busy_s;
    layers.pool_capacity_s += jobs * (base_s - partition_s);
    Ok(out)
}

/// Folds the traced replay's per-layer busy totals into `layers`.
pub fn fold_spans(tr: &Tracer, layers: &mut Layers) {
    let busy = tr.busy_by_name();
    let get = |n: &str| busy.get(n).copied().unwrap_or(0.0);
    layers.gen_s += get("workloads.gen");
    layers.partition_s += get("partition.build");
    layers.encode_s += get("encode");
    // The codec span re-runs the encode with the codec on; its cost is the
    // difference to the plain encode of the same tiles.
    if get("codec") > 0.0 {
        layers.codec_s += get("codec") - get("encode");
    }
    layers.decomp_s += get("decomp");
    layers.spmv_s += get("session.spmv");
    layers.backend_s += get("backend");
    layers.artifact_s += get("artifact.write");
    layers.traced_self_s += tr.total_self_s();
}

/// Σ size of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
