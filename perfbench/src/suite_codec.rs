//! `suite-codec`: the 20 Table-1 stand-ins at the quick cap of 384, all
//! eight formats at p ∈ {8, 16, 32} under each second-stage codec,
//! verification on, the hetero backend, two campaign workers and a
//! checkpoint attached. The second half replays the same calls on the same
//! runner, so every cell is a memo hit. Codecs need real bytes, so a
//! structural fast path is bypassed here: the prediction for it is no
//! change.

use crate::common::{
    another_fits, dir_bytes, fold_spans, peak_rss_mb, robust_rate, trace_session_cell, CellInput,
    CellKind, Ctx, EndToEnd, Layers,
};
use crate::digest::{of_measurements, Digest};
use crate::trace::Tracer;
use crate::Outcome;
use copernicus::{CacheStats, CampaignRunner, ExperimentConfig, Measurement};
use copernicus_hls::{BackendKind, CodecKind, EncodeScratch, HwConfig, Session};
use copernicus_workloads::Workload;
use sparsemat::{FormatKind, PartitionGrid};
use std::path::Path;
use std::time::Instant;

const CAP: usize = 384;
const SIZES: [usize; 3] = [8, 16, 32];
const CODECS: [CodecKind; 3] = [CodecKind::Rle, CodecKind::DeltaVarint, CodecKind::Huffman];
const JOBS: usize = 2;

pub fn config(seed: u64, codec: CodecKind) -> ExperimentConfig {
    ExperimentConfig {
        hw: HwConfig {
            verify_functional: true,
            stream_codec: codec,
            backend: BackendKind::Hetero,
            ..HwConfig::default()
        },
        suite_max_dim: CAP,
        sweep_dim: 192,
        seed,
    }
}

pub struct Rep {
    pub measurements: Vec<Measurement>,
    pub wall_s: f64,
    /// Latency of each computing `characterize` call (the memo half is
    /// not sampled: its calls are lookups, not work).
    pub part_ms: Vec<f64>,
    /// The memo half plus the artifact write, ms.
    pub tail_ms: f64,
    pub cells: u64,
    pub memo_hits: u64,
    pub cache: CacheStats,
    pub artifact_bytes: u64,
    pub replay_matches: bool,
}

/// One cold repetition in `dir` (fresh runner, fresh checkpoint).
pub fn repetition(jobs: usize, seed: u64, dir: &Path) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut runner = CampaignRunner::new(jobs);
    if runner.cached_cells() != 0 {
        return Err("a fresh runner must start with an empty memo".into());
    }
    runner
        .attach_checkpoint(&dir.join("checkpoint.jsonl"))
        .map_err(|e| e.to_string())?;
    let suite = Workload::paper_suite();
    let start = Instant::now();
    let mut measurements = Vec::new();
    let mut part_ms = Vec::new();
    for codec in CODECS {
        let cfg = config(seed, codec);
        for w in &suite {
            let t = Instant::now();
            let ms = runner
                .characterize(&[*w], &FormatKind::CHARACTERIZED, &SIZES, &cfg)
                .map_err(|e| e.to_string())?;
            part_ms.push(t.elapsed().as_secs_f64() * 1e3);
            measurements.extend(ms);
        }
    }
    let computed = runner.cached_cells();
    let tail = Instant::now();
    let mut replayed = Vec::with_capacity(measurements.len());
    for codec in CODECS {
        let cfg = config(seed, codec);
        for w in &suite {
            replayed.extend(
                runner
                    .characterize(&[*w], &FormatKind::CHARACTERIZED, &SIZES, &cfg)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    let artifact = dir.join("measurements.json");
    copernicus_telemetry::atomic_write(&artifact, serde::json::to_string(&measurements))
        .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let tail_ms = tail.elapsed().as_secs_f64() * 1e3;
    let cells = (measurements.len() + replayed.len()) as u64;
    let fresh = (runner.cached_cells() - computed) as u64;
    Ok(Rep {
        replay_matches: replayed == measurements,
        memo_hits: replayed.len() as u64 - fresh,
        cells,
        wall_s,
        part_ms,
        tail_ms,
        cache: runner.workloads().stats(),
        artifact_bytes: dir_bytes(dir),
        measurements,
    })
}

pub fn digest(jobs: usize, seed: u64, dir: &Path) -> Result<Digest, String> {
    Ok(of_measurements(&repetition(jobs, seed, dir)?.measurements))
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    let setup_s = crate::common::probe_setup(ctx)?;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    while another_fits(start, reps.len(), ctx.seconds) {
        let rep = repetition(JOBS, ctx.seed, &ctx.dir.join(format!("rep{}", reps.len())))?;
        out.attempted += rep.cells;
        reps.push(rep);
        if reps.len() == 1 {
            rss_mb = peak_rss_mb(None);
        }
    }
    let first = &reps[0];
    let digest = of_measurements(&first.measurements);
    out.check(
        "repetitions agree",
        reps.iter()
            .all(|r| of_measurements(&r.measurements).hex() == digest.hex()),
    );
    out.check(
        "memo replay equals the computed half",
        reps.iter().all(|r| r.replay_matches),
    );
    out.check(
        "memo and cache counts repeat",
        reps.iter()
            .all(|r| r.cache == first.cache && r.memo_hits == first.memo_hits),
    );
    out.check(
        "every replayed cell is a memo hit",
        first.memo_hits == first.measurements.len() as u64,
    );
    // One codec's first matrix on a single worker must match exactly.
    let cells = FormatKind::CHARACTERIZED.len() * SIZES.len();
    let suite = Workload::paper_suite();
    let again = CampaignRunner::sequential()
        .characterize(
            &suite[..1],
            &FormatKind::CHARACTERIZED,
            &SIZES,
            &config(ctx.seed, CODECS[0]),
        )
        .map_err(|e| e.to_string())?;
    out.check("jobs 2 == jobs 1", again == first.measurements[..cells]);
    out.digest = Some(digest);

    let parts: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.part_ms.iter().copied().chain([r.tail_ms]).collect())
        .collect();
    let parts: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
    Ok(EndToEnd {
        cells_per_s: robust_rate(first.cells as f64, &parts),
        setup_s,
        peak_rss_mb: rss_mb,
    })
}

pub fn trace(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) -> Result<Layers, String> {
    let reference = repetition(JOBS, ctx.seed, &ctx.dir.join("reference"))?;
    out.attempted += reference.cells;
    let mut layers = Layers {
        untraced_wall_s: reference.wall_s,
        cache_grid_hits: reference.cache.grid_hits,
        cache_grid_misses: reference.cache.grid_misses,
        cache_resident_mb: reference.cache.resident_bytes as f64 / (1 << 20) as f64,
        memo_hits: reference.memo_hits,
        memo_lookups: reference.cells,
        artifact_bytes: reference.artifact_bytes,
        ..Layers::default()
    };
    let start = Instant::now();
    let mut scratch = EncodeScratch::new();
    let mut cell = 0u64;
    let mut matches = true;
    // Like the runner's workload cache: each matrix is generated and tiled
    // once, then shared by all three codec sweeps.
    let mut grids = Vec::new();
    for w in Workload::paper_suite() {
        let m = tr.span("workloads.gen", None, cell, || w.generate(CAP, ctx.seed));
        layers.nnz += sparsemat::Matrix::nnz(&m) as u64;
        for p in SIZES {
            grids.push(
                tr.span("partition.build", None, cell, || PartitionGrid::new(&m, p))
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    for codec in CODECS {
        let cfg = config(ctx.seed, codec);
        for unit in grids.chunks(SIZES.len()) {
            for (grid, p) in unit.iter().zip(SIZES) {
                let hw = HwConfig {
                    partition_size: p,
                    ..cfg.hw.clone()
                };
                let mut session = Session::new(hw.clone()).map_err(|e| e.to_string())?;
                let mut off = Session::new(HwConfig {
                    verify_functional: false,
                    ..hw
                })
                .map_err(|e| e.to_string())?;
                for format in FormatKind::CHARACTERIZED {
                    let outcome = trace_session_cell(
                        tr,
                        &mut layers,
                        None,
                        cell,
                        &mut session,
                        Some(&mut off),
                        CellInput::Grid(grid),
                        format,
                        CellKind::Plain,
                        &mut scratch,
                    )?;
                    matches &= reference.measurements[cell as usize].report == outcome.report;
                    cell += 1;
                }
            }
        }
    }
    let artifact = ctx.dir.join("traced-measurements.json");
    let written = tr.span("artifact.write", None, cell, || {
        copernicus_telemetry::atomic_write(
            &artifact,
            serde::json::to_string(&reference.measurements),
        )
    });
    written.map_err(|e| e.to_string())?;
    layers.traced_wall_s = start.elapsed().as_secs_f64();
    out.check("traced cells equal the campaign's", matches);
    fold_spans(tr, &mut layers);
    let session_s = tr.busy_by_name().get("session.run").copied().unwrap_or(0.0);
    layers.campaign_self_s = reference.wall_s
        - (layers.gen_s + layers.partition_s + session_s + layers.artifact_s) / JOBS as f64;
    Ok(layers)
}
