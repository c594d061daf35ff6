//! `paper-structural`: the paper's band sweep plus three random densities at
//! n = 8000, all eight formats at p ∈ {8, 16, 32}, verification off, no
//! codec, the HLS backend, one campaign worker and a fresh runner per
//! repetition. Encode, decompress and partitioning dominate here, so this is
//! where pricing tiles from structure should show.

use crate::common::{
    another_fits, fold_spans, peak_rss_mb, robust_rate, trace_session_cell, CellInput, CellKind,
    Ctx, EndToEnd, Layers,
};
use crate::digest::{of_measurements, Digest};
use crate::trace::Tracer;
use crate::Outcome;
use copernicus::{CacheStats, CampaignRunner, ExperimentConfig, Measurement};
use copernicus_hls::{BackendKind, CodecKind, EncodeScratch, HwConfig, Session};
use copernicus_workloads::Workload;
use sparsemat::{FormatKind, PartitionGrid};
use std::time::Instant;

const N: usize = 8000;
const SIZES: [usize; 3] = [8, 16, 32];
const DENSITIES: [f64; 3] = [1e-4, 1e-3, 1e-2];
const JOBS: usize = 1;

pub fn workloads() -> Vec<Workload> {
    let mut w = Workload::paper_band_sweep(N);
    w.extend(
        DENSITIES
            .iter()
            .map(|&density| Workload::Random { n: N, density }),
    );
    w
}

pub fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        hw: HwConfig {
            verify_functional: false,
            stream_codec: CodecKind::None,
            backend: BackendKind::Hls,
            ..HwConfig::default()
        },
        suite_max_dim: 4096,
        sweep_dim: N,
        seed,
    }
}

/// One cold repetition: a fresh runner, one `characterize` call per matrix
/// and partition size (one campaign unit each, in grid order).
pub struct Rep {
    pub measurements: Vec<Measurement>,
    pub wall_s: f64,
    pub part_ms: Vec<f64>,
    pub cache: CacheStats,
}

pub fn repetition(jobs: usize, seed: u64) -> Result<Rep, String> {
    let cfg = config(seed);
    let runner = CampaignRunner::new(jobs);
    if runner.cached_cells() != 0 {
        return Err("a fresh runner must start with an empty memo".into());
    }
    let mut measurements = Vec::new();
    let mut part_ms = Vec::new();
    let start = Instant::now();
    for w in workloads() {
        for p in SIZES {
            let t = Instant::now();
            let ms = runner
                .characterize(&[w], &FormatKind::CHARACTERIZED, &[p], &cfg)
                .map_err(|e| e.to_string())?;
            part_ms.push(t.elapsed().as_secs_f64() * 1e3);
            measurements.extend(ms);
        }
    }
    Ok(Rep {
        measurements,
        wall_s: start.elapsed().as_secs_f64(),
        part_ms,
        cache: runner.workloads().stats(),
    })
}

/// The pinned-digest input: one repetition's measurements.
pub fn digest(jobs: usize, seed: u64) -> Result<Digest, String> {
    Ok(of_measurements(&repetition(jobs, seed)?.measurements))
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    let setup_s = crate::common::probe_setup(ctx)?;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    while another_fits(start, reps.len(), ctx.seconds) {
        let rep = repetition(JOBS, ctx.seed)?;
        out.attempted += rep.measurements.len() as u64;
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
        "cache counts repeat",
        reps.iter().all(|r| r.cache == first.cache),
    );
    // Host-side parallelism must not move a byte: re-run the narrowest band
    // and the middle density on two workers and compare with repetition 0.
    let all = workloads();
    let cells = FormatKind::CHARACTERIZED.len() * SIZES.len();
    for wi in [0, all.len() - 2] {
        let again = CampaignRunner::new(2)
            .characterize(
                &[all[wi]],
                &FormatKind::CHARACTERIZED,
                &SIZES,
                &config(ctx.seed),
            )
            .map_err(|e| e.to_string())?;
        out.check(
            "jobs 1 == jobs 2",
            again == first.measurements[wi * cells..(wi + 1) * cells],
        );
    }
    out.digest = Some(digest);

    let parts: Vec<&[f64]> = reps.iter().map(|r| r.part_ms.as_slice()).collect();
    Ok(EndToEnd {
        cells_per_s: robust_rate(first.measurements.len() as f64, &parts),
        setup_s,
        peak_rss_mb: rss_mb,
    })
}

pub fn trace(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) -> Result<Layers, String> {
    let reference = repetition(JOBS, ctx.seed)?;
    out.attempted += reference.measurements.len() as u64;
    let mut layers = Layers {
        untraced_wall_s: reference.wall_s,
        cache_grid_hits: reference.cache.grid_hits,
        cache_grid_misses: reference.cache.grid_misses,
        cache_resident_mb: reference.cache.resident_bytes as f64 / (1 << 20) as f64,
        memo_lookups: reference.measurements.len() as u64,
        ..Layers::default()
    };
    let cfg = config(ctx.seed);
    let start = Instant::now();
    let mut scratch = EncodeScratch::new();
    let mut cell = 0u64;
    let mut matches = true;
    for w in workloads() {
        let m = tr.span("workloads.gen", None, cell, || {
            w.generate(cfg.suite_max_dim, cfg.seed)
        });
        layers.nnz += sparsemat::Matrix::nnz(&m) as u64;
        for p in SIZES {
            let grid = tr
                .span("partition.build", None, cell, || PartitionGrid::new(&m, p))
                .map_err(|e| e.to_string())?;
            let mut session = Session::new(HwConfig {
                partition_size: p,
                ..cfg.hw.clone()
            })
            .map_err(|e| e.to_string())?;
            for format in FormatKind::CHARACTERIZED {
                let outcome = trace_session_cell(
                    tr,
                    &mut layers,
                    None,
                    cell,
                    &mut session,
                    None,
                    CellInput::Grid(&grid),
                    format,
                    CellKind::Plain,
                    &mut scratch,
                )?;
                matches &= reference.measurements[cell as usize].report == outcome.report;
                cell += 1;
            }
        }
    }
    layers.traced_wall_s = start.elapsed().as_secs_f64();
    out.check("traced cells equal the campaign's", matches);
    fold_spans(tr, &mut layers);
    let session_s = tr.busy_by_name().get("session.run").copied().unwrap_or(0.0);
    layers.campaign_self_s =
        reference.wall_s - (layers.gen_s + layers.partition_s + session_s) / JOBS as f64;
    Ok(layers)
}
