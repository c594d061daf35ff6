//! `spmv-tiles`: stand-ins 2C (FEM-3D), EO (road mesh), LJ (power law) and
//! FR (circuit) at cap 4096, one `Session` per p ∈ {16, 32} with two tile
//! workers. Each format runs once consuming an SpMV operand (`y` checked
//! against `Matrix::spmv`) and once on four aggregated lanes. The only
//! workload on the tile pool, SpMV consumption and lanes; it skips the
//! campaign layer.

use crate::common::{
    another_fits, fold_spans, peak_rss_mb, robust_rate, trace_session_cell, CellInput, CellKind,
    Ctx, EndToEnd, Layers,
};
use crate::digest::Digest;
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::Outcome;
use copernicus_hls::{EncodeScratch, HwConfig, RunRequest, Session};
use copernicus_workloads::{SuiteMatrix, Workload};
use sparsemat::{Coo, FormatKind, Matrix, PartitionGrid};
use std::time::Instant;

const IDS: [&str; 4] = ["2C", "EO", "LJ", "FR"];
const CAP: usize = 4096;
const SIZES: [usize; 2] = [16, 32];
const LANES: usize = 4;
const TILE_JOBS: usize = 2;

/// The generated inputs: matrices, operands and reference products.
pub struct Inputs {
    pub workloads: Vec<Workload>,
    pub matrices: Vec<Coo<f32>>,
    pub xs: Vec<Vec<f32>>,
    pub reference: Vec<Vec<f32>>,
}

pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let workloads: Vec<Workload> = IDS
        .iter()
        .map(|id| SuiteMatrix::by_id(id).map(Workload::Suite))
        .collect::<Option<_>>()
        .ok_or("a stand-in id is missing from the suite")?;
    let matrices: Vec<Coo<f32>> = workloads.iter().map(|w| w.generate(CAP, seed)).collect();
    let mut rng = SplitMix::new(seed, 3);
    let xs: Vec<Vec<f32>> = matrices
        .iter()
        .map(|m| {
            (0..m.ncols())
                .map(|_| (rng.below(17) as f32 - 8.0) * 0.125)
                .collect()
        })
        .collect();
    let reference = matrices
        .iter()
        .zip(&xs)
        .map(|(m, x)| m.spmv(x).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Inputs {
        workloads,
        matrices,
        xs,
        reference,
    })
}

/// `y` agrees with the reference product up to f32 reassociation.
fn close(y: &[f32], reference: &[f32]) -> bool {
    y.len() == reference.len()
        && y.iter()
            .zip(reference)
            .all(|(a, b)| (a - b).abs() <= 1e-3 * (1.0 + b.abs()))
}

pub struct Rep {
    pub wall_s: f64,
    pub part_ms: Vec<f64>,
    pub runs: u64,
    pub digest: Digest,
    pub spmv_ok: bool,
}

/// One repetition on fresh sessions.
pub fn repetition(inp: &Inputs, tile_jobs: usize) -> Result<Rep, String> {
    let mut digest = Digest::default();
    let mut part_ms = Vec::new();
    let mut spmv_ok = true;
    let start = Instant::now();
    for p in SIZES {
        let mut session = Session::new(HwConfig::with_partition_size(p))
            .map_err(|e| e.to_string())?
            .with_tile_jobs(tile_jobs);
        for (mi, m) in inp.matrices.iter().enumerate() {
            for format in FormatKind::CHARACTERIZED {
                let t = Instant::now();
                let out = session
                    .run(RunRequest::matrix(m, format).consume_spmv(&inp.xs[mi]))
                    .map_err(|e| format!("{format}: {e}"))?;
                part_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let y = out.y.unwrap_or_default();
                spmv_ok &= close(&y, &inp.reference[mi]);
                digest.report(&out.report);
                digest.vector(&y);

                let t = Instant::now();
                let out = session
                    .run(RunRequest::matrix(m, format).with_lanes(LANES))
                    .map_err(|e| format!("{format}: {e}"))?;
                part_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match &out.parallel {
                    Some(par) => digest.parallel(par),
                    None => spmv_ok = false,
                }
            }
        }
    }
    Ok(Rep {
        wall_s: start.elapsed().as_secs_f64(),
        runs: part_ms.len() as u64,
        part_ms,
        digest,
        spmv_ok,
    })
}

pub fn digest(tile_jobs: usize, seed: u64) -> Result<Digest, String> {
    Ok(repetition(&inputs(seed)?, tile_jobs)?.digest)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    let setup_s = crate::common::probe_setup(ctx)?;
    let inp = inputs(ctx.seed)?;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    while another_fits(start, reps.len(), ctx.seconds) {
        let rep = repetition(&inp, TILE_JOBS)?;
        out.attempted += rep.runs;
        reps.push(rep);
        if reps.len() == 1 {
            rss_mb = peak_rss_mb(None);
        }
    }
    let digest = reps[0].digest.clone();
    out.check(
        "repetitions agree",
        reps.iter().all(|r| r.digest.hex() == digest.hex()),
    );
    out.check("y matches Matrix::spmv", reps.iter().all(|r| r.spmv_ok));
    let serial = repetition(&inp, 1)?;
    out.check(
        "tile_jobs 2 == tile_jobs 1",
        serial.digest.hex() == digest.hex(),
    );
    out.digest = Some(digest);
    let parts: Vec<&[f64]> = reps.iter().map(|r| r.part_ms.as_slice()).collect();
    Ok(EndToEnd {
        cells_per_s: robust_rate(reps[0].runs as f64, &parts),
        setup_s,
        peak_rss_mb: rss_mb,
    })
}

pub fn trace(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) -> Result<Layers, String> {
    let inp = inputs(ctx.seed)?;
    let reference = repetition(&inp, TILE_JOBS)?;
    out.attempted += reference.runs;
    let mut layers = Layers {
        untraced_wall_s: reference.wall_s,
        ..Layers::default()
    };
    let start = Instant::now();
    let mut scratch = EncodeScratch::new();
    let mut digest = Digest::default();
    let mut cell = 0u64;
    for p in SIZES {
        let hw = HwConfig::with_partition_size(p);
        let mut session = Session::new(hw.clone())
            .map_err(|e| e.to_string())?
            .with_tile_jobs(TILE_JOBS);
        let mut off = Session::new(HwConfig {
            verify_functional: false,
            ..hw
        })
        .map_err(|e| e.to_string())?
        .with_tile_jobs(TILE_JOBS);
        for (mi, w) in inp.workloads.iter().enumerate() {
            let m = tr.span("workloads.gen", None, cell, || w.generate(CAP, ctx.seed));
            layers.nnz += m.nnz() as u64;
            let t = tr.now_ns();
            let grid = tr
                .span("partition.build", None, cell, || PartitionGrid::new(&m, p))
                .map_err(|e| e.to_string())?;
            let partition_s = (tr.now_ns() - t) as f64 * 1e-9;
            let input = CellInput::Matrix {
                matrix: &m,
                grid: &grid,
                partition_s,
            };
            for format in FormatKind::CHARACTERIZED {
                for kind in [CellKind::Spmv(&inp.xs[mi]), CellKind::Lanes(LANES)] {
                    let outcome = trace_session_cell(
                        tr,
                        &mut layers,
                        None,
                        cell,
                        &mut session,
                        Some(&mut off),
                        input,
                        format,
                        kind,
                        &mut scratch,
                    )?;
                    match (&outcome.y, &outcome.parallel) {
                        (Some(y), _) => {
                            digest.report(&outcome.report);
                            digest.vector(y);
                        }
                        (None, Some(par)) => digest.parallel(par),
                        (None, None) => {}
                    }
                    cell += 1;
                }
            }
        }
    }
    layers.traced_wall_s = start.elapsed().as_secs_f64();
    out.check(
        "traced runs equal the untraced ones",
        digest.hex() == reference.digest.hex(),
    );
    fold_spans(tr, &mut layers);
    Ok(layers)
}
