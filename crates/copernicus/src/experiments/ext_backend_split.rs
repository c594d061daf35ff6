//! Beyond-paper extension: the backend crossover. The paper's σ-vs-ratio
//! trade-off is measured on one device; this experiment re-costs the same
//! encoded streams on every hardware backend — the 250 MHz HLS pipeline,
//! the analytical cache-hierarchy CPU, and the per-partition heterogeneous
//! dispatcher — and asks where the winner flips: a format that saturates
//! the FPGA's narrow bus (dense, padded ELL) can be cheaper on the CPU's
//! wide DRAM path, while compute-bound formats (CSC) keep the FPGA ahead.
//! The dispatcher uses the paper's §4.2 balance ratio as its signal, so the
//! figure also shows how much of the gap per-partition dispatch recovers.

use crate::measure::ExperimentConfig;
use crate::table::{eng, f3, TextTable};
use crate::CampaignError;
use copernicus_hls::BackendKind;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// The structural formats compared: the paper's compressed baseline (CSR),
/// the worst-case decompressor (CSC, deeply compute-bound), and the
/// memory-bound extreme (dense).
pub const SPLIT_FORMATS: [FormatKind; 3] = [FormatKind::Csr, FormatKind::Csc, FormatKind::Dense];

/// Every hardware backend, `hls` first (the paper's baseline).
pub const SPLIT_BACKENDS: [BackendKind; 3] = BackendKind::ALL;

/// Partition size for the comparison (the paper's default).
pub const SPLIT_PARTITION: usize = super::DEFAULT_PARTITION;

/// The two split workloads, shared with the compound-scheme figure: a
/// banded matrix and a sparse random one.
pub fn split_workloads(cfg: &ExperimentConfig) -> [Workload; 2] {
    [
        Workload::Band {
            n: cfg.sweep_dim,
            width: 8,
        },
        Workload::Random {
            n: cfg.sweep_dim,
            density: 0.02,
        },
    ]
}

/// One (workload, backend, format) point of the comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackendSplitRow {
    /// Workload label (`w=<width>` or `d=<density>`).
    pub workload: String,
    /// Hardware backend the cell was costed on.
    pub backend: BackendKind,
    /// Structural format.
    pub format: FormatKind,
    /// Decompression overhead σ against that backend's dense baseline.
    pub sigma: f64,
    /// Mean per-partition mem/compute balance ratio (§4.2) — the hetero
    /// dispatch signal.
    pub balance_ratio: f64,
    /// Memory-read stage cycles.
    pub mem_cycles: u64,
    /// Compute stage cycles.
    pub compute_cycles: u64,
    /// End-to-end pipelined cycles (at the backend's clock).
    pub total_cycles: u64,
    /// End-to-end seconds — the cross-backend comparable axis.
    pub total_seconds: f64,
}

/// Runs the backend-split comparison.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<BackendSplitRow>, CampaignError> {
    run_on(
        &crate::CampaignRunner::sequential(),
        cfg,
        &mut crate::Instruments::none(),
    )
}

/// Like [`run`], with campaign instruments attached, executed on `runner`. One
/// runner serves all three backend sub-campaigns: the hardware config (backend
/// included) is part of every memo key, so the sub-campaigns never alias each
/// other's cells and the row stream is byte-identical at any job count.
///
/// # Errors
///
/// See [`run`].
pub fn run_on(
    runner: &crate::CampaignRunner,
    cfg: &ExperimentConfig,
    instruments: &mut crate::Instruments<'_>,
) -> Result<Vec<BackendSplitRow>, CampaignError> {
    let mut rows = Vec::new();
    for backend in SPLIT_BACKENDS {
        let mut cfg_backend = cfg.clone();
        cfg_backend.hw.backend = backend;
        let ms = runner.characterize_with(
            &split_workloads(cfg),
            &SPLIT_FORMATS,
            &[SPLIT_PARTITION],
            &cfg_backend,
            instruments,
        )?;
        rows.extend(ms.iter().map(|m| BackendSplitRow {
            workload: m.workload.clone(),
            backend,
            format: m.format,
            sigma: m.sigma(),
            balance_ratio: m.report.balance_ratio,
            mem_cycles: m.report.total_mem_cycles,
            compute_cycles: m.report.total_compute_cycles,
            total_cycles: m.report.total_cycles,
            total_seconds: m.total_seconds(),
        }));
    }
    Ok(rows)
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    let mut manifest = crate::manifest_for(
        cfg,
        &split_workloads(cfg),
        &SPLIT_FORMATS,
        &[SPLIT_PARTITION],
    )
    .with_note("figure=backend_split");
    manifest.notes.push(format!(
        "backends={}",
        SPLIT_BACKENDS.map(|b| b.to_string()).join(",")
    ));
    manifest
}

/// The fastest backend for each (workload, format) cell, in row order —
/// the crossover the figure is about.
pub fn winners(rows: &[BackendSplitRow]) -> Vec<(String, FormatKind, BackendKind)> {
    let mut out: Vec<(String, FormatKind, BackendKind)> = Vec::new();
    for r in rows {
        if out
            .iter()
            .any(|(w, f, _)| *w == r.workload && *f == r.format)
        {
            continue;
        }
        let best = rows
            .iter()
            .filter(|c| c.workload == r.workload && c.format == r.format)
            .min_by(|a, b| {
                a.total_seconds
                    .partial_cmp(&b.total_seconds)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        if let Some(best) = best {
            out.push((r.workload.clone(), r.format, best.backend));
        }
    }
    out
}

/// Renders the rows as an aligned table, with a winner summary below.
pub fn render(rows: &[BackendSplitRow]) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "backend",
        "format",
        "sigma",
        "balance",
        "mem_cyc",
        "comp_cyc",
        "total_cyc",
        "time_s",
    ]);
    for r in rows {
        t.row(&[
            r.workload.clone(),
            r.backend.to_string(),
            r.format.to_string(),
            f3(r.sigma),
            f3(r.balance_ratio),
            eng(r.mem_cycles as f64),
            eng(r.compute_cycles as f64),
            eng(r.total_cycles as f64),
            format!("{:.6}", r.total_seconds),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    for (workload, format, backend) in winners(rows) {
        out.push_str(&format!("fastest {workload} {format}: {backend}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    fn rows() -> Vec<BackendSplitRow> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn find(
        rows: &[BackendSplitRow],
        band: bool,
        backend: BackendKind,
        format: FormatKind,
    ) -> &BackendSplitRow {
        rows.iter()
            .find(|r| {
                r.workload.starts_with(if band { "w=" } else { "d=" })
                    && r.backend == backend
                    && r.format == format
            })
            .unwrap()
    }

    #[test]
    fn covers_every_workload_backend_format_cell() {
        assert_eq!(rows().len(), 2 * SPLIT_BACKENDS.len() * SPLIT_FORMATS.len());
    }

    #[test]
    fn hls_rows_match_the_default_backend() {
        // The hls sub-campaign must be bit-identical to a plain (default
        // config) characterization — the trait refactor changed nothing.
        let cfg = ExperimentConfig::quick();
        let rows = rows();
        let plain = crate::CampaignRunner::sequential()
            .characterize(
                &split_workloads(&cfg),
                &SPLIT_FORMATS,
                &[SPLIT_PARTITION],
                &cfg,
            )
            .unwrap();
        for m in &plain {
            let row = rows
                .iter()
                .find(|r| {
                    r.backend == BackendKind::Hls
                        && r.workload == m.workload
                        && r.format == m.format
                })
                .unwrap();
            assert_eq!(row.total_cycles, m.report.total_cycles, "{row:?}");
            assert_eq!(row.sigma, m.sigma(), "{row:?}");
        }
    }

    #[test]
    fn dense_is_memory_bound_on_hls_and_the_dispatcher_reacts() {
        let rows = rows();
        let hls = find(&rows, true, BackendKind::Hls, FormatKind::Dense);
        assert!(
            hls.balance_ratio > 1.0,
            "dense should be memory-bound on the FPGA: {hls:?}"
        );
        // Hetero reroutes exactly those partitions, shrinking the memory
        // stage relative to pure HLS (cycles share the 250 MHz domain).
        let het = find(&rows, true, BackendKind::Hetero, FormatKind::Dense);
        assert!(het.mem_cycles < hls.mem_cycles, "{het:?} vs {hls:?}");
    }

    #[test]
    fn the_crossover_exists() {
        // The figure's point: neither device wins everywhere.
        let rows = rows();
        let winning: std::collections::BTreeSet<String> = winners(&rows)
            .into_iter()
            .map(|(_, _, b)| b.to_string())
            .collect();
        assert!(
            winning.len() > 1,
            "expected a crossover, got one winner: {winning:?}"
        );
    }

    #[test]
    fn rows_are_deterministic() {
        assert_eq!(rows(), rows());
    }

    #[test]
    fn render_includes_the_winner_summary() {
        let rendered = render(&rows());
        assert!(rendered.contains("fastest"));
        assert!(rendered.contains("hls") || rendered.contains("cpu"));
    }
}
