//! Fig. 9 — throughput vs total processing time for an `n×n` matrix per
//! format, with one line per partition size (the paper draws thicker lines
//! for larger partitions) and density as the parameter along each line.

use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{eng, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One point along a Fig.-9 line.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig09Row {
    /// Format (sub-figure a–g).
    pub format: FormatKind,
    /// Partition size (line thickness).
    pub partition_size: usize,
    /// Density of the random matrix at this point.
    pub density: f64,
    /// Total time to process the matrix, in seconds.
    pub total_seconds: f64,
    /// Throughput in bytes per second.
    pub throughput_bps: f64,
}

/// Runs the Fig.-9 campaign: the random density sweep at `cfg.sweep_dim`
/// (the paper's 8000×8000) across formats and partition sizes.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig09Row>, CampaignError> {
    run_on(
        &crate::CampaignRunner::sequential(),
        cfg,
        &mut crate::Instruments::none(),
    )
}

/// Like [`run`], with campaign instruments attached, executed on `runner`: the
/// grid runs across the runner's worker threads and overlapping cells are
/// served from its memoization cache, with rows identical — order and bytes —
/// to the sequential path.
///
/// # Errors
///
/// See [`run`].
pub fn run_on(
    runner: &crate::CampaignRunner,
    cfg: &ExperimentConfig,
    instruments: &mut crate::Instruments<'_>,
) -> Result<Vec<Fig09Row>, CampaignError> {
    let workloads = Workload::paper_random_sweep(cfg.sweep_dim);
    let ms = runner.characterize_with(
        &workloads,
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
        cfg,
        instruments,
    )?;
    Ok(from_measurements(&ms))
}

/// Converts a campaign's random-class measurements into Fig.-9 points.
pub fn from_measurements(ms: &[Measurement]) -> Vec<Fig09Row> {
    ms.iter()
        .filter(|m| m.class == copernicus_workloads::WorkloadClass::Random)
        .map(|m| Fig09Row {
            format: m.format,
            partition_size: m.partition_size,
            density: m.density,
            total_seconds: m.total_seconds(),
            throughput_bps: m.throughput(),
        })
        .collect()
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    crate::manifest_for(
        cfg,
        &Workload::paper_random_sweep(cfg.sweep_dim),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
    )
    .with_note("figure=fig09")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig09Row]) -> String {
    let mut t = TextTable::new(&["format", "p", "density", "time_s", "throughput_B/s"]);
    for r in rows {
        t.row(&[
            r.format.to_string(),
            r.partition_size.to_string(),
            format!("{:.4}", r.density),
            format!("{:.6}", r.total_seconds),
            eng(r.throughput_bps),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig09Row> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn max_throughput(rows: &[Fig09Row], f: FormatKind) -> f64 {
        rows.iter()
            .filter(|r| r.format == f)
            .map(|r| r.throughput_bps)
            .fold(0.0, f64::max)
    }

    #[test]
    fn covers_sweep_formats_sizes() {
        assert_eq!(rows().len(), 8 * 8 * 3);
    }

    #[test]
    fn bcsr_lil_dia_reach_the_highest_throughput() {
        // §6.3: "BCSR, LIL, and DIA reach a higher throughput compared to
        // the other four formats."
        let rows = rows();
        let high = [FormatKind::Bcsr, FormatKind::Lil, FormatKind::Dia]
            .iter()
            .map(|&f| max_throughput(&rows, f))
            .fold(0.0, f64::max);
        for f in [FormatKind::Csr, FormatKind::Csc, FormatKind::Coo] {
            assert!(
                high > max_throughput(&rows, f),
                "{f} outruns the BCSR/LIL/DIA group"
            );
        }
    }

    #[test]
    fn larger_partitions_raise_throughput_for_most_formats() {
        // §6.3: "for all formats but CSC, increasing partition size results
        // in higher throughput."
        let rows = rows();
        for f in [
            FormatKind::Bcsr,
            FormatKind::Lil,
            FormatKind::Ell,
            FormatKind::Dia,
        ] {
            let t8: f64 = rows
                .iter()
                .filter(|r| r.format == f && r.partition_size == 8)
                .map(|r| r.throughput_bps)
                .fold(0.0, f64::max);
            let t32: f64 = rows
                .iter()
                .filter(|r| r.format == f && r.partition_size == 32)
                .map(|r| r.throughput_bps)
                .fold(0.0, f64::max);
            assert!(t32 > t8 * 0.9, "{f}: p=8 {t8} vs p=32 {t32}");
        }
    }

    #[test]
    fn time_grows_with_density_for_every_format() {
        let rows = rows();
        for f in FormatKind::CHARACTERIZED {
            let sparse: f64 = rows
                .iter()
                .filter(|r| r.format == f && r.partition_size == 16 && r.density <= 0.001)
                .map(|r| r.total_seconds)
                .sum();
            let dense: f64 = rows
                .iter()
                .filter(|r| r.format == f && r.partition_size == 16 && r.density >= 0.3)
                .map(|r| r.total_seconds)
                .sum();
            assert!(dense > sparse, "{f}");
        }
    }
}
