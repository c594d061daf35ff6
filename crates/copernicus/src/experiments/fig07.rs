//! Fig. 7 — average σ of the seven formats for the three workload classes
//! (SuiteSparse, random, band) at partition sizes 8, 16 and 32.

use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::{Workload, WorkloadClass};
use sparsemat::FormatKind;

/// One bar of Fig. 7: a format's mean σ within one class at one partition
/// size.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig07Row {
    /// Workload class.
    pub class: WorkloadClass,
    /// Partition size.
    pub partition_size: usize,
    /// Format.
    pub format: FormatKind,
    /// Mean σ over the class's workloads.
    pub mean_sigma: f64,
}

/// The union of the paper's three workload sweeps, used by Figs. 7, 8, 12
/// and 14.
pub fn all_class_workloads(cfg: &ExperimentConfig) -> Vec<Workload> {
    let mut out = Workload::paper_suite();
    out.extend(Workload::paper_random_sweep(cfg.sweep_dim));
    out.extend(Workload::paper_band_sweep(cfg.sweep_dim));
    out
}

/// Aggregates measurements into Fig.-7 rows.
pub fn aggregate(ms: &[Measurement]) -> Vec<Fig07Row> {
    let mut rows = Vec::new();
    for class in [
        WorkloadClass::SuiteSparse,
        WorkloadClass::Random,
        WorkloadClass::Band,
    ] {
        for &p in &super::FIGURE_PARTITION_SIZES {
            for format in FormatKind::CHARACTERIZED {
                let sigmas: Vec<f64> = ms
                    .iter()
                    .filter(|m| m.class == class && m.partition_size == p && m.format == format)
                    .map(Measurement::sigma)
                    .collect();
                if sigmas.is_empty() {
                    continue;
                }
                rows.push(Fig07Row {
                    class,
                    partition_size: p,
                    format,
                    mean_sigma: sigmas.iter().sum::<f64>() / sigmas.len() as f64,
                });
            }
        }
    }
    rows
}

/// Runs the full Fig.-7 campaign.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig07Row>, CampaignError> {
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
) -> Result<Vec<Fig07Row>, CampaignError> {
    let ms = runner.characterize_with(
        &all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
        cfg,
        instruments,
    )?;
    Ok(aggregate(&ms))
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    crate::manifest_for(
        cfg,
        &all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
    )
    .with_note("figure=fig07")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig07Row]) -> String {
    let mut t = TextTable::new(&["class", "p", "format", "mean_sigma"]);
    for r in rows {
        t.row(&[
            r.class.to_string(),
            r.partition_size.to_string(),
            r.format.to_string(),
            f3(r.mean_sigma),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig07Row> {
        aggregate(crate::testsupport::campaign())
    }

    fn mean(rows: &[Fig07Row], class: WorkloadClass, p: usize, f: FormatKind) -> f64 {
        rows.iter()
            .find(|r| r.class == class && r.partition_size == p && r.format == f)
            .unwrap()
            .mean_sigma
    }

    #[test]
    fn covers_classes_sizes_formats() {
        assert_eq!(rows().len(), 3 * 3 * 8);
    }

    #[test]
    fn dense_is_exactly_one_everywhere() {
        for r in rows().iter().filter(|r| r.format == FormatKind::Dense) {
            assert!((r.mean_sigma - 1.0).abs() < 1e-12, "{r:?}");
        }
    }

    #[test]
    fn ell_sigma_decreases_as_partition_size_increases() {
        // §6.1: "the computation latency of ELL decreases as the partition
        // size increases" (relative to dense) because the six-wide squares
        // shrink relative to the partition.
        let rows = rows();
        for class in [WorkloadClass::SuiteSparse, WorkloadClass::Band] {
            let s8 = mean(&rows, class, 8, FormatKind::Ell);
            let s32 = mean(&rows, class, 32, FormatKind::Ell);
            assert!(s32 < s8, "{class}: ELL σ p=8 {s8} vs p=32 {s32}");
        }
    }

    #[test]
    fn csc_is_worst_in_every_class_and_size() {
        let rows = rows();
        for r in &rows {
            if r.format == FormatKind::Csc {
                for other in FormatKind::CHARACTERIZED {
                    let o = mean(&rows, r.class, r.partition_size, other);
                    assert!(r.mean_sigma >= o - 1e-9, "{:?} vs {other}", r);
                }
            }
        }
    }
}
