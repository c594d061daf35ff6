//! Fig. 12 — average memory-bandwidth utilization per workload class and
//! partition size (higher is better).

use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::WorkloadClass;
use sparsemat::FormatKind;

/// One bar of Fig. 12.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig12Row {
    /// Workload class.
    pub class: WorkloadClass,
    /// Partition size.
    pub partition_size: usize,
    /// Format.
    pub format: FormatKind,
    /// Mean bandwidth utilization over the class's workloads.
    pub mean_utilization: f64,
}

/// Aggregates measurements into Fig.-12 rows.
pub fn aggregate(ms: &[Measurement]) -> Vec<Fig12Row> {
    let mut rows = Vec::new();
    for class in [
        WorkloadClass::SuiteSparse,
        WorkloadClass::Random,
        WorkloadClass::Band,
    ] {
        for &p in &super::FIGURE_PARTITION_SIZES {
            for format in FormatKind::CHARACTERIZED {
                let utils: Vec<f64> = ms
                    .iter()
                    .filter(|m| m.class == class && m.partition_size == p && m.format == format)
                    .map(Measurement::bandwidth_utilization)
                    .collect();
                if utils.is_empty() {
                    continue;
                }
                rows.push(Fig12Row {
                    class,
                    partition_size: p,
                    format,
                    mean_utilization: utils.iter().sum::<f64>() / utils.len() as f64,
                });
            }
        }
    }
    rows
}

/// Runs the Fig.-12 campaign over all three workload classes.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig12Row>, CampaignError> {
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
) -> Result<Vec<Fig12Row>, CampaignError> {
    let ms = runner.characterize_with(
        &super::fig07::all_class_workloads(cfg),
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
        &super::fig07::all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
    )
    .with_note("figure=fig12")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig12Row]) -> String {
    let mut t = TextTable::new(&["class", "p", "format", "mean_bw_util"]);
    for r in rows {
        t.row(&[
            r.class.to_string(),
            r.partition_size.to_string(),
            r.format.to_string(),
            f3(r.mean_utilization),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig12Row> {
        aggregate(crate::testsupport::campaign())
    }

    fn util(rows: &[Fig12Row], c: WorkloadClass, p: usize, f: FormatKind) -> f64 {
        rows.iter()
            .find(|r| r.class == c && r.partition_size == p && r.format == f)
            .unwrap()
            .mean_utilization
    }

    #[test]
    fn covers_classes_sizes_formats() {
        assert_eq!(rows().len(), 3 * 3 * 8);
    }

    #[test]
    fn coo_is_one_third_in_every_cell() {
        for r in rows().iter().filter(|r| r.format == FormatKind::Coo) {
            assert!((r.mean_utilization - 1.0 / 3.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn band_class_beats_suitesparse_for_structured_formats() {
        // §6.3: denser/structured matrices utilize bandwidth better than
        // extremely sparse ones for every format but COO.
        let rows = rows();
        for f in [
            FormatKind::Ell,
            FormatKind::Lil,
            FormatKind::Dia,
            FormatKind::Csr,
        ] {
            assert!(
                util(&rows, WorkloadClass::Band, 16, f)
                    > util(&rows, WorkloadClass::SuiteSparse, 16, f),
                "{f}"
            );
        }
    }

    #[test]
    fn dia_utilization_improves_with_partition_size_on_band() {
        // §6.3: "As partition size grows, this memory bandwidth utilization
        // approaches full utilization" (DIA on diagonal/band matrices).
        let rows = rows();
        assert!(
            util(&rows, WorkloadClass::Band, 32, FormatKind::Dia)
                > util(&rows, WorkloadClass::Band, 8, FormatKind::Dia)
        );
    }
}
