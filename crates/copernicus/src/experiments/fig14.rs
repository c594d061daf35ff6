//! Fig. 14 — the normalized six-metric summary per workload class
//! (1 = best format on a metric within the class, 0 = worst).

use crate::measure::ExperimentConfig;
use crate::summary::{normalized_summary, MetricKind, SummaryRow};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use sparsemat::FormatKind;

/// Runs the full campaign and normalizes into Fig.-14 rows.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<SummaryRow>, CampaignError> {
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
) -> Result<Vec<SummaryRow>, CampaignError> {
    let ms = runner.characterize_with(
        &super::fig07::all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
        cfg,
        instruments,
    )?;
    Ok(normalized_summary(&ms))
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    crate::manifest_for(
        cfg,
        &super::fig07::all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
    )
    .with_note("figure=fig14")
}

/// Renders the rows as an aligned table (one line per class × format).
pub fn render(rows: &[SummaryRow]) -> String {
    let mut header: Vec<&str> = vec!["class", "format"];
    header.extend(MetricKind::ALL.iter().map(|m| m.label()));
    let mut t = TextTable::new(&header);
    for r in rows {
        let mut row = vec![r.class.to_string(), r.format.to_string()];
        row.extend(r.scores.iter().map(|&s| f3(s)));
        t.row(&row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copernicus_workloads::WorkloadClass;

    fn rows() -> Vec<SummaryRow> {
        crate::summary::normalized_summary(crate::testsupport::campaign())
    }

    #[test]
    fn covers_three_classes_times_eight_formats() {
        assert_eq!(rows().len(), 3 * 8);
    }

    #[test]
    fn coo_scores_well_on_suitesparse_latency() {
        // §8: "a non-specialized format such as COO performs faster [...]
        // compared to a specialized format such as DIA" on SuiteSparse.
        let rows = rows();
        let score = |f: FormatKind| {
            rows.iter()
                .find(|r| r.class == WorkloadClass::SuiteSparse && r.format == f)
                .unwrap()
                .score(MetricKind::Latency)
        };
        assert!(score(FormatKind::Coo) > score(FormatKind::Dia));
    }

    #[test]
    fn dia_wins_bandwidth_utilization_on_band_matrices() {
        // §8: "a pattern-specific format such as DIA near-perfectly utilizes
        // the memory bandwidth" on structured band matrices.
        let rows = rows();
        let dia = rows
            .iter()
            .find(|r| r.class == WorkloadClass::Band && r.format == FormatKind::Dia)
            .unwrap();
        // DIA must be at or near the top (its average over widths competes
        // with ELL/LIL whose utilization is capped at 0.5).
        assert!(dia.score(MetricKind::BandwidthUtilization) > 0.6, "{dia:?}");
    }

    #[test]
    fn render_lists_every_metric() {
        let s = render(&rows());
        for m in MetricKind::ALL {
            assert!(s.contains(m.label()), "missing {m}");
        }
    }
}
