//! Fig. 14 — the normalized six-metric summary per workload class
//! (1 = best format on a metric within the class, 0 = worst).

use super::Sweep;
use crate::measure::{ExperimentConfig, Measurement};
use crate::summary::{normalized_summary, MetricKind, SummaryRow};
use crate::table::{f3, TextTable};
use crate::CampaignError;

/// Fig. 14 shares Fig. 7's sweep: every class at partition sizes 8, 16
/// and 32.
pub use super::fig07::sweep;

/// The measurements, normalized per class and metric.
pub fn rows(_sweep: &Sweep, ms: &[Measurement]) -> Vec<SummaryRow> {
    normalized_summary(ms)
}

/// Runs Fig. 14.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<SummaryRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
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
    use sparsemat::FormatKind;

    fn rows() -> Vec<SummaryRow> {
        normalized_summary(crate::testsupport::campaign())
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
