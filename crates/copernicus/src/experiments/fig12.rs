//! Fig. 12 — average memory-bandwidth utilization per workload class and
//! partition size (higher is better). The sweep and the rows are Fig. 7's.

pub use super::fig07::{rows, sweep, ClassMeanRow};
use crate::measure::ExperimentConfig;
use crate::CampaignError;

/// Runs Fig. 12.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<ClassMeanRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows' mean bandwidth utilization as an aligned table.
pub fn render(rows: &[ClassMeanRow]) -> String {
    super::fig07::render_column(rows, "mean_bw_util", |r| r.mean_utilization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copernicus_workloads::WorkloadClass;
    use sparsemat::FormatKind;

    fn rows() -> Vec<ClassMeanRow> {
        super::rows(
            &sweep(&ExperimentConfig::quick()),
            crate::testsupport::campaign(),
        )
    }

    fn util(rows: &[ClassMeanRow], c: WorkloadClass, p: usize, f: FormatKind) -> f64 {
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
