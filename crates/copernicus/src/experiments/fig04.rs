//! Fig. 4 — decompression overhead σ of the seven formats on the
//! SuiteSparse workloads, partition size 16 (lower is better; the darkness
//! of the paper's bars encodes density, reported here as a column).

use super::Sweep;
use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Fig. 4.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig04Row {
    /// Suite workload ID.
    pub workload: String,
    /// Matrix density (the bar shading in the paper).
    pub density: f64,
    /// Format.
    pub format: FormatKind,
    /// Decompression overhead σ (Eq. 1).
    pub sigma: f64,
}

/// The SuiteSparse stand-ins, every characterized format, partition size 16.
pub fn sweep(_cfg: &ExperimentConfig) -> Sweep {
    Sweep::new(
        Workload::paper_suite(),
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
    )
}

/// One bar per measurement.
pub fn rows(_sweep: &Sweep, ms: &[Measurement]) -> Vec<Fig04Row> {
    ms.iter()
        .map(|m| Fig04Row {
            workload: m.workload.clone(),
            density: m.density,
            format: m.format,
            sigma: m.sigma(),
        })
        .collect()
}

/// Runs Fig. 4.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig04Row>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig04Row]) -> String {
    let mut t = TextTable::new(&["workload", "density", "format", "sigma"]);
    for r in rows {
        t.row(&[
            r.workload.clone(),
            format!("{:.5}", r.density),
            r.format.to_string(),
            f3(r.sigma),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig04Row> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    #[test]
    fn covers_all_workloads_and_formats() {
        let rows = rows();
        assert_eq!(rows.len(), 20 * 8);
    }

    #[test]
    fn dense_sigma_is_one_everywhere() {
        for r in rows().iter().filter(|r| r.format == FormatKind::Dense) {
            assert!((r.sigma - 1.0).abs() < 1e-12, "{r:?}");
        }
    }

    #[test]
    fn csc_is_the_worst_case_overall() {
        // §6.1: "The worst-case scenario of decompression occurs with the
        // CSC format." CSC must have the worst mean σ across the suite and
        // be the worst format on a clear majority of workloads.
        let rows = rows();
        let mean = |f: FormatKind| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.format == f)
                .map(|r| r.sigma)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let csc = mean(FormatKind::Csc);
        for f in FormatKind::CHARACTERIZED {
            assert!(csc >= mean(f), "CSC mean {csc} < {f} mean {}", mean(f));
        }
        let workloads: Vec<String> = {
            let mut w: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
            w.dedup();
            w
        };
        let csc_worst_count = workloads
            .iter()
            .filter(|w| {
                let of = |f: FormatKind| {
                    rows.iter()
                        .find(|r| &r.workload == *w && r.format == f)
                        .unwrap()
                        .sigma
                };
                let csc = of(FormatKind::Csc);
                FormatKind::CHARACTERIZED
                    .iter()
                    .all(|&f| csc >= of(f) - 1e-9)
            })
            .count();
        assert!(
            csc_worst_count * 3 >= workloads.len() * 2,
            "CSC worst on only {csc_worst_count}/{} workloads",
            workloads.len()
        );
    }

    #[test]
    fn some_sparse_formats_beat_dense_on_sparse_workloads() {
        // Bars below 1.0 exist: "bars lower than one illustrate faster
        // computation than the baseline dense format."
        assert!(rows()
            .iter()
            .any(|r| r.format != FormatKind::Dense && r.sigma < 1.0));
    }
}
