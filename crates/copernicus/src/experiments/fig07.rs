//! Fig. 7 — average σ of the seven formats for the three workload classes
//! (SuiteSparse, random, band) at partition sizes 8, 16 and 32. Fig. 12
//! reads its bandwidth column off the same rows; Figs. 8, 9 and 14 share
//! the sweep.

use super::Sweep;
use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::{Workload, WorkloadClass};
use sparsemat::FormatKind;

/// One bar of Figs. 7 and 12: a format's means within one class at one
/// partition size.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassMeanRow {
    /// Workload class.
    pub class: WorkloadClass,
    /// Partition size.
    pub partition_size: usize,
    /// Format.
    pub format: FormatKind,
    /// Mean σ over the class's workloads (Fig. 7).
    pub mean_sigma: f64,
    /// Mean bandwidth utilization over the class's workloads (Fig. 12).
    pub mean_utilization: f64,
}

/// The union of the paper's three workload sweeps, used by Figs. 7, 8, 12
/// and 14.
pub fn all_class_workloads(cfg: &ExperimentConfig) -> Vec<Workload> {
    let mut out = Workload::paper_suite();
    out.extend(Workload::paper_random_sweep(cfg.sweep_dim));
    out.extend(Workload::paper_band_sweep(cfg.sweep_dim));
    out
}

/// Every class's workloads, every characterized format, at partition sizes
/// 8, 16 and 32: the campaign of Figs. 7, 8, 12 and 14, and the one
/// `repro_all` shares among them and Fig. 9.
pub fn sweep(cfg: &ExperimentConfig) -> Sweep {
    Sweep::new(
        all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
    )
}

/// Averages the measurements per class, partition size and format, in the
/// sweep's order; a combination with no measurement gets no row.
pub fn rows(sweep: &Sweep, ms: &[Measurement]) -> Vec<ClassMeanRow> {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut rows = Vec::new();
    for class in [
        WorkloadClass::SuiteSparse,
        WorkloadClass::Random,
        WorkloadClass::Band,
    ] {
        for &p in &sweep.partition_sizes {
            for &format in &sweep.formats {
                let cell: Vec<&Measurement> = ms
                    .iter()
                    .filter(|m| m.class == class && m.partition_size == p && m.format == format)
                    .collect();
                if cell.is_empty() {
                    continue;
                }
                let sigmas: Vec<f64> = cell.iter().map(|m| m.sigma()).collect();
                let utils: Vec<f64> = cell.iter().map(|m| m.bandwidth_utilization()).collect();
                rows.push(ClassMeanRow {
                    class,
                    partition_size: p,
                    format,
                    mean_sigma: mean(&sigmas),
                    mean_utilization: mean(&utils),
                });
            }
        }
    }
    rows
}

/// Runs Fig. 7.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<ClassMeanRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows with `metric` under `header` as an aligned table.
pub(crate) fn render_column(
    rows: &[ClassMeanRow],
    header: &str,
    metric: fn(&ClassMeanRow) -> f64,
) -> String {
    let mut t = TextTable::new(&["class", "p", "format", header]);
    for r in rows {
        t.row(&[
            r.class.to_string(),
            r.partition_size.to_string(),
            r.format.to_string(),
            f3(metric(r)),
        ]);
    }
    t.render()
}

/// Renders the rows' mean σ as an aligned table.
pub fn render(rows: &[ClassMeanRow]) -> String {
    render_column(rows, "mean_sigma", |r| r.mean_sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ClassMeanRow> {
        super::rows(
            &sweep(&ExperimentConfig::quick()),
            crate::testsupport::campaign(),
        )
    }

    fn mean(rows: &[ClassMeanRow], class: WorkloadClass, p: usize, f: FormatKind) -> f64 {
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
