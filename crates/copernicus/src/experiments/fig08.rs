//! Fig. 8 — the balance ratio: memory latency vs compute latency per
//! format, workload and partition size (marker size in the paper encodes
//! the partition size; points below the diagonal are compute-bound).

use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::WorkloadClass;
use sparsemat::FormatKind;

/// One scatter point of Fig. 8.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig08Row {
    /// Workload class (sub-figure a/b/c).
    pub class: WorkloadClass,
    /// Workload label.
    pub workload: String,
    /// Format.
    pub format: FormatKind,
    /// Partition size (the marker size).
    pub partition_size: usize,
    /// Total memory-read cycles.
    pub mem_cycles: u64,
    /// Total compute cycles.
    pub compute_cycles: u64,
    /// Mean per-partition balance ratio (memory / compute; 1 is perfect).
    pub balance_ratio: f64,
}

impl Fig08Row {
    /// Whether the point sits on the memory-bound side (ratio > 1).
    pub fn is_memory_bound(&self) -> bool {
        self.balance_ratio > 1.0
    }
}

/// Converts a measurement campaign into Fig.-8 scatter points.
pub fn rows_from(ms: &[Measurement]) -> Vec<Fig08Row> {
    ms.iter().map(to_row).collect()
}

fn to_row(m: &Measurement) -> Fig08Row {
    Fig08Row {
        class: m.class,
        workload: m.workload.clone(),
        format: m.format,
        partition_size: m.partition_size,
        mem_cycles: m.mem_cycles(),
        compute_cycles: m.compute_cycles(),
        balance_ratio: m.balance_ratio(),
    }
}

/// Runs the Fig.-8 campaign over all three workload classes.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig08Row>, CampaignError> {
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
) -> Result<Vec<Fig08Row>, CampaignError> {
    let ms = runner.characterize_with(
        &super::fig07::all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
        cfg,
        instruments,
    )?;
    Ok(rows_from(&ms))
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    crate::manifest_for(
        cfg,
        &super::fig07::all_class_workloads(cfg),
        &FormatKind::CHARACTERIZED,
        &super::FIGURE_PARTITION_SIZES,
    )
    .with_note("figure=fig08")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig08Row]) -> String {
    let mut t = TextTable::new(&[
        "class",
        "workload",
        "format",
        "p",
        "mem_cycles",
        "compute_cycles",
        "balance",
    ]);
    for r in rows {
        t.row(&[
            r.class.to_string(),
            r.workload.clone(),
            r.format.to_string(),
            r.partition_size.to_string(),
            r.mem_cycles.to_string(),
            r.compute_cycles.to_string(),
            f3(r.balance_ratio),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig08Row> {
        crate::testsupport::campaign().iter().map(to_row).collect()
    }

    fn mean_balance(rows: &[Fig08Row], f: FormatKind, p: usize) -> f64 {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.format == f && r.partition_size == p)
            .map(|r| r.balance_ratio)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn dense_drifts_memory_bound_as_partitions_grow() {
        // §6.2: the dense balance ratio "moves toward a memory-bound as
        // partition size increases."
        let rows = rows();
        let b8 = mean_balance(&rows, FormatKind::Dense, 8);
        let b32 = mean_balance(&rows, FormatKind::Dense, 32);
        assert!(b32 > b8, "dense balance p=8 {b8} vs p=32 {b32}");
    }

    #[test]
    fn csc_is_deeply_compute_bound() {
        // CSC's rescans swamp its tiny transfers.
        let rows = rows();
        assert!(mean_balance(&rows, FormatKind::Csc, 16) < 0.3);
    }

    #[test]
    fn dense_balance_exceeds_most_sparse_formats() {
        // §6.2: "for all types of matrices the balance ratio of dense format
        // is higher than most of the sparse formats" — zeros inflate both
        // sides but memory more.
        let rows = rows();
        let dense = mean_balance(&rows, FormatKind::Dense, 16);
        let below = [
            FormatKind::Csr,
            FormatKind::Csc,
            FormatKind::Coo,
            FormatKind::Lil,
            FormatKind::Ell,
            FormatKind::Dia,
        ]
        .iter()
        .filter(|&&f| mean_balance(&rows, f, 16) < dense)
        .count();
        assert!(below >= 4, "only {below} formats below dense balance");
    }

    #[test]
    fn memory_bound_predicate_matches_ratio() {
        for r in rows() {
            assert_eq!(r.is_memory_bound(), r.balance_ratio > 1.0);
        }
    }
}
