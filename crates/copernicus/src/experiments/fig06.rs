//! Fig. 6 — σ of the seven formats on band matrices as the width sweeps
//! from 1 (pure diagonal) to 64, partition size 16.

use crate::measure::ExperimentConfig;
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Fig. 6.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig06Row {
    /// Band width `k`.
    pub width: usize,
    /// Format.
    pub format: FormatKind,
    /// Decompression overhead σ.
    pub sigma: f64,
}

/// Runs Fig. 6 at partition size 16 over the paper's width sweep.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig06Row>, CampaignError> {
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
) -> Result<Vec<Fig06Row>, CampaignError> {
    let workloads = Workload::paper_band_sweep(cfg.sweep_dim);
    let ms = runner.characterize_with(
        &workloads,
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
        cfg,
        instruments,
    )?;
    Ok(workloads
        .iter()
        .zip(ms.chunks(FormatKind::CHARACTERIZED.len()))
        .flat_map(|(w, chunk)| {
            let width = match w {
                Workload::Band { width, .. } => *width,
                _ => unreachable!("band sweep only yields band workloads"),
            };
            chunk.iter().map(move |m| Fig06Row {
                width,
                format: m.format,
                sigma: m.sigma(),
            })
        })
        .collect())
}

/// The reproducibility manifest for this figure's campaign.
pub fn manifest(cfg: &ExperimentConfig) -> copernicus_telemetry::RunManifest {
    crate::manifest_for(
        cfg,
        &Workload::paper_band_sweep(cfg.sweep_dim),
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
    )
    .with_note("figure=fig06")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig06Row]) -> String {
    let mut t = TextTable::new(&["width", "format", "sigma"]);
    for r in rows {
        t.row(&[r.width.to_string(), r.format.to_string(), f3(r.sigma)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig06Row> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn sigma(rows: &[Fig06Row], f: FormatKind, w: usize) -> f64 {
        rows.iter()
            .find(|r| r.format == f && r.width == w)
            .unwrap()
            .sigma
    }

    #[test]
    fn covers_width_sweep_times_formats() {
        assert_eq!(rows().len(), 6 * 8);
    }

    #[test]
    fn sigma_grows_with_band_width_for_tuple_formats() {
        // §6.1: σ increases with the width of band matrices, most
        // dramatically for COO, CSR and CSC.
        let rows = rows();
        for f in [FormatKind::Coo, FormatKind::Csr, FormatKind::Csc] {
            assert!(
                sigma(&rows, f, 64) > 2.0 * sigma(&rows, f, 2),
                "{f}: {} vs {}",
                sigma(&rows, f, 64),
                sigma(&rows, f, 2)
            );
        }
    }

    #[test]
    fn csc_is_tens_of_x_at_width_64() {
        // §6.1: CSC reaches up to 30× on band matrices.
        let worst = sigma(&rows(), FormatKind::Csc, 64);
        assert!(worst > 15.0, "CSC σ at width 64: {worst}");
    }

    #[test]
    fn bcsr_stays_moderate_across_widths() {
        // §6.1: "Seeking a relatively generic sparse format that can provide
        // moderate computation latency for random and structured matrices,
        // BCSR could be a fair option."
        let rows = rows();
        for w in [1, 2, 4, 16, 32, 64] {
            assert!(sigma(&rows, FormatKind::Bcsr, w) < 3.0, "width {w}");
        }
    }

    #[test]
    fn dia_overhead_grows_with_scattered_diagonals() {
        // §5.2: DIA's scan over stored diagonals makes wider bands costlier.
        let rows = rows();
        assert!(sigma(&rows, FormatKind::Dia, 64) > sigma(&rows, FormatKind::Dia, 1));
    }
}
