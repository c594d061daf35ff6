//! Fig. 11 — memory-bandwidth utilization on band matrices as the width
//! sweeps from 1 to 64, partition size 16.

use crate::measure::ExperimentConfig;
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Fig. 11.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig11Row {
    /// Band width `k`.
    pub width: usize,
    /// Format.
    pub format: FormatKind,
    /// Useful bytes over all transferred bytes.
    pub bandwidth_utilization: f64,
}

/// Runs Fig. 11 at partition size 16 over the width sweep.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig11Row>, CampaignError> {
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
) -> Result<Vec<Fig11Row>, CampaignError> {
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
            chunk.iter().map(move |m| Fig11Row {
                width,
                format: m.format,
                bandwidth_utilization: m.bandwidth_utilization(),
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
    .with_note("figure=fig11")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig11Row]) -> String {
    let mut t = TextTable::new(&["width", "format", "bw_utilization"]);
    for r in rows {
        t.row(&[
            r.width.to_string(),
            r.format.to_string(),
            f3(r.bandwidth_utilization),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig11Row> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn util(rows: &[Fig11Row], f: FormatKind, w: usize) -> f64 {
        rows.iter()
            .find(|r| r.format == f && r.width == w)
            .unwrap()
            .bandwidth_utilization
    }

    #[test]
    fn dia_is_near_perfect_for_the_pure_diagonal() {
        // §6.3: "the memory bandwidth utilization of DIA for diagonal
        // matrices is close to one — the slight difference occurs because of
        // saving the diagonal number."
        let u = util(&rows(), FormatKind::Dia, 1);
        assert!(u > 0.9 && u < 1.0, "DIA diagonal utilization {u}");
    }

    #[test]
    fn dia_loses_its_edge_on_wider_bands() {
        // §6.3: "for other band matrices, we see that the DIA format does
        // not offer better memory bandwidth compared to more generic formats
        // such as COO, ELL, or LIL."
        let rows = rows();
        let dia = util(&rows, FormatKind::Dia, 64);
        let generic = [FormatKind::Coo, FormatKind::Ell, FormatKind::Lil]
            .iter()
            .map(|&f| util(&rows, f, 64))
            .fold(0.0, f64::max);
        assert!(dia <= generic + 0.15, "DIA {dia} vs best generic {generic}");
    }

    #[test]
    fn coo_stays_one_third_across_widths() {
        for r in rows().iter().filter(|r| r.format == FormatKind::Coo) {
            assert!((r.bandwidth_utilization - 1.0 / 3.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn ell_and_lil_approach_one_half_on_full_bands() {
        // Both stream one index per value, so a fully dense band caps them
        // near 0.5.
        let rows = rows();
        for f in [FormatKind::Ell, FormatKind::Lil] {
            let u = util(&rows, f, 64);
            assert!(u > 0.3 && u <= 0.5, "{f}: {u}");
        }
    }
}
