//! Fig. 5 — σ of the seven formats on random matrices as density sweeps
//! from 0.0001 to 0.5, partition size 16.

use crate::measure::ExperimentConfig;
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Fig. 5.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig05Row {
    /// Requested density of the random matrix.
    pub density: f64,
    /// Format.
    pub format: FormatKind,
    /// Decompression overhead σ.
    pub sigma: f64,
}

/// Runs Fig. 5 at partition size 16 over the paper's density sweep.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig05Row>, CampaignError> {
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
) -> Result<Vec<Fig05Row>, CampaignError> {
    let workloads = Workload::paper_random_sweep(cfg.sweep_dim);
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
            // Report the *requested* density so the sweep axis is exact even
            // when rounding changes the generated nnz slightly.
            let density = match w {
                Workload::Random { density, .. } => *density,
                _ => unreachable!("random sweep only yields random workloads"),
            };
            chunk.iter().map(move |m| Fig05Row {
                density,
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
        &Workload::paper_random_sweep(cfg.sweep_dim),
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
    )
    .with_note("figure=fig05")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig05Row]) -> String {
    let mut t = TextTable::new(&["density", "format", "sigma"]);
    for r in rows {
        t.row(&[
            format!("{:.4}", r.density),
            r.format.to_string(),
            f3(r.sigma),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig05Row> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn sigma_at(rows: &[Fig05Row], format: FormatKind, lo: f64, hi: f64) -> f64 {
        rows.iter()
            .filter(|r| r.format == format && r.density >= lo && r.density <= hi)
            .map(|r| r.sigma)
            .fold(f64::NAN, f64::max)
    }

    #[test]
    fn sigma_rises_steeply_with_density_for_coo_csr_csc() {
        // §6.1: "although the σ of all formats increase with density [...]
        // it more dramatically increases for COO, CSR, and CSC."
        let rows = rows();
        for f in [FormatKind::Coo, FormatKind::Csr, FormatKind::Csc] {
            let sparse = sigma_at(&rows, f, 0.0, 0.01);
            let dense = sigma_at(&rows, f, 0.3, 0.5);
            assert!(dense > 2.0 * sparse, "{f}: {sparse} -> {dense}");
        }
    }

    #[test]
    fn csc_reaches_about_twenty_x_at_half_density() {
        // §6.1: CSC "leads to up to 21× slower computation" on random
        // matrices.
        let rows = rows();
        let worst = sigma_at(&rows, FormatKind::Csc, 0.5, 0.5);
        assert!(worst > 15.0 && worst < 30.0, "CSC σ at d=0.5: {worst}");
    }

    #[test]
    fn ell_sigma_is_the_flattest() {
        // ELL's compute is row-count proportional: its σ varies the least
        // over the density sweep.
        let rows = rows();
        let spread = |f: FormatKind| {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| r.format == f)
                .map(|r| r.sigma)
                .collect();
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            max / min
        };
        let ell = spread(FormatKind::Ell);
        for f in [FormatKind::Csr, FormatKind::Csc, FormatKind::Coo] {
            assert!(ell < spread(f), "{f} flatter than ELL");
        }
    }

    #[test]
    fn covers_the_full_sweep() {
        let rows = rows();
        assert_eq!(rows.len(), 8 * 8);
        assert!(render(&rows).contains("0.0001"));
    }
}
