//! Fig. 5 — σ of the seven formats on random matrices as density sweeps
//! from 0.0001 to 0.5, partition size 16. Fig. 10 reads its bandwidth
//! column off the same rows.

use super::Sweep;
use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Figs. 5 and 10: a format at one density of the sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DensityRow {
    /// Requested density of the random matrix.
    pub density: f64,
    /// Format.
    pub format: FormatKind,
    /// Decompression overhead σ (Fig. 5).
    pub sigma: f64,
    /// Useful bytes over all transferred bytes (Fig. 10).
    pub bandwidth_utilization: f64,
}

/// The paper's random density sweep at `cfg.sweep_dim`, every
/// characterized format, partition size 16.
pub fn sweep(cfg: &ExperimentConfig) -> Sweep {
    Sweep::new(
        Workload::paper_random_sweep(cfg.sweep_dim),
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
    )
}

/// One row per measurement, reporting the *requested* density so the
/// sweep axis is exact even when rounding changes the generated nnz
/// slightly.
pub fn rows(sweep: &Sweep, ms: &[Measurement]) -> Vec<DensityRow> {
    sweep
        .by_workload(ms)
        .flat_map(|(w, chunk)| {
            let density = match w {
                Workload::Random { density, .. } => *density,
                _ => unreachable!("random sweep only yields random workloads"),
            };
            chunk.iter().map(move |m| DensityRow {
                density,
                format: m.format,
                sigma: m.sigma(),
                bandwidth_utilization: m.bandwidth_utilization(),
            })
        })
        .collect()
}

/// Runs Fig. 5.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<DensityRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows with `metric` under `header` as an aligned table.
pub(crate) fn render_column(
    rows: &[DensityRow],
    header: &str,
    metric: fn(&DensityRow) -> f64,
) -> String {
    let mut t = TextTable::new(&["density", "format", header]);
    for r in rows {
        t.row(&[
            format!("{:.4}", r.density),
            r.format.to_string(),
            f3(metric(r)),
        ]);
    }
    t.render()
}

/// Renders the rows' σ as an aligned table.
pub fn render(rows: &[DensityRow]) -> String {
    render_column(rows, "sigma", |r| r.sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<DensityRow> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn sigma_at(rows: &[DensityRow], format: FormatKind, lo: f64, hi: f64) -> f64 {
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
