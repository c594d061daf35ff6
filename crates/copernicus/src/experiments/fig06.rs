//! Fig. 6 — σ of the seven formats on band matrices as the width sweeps
//! from 1 (pure diagonal) to 64, partition size 16. Fig. 11 reads its
//! bandwidth column off the same rows.

use super::Sweep;
use crate::measure::{ExperimentConfig, Measurement};
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Figs. 6 and 11: a format at one band width of the sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WidthRow {
    /// Band width `k`.
    pub width: usize,
    /// Format.
    pub format: FormatKind,
    /// Decompression overhead σ (Fig. 6).
    pub sigma: f64,
    /// Useful bytes over all transferred bytes (Fig. 11).
    pub bandwidth_utilization: f64,
}

/// The paper's band width sweep at `cfg.sweep_dim`, every characterized
/// format, partition size 16.
pub fn sweep(cfg: &ExperimentConfig) -> Sweep {
    Sweep::new(
        Workload::paper_band_sweep(cfg.sweep_dim),
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
    )
}

/// One row per measurement, reporting the band width the workload asked
/// for.
pub fn rows(sweep: &Sweep, ms: &[Measurement]) -> Vec<WidthRow> {
    sweep
        .by_workload(ms)
        .flat_map(|(w, chunk)| {
            let width = match w {
                Workload::Band { width, .. } => *width,
                _ => unreachable!("band sweep only yields band workloads"),
            };
            chunk.iter().map(move |m| WidthRow {
                width,
                format: m.format,
                sigma: m.sigma(),
                bandwidth_utilization: m.bandwidth_utilization(),
            })
        })
        .collect()
}

/// Runs Fig. 6.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<WidthRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows with `metric` under `header` as an aligned table.
pub(crate) fn render_column(
    rows: &[WidthRow],
    header: &str,
    metric: fn(&WidthRow) -> f64,
) -> String {
    let mut t = TextTable::new(&["width", "format", header]);
    for r in rows {
        t.row(&[r.width.to_string(), r.format.to_string(), f3(metric(r))]);
    }
    t.render()
}

/// Renders the rows' σ as an aligned table.
pub fn render(rows: &[WidthRow]) -> String {
    render_column(rows, "sigma", |r| r.sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<WidthRow> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn sigma(rows: &[WidthRow], f: FormatKind, w: usize) -> f64 {
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
