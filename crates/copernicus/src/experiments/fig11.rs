//! Fig. 11 — memory-bandwidth utilization on band matrices as the width
//! sweeps from 1 to 64, partition size 16. The sweep and the rows are
//! Fig. 6's.

pub use super::fig06::{rows, sweep, WidthRow};
use crate::measure::ExperimentConfig;
use crate::CampaignError;

/// Runs Fig. 11.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<WidthRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows' bandwidth utilization as an aligned table.
pub fn render(rows: &[WidthRow]) -> String {
    super::fig06::render_column(rows, "bw_utilization", |r| r.bandwidth_utilization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::FormatKind;

    fn rows() -> Vec<WidthRow> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    fn util(rows: &[WidthRow], f: FormatKind, w: usize) -> f64 {
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
