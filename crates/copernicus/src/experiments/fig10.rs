//! Fig. 10 — memory-bandwidth utilization on random matrices as density
//! sweeps from 0.0001 to 0.5, partition size 16 (higher is better). The
//! sweep and the rows are Fig. 5's.

pub use super::fig05::{rows, sweep, DensityRow};
use crate::measure::ExperimentConfig;
use crate::CampaignError;

/// Runs Fig. 10.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<DensityRow>, CampaignError> {
    sweep(cfg).run(cfg, rows)
}

/// Renders the rows' bandwidth utilization as an aligned table.
pub fn render(rows: &[DensityRow]) -> String {
    super::fig05::render_column(rows, "bw_utilization", |r| r.bandwidth_utilization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::FormatKind;

    fn rows() -> Vec<DensityRow> {
        run(&ExperimentConfig::quick()).unwrap()
    }

    #[test]
    fn coo_is_pinned_at_one_third() {
        // §6.3: "the memory bandwidth utilization of COO is always 0.3."
        for r in rows().iter().filter(|r| r.format == FormatKind::Coo) {
            assert!((r.bandwidth_utilization - 1.0 / 3.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn utilization_rises_with_density_for_non_coo_formats() {
        // §6.3: "for all formats but COO, the memory bandwidth utilization
        // of denser matrices (density > 0.1) [...] is higher than that of
        // extremely sparse matrices."
        let rows = rows();
        let util = |f: FormatKind, d: f64| {
            rows.iter()
                .find(|r| r.format == f && (r.density - d).abs() < 1e-9)
                .unwrap()
                .bandwidth_utilization
        };
        for f in [
            FormatKind::Dense,
            FormatKind::Csr,
            FormatKind::Bcsr,
            FormatKind::Csc,
            FormatKind::Lil,
            FormatKind::Ell,
        ] {
            assert!(util(f, 0.5) > util(f, 0.0001), "{f}");
        }
    }

    #[test]
    fn dense_utilization_equals_density() {
        // The dense baseline's only payload fraction is the density itself.
        for r in rows().iter().filter(|r| r.format == FormatKind::Dense) {
            // Tile-level density differs slightly from the requested global
            // density because only non-zero partitions transfer.
            assert!(r.bandwidth_utilization <= 1.0);
            assert!(r.bandwidth_utilization >= r.density * 0.5, "{r:?}");
        }
    }

    #[test]
    fn all_utilizations_are_fractions() {
        for r in rows() {
            assert!((0.0..=1.0).contains(&r.bandwidth_utilization), "{r:?}");
        }
    }
}
