//! Fig. 10 — memory-bandwidth utilization on random matrices as density
//! sweeps from 0.0001 to 0.5, partition size 16 (higher is better).

use crate::measure::ExperimentConfig;
use crate::table::{f3, TextTable};
use crate::CampaignError;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

/// One bar of Fig. 10.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig10Row {
    /// Density of the random matrix.
    pub density: f64,
    /// Format.
    pub format: FormatKind,
    /// Useful bytes over all transferred bytes.
    pub bandwidth_utilization: f64,
}

/// Runs Fig. 10 at partition size 16 over the density sweep.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig10Row>, CampaignError> {
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
) -> Result<Vec<Fig10Row>, CampaignError> {
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
            let density = match w {
                Workload::Random { density, .. } => *density,
                _ => unreachable!("random sweep only yields random workloads"),
            };
            chunk.iter().map(move |m| Fig10Row {
                density,
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
        &Workload::paper_random_sweep(cfg.sweep_dim),
        &FormatKind::CHARACTERIZED,
        &[super::DEFAULT_PARTITION],
    )
    .with_note("figure=fig10")
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig10Row]) -> String {
    let mut t = TextTable::new(&["density", "format", "bw_utilization"]);
    for r in rows {
        t.row(&[
            format!("{:.4}", r.density),
            r.format.to_string(),
            f3(r.bandwidth_utilization),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig10Row> {
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
