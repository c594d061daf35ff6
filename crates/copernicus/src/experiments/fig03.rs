//! Fig. 3 — density and spatial locality of the SuiteSparse workloads:
//! "(a) non-zero values in partitions, (b) non-zero values in non-zero
//! rows, and (c) non-zero rows in partitions" for partition sizes 8/16/32.

use crate::measure::ExperimentConfig;
use crate::table::{f3, TextTable};
use copernicus_telemetry::Phase;
use copernicus_workloads::Workload;
use sparsemat::PartitionStats;

/// One bar group of Fig. 3: a workload's statistics at one partition size.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig03Row {
    /// Suite workload ID.
    pub workload: String,
    /// Partition size.
    pub partition_size: usize,
    /// Fig. 3a — % non-zero values in non-zero partitions.
    pub partition_density_pct: f64,
    /// Fig. 3b — % non-zero values in the non-zero rows.
    pub row_density_pct: f64,
    /// Fig. 3c — % non-zero rows in non-zero partitions.
    pub nonzero_row_share_pct: f64,
}

/// Runs the Fig.-3 measurement over the SuiteSparse stand-ins.
///
/// # Errors
///
/// Propagates partitioning failures.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Fig03Row>, sparsemat::SparseError> {
    run_on(
        &crate::CampaignRunner::sequential(),
        cfg,
        &mut crate::Instruments::none(),
    )
}

/// Like [`run`], served from `runner`'s workload cache: the suite matrices
/// and tilings measured here are the same objects every later campaign on
/// that runner sweeps, so `repro_all` generates each exactly once. A
/// configuration that prices from structure reads the statistics off each
/// matrix's row pattern, as its campaign units measure it, and builds no
/// grid; one that walks tiles builds the grid its units walk. Each
/// generation, lookup and tiling is lapped into the instruments'
/// profiler, like a campaign unit's.
///
/// # Errors
///
/// Propagates partitioning failures.
pub fn run_on(
    runner: &crate::CampaignRunner,
    cfg: &ExperimentConfig,
    instruments: &mut crate::Instruments<'_>,
) -> Result<Vec<Fig03Row>, sparsemat::SparseError> {
    let profiler = instruments.profiler.as_deref();
    let structural = cfg.hw.prices_from_structure();
    let mut rows = Vec::new();
    for workload in Workload::paper_suite() {
        for &p in &super::FIGURE_PARTITION_SIZES {
            let entry = runner.workloads().lookup(
                &workload,
                p,
                cfg.suite_max_dim,
                cfg.seed,
                structural,
                profiler,
            )?;
            let stats = match structural.then(|| entry.pattern(profiler)).flatten() {
                Some(pattern) => {
                    let _lap = profiler.map(|prof| prof.scope(Phase::Partition));
                    PartitionStats::of_pattern(pattern, p)?
                }
                None => entry.grid(profiler)?.stats(),
            };
            rows.push(Fig03Row {
                workload: workload.label(),
                partition_size: p,
                partition_density_pct: stats.partition_density_pct,
                row_density_pct: stats.row_density_pct,
                nonzero_row_share_pct: stats.nonzero_row_share_pct,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Fig03Row]) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "p",
        "a:part_density%",
        "b:row_density%",
        "c:nz_row_share%",
    ]);
    for r in rows {
        t.row(&[
            r.workload.clone(),
            r.partition_size.to_string(),
            f3(r.partition_density_pct),
            f3(r.row_density_pct),
            f3(r.nonzero_row_share_pct),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_twenty_workloads_times_three_sizes() {
        let rows = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(rows.len(), 20 * 3);
    }

    #[test]
    fn percentages_are_valid_and_row_density_dominates() {
        // Fig. 3b ≥ Fig. 3a always: restricting to non-zero rows can only
        // concentrate density.
        for r in run(&ExperimentConfig::quick()).unwrap() {
            assert!((0.0..=100.0).contains(&r.partition_density_pct), "{r:?}");
            assert!(r.row_density_pct >= r.partition_density_pct - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn run_on_matches_run_and_primes_the_cache() {
        let cfg = ExperimentConfig::quick();
        let runner = crate::CampaignRunner::sequential();
        let cached = run_on(&runner, &cfg, &mut crate::Instruments::none()).unwrap();
        assert_eq!(cached, run(&cfg).unwrap());
        let stats = runner.workloads().stats();
        assert_eq!(stats.grid_misses as usize, 20 * 3);
        assert_eq!(stats.matrix_misses as usize, 20);
        // A second pass is all hits.
        run_on(&runner, &cfg, &mut crate::Instruments::none()).unwrap();
        assert_eq!(runner.workloads().stats().grid_hits as usize, 20 * 3);
    }

    #[test]
    fn render_contains_all_workloads() {
        let rows = run(&ExperimentConfig::quick()).unwrap();
        let s = render(&rows);
        for id in ["2C", "KR", "WI"] {
            assert!(s.contains(id), "missing {id}");
        }
    }
}
