//! Copernicus — characterization of sparse compression formats on a
//! streaming SpMV accelerator.
//!
//! This is the core crate of the reproduction of *"Copernicus:
//! Characterizing the Performance Implications of Compression Formats Used
//! in Sparse Workloads"* (IISWC 2021). It drives the cycle-level platform
//! model of [`copernicus_hls`] over the workload suite of
//! [`copernicus_workloads`] and reproduces every table and figure of the
//! paper's evaluation:
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`experiments::fig03`] | Fig. 3 — partition density & locality stats |
//! | [`experiments::fig04`] | Fig. 4 — σ on SuiteSparse, p = 16 |
//! | [`experiments::fig05`] | Fig. 5 — σ vs density (random) |
//! | [`experiments::fig06`] | Fig. 6 — σ vs band width |
//! | [`experiments::fig07`] | Fig. 7 — mean σ per class × partition size |
//! | [`experiments::fig08`] | Fig. 8 — memory vs compute latency (balance) |
//! | [`experiments::fig09`] | Fig. 9 — throughput vs latency |
//! | [`experiments::fig10`] | Fig. 10 — bandwidth utilization vs density |
//! | [`experiments::fig11`] | Fig. 11 — bandwidth utilization vs width |
//! | [`experiments::fig12`] | Fig. 12 — mean bandwidth utilization |
//! | [`experiments::table1`] | Table 1 — the workload registry |
//! | [`experiments::table2`] | Table 2 — resources & dynamic power |
//! | [`experiments::fig13`] | Fig. 13 — dynamic-power breakdown |
//! | [`experiments::fig14`] | Fig. 14 — normalized six-metric summary |
//!
//! # Example
//!
//! ```
//! use copernicus::{characterize, ExperimentConfig};
//! use copernicus_workloads::Workload;
//! use sparsemat::FormatKind;
//!
//! # fn main() -> Result<(), copernicus::CampaignError> {
//! let cfg = ExperimentConfig::quick();
//! let workloads = [Workload::Random { n: 64, density: 0.05 }];
//! let ms = characterize(&workloads, &[FormatKind::Csr, FormatKind::Coo], &[16], &cfg)?;
//! assert_eq!(ms.len(), 2);
//! for m in &ms {
//!     assert!(m.sigma() > 0.0);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library paths must propagate typed errors, not die: panicking is reserved
// for test code (see fault::FailureKind for how panics that do slip through
// are contained). CI runs clippy with `-D warnings`, making this a gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod campaign;
pub mod experiments;
pub mod fault;
pub mod insights;
pub mod instrument;
pub mod measure;
pub mod plot;
pub mod recommend;
pub mod summary;
pub mod table;

pub use cache::{CacheStats, CachedGrid, WorkloadCache};
pub use campaign::{
    default_jobs, par_map_ordered, try_par_map_ordered, CampaignOutcome, CampaignRunner,
};
pub use fault::{CampaignError, CampaignPolicy, CellFailure, FailureKind, FaultKind, FaultPlan};
pub use insights::{verify as verify_insights, InsightCheck};
pub use instrument::{manifest_for, Instruments};
pub use measure::{characterize, characterize_with, ExperimentConfig, Measurement};
pub use recommend::{recommend, recommend_measured, Goal, Recommendation};
pub use summary::{normalized_summary, MetricKind, SummaryRow};

#[cfg(test)]
pub(crate) mod testsupport {
    //! Shared quick campaign so the experiment tests don't each re-run the
    //! full workload × format × partition cross product.

    use crate::experiments::fig07::all_class_workloads;
    use crate::experiments::FIGURE_PARTITION_SIZES;
    use crate::{characterize, ExperimentConfig, Measurement};
    use sparsemat::FormatKind;
    use std::sync::OnceLock;

    static CAMPAIGN: OnceLock<Vec<Measurement>> = OnceLock::new();

    /// The quick-preset full campaign, computed once per test binary.
    pub fn campaign() -> &'static [Measurement] {
        CAMPAIGN.get_or_init(|| {
            let cfg = ExperimentConfig::quick();
            characterize(
                &all_class_workloads(&cfg),
                &FormatKind::CHARACTERIZED,
                &FIGURE_PARTITION_SIZES,
                &cfg,
            )
            .expect("quick campaign runs")
        })
    }
}
