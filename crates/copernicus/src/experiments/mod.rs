//! One driver per paper table/figure.
//!
//! Every campaign-backed figure is a view over one [`Sweep`]: the module
//! names its sweep (workloads × formats × partition sizes), a row view
//! that reads typed rows off the sweep's measurements, and a `render`; the
//! campaign ([`Sweep::run_on`]) and the reproducibility manifest
//! ([`Sweep::manifest`]) are both built from that one value, so they cannot
//! drift apart. The twin figures share their rows and differ only in the
//! column they render: Figs. 5/10 ([`fig05::DensityRow`]), 6/11
//! ([`fig06::WidthRow`]) and 7/12 ([`fig07::ClassMeanRow`]). Figs. 3 and 13
//! and the tables run no campaign. The `copernicus-bench` commands render
//! the rows as aligned text/TSV. The quick preset regenerates the whole set
//! in seconds; the paper preset matches the paper's matrix scales.

use crate::{CampaignError, CampaignRunner, ExperimentConfig, Instruments, Measurement};
use copernicus_telemetry::RunManifest;
use copernicus_workloads::Workload;
use sparsemat::FormatKind;

pub mod ext_backend_split;
pub mod ext_compound_scheme;
pub mod ext_partition_sweep;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod table1;
pub mod table2;

/// The partition sizes the paper sweeps.
pub const FIGURE_PARTITION_SIZES: [usize; 3] = [8, 16, 32];

/// The single partition size used by the per-workload figures (4, 5, 6,
/// 10, 11).
pub const DEFAULT_PARTITION: usize = 16;

/// One campaign: every format on every (workload, partition size) unit.
/// The measurements come back workload-major, then by partition size, then
/// in format order.
#[derive(Debug)]
pub struct Sweep {
    /// The workloads, in campaign order.
    pub workloads: Vec<Workload>,
    /// The formats measured on every unit.
    pub formats: Vec<FormatKind>,
    /// The partition sizes.
    pub partition_sizes: Vec<usize>,
}

impl Sweep {
    /// A sweep of `formats` over `workloads` at `partition_sizes`.
    pub fn new(
        workloads: Vec<Workload>,
        formats: &[FormatKind],
        partition_sizes: &[usize],
    ) -> Sweep {
        Sweep {
            workloads,
            formats: formats.to_vec(),
            partition_sizes: partition_sizes.to_vec(),
        }
    }

    /// Runs the campaign on `runner` with `instruments` attached: the
    /// units run across the runner's worker threads and overlapping cells
    /// are served from its memoization cache, with measurements identical —
    /// order and bytes — to the sequential path.
    ///
    /// # Errors
    ///
    /// The first cell failure, as [`CampaignRunner::characterize_with`]
    /// reports it.
    pub fn run_on(
        &self,
        runner: &CampaignRunner,
        cfg: &ExperimentConfig,
        instruments: &mut Instruments<'_>,
    ) -> Result<Vec<Measurement>, CampaignError> {
        runner.characterize_with(
            &self.workloads,
            &self.formats,
            &self.partition_sizes,
            cfg,
            instruments,
        )
    }

    /// Runs the campaign sequentially, uninstrumented, and reads `view`'s
    /// rows off its measurements.
    ///
    /// # Errors
    ///
    /// See [`Sweep::run_on`].
    pub(crate) fn run<R>(
        &self,
        cfg: &ExperimentConfig,
        view: impl FnOnce(&Sweep, &[Measurement]) -> Vec<R>,
    ) -> Result<Vec<R>, CampaignError> {
        let ms = self.run_on(&CampaignRunner::sequential(), cfg, &mut Instruments::none())?;
        Ok(view(self, &ms))
    }

    /// The reproducibility manifest of this campaign, ending with `note`.
    pub fn manifest(&self, cfg: &ExperimentConfig, note: &str) -> RunManifest {
        crate::manifest_for(cfg, &self.workloads, &self.formats, &self.partition_sizes)
            .with_note(note)
    }

    /// Pairs each workload with its measurements, for views that report a
    /// workload's requested parameters rather than the generated matrix's.
    pub(crate) fn by_workload<'a>(
        &'a self,
        ms: &'a [Measurement],
    ) -> impl Iterator<Item = (&'a Workload, &'a [Measurement])> {
        let per_workload = self.formats.len() * self.partition_sizes.len();
        self.workloads.iter().zip(ms.chunks(per_workload.max(1)))
    }
}
