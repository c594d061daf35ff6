//! The characterization runner: `workload × format × partition size` →
//! [`Measurement`].

use copernicus_hls::{HwConfig, PlatformError, RunReport, Session};
use copernicus_workloads::{Workload, WorkloadClass};
use sparsemat::FormatKind;

/// Configuration of an experiment campaign.
///
/// Two presets exist: [`ExperimentConfig::quick`] keeps matrices small so
/// the full figure set regenerates in seconds (used by tests and CI), and
/// [`ExperimentConfig::paper`] matches the paper's scales where practical
/// (8000×8000 sweeps; SuiteSparse stand-ins capped at 4096 rows — see
/// `DESIGN.md` for the substitution note).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Base hardware configuration (partition size is overridden per run).
    pub hw: HwConfig,
    /// Dimension cap for the SuiteSparse stand-ins.
    pub suite_max_dim: usize,
    /// Dimension of the random/band sweep matrices (the paper uses 8000).
    pub sweep_dim: usize,
    /// Generation seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Small matrices, functional verification on — regenerates every
    /// figure in seconds.
    pub fn quick() -> Self {
        ExperimentConfig {
            hw: HwConfig::default(),
            suite_max_dim: 384,
            sweep_dim: 192,
            seed: 42,
        }
    }

    /// Paper-scale matrices (8000×8000 sweeps), functional verification off
    /// — the decompressors are already verified by the test suite.
    pub fn paper() -> Self {
        let hw = HwConfig {
            verify_functional: false,
            ..HwConfig::default()
        };
        ExperimentConfig {
            hw,
            suite_max_dim: 4096,
            sweep_dim: 8000,
            seed: 42,
        }
    }

    /// A measurement [`Session`] at a given partition size.
    pub(crate) fn session(&self, p: usize) -> Result<Session, PlatformError> {
        let mut hw = self.hw.clone();
        hw.partition_size = p;
        Session::new(hw)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::quick()
    }
}

/// One characterization data point: a workload streamed through the
/// platform in one format at one partition size.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Measurement {
    /// Workload label (suite ID, `d=<density>`, or `w=<width>`).
    pub workload: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// Density of the generated matrix.
    pub density: f64,
    /// Format under test.
    pub format: FormatKind,
    /// Partition size.
    pub partition_size: usize,
    /// The raw platform report.
    pub report: RunReport,
}

impl Measurement {
    /// The decompression-overhead metric σ (Eq. 1).
    pub fn sigma(&self) -> f64 {
        self.report.sigma()
    }

    /// Total memory-read cycles.
    pub fn mem_cycles(&self) -> u64 {
        self.report.total_mem_cycles
    }

    /// Total compute cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.report.total_compute_cycles
    }

    /// Mean per-partition memory/compute balance ratio (§4.2).
    pub fn balance_ratio(&self) -> f64 {
        self.report.balance_ratio
    }

    /// End-to-end seconds at the modeled clock.
    pub fn total_seconds(&self) -> f64 {
        self.report.total_seconds()
    }

    /// Throughput in bytes per second.
    pub fn throughput(&self) -> f64 {
        self.report.throughput_bytes_per_sec()
    }

    /// Memory-bandwidth utilization (useful / transferred bytes).
    pub fn bandwidth_utilization(&self) -> f64 {
        self.report.bandwidth_utilization()
    }
}

/// Runs the full cross product `workloads × formats × partition_sizes`.
///
/// Each workload is generated once per seed and tiled once per partition
/// size; formats then share the tiling, exactly as the paper reuses its
/// Matlab-preprocessed partitions across format runs.
///
/// # Errors
///
/// Propagates platform construction, encoding and functional-verification
/// failures as typed [`CampaignError`](crate::CampaignError) cell failures.
pub fn characterize(
    workloads: &[Workload],
    formats: &[FormatKind],
    partition_sizes: &[usize],
    cfg: &ExperimentConfig,
) -> Result<Vec<Measurement>, crate::CampaignError> {
    characterize_with(
        workloads,
        formats,
        partition_sizes,
        cfg,
        &mut crate::Instruments::none(),
    )
}

/// [`characterize`] with observers attached: every platform run streams its
/// pipeline events into the instruments' trace sink, campaign counters and
/// histograms accumulate in the metrics registry, and `progress` prints one
/// line per run to stderr.
///
/// With [`Instruments::none`](crate::Instruments::none) the measurements
/// are bit-identical to plain [`characterize`].
///
/// This is the single-threaded convenience entry point: it runs on a fresh
/// [`CampaignRunner::sequential`](crate::CampaignRunner::sequential), so no
/// memoization persists across calls. Hold a
/// [`CampaignRunner`](crate::CampaignRunner) to parallelize the grid or to
/// share the cell cache across overlapping campaigns.
///
/// # Errors
///
/// See [`characterize`].
pub fn characterize_with(
    workloads: &[Workload],
    formats: &[FormatKind],
    partition_sizes: &[usize],
    cfg: &ExperimentConfig,
    instruments: &mut crate::Instruments<'_>,
) -> Result<Vec<Measurement>, crate::CampaignError> {
    crate::CampaignRunner::sequential().characterize_with(
        workloads,
        formats,
        partition_sizes,
        cfg,
        instruments,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_covers_the_cross_product() {
        let cfg = ExperimentConfig::quick();
        let workloads = [
            Workload::Random {
                n: 64,
                density: 0.05,
            },
            Workload::Band { n: 64, width: 4 },
        ];
        let formats = [FormatKind::Dense, FormatKind::Csr, FormatKind::Coo];
        let sizes = [8, 16];
        let ms = characterize(&workloads, &formats, &sizes, &cfg).unwrap();
        assert_eq!(ms.len(), 2 * 3 * 2);
        // Dense rows all have σ = 1.
        for m in ms.iter().filter(|m| m.format == FormatKind::Dense) {
            assert_eq!(m.sigma(), 1.0, "{} p={}", m.workload, m.partition_size);
        }
    }

    #[test]
    fn presets_differ_in_scale_and_verification() {
        let q = ExperimentConfig::quick();
        let p = ExperimentConfig::paper();
        assert!(q.sweep_dim < p.sweep_dim);
        assert!(q.hw.verify_functional);
        assert!(!p.hw.verify_functional);
        assert_eq!(p.sweep_dim, 8000);
    }

    #[test]
    fn measurements_expose_consistent_metrics() {
        let cfg = ExperimentConfig::quick();
        let ms = characterize(
            &[Workload::Band { n: 96, width: 16 }],
            &[FormatKind::Lil],
            &[16],
            &cfg,
        )
        .unwrap();
        let m = &ms[0];
        assert_eq!(m.class, WorkloadClass::Band);
        assert!(m.density > 0.0);
        assert!(m.balance_ratio() > 0.0);
        assert!(m.throughput() > 0.0);
        assert!((0.0..=1.0).contains(&m.bandwidth_utilization()));
    }
}
