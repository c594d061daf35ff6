//! One driver per paper table/figure.
//!
//! Every driver takes an [`ExperimentConfig`](crate::ExperimentConfig) and
//! returns typed rows; the `copernicus-bench` binaries render them as
//! aligned text/TSV. The quick preset regenerates the whole set in seconds;
//! the paper preset matches the paper's matrix scales.

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
