//! Umbrella crate for the Copernicus reproduction workspace.
//!
//! Re-exports the public APIs of the member crates so examples and
//! integration tests can reach everything through one dependency:
//!
//! * [`sparsemat`] — the sparse-format substrate,
//! * `workloads` ([`copernicus_workloads`]) — workload generators and the
//!   Table-1 registry,
//! * `hls` ([`copernicus_hls`]) — the cycle-level hardware model,
//! * `telemetry` ([`copernicus_telemetry`]) — trace sinks, metrics and run
//!   manifests,
//! * [`copernicus`] — metrics, the experiment runner and figure drivers.

pub use copernicus;
pub use copernicus_hls as hls;
pub use copernicus_telemetry as telemetry;
pub use copernicus_workloads as workloads;
pub use sparsemat;
