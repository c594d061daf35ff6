//! Cycle-level telemetry for the Copernicus pipeline model.
//!
//! Two kinds of state live here, on opposite sides of the determinism
//! boundary (DESIGN.md §11):
//!
//! * **Deterministic artifacts** — [`event`]/[`sink`] trace streams,
//!   [`metrics`] counters and histograms of *modeled* quantities, and the
//!   [`manifest`]. These are part of the byte-identical contract across
//!   `--jobs`, resume and retries.
//! * **Wall-clock observability** — [`profile`] phase timings and
//!   [`progress`] heartbeats. These measure the harness itself, are
//!   scheduling-dependent by nature, and are excluded from byte
//!   comparisons.

// Telemetry paths must degrade (drop a line, skip a write), not die; CI
// runs clippy with `-D warnings`, making this a gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cancel;
pub mod event;
pub mod fsio;
mod locks;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod sink;

pub use cancel::CancelToken;
pub use event::{PipelineEvent, Stage};
pub use fsio::atomic_write;
pub use manifest::{FailureRecord, RunManifest};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{Phase, PhaseAcc, PhaseProfiler, PhaseScope, WorkerStats};
pub use progress::{ProgressReporter, ProgressSnapshot, StderrMode};
pub use sink::{replay, ChromeTraceWriter, JsonlSink, NullSink, RecordingSink, TraceSink};
