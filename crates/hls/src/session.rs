//! The run API: one [`Session`] streams matrices through the modeled
//! platform.
//!
//! A session owns all run state: the validated [`HwConfig`], the optional
//! phase profiler and cancellation token, the tile worker count, and the
//! [`EncodeScratch`] buffer pool, so consecutive runs share their per-tile
//! buffers instead of re-allocating them. Each run is one [`RunRequest`]
//! (input, format and opt-in options); plain, SpMV and aggregated-lanes
//! runs all go through the same tile loop:
//!
//! ```
//! use copernicus_hls::{HwConfig, RunRequest, Session};
//! use sparsemat::{Coo, FormatKind};
//!
//! let mut m = Coo::new(32, 32);
//! m.push(0, 0, 1.0).unwrap();
//! m.push(17, 3, -2.0).unwrap();
//!
//! let mut session = Session::new(HwConfig::default()).unwrap();
//! let report = session
//!     .run(RunRequest::matrix(&m, FormatKind::Csr))
//!     .unwrap()
//!     .report;
//! assert!(report.total_cycles > 0);
//! ```

use crate::pipeline::{apply_contributions, Run};
use crate::{
    backend_for, BackendKind, EncodeScratch, HwConfig, ParallelReport, PlatformError, RunReport,
};
use copernicus_telemetry::{CancelToken, NullSink, PhaseProfiler, TraceSink};
use sparsemat::{Coo, FormatKind, PartitionGrid, SparseError};
use std::sync::Arc;

/// What a [`RunRequest`] streams through the platform: a raw matrix (tiled
/// at the configured partition size) or a pre-built grid shared across a
/// format sweep.
#[derive(Debug)]
pub enum Input<'a> {
    /// A COO matrix, partitioned by the session.
    Matrix(&'a Coo<f32>),
    /// An already-partitioned grid (reused across formats without
    /// re-tiling).
    Grid(&'a PartitionGrid<f32>),
}

/// One run through the platform, built fluently: input and format are
/// mandatory, everything else opts in.
///
/// | option                     | request                                 |
/// |----------------------------|-----------------------------------------|
/// | timing report              | `RunRequest::matrix(m, f)`              |
/// | over a pre-built grid      | `RunRequest::grid(g, f)`                |
/// | trace events               | `...with_sink(s)`                       |
/// | `y = A·x`                  | `...consume_spmv(x)`                    |
/// | aggregated lanes           | `...with_lanes(n)`                      |
/// | tile workers for this run  | `...par_tiles(j)`                       |
/// | backend for this run       | `...backend(b)`                         |
pub struct RunRequest<'a> {
    input: Input<'a>,
    format: FormatKind,
    sink: Option<&'a mut dyn TraceSink>,
    spmv_x: Option<&'a [f32]>,
    lanes: Option<usize>,
    tile_jobs: Option<usize>,
    backend: Option<BackendKind>,
}

impl std::fmt::Debug for RunRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRequest")
            .field("input", &self.input)
            .field("format", &self.format)
            .field("sink", &self.sink.is_some())
            .field("spmv", &self.spmv_x.is_some())
            .field("lanes", &self.lanes)
            .field("tile_jobs", &self.tile_jobs)
            .field("backend", &self.backend)
            .finish()
    }
}

impl<'a> RunRequest<'a> {
    /// A run over a raw matrix; the session tiles it at the configured
    /// partition size.
    pub fn matrix(matrix: &'a Coo<f32>, format: FormatKind) -> Self {
        RunRequest {
            input: Input::Matrix(matrix),
            format,
            sink: None,
            spmv_x: None,
            lanes: None,
            tile_jobs: None,
            backend: None,
        }
    }

    /// A run over an already-partitioned grid (lets one grid feed the whole
    /// 8-format sweep).
    pub fn grid(grid: &'a PartitionGrid<f32>, format: FormatKind) -> Self {
        RunRequest {
            input: Input::Grid(grid),
            format,
            sink: None,
            spmv_x: None,
            lanes: None,
            tile_jobs: None,
            backend: None,
        }
    }

    /// Emits pipeline events into `sink` at modeled-cycle timestamps.
    #[must_use]
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Feeds each decompressed partition to the dot-product engine against
    /// operand `x`, producing `y = A·x` in [`RunOutcome::y`]. The same
    /// encode+decompress pass feeds both the timing report and the product.
    #[must_use]
    pub fn consume_spmv(mut self, x: &'a [f32]) -> Self {
        self.spmv_x = Some(x);
        self
    }

    /// Runs `lanes` aggregated compute instances sharing one memory channel
    /// (§5.1) instead of the single three-stage pipeline; the scaling
    /// result lands in [`RunOutcome::parallel`].
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes);
        self
    }

    /// Processes this run's partitions on `jobs` worker threads (clamped to
    /// at least 1 = serial), overriding the session-wide
    /// [`Session::set_tile_jobs`] setting for this request only. Purely a
    /// host-side speedup: reports, traces and SpMV results are
    /// byte-identical at any worker count.
    #[must_use]
    pub fn par_tiles(mut self, jobs: usize) -> Self {
        self.tile_jobs = Some(jobs);
        self
    }

    /// Costs this run on `backend` instead of the session's configured
    /// [`HwConfig::backend`], for this request only. The encode /
    /// decompress pass (and any SpMV product) is backend-independent;
    /// only cycle charges and the reported clock change.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// Everything a run can produce. `report` is always present; the optional
/// halves mirror the request's options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The timing report (for a lanes run: the single-lane baseline,
    /// [`ParallelReport::single_lane`]).
    pub report: RunReport,
    /// `y = A·x`, present iff the request used
    /// [`RunRequest::consume_spmv`].
    pub y: Option<Vec<f32>>,
    /// The aggregated-lanes scaling report, present iff the request used
    /// [`RunRequest::with_lanes`].
    pub parallel: Option<ParallelReport>,
}

/// The one entry point for streaming matrices through the modeled
/// hardware: a validated [`HwConfig`] plus everything that persists across
/// runs — the phase profiler, the tile worker count, the cancellation
/// token and the reusable scratch buffers.
#[derive(Debug)]
pub struct Session {
    cfg: HwConfig,
    /// Optional wall-clock phase profiler. Never consulted by the timing
    /// model: reports are bit-identical with and without it.
    profiler: Option<Arc<PhaseProfiler>>,
    /// Worker threads processing one run's partitions concurrently
    /// (1 = serial). Never visible in the output: partitions are reduced
    /// back in grid order, so reports, traces and SpMV results are
    /// byte-identical at any setting.
    tile_jobs: usize,
    /// Optional cooperative cancellation token, polled before every tile.
    cancel: Option<CancelToken>,
    scratch: EncodeScratch,
}

impl Session {
    /// Builds a session from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] when the configuration fails
    /// [`HwConfig::validate`].
    pub fn new(cfg: HwConfig) -> Result<Self, PlatformError> {
        cfg.validate().map_err(PlatformError::Config)?;
        Ok(Session {
            cfg,
            profiler: None,
            tile_jobs: 1,
            cancel: None,
            scratch: EncodeScratch::new(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Attaches (or detaches) a wall-clock phase profiler. Runs then
    /// observe per-run encode / decompress / verify / compute phase
    /// durations into it. Profiling sits outside the deterministic artifact
    /// path: reports and traces are byte-identical with or without it.
    pub fn set_profiler(&mut self, profiler: Option<Arc<PhaseProfiler>>) {
        self.profiler = profiler;
    }

    /// Builder-style [`Session::set_profiler`].
    #[must_use]
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.set_profiler(Some(profiler));
        self
    }

    /// Sets how many worker threads process each subsequent run's
    /// partitions (clamped to at least 1 = serial). Purely a host-side
    /// speedup: every run's outputs are byte-identical at any worker count
    /// (test-enforced). [`RunRequest::par_tiles`] overrides this per run.
    pub fn set_tile_jobs(&mut self, jobs: usize) {
        self.tile_jobs = jobs.max(1);
    }

    /// Builder-style [`Session::set_tile_jobs`].
    #[must_use]
    pub fn with_tile_jobs(mut self, jobs: usize) -> Self {
        self.set_tile_jobs(jobs);
        self
    }

    /// The session-wide intra-run worker count.
    pub fn tile_jobs(&self) -> usize {
        self.tile_jobs
    }

    /// Attaches (or with `None`, detaches) a cooperative cancellation
    /// token, polled before every tile of every subsequent run. Once the
    /// token reports cancelled, runs fail with
    /// [`PlatformError::Cancelled`]; runs that complete first are
    /// byte-identical to untokened runs.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Builder-style [`Session::set_cancel`].
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.set_cancel(Some(cancel));
        self
    }

    /// Executes one request. See [`RunRequest`] for the option matrix.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Config`] when `lanes` is zero or combined with an
    /// SpMV consume; [`PlatformError::Sparse`] when the SpMV operand length
    /// does not match the matrix column count, or partitioning/encoding
    /// fails; [`PlatformError::FunctionalMismatch`] when verification is on
    /// and a decompressor disagrees with its reference tile;
    /// [`PlatformError::Cancelled`] when the attached token fires first.
    pub fn run(&mut self, request: RunRequest<'_>) -> Result<RunOutcome, PlatformError> {
        let RunRequest {
            input,
            format,
            sink,
            spmv_x,
            lanes,
            tile_jobs,
            backend,
        } = request;
        let run = Run {
            cfg: &self.cfg,
            backend: backend_for(backend.unwrap_or(self.cfg.backend)),
            tile_jobs: tile_jobs.map_or(self.tile_jobs, |jobs| jobs.max(1)),
            cancel: self.cancel.as_ref(),
            profiler: self.profiler.as_deref(),
        };
        let scratch = &mut self.scratch;
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match sink {
            Some(sink) => sink,
            None => &mut null,
        };
        let built;
        let grid = match input {
            Input::Grid(grid) => grid,
            Input::Matrix(matrix) => {
                built = PartitionGrid::new(matrix, self.cfg.partition_size)?;
                &built
            }
        };
        if let Some(lanes) = lanes {
            if spmv_x.is_some() {
                return Err(PlatformError::Config(
                    "SpMV consume is not supported with aggregated lanes".into(),
                ));
            }
            let parallel = run.lanes(grid, format, lanes, sink, scratch)?;
            return Ok(RunOutcome {
                report: parallel.single_lane.clone(),
                y: None,
                parallel: Some(parallel),
            });
        }
        let Some(x) = spmv_x else {
            let report = run.pipeline(grid, format, sink, scratch, |_, _| {})?;
            return Ok(RunOutcome {
                report,
                y: None,
                parallel: None,
            });
        };
        let (nrows, ncols) = grid.shape();
        if x.len() != ncols {
            return Err(PlatformError::Sparse(SparseError::ShapeMismatch {
                expected: (ncols, 1),
                found: (x.len(), 1),
            }));
        }
        let p = self.cfg.partition_size;
        let mut y = vec![0.0f32; nrows];
        let report = run.pipeline(grid, format, sink, scratch, |part, d| {
            apply_contributions(part, d, p, x, &mut y)
        })?;
        Ok(RunOutcome {
            report,
            y: Some(y),
            parallel: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::Matrix;

    fn matrix() -> Coo<f32> {
        let mut coo = Coo::new(48, 48);
        for i in 0..48usize {
            coo.push(i, i, 1.0 + i as f32).unwrap();
            if i + 2 < 48 {
                coo.push(i, i + 2, -0.5).unwrap();
            }
        }
        coo
    }

    #[test]
    fn matrix_and_grid_inputs_agree() {
        let m = matrix();
        let mut session = Session::new(HwConfig::default()).unwrap();
        let grid = PartitionGrid::new(&m, session.config().partition_size).unwrap();
        for kind in FormatKind::CHARACTERIZED {
            let via_matrix = session.run(RunRequest::matrix(&m, kind)).unwrap();
            let via_grid = session.run(RunRequest::grid(&grid, kind)).unwrap();
            assert_eq!(via_matrix, via_grid, "{kind}");
            assert!(via_matrix.y.is_none());
            assert!(via_matrix.parallel.is_none());
        }
    }

    #[test]
    fn spmv_option_returns_the_product() {
        let m = matrix();
        let x: Vec<f32> = (0..48).map(|i| ((i % 9) as f32) - 4.0).collect();
        let mut session = Session::new(HwConfig::default()).unwrap();
        let outcome = session
            .run(RunRequest::matrix(&m, FormatKind::Csr).consume_spmv(&x))
            .unwrap();
        assert_eq!(outcome.y.unwrap(), m.spmv(&x).unwrap());
        // The product pass must not change the timing report.
        let plain = session
            .run(RunRequest::matrix(&m, FormatKind::Csr))
            .unwrap();
        assert_eq!(outcome.report, plain.report);
    }

    #[test]
    fn spmv_from_a_grid_uses_the_true_matrix_shape() {
        // 50 is not a multiple of p=16: edge tiles are padded, and the grid
        // remembers the true 50×50 shape for operand validation.
        let mut m = Coo::new(50, 50);
        for i in 0..50usize {
            m.push(i, 49 - i, 2.0).unwrap();
        }
        let x: Vec<f32> = (0..50).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let mut session = Session::new(HwConfig::default()).unwrap();
        let grid = PartitionGrid::new(&m, session.config().partition_size).unwrap();
        let outcome = session
            .run(RunRequest::grid(&grid, FormatKind::Coo).consume_spmv(&x))
            .unwrap();
        assert_eq!(outcome.y.unwrap(), m.spmv(&x).unwrap());
        assert!(matches!(
            session.run(RunRequest::grid(&grid, FormatKind::Coo).consume_spmv(&x[..49])),
            Err(PlatformError::Sparse(SparseError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn lanes_option_returns_the_parallel_report() {
        let m = matrix();
        let mut session = Session::new(HwConfig::default()).unwrap();
        let outcome = session
            .run(RunRequest::matrix(&m, FormatKind::Csc).with_lanes(4))
            .unwrap();
        let parallel = outcome.parallel.unwrap();
        assert_eq!(parallel.lanes, 4);
        assert_eq!(parallel.single_lane, outcome.report);
        assert!(parallel.speedup() > 1.0);
    }

    #[test]
    fn zero_lanes_and_spmv_with_lanes_are_rejected() {
        let m = matrix();
        let x = vec![0.0f32; 48];
        let mut session = Session::new(HwConfig::default()).unwrap();
        assert!(matches!(
            session.run(RunRequest::matrix(&m, FormatKind::Coo).with_lanes(0)),
            Err(PlatformError::Config(_))
        ));
        assert!(matches!(
            session.run(
                RunRequest::matrix(&m, FormatKind::Coo)
                    .consume_spmv(&x)
                    .with_lanes(2)
            ),
            Err(PlatformError::Config(_))
        ));
    }

    #[test]
    fn sink_option_traces_without_perturbing_the_report() {
        let m = matrix();
        let mut session = Session::new(HwConfig::default()).unwrap();
        let plain = session
            .run(RunRequest::matrix(&m, FormatKind::Lil))
            .unwrap();
        let mut sink = copernicus_telemetry::RecordingSink::new();
        let traced = session
            .run(RunRequest::matrix(&m, FormatKind::Lil).with_sink(&mut sink))
            .unwrap();
        assert_eq!(plain.report, traced.report);
        assert_eq!(sink.count("run_start"), 1);
        assert_eq!(sink.count("partition_start"), traced.report.partitions);
    }

    #[test]
    fn backend_override_applies_per_request_and_restores() {
        let m = matrix();
        let mut session = Session::new(HwConfig::default()).unwrap();
        let hls = session
            .run(RunRequest::matrix(&m, FormatKind::Csr))
            .unwrap()
            .report;
        let cpu = session
            .run(RunRequest::matrix(&m, FormatKind::Csr).backend(BackendKind::Cpu))
            .unwrap()
            .report;
        assert_eq!(cpu.clock_mhz, session.config().cpu.clock_mhz);
        assert_ne!(cpu, hls);
        // A session configured for the CPU up front agrees with the
        // per-request override ...
        let mut cpu_session = Session::new(HwConfig {
            backend: BackendKind::Cpu,
            ..HwConfig::default()
        })
        .unwrap();
        let configured = cpu_session
            .run(RunRequest::matrix(&m, FormatKind::Csr))
            .unwrap()
            .report;
        assert_eq!(cpu, configured);
        // ... and the override does not leak into the next request.
        let after = session
            .run(RunRequest::matrix(&m, FormatKind::Csr))
            .unwrap()
            .report;
        assert_eq!(after, hls);
    }

    #[test]
    fn session_reuse_across_formats_stays_deterministic() {
        // The scratch pool warms up over the sweep; results must not drift.
        let m = matrix();
        let mut warm = Session::new(HwConfig::default()).unwrap();
        for _ in 0..3 {
            for kind in FormatKind::CHARACTERIZED {
                let mut fresh = Session::new(HwConfig::default()).unwrap();
                assert_eq!(
                    warm.run(RunRequest::matrix(&m, kind)).unwrap(),
                    fresh.run(RunRequest::matrix(&m, kind)).unwrap(),
                    "{kind}"
                );
            }
        }
    }
}
