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

use crate::pipeline::{apply_contributions, Run, Tiles};
use crate::{
    backend_for, BackendKind, EncodeScratch, GridStats, HwConfig, ParallelReport, PlatformError,
    RunReport,
};
use copernicus_telemetry::{CancelToken, NullSink, Phase, PhaseProfiler, TraceSink};
use sparsemat::{tile_runs, Coo, FormatKind, Matrix, PartitionGrid, SparseError};
use std::sync::Arc;

/// What a [`RunRequest`] streams through the platform: a raw matrix (tiled
/// at the configured partition size), a pre-built grid shared across a
/// format sweep, or a matrix's tiles already measured.
#[derive(Debug)]
pub enum Input<'a> {
    /// A COO matrix, partitioned by the session.
    Matrix(&'a Coo<f32>),
    /// An already-partitioned grid (reused across formats without
    /// re-tiling).
    Grid(&'a PartitionGrid<f32>),
    /// The [`GridStats`] from [`Session::measure`]: each distinct tile is
    /// priced once per run instead of once per tile, and no grid is built.
    Measured(&'a GridStats),
}

/// One run through the platform, built fluently: input and format are
/// mandatory, everything else opts in.
///
/// | option                     | request                                 |
/// |----------------------------|-----------------------------------------|
/// | timing report              | `RunRequest::matrix(m, f)`              |
/// | over a pre-built grid      | `RunRequest::grid(g, f)`                |
/// | over measured tiles        | `RunRequest::measured(s, f)`            |
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
        Self::with_input(Input::Matrix(matrix), format)
    }

    /// A run over an already-partitioned grid (lets one grid feed the whole
    /// 8-format sweep).
    pub fn grid(grid: &'a PartitionGrid<f32>, format: FormatKind) -> Self {
        Self::with_input(Input::Grid(grid), format)
    }

    /// A run over a matrix whose tiles [`Session::measure`] has measured:
    /// each distinct tile is priced once and every tile reduced in grid
    /// order, with the same report and trace as [`RunRequest::grid`] over
    /// the matrix's grid. Nothing here holds the tiles' rows, so a run that
    /// reads them (an SpMV consumer, or a session that verifies or uses a
    /// codec) is rejected with [`PlatformError::Config`].
    pub fn measured(stats: &'a GridStats, format: FormatKind) -> Self {
        Self::with_input(Input::Measured(stats), format)
    }

    fn with_input(input: Input<'a>, format: FormatKind) -> Self {
        RunRequest {
            input,
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

    /// Measures every non-zero tile of `matrix` once, at the configured
    /// partition size, for [`RunRequest::measured`] runs in any format and
    /// on any backend. The tiles are measured in place from the
    /// tile-sorted triplets (the sort lapped as [`Phase::Partition`], the
    /// measuring as [`Phase::Encode`]); only a declined tile is built.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Config`] when this session does not price from
    /// structure ([`HwConfig::prices_from_structure`]);
    /// [`PlatformError::Sparse`] when an entry lies outside the matrix.
    pub fn measure(&mut self, matrix: &Coo<f32>) -> Result<GridStats, PlatformError> {
        if !self.cfg.prices_from_structure() {
            return Err(PlatformError::Config(
                "only a session that prices from structure (verification and codec off) \
                 measures tiles"
                    .into(),
            ));
        }
        let lap = self.profiler.as_ref().map(|p| p.scope(Phase::Partition));
        let mut triplets = matrix.triplets();
        let runs = tile_runs(
            matrix.nrows(),
            matrix.ncols(),
            &mut triplets,
            self.cfg.partition_size,
        )?;
        drop(lap);
        let _lap = self.profiler.as_ref().map(|p| p.scope(Phase::Encode));
        Ok(GridStats::measure(
            (matrix.nrows(), matrix.ncols()),
            runs,
            &self.cfg,
            &mut self.scratch,
        ))
    }

    /// Executes one request. See [`RunRequest`] for the option matrix.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Config`] when `lanes` is zero or combined with an
    /// SpMV consume, or when measured stats were taken at another partition
    /// or block size or the run must read rows they do not hold;
    /// [`PlatformError::Sparse`] when
    /// the SpMV operand length does not match the matrix column count, or
    /// partitioning/encoding fails; [`PlatformError::FunctionalMismatch`] when verification is on
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
        let built;
        let tiles = match input {
            Input::Grid(grid) => Tiles::Grid(grid),
            Input::Measured(stats) => {
                if !self.cfg.prices_from_structure() {
                    return Err(PlatformError::Config(
                        "measured tiles hold no rows to verify or code: \
                         this session needs RunRequest::grid"
                            .into(),
                    ));
                }
                stats.check(&self.cfg)?;
                Tiles::Measured(stats)
            }
            Input::Matrix(matrix) => {
                let _lap = self.profiler.as_ref().map(|p| p.scope(Phase::Partition));
                built = PartitionGrid::new(matrix, self.cfg.partition_size)?;
                Tiles::Grid(&built)
            }
        };
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
        if let Some(lanes) = lanes {
            if spmv_x.is_some() {
                return Err(PlatformError::Config(
                    "SpMV consume is not supported with aggregated lanes".into(),
                ));
            }
            let parallel = run.lanes(tiles, format, lanes, sink, scratch)?;
            return Ok(RunOutcome {
                report: parallel.single_lane.clone(),
                y: None,
                parallel: Some(parallel),
            });
        }
        let Some(x) = spmv_x else {
            let report = run.pipeline(tiles, format, sink, scratch, None)?;
            return Ok(RunOutcome {
                report,
                y: None,
                parallel: None,
            });
        };
        let Tiles::Grid(grid) = tiles else {
            return Err(PlatformError::Config(
                "measured tiles hold no rows to multiply: SpMV needs RunRequest::grid".into(),
            ));
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
        let report = run.pipeline(
            tiles,
            format,
            sink,
            scratch,
            Some(&mut |at, d| apply_contributions(at, d, p, x, &mut y)),
        )?;
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

    fn structural(p: usize) -> HwConfig {
        HwConfig {
            verify_functional: false,
            ..HwConfig::with_partition_size(p)
        }
    }

    #[test]
    fn measure_only_when_the_config_prices_from_structure() {
        let m = matrix();
        let mut verifying = Session::new(HwConfig::default()).unwrap();
        assert!(matches!(
            verifying.measure(&m),
            Err(PlatformError::Config(_))
        ));
        let mut coded = Session::new(HwConfig {
            stream_codec: crate::CodecKind::Rle,
            ..structural(16)
        })
        .unwrap();
        assert!(matches!(coded.measure(&m), Err(PlatformError::Config(_))));
        let stats = Session::new(structural(16)).unwrap().measure(&m).unwrap();
        let grid = PartitionGrid::new(&m, 16).unwrap();
        assert_eq!(stats.tiles(), grid.nonzero_tiles());
        assert_eq!(stats.declined(), 0);
        // A band: the interior tiles all share one class.
        assert!(stats.classes().len() < stats.tiles());
    }

    #[test]
    fn measuring_laps_the_tile_sort_as_partition() {
        let profiler = Arc::new(PhaseProfiler::new());
        let mut session = Session::new(structural(16))
            .unwrap()
            .with_profiler(profiler.clone());
        session.measure(&matrix()).unwrap();
        assert_eq!(profiler.histogram(Phase::Partition).unwrap().count(), 1);
        assert_eq!(profiler.histogram(Phase::Encode).unwrap().count(), 1);
    }

    #[test]
    fn stats_of_another_p_or_block_are_rejected() {
        let m = matrix();
        let mut session = Session::new(structural(16)).unwrap();
        let stats = session.measure(&m).unwrap();
        let p8 = Session::new(structural(8)).unwrap().measure(&m).unwrap();
        let b2 = Session::new(HwConfig {
            bcsr_block: 2,
            ..structural(16)
        })
        .unwrap()
        .measure(&m)
        .unwrap();
        for stats in [&p8, &b2] {
            assert!(matches!(
                session.run(RunRequest::measured(stats, FormatKind::Csr)),
                Err(PlatformError::Config(_))
            ));
        }
        assert!(session
            .run(RunRequest::measured(&stats, FormatKind::Csr))
            .is_ok());
    }

    #[test]
    fn runs_that_read_rows_reject_measured_stats() {
        // Measured stats hold no tile rows: SpMV, verification and codecs
        // need a grid, and asking for them over stats is a config error.
        let m = matrix();
        let mut session = Session::new(structural(16)).unwrap();
        let stats = session.measure(&m).unwrap();
        let x: Vec<f32> = (0..48).map(|i| (i % 7) as f32 - 3.0).collect();
        assert!(matches!(
            session.run(RunRequest::measured(&stats, FormatKind::Ell).consume_spmv(&x)),
            Err(PlatformError::Config(_))
        ));
        let mut verifying = Session::new(HwConfig::with_partition_size(16)).unwrap();
        let mut coded = Session::new(HwConfig {
            stream_codec: crate::CodecKind::Rle,
            ..structural(16)
        })
        .unwrap();
        for kind in FormatKind::CHARACTERIZED {
            for session in [&mut verifying, &mut coded] {
                assert!(
                    matches!(
                        session.run(RunRequest::measured(&stats, kind)),
                        Err(PlatformError::Config(_))
                    ),
                    "{kind}"
                );
            }
        }
        // The same requests over the grid still run.
        let grid = PartitionGrid::new(&m, 16).unwrap();
        let spmv = session
            .run(RunRequest::grid(&grid, FormatKind::Ell).consume_spmv(&x))
            .unwrap();
        assert_eq!(spmv.y.unwrap(), m.spmv(&x).unwrap());
        assert!(verifying
            .run(RunRequest::grid(&grid, FormatKind::Ell))
            .is_ok());
    }

    #[test]
    fn measured_runs_poll_the_cancellation_token() {
        let token = CancelToken::new();
        let mut session = Session::new(structural(16))
            .unwrap()
            .with_cancel(token.clone());
        let stats = session.measure(&matrix()).unwrap();
        assert!(session
            .run(RunRequest::measured(&stats, FormatKind::Coo))
            .is_ok());
        token.cancel();
        assert!(matches!(
            session.run(RunRequest::measured(&stats, FormatKind::Coo)),
            Err(PlatformError::Cancelled)
        ));
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
