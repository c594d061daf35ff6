//! The three-stage streaming platform of Fig. 2: memory-read → compute
//! (decompress + dot-product) → memory-write, pipelined across partitions.

use crate::backend::Backend;
use crate::{decompress_with, EncodeScratch, EncodedPartition, GridStats, HwConfig};
use copernicus_telemetry::{
    CancelToken, Phase, PhaseAcc, PhaseProfiler, PipelineEvent, Stage, TraceSink,
};
use sparsemat::{FormatKind, Partition, PartitionGrid, SparseError};

/// Errors produced by platform runs.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlatformError {
    /// The hardware configuration failed validation.
    Config(String),
    /// Partitioning or encoding failed.
    Sparse(SparseError),
    /// A decompressor produced rows that disagree with the reference tile —
    /// the model equivalent of a C/RTL co-simulation mismatch.
    FunctionalMismatch {
        /// Format under test.
        format: FormatKind,
        /// Grid coordinates of the offending partition.
        grid: (usize, usize),
    },
    /// The run was cooperatively cancelled (deadline expired or shutdown
    /// requested) before it completed; partial results are discarded.
    Cancelled,
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::Config(msg) => write!(f, "invalid hardware config: {msg}"),
            PlatformError::Sparse(e) => write!(f, "encoding failed: {e}"),
            PlatformError::FunctionalMismatch { format, grid } => write!(
                f,
                "functional mismatch decompressing {format} partition ({}, {})",
                grid.0, grid.1
            ),
            PlatformError::Cancelled => write!(f, "run cancelled before completion"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for PlatformError {
    fn from(e: SparseError) -> Self {
        PlatformError::Sparse(e)
    }
}

/// Timing of a single partition through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartitionTiming {
    /// Memory-read stage cycles (transfer of data + metadata).
    pub mem_cycles: u64,
    /// Compute stage cycles (second-stage entropy decode + structural
    /// decompression + dot products).
    pub compute_cycles: u64,
    /// Structural-decompression share of the compute stage.
    pub decomp_cycles: u64,
    /// Second-stage (entropy) decode share of the compute stage; zero
    /// without a configured stream codec.
    pub entropy_cycles: u64,
    /// Write-back stage cycles (partial output vector).
    pub writeback_cycles: u64,
    /// Dot products issued.
    pub dot_issues: u64,
    /// Bytes of the structural encoding (data + metadata).
    pub bytes: u64,
    /// Bytes crossing the bus after the second-stage codec (== `bytes`
    /// without one).
    pub coded_bytes: u64,
    /// Bytes of useful payload.
    pub useful_bytes: u64,
    /// BRAM read transactions (power model input).
    pub bram_reads: u64,
}

/// Aggregated result of streaming a whole matrix through the platform in
/// one format.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Format under test.
    pub format: FormatKind,
    /// Partition size `p`.
    pub partition_size: usize,
    /// Number of non-zero partitions processed.
    pub partitions: usize,
    /// Sum of memory-read cycles over partitions.
    pub total_mem_cycles: u64,
    /// Sum of compute cycles over partitions.
    pub total_compute_cycles: u64,
    /// Sum of structural-decompression cycles over partitions.
    pub total_decomp_cycles: u64,
    /// Sum of second-stage (entropy) decode cycles over partitions; zero
    /// without a configured stream codec.
    pub total_entropy_cycles: u64,
    /// Sum of write-back cycles over partitions.
    pub total_writeback_cycles: u64,
    /// Total dot products issued.
    pub total_dot_issues: u64,
    /// Total bytes of the structural encoding (data + metadata).
    pub total_bytes: u64,
    /// Total bytes crossing the bus after the second-stage codec (==
    /// `total_bytes` without one).
    pub total_coded_bytes: u64,
    /// Total useful bytes (non-zero values).
    pub useful_bytes: u64,
    /// Total BRAM read transactions.
    pub total_bram_reads: u64,
    /// End-to-end pipelined cycles (fill + per-partition bottleneck stages).
    pub total_cycles: u64,
    /// Σ over partitions of the dense-baseline compute `p · T_dot(p)` —
    /// the denominator of σ.
    pub dense_equivalent_compute: u64,
    /// Mean over partitions of `mem / compute` (the §4.2 balance ratio).
    pub balance_ratio: f64,
    /// Clock frequency used (MHz), recorded so throughput is reproducible.
    pub clock_mhz: f64,
}

impl RunReport {
    /// The paper's σ (Eq. 1): format compute cycles over the dense-baseline
    /// compute cycles. Exactly 1.0 for the dense format.
    pub fn sigma(&self) -> f64 {
        if self.dense_equivalent_compute == 0 {
            0.0
        } else {
            self.total_compute_cycles as f64 / self.dense_equivalent_compute as f64
        }
    }

    /// Wall-clock seconds of the pipelined run at the configured clock.
    ///
    /// A non-positive or non-finite clock (possible only on hand-built
    /// reports — [`HwConfig::validate`] rejects such configs) yields 0.0
    /// rather than a NaN/Inf that would poison downstream aggregates.
    pub fn total_seconds(&self) -> f64 {
        let hz = self.clock_mhz * 1e6;
        if hz > 0.0 && hz.is_finite() {
            self.total_cycles as f64 / hz
        } else {
            0.0
        }
    }

    /// Throughput in bytes processed per second (§4.2: "bytes processed per
    /// second, which reflects the bubbles in the streaming pipeline").
    ///
    /// An empty run (zero cycles, hence zero seconds) or a degenerate clock
    /// reports 0.0 — never NaN/Inf.
    pub fn throughput_bytes_per_sec(&self) -> f64 {
        let t = self.total_seconds();
        if t > 0.0 && t.is_finite() {
            self.total_bytes as f64 / t
        } else {
            0.0
        }
    }

    /// Memory-bandwidth utilization: useful bytes over all transferred
    /// bytes.
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// The §4.2 balance term of one partition: `mem / compute`.
fn balance(timing: &PartitionTiming) -> f64 {
    timing.mem_cycles as f64 / timing.compute_cycles.max(1) as f64
}

/// Incremental [`RunReport`] builder. Every run funnels its timings
/// through one of these (per partition, or per class with its tile count),
/// so reports are identical no matter which path (instrumented or not)
/// produced them.
struct ReportBuilder {
    report: RunReport,
    balance_sum: f64,
    first_stage_sum: Option<u64>,
    first_stage_max: u64,
    dense_per_part: u64,
}

impl ReportBuilder {
    fn new(format: FormatKind, cfg: &HwConfig, backend: &dyn Backend) -> Self {
        ReportBuilder {
            report: RunReport {
                format,
                partition_size: cfg.partition_size,
                partitions: 0,
                total_mem_cycles: 0,
                total_compute_cycles: 0,
                total_decomp_cycles: 0,
                total_entropy_cycles: 0,
                total_writeback_cycles: 0,
                total_dot_issues: 0,
                total_bytes: 0,
                total_coded_bytes: 0,
                useful_bytes: 0,
                total_bram_reads: 0,
                total_cycles: 0,
                dense_equivalent_compute: 0,
                balance_ratio: 0.0,
                clock_mhz: backend.clock_mhz(cfg),
            },
            balance_sum: 0.0,
            first_stage_sum: None,
            first_stage_max: 0,
            dense_per_part: backend.dense_equivalent_cycles(cfg),
        }
    }

    /// Adds one partition, balance term included.
    fn push(&mut self, timing: &PartitionTiming) {
        self.add(timing, 1);
        self.balance_sum += balance(timing);
    }

    /// Adds `n > 0` partitions of one timing to every integer total; the
    /// first call sets the pipeline fill. The balance term is the caller's.
    fn add(&mut self, timing: &PartitionTiming, n: u64) {
        let bottleneck = timing
            .mem_cycles
            .max(timing.compute_cycles)
            .max(timing.writeback_cycles);
        if self.first_stage_sum.is_none() {
            self.first_stage_sum =
                Some(timing.mem_cycles + timing.compute_cycles + timing.writeback_cycles);
            self.first_stage_max = bottleneck;
        }
        let r = &mut self.report;
        r.partitions += n as usize;
        r.total_mem_cycles += n * timing.mem_cycles;
        r.total_compute_cycles += n * timing.compute_cycles;
        r.total_decomp_cycles += n * timing.decomp_cycles;
        r.total_entropy_cycles += n * timing.entropy_cycles;
        r.total_writeback_cycles += n * timing.writeback_cycles;
        r.total_dot_issues += n * timing.dot_issues;
        r.total_bytes += n * timing.bytes;
        r.total_coded_bytes += n * timing.coded_bytes;
        r.useful_bytes += n * timing.useful_bytes;
        r.total_bram_reads += n * timing.bram_reads;
        r.total_cycles += n * bottleneck;
        r.dense_equivalent_compute += n * self.dense_per_part;
    }

    fn finish(mut self) -> RunReport {
        // Pipeline fill: the first partition flows through all three stages;
        // afterwards one partition completes per bottleneck interval.
        if let Some(first) = self.first_stage_sum {
            self.report.total_cycles += first - self.first_stage_max;
        }
        if self.report.partitions > 0 {
            self.report.balance_ratio = self.balance_sum / self.report.partitions as f64;
        }
        self.report
    }
}

/// A measured run's class table priced for one format: per
/// [`GridStats`] class, its timing and its balance term. Pooled on the
/// session's [`EncodeScratch`].
#[derive(Debug, Default)]
pub(crate) struct ClassPrices {
    pub(crate) timings: Vec<PartitionTiming>,
    pub(crate) balances: Vec<f64>,
}

/// The online-LPT deal of the aggregated-lanes run (§5.1): transfers
/// serialize on the shared memory channel, and each partition goes to the
/// least-loaded lane.
struct LaneDeal {
    shared_mem_cycles: u64,
    lane_compute: Vec<u64>,
    lane_ready: Vec<u64>,
}

impl LaneDeal {
    fn new(lanes: usize) -> Self {
        LaneDeal {
            shared_mem_cycles: 0,
            lane_compute: vec![0; lanes],
            lane_ready: vec![0; lanes],
        }
    }

    /// Deals partition `idx`, at grid coordinates `(grid_row, grid_col)`,
    /// and records its spans when `sink` is enabled.
    fn place<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        idx: usize,
        (grid_row, grid_col): (usize, usize),
        timing: &PartitionTiming,
    ) {
        let mem_start = self.shared_mem_cycles;
        self.shared_mem_cycles += timing.mem_cycles;
        // Deal to the least-loaded lane (online LPT).
        let lane = self
            .lane_compute
            .iter()
            .enumerate()
            .min_by_key(|&(_, &load)| load)
            .map_or(0, |(i, _)| i);
        self.lane_compute[lane] += timing.compute_cycles;
        // The lane starts once its operands have crossed the shared
        // channel and the engine is free.
        let compute_start = self.shared_mem_cycles.max(self.lane_ready[lane]);
        self.lane_ready[lane] = compute_start + timing.compute_cycles;
        if sink.enabled() {
            sink.record(&PipelineEvent::PartitionStart {
                partition: idx,
                grid_row,
                grid_col,
                cycle: mem_start,
            });
            for (stage, start_cycle, cycles) in [
                (Stage::MemRead, mem_start, timing.mem_cycles),
                (Stage::Compute, compute_start, timing.compute_cycles),
                (Stage::Decompress, compute_start, timing.decomp_cycles),
            ] {
                sink.record(&PipelineEvent::StageSpan {
                    stage,
                    partition: idx,
                    lane: Some(lane),
                    start_cycle,
                    cycles,
                });
            }
        }
    }
}

/// Gantt placement of trace spans at modeled-cycle timestamps: memory
/// bursts serialize back-to-back on the channel, compute starts once its
/// operands have arrived *and* the engine is free, write-back analogously.
/// Decompression is traced as a prefix of the compute span.
#[derive(Debug, Default)]
struct SpanScheduler {
    mem_end: u64,
    compute_end: u64,
    writeback_end: u64,
}

impl SpanScheduler {
    /// Places one partition; returns its (mem, compute, write-back) span
    /// start cycles.
    fn place(&mut self, timing: &PartitionTiming) -> (u64, u64, u64) {
        let mem_start = self.mem_end;
        self.mem_end += timing.mem_cycles;
        let compute_start = self.mem_end.max(self.compute_end);
        self.compute_end = compute_start + timing.compute_cycles;
        let writeback_start = self.compute_end.max(self.writeback_end);
        self.writeback_end = writeback_start + timing.writeback_cycles;
        (mem_start, compute_start, writeback_start)
    }
}

/// Emits the trace events of one placed partition, at grid coordinates
/// `(grid_row, grid_col)`: its start marker plus the four stage spans.
fn emit_partition_spans<S: TraceSink + ?Sized>(
    sink: &mut S,
    schedule: &mut SpanScheduler,
    idx: usize,
    (grid_row, grid_col): (usize, usize),
    timing: &PartitionTiming,
) {
    let (mem_start, compute_start, writeback_start) = schedule.place(timing);
    sink.record(&PipelineEvent::PartitionStart {
        partition: idx,
        grid_row,
        grid_col,
        cycle: mem_start,
    });
    for (stage, start_cycle, cycles) in [
        (Stage::MemRead, mem_start, timing.mem_cycles),
        (Stage::Compute, compute_start, timing.compute_cycles),
        (Stage::Decompress, compute_start, timing.decomp_cycles),
        (Stage::WriteBack, writeback_start, timing.writeback_cycles),
    ] {
        sink.record(&PipelineEvent::StageSpan {
            stage,
            partition: idx,
            lane: None,
            start_cycle,
            cycles,
        });
    }
}

/// Result of running the platform with several aggregated compute
/// instances (§5.1: "Instances of this architecture can be aggregated for
/// implementing coarse-grain parallelism").
///
/// The model: `lanes` identical decompress+dot pipelines share the single
/// memory channel. Transfers serialize on the shared channel; partitions
/// are dealt to the least-loaded lane. The run becomes memory-bound the
/// moment the summed transfer time exceeds the slowest lane's compute —
/// which quantifies the §8 insight that adding bandwidth only helps while
/// the format is compute-bound.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ParallelReport {
    /// Number of aggregated compute instances.
    pub lanes: usize,
    /// The single-lane report the scaling is measured against.
    pub single_lane: RunReport,
    /// Cycles on the shared memory channel (all partitions, serialized).
    pub shared_mem_cycles: u64,
    /// Compute cycles of the most loaded lane.
    pub max_lane_compute_cycles: u64,
    /// End-to-end cycles of the aggregated system.
    pub total_cycles: u64,
}

impl ParallelReport {
    /// Speedup over the single-lane pipeline.
    ///
    /// An empty grid (no non-zero partitions) runs for zero cycles at any
    /// lane count, so its speedup is pinned at the 1.0 neutral element
    /// rather than dividing by zero.
    pub fn speedup(&self) -> f64 {
        if self.total_cycles == 0 {
            1.0
        } else {
            self.single_lane.total_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Lanes that can actually receive work: a grid with fewer partitions
    /// than lanes leaves the surplus lanes permanently idle, and an empty
    /// grid still counts as one lane so ratios stay finite.
    pub fn effective_lanes(&self) -> usize {
        self.lanes.min(self.single_lane.partitions).max(1)
    }

    /// Parallel efficiency (`speedup / effective_lanes`).
    ///
    /// Normalizing by [`ParallelReport::effective_lanes`] rather than the
    /// configured lane count keeps the metric meaningful for degenerate
    /// sweeps: 16 lanes over a 4-partition grid is judged on the 4 lanes
    /// that could ever be busy, not penalized for the 12 that physically
    /// cannot.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.effective_lanes() as f64
    }

    /// Whether the aggregated system is limited by the shared channel.
    pub fn is_memory_bound(&self) -> bool {
        self.shared_mem_cycles >= self.max_lane_compute_cycles
    }
}

/// One walked partition's outcome, reduced in grid order: its timing and
/// its SpMV `(global row, dot)` list (empty without an operand).
type TileResult = Result<(PartitionTiming, Vec<(usize, f32)>), PlatformError>;

/// The SpMV operand of a walked run and the matrix's row count.
type Operand<'a> = (&'a [f32], usize);

/// Reads each measured tile's `(index, grid coordinates, timing)`, in grid
/// order (trace spans, the lane deal).
type TileVisitor<'a> = &'a mut dyn FnMut(usize, (usize, usize), &PartitionTiming);

/// The tiles of a run: a built grid's partitions, walked, or a matrix's
/// measured tile classes, priced (DESIGN.md §10).
#[derive(Clone, Copy)]
pub(crate) enum Tiles<'a> {
    /// Every partition of a built grid.
    Grid(&'a PartitionGrid<f32>),
    /// The class table of [`Session::measure`](crate::Session::measure),
    /// checked against the config.
    Measured(&'a GridStats),
}

impl Tiles<'_> {
    /// Number of non-zero tiles.
    fn len(self) -> usize {
        match self {
            Tiles::Grid(grid) => grid.nonzero_tiles(),
            Tiles::Measured(stats) => stats.tiles(),
        }
    }
}

/// One run's settings, taken from the owning [`Session`](crate::Session).
/// Borrowed for the run and shared read-only with the tile workers.
pub(crate) struct Run<'a> {
    pub(crate) cfg: &'a HwConfig,
    pub(crate) backend: &'static dyn Backend,
    /// Worker threads processing the run's partitions (1 = serial). Never
    /// visible in the output: tiles are reduced back in grid order.
    pub(crate) tile_jobs: usize,
    /// Polled before every tile; a cancelled run produces no report.
    pub(crate) cancel: Option<&'a CancelToken>,
    /// Wall-clock phase profiler; never consulted by the timing model.
    pub(crate) profiler: Option<&'a PhaseProfiler>,
}

impl Run<'_> {
    /// True when a token is attached and reports cancelled.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    fn record_run_start<S: TraceSink + ?Sized>(
        &self,
        sink: &mut S,
        tiles: Tiles<'_>,
        format: FormatKind,
    ) {
        if sink.enabled() {
            sink.record(&PipelineEvent::RunStart {
                format: format.to_string(),
                partitions: tiles.len(),
                partition_size: self.cfg.partition_size,
            });
        }
    }

    /// A run through the single three-stage pipeline: each walked tile's
    /// spans go to `sink` and its timing to the report, and with an SpMV
    /// `(x, y)` its row dot products are added into `y`, in grid order. A
    /// measured run builds its report from the class table and visits its
    /// tiles only to trace them.
    pub(crate) fn pipeline<S>(
        &self,
        tiles: Tiles<'_>,
        format: FormatKind,
        sink: &mut S,
        scratch: &mut EncodeScratch,
        spmv: Option<(&[f32], &mut [f32])>,
    ) -> Result<RunReport, PlatformError>
    where
        S: TraceSink + ?Sized,
    {
        let operand = spmv.as_ref().map(|(x, y)| (*x, y.len()));
        let mut y = spmv.map(|(_, y)| y);
        self.record_run_start(sink, tiles, format);
        let mut schedule = SpanScheduler::default();
        let report = match tiles {
            Tiles::Measured(stats) => {
                let traced = sink.enabled();
                let mut spans = |idx, at, timing: &PartitionTiming| {
                    emit_partition_spans(sink, &mut schedule, idx, at, timing);
                };
                self.measured(stats, format, scratch, traced.then_some(&mut spans))?
            }
            Tiles::Grid(grid) => {
                let mut builder = ReportBuilder::new(format, self.cfg, self.backend);
                self.for_each_tile(
                    grid,
                    format,
                    operand,
                    sink,
                    scratch,
                    |sink, idx, at, timing, dots| {
                        if let Some(y) = y.as_deref_mut() {
                            for &(gr, dot) in dots {
                                y[gr] += dot;
                            }
                        }
                        if sink.enabled() {
                            emit_partition_spans(sink, &mut schedule, idx, at, timing);
                        }
                        builder.push(timing);
                    },
                )?;
                builder.finish()
            }
        };
        if sink.enabled() {
            sink.record(&PipelineEvent::RunComplete {
                total_cycles: report.total_cycles,
            });
        }
        Ok(report)
    }

    /// The aggregated-lanes run (§5.1): the same per-tile work as
    /// [`Run::pipeline`], rescheduled onto `lanes` decompress+dot pipelines
    /// that share one memory channel, dealt by online LPT. A walked grid
    /// deals its tiles once every tile has walked; a measured run deals
    /// each tile as its class timing comes up.
    pub(crate) fn lanes<S: TraceSink + ?Sized>(
        &self,
        tiles: Tiles<'_>,
        format: FormatKind,
        lanes: usize,
        sink: &mut S,
        scratch: &mut EncodeScratch,
    ) -> Result<ParallelReport, PlatformError> {
        if lanes == 0 {
            return Err(PlatformError::Config("lane count must be positive".into()));
        }
        self.record_run_start(sink, tiles, format);
        let mut deal = LaneDeal::new(lanes);
        let single_lane = match tiles {
            Tiles::Measured(stats) => {
                let mut place = |idx, at, timing: &PartitionTiming| {
                    deal.place(sink, idx, at, timing);
                };
                self.measured(stats, format, scratch, Some(&mut place))?
            }
            Tiles::Grid(grid) => {
                let mut builder = ReportBuilder::new(format, self.cfg, self.backend);
                let mut timings = Vec::with_capacity(grid.nonzero_tiles());
                self.for_each_tile(grid, format, None, sink, scratch, |_, _, at, timing, _| {
                    builder.push(timing);
                    timings.push((at, *timing));
                })?;
                for (idx, (at, timing)) in timings.iter().enumerate() {
                    deal.place(sink, idx, *at, timing);
                }
                builder.finish()
            }
        };
        let shared_mem_cycles = deal.shared_mem_cycles;
        let max_lane_compute_cycles = deal.lane_compute.into_iter().max().unwrap_or(0);
        let total_cycles = shared_mem_cycles.max(max_lane_compute_cycles);
        if sink.enabled() {
            sink.record(&PipelineEvent::RunComplete { total_cycles });
        }
        Ok(ParallelReport {
            lanes,
            shared_mem_cycles,
            max_lane_compute_cycles,
            total_cycles,
            single_lane,
        })
    }

    /// A measured run (DESIGN.md §10), for when nothing reads the
    /// decompressed rows (the session checks). The backend prices each
    /// class once, every integer total is the class's tile count times its
    /// timing, and the pipeline fill is class 0's, the first tile's (classes
    /// are numbered in order of first appearance). Only the balance ratio
    /// still sums one term per tile, in grid order: `f64` addition is not
    /// associative, and a walked run sums it that way. `each`, when given,
    /// gets `(index, grid coordinates, timing)` for every tile in grid
    /// order (trace spans, the lane deal). The cancellation token is polled
    /// before every tile.
    fn measured(
        &self,
        stats: &GridStats,
        format: FormatKind,
        scratch: &mut EncodeScratch,
        mut each: Option<TileVisitor<'_>>,
    ) -> Result<RunReport, PlatformError> {
        let run_start = self.profiler.map(|_| std::time::Instant::now());
        let mut acc = PhaseAcc::new(self.profiler.is_some());
        acc.mark();
        let mut prices = scratch.take_class_prices();
        for class in stats.classes() {
            let timing = self
                .backend
                .price(&class.counters(format, self.cfg), self.cfg);
            prices.timings.push(timing);
            prices.balances.push(balance(&timing));
        }
        acc.lap(Phase::Encode);
        let mut builder = ReportBuilder::new(format, self.cfg, self.backend);
        for (timing, &count) in prices.timings.iter().zip(stats.class_counts()) {
            builder.add(timing, count);
        }
        let mut cancelled = false;
        for (idx, &class) in stats.class_of().iter().enumerate() {
            cancelled = self.cancelled();
            if cancelled {
                break;
            }
            let class = class as usize;
            builder.balance_sum += prices.balances[class];
            if let Some(each) = each.as_mut() {
                each(idx, stats.grid_coords(idx), &prices.timings[class]);
            }
        }
        scratch.give_class_prices(prices);
        if cancelled {
            return Err(PlatformError::Cancelled);
        }
        if let (Some(profiler), Some(start)) = (self.profiler, run_start) {
            profiler.flush_run(&acc, start.elapsed().as_secs_f64());
        }
        Ok(builder.finish())
    }

    /// The walked tile loop: runs [`Run::process_partition`] on every tile
    /// of `grid` exactly once and hands `(sink, index, grid coordinates,
    /// timing, dots)` to `each` in grid order, so every observable byte is
    /// the same at any worker count. `dots` holds the tile's SpMV
    /// `(global row, dot)` products against `spmv`'s operand (empty
    /// without one); its buffer goes back to the scratch that filled it.
    /// One worker processes each tile inline; more workers run
    /// [`Run::process_grid_parallel`] and reduce its slots in grid order.
    /// The cancellation token is polled before every tile in every mode.
    fn for_each_tile<S, F>(
        &self,
        grid: &PartitionGrid<f32>,
        format: FormatKind,
        spmv: Option<Operand<'_>>,
        sink: &mut S,
        scratch: &mut EncodeScratch,
        mut each: F,
    ) -> Result<(), PlatformError>
    where
        S: TraceSink + ?Sized,
        F: FnMut(&mut S, usize, (usize, usize), &PartitionTiming, &[(usize, f32)]),
    {
        let run_start = self.profiler.map(|_| std::time::Instant::now());
        let mut acc = PhaseAcc::new(self.profiler.is_some());
        // The reduce: the one place a walked tile's outcome reaches the
        // consumer, and the one place a functional mismatch reaches the
        // trace. Work past the first failing tile is discarded, exactly as
        // the serial loop never reaches it.
        let reduce = |sink: &mut S,
                      each: &mut F,
                      idx: usize,
                      part: &Partition<f32>,
                      result: TileResult,
                      recycle: &mut EncodeScratch|
         -> Result<(), PlatformError> {
            let (timing, dots) = result.inspect_err(|e| {
                if let PlatformError::FunctionalMismatch { format, grid } = e {
                    if sink.enabled() {
                        sink.record(&PipelineEvent::FunctionalMismatch {
                            partition: idx,
                            detail: format!(
                                "decompressing {format} partition ({}, {})",
                                grid.0, grid.1
                            ),
                        });
                    }
                }
            })?;
            each(sink, idx, (part.grid_row, part.grid_col), &timing, &dots);
            recycle.give_dots(dots);
            Ok(())
        };
        let parts = grid.partitions();
        if self.tile_jobs > 1 && parts.len() > 1 {
            let (mut pool, slots) =
                self.process_grid_parallel(parts, format, spmv, scratch, &mut acc);
            // Workers claim tiles in grid order, so the first empty slot
            // marks where they stopped on cancellation.
            let reduced = slots.into_iter().enumerate().try_for_each(|(idx, slot)| {
                let (wid, result) = slot.ok_or(PlatformError::Cancelled)?;
                reduce(sink, &mut each, idx, &parts[idx], result, &mut pool[wid])
            });
            scratch.give_workers(pool);
            reduced?;
        } else {
            for (idx, part) in parts.iter().enumerate() {
                if self.cancelled() {
                    return Err(PlatformError::Cancelled);
                }
                let result = self.process_partition(part, format, spmv, scratch, &mut acc);
                reduce(sink, &mut each, idx, part, result, scratch)?;
            }
        }
        if let (Some(profiler), Some(start)) = (self.profiler, run_start) {
            profiler.flush_run(&acc, start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Encode → decompress → (optional) functional verification → backend
    /// pricing → (with an SpMV operand) row dot products for one tile; the
    /// one place real per-partition work happens, on whichever thread
    /// claimed the tile. All buffers come from and return to `scratch`, so
    /// a decompression never leaves it; only the timing and the dot list
    /// (handed back by the reduce) do. Phase wall time accumulates into
    /// `acc` (a no-op unless a profiler is attached); the modeled timing
    /// never reads the clock.
    fn process_partition(
        &self,
        part: &Partition<f32>,
        format: FormatKind,
        spmv: Option<Operand<'_>>,
        scratch: &mut EncodeScratch,
        acc: &mut PhaseAcc,
    ) -> TileResult {
        let tile = &part.coo;
        acc.mark();
        let encoded = EncodedPartition::encode_with(tile, format, self.cfg, scratch)?;
        acc.lap(Phase::Encode);
        let d = decompress_with(&encoded, self.cfg, scratch);
        acc.lap(Phase::Decompress);
        if self.cfg.verify_functional {
            if !scratch.verify_tile(&d, tile, self.cfg.partition_size) {
                return Err(PlatformError::FunctionalMismatch {
                    format,
                    grid: (part.grid_row, part.grid_col),
                });
            }
            acc.lap(Phase::Verify);
        }
        // The backend prices what the encode/decompress pass produced: on
        // the HLS pipeline the second-stage decoder sits in front of the
        // structural decompressor, so its cycles join the compute stage —
        // the trade the codec sweep measures is fewer memory-read cycles
        // against exactly that compute-side surcharge.
        let timing = self.backend.partition_timing(&encoded, &d, self.cfg);
        scratch.recycle_encoded(encoded);
        // The dot-product engine takes each contributed row as it leaves
        // the decompressor: the element-wise product with the operand slice,
        // then the balanced adder tree (here a sum). Rows or columns hanging
        // past the true matrix shape (edge tiles are padded to `p×p`) are
        // skipped or read as zero.
        let mut dots = Vec::new();
        if let Some((x, nrows)) = spmv {
            let p = self.cfg.partition_size;
            let (row0, col0) = (part.grid_row * p, part.grid_col * p);
            dots = scratch.take_dots();
            for (lr, row) in &d.contributions {
                let gr = row0 + lr;
                if gr >= nrows {
                    continue;
                }
                let dot: f32 = row
                    .iter()
                    .enumerate()
                    .map(|(lc, &v)| {
                        let gc = col0 + lc;
                        if gc < x.len() {
                            v * x[gc]
                        } else {
                            0.0
                        }
                    })
                    .sum();
                dots.push((gr, dot));
            }
        }
        scratch.recycle_decompression(d);
        Ok((timing, dots))
    }

    /// Processes `parts` on up to [`Run::tile_jobs`] scoped worker threads:
    /// one pooled [`EncodeScratch`] per worker, tiles claimed from an
    /// atomic cursor, each worker polling the cancellation token before it
    /// claims and finishing each claimed tile, dot products and buffer
    /// recycling included, with [`Run::process_partition`]. Returns the
    /// worker scratches (to take back each slot's dot list, then be handed
    /// back) and one `(worker, result)` slot per partition, empty for
    /// tiles nobody claimed. Worker phase time folds into `acc` (summed
    /// across workers).
    fn process_grid_parallel(
        &self,
        parts: &[Partition<f32>],
        format: FormatKind,
        spmv: Option<Operand<'_>>,
        scratch: &mut EncodeScratch,
        acc: &mut PhaseAcc,
    ) -> (Vec<EncodeScratch>, Vec<Option<(usize, TileResult)>>) {
        let n = parts.len();
        let profiled = self.profiler.is_some();
        let pool = scratch.take_workers(self.tile_jobs.min(n));
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<(usize, TileResult)>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut returned: Vec<EncodeScratch> = Vec::with_capacity(pool.len());
        std::thread::scope(|s| {
            let cursor = &cursor;
            let handles: Vec<_> = pool
                .into_iter()
                .map(|mut ws| {
                    s.spawn(move || {
                        let mut wacc = PhaseAcc::new(profiled);
                        let mut done: Vec<(usize, TileResult)> = Vec::new();
                        while !self.cancelled() {
                            let idx = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if idx >= n {
                                break;
                            }
                            let result = self.process_partition(
                                &parts[idx],
                                format,
                                spmv,
                                &mut ws,
                                &mut wacc,
                            );
                            done.push((idx, result));
                        }
                        (ws, wacc, done)
                    })
                })
                .collect();
            for handle in handles {
                let (ws, wacc, done) = match handle.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                acc.merge(&wacc);
                for (idx, result) in done {
                    slots[idx] = Some((returned.len(), result));
                }
                returned.push(ws);
            }
        });
        (returned, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, RunRequest, Session};
    use sparsemat::{Coo, Matrix};

    fn matrix() -> Coo<f32> {
        let mut coo = Coo::new(64, 64);
        for i in 0..64usize {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < 64 {
                coo.push(i, i + 1, -1.0).unwrap();
            }
            if i >= 17 {
                coo.push(i, i - 17, 3.0).unwrap();
            }
        }
        coo
    }

    fn session() -> Session {
        Session::new(HwConfig::default()).unwrap()
    }

    fn run(s: &mut Session, m: &Coo<f32>, kind: FormatKind) -> RunReport {
        s.run(RunRequest::matrix(m, kind)).unwrap().report
    }

    fn run_parallel(
        s: &mut Session,
        m: &Coo<f32>,
        kind: FormatKind,
        lanes: usize,
    ) -> ParallelReport {
        s.run(RunRequest::matrix(m, kind).with_lanes(lanes))
            .unwrap()
            .parallel
            .unwrap()
    }

    #[test]
    fn dense_sigma_is_exactly_one() {
        let report = run(&mut session(), &matrix(), FormatKind::Dense);
        assert_eq!(report.sigma(), 1.0);
    }

    #[test]
    fn all_formats_run_and_verify() {
        let mut s = session();
        for kind in FormatKind::CHARACTERIZED {
            let report = run(&mut s, &matrix(), kind);
            assert!(report.partitions > 0, "{kind}");
            assert!(report.total_cycles > 0, "{kind}");
            assert!(report.sigma() > 0.0, "{kind}");
        }
    }

    #[test]
    fn spmv_through_datapath_matches_reference() {
        let m = matrix();
        let x: Vec<f32> = (0..64).map(|i| ((i % 7) as f32) - 3.0).collect();
        let expect = m.spmv(&x).unwrap();
        let mut s = session();
        for kind in FormatKind::CHARACTERIZED {
            let y = s
                .run(RunRequest::matrix(&m, kind).consume_spmv(&x))
                .unwrap()
                .y
                .unwrap();
            assert_eq!(y, expect, "{kind}");
        }
    }

    #[test]
    fn spmv_rejects_wrong_operand() {
        let mut s = session();
        assert!(matches!(
            s.run(RunRequest::matrix(&matrix(), FormatKind::Csr).consume_spmv(&[1.0; 3])),
            Err(PlatformError::Sparse(_))
        ));
    }

    #[test]
    fn csc_is_the_slowest_compute() {
        // §6.1: "The worst-case scenario of decompression occurs with the
        // CSC format."
        let mut s = session();
        let m = matrix();
        let csc = run(&mut s, &m, FormatKind::Csc);
        for kind in FormatKind::CHARACTERIZED {
            if kind == FormatKind::Csc {
                continue;
            }
            let other = run(&mut s, &m, kind);
            assert!(
                csc.total_compute_cycles >= other.total_compute_cycles,
                "CSC should beat {kind} at being slow"
            );
        }
    }

    #[test]
    fn sparse_formats_move_fewer_bytes_than_dense() {
        // §6.2: "the latency to transmit data and metadata for all sparse
        // formats is much lower than that for the dense format."
        let mut s = session();
        let m = matrix();
        let dense = run(&mut s, &m, FormatKind::Dense);
        for kind in [
            FormatKind::Csr,
            FormatKind::Coo,
            FormatKind::Lil,
            FormatKind::Ell,
            FormatKind::Dia,
        ] {
            let r = run(&mut s, &m, kind);
            assert!(
                r.total_bytes < dense.total_bytes,
                "{kind} moved {} >= dense {}",
                r.total_bytes,
                dense.total_bytes
            );
        }
    }

    #[test]
    fn stream_codecs_trade_memory_cycles_for_entropy_decode() {
        let m = matrix();
        let mut s = session();
        let base = run(&mut s, &m, FormatKind::Csr);
        assert_eq!(base.total_entropy_cycles, 0);
        assert_eq!(base.total_coded_bytes, base.total_bytes);
        let cfg = HwConfig {
            stream_codec: crate::CodecKind::DeltaVarint,
            ..HwConfig::default()
        };
        let mut coded = Session::new(cfg).unwrap();
        let r = run(&mut coded, &m, FormatKind::Csr);
        // Sorted CSR index streams compress, shrinking the memory stage ...
        assert!(r.total_coded_bytes < r.total_bytes);
        assert!(r.total_mem_cycles < base.total_mem_cycles);
        // ... and the decoder surcharge lands exactly in the compute stage.
        assert!(r.total_entropy_cycles > 0);
        assert_eq!(
            r.total_compute_cycles,
            base.total_compute_cycles + r.total_entropy_cycles
        );
        // Structural accounting (the paper's metrics) is untouched.
        assert_eq!(r.total_bytes, base.total_bytes);
        assert_eq!(r.total_decomp_cycles, base.total_decomp_cycles);
        assert_eq!(r.useful_bytes, base.useful_bytes);
        assert_eq!(r.bandwidth_utilization(), base.bandwidth_utilization());
    }

    #[test]
    fn pipelined_total_is_at_least_the_bottleneck_sum() {
        let r = run(&mut session(), &matrix(), FormatKind::Csr);
        assert!(r.total_cycles >= r.total_mem_cycles.max(r.total_compute_cycles));
        assert!(
            r.total_cycles
                <= r.total_mem_cycles + r.total_compute_cycles + r.total_writeback_cycles
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = HwConfig {
            partition_size: 0,
            ..HwConfig::default()
        };
        assert!(matches!(Session::new(cfg), Err(PlatformError::Config(_))));
    }

    #[test]
    fn reports_are_deterministic() {
        let mut s = session();
        let a = run(&mut s, &matrix(), FormatKind::Lil);
        let b = run(&mut s, &matrix(), FormatKind::Lil);
        assert_eq!(a, b);
        // Attaching a sink must not perturb the report: instrumented and
        // uninstrumented runs are bit-identical.
        let mut sink = copernicus_telemetry::RecordingSink::new();
        let c = s
            .run(RunRequest::matrix(&matrix(), FormatKind::Lil).with_sink(&mut sink))
            .unwrap()
            .report;
        assert_eq!(a, c);
        assert!(!sink.events.is_empty());
    }

    #[test]
    fn trace_spans_sum_exactly_to_report_totals() {
        // The defining invariant of the telemetry layer: for every format,
        // the emitted stage spans account for each report total exactly.
        let mut s = session();
        let m = matrix();
        for kind in FormatKind::CHARACTERIZED {
            let mut sink = copernicus_telemetry::RecordingSink::new();
            let report = s
                .run(RunRequest::matrix(&m, kind).with_sink(&mut sink))
                .unwrap()
                .report;
            assert_eq!(
                sink.stage_cycles(Stage::MemRead),
                report.total_mem_cycles,
                "{kind}"
            );
            assert_eq!(
                sink.stage_cycles(Stage::Compute),
                report.total_compute_cycles,
                "{kind}"
            );
            assert_eq!(
                sink.stage_cycles(Stage::Decompress),
                report.total_decomp_cycles,
                "{kind}"
            );
            assert_eq!(
                sink.stage_cycles(Stage::WriteBack),
                report.total_writeback_cycles,
                "{kind}"
            );
            assert_eq!(sink.count("partition_start"), report.partitions, "{kind}");
            assert_eq!(sink.count("run_start"), 1, "{kind}");
            assert_eq!(
                sink.events.last(),
                Some(&PipelineEvent::RunComplete {
                    total_cycles: report.total_cycles
                }),
                "{kind}"
            );
        }
    }

    #[test]
    fn trace_spans_form_a_consistent_schedule() {
        let mut s = session();
        let mut sink = copernicus_telemetry::RecordingSink::new();
        s.run(RunRequest::matrix(&matrix(), FormatKind::Csr).with_sink(&mut sink))
            .unwrap();
        // Memory bursts serialize back-to-back on the channel; compute
        // never starts before its operands have arrived; decompression is a
        // prefix of its compute span.
        let mut mem_cursor = 0u64;
        let mut spans: std::collections::HashMap<
            usize,
            std::collections::HashMap<&str, (u64, u64)>,
        > = std::collections::HashMap::new();
        for e in &sink.events {
            if let PipelineEvent::StageSpan {
                stage,
                partition,
                start_cycle,
                cycles,
                ..
            } = e
            {
                spans
                    .entry(*partition)
                    .or_default()
                    .insert(stage.label(), (*start_cycle, *cycles));
                if *stage == Stage::MemRead {
                    assert_eq!(*start_cycle, mem_cursor);
                    mem_cursor += cycles;
                }
            }
        }
        for (part, by_stage) in &spans {
            let (mem_start, mem_cycles) = by_stage["mem_read"];
            let (comp_start, comp_cycles) = by_stage["compute"];
            let (decomp_start, decomp_cycles) = by_stage["decompress"];
            let (wb_start, _) = by_stage["write_back"];
            assert!(comp_start >= mem_start + mem_cycles, "partition {part}");
            assert_eq!(decomp_start, comp_start, "partition {part}");
            assert!(decomp_cycles <= comp_cycles, "partition {part}");
            assert!(wb_start >= comp_start + comp_cycles, "partition {part}");
        }
    }

    #[test]
    fn spmv_processes_each_partition_once_and_report_is_unchanged() {
        let mut s = session();
        let m = matrix();
        let x: Vec<f32> = (0..64).map(|i| ((i % 5) as f32) - 2.0).collect();
        for kind in FormatKind::CHARACTERIZED {
            let mut sink = copernicus_telemetry::RecordingSink::new();
            let outcome = s
                .run(
                    RunRequest::matrix(&m, kind)
                        .consume_spmv(&x)
                        .with_sink(&mut sink),
                )
                .unwrap();
            let report = outcome.report;
            // Identical to the timing-only run: the SpMV path reuses the
            // same single encode+decompress pass per tile.
            assert_eq!(report, run(&mut s, &m, kind), "{kind}");
            assert_eq!(outcome.y.unwrap(), m.spmv(&x).unwrap(), "{kind}");
            // Exactly one span set per partition — a second encode pass
            // would double this.
            assert_eq!(sink.count("stage_span"), 4 * report.partitions, "{kind}");
        }
    }

    #[test]
    fn parallel_trace_lands_on_lane_tracks() {
        let mut s = session();
        let m = matrix();
        let lanes = 3;
        let mut sink = copernicus_telemetry::RecordingSink::new();
        let report = s
            .run(
                RunRequest::matrix(&m, FormatKind::Csc)
                    .with_lanes(lanes)
                    .with_sink(&mut sink),
            )
            .unwrap()
            .parallel
            .unwrap();
        let mut lane_compute = vec![0u64; lanes];
        let mut mem_total = 0u64;
        for e in &sink.events {
            if let PipelineEvent::StageSpan {
                stage,
                lane,
                cycles,
                ..
            } = e
            {
                let lane = lane.expect("parallel spans carry a lane");
                assert!(lane < lanes);
                match stage {
                    Stage::MemRead => mem_total += cycles,
                    Stage::Compute => lane_compute[lane] += cycles,
                    _ => {}
                }
            }
        }
        assert_eq!(mem_total, report.shared_mem_cycles);
        assert_eq!(
            lane_compute.iter().copied().max().unwrap(),
            report.max_lane_compute_cycles
        );
        assert_eq!(
            lane_compute.iter().sum::<u64>(),
            report.single_lane.total_compute_cycles
        );
    }

    #[test]
    fn parallel_lanes_speed_up_compute_bound_formats() {
        // CSC is deeply compute-bound: aggregating instances must help
        // nearly linearly until the shared channel saturates.
        let mut s = session();
        let m = matrix();
        let r1 = run_parallel(&mut s, &m, FormatKind::Csc, 1);
        let r4 = run_parallel(&mut s, &m, FormatKind::Csc, 4);
        assert!(r4.total_cycles < r1.total_cycles);
        assert!(r4.speedup() > 1.5, "speedup {}", r4.speedup());
        assert!(r4.efficiency() <= 1.0 + 1e-9);
    }

    #[test]
    fn surplus_lanes_do_not_dilute_efficiency() {
        // A single 16x16 partition can keep exactly one lane busy; with 8
        // lanes configured, efficiency must be judged against that one
        // usable lane (== speedup), not divided by the 7 idle ones.
        let mut s = session();
        let mut m = Coo::new(16, 16);
        m.push(3, 5, 1.0).unwrap();
        m.push(7, 2, -2.0).unwrap();
        let r = run_parallel(&mut s, &m, FormatKind::Csr, 8);
        assert_eq!(r.single_lane.partitions, 1);
        assert_eq!(r.effective_lanes(), 1);
        assert!(
            (r.efficiency() - r.speedup()).abs() < 1e-12,
            "efficiency {} vs speedup {}",
            r.efficiency(),
            r.speedup()
        );
    }

    #[test]
    fn effective_lanes_caps_at_partition_count() {
        let mut s = session();
        let m = matrix(); // 64x64 at p=16 -> 4x4 grid, 16 partitions max
        let r4 = run_parallel(&mut s, &m, FormatKind::Csr, 4);
        assert_eq!(r4.effective_lanes(), 4);
        let r64 = run_parallel(&mut s, &m, FormatKind::Csr, 64);
        assert_eq!(r64.effective_lanes(), r64.single_lane.partitions);
        assert!(r64.effective_lanes() < 64);
        assert!(r64.efficiency() <= 1.0 + 1e-9);
    }

    #[test]
    fn empty_grid_parallel_report_is_neutral() {
        // Zero partitions -> zero cycles at any lane count: speedup pins to
        // the neutral 1.0 and efficiency follows via effective_lanes == 1.
        let r = run_parallel(&mut session(), &Coo::new(32, 32), FormatKind::Csr, 4);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.speedup(), 1.0);
        assert_eq!(r.effective_lanes(), 1);
        assert_eq!(r.efficiency(), 1.0);
        assert!(r.is_memory_bound());
    }

    #[test]
    fn parallel_lanes_cannot_beat_the_shared_channel() {
        // The dense format is already memory-heavy; lanes saturate fast and
        // the run ends memory-bound at the channel's serialized time.
        let mut s = session();
        let m = matrix();
        let r8 = run_parallel(&mut s, &m, FormatKind::Dense, 8);
        assert!(r8.is_memory_bound());
        assert_eq!(r8.total_cycles, r8.shared_mem_cycles);
    }

    #[test]
    fn zero_lanes_is_rejected() {
        let mut s = session();
        assert!(matches!(
            s.run(RunRequest::matrix(&matrix(), FormatKind::Coo).with_lanes(0)),
            Err(PlatformError::Config(_))
        ));
    }

    #[test]
    fn one_lane_matches_the_unpipelined_bound() {
        let mut s = session();
        let m = matrix();
        let r = run_parallel(&mut s, &m, FormatKind::Csr, 1);
        // One lane = max(all mem, all compute), which can only be <= the
        // pipelined single-lane total (that adds fill and per-partition
        // bottlenecks).
        assert!(r.total_cycles <= r.single_lane.total_cycles);
        assert!(r.speedup() >= 1.0);
    }

    #[test]
    fn empty_matrix_produces_empty_report() {
        let r = run(&mut session(), &Coo::new(32, 32), FormatKind::Csr);
        assert_eq!(r.partitions, 0);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.sigma(), 0.0);
        assert_eq!(r.throughput_bytes_per_sec(), 0.0);
    }

    #[test]
    fn degenerate_report_metrics_stay_finite() {
        // The empty run pins the zero edges ...
        let r = run(&mut session(), &Coo::new(32, 32), FormatKind::Csr);
        assert_eq!(r.total_seconds(), 0.0);
        assert_eq!(r.throughput_bytes_per_sec(), 0.0);
        assert_eq!(r.bandwidth_utilization(), 0.0);
        // ... and a hand-built report with a broken clock (HwConfig::validate
        // would reject it, but serialized reports can carry anything) must
        // yield 0.0, never NaN/Inf.
        let mut broken = r.clone();
        broken.total_cycles = 100;
        broken.total_bytes = 64;
        for clock in [0.0, -250.0, f64::NAN, f64::INFINITY] {
            broken.clock_mhz = clock;
            assert_eq!(broken.total_seconds(), 0.0, "clock={clock}");
            assert_eq!(broken.throughput_bytes_per_sec(), 0.0, "clock={clock}");
        }
        broken.clock_mhz = 250.0;
        assert!(broken.total_seconds() > 0.0);
        assert!(broken.throughput_bytes_per_sec().is_finite());
    }

    #[test]
    fn cpu_backend_reports_at_the_cpu_clock() {
        let cfg = HwConfig {
            backend: crate::BackendKind::Cpu,
            ..HwConfig::default()
        };
        let mut s = Session::new(cfg.clone()).unwrap();
        let r = run(&mut s, &matrix(), FormatKind::Csr);
        assert_eq!(r.clock_mhz, cfg.cpu.clock_mhz);
        assert!(r.total_cycles > 0);
        // The dense-equivalent baseline is the CPU's, so σ still compares
        // like with like.
        assert_eq!(
            r.dense_equivalent_compute,
            r.partitions as u64
                * cfg.partition_size as u64
                * cfg.cpu.dot_latency(cfg.partition_size)
        );
    }

    #[test]
    fn hetero_backend_never_exceeds_the_pure_hls_bottlenecks() {
        // The dispatcher only reroutes a partition when the HLS pipeline is
        // memory-bound on it; every partition it touches keeps the stage
        // structure, so a report still forms and stays deterministic.
        let m = matrix();
        let mut hls = session();
        let base = run(&mut hls, &m, FormatKind::Dense);
        let mut het = Session::new(HwConfig {
            backend: crate::BackendKind::Hetero,
            ..HwConfig::default()
        })
        .unwrap();
        let r = run(&mut het, &m, FormatKind::Dense);
        assert_eq!(r.partitions, base.partitions);
        // Dense is memory-bound on the FPGA, so the CPU path must fire and
        // shrink the memory stage (cycles land in the 250 MHz domain).
        assert!(r.total_mem_cycles < base.total_mem_cycles);
        let again = run(&mut het, &m, FormatKind::Dense);
        assert_eq!(r, again);
    }

    #[test]
    fn only_runs_nobody_reads_rows_from_skip_the_decompressor() {
        // A profiled run laps `decompress` exactly when tiles are walked.
        let laps = |cfg: HwConfig, m: &Coo<f32>, spmv: bool, grid: bool| {
            let profiler = std::sync::Arc::new(PhaseProfiler::new());
            let mut s = Session::new(cfg).unwrap().with_profiler(profiler.clone());
            let x = vec![1.0f32; m.ncols()];
            let built = PartitionGrid::new(m, s.config().partition_size).unwrap();
            let mut request = if grid {
                RunRequest::grid(&built, FormatKind::Csr)
            } else {
                RunRequest::matrix(m, FormatKind::Csr)
            };
            if spmv {
                request = request.consume_spmv(&x);
            }
            s.run(request).unwrap();
            let count = |phase| profiler.histogram(phase).map_or(0, |h| h.count());
            (count(Phase::Partition), count(Phase::Decompress))
        };
        let walks = |cfg: HwConfig, m: &Coo<f32>, spmv: bool| laps(cfg, m, spmv, false).1 > 0;
        let off = HwConfig {
            verify_functional: false,
            ..HwConfig::default()
        };
        let m = matrix();
        // A matrix is measured, never walked: one pattern build, no decompress.
        assert_eq!(
            laps(off.clone(), &m, false, false),
            (1, 0),
            "structural path"
        );
        assert!(laps(off.clone(), &m, false, true).1 > 0, "a grid walks");
        assert!(walks(HwConfig::default(), &m, false), "verification walks");
        assert!(walks(off.clone(), &m, true), "an SpMV consumer walks");
        let coded = HwConfig {
            stream_codec: CodecKind::Rle,
            ..off.clone()
        };
        assert!(walks(coded, &m, false), "a codec walks");
        let mut dup = m.clone();
        dup.push(3, 3, 1.0).unwrap();
        assert!(walks(off, &dup, false), "a duplicate coordinate walks");
    }
}
