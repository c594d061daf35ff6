//! Hardware backends: pluggable cost models behind one trait.
//!
//! The paper's numbers all come from one device — the 250 MHz Zynq HLS
//! streaming pipeline. [`Backend`] abstracts that device so the same
//! encode/decompress machinery can be costed on different hardware:
//!
//! * [`HlsStreamBackend`] — the paper's model, verbatim. Every cycle
//!   formula lives here exactly as `pipeline` charged it before the
//!   trait existed, so `RunReport`s are byte-identical to the golden
//!   snapshot.
//! * [`CpuCacheBackend`] — an analytical cache-hierarchy CPU: the
//!   partition's working set picks an L1/L2/LLC/DRAM access latency,
//!   entropy decode reuses the codec cost tables, and dot products
//!   issue over a SIMD engine instead of the FPGA's `p`-wide tree.
//! * [`HeteroBackend`] — a per-partition dispatcher. Partitions that
//!   are memory-bound on the FPGA (the paper's §4.2 balance signal,
//!   `mem > compute`) route to the CPU model; compute-bound partitions
//!   stay on the HLS pipeline. CPU cycles are rescaled into the HLS
//!   clock domain so one report stays internally consistent.
//!
//! A backend prices [`TileCounters`] — bytes, decoder cycles, dot issues
//! and BRAM reads — so it never sees how they were obtained: read off a
//! walked encode → decompress pass, or evaluated from a tile's structure
//! ([`TileStats`](crate::TileStats)).
//!
//! The format/codec half of [`HwConfig`] (partition size, stream
//! widths, `stream_codec`) is backend-independent: it describes *what*
//! is transferred and decoded. Backends only own *how much that costs*.
//! Backend-specific knobs live in [`CpuParams`] (and the pre-existing
//! bus/BRAM fields for the HLS device), selected by [`HwConfig::backend`].

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::config::{ceil_log2, HwConfig};
use crate::decomp::Decompression;
use crate::encode::EncodedPartition;
use crate::pipeline::PartitionTiming;

/// Which hardware model costs each partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The paper's 250 MHz HLS streaming pipeline (the default).
    Hls,
    /// Analytical cache-hierarchy CPU model.
    Cpu,
    /// Per-partition heterogeneous dispatch between the two.
    Hetero,
}

impl BackendKind {
    /// Every backend, in CLI/report order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Hls, BackendKind::Cpu, BackendKind::Hetero];
}

// Manual rather than derived: the vendored serde derive shares the
// attribute namespace, so the std `#[default]` variant marker is off
// the table.
#[allow(clippy::derivable_impls)]
impl Default for BackendKind {
    fn default() -> Self {
        BackendKind::Hls
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BackendKind::Hls => "hls",
            BackendKind::Cpu => "cpu",
            BackendKind::Hetero => "hetero",
        };
        f.write_str(name)
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hls" => Ok(BackendKind::Hls),
            "cpu" => Ok(BackendKind::Cpu),
            "hetero" => Ok(BackendKind::Hetero),
            other => Err(format!(
                "unknown backend {other:?} (expected hls, cpu, or hetero)"
            )),
        }
    }
}

/// Parameters of the analytical CPU cache-hierarchy model.
///
/// Up to three cache levels in front of DRAM, each with a load-to-use
/// latency in CPU cycles, and a SIMD unit that processes `simd_width`
/// values per issue. The partition's structural working set (its total
/// encoded bytes) selects the smallest level it fits in; every
/// BRAM-equivalent read and dot issue pays that level's latency.
///
/// Defaults model the paper platform's own heterogeneous companion: the
/// Zynq SoC's embedded application core (a 667 MHz Cortex-A9 with
/// 4-lane NEON), which shares the DDR3 channel with the fabric. The SoC
/// has no L3, so the LLC level defaults to the shared 512 KiB L2; point
/// the fields at a bigger host to model one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuParams {
    /// Core clock in MHz.
    pub clock_mhz: f64,
    /// Values per SIMD issue (8 = AVX2 f32 lanes).
    pub simd_width: usize,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: u64,
    /// L1 load-to-use latency in cycles.
    pub l1_latency: u64,
    /// L2 load-to-use latency in cycles.
    pub l2_latency: u64,
    /// LLC load-to-use latency in cycles.
    pub llc_latency: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Streaming DRAM bandwidth in bytes per CPU cycle.
    pub dram_bytes_per_cycle: u64,
    /// Package power draw, in watts.
    pub tdp_watts: f64,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            clock_mhz: 667.0,
            simd_width: 4,
            l1_bytes: 32 * 1024,
            l2_bytes: 512 * 1024,
            llc_bytes: 512 * 1024,
            l1_latency: 4,
            l2_latency: 25,
            llc_latency: 25,
            dram_latency: 150,
            dram_bytes_per_cycle: 8,
            tdp_watts: 1.5,
        }
    }
}

impl CpuParams {
    /// Rejects parameter combinations the model cannot cost sensibly.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.clock_mhz > 0.0 && self.clock_mhz.is_finite()) {
            return Err(format!(
                "cpu clock_mhz must be positive and finite, got {}",
                self.clock_mhz
            ));
        }
        if self.simd_width == 0 {
            return Err("cpu simd_width must be at least 1".to_string());
        }
        if self.dram_bytes_per_cycle == 0 {
            return Err("cpu dram_bytes_per_cycle must be at least 1".to_string());
        }
        if !(self.l1_bytes <= self.l2_bytes && self.l2_bytes <= self.llc_bytes) {
            return Err(format!(
                "cpu cache capacities must be non-decreasing, got l1={} l2={} llc={}",
                self.l1_bytes, self.l2_bytes, self.llc_bytes
            ));
        }
        if !(self.l1_latency <= self.l2_latency
            && self.l2_latency <= self.llc_latency
            && self.llc_latency <= self.dram_latency)
        {
            return Err(format!(
                "cpu access latencies must be non-decreasing, got l1={} l2={} llc={} dram={}",
                self.l1_latency, self.l2_latency, self.llc_latency, self.dram_latency
            ));
        }
        if !(self.tdp_watts >= 0.0 && self.tdp_watts.is_finite()) {
            return Err(format!(
                "cpu tdp_watts must be non-negative and finite, got {}",
                self.tdp_watts
            ));
        }
        Ok(())
    }

    /// Load-to-use latency for a working set of `bytes`: the smallest
    /// cache level that holds it, or DRAM when none does.
    pub fn access_latency(&self, bytes: u64) -> u64 {
        if bytes <= self.l1_bytes {
            self.l1_latency
        } else if bytes <= self.l2_bytes {
            self.l2_latency
        } else if bytes <= self.llc_bytes {
            self.llc_latency
        } else {
            self.dram_latency
        }
    }

    /// Cycles to finish one dot product of `width` values on the SIMD
    /// unit: `⌈width/simd⌉` multiply-add issues plus a log-depth
    /// horizontal reduction and one writeback cycle — the CPU analogue
    /// of [`HwConfig::dot_latency`].
    pub fn dot_latency(&self, width: usize) -> u64 {
        let lanes = self.simd_width.min(width.max(1));
        width.max(1).div_ceil(self.simd_width) as u64 + ceil_log2(lanes) + 1
    }
}

/// Everything a [`Backend`] reads about one partition: its transfer
/// accounting and its decompression schedule, without the rows.
///
/// Two sources produce the same value: [`TileCounters::walked`] reads it
/// off an encoded partition and its walked decompression, and
/// [`TileStats::counters`](crate::TileStats::counters) evaluates the
/// DESIGN.md §3 closed forms from one structural pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCounters {
    /// Bytes of the structural encoding (data + metadata).
    pub bytes: u64,
    /// Bytes crossing the bus after the second-stage codec.
    pub coded_bytes: u64,
    /// Bytes of useful payload (the non-zero values).
    pub useful_bytes: u64,
    /// Second-stage decoder cycles (zero without a codec).
    pub entropy_cycles: u64,
    /// Structural-decompression cycles (`T_decomp` of Eq. 1).
    pub decomp_cycles: u64,
    /// Dot products issued to the engine.
    pub dot_issues: u64,
    /// Width of the engine the dot products go to.
    pub engine_width: usize,
    /// BRAM read transactions.
    pub bram_reads: u64,
}

impl TileCounters {
    /// The counters of an encoded partition and its walked decompression.
    pub fn walked(encoded: &EncodedPartition, d: &Decompression, cfg: &HwConfig) -> Self {
        TileCounters {
            bytes: encoded.total_bytes(),
            coded_bytes: encoded.transfer_bytes(),
            useful_bytes: encoded.useful_bytes,
            entropy_cycles: encoded.entropy_cycles(cfg),
            decomp_cycles: d.decomp_cycles,
            dot_issues: d.dot_issues,
            engine_width: d.engine_width,
            bram_reads: d.bram_reads,
        }
    }
}

/// A hardware cost model: turns one partition's [`TileCounters`] into
/// stage cycle counts.
///
/// Implementations are stateless — all tunables come from the
/// [`HwConfig`] passed at each call, so a `&'static` instance can be
/// shared across tiles and worker threads.
pub trait Backend: Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Cost one partition: memory-read, compute (structural decompress +
    /// entropy decode + dot products), and write-back stage cycles.
    fn price(&self, c: &TileCounters, cfg: &HwConfig) -> PartitionTiming;

    /// [`Backend::price`] over an encoded partition and its walked
    /// decompression.
    fn partition_timing(
        &self,
        encoded: &EncodedPartition,
        d: &Decompression,
        cfg: &HwConfig,
    ) -> PartitionTiming {
        self.price(&TileCounters::walked(encoded, d, cfg), cfg)
    }

    /// Compute cycles a dense `p×p` partition would take on this
    /// backend — the σ (Eq. 1) normalization baseline.
    fn dense_equivalent_cycles(&self, cfg: &HwConfig) -> u64;

    /// Clock the reported cycles tick at, in MHz.
    fn clock_mhz(&self, cfg: &HwConfig) -> f64;
}

impl fmt::Debug for dyn Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Backend({})", self.kind())
    }
}

/// The paper's HLS streaming pipeline — the pre-trait cost model,
/// formula for formula.
#[derive(Debug, Clone, Copy, Default)]
pub struct HlsStreamBackend;

impl Backend for HlsStreamBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Hls
    }

    fn price(&self, c: &TileCounters, cfg: &HwConfig) -> PartitionTiming {
        PartitionTiming {
            mem_cycles: cfg.transfer_cycles(c.coded_bytes),
            compute_cycles: c.decomp_cycles
                + c.dot_issues * cfg.dot_latency(c.engine_width)
                + c.entropy_cycles,
            decomp_cycles: c.decomp_cycles,
            entropy_cycles: c.entropy_cycles,
            writeback_cycles: cfg.transfer_cycles((cfg.partition_size * cfg.value_bytes) as u64),
            dot_issues: c.dot_issues,
            bytes: c.bytes,
            coded_bytes: c.coded_bytes,
            useful_bytes: c.useful_bytes,
            bram_reads: c.bram_reads,
        }
    }

    fn dense_equivalent_cycles(&self, cfg: &HwConfig) -> u64 {
        cfg.partition_size as u64 * cfg.dot_latency_full()
    }

    fn clock_mhz(&self, cfg: &HwConfig) -> f64 {
        cfg.clock_mhz
    }
}

/// Analytical CPU model: cache-hierarchy access latency, codec-table
/// entropy decode, SIMD dot products, DRAM-streamed transfers.
///
/// Cycle charges are monotone by construction — every term grows (or
/// stays put) with more encoded bytes / issues / reads, and shrinks (or
/// stays put) with larger caches — properties the proptest suite pins.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuCacheBackend;

impl Backend for CpuCacheBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn price(&self, c: &TileCounters, cfg: &HwConfig) -> PartitionTiming {
        let cpu = &cfg.cpu;
        // Entropy decode prices from the same codec cost tables the HLS
        // second-stage decoder uses (cycles here tick at the CPU clock).
        // The structural working set picks the cache level every element
        // access pays for.
        let latency = cpu.access_latency(c.bytes);
        let access_cycles = (c.bram_reads + c.dot_issues) * latency;
        let dot_cycles = c.dot_issues * cpu.dot_latency(c.engine_width);
        let stream = |bytes: u64| cpu.dram_latency + bytes.div_ceil(cpu.dram_bytes_per_cycle);
        PartitionTiming {
            mem_cycles: stream(c.coded_bytes),
            compute_cycles: c.entropy_cycles + c.decomp_cycles + access_cycles + dot_cycles,
            decomp_cycles: c.decomp_cycles,
            entropy_cycles: c.entropy_cycles,
            writeback_cycles: stream((cfg.partition_size * cfg.value_bytes) as u64),
            dot_issues: c.dot_issues,
            bytes: c.bytes,
            coded_bytes: c.coded_bytes,
            useful_bytes: c.useful_bytes,
            bram_reads: c.bram_reads,
        }
    }

    fn dense_equivalent_cycles(&self, cfg: &HwConfig) -> u64 {
        let p = cfg.partition_size;
        p as u64 * cfg.cpu.dot_latency(p)
    }

    fn clock_mhz(&self, cfg: &HwConfig) -> f64 {
        cfg.cpu.clock_mhz
    }
}

/// Heterogeneous dispatcher: per-partition choice between the HLS
/// pipeline and the CPU model, driven by the paper's balance signal.
///
/// A partition that is memory-bound on the FPGA (`mem > compute` in
/// the HLS costing — balance ratio above 1) is the case §4.2 flags as
/// wasting the accelerator; those route to the CPU, whose wider DRAM
/// path absorbs the transfer. Compute-bound partitions stay on the
/// HLS engine. The decision is a pure function of the partition's own
/// streams, so results are identical at any `--jobs`/`--tile-jobs`.
/// CPU cycle counts are rescaled into the HLS clock domain
/// (`× clock_mhz / cpu.clock_mhz`, rounded up) so the report's totals
/// and σ normalization stay in one time base.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeteroBackend;

/// Rescales a CPU-clock cycle count into HLS-clock cycles, rounding up
/// so a dispatched partition never costs zero ([`CpuParams::validate`]
/// rejects the infinite CPU clock that would round every cost to zero).
fn rescale(cycles: u64, cfg: &HwConfig) -> u64 {
    (cycles as f64 * cfg.clock_mhz / cfg.cpu.clock_mhz).ceil() as u64
}

impl Backend for HeteroBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Hetero
    }

    fn price(&self, c: &TileCounters, cfg: &HwConfig) -> PartitionTiming {
        let hls = HlsStreamBackend.price(c, cfg);
        if hls.mem_cycles <= hls.compute_cycles {
            // Compute-bound on the FPGA: the accelerator earns its keep.
            return hls;
        }
        // Memory-bound: dispatch to the CPU and bring its cycles into
        // the HLS clock domain.
        let cpu = CpuCacheBackend.price(c, cfg);
        PartitionTiming {
            mem_cycles: rescale(cpu.mem_cycles, cfg),
            compute_cycles: rescale(cpu.compute_cycles, cfg),
            decomp_cycles: rescale(cpu.decomp_cycles, cfg),
            entropy_cycles: rescale(cpu.entropy_cycles, cfg),
            writeback_cycles: rescale(cpu.writeback_cycles, cfg),
            ..cpu
        }
    }

    fn dense_equivalent_cycles(&self, cfg: &HwConfig) -> u64 {
        // Everything is normalized into the HLS clock domain, so σ keeps
        // the paper's dense baseline.
        HlsStreamBackend.dense_equivalent_cycles(cfg)
    }

    fn clock_mhz(&self, cfg: &HwConfig) -> f64 {
        cfg.clock_mhz
    }
}

/// Looks up the shared, stateless instance for a backend kind.
pub fn backend_for(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Hls => &HlsStreamBackend,
        BackendKind::Cpu => &CpuCacheBackend,
        BackendKind::Hetero => &HeteroBackend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in BackendKind::ALL {
            let parsed: BackendKind = kind.to_string().parse().expect("round trip");
            assert_eq!(parsed, kind);
        }
        let err = "gpu".parse::<BackendKind>().expect_err("unknown backend");
        assert!(err.contains("gpu"), "error names the offender: {err}");
    }

    #[test]
    fn registry_returns_the_matching_backend() {
        for kind in BackendKind::ALL {
            assert_eq!(backend_for(kind).kind(), kind);
        }
    }

    #[test]
    fn default_cpu_params_validate() {
        CpuParams::default().validate().expect("defaults are sane");
    }

    #[test]
    fn cpu_validation_rejects_inverted_hierarchies() {
        let mut p = CpuParams::default();
        p.l1_bytes = p.llc_bytes + 1;
        assert!(p.validate().is_err(), "L1 bigger than LLC must fail");
        let mut p = CpuParams::default();
        p.l2_latency = p.dram_latency + 1;
        p.llc_latency = p.dram_latency + 2;
        assert!(p.validate().is_err(), "latency inversion must fail");
        let p = CpuParams {
            simd_width: 0,
            ..CpuParams::default()
        };
        assert!(p.validate().is_err(), "zero-lane SIMD must fail");
        for clock_mhz in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let p = CpuParams {
                clock_mhz,
                ..CpuParams::default()
            };
            assert!(p.validate().is_err(), "clock {clock_mhz} must fail");
        }
        for tdp_watts in [-1.0, f64::NAN, f64::INFINITY] {
            let p = CpuParams {
                tdp_watts,
                ..CpuParams::default()
            };
            assert!(p.validate().is_err(), "tdp {tdp_watts} must fail");
        }
    }

    #[test]
    fn access_latency_walks_the_hierarchy() {
        let p = CpuParams::default();
        assert_eq!(p.access_latency(0), p.l1_latency);
        assert_eq!(p.access_latency(p.l1_bytes), p.l1_latency);
        assert_eq!(p.access_latency(p.l1_bytes + 1), p.l2_latency);
        assert_eq!(p.access_latency(p.llc_bytes + 1), p.dram_latency);
    }

    #[test]
    fn simd_dot_latency_matches_the_formula() {
        let p = CpuParams::default(); // 4 NEON lanes
                                      // 16 values: 4 issues + log2(4) reduction + 1 writeback.
        assert_eq!(p.dot_latency(16), 4 + 2 + 1);
        // Exactly the SIMD width: one issue plus the full reduction.
        assert_eq!(p.dot_latency(4), 1 + 2 + 1);
        // Narrower than the unit: reduction over the populated lanes only.
        assert_eq!(p.dot_latency(2), 1 + 1 + 1);
        assert_eq!(p.dot_latency(1), 2, "one issue, no reduction, writeback");
    }

    #[test]
    fn hetero_rescale_rounds_up_and_never_zeroes() {
        let mut cfg = HwConfig::default(); // 250 MHz fabric
        cfg.cpu.clock_mhz = 3000.0;
        assert_eq!(rescale(0, &cfg), 0);
        assert_eq!(rescale(1, &cfg), 1, "sub-cycle costs round up");
        assert_eq!(rescale(24, &cfg), 2);
    }
}
