//! Hardware configuration of the modeled platform (§4.1 of the paper).

use crate::backend::{BackendKind, CpuParams};
use crate::codec::CodecKind;

/// Configuration of the modeled HLS SpMV platform.
///
/// Defaults mirror the paper's setup: a Zynq-7000 xc7z020 at 250 MHz fed by
/// a DDR3 channel through AXI-Stream, 4-byte values and indices, 4×4 BCSR
/// blocks, an ELL compute width of six, and BRAM reads that cost two cycles
/// (address + data registers).
///
/// ```
/// use copernicus_hls::HwConfig;
///
/// let cfg = HwConfig::with_partition_size(16);
/// assert_eq!(cfg.partition_size, 16);
/// // 1 multiplier stage + ⌈log2 16⌉ adder-tree stages + 1 accumulate.
/// assert_eq!(cfg.dot_latency(16), 6);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HwConfig {
    /// Fabric clock in MHz (the paper sets 250 MHz).
    pub clock_mhz: f64,
    /// Bytes the AXI/DDR3 channel delivers per fabric cycle (64-bit bus).
    pub bus_bytes_per_cycle: usize,
    /// Fixed cycles to set up one partition's burst transfer.
    pub burst_setup_cycles: u64,
    /// BRAM read latency in cycles (`L_bram`).
    pub bram_read_latency: u64,
    /// Bytes per streamed value (f32 → 4).
    pub value_bytes: usize,
    /// Bytes per streamed index (the paper's COO utilization of ~1/3 implies
    /// index width = value width).
    pub index_bytes: usize,
    /// Partition edge length `p` (8, 16 or 32 in the paper).
    pub partition_size: usize,
    /// BCSR block edge length (4 in the paper).
    pub bcsr_block: usize,
    /// Width of the dedicated ELL compute path ("In Copernicus, we set this
    /// width to six").
    pub ell_hw_width: usize,
    /// When true, [`crate::Session`] runs cross-check every decompressed row
    /// against the dense reference — the analog of the paper's C/RTL
    /// co-simulation. Costs time on large runs; on by default.
    pub verify_functional: bool,
    /// Second-stage codec applied to every transfer stream after structural
    /// encoding ([`CodecKind::None`] reproduces the paper's platform
    /// bit-for-bit). Coded streams larger than the structural form are
    /// shipped raw, so enabling a codec never increases transfer bytes.
    pub stream_codec: CodecKind,
    /// Hardware model that costs every partition ([`BackendKind::Hls`]
    /// reproduces the paper's platform bit-for-bit). The format/codec
    /// fields above stay backend-independent: they describe what is
    /// transferred and decoded, the backend decides what that costs.
    pub backend: BackendKind,
    /// Parameters of the CPU cache-hierarchy model, used by the `cpu`
    /// and `hetero` backends and ignored by `hls`.
    pub cpu: CpuParams,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            clock_mhz: 250.0,
            bus_bytes_per_cycle: 8,
            burst_setup_cycles: 4,
            bram_read_latency: 2,
            value_bytes: 4,
            index_bytes: 4,
            partition_size: 16,
            bcsr_block: 4,
            ell_hw_width: 6,
            verify_functional: true,
            stream_codec: CodecKind::None,
            backend: BackendKind::Hls,
            cpu: CpuParams::default(),
        }
    }
}

impl HwConfig {
    /// The default platform at a given partition size.
    pub fn with_partition_size(p: usize) -> Self {
        HwConfig {
            partition_size: p,
            ..HwConfig::default()
        }
    }

    /// Latency in cycles of one dot-product issue on an engine of `width`
    /// lanes: one multiplier stage, a balanced adder tree of
    /// `⌈log2 width⌉` stages, and one accumulate stage.
    ///
    /// This is the `T_dot` of the paper's σ definition (Eq. 1).
    pub fn dot_latency(&self, width: usize) -> u64 {
        1 + ceil_log2(width) + 1
    }

    /// `T_dot` for the full-width engine matched to the partition size —
    /// the denominator of σ uses `p × dot_latency_full()`.
    pub fn dot_latency_full(&self) -> u64 {
        self.dot_latency(self.partition_size)
    }

    /// Cycles to stream `bytes` over the memory channel, including burst
    /// setup.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.burst_setup_cycles + bytes.div_ceil(self.bus_bytes_per_cycle as u64)
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e6)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (zero sizes,
    /// zero clock, block larger than partition).
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_mhz <= 0.0 {
            return Err(format!("clock must be positive, got {}", self.clock_mhz));
        }
        if self.bus_bytes_per_cycle == 0 {
            return Err("bus width must be positive".into());
        }
        if self.partition_size == 0 {
            return Err("partition size must be positive".into());
        }
        if self.bcsr_block == 0 || self.bcsr_block > self.partition_size {
            return Err(format!(
                "BCSR block {} must be in 1..=partition size {}",
                self.bcsr_block, self.partition_size
            ));
        }
        if self.ell_hw_width == 0 {
            return Err("ELL hardware width must be positive".into());
        }
        if self.value_bytes == 0 || self.index_bytes == 0 {
            return Err("value/index widths must be positive".into());
        }
        self.cpu.validate()?;
        Ok(())
    }
}

/// `⌈log2 n⌉` as a cycle count; 0 for `n <= 1`.
pub fn ceil_log2(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = HwConfig::default();
        assert_eq!(cfg.clock_mhz, 250.0);
        assert_eq!(cfg.partition_size, 16);
        assert_eq!(cfg.bcsr_block, 4);
        assert_eq!(cfg.ell_hw_width, 6);
        assert_eq!(cfg.stream_codec, CodecKind::None);
        assert_eq!(cfg.backend, BackendKind::Hls);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_covers_the_cpu_params() {
        let mut cfg = HwConfig::default();
        cfg.cpu.simd_width = 0;
        let err = cfg.validate().expect_err("bad CPU params must fail");
        assert!(err.contains("simd_width"), "error names the field: {err}");
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(6), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(32), 5);
        // Extremes stay finite: no shift overflow at either end.
        assert_eq!(ceil_log2(usize::MAX), usize::BITS as u64);
        assert_eq!(HwConfig::default().dot_latency(0), 2);
        assert_eq!(HwConfig::default().dot_latency(1), 2);
    }

    #[test]
    fn dot_latency_grows_with_width() {
        let cfg = HwConfig::default();
        assert_eq!(cfg.dot_latency(1), 2);
        assert_eq!(cfg.dot_latency(6), 5);
        assert_eq!(cfg.dot_latency(8), 5);
        assert_eq!(cfg.dot_latency(16), 6);
        assert_eq!(cfg.dot_latency(32), 7);
        assert_eq!(cfg.dot_latency_full(), 6);
    }

    #[test]
    fn transfer_cycles_round_up_and_include_setup() {
        let cfg = HwConfig::default();
        assert_eq!(cfg.transfer_cycles(0), 4);
        assert_eq!(cfg.transfer_cycles(1), 5);
        assert_eq!(cfg.transfer_cycles(8), 5);
        assert_eq!(cfg.transfer_cycles(9), 6);
    }

    #[test]
    fn cycles_to_seconds_at_250mhz() {
        let cfg = HwConfig::default();
        assert!((cfg.cycles_to_seconds(250_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = |f: fn(&mut HwConfig)| {
            let mut cfg = HwConfig::default();
            f(&mut cfg);
            cfg.validate().is_err()
        };
        assert!(bad(|c| c.bcsr_block = 64));
        assert!(bad(|c| c.partition_size = 0));
        assert!(bad(|c| c.clock_mhz = 0.0));
        assert!(bad(|c| c.ell_hw_width = 0));
    }
}
