//! Cycle-level model of the Copernicus HLS SpMV platform (§4–5 of the
//! paper).
//!
//! The paper's measurement substrate is a Xilinx xc7z020 FPGA programmed
//! through Vivado HLS; this crate is its simulation stand-in (see
//! `DESIGN.md` for the substitution argument). It models the full
//! architecture of Fig. 2:
//!
//! * an AXI-Stream memory interface ([`EncodedPartition`] — per-format byte
//!   accounting and transfer latency),
//! * an optional second-stage stream codec ([`codec`] — RLE, delta+varint,
//!   canonical Huffman over each transfer stream, with per-codec decoder
//!   cost models feeding the compute stage),
//! * one *decompressor per format* ([`decomp`]) whose cycle counts follow
//!   the paper's HLS listings 1–7 statement by statement (II=1 pipelined
//!   loops, single-cycle unrolled bodies over partitioned BRAMs, explicit
//!   `offsets` reads),
//! * a structural pricing pass ([`structure`]) that evaluates the
//!   decompressors' closed forms from one pass over a tile, used instead
//!   of encode → decompress by matrix and measured runs that read no
//!   decompressed rows, and by [`explain()`] for its cost terms,
//! * a fine-grained dot-product engine (multiplier array + balanced adder
//!   tree, [`HwConfig::dot_latency`]),
//! * the three-stage outer pipeline ([`pipeline`] — memory-read, compute,
//!   memory-write, bottleneck-overlapped across partitions), driven by a
//!   [`Session`],
//! * synthesis-side models: FPGA [`resources`] (Table 2) and [`power`]
//!   (Table 2 + Fig. 13),
//! * pluggable hardware [`backend`]s behind one trait: the HLS pipeline
//!   above, an analytical cache-hierarchy CPU model, and a per-partition
//!   heterogeneous dispatcher driven by the paper's balance ratio.
//!
//! Every decompressor is *functional*: it reconstructs the dense rows and
//! the platform cross-checks them against the reference tile (the analog of
//! the paper's C/RTL co-simulation), so the timing numbers always describe
//! a datapath that provably computes the right answer.
//!
//! # Example
//!
//! All runs go through one [`Session`], which owns the reusable encode /
//! decompress scratch buffers and accepts a [`RunRequest`] describing the
//! input, format and options (trace sink, SpMV consume, lane count):
//!
//! ```
//! use copernicus_hls::{HwConfig, RunRequest, Session};
//! use sparsemat::{Coo, FormatKind};
//!
//! # fn main() -> Result<(), copernicus_hls::PlatformError> {
//! // A very sparse matrix: one entry every fourth row.
//! let mut a = Coo::<f32>::new(32, 32);
//! for i in (0..32).step_by(4) {
//!     a.push(i, i, 2.0)?;
//! }
//! let mut session = Session::new(HwConfig::with_partition_size(16))?;
//! let report = session.run(RunRequest::matrix(&a, FormatKind::Csr))?.report;
//! assert!(report.sigma() < 1.0); // CSR skips the zero rows, dense cannot
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library paths must propagate PlatformError, not die; CI runs clippy with
// `-D warnings`, making this a gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod codec;
pub mod config;
pub mod decomp;
pub mod encode;
pub mod explain;
pub mod pipeline;
pub mod power;
pub mod resources;
pub mod scratch;
pub mod session;
pub mod structure;

pub use backend::{
    backend_for, Backend, BackendKind, CpuCacheBackend, CpuParams, HeteroBackend, HlsStreamBackend,
    TileCounters,
};
pub use codec::{codec_for, Codec, CodecCost, CodecError, CodecKind};
pub use config::{ceil_log2, HwConfig};
pub use decomp::{decompress, decompress_with, Decompression};
pub use encode::{EncodedPartition, Stream};
pub use explain::{explain, CostBreakdown, CostTerm};
pub use pipeline::{ParallelReport, PartitionTiming, PlatformError, RunReport};
pub use power::PowerBreakdown;
pub use resources::Resources;
pub use scratch::EncodeScratch;
pub use session::{Input, RunOutcome, RunRequest, Session};
pub use structure::{GridStats, TileStats};
