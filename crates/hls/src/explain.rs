//! Cost explanation: decomposes one partition's cycles into the named
//! terms of §5.2's per-format cost models, so a user can see *why* a
//! format is slow on their data ("CSC: 16 output rows × 113-tuple rescan
//! = 1808 cycles").
//!
//! The terms are read off the tile's structural counts
//! ([`TileStats`]), the same counts [`TileStats::counters`] prices every
//! measured tile from. Every breakdown is tested to sum exactly to the
//! [`decompress`](crate::decompress) cycle count of the walked encoding —
//! the explanation can never drift from the model.

use crate::{HwConfig, TileStats};
use sparsemat::FormatKind;

/// One named cost term of a partition's processing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostTerm {
    /// Human-readable description of the term.
    pub label: String,
    /// Cycles attributed to it.
    pub cycles: u64,
}

/// A partition's full cost story: compute-side terms plus the memory
/// transfer, with the bottleneck called out.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostBreakdown {
    /// Format the partition is encoded in.
    pub format: FormatKind,
    /// Decompression cost terms (sum = `T_decomp`).
    pub decomp_terms: Vec<CostTerm>,
    /// Dot-product cost term.
    pub dot_term: CostTerm,
    /// Memory transfer cost (data + metadata on the stream).
    pub memory_cycles: u64,
    /// Total compute cycles (= Σ decomp terms + dot term).
    pub compute_cycles: u64,
}

impl CostBreakdown {
    /// Which pipeline stage bounds this partition.
    pub fn bottleneck(&self) -> &'static str {
        if self.memory_cycles >= self.compute_cycles {
            "memory"
        } else {
            "compute"
        }
    }

    /// Renders the breakdown as indented text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: compute {} cycles vs memory {} cycles -> {}-bound\n",
            self.format,
            self.compute_cycles,
            self.memory_cycles,
            self.bottleneck()
        );
        for t in &self.decomp_terms {
            out.push_str(&format!("  {:>8} cycles  {}\n", t.cycles, t.label));
        }
        out.push_str(&format!(
            "  {:>8} cycles  {}\n",
            self.dot_term.cycles, self.dot_term.label
        ));
        out
    }
}

/// Explains the cost of a tile with structural counts `stats`, encoded in
/// `format`, in the §5.2 vocabulary. Like [`TileStats::counters`], it
/// charges no second-stage codec.
pub fn explain(stats: &TileStats, format: FormatKind, cfg: &HwConfig) -> CostBreakdown {
    let counters = stats.counters(format, cfg);
    let TileStats {
        nnz,
        nzr,
        ndiag,
        nblk,
        nbr,
        ..
    } = *stats;
    let p = stats.p as u64;
    let l = cfg.bram_read_latency;
    let t_dot = cfg.dot_latency(counters.engine_width);
    let term = |label: String, cycles: u64| CostTerm { label, cycles };

    let decomp_terms = match format {
        FormatKind::Dense => vec![term(
            "rows stream straight to the engine (no decompression)".into(),
            0,
        )],
        FormatKind::Csr => vec![
            term(
                format!("{nzr} non-zero rows x {l}-cycle offsets read (Listing 1 line 7)"),
                nzr * l,
            ),
            term(
                format!("{nnz} elements through the pipelined II=1 copy loop"),
                nnz,
            ),
        ],
        FormatKind::Csc => vec![term(
            format!("{p} output rows x {nnz}-tuple rescan (orientation mismatch, Listing 3)"),
            p * nnz,
        )],
        FormatKind::Bcsr => vec![
            term(
                format!("{nbr} non-zero block-rows x {l}-cycle offsets read"),
                nbr * l,
            ),
            term(
                format!("{nblk} blocks through the unrolled copy (1 cycle each)"),
                nblk,
            ),
        ],
        FormatKind::Coo => vec![
            term(format!("initial tuple fetch ({l} cycles)"), l),
            term(
                format!("{nnz} tuples through the pipelined II=1 scatter"),
                nnz,
            ),
        ],
        FormatKind::Lil => vec![
            term(
                format!("{nzr} emitted rows x (parallel column read {l} + min-scan/assign 2)"),
                nzr * (l + 2),
            ),
            term(format!("end-of-rows marker read ({l} cycles)"), l),
        ],
        FormatKind::Ell => vec![term(
            format!("{p} rows x 1 cycle (fully unrolled, zero rows not skippable)"),
            p,
        )],
        FormatKind::Dia => vec![
            term(format!("initial diagonal fetch ({l} cycles)"), l),
            term(
                format!("{p} rows x {ndiag}-diagonal II=1 scan (Listing 7)"),
                p * ndiag,
            ),
        ],
    };
    let dot_cycles = counters.dot_issues * t_dot;
    CostBreakdown {
        format,
        dot_term: term(
            format!(
                "{} dot products x {t_dot} cycles on the width-{} engine",
                counters.dot_issues, counters.engine_width
            ),
            dot_cycles,
        ),
        memory_cycles: cfg.transfer_cycles(counters.coded_bytes),
        compute_cycles: counters.decomp_cycles + dot_cycles,
        decomp_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompress, EncodeScratch, EncodedPartition};
    use sparsemat::Coo;

    fn tile() -> Coo<f32> {
        let mut coo = Coo::new(16, 16);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 5, 2.0).unwrap();
        coo.push(3, 3, 3.0).unwrap();
        coo.push(9, 1, 4.0).unwrap();
        coo.push(15, 15, 5.0).unwrap();
        coo
    }

    fn stats(cfg: &HwConfig) -> TileStats {
        TileStats::measure(&tile(), cfg, &mut EncodeScratch::new()).unwrap()
    }

    #[test]
    fn terms_sum_exactly_to_the_model_for_every_format() {
        let cfg = HwConfig::with_partition_size(16);
        let stats = stats(&cfg);
        for kind in FormatKind::CHARACTERIZED {
            // The walked oracle: encode the tile and run its decompressor.
            let part = EncodedPartition::encode(&tile(), kind, &cfg).unwrap();
            let d = decompress(&part, &cfg);
            let b = explain(&stats, kind, &cfg);
            let term_sum: u64 = b.decomp_terms.iter().map(|t| t.cycles).sum();
            assert_eq!(term_sum, d.decomp_cycles, "{kind} decomp terms drifted");
            assert_eq!(
                term_sum + b.dot_term.cycles,
                b.compute_cycles,
                "{kind} total drifted"
            );
            assert_eq!(b.compute_cycles, d.compute_cycles(&cfg), "{kind}");
            assert_eq!(b.memory_cycles, part.memory_cycles(&cfg), "{kind}");
        }
    }

    #[test]
    fn bottleneck_matches_the_cycle_comparison() {
        let cfg = HwConfig::with_partition_size(16);
        let stats = stats(&cfg);
        assert_eq!(
            explain(&stats, FormatKind::Csc, &cfg).bottleneck(),
            "compute"
        );
        assert_eq!(
            explain(&stats, FormatKind::Dense, &cfg).bottleneck(),
            "memory"
        );
    }

    #[test]
    fn render_is_pinned_for_every_format() {
        // Every label and count, byte for byte, in all eight formats.
        let cfg = HwConfig::with_partition_size(16);
        let stats = stats(&cfg);
        let rendered: String = FormatKind::CHARACTERIZED
            .iter()
            .map(|&kind| explain(&stats, kind, &cfg).render())
            .collect();
        assert_eq!(rendered, PINNED);
    }

    const PINNED: &str = r"DENSE: compute 96 cycles vs memory 132 cycles -> memory-bound
         0 cycles  rows stream straight to the engine (no decompression)
        96 cycles  16 dot products x 6 cycles on the width-16 engine
CSR: compute 37 cycles vs memory 18 cycles -> compute-bound
         8 cycles  4 non-zero rows x 2-cycle offsets read (Listing 1 line 7)
         5 cycles  5 elements through the pipelined II=1 copy loop
        24 cycles  4 dot products x 6 cycles on the width-16 engine
BCSR: compute 82 cycles vs memory 41 cycles -> compute-bound
         6 cycles  3 non-zero block-rows x 2-cycle offsets read
         4 cycles  4 blocks through the unrolled copy (1 cycle each)
        72 cycles  12 dot products x 6 cycles on the width-16 engine
CSC: compute 104 cycles vs memory 18 cycles -> compute-bound
        80 cycles  16 output rows x 5-tuple rescan (orientation mismatch, Listing 3)
        24 cycles  4 dot products x 6 cycles on the width-16 engine
LIL: compute 42 cycles vs memory 36 cycles -> compute-bound
        16 cycles  4 emitted rows x (parallel column read 2 + min-scan/assign 2)
         2 cycles  end-of-rows marker read (2 cycles)
        24 cycles  4 dot products x 6 cycles on the width-16 engine
ELL: compute 96 cycles vs memory 36 cycles -> compute-bound
        16 cycles  16 rows x 1 cycle (fully unrolled, zero rows not skippable)
        80 cycles  16 dot products x 5 cycles on the width-6 engine
COO: compute 31 cycles vs memory 12 cycles -> compute-bound
         2 cycles  initial tuple fetch (2 cycles)
         5 cycles  5 tuples through the pipelined II=1 scatter
        24 cycles  4 dot products x 6 cycles on the width-16 engine
DIA: compute 74 cycles vs memory 30 cycles -> compute-bound
         2 cycles  initial diagonal fetch (2 cycles)
        48 cycles  16 rows x 3-diagonal II=1 scan (Listing 7)
        24 cycles  4 dot products x 6 cycles on the width-16 engine
";
}
