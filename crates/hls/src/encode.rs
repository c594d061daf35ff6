//! Per-partition encoding and transfer-size accounting.
//!
//! The memory side of the characterization: for each format, how many bytes
//! cross the AXI stream when one compressed `p×p` partition is transferred
//! (data *and* metadata), and how many of those bytes are "useful" — the
//! actual non-zero values. The ratio is the paper's memory-bandwidth
//! utilization metric (§4.2: "the ratio of useful data over all transmitted
//! data (i.e., useful data plus metadata)").

use crate::codec::codec_for;
use crate::{EncodeScratch, HwConfig};
use sparsemat::{AnyMatrix, Bcsr, Coo, Dia, Ell, FormatKind, Lil, Matrix, SparseError};

/// One named transfer stream of an encoded partition (values, indices,
/// offsets, …) with its byte count — the AXIS streamlines of Fig. 2.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stream {
    /// Array name as the paper's listings call it.
    pub name: &'static str,
    /// Bytes of the structural encoding streamed for one partition.
    pub bytes: u64,
    /// Bytes actually crossing the bus after the second-stage codec.
    /// Equals `bytes` when no codec is configured or when the coded form
    /// would be larger than the structural form (the stream ships raw), so
    /// `coded_bytes <= bytes` always holds.
    pub coded_bytes: u64,
}

impl Stream {
    /// A stream carrying its structural encoding uncoded.
    fn structural(name: &'static str, bytes: u64) -> Self {
        Stream {
            name,
            bytes,
            coded_bytes: bytes,
        }
    }
}

/// A `p×p` partition encoded in one characterized format, with its transfer
/// accounting.
#[derive(Debug, Clone)]
pub struct EncodedPartition {
    /// The encoded matrix (kept concrete behind [`AnyMatrix`] so the
    /// decompressor models can reach format internals).
    pub matrix: AnyMatrix<f32>,
    /// Transfer streams (data + metadata).
    pub streams: Vec<Stream>,
    /// Bytes of genuinely useful payload (non-zero values only).
    pub useful_bytes: u64,
}

impl EncodedPartition {
    /// Encodes one partition's COO tile in the given format and computes its
    /// transfer accounting.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidBlockSize`] for a BCSR tile when
    /// `cfg.bcsr_block` is zero.
    pub fn encode(
        tile: &Coo<f32>,
        format: FormatKind,
        cfg: &HwConfig,
    ) -> Result<Self, SparseError> {
        Self::encode_with(tile, format, cfg, &mut EncodeScratch::new())
    }

    /// Like [`EncodedPartition::encode`], but reuses the buffers held by
    /// `scratch` instead of allocating per tile: the stream list, the codec
    /// byte pools, and — via [`EncodeScratch::recycle_encoded`] — the
    /// encoded matrix itself, whose arrays the next tile of the same format
    /// rebuilds in place. Output is bit-identical to
    /// [`EncodedPartition::encode`] (test-enforced).
    ///
    /// # Errors
    ///
    /// Same as [`EncodedPartition::encode`].
    pub fn encode_with(
        tile: &Coo<f32>,
        format: FormatKind,
        cfg: &HwConfig,
        scratch: &mut EncodeScratch,
    ) -> Result<Self, SparseError> {
        let mut streams = scratch.take_streams();
        let vb = cfg.value_bytes as u64;
        let ib = cfg.index_bytes as u64;
        let p = cfg.partition_size as u64;
        debug_assert!(streams.is_empty());

        let matrix = match format {
            FormatKind::Dense => {
                // The dense baseline streams every cell, zeros included.
                streams.push(Stream::structural("values", p * p * vb));
                match scratch.take_matrix(FormatKind::Dense) {
                    Some(AnyMatrix::Dense(mut d)) => {
                        d.assign_from_coo(tile);
                        AnyMatrix::Dense(d)
                    }
                    _ => AnyMatrix::Dense(tile.to_dense()),
                }
            }
            FormatKind::Csr => {
                let csr = match scratch.take_matrix(FormatKind::Csr) {
                    Some(AnyMatrix::Csr(mut m)) => {
                        m.assign_from_coo(tile, scratch.tmp_triplets());
                        m
                    }
                    _ => sparsemat::Csr::from(tile),
                };
                // Duplicate COO coordinates merge during encoding, so the
                // streamed entry count is the *encoded* structure's.
                let stored = csr.nnz() as u64;
                streams.push(Stream::structural("offsets", (p + 1) * ib));
                streams.push(Stream::structural("colInx", stored * ib));
                streams.push(Stream::structural("values", stored * vb));
                AnyMatrix::Csr(csr)
            }
            FormatKind::Csc => {
                let csc = match scratch.take_matrix(FormatKind::Csc) {
                    Some(AnyMatrix::Csc(mut m)) => {
                        m.assign_from_coo(tile, scratch.tmp_triplets());
                        m
                    }
                    _ => sparsemat::Csc::from(tile),
                };
                let stored = csc.nnz() as u64;
                streams.push(Stream::structural("offsets", (p + 1) * ib));
                streams.push(Stream::structural("rowInx", stored * ib));
                streams.push(Stream::structural("values", stored * vb));
                AnyMatrix::Csc(csc)
            }
            FormatKind::Bcsr => {
                let bcsr = match scratch.take_matrix(FormatKind::Bcsr) {
                    Some(AnyMatrix::Bcsr(mut m)) => {
                        m.assign_from_coo(tile, cfg.bcsr_block, scratch.tmp_triplets())?;
                        m
                    }
                    _ => Bcsr::from_coo(tile, cfg.bcsr_block)?,
                };
                let block_rows = bcsr.block_rows() as u64;
                let nblk = bcsr.num_blocks() as u64;
                let b2 = (cfg.bcsr_block * cfg.bcsr_block) as u64;
                streams.push(Stream::structural("offsets", (block_rows + 1) * ib));
                streams.push(Stream::structural("colInx", nblk * ib));
                // The whole block is streamed, intra-block zeros too —
                // the paper's first BCSR downside.
                streams.push(Stream::structural("values", nblk * b2 * vb));
                AnyMatrix::Bcsr(bcsr)
            }
            FormatKind::Coo => {
                // (row, col, value) per entry.
                // Duplicate coordinates merge during encoding exactly as
                // CSR/CSC merge them, so every format accounts (and ships)
                // the *encoded* structure, not the raw triplet list.
                let coo = match scratch.take_matrix(FormatKind::Coo) {
                    Some(AnyMatrix::Coo(mut m)) => {
                        m.assign_from(tile);
                        if !m.is_compressed() {
                            m.compress();
                        }
                        m
                    }
                    _ if tile.is_compressed() => tile.clone(),
                    _ => {
                        let mut merged = tile.clone();
                        merged.compress();
                        merged
                    }
                };
                let stored = coo.nnz() as u64;
                streams.push(Stream::structural("rowInx", stored * ib));
                streams.push(Stream::structural("colInx", stored * ib));
                streams.push(Stream::structural("values", stored * vb));
                AnyMatrix::Coo(coo)
            }
            FormatKind::Lil => {
                let lil = match scratch.take_matrix(FormatKind::Lil) {
                    Some(AnyMatrix::Lil(mut m)) => {
                        m.assign_from_coo_columns(tile, scratch.tmp_triplets());
                        m
                    }
                    _ => Lil::from_coo_columns(tile),
                };
                // values[HEIGHT][WIDTH] + Inx[HEIGHT][WIDTH] where HEIGHT is
                // the longest column plus the end-marker row §5.2 describes.
                let height = lil.max_line_len() as u64 + 1;
                streams.push(Stream::structural("Inx", height * p * ib));
                streams.push(Stream::structural("values", height * p * vb));
                AnyMatrix::Lil(lil)
            }
            FormatKind::Ell => {
                let ell = match scratch.take_matrix(FormatKind::Ell) {
                    Some(AnyMatrix::Ell(mut m)) => {
                        m.assign_from_coo_natural(tile, scratch.tmp_triplets());
                        m
                    }
                    _ => Ell::from_coo_natural(tile),
                };
                let w = ell.width() as u64;
                streams.push(Stream::structural("colInx", w * p * ib));
                streams.push(Stream::structural("values", w * p * vb));
                AnyMatrix::Ell(ell)
            }
            FormatKind::Dia => {
                let dia = match scratch.take_matrix(FormatKind::Dia) {
                    Some(AnyMatrix::Dia(mut m)) => {
                        m.assign_from_coo(tile);
                        m
                    }
                    _ => Dia::from_coo(tile),
                };
                // Listing 7 stores `diags[NUM_DIAGONALS][MAX_DIAGONAL_LEN]`:
                // every stored diagonal travels as a fixed-length row of
                // p + 1 elements (header + maximum diagonal length, §2),
                // zero-padded when the diagonal is shorter. This padding is
                // exactly why §6.3 finds DIA's bandwidth utilization on
                // non-diagonal band matrices no better than the generic
                // formats.
                streams.push(Stream::structural(
                    "diags",
                    dia.num_diagonals() as u64 * (p + 1) * vb,
                ));
                AnyMatrix::Dia(dia)
            }
        };

        // Second stage: price each stream's serialized bytes under the
        // configured codec. `transfer_len` ships a stream raw
        // (`coded_bytes == bytes`) when its coded form is no smaller or the
        // codec cannot represent it, so the second stage never inflates a
        // transfer.
        let (payload, coded) = scratch.byte_pools();
        if let Some(codec) = codec_for(cfg.stream_codec) {
            for s in &mut streams {
                stream_payload(&matrix, s.name, cfg, payload);
                debug_assert_eq!(
                    payload.len() as u64,
                    s.bytes,
                    "{} payload vs accounting for {}",
                    s.name,
                    matrix.kind()
                );
                s.coded_bytes = codec.transfer_len(payload, coded);
            }
        }

        // Useful payload = the non-zero values the encoded structure
        // actually carries (duplicates merged where the format merges them).
        let useful_bytes = matrix.nnz() as u64 * vb;
        Ok(EncodedPartition {
            matrix,
            streams,
            useful_bytes,
        })
    }

    /// Total bytes of the structural encoding (data + metadata), before any
    /// second-stage codec.
    pub fn total_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes).sum()
    }

    /// Bytes actually crossing the bus after second-stage coding. Equals
    /// [`EncodedPartition::total_bytes`] when no codec is configured.
    pub fn transfer_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.coded_bytes).sum()
    }

    /// Memory-bandwidth utilization of this partition: useful / total
    /// structural bytes — the paper's §4.2 metric, independent of the
    /// second-stage codec so codec sweeps stay comparable to the paper.
    pub fn bandwidth_utilization(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / total as f64
        }
    }

    /// Memory latency in cycles to stream this partition in (§4.2 metric i),
    /// over the coded byte counts.
    pub fn memory_cycles(&self, cfg: &HwConfig) -> u64 {
        cfg.transfer_cycles(self.transfer_bytes())
    }

    /// Second-stage decoder cycles for this partition: the configured
    /// codec's per-stream setup plus cycles per coded byte, charged only for
    /// streams that actually shipped coded (raw streams bypass the decoder).
    /// Zero when no codec is configured.
    pub fn entropy_cycles(&self, cfg: &HwConfig) -> u64 {
        let Some(codec) = codec_for(cfg.stream_codec) else {
            return 0;
        };
        let cost = codec.cost_model();
        self.streams
            .iter()
            .filter(|s| s.coded_bytes < s.bytes)
            .map(|s| cost.stream_cycles(s.coded_bytes))
            .sum()
    }

    /// The format this partition is encoded in.
    pub fn kind(&self) -> FormatKind {
        self.matrix.kind()
    }
}

/// Appends the first `width` little-endian bytes of `le`, zero-padded when
/// `le` is shorter — so serialized widths always match the configured
/// index/value byte widths the accounting uses.
fn push_truncated(out: &mut Vec<u8>, le: &[u8], width: usize) {
    let n = width.min(le.len());
    out.extend_from_slice(&le[..n]);
    out.resize(out.len() + (width - n), 0);
}

fn push_index(out: &mut Vec<u8>, v: usize, ib: usize) {
    push_truncated(out, &(v as u64).to_le_bytes(), ib);
}

fn push_value(out: &mut Vec<u8>, v: f32, vb: usize) {
    push_truncated(out, &v.to_le_bytes(), vb);
}

/// Serializes a whole index slice. At the default 4-byte width this is a
/// single reserve plus fixed-size appends (`as u32` keeps the same low
/// bytes the truncating path keeps); other widths fall back per element.
fn push_indices(out: &mut Vec<u8>, indices: &[usize], ib: usize) {
    if ib == 4 {
        out.reserve(indices.len() * 4);
        for &i in indices {
            out.extend_from_slice(&(i as u32).to_le_bytes());
        }
    } else {
        for &i in indices {
            push_index(out, i, ib);
        }
    }
}

/// Serializes a whole value slice; fixed-size appends at the native 4-byte
/// `f32` width, per-element truncation otherwise.
fn push_values(out: &mut Vec<u8>, values: &[f32], vb: usize) {
    if vb == 4 {
        out.reserve(values.len() * 4);
        for &v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    } else {
        for &v in values {
            push_value(out, v, vb);
        }
    }
}

/// Serializes the named transfer stream of an encoded partition into `out`
/// (cleared first), exactly as it would cross the AXI stream: little-endian,
/// `index_bytes`/`value_bytes` wide, padding included. The resulting length
/// always equals the [`Stream::bytes`] accounting for that stream — the
/// second-stage codec compresses precisely these bytes.
pub(crate) fn stream_payload(
    matrix: &AnyMatrix<f32>,
    name: &str,
    cfg: &HwConfig,
    out: &mut Vec<u8>,
) {
    out.clear();
    let ib = cfg.index_bytes;
    let vb = cfg.value_bytes;
    let p = cfg.partition_size;
    match (matrix, name) {
        (AnyMatrix::Dense(m), "values") => push_values(out, m.as_slice(), vb),
        (AnyMatrix::Csr(m), "offsets") => push_indices(out, m.offsets(), ib),
        (AnyMatrix::Csr(m), "colInx") => push_indices(out, m.indices(), ib),
        (AnyMatrix::Csr(m), "values") => push_values(out, m.values(), vb),
        (AnyMatrix::Csc(m), "offsets") => push_indices(out, m.offsets(), ib),
        (AnyMatrix::Csc(m), "rowInx") => push_indices(out, m.indices(), ib),
        (AnyMatrix::Csc(m), "values") => push_values(out, m.values(), vb),
        (AnyMatrix::Bcsr(m), "offsets") => push_indices(out, m.offsets(), ib),
        (AnyMatrix::Bcsr(m), "colInx") => push_indices(out, m.indices(), ib),
        (AnyMatrix::Bcsr(m), "values") => push_values(out, m.values(), vb),
        (AnyMatrix::Coo(m), "rowInx") => {
            out.reserve(m.nnz() * ib);
            for t in m.iter() {
                push_index(out, t.row, ib);
            }
        }
        (AnyMatrix::Coo(m), "colInx") => {
            out.reserve(m.nnz() * ib);
            for t in m.iter() {
                push_index(out, t.col, ib);
            }
        }
        (AnyMatrix::Coo(m), "values") => {
            out.reserve(m.nnz() * vb);
            for t in m.iter() {
                push_value(out, t.val, vb);
            }
        }
        // LIL travels as HEIGHT rows of WIDTH lanes (§5.2): slot h of every
        // line, end-marker (all-ones index, zero value) past a line's end.
        (AnyMatrix::Lil(m), "Inx") => {
            for h in 0..m.max_line_len() + 1 {
                for l in 0..m.num_lines() {
                    let inx = m.line(l).get(h).map_or(usize::MAX, |&(i, _)| i);
                    push_index(out, inx, ib);
                }
            }
        }
        (AnyMatrix::Lil(m), "values") => {
            for h in 0..m.max_line_len() + 1 {
                for l in 0..m.num_lines() {
                    let val = m.line(l).get(h).map_or(0.0, |&(_, v)| v);
                    push_value(out, val, vb);
                }
            }
        }
        (AnyMatrix::Ell(m), "colInx") => push_indices(out, m.raw_slots().0, ib),
        (AnyMatrix::Ell(m), "values") => push_values(out, m.raw_slots().1, vb),
        // Each stored diagonal travels as its offset header plus p values,
        // zero-padded — `diags[NUM_DIAGONALS][MAX_DIAGONAL_LEN]` of
        // Listing 7 with the header in slot 0.
        (AnyMatrix::Dia(m), "diags") => {
            for k in 0..m.num_diagonals() {
                push_truncated(out, &(m.offsets()[k] as i64).to_le_bytes(), vb);
                let diag = m.diagonal(k);
                push_values(out, diag, vb);
                // Zero-pad in one resize: a zero value serializes to `vb`
                // zero bytes at any width.
                out.resize(out.len() + p.saturating_sub(diag.len()) * vb, 0);
            }
        }
        _ => debug_assert!(false, "no stream {name:?} on a {} partition", matrix.kind()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(entries: &[(usize, usize, f32)], p: usize) -> Coo<f32> {
        let mut coo = Coo::new(p, p);
        for &(r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo
    }

    fn cfg() -> HwConfig {
        HwConfig::with_partition_size(16)
    }

    #[test]
    fn coo_utilization_is_one_third() {
        // §6.3: "the memory bandwidth utilization of COO is always 0.3
        // since it always transmits two indices per one non-zero entry."
        let t = tile(&[(0, 0, 1.0), (3, 7, 2.0), (9, 2, 3.0)], 16);
        let e = EncodedPartition::encode(&t, FormatKind::Coo, &cfg()).unwrap();
        assert!((e.bandwidth_utilization() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dia_utilization_near_one_for_diagonal_tile() {
        // §6.3: DIA's utilization on diagonal matrices is p/(p+1), the
        // "slight difference [...] because of saving the diagonal number."
        let entries: Vec<(usize, usize, f32)> = (0..16).map(|i| (i, i, 1.0)).collect();
        let t = tile(&entries, 16);
        let e = EncodedPartition::encode(&t, FormatKind::Dia, &cfg()).unwrap();
        assert!((e.bandwidth_utilization() - 16.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn dense_transfers_all_cells() {
        let t = tile(&[(1, 1, 5.0)], 16);
        let e = EncodedPartition::encode(&t, FormatKind::Dense, &cfg()).unwrap();
        assert_eq!(e.total_bytes(), 16 * 16 * 4);
        assert_eq!(e.useful_bytes, 4);
    }

    #[test]
    fn csr_streams_offsets_indices_values() {
        let t = tile(&[(0, 0, 1.0), (0, 5, 2.0), (4, 4, 3.0)], 16);
        let e = EncodedPartition::encode(&t, FormatKind::Csr, &cfg()).unwrap();
        let names: Vec<&str> = e.streams.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["offsets", "colInx", "values"]);
        assert_eq!(e.total_bytes(), (17 + 3 + 3) as u64 * 4);
    }

    #[test]
    fn bcsr_transfers_full_blocks() {
        // One entry → one 4x4 block → 16 values despite nnz = 1.
        let t = tile(&[(0, 0, 1.0)], 16);
        let e = EncodedPartition::encode(&t, FormatKind::Bcsr, &cfg()).unwrap();
        let values = e.streams.iter().find(|s| s.name == "values").unwrap();
        assert_eq!(values.bytes, 16 * 4);
        assert!(e.bandwidth_utilization() < 0.1);
    }

    #[test]
    fn ell_bytes_scale_with_longest_row() {
        let short = tile(&[(0, 0, 1.0)], 16);
        let long = tile(&[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)], 16);
        let cfg = cfg();
        let e_short = EncodedPartition::encode(&short, FormatKind::Ell, &cfg).unwrap();
        let e_long = EncodedPartition::encode(&long, FormatKind::Ell, &cfg).unwrap();
        assert_eq!(e_short.total_bytes(), 2 * 16 * 4);
        assert_eq!(e_long.total_bytes(), 3 * 2 * 16 * 4);
    }

    #[test]
    fn lil_bytes_use_longest_column_plus_marker() {
        // Column 0 has two entries → height = 3 rows of width 16, twice
        // (values + indices).
        let t = tile(&[(0, 0, 1.0), (5, 0, 2.0), (3, 8, 3.0)], 16);
        let e = EncodedPartition::encode(&t, FormatKind::Lil, &cfg()).unwrap();
        assert_eq!(e.total_bytes(), 2 * 3 * 16 * 4);
    }

    #[test]
    fn memory_cycles_match_transfer_formula() {
        let t = tile(&[(0, 0, 1.0)], 16);
        let cfg = cfg();
        let e = EncodedPartition::encode(&t, FormatKind::Dense, &cfg).unwrap();
        assert_eq!(e.memory_cycles(&cfg), 4 + (16 * 16 * 4) / 8);
    }

    #[test]
    fn coo_merges_duplicate_coordinates_like_csr() {
        let t = tile(&[(0, 0, 1.0), (0, 0, 2.0), (3, 7, 2.0)], 16);
        let coo = EncodedPartition::encode(&t, FormatKind::Coo, &cfg()).unwrap();
        let csr = EncodedPartition::encode(&t, FormatKind::Csr, &cfg()).unwrap();
        assert_eq!(coo.matrix.nnz(), 2, "duplicate (0,0) must merge");
        assert_eq!(coo.matrix.nnz(), csr.matrix.nnz());
        assert_eq!(coo.useful_bytes, csr.useful_bytes);
        // 2 stored entries × (2 indices + 1 value) × 4 bytes.
        assert_eq!(coo.total_bytes(), 2 * 3 * 4);
    }

    #[test]
    fn stream_payloads_match_the_accounting_for_every_format() {
        let t = tile(&[(0, 0, 1.0), (2, 3, -2.0), (15, 15, 4.0), (7, 7, 1.0)], 16);
        let cfg = cfg();
        let mut payload = Vec::new();
        for kind in FormatKind::CHARACTERIZED {
            let e = EncodedPartition::encode(&t, kind, &cfg).unwrap();
            for s in &e.streams {
                stream_payload(&e.matrix, s.name, &cfg, &mut payload);
                assert_eq!(payload.len() as u64, s.bytes, "{kind}/{}", s.name);
            }
        }
    }

    #[test]
    fn codecs_never_inflate_and_none_is_identity() {
        let t = tile(&[(0, 0, 1.0), (2, 3, -2.0), (15, 15, 4.0), (7, 7, 1.0)], 16);
        let mut cfg = cfg();
        for codec in crate::CodecKind::ALL {
            cfg.stream_codec = codec;
            for kind in FormatKind::CHARACTERIZED {
                let e = EncodedPartition::encode(&t, kind, &cfg).unwrap();
                for s in &e.streams {
                    assert!(s.coded_bytes <= s.bytes, "{codec}/{kind}/{}", s.name);
                }
                assert!(e.transfer_bytes() <= e.total_bytes());
                if codec == crate::CodecKind::None {
                    assert_eq!(e.transfer_bytes(), e.total_bytes());
                    assert_eq!(e.entropy_cycles(&cfg), 0);
                }
            }
        }
    }

    #[test]
    fn rle_collapses_the_dense_zero_plane() {
        let t = tile(&[(0, 0, 1.0)], 16);
        let mut cfg = cfg();
        cfg.stream_codec = crate::CodecKind::Rle;
        let e = EncodedPartition::encode(&t, FormatKind::Dense, &cfg).unwrap();
        assert!(
            e.transfer_bytes() < e.total_bytes() / 10,
            "{} of {}",
            e.transfer_bytes(),
            e.total_bytes()
        );
        assert!(
            e.entropy_cycles(&cfg) > 0,
            "coded streams cost decode cycles"
        );
        assert!(e.memory_cycles(&cfg) < cfg.transfer_cycles(e.total_bytes()));
        // Utilization stays the paper's structural metric.
        assert!((e.bandwidth_utilization() - 4.0 / (16.0 * 16.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_in_unit_interval_for_all_formats() {
        let t = tile(&[(0, 0, 1.0), (2, 3, -2.0), (15, 15, 4.0), (7, 7, 1.0)], 16);
        let cfg = cfg();
        for kind in FormatKind::CHARACTERIZED {
            let e = EncodedPartition::encode(&t, kind, &cfg).unwrap();
            let u = e.bandwidth_utilization();
            assert!((0.0..=1.0).contains(&u), "{kind}: {u}");
        }
    }
}
