//! Reusable per-tile buffers for the measurement hot path.
//!
//! Every partition that flows through the platform used to allocate a fresh
//! `Vec<Stream>`, one `Vec<f32>` per emitted dense row, and — with
//! [`HwConfig::verify_functional`](crate::HwConfig) on — two whole `p×p`
//! [`Dense`](sparsemat::Dense) matrices just to cross-check the
//! decompressor. On a campaign sweeping hundreds of thousands of tiles the
//! harness spent more time in the allocator than in the model.
//!
//! [`EncodeScratch`] pools all of those buffers. One scratch lives as long
//! as its [`Session`](crate::Session) and is threaded through
//! [`EncodedPartition::encode_with`](crate::EncodedPartition::encode_with)
//! and [`decompress_with`](crate::decompress_with); the pipeline recycles
//! every buffer after the tile's timing has been extracted. Buffer reuse is
//! invisible in the output: recycled rows are re-zeroed before reuse, so
//! the bytes of every report, trace span and measurement are identical to
//! the allocating path (test-enforced).

use crate::codec::CodecScratch;
use crate::decomp::Decompression;
use crate::encode::{EncodedPartition, Stream};
use sparsemat::{AnyMatrix, Coo, FormatKind, Matrix, Triplet};

/// Reusable buffers threaded through the encode → decompress → verify path
/// so steady-state tile processing performs no heap allocation.
///
/// The scratch is deliberately dumb: it never caps its pools because the
/// pipeline processes one tile at a time, which bounds the live buffer
/// count at `p + block size` rows. Dropping the scratch drops the pools.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Recycled stream list for the next [`EncodedPartition`].
    streams: Vec<Stream>,
    /// Pool of dense row buffers for the decompressor models.
    rows: Vec<Vec<f32>>,
    /// Pool of contribution lists for [`Decompression`].
    contribs: Vec<Vec<(usize, Vec<f32>)>>,
    /// COO scatter table (`rows[r]` while the tuple pass runs).
    opt_rows: Vec<Option<Vec<f32>>>,
    /// BCSR per-block-row staging list (holds `b` rows while one block-row
    /// is scattered, drained into the contribution list).
    row_stage: Vec<Vec<f32>>,
    /// LIL per-column cursor row.
    cursors: Vec<usize>,
    /// Functional-verification accumulator for the decompressed rows.
    acc_model: Vec<f32>,
    /// `(base, len)` row spans of `acc_model` written by the current tile.
    touched_model: Vec<(usize, usize)>,
    /// Functional-verification accumulator for the reference tile.
    acc_tile: Vec<f32>,
    /// Cells of `acc_tile` written by the current tile.
    touched_tile: Vec<usize>,
    /// Serialized stream bytes for the second-stage codec pass.
    payload: Vec<u8>,
    /// Coded output of the second-stage codec pass.
    coded: Vec<u8>,
    /// Recycled encoded matrices, at most one per format kind, rebuilt in
    /// place by the next tile of the same format.
    matrices: Vec<AnyMatrix<f32>>,
    /// Triplet workspace for the in-place format conversions.
    tmp_triplets: Vec<Triplet<f32>>,
    /// Pooled second-stage decoder state (Huffman primary table).
    codec: CodecScratch,
    /// Per-worker scratches for the intra-run tile-parallel path, kept warm
    /// between runs of the same session.
    workers: Vec<EncodeScratch>,
}

impl EncodeScratch {
    /// An empty scratch; pools fill as tiles are processed.
    pub fn new() -> Self {
        EncodeScratch::default()
    }

    /// Takes the recycled stream list (empty) for an encode pass.
    pub(crate) fn take_streams(&mut self) -> Vec<Stream> {
        let mut streams = std::mem::take(&mut self.streams);
        streams.clear();
        streams
    }

    /// The payload/coded byte pools for the second-stage codec pass; the
    /// codec clears each before use, so no handing-back step is needed.
    pub(crate) fn byte_pools(&mut self) -> (&mut Vec<u8>, &mut Vec<u8>) {
        (&mut self.payload, &mut self.coded)
    }

    /// Takes the pooled matrix of the given format kind, if one was
    /// recycled; its buffers are rebuilt in place by the `assign_from_coo`
    /// family instead of allocating a fresh conversion.
    pub(crate) fn take_matrix(&mut self, kind: FormatKind) -> Option<AnyMatrix<f32>> {
        let i = self.matrices.iter().position(|m| m.kind() == kind)?;
        Some(self.matrices.swap_remove(i))
    }

    /// The triplet workspace for the in-place format conversions.
    pub(crate) fn tmp_triplets(&mut self) -> &mut Vec<Triplet<f32>> {
        &mut self.tmp_triplets
    }

    /// The pooled second-stage decoder state, for
    /// [`Codec::decode_bytes_with`](crate::Codec::decode_bytes_with).
    pub fn codec_scratch(&mut self) -> &mut CodecScratch {
        &mut self.codec
    }

    /// Takes exactly `n` worker scratches for a tile-parallel pass,
    /// reusing pooled ones (warm buffers) before building fresh ones.
    pub(crate) fn take_workers(&mut self, n: usize) -> Vec<EncodeScratch> {
        let mut pool = std::mem::take(&mut self.workers);
        pool.truncate(n);
        while pool.len() < n {
            pool.push(EncodeScratch::new());
        }
        pool
    }

    /// Returns the worker scratches after a tile-parallel pass.
    pub(crate) fn give_workers(&mut self, pool: Vec<EncodeScratch>) {
        self.workers = pool;
    }

    /// A zeroed dense row of length `p`, reusing a pooled buffer when one
    /// is available.
    pub(crate) fn row(&mut self, p: usize) -> Vec<f32> {
        let mut row = self.rows.pop().unwrap_or_default();
        row.clear();
        row.resize(p, 0.0);
        row
    }

    /// A dense row holding a copy of `src`, reusing a pooled buffer when
    /// one is available (skips the zero-fill [`EncodeScratch::row`] pays).
    pub(crate) fn row_from(&mut self, src: &[f32]) -> Vec<f32> {
        let mut row = self.rows.pop().unwrap_or_default();
        row.clear();
        row.extend_from_slice(src);
        row
    }

    /// Returns an unused row buffer to the pool.
    pub(crate) fn give_row(&mut self, row: Vec<f32>) {
        self.rows.push(row);
    }

    /// Takes the (empty) BCSR block-row staging list.
    pub(crate) fn take_row_stage(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.row_stage)
    }

    /// Returns the drained BCSR block-row staging list.
    pub(crate) fn give_row_stage(&mut self, stage: Vec<Vec<f32>>) {
        debug_assert!(stage.is_empty());
        self.row_stage = stage;
    }

    /// Takes an empty contribution list for a decompress pass.
    pub(crate) fn take_contribs(&mut self) -> Vec<(usize, Vec<f32>)> {
        let mut contribs = self.contribs.pop().unwrap_or_default();
        contribs.clear();
        contribs
    }

    /// Takes the COO scatter table, cleared and sized to `p` empty slots.
    pub(crate) fn take_opt_rows(&mut self, p: usize) -> Vec<Option<Vec<f32>>> {
        let mut opt = std::mem::take(&mut self.opt_rows);
        opt.clear();
        opt.resize_with(p, || None);
        opt
    }

    /// Returns the (drained) COO scatter table.
    pub(crate) fn give_opt_rows(&mut self, mut opt: Vec<Option<Vec<f32>>>) {
        opt.clear();
        self.opt_rows = opt;
    }

    /// Takes the LIL cursor row, zeroed and sized to `p`.
    pub(crate) fn take_cursors(&mut self, p: usize) -> Vec<usize> {
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        cursors.resize(p, 0);
        cursors
    }

    /// Returns the LIL cursor row.
    pub(crate) fn give_cursors(&mut self, cursors: Vec<usize>) {
        self.cursors = cursors;
    }

    /// Recycles an encoded partition's buffers once its transfer accounting
    /// has been folded into the timing: the stream list and the encoded
    /// matrix itself, whose arrays the next tile of the same format rebuilds
    /// in place.
    pub fn recycle_encoded(&mut self, encoded: EncodedPartition) {
        let EncodedPartition {
            matrix,
            mut streams,
            ..
        } = encoded;
        streams.clear();
        self.streams = streams;
        let kind = matrix.kind();
        self.matrices.retain(|m| m.kind() != kind);
        self.matrices.push(matrix);
    }

    /// Recycles a decompression's row buffers once its contributions have
    /// been consumed.
    pub fn recycle_decompression(&mut self, d: Decompression) {
        let mut contribs = d.contributions;
        for (_, row) in contribs.drain(..) {
            self.rows.push(row);
        }
        self.contribs.push(contribs);
    }

    /// Functional verification without materializing dense matrices: both
    /// the decompressed contributions and the reference tile accumulate
    /// into persistent `p²` scratch planes (the model side in the exact
    /// `f32` addition order of [`Decompression::assemble`], the tile side
    /// in `Coo::to_dense` order), and only the touched spans are compared.
    /// Equivalent to `d.assemble(p) == tile.to_dense()` bit for bit,
    /// without the two `p×p` allocations.
    ///
    /// The model-side add, compare and reset passes each run over whole
    /// contribution-row slices (one `(base, len)` span per emitted row)
    /// instead of branching per cell. Cells a span covers beyond the old
    /// per-non-zero bookkeeping hold `+0.0` from the model unless the tile
    /// touched them — in which case the per-cell tile pass compares them
    /// anyway — so the verdict is unchanged.
    pub(crate) fn verify_tile(&mut self, d: &Decompression, tile: &Coo<f32>, p: usize) -> bool {
        let cells = p * p;
        if self.acc_model.len() < cells {
            self.acc_model.resize(cells, 0.0);
            self.acc_tile.resize(cells, 0.0);
        }
        for (r, row) in &d.contributions {
            let base = r * p;
            for (a, &v) in self.acc_model[base..base + row.len()].iter_mut().zip(row) {
                *a += v;
            }
            self.touched_model.push((base, row.len()));
        }
        for t in tile.iter() {
            let i = t.row * p + t.col;
            self.acc_tile[i] += t.val;
            self.touched_tile.push(i);
        }
        let ok = self.touched_model.iter().all(|&(base, len)| {
            self.acc_model[base..base + len] == self.acc_tile[base..base + len]
        }) && self
            .touched_tile
            .iter()
            .all(|&i| self.acc_model[i] == self.acc_tile[i]);
        for &(base, len) in &self.touched_model {
            self.acc_model[base..base + len].fill(0.0);
        }
        for &i in &self.touched_tile {
            self.acc_tile[i] = 0.0;
        }
        self.touched_model.clear();
        self.touched_tile.clear();
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompress_with, HwConfig};
    use sparsemat::{FormatKind, Matrix};

    fn cfg() -> HwConfig {
        HwConfig::with_partition_size(16)
    }

    fn tile(entries: &[(usize, usize, f32)]) -> Coo<f32> {
        let mut coo = Coo::new(16, 16);
        for &(r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo
    }

    #[test]
    fn verify_accepts_every_characterized_format() {
        let t = tile(&[(0, 0, 1.0), (3, 7, -2.5), (9, 2, 3.0), (15, 15, 4.0)]);
        let cfg = cfg();
        let mut scratch = EncodeScratch::new();
        for kind in FormatKind::CHARACTERIZED {
            let part = EncodedPartition::encode_with(&t, kind, &cfg, &mut scratch).unwrap();
            let d = decompress_with(&part, &cfg, &mut scratch);
            assert!(scratch.verify_tile(&d, &t, 16), "{kind}");
            scratch.recycle_decompression(d);
            scratch.recycle_encoded(part);
        }
    }

    #[test]
    fn verify_matches_the_dense_comparison_on_mismatches() {
        let t = tile(&[(1, 1, 2.0), (4, 4, -3.0)]);
        let cfg = cfg();
        let mut scratch = EncodeScratch::new();
        let part = EncodedPartition::encode_with(&t, FormatKind::Csr, &cfg, &mut scratch).unwrap();
        let mut d = decompress_with(&part, &cfg, &mut scratch);
        // Corrupt one emitted value: the old Dense comparison would reject
        // this, and so must the scratch path.
        d.contributions[0].1[1] = 99.0;
        assert_ne!(d.assemble(16), t.to_dense());
        assert!(!scratch.verify_tile(&d, &t, 16));
        // The scratch planes reset after a failed verify too.
        let clean = decompress_with(&part, &cfg, &mut scratch);
        assert!(scratch.verify_tile(&clean, &t, 16));
    }

    #[test]
    fn verify_accumulates_duplicate_coordinates_like_to_dense() {
        // Duplicate pushes accumulate in both the tile and the COO
        // decompressor; exact cancellation leaves a 0.0 == 0.0 cell.
        let mut t = Coo::new(16, 16);
        t.push(2, 3, 5.0).unwrap();
        t.push(2, 3, -5.0).unwrap();
        t.push(7, 1, 1.5).unwrap();
        t.push(7, 1, 2.5).unwrap();
        let cfg = cfg();
        let mut scratch = EncodeScratch::new();
        for kind in [FormatKind::Coo, FormatKind::Csr, FormatKind::Lil] {
            let part = EncodedPartition::encode_with(&t, kind, &cfg, &mut scratch).unwrap();
            let d = decompress_with(&part, &cfg, &mut scratch);
            assert_eq!(
                scratch.verify_tile(&d, &t, 16),
                d.assemble(16) == t.to_dense(),
                "{kind}"
            );
            scratch.recycle_decompression(d);
        }
    }

    #[test]
    fn verify_treats_signed_zero_like_ieee_equality() {
        // A -0.0 contribution against an untouched (+0.0) tile cell: Dense
        // PartialEq says equal, and so must the scratch comparison.
        let t = tile(&[(0, 0, 1.0)]);
        let mut scratch = EncodeScratch::new();
        let d = Decompression {
            contributions: vec![(0, {
                let mut row = vec![0.0f32; 16];
                row[0] = 1.0;
                row[5] = -0.0;
                row
            })],
            decomp_cycles: 0,
            dot_issues: 1,
            engine_width: 16,
            bram_reads: 0,
        };
        assert_eq!(
            d.assemble(16) == t.to_dense(),
            scratch.verify_tile(&d, &t, 16)
        );
        assert!(scratch.verify_tile(&d, &t, 16));
    }

    #[test]
    fn recycled_rows_come_back_zeroed() {
        let mut scratch = EncodeScratch::new();
        let mut row = scratch.row(4);
        row[2] = 7.0;
        scratch.give_row(row);
        assert_eq!(scratch.row(4), vec![0.0f32; 4]);
        // Pool shrink/grow across partition sizes stays zeroed too.
        let mut row = scratch.row(8);
        assert_eq!(row, vec![0.0f32; 8]);
        row[7] = 1.0;
        scratch.give_row(row);
        assert_eq!(scratch.row(2), vec![0.0f32; 2]);
    }
}
