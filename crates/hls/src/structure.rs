//! Structural tile pricing: the closed forms of §5.2 evaluated from one
//! pass over a tile's COO, instead of building the encoded matrix and
//! walking its decompressor.
//!
//! Every format's transfer bytes, `T_decomp`, dot issues and BRAM reads
//! are closed forms in a handful of structural counts (DESIGN.md §3):
//! nnz, non-zero rows, the longest row and column, distinct diagonals,
//! distinct blocks and non-zero block-rows. [`TileStats::measure`] gathers
//! them in one allocation-free pass and [`TileStats::counters`] turns them
//! into the [`TileCounters`] a [`Backend`](crate::Backend) prices — the
//! same counters [`TileCounters::walked`] reads off an encoded partition
//! and its walked [`Decompression`](crate::Decompression). The walked path
//! stays the oracle: the property suite asserts both give identical
//! [`PartitionTiming`](crate::PartitionTiming)s for every format, backend
//! and partition size.
//!
//! The closed forms assume the encoded structure holds exactly the tile's
//! entries. A tile with a duplicate coordinate (the formats merge it, and
//! the merge may cancel) or an explicit zero (the formats drop it) breaks
//! that, so [`TileStats::measure`] checks a [`Coo`] tile first and
//! declines such tiles. Entry order does not matter.
//!
//! A tile's counts depend on the tile, `p` and the BCSR block size, not on
//! the format or the backend, so [`GridStats`] measures a whole matrix
//! once, without building a grid: a table of its distinct [`TileStats`]
//! with each class's tile count and, per tile, its grid coordinates and
//! class id. Its tiles come from the matrix's [`RowPattern`], one band of
//! `p` rows at a time; a pattern holds no repeat or zero, so its tiles are
//! counted without the check. A matrix without a pattern is walked
//! through its grid instead. A run over the stats prices each class once
//! and builds its report from the class table: every total is a sum over
//! classes of tile count times class timing, and only the balance ratio
//! (an `f64` sum, whose order shows in the last bit) still adds one term
//! per tile, in grid order.

use crate::backend::TileCounters;
use crate::{EncodeScratch, HwConfig, PlatformError};
use sparsemat::{Coo, FormatKind, Matrix, RowPattern, SparseError, Triplet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Reusable bitsets and counters for the counting pass, kept zeroed
/// between tiles by clearing the slots the last tile touched, or the
/// fitted tables whole after a tile with more entries than slots.
#[derive(Debug, Default)]
pub(crate) struct StatsScratch {
    /// One bit per tile cell (`r·p + c`): the duplicate check of
    /// [`TileStats::measure`]. A pattern tile needs none.
    cells: Vec<u64>,
    /// Entries per row.
    rows: Vec<u32>,
    /// Entries per column.
    cols: Vec<u32>,
    /// Occupied diagonals, indexed `c − r + p − 1`.
    diags: Vec<bool>,
    /// Occupied `b×b` blocks, indexed `br·⌈p/b⌉ + bc`.
    blocks: Vec<bool>,
    /// Occupied block-rows.
    block_rows: Vec<bool>,
    /// `i / b` for every tile index `i`: a table lookup instead of two
    /// integer divisions per entry.
    block_of: Vec<usize>,
    /// The `(p, b)` the tables were last fitted to.
    fitted: (usize, usize),
}

impl StatsScratch {
    /// Fits every table to a `p×p` tile at block size `b`. Grown slots are
    /// zero, and the pass leaves every slot it touched zero again, so the
    /// tables are clean between tiles.
    fn fit(&mut self, p: usize, b: usize) {
        fn grow<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
            if v.len() < n {
                v.resize(n, T::default());
            }
        }
        if self.fitted == (p, b) {
            return;
        }
        let nb = p.div_ceil(b);
        grow(&mut self.cells, (p * p).div_ceil(64));
        grow(&mut self.rows, p);
        grow(&mut self.cols, p);
        grow(&mut self.diags, 2 * p - 1);
        grow(&mut self.blocks, nb * nb);
        grow(&mut self.block_rows, nb);
        self.block_of.clear();
        self.block_of.extend((0..p).map(|i| i / b));
        self.fitted = (p, b);
    }

    /// Whether a fitted `p×p` tile's entries hold no repeated coordinate
    /// and no explicit zero. Leaves the bitset zero again.
    fn distinct_and_nonzero<'t>(
        &mut self,
        entries: impl Iterator<Item = &'t Triplet<f32>> + Clone,
        p: usize,
    ) -> bool {
        let mut clean = true;
        let mut seen = 0;
        for t in entries.clone() {
            let cell = t.row * p + t.col;
            let (word, bit) = (cell / 64, 1u64 << (cell % 64));
            if t.val == 0.0 || self.cells[word] & bit != 0 {
                clean = false;
                break;
            }
            self.cells[word] |= bit;
            seen += 1;
        }
        for t in entries.take(seen) {
            self.cells[(t.row * p + t.col) / 64] = 0;
        }
        clean
    }
}

/// The structural counts of one `p×p` tile that every format's cost is a
/// closed form in (DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileStats {
    /// Partition size `p` the tile was measured at.
    pub p: usize,
    /// BCSR block edge `b` the blocks were counted at.
    pub b: usize,
    /// Stored entries.
    pub nnz: u64,
    /// Rows holding at least one entry.
    pub nzr: u64,
    /// Entries in the longest row (ELL's natural width `w`).
    pub max_row: u64,
    /// Entries in the longest column (LIL's height less its end marker).
    pub max_col: u64,
    /// Distinct diagonals `c − r` (DIA's `ndiag`).
    pub ndiag: u64,
    /// Distinct `b×b` blocks (BCSR's `nblk`).
    pub nblk: u64,
    /// Block-rows holding at least one block (BCSR's `nbr`).
    pub nbr: u64,
    /// Σ over non-zero block-rows `br` of `min(b, p − br·b)`: the tile rows
    /// those block-rows cover, each one a BCSR dot issue.
    pub block_row_lines: u64,
}

impl TileStats {
    /// Gathers the structural counts of `tile` in one pass at the
    /// configured partition and block size, drawing its tables from
    /// `scratch` (no allocation once they are warm).
    ///
    /// Returns `None` — price the tile by walking it instead — when the
    /// tile is not `p×p`, or holds a duplicate coordinate or an explicit
    /// zero: the encoders merge or drop those, so the encoded structure
    /// would no longer match the tile's entries.
    pub fn measure(tile: &Coo<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Option<Self> {
        let p = cfg.partition_size;
        if tile.nrows() != p || tile.ncols() != p || cfg.bcsr_block == 0 {
            return None;
        }
        let s = scratch.stats_scratch();
        s.fit(p, cfg.bcsr_block);
        s.distinct_and_nonzero(tile.iter(), p)
            .then(|| Self::count(tile.iter().map(|t| (t.row, t.col)), cfg, scratch))
    }

    /// The one counting pass, over the `(row, col)` coordinates of a `p×p`
    /// tile's entries in tile-local coordinates: a [`Coo`] tile's, or a
    /// pattern tile's shifted by its origin. The coordinates must be
    /// distinct (the caller's check, or the pattern's guarantee). A sparse
    /// tile's `entries` are read twice, the second time to clear the slots
    /// the first touched.
    fn count<I>(entries: I, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Self
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        let p = cfg.partition_size;
        let b = cfg.bcsr_block;
        let s = scratch.stats_scratch();
        s.fit(p, b);
        let nb = p.div_ceil(b);
        let mut stats = TileStats {
            p,
            b,
            nnz: 0,
            nzr: 0,
            max_row: 0,
            max_col: 0,
            ndiag: 0,
            nblk: 0,
            nbr: 0,
            block_row_lines: 0,
        };
        for (r, c) in entries.clone() {
            stats.nnz += 1;
            let row = &mut s.rows[r];
            stats.nzr += u64::from(*row == 0);
            *row += 1;
            stats.max_row = stats.max_row.max(u64::from(*row));
            let col = &mut s.cols[c];
            *col += 1;
            stats.max_col = stats.max_col.max(u64::from(*col));
            let diag = &mut s.diags[c + p - 1 - r];
            stats.ndiag += u64::from(!*diag);
            *diag = true;
            let br = s.block_of[r];
            let block = &mut s.blocks[br * nb + s.block_of[c]];
            stats.nblk += u64::from(!*block);
            *block = true;
            let block_row = &mut s.block_rows[br];
            if !*block_row {
                *block_row = true;
                stats.nbr += 1;
                stats.block_row_lines += b.min(p - br * b) as u64;
            }
        }
        // Zero every slot this tile touched, so the next tile starts clean:
        // entry by entry for a sparse tile, and by filling the tables when
        // the tile has more entries than they have slots.
        if stats.nnz as usize > 4 * p + nb * nb {
            s.rows[..p].fill(0);
            s.cols[..p].fill(0);
            s.diags[..2 * p - 1].fill(false);
            s.blocks[..nb * nb].fill(false);
            s.block_rows[..nb].fill(false);
        } else {
            for (r, c) in entries {
                let br = s.block_of[r];
                s.rows[r] = 0;
                s.cols[c] = 0;
                s.diags[c + p - 1 - r] = false;
                s.blocks[br * nb + s.block_of[c]] = false;
                s.block_rows[br] = false;
            }
        }
        stats
    }

    /// The counters the walked path would read off this tile encoded in
    /// `format` and decompressed — the DESIGN.md §3 table, row by row.
    /// Without a second-stage codec, so coded bytes equal structural bytes
    /// and no entropy cycles are charged.
    pub fn counters(&self, format: FormatKind, cfg: &HwConfig) -> TileCounters {
        let TileStats {
            nnz,
            nzr,
            max_row,
            max_col,
            ndiag,
            nblk,
            nbr,
            block_row_lines,
            ..
        } = *self;
        let p = self.p as u64;
        let b = self.b as u64;
        let (vb, ib) = (cfg.value_bytes as u64, cfg.index_bytes as u64);
        let l = cfg.bram_read_latency;
        let width = self.p;
        // (structural bytes, decomp cycles, dot issues, engine width, BRAM reads)
        let (bytes, decomp_cycles, dot_issues, engine_width, bram_reads) = match format {
            FormatKind::Dense => (p * p * vb, 0, p, width, p),
            FormatKind::Csr => (
                (p + 1) * ib + nnz * (ib + vb),
                nzr * l + nnz,
                nzr,
                width,
                nzr + nnz,
            ),
            FormatKind::Csc => ((p + 1) * ib + nnz * (ib + vb), p * nnz, nzr, width, p * nnz),
            FormatKind::Bcsr => (
                (p.div_ceil(b) + 1) * ib + nblk * ib + nblk * b * b * vb,
                nbr * l + nblk,
                block_row_lines,
                width,
                nbr + nblk,
            ),
            FormatKind::Coo => (nnz * (2 * ib + vb), l + nnz, nzr, width, nnz),
            FormatKind::Lil => (
                (max_col + 1) * p * (ib + vb),
                nzr * (l + 2) + l,
                nzr,
                width,
                (nzr + 1) * p,
            ),
            FormatKind::Ell => (max_row * p * (ib + vb), p, p, cfg.ell_hw_width, p),
            FormatKind::Dia => (ndiag * (p + 1) * vb, l + p * ndiag, nzr, width, p * ndiag),
        };
        TileCounters {
            bytes,
            coded_bytes: bytes,
            useful_bytes: nnz * vb,
            entropy_cycles: 0,
            decomp_cycles,
            dot_issues,
            engine_width,
            bram_reads,
        }
    }
}

/// A multiply-rotate hasher for the class table's keys. The keys are
/// counts this module derives from the tiles, each at most `p²`, and a
/// collision only slows a lookup, so SipHash's flooding resistance buys
/// nothing here; it cost as much as measuring the tiles.
#[derive(Default)]
struct ClassHasher(u64);

impl Hasher for ClassHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The structural counts of every non-zero tile of one matrix, measured
/// once and priced for any format and backend: a table of the distinct
/// [`TileStats`] values, in order of first appearance, with the number of
/// tiles in each, and per tile, in grid order, its grid coordinates and
/// the id of its class. No tile is ever built.
///
/// Built by [`Session::measure`](crate::Session::measure) from the
/// matrix's [`RowPattern`], and consumed by
/// [`RunRequest::measured`](crate::RunRequest::measured).
#[derive(Debug, Clone, PartialEq)]
pub struct GridStats {
    /// Partition size the tiles were measured at.
    p: usize,
    /// BCSR block size the blocks were counted at.
    b: usize,
    /// Distinct tile statistics.
    classes: Vec<TileStats>,
    /// Tiles per class, indexed as `classes`.
    counts: Vec<u64>,
    /// Every non-zero tile's grid coordinates, in grid order. A pattern's
    /// dimensions fit `u32`, so its grid coordinates do.
    at: Vec<(u32, u32)>,
    /// Every non-zero tile's index in `classes`, in grid order: apart
    /// from `at`, so the balance sum of a run reads only the ids.
    class_of: Vec<u32>,
}

impl GridStats {
    /// Measures every tile of a matrix's [`RowPattern`] at the configured
    /// partition and block size, as the tiles arrive in grid order. The
    /// tile lists are sized once for the most tiles there can be (one per
    /// entry, and one per grid cell) and trimmed at the end: as many
    /// allocations for ten tiles as for a million.
    ///
    /// A pattern holds no duplicate coordinate, no explicit zero and no
    /// entry outside its tile, so its tiles are counted without
    /// [`TileStats::measure`]'s check.
    pub(crate) fn measure(
        pattern: &RowPattern,
        cfg: &HwConfig,
        scratch: &mut EncodeScratch,
    ) -> Result<Self, SparseError> {
        let p = cfg.partition_size;
        let (nrows, ncols) = pattern.shape();
        let cells = nrows.div_ceil(p).saturating_mul(ncols.div_ceil(p));
        let mut ids: HashMap<TileStats, u32, BuildHasherDefault<ClassHasher>> = HashMap::default();
        let mut classes = Vec::new();
        let mut counts = Vec::new();
        let most = pattern.nnz().min(cells);
        let (mut at, mut class_of) = (Vec::with_capacity(most), Vec::with_capacity(most));
        pattern.tiles(p, |grid_row, grid_col, run| {
            let (row0, col0) = (grid_row * p, grid_col * p);
            let local = run
                .iter()
                .map(move |&(r, c)| (r as usize - row0, c as usize - col0));
            let stats = TileStats::count(local, cfg, scratch);
            let class = *ids.entry(stats).or_insert_with(|| {
                classes.push(stats);
                counts.push(0);
                // Every class keeps its `TileStats`: 2^32 of them would
                // not fit in memory, so the ids fit `u32`.
                (classes.len() - 1) as u32
            });
            counts[class as usize] += 1;
            at.push((grid_row as u32, grid_col as u32));
            class_of.push(class);
        })?;
        at.shrink_to_fit();
        class_of.shrink_to_fit();
        Ok(GridStats {
            p,
            b: cfg.bcsr_block,
            classes,
            counts,
            at,
            class_of,
        })
    }

    /// The distinct tile statistics, in order of first appearance.
    pub fn classes(&self) -> &[TileStats] {
        &self.classes
    }

    /// Tiles per class, indexed as [`GridStats::classes`].
    pub(crate) fn class_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of non-zero tiles measured.
    pub fn tiles(&self) -> usize {
        self.class_of.len()
    }

    /// Per tile in grid order: the index of its class in
    /// [`GridStats::classes`].
    pub(crate) fn class_of(&self) -> &[u32] {
        &self.class_of
    }

    /// The grid coordinates of the tile at `idx` in grid order.
    pub(crate) fn grid_coords(&self, idx: usize) -> (usize, usize) {
        let (row, col) = self.at[idx];
        (row as usize, col as usize)
    }

    /// Checks that these stats were measured under `cfg`'s partition and
    /// block size.
    pub(crate) fn check(&self, cfg: &HwConfig) -> Result<(), PlatformError> {
        if (self.p, self.b) == (cfg.partition_size, cfg.bcsr_block) {
            return Ok(());
        }
        Err(PlatformError::Config(format!(
            "grid stats measured at p={} b={} do not match this run's p={} b={}",
            self.p, self.b, cfg.partition_size, cfg.bcsr_block,
        )))
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

    #[test]
    fn counts_match_a_hand_worked_tile() {
        // Unsorted on purpose: order must not matter.
        let t = tile(
            &[
                (9, 0, 4.0),
                (0, 5, 2.0),
                (3, 3, 3.0),
                (0, 0, 1.0),
                (15, 15, 5.0),
                (3, 4, -1.0),
            ],
            16,
        );
        let cfg = HwConfig::with_partition_size(16);
        let s = TileStats::measure(&t, &cfg, &mut EncodeScratch::new()).unwrap();
        assert_eq!((s.nnz, s.nzr, s.max_row, s.max_col), (6, 4, 2, 2));
        // Diagonals {-9, 0, 1, 5}; blocks (0,0) (0,1) (2,0) (3,3).
        assert_eq!((s.ndiag, s.nblk, s.nbr, s.block_row_lines), (4, 4, 3, 12));
    }

    #[test]
    fn duplicates_and_explicit_zeros_are_declined_and_the_tables_reset() {
        let cfg = HwConfig::with_partition_size(8);
        let mut scratch = EncodeScratch::new();
        let mut dup = tile(&[(1, 2, 1.0), (4, 4, 2.0)], 8);
        dup.push(1, 2, -1.0).unwrap();
        assert_eq!(TileStats::measure(&dup, &cfg, &mut scratch), None);
        let zero = Coo::from_triplets(8, 8, vec![sparsemat::Triplet::new(0, 0, 0.0f32)]).unwrap();
        assert_eq!(TileStats::measure(&zero, &cfg, &mut scratch), None);
        // A declined tile leaves nothing behind for the next one.
        let clean = tile(&[(1, 2, 1.0), (4, 4, 2.0)], 8);
        let warm = TileStats::measure(&clean, &cfg, &mut scratch).unwrap();
        assert_eq!(
            Some(warm),
            TileStats::measure(&clean, &cfg, &mut EncodeScratch::new())
        );
        // A tile of the wrong shape is declined too.
        assert_eq!(
            TileStats::measure(&tile(&[(0, 0, 1.0)], 4), &cfg, &mut scratch),
            None
        );
    }
}
