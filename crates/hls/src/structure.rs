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
//! that, so [`TileStats::measure`] declines such tiles and the caller walks
//! them. Entry order does not matter.
//!
//! A tile's counts depend on the tile, `p` and the BCSR block size, not on
//! the format or the backend, so [`GridStats`] measures a whole matrix
//! once, straight from its tile-sorted triplets and without building a
//! grid: a table of its distinct [`TileStats`] and, per tile, its grid
//! coordinates and class id. A run over it prices each class once and
//! hands every tile its class's timing in grid order.

use crate::backend::TileCounters;
use crate::{EncodeScratch, HwConfig, PlatformError};
use sparsemat::{Coo, FormatKind, Matrix, Partition, Triplet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Reusable bitsets and counters for [`TileStats::measure`], kept zeroed
/// between tiles by clearing exactly the slots the last tile touched.
#[derive(Debug, Default)]
pub(crate) struct StatsScratch {
    /// One bit per tile cell (`r·p + c`): duplicate detection.
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
        if tile.nrows() != p || tile.ncols() != p {
            return None;
        }
        Self::measure_local(tile.iter().copied(), cfg, scratch)
    }

    /// The one measuring pass, over a `p×p` tile's entries in tile-local
    /// coordinates: a [`Coo`] tile's, or a tile run's shifted by its
    /// origin. `entries` is read twice, the second time to clear the
    /// slots the first touched.
    fn measure_local<I>(entries: I, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Option<Self>
    where
        I: Iterator<Item = Triplet<f32>> + Clone,
    {
        let p = cfg.partition_size;
        let b = cfg.bcsr_block;
        if b == 0 {
            return None;
        }
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
        let mut clean = true;
        let mut seen = 0;
        for t in entries.clone() {
            let cell = t.row * p + t.col;
            let (word, bit) = (cell / 64, 1u64 << (cell % 64));
            if t.val == 0.0 || s.cells[word] & bit != 0 {
                clean = false;
                break;
            }
            s.cells[word] |= bit;
            seen += 1;
            let row = &mut s.rows[t.row];
            stats.nzr += u64::from(*row == 0);
            *row += 1;
            stats.max_row = stats.max_row.max(u64::from(*row));
            let col = &mut s.cols[t.col];
            *col += 1;
            stats.max_col = stats.max_col.max(u64::from(*col));
            let diag = &mut s.diags[t.col + p - 1 - t.row];
            stats.ndiag += u64::from(!*diag);
            *diag = true;
            let br = s.block_of[t.row];
            let block = &mut s.blocks[br * nb + s.block_of[t.col]];
            stats.nblk += u64::from(!*block);
            *block = true;
            let block_row = &mut s.block_rows[br];
            if !*block_row {
                *block_row = true;
                stats.nbr += 1;
                stats.block_row_lines += b.min(p - br * b) as u64;
            }
        }
        // Zero every slot this tile touched, so the next tile starts clean.
        for t in entries.take(seen) {
            let br = s.block_of[t.row];
            s.cells[(t.row * p + t.col) / 64] = 0;
            s.rows[t.row] = 0;
            s.cols[t.col] = 0;
            s.diags[t.col + p - 1 - t.row] = false;
            s.blocks[br * nb + s.block_of[t.col]] = false;
            s.block_rows[br] = false;
        }
        stats.nnz = seen as u64;
        clean.then_some(stats)
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

/// The class id of a tile [`TileStats::measure`] declined.
const DECLINED: u32 = u32::MAX;

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

/// One tile of a measured grid, in grid order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MeasuredTile {
    grid_row: usize,
    grid_col: usize,
    /// An index into [`GridStats::classes`], or [`DECLINED`].
    class: u32,
}

/// How a measured run prices one tile: from its class's timing, or by
/// walking the tile, which [`TileStats::measure`] declined.
pub(crate) enum TilePricing<'a> {
    /// The index of the tile's class in [`GridStats::classes`].
    Class(usize),
    /// The declined tile itself.
    Walk(&'a Partition<f32>),
}

/// The structural counts of every non-zero tile of one matrix, measured
/// once and priced for any format and backend: a table of the distinct
/// [`TileStats`] values, in order of first appearance, and per tile, in
/// grid order, its grid coordinates and the id of its class. A tile
/// [`TileStats::measure`] declines (a duplicate coordinate) is kept as a
/// real [`Partition`], its entries in input order, for the run to walk;
/// an accepted tile is never built.
///
/// Built by [`Session::measure`](crate::Session::measure) straight from the
/// matrix's tile runs, and consumed by
/// [`RunRequest::measured`](crate::RunRequest::measured).
#[derive(Debug, Clone, PartialEq)]
pub struct GridStats {
    /// Partition size the tiles were measured at.
    p: usize,
    /// BCSR block size the blocks were counted at.
    b: usize,
    /// Distinct tile statistics.
    classes: Vec<TileStats>,
    /// Every non-zero tile, in grid order.
    tiles: Vec<MeasuredTile>,
    /// The declined tiles, in grid order.
    declined: Vec<Partition<f32>>,
}

impl GridStats {
    /// Measures every tile run of one `nrows × ncols` matrix, as
    /// [`tile_runs`](sparsemat::tile_runs) yields them at the configured
    /// partition size, at the configured block size. A declined tile is
    /// built from its run, for the run to walk.
    pub(crate) fn measure<'t, R>(
        (nrows, ncols): (usize, usize),
        runs: R,
        cfg: &HwConfig,
        scratch: &mut EncodeScratch,
    ) -> Self
    where
        R: Iterator<Item = (usize, usize, &'t [Triplet<f32>])>,
    {
        let p = cfg.partition_size;
        let mut ids: HashMap<TileStats, u32, BuildHasherDefault<ClassHasher>> = HashMap::default();
        let mut classes = Vec::new();
        let mut declined = Vec::new();
        // Sized once for the most tiles the runs can hold (one per entry,
        // and one per grid cell) and trimmed after: as many allocations
        // for ten tiles as for a million.
        let cells = nrows.div_ceil(p).saturating_mul(ncols.div_ceil(p));
        let most = runs.size_hint().1.unwrap_or(0).min(cells);
        let mut tiles = Vec::with_capacity(most);
        for (grid_row, grid_col, run) in runs {
            let (row0, col0) = (grid_row * p, grid_col * p);
            let local = run
                .iter()
                .map(move |t| Triplet::new(t.row - row0, t.col - col0, t.val));
            let class = match TileStats::measure_local(local, cfg, scratch) {
                // Ids stay below the marker: past 2^32 − 1 classes, the
                // remaining tiles are walked.
                Some(stats) if classes.len() < DECLINED as usize => {
                    *ids.entry(stats).or_insert_with(|| {
                        classes.push(stats);
                        (classes.len() - 1) as u32
                    })
                }
                _ => {
                    declined.push(Partition::from_run(grid_row, grid_col, run, p));
                    DECLINED
                }
            };
            tiles.push(MeasuredTile {
                grid_row,
                grid_col,
                class,
            });
        }
        tiles.shrink_to_fit();
        GridStats {
            p,
            b: cfg.bcsr_block,
            classes,
            tiles,
            declined,
        }
    }

    /// The distinct tile statistics, in order of first appearance.
    pub fn classes(&self) -> &[TileStats] {
        &self.classes
    }

    /// Number of non-zero tiles measured.
    pub fn tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of tiles [`TileStats::measure`] declined.
    pub fn declined(&self) -> usize {
        self.declined.len()
    }

    /// Per tile in grid order: its grid coordinates and how to price it.
    pub(crate) fn pricing(&self) -> impl Iterator<Item = ((usize, usize), TilePricing<'_>)> {
        let mut declined = self.declined.iter();
        self.tiles.iter().map(move |tile| {
            let pricing = match tile.class {
                DECLINED => match declined.next() {
                    Some(part) => TilePricing::Walk(part),
                    None => unreachable!("`measure` keeps one declined partition per marker"),
                },
                class => TilePricing::Class(class as usize),
            };
            ((tile.grid_row, tile.grid_col), pricing)
        })
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
