//! A matrix's non-zero pattern, row by row: built once and tiled at any
//! partition size.
//!
//! A [`PartitionGrid`](crate::PartitionGrid) copies and sorts the whole
//! triplet list for every partition size it tiles. A caller that only reads
//! where the entries are (the structural measure and the Fig.-3 statistics,
//! neither of which looks at values) builds a [`RowPattern`] once instead
//! and walks its tiles at each size with [`RowPattern::tiles`]: one band of
//! `size` rows at a time, with scratch bounded by the largest band.
//!
//! Every pattern is made by [`RowPattern::from_row_major`] from its cells
//! in row-major order, which holds the rules a pattern keeps (`u32`
//! dimensions, no more rows than entries allow, strictly ascending
//! columns). [`RowPattern::new`] sorts a [`Coo`]'s entries into that order
//! first; a generator that knows its cells row by row (a band, or a
//! uniform random matrix read off its placed-cell set) feeds them in
//! directly, and no triplet list ever exists.

use crate::{check_partition_size, Coo, Matrix, Scalar, SparseError};

/// A pattern keeps one row pointer per row, so a matrix with far more rows
/// than entries is left to its grid, whose memory does not scale with the
/// dimensions: [`RowPattern::from_row_major`] declines a matrix with more
/// than this many rows per entry ...
const ROWS_PER_ENTRY: usize = 4;
/// ... plus this allowance, so every small matrix has a pattern.
const ROWS_ALLOWED: usize = 1 << 12;

/// Whether an `nrows × ncols` matrix of `nnz` entries may have a pattern:
/// its dimensions fit the `u32` indices and its rows do not outweigh its
/// entries.
fn admits(nrows: usize, ncols: usize, nnz: usize) -> bool {
    let rows_allowed = nnz
        .saturating_mul(ROWS_PER_ENTRY)
        .saturating_add(ROWS_ALLOWED);
    nrows <= rows_allowed && u32::try_from(nrows.max(ncols)).is_ok()
}

/// The zero-free, row-sorted non-zero pattern of a matrix: row pointers
/// plus `u32` column indices, with no values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPattern {
    nrows: usize,
    ncols: usize,
    /// Row `r`'s columns are `cols[row_ptr[r]..row_ptr[r + 1]]`.
    row_ptr: Vec<usize>,
    /// Column indices, strictly ascending within each row.
    cols: Vec<u32>,
}

impl RowPattern {
    /// The pattern of `coo`'s non-zero entries: one counting pass by row,
    /// a sort of each row that is not already in column order, then
    /// [`RowPattern::from_row_major`] over the sorted cells.
    ///
    /// Returns `None`, leaving the matrix to be walked through its
    /// [`PartitionGrid`](crate::PartitionGrid), when
    /// [`RowPattern::from_row_major`] would, or when an entry lies outside
    /// the shape (which the grid build reports). A repeated coordinate
    /// (after explicit zeros are dropped) is such a case: a pattern has no
    /// values to merge it with.
    pub fn new<T: Scalar>(coo: &Coo<T>) -> Option<Self> {
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        let nonzero = || coo.iter().filter(|t| !t.val.is_zero());
        let nnz = nonzero().count();
        // Rejected before any per-row memory is allocated.
        if !admits(nrows, ncols, nnz) {
            return None;
        }
        // `starts[r + 1]` counts row `r`; the prefix sum turns the counts
        // into starts, the scatter advances each start to its row's end,
        // and the shift moves the ends back up to be the next row's start.
        let mut starts = vec![0usize; nrows + 1];
        for t in nonzero() {
            if t.row >= nrows || t.col >= ncols {
                return None;
            }
            starts[t.row + 1] += 1;
        }
        for r in 1..=nrows {
            starts[r] += starts[r - 1];
        }
        let mut cols = vec![0u32; nnz];
        for t in nonzero() {
            let slot = &mut starts[t.row];
            cols[*slot] = t.col as u32;
            *slot += 1;
        }
        starts.copy_within(..nrows, 1);
        starts[0] = 0;
        for row in starts.windows(2) {
            let row = &mut cols[row[0]..row[1]];
            if !row.is_sorted() {
                row.sort_unstable();
            }
        }
        let row = |r: usize| &cols[starts[r]..starts[r + 1]];
        let cells = (0..nrows).flat_map(|r| row(r).iter().map(move |&c| (r, c as usize)));
        Self::from_row_major(nrows, ncols, nnz, cells)
    }

    /// The pattern of `nnz` cells given as `(row, col)` in row-major order:
    /// the one constructor every builder goes through, a generator that
    /// emits its matrix row by row included.
    ///
    /// Returns `None`, leaving the matrix to be walked through its
    /// [`PartitionGrid`](crate::PartitionGrid), when
    /// - a dimension exceeds `u32::MAX` (the indices are `u32`);
    /// - the matrix has more than 4 rows per entry beyond the first 4096
    ///   rows (the row pointers would outweigh the entries);
    /// - the cells are not strictly ascending in row-major order (a
    ///   repeated coordinate included), a cell lies outside the shape, or
    ///   `cells` does not yield exactly `nnz` of them.
    ///
    /// The first two are decided from the arguments, before anything is
    /// allocated or `cells` is read.
    pub fn from_row_major(
        nrows: usize,
        ncols: usize,
        nnz: usize,
        cells: impl IntoIterator<Item = (usize, usize)>,
    ) -> Option<Self> {
        if !admits(nrows, ncols, nnz) {
            return None;
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        let mut cols = Vec::with_capacity(nnz);
        let mut last = None;
        for (r, c) in cells {
            if r >= nrows || c >= ncols || cols.len() == nnz || last >= Some((r, c)) {
                return None;
            }
            // Rows up to `r` start here, or already started.
            row_ptr.resize(r + 1, cols.len());
            cols.push(c as u32);
            last = Some((r, c));
        }
        if cols.len() != nnz {
            return None;
        }
        row_ptr.resize(nrows + 1, nnz);
        Some(RowPattern {
            nrows,
            ncols,
            row_ptr,
            cols,
        })
    }

    /// The matrix shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Density: `nnz / (nrows · ncols)`, zero for an empty shape; the
    /// same division as [`Matrix::density`], so a matrix and its pattern
    /// agree to the bit.
    pub fn density(&self) -> f64 {
        let cells = self.nrows * self.ncols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Heap bytes held: the row pointers and the column indices.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.row_ptr.as_slice()) + std::mem::size_of_val(self.cols.as_slice())
    }

    /// Calls `f(grid_row, grid_col, entries)` for every non-zero tile of a
    /// `size × size` tiling, in row-major grid order — the tiles and order
    /// of a [`PartitionGrid`](crate::PartitionGrid)'s partitions — with the
    /// tile's entries as `(row, col)` matrix coordinates, in no particular
    /// order.
    ///
    /// The walk takes one band of `size` rows at a time and buckets the
    /// band's entries by grid column, counting over just the band's touched
    /// column range. A band whose `m` entries would sort in fewer steps
    /// (`m·(⌊log2 m⌋ + 1)`) than that range has grid columns sorts them
    /// instead, so a sparse band never pays a scan of its whole width.
    /// Scratch is one entry buffer and one counter per grid column of the
    /// widest bucketed band, both bounded by the largest band's entry
    /// count times its logarithm.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidBlockSize`] when `size == 0`.
    pub fn tiles(
        &self,
        size: usize,
        mut f: impl FnMut(usize, usize, &[(u32, u32)]),
    ) -> Result<(), SparseError> {
        check_partition_size(size)?;
        let (pow2, shift) = (size.is_power_of_two(), size.trailing_zeros());
        let tile = move |i: u32| {
            let i = i as usize;
            if pow2 {
                i >> shift
            } else {
                i / size
            }
        };
        let mut band: Vec<(u32, u32)> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for (grid_row, row0) in (0..self.nrows).step_by(size).enumerate() {
            let rows = row0..(row0 + size).min(self.nrows);
            let entries = self.row_ptr[rows.end] - self.row_ptr[rows.start];
            if entries == 0 {
                continue;
            }
            let row = |r: usize| &self.cols[self.row_ptr[r]..self.row_ptr[r + 1]];
            let (mut lo, mut hi) = (u32::MAX, 0);
            for r in rows.clone() {
                if let (Some(&first), Some(&last)) = (row(r).first(), row(r).last()) {
                    (lo, hi) = (lo.min(first), hi.max(last));
                }
            }
            let first_col = tile(lo);
            let span = tile(hi) - first_col + 1;
            band.clear();
            if entries * (entries.ilog2() as usize + 1) < span {
                for r in rows {
                    band.extend(row(r).iter().map(|&c| (r as u32, c)));
                }
                band.sort_unstable_by_key(|&(_, c)| tile(c));
                for run in band.chunk_by(|a, b| tile(a.1) == tile(b.1)) {
                    f(grid_row, tile(run[0].1), run);
                }
            } else {
                // `starts[g + 1]` counts grid column `first_col + g`; the
                // prefix sum makes `starts[g]` where that column begins in
                // `band`, and the scatter advances it as it fills.
                starts.clear();
                starts.resize(span + 1, 0);
                for r in rows.clone() {
                    for &c in row(r) {
                        starts[tile(c) - first_col + 1] += 1;
                    }
                }
                for g in 1..=span {
                    starts[g] += starts[g - 1];
                }
                band.resize(entries, (0, 0));
                for r in rows {
                    for &c in row(r) {
                        let slot = &mut starts[tile(c) - first_col];
                        band[*slot] = (r as u32, c);
                        *slot += 1;
                    }
                }
                // Each column's start now sits at its end.
                let mut begin = 0;
                for (g, &end) in starts[..span].iter().enumerate() {
                    if end > begin {
                        f(grid_row, first_col + g, &band[begin..end]);
                        begin = end;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tile_runs;
    use crate::Triplet;

    /// Tiles as `(grid_row, grid_col, sorted (row, col) set)`.
    type Tiles = Vec<(usize, usize, Vec<(usize, usize)>)>;

    /// The tiles `tile_runs` yields.
    fn by_tile_runs(coo: &Coo<f32>, size: usize) -> Tiles {
        let mut triplets = coo.triplets();
        tile_runs(coo.nrows(), coo.ncols(), &mut triplets, size)
            .unwrap()
            .map(|(gr, gc, run)| {
                let mut cells: Vec<_> = run.iter().map(|t| (t.row, t.col)).collect();
                cells.sort_unstable();
                (gr, gc, cells)
            })
            .collect()
    }

    /// The tiles the pattern walk yields, in the same form.
    fn by_pattern(pattern: &RowPattern, size: usize) -> Tiles {
        let mut tiles = Vec::new();
        pattern
            .tiles(size, |gr, gc, run| {
                let mut cells: Vec<_> =
                    run.iter().map(|&(r, c)| (r as usize, c as usize)).collect();
                cells.sort_unstable();
                tiles.push((gr, gc, cells));
            })
            .unwrap();
        tiles
    }

    #[test]
    fn pattern_tiles_match_tile_runs_in_both_band_modes() {
        // Unsorted rows, an explicit zero, an empty band, a ragged edge. At
        // p = 1 row 0 (2 entries over 9 grid columns) is sorted; at p = 2
        // its band (4 entries over 5 grid columns) is bucketed.
        let triplets = vec![
            Triplet::new(0, 9, 1.0f32),
            Triplet::new(0, 1, 2.0),
            Triplet::new(1, 0, 3.0),
            Triplet::new(1, 4, 0.0),
            Triplet::new(1, 2, 4.0),
            Triplet::new(6, 10, 5.0),
            Triplet::new(6, 3, 6.0),
        ];
        let coo = Coo::from_triplets(7, 11, triplets).unwrap();
        let pattern = RowPattern::new(&coo).unwrap();
        assert_eq!((pattern.shape(), pattern.nnz()), ((7, 11), 6));
        for size in [1, 2, 3, 5, 8, 16] {
            assert_eq!(
                by_pattern(&pattern, size),
                by_tile_runs(&coo, size),
                "size {size}"
            );
        }
        assert!(matches!(
            pattern.tiles(0, |_, _, _| {}),
            Err(SparseError::InvalidBlockSize { .. })
        ));
    }

    #[test]
    fn row_major_cells_build_the_pattern_their_matrix_has() {
        // Empty rows at the start, between and at the end.
        let cells = [(1, 0), (1, 4), (3, 2), (3, 3), (4, 1)];
        let direct = RowPattern::from_row_major(6, 5, cells.len(), cells).unwrap();
        let triplets = cells.iter().map(|&(r, c)| Triplet::new(r, c, 1.0f32));
        let coo = Coo::from_triplets(6, 5, triplets.collect()).unwrap();
        assert_eq!(Some(&direct), RowPattern::new(&coo).as_ref());
        assert_eq!(direct.density().to_bits(), coo.density().to_bits());
        assert_eq!(
            RowPattern::from_row_major(0, 0, 0, []).unwrap().density(),
            0.0
        );
    }

    #[test]
    fn cells_out_of_order_out_of_shape_or_miscounted_have_no_pattern() {
        let build = |nnz: usize, cells: &[(usize, usize)]| {
            RowPattern::from_row_major(4, 4, nnz, cells.iter().copied())
        };
        assert!(build(3, &[(0, 1), (0, 2), (2, 0)]).is_some());
        assert_eq!(build(3, &[(0, 2), (0, 1), (2, 0)]), None, "columns descend");
        assert_eq!(build(3, &[(0, 1), (0, 1), (2, 0)]), None, "a repeat");
        assert_eq!(build(3, &[(2, 0), (0, 1), (0, 2)]), None, "rows descend");
        assert_eq!(build(3, &[(0, 1), (0, 2), (4, 0)]), None, "a stray row");
        assert_eq!(build(3, &[(0, 1), (0, 2), (2, 4)]), None, "a stray column");
        assert_eq!(build(2, &[(0, 1), (0, 2), (2, 0)]), None, "too many");
        assert_eq!(build(4, &[(0, 1), (0, 2), (2, 0)]), None, "too few");
        // The shape is declined before any cell is read.
        let unread = std::iter::from_fn(|| -> Option<(usize, usize)> { unreachable!() });
        assert_eq!(RowPattern::from_row_major(1 << 40, 8, 1, unread), None);
    }

    #[test]
    fn repeats_wide_shapes_and_row_heavy_shapes_have_no_pattern() {
        let repeat = vec![Triplet::new(2, 3, 1.0f32), Triplet::new(2, 3, -1.0)];
        assert_eq!(
            RowPattern::new(&Coo::from_triplets(4, 4, repeat).unwrap()),
            None
        );
        // A zero does not repeat a coordinate: it is dropped first.
        let zero = vec![Triplet::new(2, 3, 1.0f32), Triplet::new(2, 3, 0.0)];
        assert!(RowPattern::new(&Coo::from_triplets(4, 4, zero).unwrap()).is_some());
        let wide = Coo::<f32>::new(2, u32::MAX as usize + 1);
        assert_eq!(RowPattern::new(&wide), None);
        // Rows beyond the allowance are left to the grid, before any
        // per-row memory is allocated.
        let mut tall = Coo::<f32>::new(1 << 40, 8);
        tall.push(5, 5, 1.0).unwrap();
        assert_eq!(RowPattern::new(&tall), None);
        let mut short = Coo::<f32>::new(ROWS_ALLOWED + 4, 8);
        short.push(5, 5, 1.0).unwrap();
        assert!(RowPattern::new(&short).is_some());
    }
}
