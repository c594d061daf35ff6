//! A matrix's non-zero pattern, row by row: built once and tiled at any
//! partition size.
//!
//! A [`PartitionGrid`](crate::PartitionGrid) copies and sorts the whole
//! triplet list for every partition size it tiles. A caller that only reads
//! where the entries are (the structural measure, which never looks at
//! values) builds a [`RowPattern`] once instead and walks its tiles at each
//! size with [`RowPattern::tiles`]: one band of `size` rows at a time, with
//! scratch bounded by the largest band.

use crate::{check_partition_size, Coo, Matrix, Scalar, SparseError};

/// A pattern keeps one row pointer per row, so a matrix with far more rows
/// than entries is left to its grid, whose memory does not scale with the
/// dimensions: [`RowPattern::new`] declines a matrix with more than this
/// many rows per entry ...
const ROWS_PER_ENTRY: usize = 4;
/// ... plus this allowance, so every small matrix has a pattern.
const ROWS_ALLOWED: usize = 1 << 12;

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
    /// then a sort of each row that is not already in column order.
    ///
    /// Returns `None`, leaving the matrix to be walked through its
    /// [`PartitionGrid`](crate::PartitionGrid), when
    /// - a coordinate repeats after explicit zeros are dropped (a pattern
    ///   has no values to merge it with);
    /// - a dimension exceeds `u32::MAX` (the indices are `u32`);
    /// - the matrix has more than 4 rows per entry beyond the first 4096
    ///   rows (the row pointers would outweigh the entries);
    /// - an entry lies outside the shape (which the grid build reports).
    pub fn new<T: Scalar>(coo: &Coo<T>) -> Option<Self> {
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        let rows_allowed = coo
            .nnz()
            .saturating_mul(ROWS_PER_ENTRY)
            .saturating_add(ROWS_ALLOWED);
        if nrows > rows_allowed || u32::try_from(nrows.max(ncols)).is_err() {
            return None;
        }
        // `row_ptr[r + 1]` counts row `r`; the prefix sum turns the counts
        // into starts, the scatter advances each start to its row's end,
        // and the shift moves the ends back up to be the next row's start.
        let mut row_ptr = vec![0usize; nrows + 1];
        for t in coo.iter() {
            if t.row >= nrows || t.col >= ncols {
                return None;
            }
            row_ptr[t.row + 1] += usize::from(!t.val.is_zero());
        }
        for r in 1..=nrows {
            row_ptr[r] += row_ptr[r - 1];
        }
        let mut cols = vec![0u32; row_ptr[nrows]];
        for t in coo.iter().filter(|t| !t.val.is_zero()) {
            let slot = &mut row_ptr[t.row];
            cols[*slot] = t.col as u32;
            *slot += 1;
        }
        row_ptr.copy_within(..nrows, 1);
        row_ptr[0] = 0;
        for row in row_ptr.windows(2) {
            let row = &mut cols[row[0]..row[1]];
            if !row.is_sorted() {
                row.sort_unstable();
            }
            if row.windows(2).any(|w| w[0] == w[1]) {
                return None;
            }
        }
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
