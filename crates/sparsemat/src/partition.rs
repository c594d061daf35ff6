//! Matrix partitioning — §4.1 of the paper.
//!
//! Copernicus never compresses a whole matrix at once: "a common efficient
//! practice is to apply the compression on the smaller partitions of the
//! original matrix [...] by using partitioning, we can eliminate transferring
//! and processing the all-zero partitions." This module tiles a matrix into
//! `p×p` partitions, keeps only the non-zero ones, and computes the Fig.-3
//! statistics (partition density, non-zero-row density, non-zero-row share).

use crate::{Coo, Matrix, Scalar, SparseError, Triplet};

/// The partition sizes the paper sweeps ("practical partition sizes of 8,
/// 16, and 32", §4.2).
pub const PAPER_PARTITION_SIZES: [usize; 3] = [8, 16, 32];

/// One non-zero `p×p` tile of a larger matrix.
///
/// The tile's COO is always shaped `p×p` even at the matrix edge; edge tiles
/// simply have no entries outside the valid region, mirroring the zero
/// padding the hardware's fixed-width engine sees.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition<T> {
    /// Tile row in the partition grid.
    pub grid_row: usize,
    /// Tile column in the partition grid.
    pub grid_col: usize,
    /// The tile's entries with tile-local coordinates, shape `p×p`.
    pub coo: Coo<T>,
}

impl<T: Scalar> Partition<T> {
    /// The tile at `(grid_row, grid_col)` of a `size × size` tiling, built
    /// from one run [`tile_runs`] yields: its entries shifted to
    /// tile-local coordinates, in run order.
    pub fn from_run(grid_row: usize, grid_col: usize, entries: &[Triplet<T>], size: usize) -> Self {
        let (row0, col0) = (grid_row * size, grid_col * size);
        let mut coo = Coo::with_capacity(size, size, entries.len());
        for t in entries {
            coo.push(t.row - row0, t.col - col0, t.val)
                .expect("a tile run's entries lie inside its tile");
        }
        Partition {
            grid_row,
            grid_col,
            coo,
        }
    }

    /// Number of non-zero entries in the tile.
    pub fn nnz(&self) -> usize {
        self.coo.nnz()
    }

    /// Number of tile rows holding at least one entry.
    pub fn nonzero_rows(&self) -> usize {
        self.coo.nonzero_rows()
    }

    /// Tile density `nnz / p²`.
    pub fn density(&self) -> f64 {
        self.coo.density()
    }
}

/// A matrix tiled into `p×p` partitions with the all-zero tiles dropped.
#[derive(Debug, Clone)]
pub struct PartitionGrid<T> {
    nrows: usize,
    ncols: usize,
    size: usize,
    partitions: Vec<Partition<T>>,
}

impl<T: Scalar> PartitionGrid<T> {
    /// Tiles `matrix` into `size × size` partitions, keeping only non-zero
    /// tiles.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidBlockSize`] when `size == 0`.
    pub fn new<M: Matrix<T>>(matrix: &M, size: usize) -> Result<Self, SparseError> {
        Self::from_triplets(matrix.nrows(), matrix.ncols(), matrix.triplets(), size)
    }

    /// Tiles a triplet list directly (avoids materializing intermediate
    /// formats for very large inputs).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidBlockSize`] when `size == 0`, or
    /// [`SparseError::IndexOutOfBounds`] for a stray triplet.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        mut triplets: Vec<Triplet<T>>,
        size: usize,
    ) -> Result<Self, SparseError> {
        let partitions = tile_runs(nrows, ncols, &mut triplets, size)?
            .map(|(grid_row, grid_col, entries)| {
                Partition::from_run(grid_row, grid_col, entries, size)
            })
            .collect();
        Ok(PartitionGrid {
            nrows,
            ncols,
            size,
            partitions,
        })
    }

    /// Original matrix shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Partition edge length `p`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Grid dimensions `(tile_rows, tile_cols)` including all-zero tiles.
    pub fn grid_shape(&self) -> (usize, usize) {
        (
            self.nrows.div_ceil(self.size),
            self.ncols.div_ceil(self.size),
        )
    }

    /// Total number of tiles in the grid, zero tiles included.
    pub fn total_tiles(&self) -> usize {
        let (r, c) = self.grid_shape();
        r * c
    }

    /// The retained non-zero tiles in row-major grid order.
    pub fn partitions(&self) -> &[Partition<T>] {
        &self.partitions
    }

    /// Number of non-zero tiles.
    pub fn nonzero_tiles(&self) -> usize {
        self.partitions.len()
    }

    /// Total non-zero entries across all tiles (= the matrix's nnz).
    pub fn nnz(&self) -> usize {
        self.partitions.iter().map(Partition::nnz).sum()
    }

    /// The Fig.-3 statistics for this tiling.
    pub fn stats(&self) -> PartitionStats {
        PartitionStats::measure(self)
    }

    /// Reassembles the original matrix from its tiles (for testing the
    /// tiling is lossless).
    pub fn reassemble(&self) -> Coo<T> {
        let mut out = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for p in &self.partitions {
            for t in p.coo.iter() {
                out.push(
                    p.grid_row * self.size + t.row,
                    p.grid_col * self.size + t.col,
                    t.val,
                )
                .expect("tile entry within matrix bounds");
            }
        }
        out
    }
}

/// Tiles a triplet list into `size × size` partitions: checks every
/// triplet against the shape, drops explicit zeros (`Coo::push` drops them
/// too, so a tile holding only zeros is never formed), sorts `triplets` in
/// place by tile and yields one `(grid_row, grid_col, entries)` run per
/// non-zero tile, in row-major grid order. Entries keep matrix coordinates
/// and, within a run, their input order.
///
/// This is the one tiling step: [`PartitionGrid::from_triplets`] builds a
/// [`Partition`] from each run, and a caller that only reads the tiles can
/// walk the runs in place. Scratch beyond `triplets` is one triplet buffer
/// and `2^11` counters per radix pass (at most six passes per axis),
/// whatever the matrix's dimensions.
///
/// # Errors
///
/// Returns [`SparseError::InvalidBlockSize`] when `size == 0`, or
/// [`SparseError::IndexOutOfBounds`] for the first stray triplet in input
/// order.
pub fn tile_runs<T: Scalar>(
    nrows: usize,
    ncols: usize,
    triplets: &mut Vec<Triplet<T>>,
    size: usize,
) -> Result<impl Iterator<Item = (usize, usize, &[Triplet<T>])>, SparseError> {
    check_partition_size(size)?;
    // A stable sort by tile groups each tile's entries in input order,
    // tiles in row-major grid order, so the runs are walked nearly in
    // address order. A shift in place of a division at the paper's
    // power-of-two sizes: the sort maps every index once per pass.
    let (pow2, shift) = (size.is_power_of_two(), size.trailing_zeros());
    let tile = move |i: usize| if pow2 { i >> shift } else { i / size };
    sort_by_tile(triplets, (nrows, ncols), tile)?;
    Ok(triplets
        .chunk_by(move |a, b| (tile(a.row), tile(a.col)) == (tile(b.row), tile(b.col)))
        .map(move |run| (tile(run[0].row), tile(run[0].col), run)))
}

/// Checks a partition size: the tiling needs `size > 0`.
///
/// # Errors
///
/// Returns [`SparseError::InvalidBlockSize`] when `size == 0`.
pub fn check_partition_size(size: usize) -> Result<(), SparseError> {
    if size == 0 {
        return Err(SparseError::InvalidBlockSize {
            size: 0,
            requirement: "partition size must be positive",
        });
    }
    Ok(())
}

/// Bits of a tile index one counting pass of [`sort_by_tile`] sorts on.
const RADIX_BITS: u32 = 11;

/// Stably sorts `triplets` into row-major tile order and drops explicit
/// zeros, `tile` mapping a matrix index to its tile index: an LSD radix
/// sort on the tile column, then the tile row, [`RADIX_BITS`] per pass,
/// with as many passes as the grid's last tile column and row need (at
/// most six per axis). One read pass checks every triplet against `shape`,
/// in input order, and counts the digits of every pass; a pass that leaves
/// every entry in one bucket is then skipped, and the first pass that
/// moves entries drops the zeros on the way. Scratch is one triplet buffer
/// plus `2^RADIX_BITS` counters per pass, whatever the matrix's
/// dimensions.
///
/// # Errors
///
/// [`SparseError::IndexOutOfBounds`] for the first stray triplet, with
/// `triplets` untouched.
fn sort_by_tile<T: Scalar>(
    triplets: &mut Vec<Triplet<T>>,
    (nrows, ncols): (usize, usize),
    tile: impl Fn(usize) -> usize,
) -> Result<(), SparseError> {
    const BUCKETS: usize = 1 << RADIX_BITS;
    let passes =
        |n: usize| (usize::BITS - tile(n.saturating_sub(1)).leading_zeros()).div_ceil(RADIX_BITS);
    let digits: Vec<(bool, u32)> = (0..passes(ncols))
        .map(|pass| (false, pass * RADIX_BITS))
        .chain((0..passes(nrows)).map(|pass| (true, pass * RADIX_BITS)))
        .collect();
    let digit = |t: &Triplet<T>, (by_row, shift): (bool, u32)| {
        (tile(if by_row { t.row } else { t.col }) >> shift) & (BUCKETS - 1)
    };
    let mut counts = vec![0usize; digits.len() * BUCKETS];
    let (mut kept, mut zeros) = (0, false);
    for t in triplets.iter() {
        if t.row >= nrows || t.col >= ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: (t.row, t.col),
                shape: (nrows, ncols),
            });
        }
        if t.val.is_zero() {
            zeros = true;
            continue;
        }
        kept += 1;
        for (offsets, &d) in counts.chunks_exact_mut(BUCKETS).zip(&digits) {
            offsets[digit(t, d)] += 1;
        }
    }
    let mut buf = Vec::new();
    for (offsets, &d) in counts.chunks_exact_mut(BUCKETS).zip(&digits) {
        if offsets.contains(&kept) {
            continue;
        }
        let mut start = 0;
        for slot in offsets.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        if buf.len() != kept {
            buf.clear();
            buf.resize(kept, triplets[0]);
        }
        for t in triplets.iter().filter(|t| !zeros || !t.val.is_zero()) {
            let slot = &mut offsets[digit(t, d)];
            buf[*slot] = *t;
            *slot += 1;
        }
        std::mem::swap(triplets, &mut buf);
        zeros = false;
    }
    if zeros {
        triplets.retain(|t| !t.val.is_zero());
    }
    Ok(())
}

/// The per-partition density and locality statistics of Fig. 3.
///
/// All three are averages over the **non-zero** partitions only, expressed
/// as percentages exactly as the figure plots them:
/// (a) non-zero values in partitions, (b) non-zero values in non-zero rows,
/// (c) non-zero rows in partitions.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartitionStats {
    /// Fig. 3a — mean `nnz / p²` over non-zero partitions, in percent.
    pub partition_density_pct: f64,
    /// Fig. 3b — mean row population `/ p` over the non-zero rows of
    /// non-zero partitions, in percent.
    pub row_density_pct: f64,
    /// Fig. 3c — mean share of non-zero rows per non-zero partition, in
    /// percent.
    pub nonzero_row_share_pct: f64,
    /// Number of non-zero partitions the averages run over.
    pub nonzero_partitions: usize,
    /// Share of grid tiles that are non-zero (spatial-locality indicator).
    pub nonzero_tile_share: f64,
}

impl PartitionStats {
    /// Measures the statistics of a tiled matrix.
    pub fn measure<T: Scalar>(grid: &PartitionGrid<T>) -> Self {
        let p = grid.size() as f64;
        let n = grid.nonzero_tiles();
        if n == 0 {
            return PartitionStats {
                partition_density_pct: 0.0,
                row_density_pct: 0.0,
                nonzero_row_share_pct: 0.0,
                nonzero_partitions: 0,
                nonzero_tile_share: 0.0,
            };
        }
        let mut density_sum = 0.0;
        let mut row_share_sum = 0.0;
        let mut row_density_sum = 0.0;
        let mut row_density_count = 0usize;
        for part in grid.partitions() {
            density_sum += part.nnz() as f64 / (p * p);
            row_share_sum += part.nonzero_rows() as f64 / p;
            for count in part.coo.row_counts() {
                if count > 0 {
                    row_density_sum += count as f64 / p;
                    row_density_count += 1;
                }
            }
        }
        PartitionStats {
            partition_density_pct: 100.0 * density_sum / n as f64,
            row_density_pct: if row_density_count == 0 {
                0.0
            } else {
                100.0 * row_density_sum / row_density_count as f64
            },
            nonzero_row_share_pct: 100.0 * row_share_sum / n as f64,
            nonzero_partitions: n,
            nonzero_tile_share: n as f64 / grid.total_tiles() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        // 8x8, entries in tiles (0,0) and (1,1) only.
        let mut coo = Coo::new(8, 8);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 2, 2.0).unwrap();
        coo.push(5, 5, 3.0).unwrap();
        coo.push(5, 6, 4.0).unwrap();
        coo.push(7, 4, 5.0).unwrap();
        coo
    }

    #[test]
    fn grid_drops_zero_tiles() {
        let grid = PartitionGrid::new(&sample(), 4).unwrap();
        assert_eq!(grid.grid_shape(), (2, 2));
        assert_eq!(grid.total_tiles(), 4);
        assert_eq!(grid.nonzero_tiles(), 2);
        let coords: Vec<_> = grid
            .partitions()
            .iter()
            .map(|p| (p.grid_row, p.grid_col))
            .collect();
        assert_eq!(coords, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn tiles_use_local_coordinates() {
        let grid = PartitionGrid::new(&sample(), 4).unwrap();
        let tile = &grid.partitions()[1]; // grid (1,1)
        assert_eq!(tile.coo.get(1, 1), 3.0); // matrix (5,5)
        assert_eq!(tile.coo.get(3, 0), 5.0); // matrix (7,4)
    }

    #[test]
    fn reassembly_is_lossless() {
        let coo = sample();
        for size in [1, 2, 3, 4, 5, 8, 16] {
            let grid = PartitionGrid::new(&coo, size).unwrap();
            assert!(
                coo.to_dense().structurally_eq(&grid.reassemble()),
                "size {size}"
            );
            assert_eq!(grid.nnz(), coo.nnz(), "size {size}");
        }
    }

    #[test]
    fn tiles_keep_their_entries_in_input_order() {
        // Duplicates sum in input order downstream, so tiling must not
        // reorder a tile's entries; zeros never reach a tile.
        let triplets = vec![
            Triplet::new(5, 5, 1.0f32),
            Triplet::new(0, 1, 2.0),
            Triplet::new(5, 4, 0.0),
            Triplet::new(0, 1, -2.0),
            Triplet::new(1, 0, 3.0),
            Triplet::new(6, 7, 0.0),
        ];
        let grid = PartitionGrid::from_triplets(8, 8, triplets, 4).unwrap();
        let tiles: Vec<Vec<(usize, usize, f32)>> = grid
            .partitions()
            .iter()
            .map(|p| p.coo.iter().map(|t| (t.row, t.col, t.val)).collect())
            .collect();
        assert_eq!(
            tiles,
            vec![
                vec![(0, 1, 2.0), (0, 1, -2.0), (1, 0, 3.0)],
                vec![(1, 1, 1.0)],
            ]
        );
        // The first stray triplet in input order is the one reported.
        let stray = vec![
            Triplet::new(0, 0, 1.0f32),
            Triplet::new(9, 0, 1.0),
            Triplet::new(0, 9, 1.0),
        ];
        assert!(matches!(
            PartitionGrid::from_triplets(8, 8, stray, 4),
            Err(SparseError::IndexOutOfBounds { index: (9, 0), .. })
        ));
    }

    #[test]
    fn tiling_memory_does_not_scale_with_the_matrix_dimensions() {
        // A counting sort sized by the grid's tile rows or columns (2^37
        // each here) would need a terabyte of counters.
        let n = 1usize << 40;
        let triplets = vec![
            Triplet::new(n - 1, 3, 1.0f32),
            Triplet::new(5, n - 2, 2.0),
            Triplet::new(6, 0, 3.0),
        ];
        let grid = PartitionGrid::from_triplets(n, n, triplets, 8).unwrap();
        let tiles: Vec<_> = grid
            .partitions()
            .iter()
            .map(|p| {
                let t = p.coo.iter().next().unwrap();
                (p.grid_row, p.grid_col, t.row, t.col, t.val)
            })
            .collect();
        assert_eq!(
            tiles,
            vec![
                (0, 0, 6, 0, 3.0),
                (0, (n - 2) / 8, 5, 6, 2.0),
                ((n - 1) / 8, 0, 7, 3, 1.0),
            ]
        );
    }

    #[test]
    fn edge_tiles_handle_non_multiple_shapes() {
        let mut coo = Coo::<f32>::new(5, 7);
        coo.push(4, 6, 1.0).unwrap();
        let grid = PartitionGrid::new(&coo, 4).unwrap();
        assert_eq!(grid.grid_shape(), (2, 2));
        assert_eq!(grid.nonzero_tiles(), 1);
        assert!(coo.to_dense().structurally_eq(&grid.reassemble()));
    }

    #[test]
    fn stats_on_known_layout() {
        // One 2x2 tile fully dense, the rest empty.
        let mut coo = Coo::<f32>::new(4, 4);
        for r in 0..2 {
            for c in 0..2 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let grid = PartitionGrid::new(&coo, 2).unwrap();
        let stats = grid.stats();
        assert_eq!(stats.nonzero_partitions, 1);
        assert_eq!(stats.partition_density_pct, 100.0);
        assert_eq!(stats.row_density_pct, 100.0);
        assert_eq!(stats.nonzero_row_share_pct, 100.0);
        assert_eq!(stats.nonzero_tile_share, 0.25);
    }

    #[test]
    fn stats_average_over_nonzero_partitions_only() {
        let grid = PartitionGrid::new(&sample(), 4).unwrap();
        let stats = grid.stats();
        // Tile (0,0): 2 entries / 16; tile (1,1): 3 / 16.
        let expect = 100.0 * ((2.0 / 16.0) + (3.0 / 16.0)) / 2.0;
        assert!((stats.partition_density_pct - expect).abs() < 1e-12);
        // Non-zero rows: tile (0,0) rows {0,1}; tile (1,1) rows {1,3}.
        assert!((stats.nonzero_row_share_pct - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_stats_are_zero() {
        let coo = Coo::<f32>::new(16, 16);
        let grid = PartitionGrid::new(&coo, 8).unwrap();
        let stats = grid.stats();
        assert_eq!(stats.nonzero_partitions, 0);
        assert_eq!(stats.partition_density_pct, 0.0);
    }

    #[test]
    fn zero_partition_size_rejected() {
        assert!(matches!(
            PartitionGrid::new(&sample(), 0),
            Err(SparseError::InvalidBlockSize { .. })
        ));
    }
}
