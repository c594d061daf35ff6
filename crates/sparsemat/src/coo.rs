//! Coordinate (COO) format — triplet list and conversion hub.

use crate::triplet::sort_row_major;
use crate::{check_spmv_operand, FormatKind, Matrix, Scalar, SparseError, Triplet};

/// Coordinate-format sparse matrix: a list of `(row, col, value)` tuples.
///
/// §2 of the paper: "The COO sparse format simply stores a series of tuples,
/// including the row index, column index, and value for each of the non-zero
/// entries." Copernicus finds COO to be the most *balanced* format on diverse
/// workloads (its bandwidth utilization is pinned at 1/3 because two indices
/// accompany every value).
///
/// `Coo` is also this crate's conversion hub: every other format implements
/// `From<&Coo<T>>` and [`Matrix::to_coo`], so any pair of formats converts
/// through it losslessly.
///
/// Duplicate coordinates are permitted in a freshly built list (they add up
/// in SpMV and densification, matching scipy semantics) and are merged by
/// [`Coo::compress`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Coo<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<Triplet<T>>,
}

impl<T: Scalar> Coo<T> {
    /// Creates an empty COO matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Builds a COO matrix directly from a triplet list.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any triplet lies outside
    /// the shape.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: Vec<Triplet<T>>,
    ) -> Result<Self, SparseError> {
        for t in &triplets {
            if t.row >= nrows || t.col >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    index: (t.row, t.col),
                    shape: (nrows, ncols),
                });
            }
        }
        Ok(Coo {
            nrows,
            ncols,
            entries: triplets,
        })
    }

    /// Appends one entry.
    ///
    /// Zero values are silently dropped — they are not "non-zero entries"
    /// and no format in the paper stores them.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `(row, col)` is outside
    /// the shape.
    pub fn push(&mut self, row: usize, col: usize, val: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.nrows, self.ncols),
            });
        }
        if !val.is_zero() {
            self.entries.push(Triplet::new(row, col, val));
        }
        Ok(())
    }

    /// Iterates over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Triplet<T>> + Clone {
        self.entries.iter()
    }

    /// Replaces this matrix's shape and entries with a copy of `other`,
    /// reusing the entry buffer — the allocation-free counterpart of
    /// `clone_from` for warm scratch pools.
    pub fn assign_from(&mut self, other: &Coo<T>) {
        self.nrows = other.nrows;
        self.ncols = other.ncols;
        self.entries.clear();
        self.entries.extend_from_slice(&other.entries);
    }

    /// Sorts entries row-major and merges duplicate coordinates by summation,
    /// dropping entries that cancel to zero.
    ///
    /// The merge is a two-pointer compaction of the sorted buffer, so apart
    /// from the sort's own workspace no allocation happens.
    pub fn compress(&mut self) {
        sort_row_major(&mut self.entries);
        let mut kept = 0usize;
        for i in 0..self.entries.len() {
            let t = self.entries[i];
            match self.entries[..kept].last_mut() {
                Some(last) if last.row == t.row && last.col == t.col => last.val += t.val,
                _ => {
                    self.entries[kept] = t;
                    kept += 1;
                }
            }
        }
        self.entries.truncate(kept);
        self.entries.retain(|t| !t.val.is_zero());
    }

    /// Whether the entries are sorted row-major with no duplicate
    /// coordinates (the postcondition of [`Coo::compress`]).
    pub fn is_compressed(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col))
    }

    /// The transpose as a new COO matrix.
    pub fn transpose(&self) -> Coo<T> {
        Coo {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self.entries.iter().map(|t| t.transposed()).collect(),
        }
    }

    /// Number of rows containing at least one entry.
    pub fn nonzero_rows(&self) -> usize {
        let mut seen = vec![false; self.nrows];
        for t in &self.entries {
            seen[t.row] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// Per-row entry counts (length `nrows`).
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for t in &self.entries {
            counts[t.row] += 1;
        }
        counts
    }

    /// The set of occupied diagonals as `col - row` offsets, ascending.
    pub fn diagonal_offsets(&self) -> Vec<isize> {
        let mut offs: Vec<isize> = self
            .entries
            .iter()
            .map(|t| t.col as isize - t.row as isize)
            .collect();
        offs.sort_unstable();
        offs.dedup();
        offs
    }
}

impl<T: Scalar> Matrix<T> for Coo<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, row: usize, col: usize) -> T {
        assert!(
            row < self.nrows && col < self.ncols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries
            .iter()
            .filter(|t| t.row == row && t.col == col)
            .map(|t| t.val)
            .sum()
    }

    fn triplets(&self) -> Vec<Triplet<T>> {
        self.entries.clone()
    }

    fn to_coo(&self) -> Coo<T> {
        self.clone()
    }

    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_spmv_operand(self, x)?;
        let mut y = vec![T::ZERO; self.nrows];
        for t in &self.entries {
            y[t.row] += t.val * x[t.col];
        }
        Ok(y)
    }

    fn kind(&self) -> FormatKind {
        FormatKind::Coo
    }
}

impl<T: Scalar> FromIterator<Triplet<T>> for Coo<T> {
    /// Collects triplets into a COO matrix shaped to the maximal coordinates.
    fn from_iter<I: IntoIterator<Item = Triplet<T>>>(iter: I) -> Self {
        let entries: Vec<Triplet<T>> = iter.into_iter().filter(|t| !t.val.is_zero()).collect();
        let nrows = entries.iter().map(|t| t.row + 1).max().unwrap_or(0);
        let ncols = entries.iter().map(|t| t.col + 1).max().unwrap_or(0);
        Coo {
            nrows,
            ncols,
            entries,
        }
    }
}

impl<T: Scalar> Extend<Triplet<T>> for Coo<T> {
    /// Appends triplets, panicking on out-of-bounds coordinates.
    fn extend<I: IntoIterator<Item = Triplet<T>>>(&mut self, iter: I) {
        for t in iter {
            self.push(t.row, t.col, t.val)
                .expect("extend received an out-of-bounds triplet");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0).unwrap();
        c.push(2, 1, 2.0).unwrap();
        c.push(1, 2, 3.0).unwrap();
        c
    }

    #[test]
    fn push_and_get() {
        let c = sample();
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.get(2, 1), 2.0);
        assert_eq!(c.get(0, 1), 0.0);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut c = Coo::<f32>::new(2, 2);
        assert!(matches!(
            c.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn push_drops_explicit_zero() {
        let mut c = Coo::<f32>::new(2, 2);
        c.push(0, 0, 0.0).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn duplicates_sum_in_get_and_spmv() {
        let mut c = Coo::<f32>::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(0, 0, 2.0).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.spmv(&[1.0, 0.0]).unwrap(), vec![3.0, 0.0]);
    }

    #[test]
    fn compress_merges_and_sorts() {
        let mut c = Coo::<f32>::new(2, 2);
        c.push(1, 1, 1.0).unwrap();
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, 2.0).unwrap();
        assert!(!c.is_compressed());
        c.compress();
        assert!(c.is_compressed());
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(1, 1), 3.0);
    }

    #[test]
    fn compress_drops_cancelled_entries() {
        let mut c = Coo::<f32>::new(2, 2);
        c.push(0, 1, 5.0).unwrap();
        c.push(0, 1, -5.0).unwrap();
        c.compress();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn transpose_round_trip() {
        let c = sample();
        let tt = c.transpose().transpose();
        assert!(c.to_dense().structurally_eq(&tt));
    }

    #[test]
    fn spmv_matches_dense() {
        let c = sample();
        let x = [1.0, 2.0, 4.0];
        assert_eq!(c.spmv(&x).unwrap(), c.to_dense().spmv(&x).unwrap());
    }

    #[test]
    fn row_counts() {
        let c = sample();
        assert_eq!(c.row_counts(), vec![1, 1, 1]);
        assert_eq!(c.nonzero_rows(), 3);
    }

    #[test]
    fn diagonal_offsets_are_sorted_unique() {
        let c = sample();
        // entries: (0,0)->0, (2,1)->-1, (1,2)->+1
        assert_eq!(c.diagonal_offsets(), vec![-1, 0, 1]);
    }

    #[test]
    fn from_iterator_infers_shape() {
        let c: Coo<f32> = vec![Triplet::new(1, 4, 2.0), Triplet::new(3, 0, 1.0)]
            .into_iter()
            .collect();
        assert_eq!((c.nrows(), c.ncols()), (4, 5));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn from_triplets_validates_bounds() {
        let bad = Coo::from_triplets(2, 2, vec![Triplet::new(5, 0, 1.0f32)]);
        assert!(bad.is_err());
    }
}
