//! Row-major dense matrix — the baseline format of the characterization.

use crate::{check_spmv_operand, Coo, FormatKind, Matrix, Scalar, SparseError, Triplet};
use std::ops::{Index, IndexMut};

/// Row-major dense matrix.
///
/// In the paper this is the `σ = 1` baseline: every entry — zero or not —
/// is transferred and multiplied. It also serves as the ground truth that
/// every sparse format's decoder and SpMV are tested against.
///
/// ```
/// use sparsemat::{Dense, Matrix};
///
/// let mut m = Dense::<f32>::zeros(2, 3);
/// m[(0, 2)] = 5.0;
/// assert_eq!(m.nnz(), 1);
/// assert_eq!(m.get(0, 2), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Dense<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Dense<T> {
    /// Creates an all-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Dense {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// A view of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(
            i < self.nrows,
            "row {i} out of bounds ({} rows)",
            self.nrows
        );
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(
            i < self.nrows,
            "row {i} out of bounds ({} rows)",
            self.nrows
        );
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Rebuilds this matrix in place from `coo`, reusing the row-major
    /// buffer — exactly the matrix [`Dense::from`] builds (the same
    /// `+=` scatter in entry order), without allocating once the buffer
    /// capacity is warm.
    pub fn assign_from_coo(&mut self, coo: &Coo<T>) {
        self.nrows = coo.nrows();
        self.ncols = coo.ncols();
        self.data.clear();
        self.data.resize(self.nrows * self.ncols, T::ZERO);
        for t in coo.iter() {
            self.data[t.row * self.ncols + t.col] += t.val;
        }
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Dense<T> {
        let mut t = Dense::zeros(self.ncols, self.nrows);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Number of rows that contain at least one non-zero entry.
    pub fn nonzero_rows(&self) -> usize {
        (0..self.nrows)
            .filter(|&r| self.row(r).iter().any(|v| !v.is_zero()))
            .count()
    }

    /// Checks bit-exact equality of stored values with another matrix of any
    /// format (shape must match).
    pub fn structurally_eq<M: Matrix<T>>(&self, other: &M) -> bool {
        if self.nrows != other.nrows() || self.ncols != other.ncols() {
            return false;
        }
        (0..self.nrows).all(|r| (0..self.ncols).all(|c| self[(r, c)] == other.get(r, c)))
    }
}

impl<T: Scalar> Index<(usize, usize)> for Dense<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.nrows && c < self.ncols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        &self.data[r * self.ncols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Dense<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.nrows && c < self.ncols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        &mut self.data[r * self.ncols + c]
    }
}

impl<T: Scalar> Matrix<T> for Dense<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.data.iter().filter(|v| !v.is_zero()).count()
    }

    fn get(&self, row: usize, col: usize) -> T {
        self[(row, col)]
    }

    fn triplets(&self) -> Vec<Triplet<T>> {
        let mut out = Vec::new();
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                let v = self[(r, c)];
                if !v.is_zero() {
                    out.push(Triplet::new(r, c, v));
                }
            }
        }
        out
    }

    fn to_dense(&self) -> Dense<T> {
        self.clone()
    }

    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_spmv_operand(self, x)?;
        let mut y = vec![T::ZERO; self.nrows];
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.row(r).iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        Ok(y)
    }

    fn kind(&self) -> FormatKind {
        FormatKind::Dense
    }
}

impl<T: Scalar> From<&Coo<T>> for Dense<T> {
    fn from(coo: &Coo<T>) -> Self {
        let mut d = Dense::zeros(coo.nrows(), coo.ncols());
        for t in coo.iter() {
            d[(t.row, t.col)] += t.val;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dense<f32> {
        // 0 2 0
        // 1 0 3
        let mut m = Dense::zeros(2, 3);
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 1.0;
        m[(1, 2)] = 3.0;
        m
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!((m.nrows(), m.ncols()), (2, 3));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.density(), 0.5);
    }

    #[test]
    fn spmv_rejects_wrong_operand_length() {
        let m = sample();
        assert!(matches!(
            m.spmv(&[1.0, 2.0]),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn spmv_matches_manual_computation() {
        let m = sample();
        let y = m.spmv(&[1.0, 10.0, 100.0]).unwrap();
        assert_eq!(y, vec![20.0, 301.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(1, 0), 2.0);
    }

    #[test]
    fn triplets_skip_zeros() {
        let m = sample();
        let ts = m.triplets();
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().all(|t| !t.val.is_zero()));
    }

    #[test]
    fn nonzero_rows_counts_rows_with_entries() {
        let mut m = Dense::<f32>::zeros(4, 4);
        assert_eq!(m.nonzero_rows(), 0);
        m[(1, 2)] = 1.0;
        m[(1, 3)] = 2.0;
        m[(3, 0)] = -1.0;
        assert_eq!(m.nonzero_rows(), 2);
    }

    #[test]
    fn row_views() {
        let mut m = sample();
        assert_eq!(m.row(1), &[1.0, 0.0, 3.0]);
        m.row_mut(0)[0] = 9.0;
        assert_eq!(m.get(0, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn structural_equality_across_formats() {
        let m = sample();
        let coo = m.to_coo();
        assert!(m.structurally_eq(&coo));
    }
}
