//! Compressed sparse column (CSC) format.

use crate::triplet::sort_col_major;
use crate::{check_spmv_operand, Coo, FormatKind, Matrix, Scalar, SparseError, Triplet};

/// Compressed sparse column matrix.
///
/// CSC follows the same rule as CSR (§2) with rows and columns swapped:
/// `values` stores entries column by column, `indices` holds their row
/// indices, `offsets` delimits columns.
///
/// Copernicus includes CSC as the deliberate worst case for its row-oriented
/// SpMV hardware (§5.2, Listing 3): "the decompression mechanism must
/// iteratively traverse all the columns of the matrix to find the values
/// corresponding to the current row", which the paper measures at up to
/// 21–30× the dense baseline's computation latency.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Csc<T> {
    nrows: usize,
    ncols: usize,
    offsets: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> Csc<T> {
    /// Creates an empty CSC matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Csc {
            nrows,
            ncols,
            offsets: vec![0; ncols + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSC matrix from its three raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] under the same conditions as
    /// [`Csr::from_raw_parts`](crate::Csr::from_raw_parts), with rows and
    /// columns exchanged.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        offsets: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if offsets.len() != ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "offsets length {} != ncols + 1 = {}",
                offsets.len(),
                ncols + 1
            )));
        }
        if offsets.first() != Some(&0) {
            return Err(SparseError::InvalidStructure(
                "offsets must start at 0".into(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidStructure(
                "offsets must be non-decreasing".into(),
            ));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        if *offsets.last().expect("offsets non-empty") != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "last offset {} != number of entries {}",
                offsets.last().unwrap(),
                values.len()
            )));
        }
        for c in 0..ncols {
            let col = &indices[offsets[c]..offsets[c + 1]];
            if col.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SparseError::InvalidStructure(format!(
                    "row indices in column {c} are not strictly increasing"
                )));
            }
            if let Some(&r) = col.last() {
                if r >= nrows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row index {r} out of range in column {c} (nrows = {nrows})"
                    )));
                }
            }
        }
        Ok(Csc {
            nrows,
            ncols,
            offsets,
            indices,
            values,
        })
    }

    /// The column-pointer array (`ncols + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The row-index array, column by column.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The stored values, column by column.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterates over `(row, value)` pairs of column `c` in ascending row
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()`.
    pub fn col_entries(&self, c: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        assert!(c < self.ncols, "column {c} out of bounds");
        let range = self.offsets[c]..self.offsets[c + 1];
        self.indices[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&r, &v)| (r, v))
    }

    /// Rebuilds this matrix in place from `coo`, reusing every buffer
    /// (including the caller's triplet scratch), producing exactly the
    /// matrix [`Csc::from`] builds.
    ///
    /// Duplicate-free, zero-free inputs rebuild without allocating once
    /// capacities are warm; inputs that need duplicate merging fall back to
    /// the allocating conversion so the merge's float summation order is
    /// untouched.
    pub fn assign_from_coo(&mut self, coo: &Coo<T>, tmp: &mut Vec<Triplet<T>>) {
        tmp.clear();
        tmp.extend(coo.iter().copied());
        // Unique (col, row) keys make the unstable sort deterministic and
        // equal to the stable sort the fallback uses.
        tmp.sort_unstable_by_key(|t| (t.col, t.row));
        let clean = tmp
            .windows(2)
            .all(|w| (w[0].col, w[0].row) < (w[1].col, w[1].row))
            && tmp.iter().all(|t| !t.val.is_zero());
        if !clean {
            *self = Csc::from(coo);
            return;
        }
        self.nrows = coo.nrows();
        self.ncols = coo.ncols();
        self.offsets.clear();
        self.offsets.resize(self.ncols + 1, 0);
        for t in tmp.iter() {
            self.offsets[t.col + 1] += 1;
        }
        for i in 0..self.ncols {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.indices.clear();
        self.indices.extend(tmp.iter().map(|t| t.row));
        self.values.clear();
        self.values.extend(tmp.iter().map(|t| t.val));
    }
}

impl<T: Scalar> Matrix<T> for Csc<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.values.len()
    }

    fn get(&self, row: usize, col: usize) -> T {
        assert!(
            row < self.nrows && col < self.ncols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        let range = self.offsets[col]..self.offsets[col + 1];
        match self.indices[range.clone()].binary_search(&row) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => T::ZERO,
        }
    }

    fn triplets(&self) -> Vec<Triplet<T>> {
        let mut out = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols {
            for (r, v) in self.col_entries(c) {
                out.push(Triplet::new(r, c, v));
            }
        }
        out
    }

    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_spmv_operand(self, x)?;
        // Column scatter: y += A[:, c] * x[c], the natural CSC traversal.
        let mut y = vec![T::ZERO; self.nrows];
        for (c, &xc) in x.iter().enumerate() {
            if xc.is_zero() {
                continue;
            }
            for (r, v) in self.col_entries(c) {
                y[r] += v * xc;
            }
        }
        Ok(y)
    }

    fn kind(&self) -> FormatKind {
        FormatKind::Csc
    }
}

impl<T: Scalar> From<&Coo<T>> for Csc<T> {
    fn from(coo: &Coo<T>) -> Self {
        let mut ts = coo.triplets();
        sort_col_major(&mut ts);
        let mut merged: Vec<Triplet<T>> = Vec::with_capacity(ts.len());
        for t in ts {
            match merged.last_mut() {
                Some(last) if last.row == t.row && last.col == t.col => last.val += t.val,
                _ => merged.push(t),
            }
        }
        merged.retain(|t| !t.val.is_zero());

        let mut offsets = vec![0usize; coo.ncols() + 1];
        for t in &merged {
            offsets[t.col + 1] += 1;
        }
        for i in 0..coo.ncols() {
            offsets[i + 1] += offsets[i];
        }
        let indices = merged.iter().map(|t| t.row).collect();
        let values = merged.iter().map(|t| t.val).collect();
        Csc {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            offsets,
            indices,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    fn sample() -> Csc<f32> {
        // 1 0 2
        // 0 0 0
        // 0 3 0
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(2, 1, 3.0).unwrap();
        Csc::from(&coo)
    }

    #[test]
    fn structure_is_column_oriented() {
        let m = sample();
        assert_eq!(m.offsets(), &[0, 1, 2, 3]);
        assert_eq!(m.indices(), &[0, 2, 0]);
        assert_eq!(m.values(), &[1.0, 3.0, 2.0]);
    }

    #[test]
    fn get_hits_and_misses() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 1), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.spmv(&x).unwrap(), m.to_dense().spmv(&x).unwrap());
    }

    #[test]
    fn csc_equals_transposed_csr_of_transpose() {
        let m = sample();
        let csr = Csr::from(&m.to_coo());
        // Same entry set in both formats.
        let mut a = m.triplets();
        let mut b = csr.triplets();
        crate::triplet::sort_row_major(&mut a);
        crate::triplet::sort_row_major(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(
            Csc::<f32>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok()
        );
        assert!(Csc::<f32>::from_raw_parts(2, 2, vec![0, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(
            Csc::<f32>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 9], vec![1.0, 2.0]).is_err()
        );
        assert!(
            Csc::<f32>::from_raw_parts(1, 2, vec![1, 1, 2], vec![0, 0], vec![1.0, 2.0]).is_err()
        );
    }

    #[test]
    fn spmv_skips_zero_operand_entries() {
        let m = sample();
        // x[2] = 0 means column 2's scatter is skipped; result must still be
        // exact.
        let x = [1.0, 1.0, 0.0];
        assert_eq!(m.spmv(&x).unwrap(), m.to_dense().spmv(&x).unwrap());
    }

    #[test]
    fn round_trip_via_coo() {
        let m = sample();
        assert_eq!(Csc::from(&m.to_coo()), m);
    }
}
