//! List-of-lists (LIL) format.

use crate::{check_spmv_operand, Coo, FormatKind, Matrix, Scalar, SparseError, Triplet};

/// List-of-lists sparse matrix.
///
/// §2 of the paper: "The LIL sparse format stores one list of non-zero
/// elements per row/column. Each element in the lists stores the
/// column/row indices of that row/column, and their value." Copernicus
/// compresses along columns — "LIL, which pushes all the non-zero entries
/// to top and saves the row indices" (Fig. 1f) — so this type keeps one
/// list per column holding `(row, value)` pairs. That lets the hardware
/// read one element of every column in parallel and reconstruct non-zero
/// rows with a min-scan over the per-column cursors (§5.2, Listing 4).
///
/// Lists are kept sorted by row, so the min-scan semantics of the paper's
/// decompressor apply directly.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Lil<T> {
    nrows: usize,
    ncols: usize,
    /// `lists[col]` holds `(row, value)` sorted by `row`.
    lists: Vec<Vec<(usize, T)>>,
}

impl<T: Scalar> Lil<T> {
    /// Creates an empty LIL matrix with one (empty) list per column.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Lil {
            nrows,
            ncols,
            lists: vec![Vec::new(); ncols],
        }
    }

    /// Builds the column lists from COO.
    pub fn from_coo_columns(coo: &Coo<T>) -> Self {
        let mut lil = Lil::new(coo.nrows(), coo.ncols());
        for t in coo.iter() {
            lil.insert(t.row, t.col, t.val)
                .expect("COO entry in bounds");
        }
        lil
    }

    /// Rebuilds this matrix's column lists in place from `coo`,
    /// reusing the per-line lists (and the caller's triplet scratch) —
    /// exactly the matrix [`Lil::from_coo_columns`] builds.
    ///
    /// Duplicate-free, zero-free inputs rebuild without allocating once
    /// capacities are warm; anything else falls back to the allocating
    /// conversion so the insert-merge float summation order is untouched.
    pub fn assign_from_coo_columns(&mut self, coo: &Coo<T>, tmp: &mut Vec<Triplet<T>>) {
        tmp.clear();
        tmp.extend(coo.iter().copied());
        tmp.sort_unstable_by_key(|t| (t.col, t.row));
        let clean = tmp
            .windows(2)
            .all(|w| (w[0].col, w[0].row) < (w[1].col, w[1].row))
            && tmp.iter().all(|t| !t.val.is_zero());
        if !clean {
            *self = Lil::from_coo_columns(coo);
            return;
        }
        self.nrows = coo.nrows();
        self.ncols = coo.ncols();
        for list in &mut self.lists {
            list.clear();
        }
        self.lists.resize_with(self.ncols, Vec::new);
        // Sorted by (col, row): each column's rows arrive ascending, so a
        // plain push reproduces the binary-search inserts of the fallback.
        for t in tmp.iter() {
            self.lists[t.col].push((t.row, t.val));
        }
    }

    /// Inserts or accumulates a value; entries that cancel to zero are
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if the coordinate lies
    /// outside the shape.
    pub fn insert(&mut self, row: usize, col: usize, val: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.nrows, self.ncols),
            });
        }
        let list = &mut self.lists[col];
        match list.binary_search_by_key(&row, |&(i, _)| i) {
            Ok(pos) => {
                list[pos].1 += val;
                if list[pos].1.is_zero() {
                    list.remove(pos);
                }
            }
            Err(pos) => {
                if !val.is_zero() {
                    list.insert(pos, (row, val));
                }
            }
        }
        Ok(())
    }

    /// Number of lines (one per column).
    pub fn num_lines(&self) -> usize {
        self.lists.len()
    }

    /// The `(row, value)` list of one column, sorted by row.
    ///
    /// # Panics
    ///
    /// Panics if `line >= num_lines()`.
    pub fn line(&self, line: usize) -> &[(usize, T)] {
        &self.lists[line]
    }

    /// Length of the longest line — the "longest column" that the paper
    /// says bounds LIL's memory transfer
    /// (each transferred LIL row covers one element of every column).
    pub fn max_line_len(&self) -> usize {
        self.lists.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of distinct row indices across the lists — the number of
    /// non-zero matrix rows, which §5.2 says determines the decompression
    /// latency.
    pub fn distinct_cross_indices(&self) -> usize {
        let mut seen = vec![false; self.nrows];
        for list in &self.lists {
            for &(i, _) in list {
                seen[i] = true;
            }
        }
        seen.iter().filter(|&&b| b).count()
    }
}

impl<T: Scalar> Matrix<T> for Lil<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    fn get(&self, row: usize, col: usize) -> T {
        assert!(
            row < self.nrows && col < self.ncols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        match self.lists[col].binary_search_by_key(&row, |&(i, _)| i) {
            Ok(pos) => self.lists[col][pos].1,
            Err(_) => T::ZERO,
        }
    }

    fn triplets(&self) -> Vec<Triplet<T>> {
        let mut out = Vec::with_capacity(self.nnz());
        for (col, list) in self.lists.iter().enumerate() {
            for &(row, val) in list {
                out.push(Triplet::new(row, col, val));
            }
        }
        crate::triplet::sort_row_major(&mut out);
        out
    }

    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_spmv_operand(self, x)?;
        let mut y = vec![T::ZERO; self.nrows];
        for (c, list) in self.lists.iter().enumerate() {
            let xc = x[c];
            if xc.is_zero() {
                continue;
            }
            for &(r, v) in list {
                y[r] += v * xc;
            }
        }
        Ok(y)
    }

    fn kind(&self) -> FormatKind {
        FormatKind::Lil
    }
}

impl<T: Scalar> From<&Coo<T>> for Lil<T> {
    /// Converts to column lists ([`Lil::from_coo_columns`]).
    fn from(coo: &Coo<T>) -> Self {
        Lil::from_coo_columns(coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        // 1 0 4
        // 0 0 0
        // 2 3 0
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(2, 0, 2.0).unwrap();
        coo.push(2, 1, 3.0).unwrap();
        coo.push(0, 2, 4.0).unwrap();
        coo
    }

    #[test]
    fn column_orientation_structure() {
        let m = Lil::from_coo_columns(&sample());
        assert_eq!(m.num_lines(), 3);
        assert_eq!(m.line(0), &[(0, 1.0), (2, 2.0)]);
        assert_eq!(m.line(1), &[(2, 3.0)]);
        assert_eq!(m.max_line_len(), 2);
        // Non-zero rows = {0, 2}.
        assert_eq!(m.distinct_cross_indices(), 2);
    }

    #[test]
    fn column_lists_agree_with_csr_on_content() {
        let coo = sample();
        let cols = Lil::from_coo_columns(&coo);
        assert_eq!(cols.triplets(), crate::Csr::from(&coo).triplets());
        assert!(coo.to_dense().structurally_eq(&cols));
    }

    #[test]
    fn spmv_matches_dense() {
        let coo = sample();
        let x = [1.0, 10.0, 100.0];
        let expect = coo.to_dense().spmv(&x).unwrap();
        assert_eq!(Lil::from_coo_columns(&coo).spmv(&x).unwrap(), expect);
    }

    #[test]
    fn insert_accumulates_and_cancels() {
        let mut m = Lil::<f32>::new(2, 2);
        m.insert(0, 0, 2.0).unwrap();
        m.insert(0, 0, 3.0).unwrap();
        assert_eq!(m.get(0, 0), 5.0);
        m.insert(0, 0, -5.0).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn insert_keeps_lists_sorted() {
        let mut m = Lil::<f32>::new(4, 1);
        m.insert(3, 0, 1.0).unwrap();
        m.insert(0, 0, 2.0).unwrap();
        m.insert(2, 0, 3.0).unwrap();
        let idxs: Vec<usize> = m.line(0).iter().map(|&(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 2, 3]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = Lil::<f32>::new(2, 2);
        assert!(m.insert(0, 5, 1.0).is_err());
        assert!(m.insert(5, 0, 1.0).is_err());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn coo_round_trip() {
        let coo = sample();
        let m = Lil::from(&coo);
        let back = Lil::from(&m.to_coo());
        assert_eq!(m, back);
    }
}
