//! Linear-algebra operations shared by the example applications
//! (element-wise combination, scaling, sparse matrix–matrix product, vector
//! helpers for the iterative examples).

use crate::{Coo, Csr, Matrix, Scalar, SparseError, Triplet};

/// `A + B` as a new COO matrix.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] when shapes differ.
pub fn add<T: Scalar, A: Matrix<T>, B: Matrix<T>>(a: &A, b: &B) -> Result<Coo<T>, SparseError> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), a.ncols()),
            found: (b.nrows(), b.ncols()),
        });
    }
    let mut out = Coo::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    out.extend(a.triplets());
    out.extend(b.triplets());
    out.compress();
    Ok(out)
}

/// `A - B` as a new COO matrix.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] when shapes differ.
pub fn sub<T: Scalar, A: Matrix<T>, B: Matrix<T>>(a: &A, b: &B) -> Result<Coo<T>, SparseError> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), a.ncols()),
            found: (b.nrows(), b.ncols()),
        });
    }
    let mut out = Coo::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    out.extend(a.triplets());
    out.extend(
        b.triplets()
            .into_iter()
            .map(|t| Triplet { val: -t.val, ..t }),
    );
    out.compress();
    Ok(out)
}

/// `k · A` as a new COO matrix (entries that scale to exact zero are
/// dropped).
pub fn scale<T: Scalar, A: Matrix<T>>(a: &A, k: T) -> Coo<T> {
    let mut out = Coo::with_capacity(a.nrows(), a.ncols(), a.nnz());
    out.extend(a.triplets().into_iter().map(|t| Triplet {
        val: t.val * k,
        ..t
    }));
    out
}

/// Sparse matrix–matrix product `A · B` in CSR (the kernel behind the
/// machine-learning workloads of §3.3: "convolving a 3D input with a given
/// number of filters can be represented as an equivalent matrix-matrix
/// multiplication").
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] when `a.ncols() != b.nrows()`.
pub fn spmm<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.ncols(), b.nrows()),
            found: (b.nrows(), b.ncols()),
        });
    }
    // Gustavson's row-by-row algorithm with a dense accumulator per row.
    let mut out = Coo::new(a.nrows(), b.ncols());
    let mut acc = vec![T::ZERO; b.ncols()];
    let mut touched: Vec<usize> = Vec::new();
    for r in 0..a.nrows() {
        for (k, av) in a.row_entries(r) {
            for (c, bv) in b.row_entries(k) {
                if acc[c].is_zero() && !(av * bv).is_zero() {
                    touched.push(c);
                }
                acc[c] += av * bv;
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            out.push(r, c, acc[c]).expect("in bounds");
            acc[c] = T::ZERO;
        }
        touched.clear();
    }
    Ok(Csr::from(&out))
}

/// Kronecker product `A ⊗ B` as a new COO matrix — the construction behind
/// the paper's kron_g500 workload (a Kronecker power of a small seed
/// graph).
pub fn kron<T: Scalar, A: Matrix<T>, B: Matrix<T>>(a: &A, b: &B) -> Coo<T> {
    let (bn, bm) = (b.nrows(), b.ncols());
    let mut out = Coo::with_capacity(a.nrows() * bn, a.ncols() * bm, a.nnz() * b.nnz());
    let b_triplets = b.triplets();
    for ta in a.triplets() {
        for tb in &b_triplets {
            out.push(ta.row * bn + tb.row, ta.col * bm + tb.col, ta.val * tb.val)
                .expect("in bounds by construction");
        }
    }
    out
}

/// The main diagonal of a matrix as a dense vector of length
/// `min(nrows, ncols)` — handy for Jacobi-style preconditioning.
pub fn diagonal<T: Scalar, A: Matrix<T>>(a: &A) -> Vec<T> {
    (0..a.nrows().min(a.ncols())).map(|i| a.get(i, i)).collect()
}

/// The submatrix covering `rows` × `cols` (half-open ranges) as a new COO
/// matrix with rebased coordinates.
///
/// # Errors
///
/// Returns [`SparseError::IndexOutOfBounds`] when a range end exceeds the
/// matrix shape.
pub fn submatrix<T: Scalar, A: Matrix<T>>(
    a: &A,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> Result<Coo<T>, SparseError> {
    if rows.end > a.nrows() || cols.end > a.ncols() {
        return Err(SparseError::IndexOutOfBounds {
            index: (rows.end.saturating_sub(1), cols.end.saturating_sub(1)),
            shape: (a.nrows(), a.ncols()),
        });
    }
    let mut out = Coo::new(rows.len(), cols.len());
    for t in a.triplets() {
        if rows.contains(&t.row) && cols.contains(&t.col) {
            out.push(t.row - rows.start, t.col - cols.start, t.val)?;
        }
    }
    Ok(out)
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `y ← y + k·x` (axpy).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn axpy<T: Scalar>(k: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += k * xi;
    }
}

/// Euclidean norm of a vector, computed in `f64`.
pub fn norm2<T: Scalar>(v: &[T]) -> f64 {
    v.iter()
        .map(|&x| x.to_f64() * x.to_f64())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Coo<f32> {
        let mut m = Coo::new(2, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 1, 2.0).unwrap();
        m
    }

    fn b() -> Coo<f32> {
        let mut m = Coo::new(2, 2);
        m.push(0, 0, 3.0).unwrap();
        m.push(0, 1, 4.0).unwrap();
        m
    }

    #[test]
    fn add_and_sub() {
        let s = add(&a(), &b()).unwrap();
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(0, 1), 4.0);
        assert_eq!(s.get(1, 1), 2.0);

        let d = sub(&a(), &b()).unwrap();
        assert_eq!(d.get(0, 0), -2.0);
        assert_eq!(d.get(0, 1), -4.0);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let wide = Coo::<f32>::new(2, 3);
        assert!(add(&a(), &wide).is_err());
        assert!(sub(&a(), &wide).is_err());
    }

    #[test]
    fn sub_of_self_is_empty() {
        let d = sub(&a(), &a()).unwrap();
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn scale_drops_zeroed_entries() {
        let z = scale(&a(), 0.0);
        assert_eq!(z.nnz(), 0);
        let doubled = scale(&a(), 2.0);
        assert_eq!(doubled.get(1, 1), 4.0);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let ac = Csr::from(&a());
        let bc = Csr::from(&b());
        let p = spmm(&ac, &bc).unwrap();
        // Dense check.
        let ad = a().to_dense();
        let bd = b().to_dense();
        for r in 0..2 {
            for c in 0..2 {
                let want: f32 = (0..2).map(|k| ad[(r, k)] * bd[(k, c)]).sum();
                assert_eq!(p.get(r, c), want, "({r},{c})");
            }
        }
    }

    #[test]
    fn spmm_identity_is_noop() {
        let id = Csr::from(&crate::Dense::<f32>::identity(2).to_coo());
        let ac = Csr::from(&a());
        assert_eq!(spmm(&ac, &id).unwrap(), ac);
        assert_eq!(spmm(&id, &ac).unwrap(), ac);
    }

    #[test]
    fn spmm_rejects_inner_dim_mismatch() {
        let ac = Csr::from(&a());
        let wide = Csr::from(&Coo::<f32>::new(3, 2));
        assert!(spmm(&ac, &wide).is_err());
    }

    #[test]
    fn kron_matches_dense_definition() {
        let x = a(); // diag(1, 2)
        let y = b(); // [[3, 4], [0, 0]]
        let k = kron(&x, &y);
        assert_eq!((k.nrows(), k.ncols()), (4, 4));
        let kd = k.to_dense();
        let (xd, yd) = (x.to_dense(), y.to_dense());
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(
                    kd[(r, c)],
                    xd[(r / 2, c / 2)] * yd[(r % 2, c % 2)],
                    "({r},{c})"
                );
            }
        }
        assert_eq!(k.nnz(), x.nnz() * y.nnz());
    }

    #[test]
    fn kron_power_grows_like_kron_g500() {
        // Squaring a 2x2 seed doubles the log-size, exactly how kron_g500
        // builds its scale-21 graph.
        let seed = b();
        let squared = kron(&seed, &seed);
        assert_eq!(squared.nrows(), 4);
        assert_eq!(squared.nnz(), seed.nnz() * seed.nnz());
        let cubed = kron(&squared, &seed);
        assert_eq!(cubed.nrows(), 8);
        assert_eq!(cubed.nnz(), seed.nnz().pow(3));
    }

    #[test]
    fn diagonal_extraction() {
        let d = diagonal(&a());
        assert_eq!(d, vec![1.0, 2.0]);
        // Rectangular: diagonal length = min dimension.
        let wide = Coo::<f32>::new(2, 5);
        assert_eq!(diagonal(&wide).len(), 2);
    }

    #[test]
    fn submatrix_rebases_coordinates() {
        let mut m = Coo::<f32>::new(4, 4);
        m.push(1, 1, 5.0).unwrap();
        m.push(2, 3, 7.0).unwrap();
        m.push(0, 0, 9.0).unwrap();
        let sub = submatrix(&m, 1..3, 1..4).unwrap();
        assert_eq!((sub.nrows(), sub.ncols()), (2, 3));
        assert_eq!(sub.get(0, 0), 5.0);
        assert_eq!(sub.get(1, 2), 7.0);
        assert_eq!(sub.nnz(), 2);
    }

    #[test]
    fn submatrix_validates_ranges() {
        let m = Coo::<f32>::new(3, 3);
        assert!(submatrix(&m, 0..4, 0..2).is_err());
        assert!(submatrix(&m, 0..2, 0..5).is_err());
        assert!(submatrix(&m, 0..0, 0..0).is_ok());
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0f32, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = vec![1.0f32, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        assert!((norm2(&[3.0f32, 4.0]) - 5.0).abs() < 1e-12);
    }
}
