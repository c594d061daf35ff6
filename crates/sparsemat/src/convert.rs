//! Format-erased matrices and the conversion graph.

use crate::{
    Bcsr, Coo, Csc, Csr, Dense, Dia, Ell, FormatKind, Lil, Matrix, Scalar, SparseError, Triplet,
};

/// A matrix in any of the supported formats, selected at run time.
///
/// The characterization harness sweeps `format × workload × partition size`;
/// `AnyMatrix` lets it hold each encoded partition uniformly while keeping
/// the concrete types available for format-specific statistics.
///
/// ```
/// use sparsemat::{AnyMatrix, Coo, FormatKind, Matrix};
/// # fn main() -> Result<(), sparsemat::SparseError> {
/// let mut coo = Coo::<f32>::new(4, 4);
/// coo.push(1, 2, 3.0)?;
/// let m = AnyMatrix::encode(&coo, FormatKind::Ell);
/// assert_eq!(m.kind(), FormatKind::Ell);
/// assert_eq!(m.get(1, 2), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum AnyMatrix<T> {
    Dense(Dense<T>),
    Csr(Csr<T>),
    Csc(Csc<T>),
    Bcsr(Bcsr<T>),
    Coo(Coo<T>),
    Lil(Lil<T>),
    Ell(Ell<T>),
    Dia(Dia<T>),
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyMatrix::Dense($m) => $body,
            AnyMatrix::Csr($m) => $body,
            AnyMatrix::Csc($m) => $body,
            AnyMatrix::Bcsr($m) => $body,
            AnyMatrix::Coo($m) => $body,
            AnyMatrix::Lil($m) => $body,
            AnyMatrix::Ell($m) => $body,
            AnyMatrix::Dia($m) => $body,
        }
    };
}

impl<T: Scalar> AnyMatrix<T> {
    /// Encodes a COO matrix into the requested format with the paper's
    /// defaults (4×4 BCSR blocks, natural ELL width, column-oriented LIL).
    pub fn encode(coo: &Coo<T>, kind: FormatKind) -> Self {
        match kind {
            FormatKind::Dense => AnyMatrix::Dense(Dense::from(coo)),
            FormatKind::Csr => AnyMatrix::Csr(Csr::from(coo)),
            FormatKind::Csc => AnyMatrix::Csc(Csc::from(coo)),
            FormatKind::Bcsr => AnyMatrix::Bcsr(Bcsr::from(coo)),
            FormatKind::Coo => AnyMatrix::Coo(coo.clone()),
            FormatKind::Lil => AnyMatrix::Lil(Lil::from(coo)),
            FormatKind::Ell => AnyMatrix::Ell(Ell::from(coo)),
            FormatKind::Dia => AnyMatrix::Dia(Dia::from(coo)),
        }
    }

    /// Re-encodes this matrix into another format (through COO).
    pub fn convert(&self, kind: FormatKind) -> Self {
        AnyMatrix::encode(&self.to_coo(), kind)
    }
}

impl<T: Scalar> Matrix<T> for AnyMatrix<T> {
    fn nrows(&self) -> usize {
        dispatch!(self, m => m.nrows())
    }

    fn ncols(&self) -> usize {
        dispatch!(self, m => m.ncols())
    }

    fn nnz(&self) -> usize {
        dispatch!(self, m => m.nnz())
    }

    fn get(&self, row: usize, col: usize) -> T {
        dispatch!(self, m => m.get(row, col))
    }

    fn triplets(&self) -> Vec<Triplet<T>> {
        dispatch!(self, m => m.triplets())
    }

    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        dispatch!(self, m => m.spmv(x))
    }

    fn kind(&self) -> FormatKind {
        dispatch!(self, m => m.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        let mut coo = Coo::new(6, 6);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 4, 2.0).unwrap();
        coo.push(3, 3, -3.0).unwrap();
        coo.push(5, 1, 4.0).unwrap();
        coo.push(5, 5, 5.0).unwrap();
        coo
    }

    #[test]
    fn every_format_encodes_and_round_trips() {
        let coo = sample();
        let dense = coo.to_dense();
        for kind in FormatKind::CHARACTERIZED {
            let m = AnyMatrix::encode(&coo, kind);
            assert_eq!(m.kind(), kind, "{kind}");
            assert_eq!(m.nnz(), coo.nnz(), "{kind}");
            assert!(dense.structurally_eq(&m), "{kind}");
        }
    }

    #[test]
    fn every_format_spmv_matches_dense() {
        let coo = sample();
        let x: Vec<f32> = (0..6).map(|i| (i as f32) - 2.0).collect();
        let expect = coo.to_dense().spmv(&x).unwrap();
        for kind in FormatKind::CHARACTERIZED {
            let m = AnyMatrix::encode(&coo, kind);
            assert_eq!(m.spmv(&x).unwrap(), expect, "{kind}");
        }
    }

    #[test]
    fn conversion_graph_commutes_through_any_pair() {
        let coo = sample();
        let dense = coo.to_dense();
        for from in FormatKind::CHARACTERIZED {
            let a = AnyMatrix::encode(&coo, from);
            for to in FormatKind::CHARACTERIZED {
                let b = a.convert(to);
                assert!(dense.structurally_eq(&b), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn format_kind_parses_labels() {
        for kind in FormatKind::CHARACTERIZED {
            let parsed: FormatKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
            let lower: FormatKind = kind.label().to_lowercase().parse().unwrap();
            assert_eq!(lower, kind);
        }
        assert!("NOPE".parse::<FormatKind>().is_err());
        for retired in ["SELL", "JDS", "BCSC", "DOK", "dok"] {
            match retired.parse::<FormatKind>() {
                Err(SparseError::UnknownFormat(name)) => assert_eq!(name, retired),
                other => panic!("{retired} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn characterized_list_has_dense_first_and_seven_formats() {
        assert_eq!(FormatKind::CHARACTERIZED[0], FormatKind::Dense);
        assert_eq!(FormatKind::CHARACTERIZED.len(), 8);
    }
}
