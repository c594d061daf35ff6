//! Sparse-matrix substrate for the Copernicus characterization.
//!
//! This crate implements every compression format characterized by the
//! paper *Copernicus: Characterizing the Performance Implications of
//! Compression Formats Used in Sparse Workloads* (IISWC 2021) as
//! first-class, losslessly convertible matrix types:
//!
//! | Type | Paper section | Notes |
//! |---|---|---|
//! | [`Dense`] | baseline | row-major dense storage |
//! | [`Csr`] / [`Csc`] | §2 CSR/CSC | offsets + indices + values |
//! | [`Bcsr`] | §2 BCSR | block-wise CSR, any square block size |
//! | [`Coo`] | §2 COO | triplet list; the conversion hub |
//! | [`Lil`] | §2 LIL | one sorted list per column (the Copernicus orientation) |
//! | [`Ell`] | §2 ELL | fixed-width rows with padding |
//! | [`Dia`] | §2 DIA | non-zero diagonals with offset headers |
//!
//! Every format implements the [`Matrix`] trait (shape, random access,
//! triplet iteration, a format-native [`Matrix::spmv`]) and converts to and
//! from [`Coo`], which makes the whole conversion graph commute.
//!
//! The crate also provides [`partition`] — the tiling machinery the paper
//! uses to apply compression "only on the non-zero partitions of large
//! matrices" (§4.1) — including the per-partition density statistics of
//! Fig. 3 — and [`pattern`], a matrix's value-free row pattern, built once
//! and tiled at any partition size.
//!
//! # Example
//!
//! ```
//! use sparsemat::{Coo, Csr, Matrix};
//!
//! # fn main() -> Result<(), sparsemat::SparseError> {
//! let mut coo = Coo::<f32>::new(4, 4);
//! coo.push(0, 1, 2.0)?;
//! coo.push(2, 3, -1.0)?;
//! coo.push(3, 0, 4.0)?;
//!
//! let csr = Csr::from(&coo);
//! assert_eq!(csr.nnz(), 3);
//!
//! let y = csr.spmv(&[1.0, 1.0, 1.0, 1.0])?;
//! assert_eq!(y, vec![2.0, 0.0, -1.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bcsr;
pub mod convert;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod error;
pub mod lil;
pub mod partition;
pub mod pattern;
pub mod scalar;
pub mod triplet;

pub use bcsr::Bcsr;
pub use convert::AnyMatrix;
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use dia::Dia;
pub use ell::Ell;
pub use error::SparseError;
pub use lil::Lil;
pub use partition::{check_partition_size, Partition, PartitionGrid, PartitionStats};
pub use pattern::RowPattern;
pub use scalar::Scalar;
pub use triplet::Triplet;

use std::fmt::Debug;

/// The compression formats studied by Copernicus, as a plain identifier.
///
/// `Dense` is the paper's baseline; the seven characterized formats are
/// `Csr`, `Csc`, `Bcsr`, `Coo`, `Lil`, `Ell` and `Dia`. The variants §2
/// mentions alongside them (DOK, SELL, JDS, BCSC) are not implemented: the
/// paper characterizes none of them, and §5.2 runs DOK as COO.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum FormatKind {
    /// Row-major dense baseline.
    Dense,
    /// Compressed sparse row.
    Csr,
    /// Compressed sparse column.
    Csc,
    /// Block compressed sparse row (4×4 blocks in the paper).
    Bcsr,
    /// Coordinate (triplet) list.
    Coo,
    /// List of lists (column lists in Copernicus).
    Lil,
    /// ELLPACK with padding.
    Ell,
    /// Diagonal storage.
    Dia,
}

impl FormatKind {
    /// Every format: the seven characterized by the paper plus the dense
    /// baseline, in the order the paper's figures list them.
    pub const CHARACTERIZED: [FormatKind; 8] = [
        FormatKind::Dense,
        FormatKind::Csr,
        FormatKind::Bcsr,
        FormatKind::Csc,
        FormatKind::Lil,
        FormatKind::Ell,
        FormatKind::Coo,
        FormatKind::Dia,
    ];

    /// Short uppercase label used in tables and figures (e.g. `"BCSR"`).
    pub fn label(self) -> &'static str {
        match self {
            FormatKind::Dense => "DENSE",
            FormatKind::Csr => "CSR",
            FormatKind::Csc => "CSC",
            FormatKind::Bcsr => "BCSR",
            FormatKind::Coo => "COO",
            FormatKind::Lil => "LIL",
            FormatKind::Ell => "ELL",
            FormatKind::Dia => "DIA",
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for FormatKind {
    type Err = SparseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let up = s.trim().to_ascii_uppercase();
        FormatKind::CHARACTERIZED
            .iter()
            .copied()
            .find(|k| k.label() == up)
            .ok_or_else(|| SparseError::UnknownFormat(s.to_owned()))
    }
}

/// Common interface implemented by every matrix format in this crate.
///
/// The trait deliberately stays small: shape, random access, triplet
/// iteration and a format-native sparse matrix–vector product. Conversions
/// are expressed through [`Coo`] (`to_coo` here, `From<&Coo>` on each
/// concrete type) so the conversion graph commutes by construction.
pub trait Matrix<T: Scalar>: Debug {
    /// Number of rows.
    fn nrows(&self) -> usize;

    /// Number of columns.
    fn ncols(&self) -> usize;

    /// Number of explicitly stored non-zero entries.
    ///
    /// Explicit zeros that a format materializes internally (ELL padding,
    /// zeros inside BCSR blocks) do **not** count.
    fn nnz(&self) -> usize;

    /// The value at `(row, col)`, or `T::ZERO` when no entry is stored.
    ///
    /// # Panics
    ///
    /// Panics if `row >= nrows()` or `col >= ncols()`.
    fn get(&self, row: usize, col: usize) -> T;

    /// Copies all stored non-zero entries into a triplet list.
    fn triplets(&self) -> Vec<Triplet<T>>;

    /// Converts to coordinate format, the hub of the conversion graph.
    fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::with_capacity(self.nrows(), self.ncols(), self.nnz());
        for t in self.triplets() {
            coo.push(t.row, t.col, t.val)
                .expect("triplets() yielded an out-of-bounds entry");
        }
        coo
    }

    /// Materializes the matrix as a dense row-major buffer.
    ///
    /// Triplets are *accumulated*, so formats that permit duplicate
    /// coordinates (an uncompressed [`Coo`]) densify with the same summing
    /// semantics their [`Matrix::spmv`] uses.
    fn to_dense(&self) -> Dense<T> {
        let mut d = Dense::zeros(self.nrows(), self.ncols());
        for t in self.triplets() {
            d[(t.row, t.col)] += t.val;
        }
        d
    }

    /// Sparse matrix–vector product `y = A·x` using the format's native
    /// traversal order (row scan for CSR, column scatter for CSC, diagonal
    /// walk for DIA, …).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] when `x.len() != ncols()`.
    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError>;

    /// Density: `nnz / (nrows · ncols)`; zero for an empty shape.
    fn density(&self) -> f64 {
        let cells = self.nrows() * self.ncols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// The [`FormatKind`] tag for this format.
    fn kind(&self) -> FormatKind;
}

/// Validates that an SpMV operand length matches the matrix width.
pub(crate) fn check_spmv_operand<T: Scalar, M: Matrix<T> + ?Sized>(
    m: &M,
    x: &[T],
) -> Result<(), SparseError> {
    if x.len() != m.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (m.ncols(), 1),
            found: (x.len(), 1),
        });
    }
    Ok(())
}
