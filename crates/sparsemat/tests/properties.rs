//! Property-based tests over the whole format zoo.
//!
//! Values are small integers cast to `f32`, so every arithmetic identity
//! tested here is exact regardless of summation order (f32 is exact on
//! integers below 2^24 and all our sums stay far below that).

use proptest::prelude::*;
use sparsemat::{Bcsr, Coo, Csc, Csr, Dia, Ell, FormatKind, Lil, Matrix, PartitionGrid, Triplet};

/// Strategy: a random COO matrix with unique coordinates and small integer
/// values, shape 1..=20 in each dimension.
fn coo_strategy() -> impl Strategy<Value = Coo<f32>> {
    (1usize..=20, 1usize..=20).prop_flat_map(|(nrows, ncols)| {
        let cells = nrows * ncols;
        proptest::collection::btree_map(
            0..cells,
            // Exclude zero so nnz is exactly the map size.
            prop_oneof![-50i32..0, 1i32..=50],
            0..=cells.min(60),
        )
        .prop_map(move |map| {
            let triplets = map
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / ncols, cell % ncols, v as f32))
                .collect();
            Coo::from_triplets(nrows, ncols, triplets).expect("coords in range")
        })
    })
}

/// Strategy: an integer-valued operand vector matched to `ncols`.
fn operand(ncols: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-10i32..=10).prop_map(|v| v as f32), ncols)
}

proptest! {
    #[test]
    fn every_format_round_trips_through_dense(coo in coo_strategy()) {
        let dense = coo.to_dense();
        for kind in FormatKind::CHARACTERIZED {
            let m = sparsemat::AnyMatrix::encode(&coo, kind);
            prop_assert!(dense.structurally_eq(&m), "{kind} altered the matrix");
            prop_assert_eq!(m.nnz(), coo.nnz(), "{} changed nnz", kind);
        }
    }

    #[test]
    fn every_format_spmv_equals_dense_spmv(
        (coo, x) in coo_strategy().prop_flat_map(|c| {
            let n = c.ncols();
            (Just(c), operand(n))
        })
    ) {
        let expect = coo.to_dense().spmv(&x).unwrap();
        for kind in FormatKind::CHARACTERIZED {
            let m = sparsemat::AnyMatrix::encode(&coo, kind);
            prop_assert_eq!(m.spmv(&x).unwrap(), expect.clone(), "{} spmv diverged", kind);
        }
    }

    #[test]
    fn conversion_composes_csr_csc_bcsr(coo in coo_strategy()) {
        // A chain of conversions through structurally different formats must
        // preserve the entry set exactly.
        let csr = Csr::from(&coo);
        let csc = Csc::from(&csr.to_coo());
        let bcsr = Bcsr::from(&csc.to_coo());
        let dia = Dia::from(&bcsr.to_coo());
        prop_assert!(coo.to_dense().structurally_eq(&dia));
    }

    #[test]
    fn transpose_is_involutive(coo in coo_strategy()) {
        let csr = Csr::from(&coo);
        prop_assert_eq!(csr.transpose().transpose(), csr);
        let t2 = coo.transpose().transpose();
        prop_assert!(coo.to_dense().structurally_eq(&t2));
    }

    #[test]
    fn csr_transpose_equals_csc_content(coo in coo_strategy()) {
        // A^T in CSR must hold the same entries as A read column-wise.
        let t = Csr::from(&coo).transpose();
        let csc = Csc::from(&coo);
        for tr in t.triplets() {
            prop_assert_eq!(csc.get(tr.col, tr.row), tr.val);
        }
    }

    #[test]
    fn compress_is_idempotent_and_canonical(coo in coo_strategy()) {
        let mut a = coo.clone();
        a.compress();
        prop_assert!(a.is_compressed());
        let mut b = a.clone();
        b.compress();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn partition_reassembly_is_lossless(coo in coo_strategy(), size in 1usize..=9) {
        let grid = PartitionGrid::new(&coo, size).unwrap();
        prop_assert!(coo.to_dense().structurally_eq(&grid.reassemble()));
        prop_assert_eq!(grid.nnz(), coo.nnz());
        // Every retained tile is genuinely non-zero.
        prop_assert!(grid.partitions().iter().all(|p| p.nnz() > 0));
    }

    #[test]
    fn partition_stats_are_percentages(coo in coo_strategy(), size in 1usize..=9) {
        let stats = PartitionGrid::new(&coo, size).unwrap().stats();
        for v in [
            stats.partition_density_pct,
            stats.row_density_pct,
            stats.nonzero_row_share_pct,
        ] {
            prop_assert!((0.0..=100.0).contains(&v), "{v} outside [0, 100]");
        }
        prop_assert!((0.0..=1.0).contains(&stats.nonzero_tile_share));
    }

    #[test]
    fn ell_width_is_max_row_population(coo in coo_strategy()) {
        let ell = Ell::from(&coo);
        let csr = Csr::from(&coo);
        prop_assert_eq!(ell.width(), csr.max_row_nnz());
        prop_assert_eq!(ell.padding() + ell.nnz(), ell.stored_slots());
    }

    #[test]
    fn dia_stores_exactly_the_occupied_diagonals(coo in coo_strategy()) {
        let dia = Dia::from(&coo);
        prop_assert_eq!(dia.offsets().to_vec(), coo.diagonal_offsets());
        // All stored values (padding included) ≥ nnz.
        prop_assert!(dia.stored_values() >= dia.nnz());
    }

    #[test]
    fn lil_column_lists_agree_with_csr(coo in coo_strategy()) {
        let cols = Lil::from_coo_columns(&coo);
        prop_assert_eq!(cols.triplets(), Csr::from(&coo).triplets());
        // Column lists: distinct cross indices = non-zero rows.
        prop_assert_eq!(cols.distinct_cross_indices(), coo.nonzero_rows());
    }

    #[test]
    fn bcsr_block_invariants(coo in coo_strategy(), block in 1usize..=6) {
        let b = Bcsr::from_coo(&coo, block).unwrap();
        prop_assert_eq!(b.stored_values(), b.num_blocks() * block * block);
        prop_assert!(b.nonzero_block_rows() <= b.block_rows());
        prop_assert!(b.nnz() <= b.stored_values());
        prop_assert!(coo.to_dense().structurally_eq(&b));
    }
}

/// Strategy: a COO matrix that may carry duplicate coordinates and explicit
/// zeros — the dirty inputs the in-place rebuilds must hand off to the
/// allocating conversions bit-for-bit.
fn messy_coo_strategy() -> impl Strategy<Value = Coo<f32>> {
    (1usize..=16, 1usize..=16).prop_flat_map(|(nrows, ncols)| {
        let cells = nrows * ncols;
        proptest::collection::vec((0..cells, -5i32..=5), 0..=cells.min(50)).prop_map(move |pairs| {
            let triplets = pairs
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / ncols, cell % ncols, v as f32))
                .collect();
            Coo::from_triplets(nrows, ncols, triplets).expect("coords in range")
        })
    })
}

proptest! {
    /// The buffer-reusing rebuilds must equal the allocating `From`
    /// conversions exactly — on clean tiles (fast path) and on matrices
    /// with duplicates or explicit zeros (fallback path) — even when the
    /// target still holds an unrelated previous matrix.
    #[test]
    fn in_place_rebuilds_equal_the_allocating_conversions(
        (first, second) in (messy_coo_strategy(), messy_coo_strategy())
    ) {
        let mut tmp = Vec::new();
        let mut csr = Csr::<f32>::new(1, 1);
        let mut csc = Csc::<f32>::new(1, 1);
        let mut dense = sparsemat::Dense::<f32>::zeros(1, 1);
        let mut ell = Ell::from(&Coo::<f32>::new(1, 1));
        let mut lil = Lil::new(1, 1);
        let mut dia = Dia::from(&Coo::<f32>::new(1, 1));
        let mut bcsr = Bcsr::from(&Coo::<f32>::new(1, 1));
        let mut coo_buf = Coo::<f32>::new(1, 1);
        // Two rounds through the same targets: the second rebuild starts
        // from dirty buffers of a different shape.
        for coo in [&first, &second] {
            csr.assign_from_coo(coo, &mut tmp);
            prop_assert_eq!(&csr, &Csr::from(coo));
            csc.assign_from_coo(coo, &mut tmp);
            prop_assert_eq!(&csc, &Csc::from(coo));
            dense.assign_from_coo(coo);
            prop_assert_eq!(&dense, &sparsemat::Dense::from(coo));
            ell.assign_from_coo_natural(coo, &mut tmp);
            prop_assert_eq!(&ell, &Ell::from_coo_natural(coo));
            lil.assign_from_coo_columns(coo, &mut tmp);
            prop_assert_eq!(&lil, &Lil::from_coo_columns(coo));
            dia.assign_from_coo(coo);
            prop_assert_eq!(&dia, &Dia::from_coo(coo));
            bcsr.assign_from_coo(coo, 4, &mut tmp).unwrap();
            prop_assert_eq!(&bcsr, &Bcsr::from_coo(coo, 4).unwrap());
            coo_buf.assign_from(coo);
            coo_buf.compress();
            let mut reference = coo.clone();
            reference.compress();
            prop_assert_eq!(&coo_buf, &reference);
        }
    }
}

/// Strategy: a raw triplet list for [`PartitionGrid::from_triplets`] —
/// unsorted, with duplicate coordinates and explicit zeros — over shapes
/// from a few cells to 2^40, at a partition size that need not divide
/// them. Large shapes put the tile indices past one radix digit.
fn tiling_input() -> impl Strategy<Value = (usize, usize, usize, Vec<Triplet<f32>>)> {
    let dim = prop_oneof![1usize..=40, 2000usize..=40_000, Just(1usize << 40)];
    (dim.clone(), dim, 1usize..=9).prop_flat_map(|(nrows, ncols, p)| {
        let entry =
            (0..nrows, 0..ncols, -2i32..=2).prop_map(|(r, c, v)| Triplet::new(r, c, v as f32));
        let entries = proptest::collection::vec(entry, 0..=80).prop_flat_map(|ts| {
            // Repeat a prefix so some coordinates occur more than once.
            (0..=ts.len()).prop_map(move |k| {
                let mut all = ts.clone();
                all.extend_from_slice(&ts[..k]);
                all
            })
        });
        (Just(nrows), Just(ncols), Just(p), entries)
    })
}

proptest! {
    #[test]
    fn tiling_matches_a_stable_sort_by_tile((nrows, ncols, p, triplets) in tiling_input()) {
        let grid = PartitionGrid::from_triplets(nrows, ncols, triplets.clone(), p).unwrap();
        let got: Vec<_> = grid
            .partitions()
            .iter()
            .map(|t| {
                let entries: Vec<_> = t.coo.iter().map(|e| (e.row, e.col, e.val)).collect();
                (t.grid_row, t.grid_col, entries)
            })
            .collect();
        let mut reference: Vec<Triplet<f32>> =
            triplets.into_iter().filter(|t| t.val != 0.0).collect();
        reference.sort_by_key(|t| (t.row / p, t.col / p));
        let expect: Vec<_> = reference
            .chunk_by(|a, b| (a.row / p, a.col / p) == (b.row / p, b.col / p))
            .map(|tile| {
                let entries: Vec<_> = tile.iter().map(|e| (e.row % p, e.col % p, e.val)).collect();
                (tile[0].row / p, tile[0].col / p, entries)
            })
            .collect();
        prop_assert_eq!(got, expect);
    }
}
