//! Property-based tests of the workload generators.

use copernicus_workloads::rmat::RmatParams;
use copernicus_workloads::{band, circuit, mtx, random, rmat, road, seeded_rng, stencil};
use proptest::prelude::*;
use sparsemat::{Coo, Dia, Matrix, Triplet};
use std::io::Cursor;

proptest! {
    #[test]
    fn uniform_hits_exact_nnz(n in 8usize..=96, density in 0.0f64..=0.6, seed in 0u64..1000) {
        let m = random::uniform_square(n, density, &mut seeded_rng(seed));
        let target = (density * (n * n) as f64).round() as usize;
        prop_assert_eq!(m.nnz(), target);
        prop_assert_eq!((m.nrows(), m.ncols()), (n, n));
    }

    #[test]
    fn uniform_is_deterministic(n in 8usize..=64, seed in 0u64..100) {
        let a = random::uniform_square(n, 0.1, &mut seeded_rng(seed));
        let b = random::uniform_square(n, 0.1, &mut seeded_rng(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn band_respects_width_bound(n in 4usize..=64, width in 1usize..=32, seed in 0u64..100) {
        let m = band::band(n, width, &mut seeded_rng(seed));
        let half = (width / 2) as isize;
        for t in m.iter() {
            let off = t.col as isize - t.row as isize;
            prop_assert!(off.abs() <= half, "offset {off} > half width {half}");
        }
        prop_assert_eq!(m.nnz(), band::band_nnz(n, width));
    }

    #[test]
    fn band_fills_every_band_cell(n in 4usize..=32, width in 1usize..=16) {
        let m = band::band(n, width, &mut seeded_rng(1)).to_dense();
        let half = (width / 2) as isize;
        for r in 0..n {
            for c in 0..n {
                let inside = (r as isize - c as isize).abs() <= half;
                prop_assert_eq!(m[(r, c)] != 0.0, inside, "({}, {})", r, c);
            }
        }
    }

    #[test]
    fn rmat_edges_are_unique_and_in_range(scale in 4u32..=9, edges in 1usize..=300, seed in 0u64..50) {
        let g = rmat::rmat(scale, edges, RmatParams::GRAPH500, &mut seeded_rng(seed));
        let n = 1usize << scale;
        prop_assert_eq!((g.nrows(), g.ncols()), (n, n));
        prop_assert!(g.nnz() <= edges);
        let mut coords: Vec<_> = g.iter().map(|t| (t.row, t.col)).collect();
        let before = coords.len();
        coords.sort_unstable();
        coords.dedup();
        prop_assert_eq!(coords.len(), before, "duplicate edges generated");
    }

    #[test]
    fn circuit_always_has_full_diagonal(n in 4usize..=128, deg in 1.0f64..6.0, seed in 0u64..50) {
        let m = circuit::circuit(n, deg, 0.8, &mut seeded_rng(seed));
        for i in 0..n {
            prop_assert!(m.get(i, i) != 0.0, "missing diagonal {i}");
        }
    }

    #[test]
    fn circuit_is_structurally_symmetric(n in 4usize..=64, seed in 0u64..50) {
        let m = circuit::circuit(n, 3.0, 0.7, &mut seeded_rng(seed));
        let d = m.to_dense();
        for t in m.iter() {
            prop_assert!(d[(t.col, t.row)] != 0.0, "({},{}) unmirrored", t.row, t.col);
        }
    }

    #[test]
    fn road_mesh_degree_is_bounded(nx in 3usize..=20, ny in 3usize..=20, seed in 0u64..50) {
        let m = road::road_mesh(nx, ny, 1.0, 0.1, &mut seeded_rng(seed));
        // Grid neighbours (4) + up to 2 diagonal shortcuts per vertex pair.
        let max_deg = m.row_counts().into_iter().max().unwrap_or(0);
        prop_assert!(max_deg <= 8, "degree {max_deg} too high for a road mesh");
    }

    #[test]
    fn stencil_2d_is_symmetric_banded(nx in 2usize..=12, ny in 2usize..=12) {
        let m = stencil::laplacian_2d(nx, ny);
        let d = m.to_dense();
        for r in 0..m.nrows() {
            for c in 0..m.ncols() {
                prop_assert_eq!(d[(r, c)], d[(c, r)]);
            }
        }
        let dia = Dia::from(&m);
        // 5-point stencil: at most 5 diagonals (fewer for degenerate grids).
        prop_assert!(dia.num_diagonals() <= 5);
    }

    #[test]
    fn suite_stand_ins_scale_with_cap(seed in 0u64..20) {
        let m = copernicus_workloads::SuiteMatrix::by_id("LJ").unwrap();
        let small = m.generate(128, seed);
        let large = m.generate(512, seed);
        prop_assert!(small.nrows() <= 128);
        prop_assert!(large.nrows() <= 512);
        prop_assert!(large.nrows() > small.nrows());
    }

    #[test]
    fn mtx_round_trip_is_lossless(
        entries in proptest::collection::btree_map(0usize..400, -1000i32..1000, 0..60)
    ) {
        let triplets: Vec<Triplet<f32>> = entries
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .map(|(cell, v)| Triplet::new(cell / 20, cell % 20, v as f32 / 8.0))
            .collect();
        let coo = Coo::from_triplets(20, 20, triplets).unwrap();
        let mut buf = Vec::new();
        mtx::write_mtx(&mut buf, &coo).unwrap();
        let back = mtx::read_mtx(Cursor::new(&buf)).unwrap();
        prop_assert!(coo.to_dense().structurally_eq(&back));
        prop_assert_eq!(back.nnz(), coo.nnz());
    }
}
