//! Property-based tests of the platform model: functional correctness of
//! every decompressor, closed-form cycle identities, and metric invariants.

use copernicus_hls::{
    backend_for, decompress, explain, BackendKind, CostBreakdown, CostTerm, EncodeScratch,
    EncodedPartition, HwConfig, RunRequest, Session, TileStats,
};
use copernicus_telemetry::{Phase, PhaseProfiler, RecordingSink};
use proptest::prelude::*;
use sparsemat::{AnyMatrix, Coo, Dia, FormatKind, Lil, Matrix, PartitionGrid, RowPattern, Triplet};
use std::sync::Arc;

/// Strategy: a random tile exactly `p×p` with unique coordinates.
fn tile_strategy(p: usize) -> impl Strategy<Value = Coo<f32>> {
    let cells = p * p;
    proptest::collection::btree_map(0..cells, prop_oneof![-9i32..0, 1i32..=9], 1..=cells / 2)
        .prop_map(move |map| {
            let triplets = map
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / p, cell % p, v as f32))
                .collect();
            Coo::from_triplets(p, p, triplets).expect("in range")
        })
}

/// How a [`structural_tile_strategy`] tile is built from its unique cells.
#[derive(Debug, Clone, Copy)]
enum TileShape {
    /// No entries at all.
    Empty,
    /// Unique cells in row-major order.
    Sorted,
    /// The same cells pushed in reverse order.
    Unsorted,
    /// One cell pushed twice with values that add up.
    Duplicate,
    /// One cell pushed twice with values that cancel to zero.
    Cancelling,
}

/// Strategy: a `p×p` tile at one of the paper's partition sizes or at
/// p = 10 (where the 4-wide BCSR blocks do not divide p), built in one
/// of the [`TileShape`]s.
fn structural_tile_strategy() -> impl Strategy<Value = (usize, TileShape, Coo<f32>)> {
    let shape = prop_oneof![
        Just(TileShape::Empty),
        Just(TileShape::Sorted),
        Just(TileShape::Unsorted),
        Just(TileShape::Duplicate),
        Just(TileShape::Cancelling),
    ];
    (
        prop_oneof![Just(8usize), Just(10), Just(16), Just(32)],
        shape,
    )
        .prop_flat_map(|(p, shape)| {
            let cells = p * p;
            proptest::collection::btree_map(
                0..cells,
                prop_oneof![-9i32..0, 1i32..=9],
                1..=cells / 3,
            )
            .prop_map(move |map| {
                let mut triplets: Vec<Triplet<f32>> = map
                    .into_iter()
                    .map(|(cell, v)| Triplet::new(cell / p, cell % p, v as f32))
                    .collect();
                let first = triplets[0];
                match shape {
                    TileShape::Empty => triplets.clear(),
                    TileShape::Sorted => {}
                    TileShape::Unsorted => triplets.reverse(),
                    TileShape::Duplicate => triplets.push(Triplet { val: 0.5, ..first }),
                    TileShape::Cancelling => triplets.push(Triplet {
                        val: -first.val,
                        ..first
                    }),
                }
                (
                    p,
                    shape,
                    Coo::from_triplets(p, p, triplets).expect("in range"),
                )
            })
        })
}

/// Strategy: a matrix with distinct coordinates at p ∈ {1, 8, 10, 16, 32},
/// rectangular and of any shape `p` need not divide, with 0 to 400
/// entries (so bands range from empty through sparse to full) and a few
/// explicit zeros, which a row pattern drops, in row-major or reversed
/// input order. Tiles with a repeated coordinate have no pattern; the
/// tile strategy above and the patternless test below cover them.
fn structural_grid_strategy() -> impl Strategy<Value = (usize, Coo<f32>)> {
    prop_oneof![Just(1usize), Just(8), Just(10), Just(16), Just(32)].prop_flat_map(|p| {
        let dim = 1..=3 * p + 5;
        (dim.clone(), dim).prop_flat_map(move |(nrows, ncols)| {
            let cells = nrows * ncols;
            (
                proptest::collection::btree_map(
                    0..cells,
                    prop_oneof![-9i32..0, 1i32..=9],
                    0..=cells.min(400),
                ),
                proptest::collection::vec(0..cells, 0..=4),
                prop_oneof![Just(false), Just(true)],
            )
                .prop_map(move |(map, zeros, reversed)| {
                    let mut triplets: Vec<Triplet<f32>> = map
                        .into_iter()
                        .map(|(cell, v)| Triplet::new(cell / ncols, cell % ncols, v as f32))
                        .collect();
                    triplets.extend(
                        zeros
                            .into_iter()
                            .map(|cell| Triplet::new(cell / ncols, cell % ncols, 0.0)),
                    );
                    if reversed {
                        triplets.reverse();
                    }
                    (
                        p,
                        Coo::from_triplets(nrows, ncols, triplets).expect("in range"),
                    )
                })
        })
    })
}

/// `request`, run in `lanes` aggregated lanes when there are any.
fn in_lanes(request: RunRequest<'_>, lanes: Option<usize>) -> RunRequest<'_> {
    match lanes {
        Some(n) => request.with_lanes(n),
        None => request,
    }
}

/// Strategy: a random matrix larger than one partition.
fn matrix_strategy() -> impl Strategy<Value = Coo<f32>> {
    let n = 48usize;
    proptest::collection::btree_map(0..n * n, prop_oneof![-9i32..0, 1i32..=9], 0..=160).prop_map(
        move |map| {
            let triplets = map
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / n, cell % n, v as f32))
                .collect();
            Coo::from_triplets(n, n, triplets).expect("in range")
        },
    )
}

/// The cost breakdown read off a walked tile: the encoded structure's own
/// counts and its decompression, in `explain`'s vocabulary.
fn walked_breakdown(enc: &EncodedPartition, cfg: &HwConfig) -> CostBreakdown {
    let d = decompress(enc, cfg);
    let p = cfg.partition_size as u64;
    let l = cfg.bram_read_latency;
    let nnz = enc.matrix.nnz() as u64;
    let term = |label: String, cycles: u64| CostTerm { label, cycles };
    let decomp_terms = match &enc.matrix {
        AnyMatrix::Dense(_) => vec![term(
            "rows stream straight to the engine (no decompression)".into(),
            0,
        )],
        AnyMatrix::Csr(m) => {
            let nzr = (0..m.nrows()).filter(|&r| m.row_nnz(r) > 0).count() as u64;
            vec![
                term(
                    format!("{nzr} non-zero rows x {l}-cycle offsets read (Listing 1 line 7)"),
                    nzr * l,
                ),
                term(
                    format!("{nnz} elements through the pipelined II=1 copy loop"),
                    nnz,
                ),
            ]
        }
        AnyMatrix::Csc(_) => vec![term(
            format!("{p} output rows x {nnz}-tuple rescan (orientation mismatch, Listing 3)"),
            p * nnz,
        )],
        AnyMatrix::Bcsr(m) => {
            let (nbr, nblk) = (m.nonzero_block_rows() as u64, m.num_blocks() as u64);
            vec![
                term(
                    format!("{nbr} non-zero block-rows x {l}-cycle offsets read"),
                    nbr * l,
                ),
                term(
                    format!("{nblk} blocks through the unrolled copy (1 cycle each)"),
                    nblk,
                ),
            ]
        }
        AnyMatrix::Coo(_) => vec![
            term(format!("initial tuple fetch ({l} cycles)"), l),
            term(
                format!("{nnz} tuples through the pipelined II=1 scatter"),
                nnz,
            ),
        ],
        AnyMatrix::Lil(m) => {
            let nzr = m.distinct_cross_indices() as u64;
            vec![
                term(
                    format!("{nzr} emitted rows x (parallel column read {l} + min-scan/assign 2)"),
                    nzr * (l + 2),
                ),
                term(format!("end-of-rows marker read ({l} cycles)"), l),
            ]
        }
        AnyMatrix::Ell(_) => vec![term(
            format!("{p} rows x 1 cycle (fully unrolled, zero rows not skippable)"),
            p,
        )],
        AnyMatrix::Dia(m) => {
            let ndiag = m.num_diagonals() as u64;
            vec![
                term(format!("initial diagonal fetch ({l} cycles)"), l),
                term(
                    format!("{p} rows x {ndiag}-diagonal II=1 scan (Listing 7)"),
                    p * ndiag,
                ),
            ]
        }
    };
    let t_dot = cfg.dot_latency(d.engine_width);
    CostBreakdown {
        format: enc.kind(),
        decomp_terms,
        dot_term: term(
            format!(
                "{} dot products x {t_dot} cycles on the width-{} engine",
                d.dot_issues, d.engine_width
            ),
            d.dot_issues * t_dot,
        ),
        memory_cycles: enc.memory_cycles(cfg),
        compute_cycles: d.compute_cycles(cfg),
    }
}

proptest! {
    #[test]
    fn every_decompressor_is_functionally_exact(tile in tile_strategy(16)) {
        let cfg = HwConfig::with_partition_size(16);
        let expect = tile.to_dense();
        for kind in FormatKind::CHARACTERIZED {
            let part = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
            let d = decompress(&part, &cfg);
            prop_assert_eq!(d.assemble(16), expect.clone(), "{} corrupted the tile", kind);
        }
    }

    #[test]
    fn cycle_counts_match_closed_forms(tile in tile_strategy(16)) {
        let cfg = HwConfig::with_partition_size(16);
        let p = 16u64;
        let nnz = tile.nnz() as u64;
        let nzr = tile.nonzero_rows() as u64;
        let l = cfg.bram_read_latency;

        let cycles = |kind: FormatKind| {
            let part = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
            let d = decompress(&part, &cfg);
            (d.decomp_cycles, d.dot_issues)
        };

        // CSR: nzr offset reads + one cycle per element; nzr dots.
        prop_assert_eq!(cycles(FormatKind::Csr), (nzr * l + nnz, nzr));
        // CSC: full rescan of all tuples for each of the p output rows.
        prop_assert_eq!(cycles(FormatKind::Csc), (p * nnz, nzr));
        // COO: one pipelined pass.
        prop_assert_eq!(cycles(FormatKind::Coo), (l + nnz, nzr));
        // LIL: per non-zero row one parallel read + logic, plus end marker.
        prop_assert_eq!(cycles(FormatKind::Lil), (nzr * (l + 2) + l, nzr));
        // ELL: one cycle per row, all rows, width-independent.
        prop_assert_eq!(cycles(FormatKind::Ell), (p, p));
        // DIA: per row a scan over all stored diagonals.
        let ndiag = Dia::from(&tile).num_diagonals() as u64;
        prop_assert_eq!(cycles(FormatKind::Dia), (l + p * ndiag, nzr));
        // Dense: free decompression, every row issues.
        prop_assert_eq!(cycles(FormatKind::Dense), (0, p));
    }

    #[test]
    fn transfer_byte_formulas_hold(tile in tile_strategy(16)) {
        let cfg = HwConfig::with_partition_size(16);
        let nnz = tile.nnz() as u64;
        let bytes = |kind: FormatKind| {
            EncodedPartition::encode(&tile, kind, &cfg).unwrap().total_bytes()
        };
        prop_assert_eq!(bytes(FormatKind::Dense), 16 * 16 * 4);
        prop_assert_eq!(bytes(FormatKind::Csr), (17 + 2 * nnz) * 4);
        prop_assert_eq!(bytes(FormatKind::Csc), (17 + 2 * nnz) * 4);
        prop_assert_eq!(bytes(FormatKind::Coo), 3 * nnz * 4);
        let w = sparsemat::Ell::from(&tile).width() as u64;
        prop_assert_eq!(bytes(FormatKind::Ell), 2 * w * 16 * 4);
        let maxcol = Lil::from(&tile).max_line_len() as u64;
        prop_assert_eq!(bytes(FormatKind::Lil), 2 * (maxcol + 1) * 16 * 4);
        let ndiag = Dia::from(&tile).num_diagonals() as u64;
        prop_assert_eq!(bytes(FormatKind::Dia), ndiag * 17 * 4);
    }

    #[test]
    fn utilization_bounds_hold(tile in tile_strategy(16)) {
        let cfg = HwConfig::with_partition_size(16);
        for kind in FormatKind::CHARACTERIZED {
            let e = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
            let u = e.bandwidth_utilization();
            prop_assert!((0.0..=1.0).contains(&u), "{kind}: {u}");
        }
        // COO exactly 1/3; CSR/CSC below 1/2 (they add offsets on top of
        // one index per value).
        let coo = EncodedPartition::encode(&tile, FormatKind::Coo, &cfg).unwrap();
        prop_assert!((coo.bandwidth_utilization() - 1.0 / 3.0).abs() < 1e-12);
        let csr = EncodedPartition::encode(&tile, FormatKind::Csr, &cfg).unwrap();
        prop_assert!(csr.bandwidth_utilization() < 0.5);
    }

    #[test]
    fn platform_spmv_matches_reference_for_all_formats(
        (m, x) in matrix_strategy().prop_flat_map(|m| {
            let n = m.ncols();
            let x = proptest::collection::vec((-5i32..=5).prop_map(|v| v as f32), n);
            (Just(m), x)
        })
    ) {
        let expect = m.spmv(&x).unwrap();
        let mut session = Session::new(HwConfig::default()).unwrap();
        for kind in FormatKind::CHARACTERIZED {
            let outcome = session.run(RunRequest::matrix(&m, kind).consume_spmv(&x)).unwrap();
            prop_assert_eq!(&outcome.y.unwrap(), &expect, "{} diverged", kind);
            prop_assert_eq!(outcome.report.partitions > 0, m.nnz() > 0);
        }
    }

    #[test]
    fn dense_sigma_is_one_and_others_positive(m in matrix_strategy()) {
        prop_assume!(m.nnz() > 0);
        let mut session = Session::new(HwConfig::default()).unwrap();
        let dense = session.run(RunRequest::matrix(&m, FormatKind::Dense)).unwrap().report;
        prop_assert!((dense.sigma() - 1.0).abs() < 1e-12);
        for kind in FormatKind::CHARACTERIZED {
            let r = session.run(RunRequest::matrix(&m, kind)).unwrap().report;
            prop_assert!(r.sigma() > 0.0, "{kind}");
            prop_assert!(r.balance_ratio > 0.0, "{kind}");
            prop_assert!(r.total_cycles >= r.total_mem_cycles.max(r.total_compute_cycles), "{kind}");
        }
    }

    #[test]
    fn partition_size_sweep_preserves_functionality(m in matrix_strategy(), p in 4usize..=32) {
        prop_assume!(m.nnz() > 0);
        let mut session = Session::new(HwConfig::with_partition_size(p)).unwrap();
        let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 5) as f32 - 2.0).collect();
        let expect = m.spmv(&x).unwrap();
        let y = session
            .run(RunRequest::matrix(&m, FormatKind::Bcsr).consume_spmv(&x))
            .unwrap()
            .y
            .unwrap();
        prop_assert_eq!(y, expect);
    }

    #[test]
    fn csc_never_beats_csr_on_compute(tile in tile_strategy(16)) {
        // The orientation mismatch can only cost cycles.
        let cfg = HwConfig::with_partition_size(16);
        let csr = decompress(&EncodedPartition::encode(&tile, FormatKind::Csr, &cfg).unwrap(), &cfg);
        let csc = decompress(&EncodedPartition::encode(&tile, FormatKind::Csc, &cfg).unwrap(), &cfg);
        prop_assert!(csc.compute_cycles(&cfg) >= csr.compute_cycles(&cfg));
    }

    #[test]
    fn trace_spans_always_sum_to_report_totals(m in matrix_strategy()) {
        // The telemetry layer's defining invariant, over random matrices:
        // recorded stage spans account for every report total exactly, and
        // the instrumented report is bit-identical to the plain one.
        let mut session = Session::new(HwConfig::default()).unwrap();
        for kind in FormatKind::CHARACTERIZED {
            let mut sink = copernicus_telemetry::RecordingSink::new();
            let traced = session
                .run(RunRequest::matrix(&m, kind).with_sink(&mut sink))
                .unwrap()
                .report;
            let plain = session.run(RunRequest::matrix(&m, kind)).unwrap().report;
            prop_assert_eq!(&traced, &plain, "{} report changed under tracing", kind);
            use copernicus_telemetry::Stage;
            prop_assert_eq!(sink.stage_cycles(Stage::MemRead), traced.total_mem_cycles, "{}", kind);
            prop_assert_eq!(sink.stage_cycles(Stage::Compute), traced.total_compute_cycles, "{}", kind);
            prop_assert_eq!(sink.stage_cycles(Stage::Decompress), traced.total_decomp_cycles, "{}", kind);
            prop_assert_eq!(sink.stage_cycles(Stage::WriteBack), traced.total_writeback_cycles, "{}", kind);
            prop_assert_eq!(sink.count("partition_start"), traced.partitions, "{}", kind);
        }
    }

    #[test]
    fn structural_pricing_equals_the_walked_oracle((p, shape, tile) in structural_tile_strategy()) {
        let mut scratch = EncodeScratch::new();
        for backend in BackendKind::ALL {
            let cfg = HwConfig {
                backend,
                ..HwConfig::with_partition_size(p)
            };
            let stats = TileStats::measure(&tile, &cfg, &mut scratch);
            // Merged duplicates may cancel, so those tiles must be walked.
            prop_assert_eq!(
                stats.is_none(),
                matches!(shape, TileShape::Duplicate | TileShape::Cancelling),
                "{:?}", shape
            );
            for kind in FormatKind::CHARACTERIZED {
                let enc = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
                let d = decompress(&enc, &cfg);
                let walked = backend_for(backend).partition_timing(&enc, &d, &cfg);
                if let Some(stats) = &stats {
                    let priced = backend_for(backend).price(&stats.counters(kind, &cfg), &cfg);
                    prop_assert_eq!(priced, walked, "{} on {} at p={}", kind, backend, p);
                }
                // End to end: a verify-off run (structural when it may be)
                // reports exactly what a verifying run (always walked) does.
                let verified = Session::new(cfg.clone())
                    .unwrap()
                    .run(RunRequest::matrix(&tile, kind))
                    .unwrap()
                    .report;
                let structural = Session::new(HwConfig { verify_functional: false, ..cfg.clone() })
                    .unwrap()
                    .run(RunRequest::matrix(&tile, kind))
                    .unwrap()
                    .report;
                prop_assert_eq!(&structural, &verified, "{} on {} at p={}", kind, backend, p);
            }
        }
    }

    #[test]
    fn explain_from_stats_equals_the_walked_breakdown((p, _, tile) in structural_tile_strategy()) {
        let cfg = HwConfig::with_partition_size(p);
        // Duplicate and cancelling tiles are declined, so only clean ones
        // have counts to explain.
        if let Some(stats) = TileStats::measure(&tile, &cfg, &mut EncodeScratch::new()) {
            for kind in FormatKind::CHARACTERIZED {
                let enc = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
                prop_assert_eq!(explain(&stats, kind, &cfg), walked_breakdown(&enc, &cfg), "{} at p={}", kind, p);
            }
        }
    }

    #[test]
    fn measured_grids_equal_the_walked_oracle((p, m) in structural_grid_strategy()) {
        // One measurement, taken from the matrix's row pattern, prices
        // every format on every backend, plain or in lanes, at any tile
        // worker count, exactly as a verifying run over the built grid
        // (always walked) does: same outcome, same trace events.
        let grid = PartitionGrid::new(&m, p).unwrap();
        let pattern = RowPattern::new(&m);
        prop_assert!(pattern.is_some(), "distinct coordinates have a pattern");
        for backend in BackendKind::ALL {
            let verified = HwConfig {
                backend,
                bcsr_block: 4.min(p),
                ..HwConfig::with_partition_size(p)
            };
            let mut oracle = Session::new(verified.clone()).unwrap();
            let mut session = Session::new(HwConfig {
                verify_functional: false,
                ..verified
            })
            .unwrap();
            let stats = session.measure(pattern.as_ref().unwrap()).unwrap();
            prop_assert_eq!(stats.tiles(), grid.nonzero_tiles());
            for kind in FormatKind::CHARACTERIZED {
                for lanes in [None, Some(3)] {
                    let mut want_events = RecordingSink::new();
                    let request = RunRequest::grid(&grid, kind).with_sink(&mut want_events);
                    let want = oracle.run(in_lanes(request, lanes)).unwrap();
                    for jobs in [1, 2] {
                        session.set_tile_jobs(jobs);
                        let mut events = RecordingSink::new();
                        let request = RunRequest::measured(&stats, kind).with_sink(&mut events);
                        let got = session.run(in_lanes(request, lanes)).unwrap();
                        let case = format!("{kind} on {backend} at p={p}, lanes {lanes:?}, {jobs} jobs");
                        prop_assert_eq!(&got, &want, "{}", case);
                        prop_assert_eq!(&events.events, &want_events.events, "{}", case);
                        // Untraced, the same tiles reach the same report.
                        let request = RunRequest::measured(&stats, kind);
                        let untraced = session.run(in_lanes(request, lanes)).unwrap();
                        prop_assert_eq!(&untraced, &want, "untraced {}", case);
                    }
                }
            }
        }
    }

    #[test]
    fn bcsr_dot_issues_cover_all_rows_of_nonzero_block_rows(tile in tile_strategy(16)) {
        let cfg = HwConfig::with_partition_size(16);
        let bcsr = sparsemat::Bcsr::from_coo(&tile, 4).unwrap();
        let d = decompress(&EncodedPartition::encode(&tile, FormatKind::Bcsr, &cfg).unwrap(), &cfg);
        prop_assert_eq!(d.dot_issues, (bcsr.nonzero_block_rows() * 4) as u64);
        prop_assert!(d.dot_issues >= tile.nonzero_rows() as u64);
    }
}

#[test]
fn a_matrix_without_a_pattern_walks_its_grid_and_matches_the_oracle() {
    // No row pattern: a repeated coordinate, in several tiles (once adding
    // up, once cancelling to zero), and a 2^40 × 2^40 matrix with three
    // entries, whose 2^40 row pointers would not fit in memory. A
    // verify-off session walks their grids, plain or in lanes, to the
    // outcome and trace of a verifying run over the grid.
    let mut repeated = Coo::new(40, 36);
    for i in 0..40usize {
        repeated.push(i, (i * 7) % 36, 1.0 + i as f32).unwrap();
    }
    repeated.push(3, 21, 2.0).unwrap();
    repeated.push(17, 11, -18.0).unwrap();
    let n = 1usize << 40;
    let mut huge = Coo::new(n, n);
    huge.push(n - 1, 3, 1.0).unwrap();
    huge.push(5, n - 2, 2.0).unwrap();
    huge.push(6, 0, 3.0).unwrap();
    for m in [repeated, huge] {
        assert_eq!(RowPattern::new(&m), None);
        let cfg = HwConfig::with_partition_size(8);
        let grid = PartitionGrid::new(&m, 8).unwrap();
        let mut oracle = Session::new(cfg.clone()).unwrap();
        let profiler = Arc::new(PhaseProfiler::new());
        let mut session = Session::new(HwConfig {
            verify_functional: false,
            ..cfg
        })
        .unwrap()
        .with_profiler(profiler.clone());
        for kind in FormatKind::CHARACTERIZED {
            for lanes in [None, Some(3)] {
                let mut want_events = RecordingSink::new();
                let request = RunRequest::grid(&grid, kind).with_sink(&mut want_events);
                let want = oracle.run(in_lanes(request, lanes)).unwrap();
                let mut events = RecordingSink::new();
                let request = RunRequest::matrix(&m, kind).with_sink(&mut events);
                let got = session.run(in_lanes(request, lanes)).unwrap();
                let case = format!("{kind} over {}x{}, lanes {lanes:?}", m.nrows(), m.ncols());
                assert_eq!(got, want, "{case}");
                assert_eq!(events.events, want_events.events, "{case}");
            }
        }
        let decompressed = profiler
            .histogram(Phase::Decompress)
            .map_or(0, |h| h.count());
        assert!(decompressed > 0, "the grid is walked");
    }
}
