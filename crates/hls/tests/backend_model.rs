//! Backend-abstraction contract tests.
//!
//! Three guarantees ride on the [`Backend`] trait introduced with the
//! multi-backend models:
//!
//! 1. **Equivalence** — routing the HLS cost model through the trait is a
//!    pure refactor: a [`Session`] report equals the report rebuilt from
//!    [`HlsStreamBackend::partition_timing`] called tile by tile, field
//!    for field, across all characterized formats × stream codecs.
//! 2. **Monotonicity** — the analytical [`CpuCacheBackend`] never charges
//!    fewer cycles for more work (extra non-zeros) and never charges more
//!    compute for a larger cache, under proptest.
//! 3. **Determinism** — the [`HeteroBackend`] per-partition dispatch is a
//!    pure function of each partition's streams, so runs are byte-identical
//!    at any `tile_jobs` worker count.

use copernicus_hls::{
    backend_for, decompress, Backend, BackendKind, CodecKind, CpuCacheBackend, EncodedPartition,
    HlsStreamBackend, HwConfig, RunRequest, Session,
};
use proptest::prelude::*;
use sparsemat::{Coo, FormatKind, Matrix, PartitionGrid, Triplet};

/// A 3×3 grid of 16-wide tiles mixing a diagonal, a band, and scattered
/// cells so every format sees a distinct layout in every partition.
fn matrix() -> Coo<f32> {
    let mut coo = Coo::new(48, 48);
    for i in 0..48usize {
        coo.push(i, i, 1.0 + i as f32).unwrap();
        if i + 5 < 48 {
            coo.push(i, i + 5, -0.5 * i as f32).unwrap();
        }
        if i >= 19 {
            coo.push(i, i - 19, 3.0).unwrap();
        }
    }
    coo.push(0, 47, 7.0).unwrap();
    coo.push(47, 0, -7.0).unwrap();
    coo
}

/// Rebuilds a run report's aggregate fields straight from the trait
/// object, mirroring the pipeline's fill-plus-bottleneck accounting, and
/// checks every field the session reported.
#[test]
fn hls_backend_through_the_trait_matches_the_pipeline_report() {
    let m = matrix();
    for codec in CodecKind::ALL {
        let mut cfg = HwConfig::with_partition_size(16);
        cfg.stream_codec = codec;
        assert_eq!(cfg.backend, BackendKind::Hls, "hls is the default backend");
        let backend = backend_for(cfg.backend);
        let grid = PartitionGrid::new(&m, cfg.partition_size).unwrap();
        let mut session = Session::new(cfg.clone()).unwrap();
        for kind in FormatKind::CHARACTERIZED {
            let report = session.run(RunRequest::matrix(&m, kind)).unwrap().report;

            // Independent accumulation, tile by tile, via the trait.
            let (mut mem, mut compute, mut writeback) = (0u64, 0u64, 0u64);
            let (mut decomp, mut entropy, mut issues) = (0u64, 0u64, 0u64);
            let (mut bytes, mut coded, mut useful, mut reads) = (0u64, 0u64, 0u64, 0u64);
            let (mut pipelined, mut first_fill) = (0u64, None);
            let mut balance = 0.0f64;
            for part in grid.partitions() {
                let enc = EncodedPartition::encode(&part.coo, kind, &cfg).unwrap();
                let d = decompress(&enc, &cfg);
                let t = backend.partition_timing(&enc, &d, &cfg);
                let bottleneck = t.mem_cycles.max(t.compute_cycles).max(t.writeback_cycles);
                if first_fill.is_none() {
                    first_fill =
                        Some(t.mem_cycles + t.compute_cycles + t.writeback_cycles - bottleneck);
                }
                mem += t.mem_cycles;
                compute += t.compute_cycles;
                writeback += t.writeback_cycles;
                decomp += t.decomp_cycles;
                entropy += t.entropy_cycles;
                issues += t.dot_issues;
                bytes += t.bytes;
                coded += t.coded_bytes;
                useful += t.useful_bytes;
                reads += t.bram_reads;
                pipelined += bottleneck;
                balance += t.mem_cycles as f64 / t.compute_cycles.max(1) as f64;
            }
            let n = grid.partitions().len();
            let tag = format!("{kind} / codec {codec}");
            assert_eq!(report.partitions, n, "{tag}");
            assert_eq!(report.total_mem_cycles, mem, "{tag}");
            assert_eq!(report.total_compute_cycles, compute, "{tag}");
            assert_eq!(report.total_decomp_cycles, decomp, "{tag}");
            assert_eq!(report.total_entropy_cycles, entropy, "{tag}");
            assert_eq!(report.total_writeback_cycles, writeback, "{tag}");
            assert_eq!(report.total_dot_issues, issues, "{tag}");
            assert_eq!(report.total_bytes, bytes, "{tag}");
            assert_eq!(report.total_coded_bytes, coded, "{tag}");
            assert_eq!(report.useful_bytes, useful, "{tag}");
            assert_eq!(report.total_bram_reads, reads, "{tag}");
            assert_eq!(
                report.total_cycles,
                pipelined + first_fill.unwrap_or(0),
                "{tag}"
            );
            assert_eq!(
                report.dense_equivalent_compute,
                n as u64 * backend.dense_equivalent_cycles(&cfg),
                "{tag}"
            );
            assert_eq!(report.balance_ratio, balance / n as f64, "{tag}");
            assert_eq!(report.clock_mhz, cfg.clock_mhz, "{tag}");
        }
    }
}

/// Strategy: a random `16×16` tile with unique coordinates.
fn tile_strategy() -> impl Strategy<Value = Coo<f32>> {
    let p = 16usize;
    proptest::collection::btree_map(0..p * p, prop_oneof![-9i32..0, 1i32..=9], 1..=p * p / 2)
        .prop_map(move |map| {
            let triplets = map
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / p, cell % p, v as f32))
                .collect();
            Coo::from_triplets(p, p, triplets).expect("in range")
        })
}

/// Total CPU-modeled cycles for one tile under `cfg` (mem + compute +
/// writeback — a monotone reduction of every charge the model makes).
fn cpu_cost(tile: &Coo<f32>, kind: FormatKind, cfg: &HwConfig) -> (u64, u64) {
    let enc = EncodedPartition::encode(tile, kind, cfg).unwrap();
    let d = decompress(&enc, cfg);
    let t = CpuCacheBackend.partition_timing(&enc, &d, cfg);
    (
        t.mem_cycles + t.compute_cycles + t.writeback_cycles,
        t.compute_cycles,
    )
}

proptest! {
    /// More work never gets cheaper: adding a non-zero to a tile (codec
    /// `None`, so second-stage coding can't shrink the streams) never
    /// lowers the CPU model's total cycle charge, in any format.
    #[test]
    fn cpu_model_is_monotone_in_nnz(tile in tile_strategy()) {
        let cfg = HwConfig::with_partition_size(16);
        // First empty 16×16 cell; skip the (vanishingly rare) full tile.
        let occupied: std::collections::BTreeSet<(usize, usize)> = tile
            .triplets()
            .into_iter()
            .map(|t| (t.row, t.col))
            .collect();
        let free = (0..16 * 16)
            .map(|c| (c / 16, c % 16))
            .find(|c| !occupied.contains(c));
        if let Some(free) = free {
            let mut grown = tile.clone();
            grown.push(free.0, free.1, 5.0).unwrap();
            for kind in FormatKind::CHARACTERIZED {
                let (base, _) = cpu_cost(&tile, kind, &cfg);
                let (more, _) = cpu_cost(&grown, kind, &cfg);
                prop_assert!(
                    more >= base,
                    "{kind}: +1 nnz dropped CPU cycles {base} -> {more}"
                );
            }
        }
    }

    /// A strictly larger cache hierarchy never makes compute slower: the
    /// working set can only move to a closer level.
    #[test]
    fn cpu_model_is_monotone_in_cache_size(tile in tile_strategy()) {
        let small = HwConfig::with_partition_size(16);
        let mut big = small.clone();
        big.cpu.l1_bytes *= 4;
        big.cpu.l2_bytes *= 4;
        big.cpu.llc_bytes *= 4;
        for kind in FormatKind::CHARACTERIZED {
            let (_, slow) = cpu_cost(&tile, kind, &small);
            let (_, fast) = cpu_cost(&tile, kind, &big);
            prop_assert!(
                fast <= slow,
                "{kind}: 4x caches raised compute cycles {slow} -> {fast}"
            );
        }
    }
}

/// The hetero dispatcher never reorders or re-costs work across worker
/// counts: outcomes (reports, SpMV vectors) are byte-identical at any
/// `tile_jobs`, for every format, with and without a stream codec.
#[test]
fn hetero_dispatch_is_identical_at_any_worker_count() {
    let m = matrix();
    let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 5) as f32 - 2.0).collect();
    for codec in [CodecKind::None, CodecKind::Huffman] {
        let mut cfg = HwConfig::with_partition_size(16);
        cfg.backend = BackendKind::Hetero;
        cfg.stream_codec = codec;
        let mut serial = Session::new(cfg.clone()).unwrap();
        for jobs in [2usize, 4, 16] {
            let mut par = Session::new(cfg.clone()).unwrap().with_tile_jobs(jobs);
            for kind in FormatKind::CHARACTERIZED {
                let base = serial
                    .run(RunRequest::matrix(&m, kind).consume_spmv(&x))
                    .unwrap();
                let tiled = par
                    .run(RunRequest::matrix(&m, kind).consume_spmv(&x))
                    .unwrap();
                assert_eq!(
                    base, tiled,
                    "{kind}/{codec}: hetero outcome diverged at tile_jobs={jobs}"
                );
                assert_eq!(
                    serde::json::to_string_pretty(&base.report),
                    serde::json::to_string_pretty(&tiled.report),
                    "{kind}/{codec}: serialized report diverged at tile_jobs={jobs}"
                );
            }
        }
    }
}

/// Backend selection is the session's: one session per backend, and the
/// HLS and CPU backends price the same workload on distinct cost surfaces.
#[test]
fn each_backend_prices_its_own_cost_surface() {
    let m = matrix();
    let totals: Vec<u64> = BackendKind::ALL
        .into_iter()
        .map(|backend| {
            let cfg = HwConfig {
                backend,
                ..HwConfig::with_partition_size(16)
            };
            let mut session = Session::new(cfg).unwrap();
            session
                .run(RunRequest::matrix(&m, FormatKind::Csr))
                .unwrap()
                .report
                .total_cycles
        })
        .collect();
    assert_ne!(totals[0], totals[1], "hls and cpu cost surfaces coincide");
    assert_eq!(
        HlsStreamBackend.kind(),
        BackendKind::Hls,
        "trait kind() names the backend"
    );
}
