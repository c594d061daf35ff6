//! Allocation-regression contract for the simulator hot path: once a
//! session's scratch pools are warm, streaming a grid through
//! encode → codec → decompress → verify — or, with verification and the
//! codec off, through encode → decompress alone, or over a measured
//! matrix's class table — performs **zero** steady-state heap allocations
//! per tile; an SpMV run allocates only its product vector; measuring a
//! matrix allocates per matrix, not per tile. A counting global allocator meters the runs; any
//! new allocation in the per-tile loops (a fresh `Vec`, a `format!`, a map
//! rebuild) fails this test before it can show up as a throughput cliff.

use copernicus_hls::{CodecKind, HwConfig, RunRequest, Session};
use sparsemat::{Coo, FormatKind, PartitionGrid, RowPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation made by the armed thread;
/// frees are uncounted (returning pooled buffers is allowed, acquiring new
/// ones is the regression). Arming and the count are per-thread, so neither
/// the libtest harness thread's own bookkeeping nor a test running
/// concurrently on another thread pollutes the count.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is armed. `try_with` so
/// allocations during thread teardown can't panic.
fn count_one() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation count of `f` on this thread. The serial session under test
/// does all per-tile work on the calling thread, so the thread-local gate
/// meters exactly the code under test.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|c| c.set(true));
    let out = f();
    ARMED.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), out)
}

/// A banded matrix with scattered fill: every 16-wide tile of the `n×n`
/// grid is non-empty and the formats exercise distinct layouts.
fn matrix(n: usize) -> Coo<f32> {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0 + i as f32).unwrap();
        if i + 5 < n {
            coo.push(i, i + 5, -0.5).unwrap();
        }
        if i >= 11 {
            coo.push(i, i - 11, 0.25 * i as f32).unwrap();
        }
    }
    coo
}

#[test]
fn warm_sessions_run_allocation_free_per_tile() {
    // Functional verification on (quick preset) under every second-stage
    // codec: the measured path is the full encode → codec pricing →
    // decompress → verify chain (RLE and delta-varint encode into the
    // pooled byte buffer, Huffman prices from the histogram).
    let small = matrix(48); // 3×3 tiles at p=16
    let large = matrix(96); // 6×6 tiles
    for codec in [CodecKind::Rle, CodecKind::DeltaVarint, CodecKind::Huffman] {
        let cfg = HwConfig {
            stream_codec: codec,
            ..HwConfig::default()
        };
        assert!(cfg.verify_functional);
        let small_grid = PartitionGrid::new(&small, cfg.partition_size).unwrap();
        let large_grid = PartitionGrid::new(&large, cfg.partition_size).unwrap();

        for kind in FormatKind::CHARACTERIZED {
            let mut session = Session::new(cfg.clone()).unwrap();
            // Two warmup passes per grid: the first grows every pool to the
            // format's working-set size, the second settles reuse order.
            for _ in 0..2 {
                session.run(RunRequest::grid(&small_grid, kind)).unwrap();
                session.run(RunRequest::grid(&large_grid, kind)).unwrap();
            }
            let (small_allocs, _) =
                count_allocs(|| session.run(RunRequest::grid(&small_grid, kind)).unwrap());
            let (large_allocs, _) =
                count_allocs(|| session.run(RunRequest::grid(&large_grid, kind)).unwrap());
            assert_eq!(
                small_allocs, 0,
                "{codec}/{kind}: a warm 3×3 run allocated {small_allocs} time(s)"
            );
            assert_eq!(
                large_allocs, 0,
                "{codec}/{kind}: a warm 6×6 run allocated {large_allocs} time(s)"
            );
        }
    }
}

#[test]
fn warm_structural_sessions_run_allocation_free_per_tile() {
    // Verification and the codec off: a grid run still walks every tile,
    // encode and decompress alone, on the session's pooled buffers.
    let cfg = HwConfig {
        verify_functional: false,
        stream_codec: CodecKind::None,
        ..HwConfig::default()
    };
    let small = matrix(48);
    let large = matrix(96);
    let small_grid = PartitionGrid::new(&small, cfg.partition_size).unwrap();
    let large_grid = PartitionGrid::new(&large, cfg.partition_size).unwrap();

    for kind in FormatKind::CHARACTERIZED {
        let mut session = Session::new(cfg.clone()).unwrap();
        session.run(RunRequest::grid(&small_grid, kind)).unwrap();
        session.run(RunRequest::grid(&large_grid, kind)).unwrap();
        let (small_allocs, _) =
            count_allocs(|| session.run(RunRequest::grid(&small_grid, kind)).unwrap());
        let (large_allocs, _) =
            count_allocs(|| session.run(RunRequest::grid(&large_grid, kind)).unwrap());
        assert_eq!(
            (small_allocs, large_allocs),
            (0, 0),
            "{kind}: warm structural runs allocated"
        );
    }
}

#[test]
fn warm_spmv_sessions_allocate_only_the_product() {
    // A serial SpMV run walks every tile with verification on and takes
    // each tile's row dot products into a pooled list: once warm, a run
    // allocates its `y` and nothing per tile, so 9 and 36 tiles cost the
    // same.
    let cfg = HwConfig::default();
    let small = matrix(48);
    let large = matrix(96);
    let small_grid = PartitionGrid::new(&small, cfg.partition_size).unwrap();
    let large_grid = PartitionGrid::new(&large, cfg.partition_size).unwrap();
    let x: Vec<f32> = (0..96).map(|i| (i % 7) as f32 - 3.0).collect();
    let (small_x, large_x) = (&x[..48], &x[..]);

    for kind in FormatKind::CHARACTERIZED {
        let mut session = Session::new(cfg.clone()).unwrap();
        let mut spmv = |grid: &PartitionGrid<f32>, x: &[f32]| {
            session
                .run(RunRequest::grid(grid, kind).consume_spmv(x))
                .unwrap()
        };
        for _ in 0..2 {
            spmv(&small_grid, small_x);
            spmv(&large_grid, large_x);
        }
        let (small_allocs, _) = count_allocs(|| spmv(&small_grid, small_x));
        let (large_allocs, _) = count_allocs(|| spmv(&large_grid, large_x));
        assert_eq!(
            (small_allocs, large_allocs),
            (1, 1),
            "{kind}: a warm SpMV run should allocate only its y vector"
        );
    }
}

#[test]
fn warm_measured_sessions_run_allocation_free() {
    // A measured grid: the class timings live in the session's scratch,
    // and the tiles are handed on without touching the heap.
    let cfg = HwConfig {
        verify_functional: false,
        stream_codec: CodecKind::None,
        ..HwConfig::default()
    };
    let mut session = Session::new(cfg).unwrap();
    let stats = session
        .measure(&RowPattern::new(&matrix(96)).unwrap())
        .unwrap();
    for kind in FormatKind::CHARACTERIZED {
        session.run(RunRequest::measured(&stats, kind)).unwrap();
        let (allocs, _) = count_allocs(|| session.run(RunRequest::measured(&stats, kind)).unwrap());
        assert_eq!(allocs, 0, "{kind}: a warm measured run allocated");
    }
}

#[test]
fn measuring_allocates_per_matrix_not_per_tile() {
    // Building the row pattern and measuring its tiles builds no per-tile
    // `Coo`: on warm scratch, a matrix of 10,000 tiles costs as many
    // allocations as one of 100 (the pattern, the band scratch, the tile
    // list, the one-class table).
    let cfg = HwConfig {
        verify_functional: false,
        stream_codec: CodecKind::None,
        ..HwConfig::default()
    };
    let p = cfg.partition_size;
    let tiled = |k: usize| {
        let mut coo = Coo::new(k * p, k * p);
        for tile in 0..k * k {
            let (row0, col0) = (tile / k * p, tile % k * p);
            for i in 0..4 {
                coo.push(row0 + i, col0 + (5 * i) % p, 1.0 + i as f32)
                    .unwrap();
            }
        }
        coo
    };
    let (small, large) = (tiled(10), tiled(100));
    let mut session = Session::new(cfg).unwrap();
    let mut measure = |m: &Coo<f32>| session.measure(&RowPattern::new(m).unwrap()).unwrap();
    measure(&small);
    measure(&large);
    let (small_allocs, small_stats) = count_allocs(|| measure(&small));
    let (large_allocs, large_stats) = count_allocs(|| measure(&large));
    assert_eq!((small_stats.tiles(), large_stats.tiles()), (100, 10_000));
    assert_eq!(
        (small_stats.classes().len(), large_stats.classes().len()),
        (1, 1)
    );
    assert_eq!(
        small_allocs, large_allocs,
        "measuring 10,000 tiles allocated {large_allocs} time(s), 100 tiles {small_allocs}"
    );
}
