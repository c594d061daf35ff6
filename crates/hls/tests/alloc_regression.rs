//! Allocation-regression contract for the simulator hot path: once a
//! session's scratch pools are warm, streaming a grid through
//! encode → codec → decompress → verify — or, with verification and the
//! codec off, through the structural tile pass or over a measured grid's
//! class table — performs **zero**
//! steady-state heap allocations per tile. A counting global allocator meters the runs; any
//! new allocation in the per-tile loops (a fresh `Vec`, a `format!`, a map
//! rebuild) fails this test before it can show up as a throughput cliff.

use copernicus_hls::{CodecKind, HwConfig, RunRequest, Session};
use sparsemat::{Coo, FormatKind, PartitionGrid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation made by the armed thread;
/// frees are uncounted (returning pooled buffers is allowed, acquiring new
/// ones is the regression). Arming is per-thread so the libtest harness
/// thread's own bookkeeping allocations never pollute the count.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn armed() -> bool {
    // `try_with` so allocations during thread teardown can't panic.
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|c| c.set(true));
    let out = f();
    ARMED.with(|c| c.set(false));
    (ALLOCS.load(Ordering::SeqCst), out)
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
    // Functional verification on (quick preset) and the heaviest
    // second-stage codec: the measured path is the full
    // encode → Huffman encode/decode cost model → decompress → verify
    // chain.
    let cfg = HwConfig {
        stream_codec: CodecKind::Huffman,
        ..HwConfig::default()
    };
    assert!(cfg.verify_functional);
    let small = matrix(48); // 3×3 tiles at p=16
    let large = matrix(96); // 6×6 tiles
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
            "{kind}: a warm 3×3 run allocated {small_allocs} time(s)"
        );
        assert_eq!(
            large_allocs, 0,
            "{kind}: a warm 6×6 run allocated {large_allocs} time(s)"
        );
    }
}

#[test]
fn warm_structural_sessions_run_allocation_free_per_tile() {
    // Verification and the codec off: every tile is priced from the
    // structural pass, whose tables live in the session's scratch.
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
fn warm_measured_sessions_run_allocation_free() {
    // A measured grid: the class timings live in the session's scratch,
    // and the tiles are handed on without touching the heap.
    let cfg = HwConfig {
        verify_functional: false,
        stream_codec: CodecKind::None,
        ..HwConfig::default()
    };
    let grid = PartitionGrid::new(&matrix(96), cfg.partition_size).unwrap();
    let mut session = Session::new(cfg).unwrap();
    let stats = session.measure(&grid).unwrap();
    assert_eq!(stats.declined(), 0);
    for kind in FormatKind::CHARACTERIZED {
        session
            .run(RunRequest::measured(&grid, &stats, kind))
            .unwrap();
        let (allocs, _) = count_allocs(|| {
            session
                .run(RunRequest::measured(&grid, &stats, kind))
                .unwrap()
        });
        assert_eq!(allocs, 0, "{kind}: a warm measured run allocated");
    }
}
