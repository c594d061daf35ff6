//! The campaign-scoped workload cache: each `(workload, seed, cap)` matrix
//! is generated once and each `(workload, seed, cap, p)` tiling entry is
//! made once, then shared — across the 8-format sweep of a unit, across the
//! partition-size axis, and across every overlapping campaign a
//! [`CampaignRunner`](crate::CampaignRunner) executes (`repro_all`'s
//! figures re-visit the same suite matrices up to ten times).
//!
//! A tiling entry ([`CachedGrid`]) holds its matrix and builds the
//! [`PartitionGrid`] only on first use by a run that walks tiles, keeping
//! it for later units when it fits [`MAX_ENTRY_BYTES`]. A unit that prices
//! from structure measures the matrix instead ([`CachedGrid::measure`])
//! and never builds one.
//!
//! # Determinism
//!
//! Workload generation is a pure function of the key, so a cached matrix is
//! byte-identical to a regenerated one; hit/miss **counters** are a pure
//! function of the campaign's unit list — independent of the worker count,
//! of checkpoint resume, and of fault/retry schedules:
//!
//! * the campaign runner performs exactly **one counted grid lookup per
//!   unit**, at unit start, whether or not the unit's cells are already
//!   memoized or resumed from a checkpoint; refills after a failed attempt
//!   use the uncounted variants, so retries repeat work without repeating
//!   counts;
//! * grid keys are unique within one campaign (one unit per `(workload,
//!   p)`), so the set of grid lookups — and each lookup's hit/miss status,
//!   which only prior campaigns determine — never depends on scheduling;
//! * matrix lookups happen exactly once per grid *miss*; when two units of
//!   the same workload race to generate it, generation runs outside the
//!   lock and only the thread whose insert wins counts a miss — the loser
//!   counts the hit it would have scored under the sequential schedule.
//!
//! # Bounds
//!
//! Entries larger than [`MAX_ENTRY_BYTES`] are never admitted (they are
//! rebuilt per lookup, exactly the pre-cache behavior, and each rebuild
//! counts as a miss). A tiling entry is sized by what it holds: its
//! matrix, which decides admission (the matrix layer's own cap), and the
//! grid once built. A built grid over the cap is handed to the unit that
//! built it and not kept, so each unit that walks it builds it again. The
//! resident total — matrices, plus the grids kept (an entry's matrix is
//! the matrix layer's) — is pruned back to [`BUDGET_BYTES`] at the end of
//! every campaign — on the coordinator thread, in descending key order
//! (grids before matrices), so eviction is deterministic and never
//! perturbs an in-flight unit.

use crate::campaign::lock_clean;
use copernicus_hls::{GridStats, PlatformError, Session};
use copernicus_telemetry::{MetricsRegistry, Phase, PhaseProfiler};
use copernicus_workloads::Workload;
use sparsemat::{check_partition_size, Coo, Matrix, PartitionGrid, SparseError, Triplet};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-entry admission cap: anything larger is rebuilt per lookup instead
/// of cached (paper-scale dense-ish sweeps would otherwise evict the whole
/// suite).
pub const MAX_ENTRY_BYTES: u64 = 32 << 20;

/// Total resident budget the end-of-campaign prune enforces.
pub const BUDGET_BYTES: u64 = 256 << 20;

/// One `(workload, seed, cap, p)` tiling entry: the generated matrix, the
/// density every [`Measurement`](crate::Measurement) needs, and the
/// [`PartitionGrid`], built on first use by a run that walks tiles. Grid
/// hits skip the matrix layer entirely.
#[derive(Debug)]
pub struct CachedGrid {
    /// Density of the generating matrix.
    pub density: f64,
    matrix: Arc<Coo<f32>>,
    p: usize,
    /// The tiling, once built, when it fits [`MAX_ENTRY_BYTES`].
    grid: OnceLock<Arc<PartitionGrid<f32>>>,
}

impl CachedGrid {
    fn new(matrix: Arc<Coo<f32>>, p: usize) -> Self {
        CachedGrid {
            density: matrix.density(),
            matrix,
            p,
            grid: OnceLock::new(),
        }
    }

    /// The generated matrix.
    pub fn matrix(&self) -> &Coo<f32> {
        &self.matrix
    }

    /// The tiling, built on first use (the build lapped as
    /// [`Phase::Partition`] into `profiler`) and kept for later callers
    /// when it fits [`MAX_ENTRY_BYTES`]; a larger one is built per call.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures.
    pub fn grid(
        &self,
        profiler: Option<&PhaseProfiler>,
    ) -> Result<Arc<PartitionGrid<f32>>, SparseError> {
        if let Some(grid) = self.grid.get() {
            return Ok(Arc::clone(grid));
        }
        let built = {
            let _lap = profiler.map(|p| p.scope(Phase::Partition));
            Arc::new(PartitionGrid::new(&*self.matrix, self.p)?)
        };
        if grid_bytes(&built) > MAX_ENTRY_BYTES {
            return Ok(built);
        }
        Ok(Arc::clone(self.grid.get_or_init(|| built)))
    }

    /// Measures the matrix's tiles on `session` without building the grid.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Config`] when the session tiles at another `p`
    /// than this entry; otherwise as [`Session::measure`].
    pub fn measure(&self, session: &mut Session) -> Result<GridStats, PlatformError> {
        let p = session.config().partition_size;
        if p != self.p {
            return Err(PlatformError::Config(format!(
                "a session at p={p} cannot measure a tiling entry at p={}",
                self.p
            )));
        }
        session.measure(&self.matrix)
    }

    /// Resident bytes: the grid if kept. The matrix is the matrix layer's.
    fn resident_bytes(&self) -> u64 {
        std::mem::size_of::<CachedGrid>() as u64 + self.grid.get().map_or(0, |g| grid_bytes(g))
    }
}

/// Snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Matrix lookups served from the cache.
    pub matrix_hits: u64,
    /// Matrix lookups that generated (first access, lost race, oversized).
    pub matrix_misses: u64,
    /// Grid lookups served from the cache.
    pub grid_hits: u64,
    /// Grid lookups that partitioned.
    pub grid_misses: u64,
    /// Entries evicted by the end-of-campaign prune.
    pub evictions: u64,
    /// Resident matrices.
    pub matrices: usize,
    /// Resident grids.
    pub grids: usize,
    /// Estimated resident bytes across both layers.
    pub resident_bytes: u64,
}

/// Counter values at the last [`WorkloadCache::export`], so repeated
/// campaigns on one runner emit per-campaign deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Exported {
    matrix_hits: u64,
    matrix_misses: u64,
    grid_hits: u64,
    grid_misses: u64,
    evictions: u64,
}

/// Thread-safe, bounded matrix + tiling cache. See the [module
/// docs](self) for the key scheme and the determinism argument.
#[derive(Debug, Default)]
pub struct WorkloadCache {
    matrices: Mutex<BTreeMap<String, Arc<Coo<f32>>>>,
    grids: Mutex<BTreeMap<String, Arc<CachedGrid>>>,
    matrix_hits: AtomicU64,
    matrix_misses: AtomicU64,
    grid_hits: AtomicU64,
    grid_misses: AtomicU64,
    evictions: AtomicU64,
    exported: Mutex<Exported>,
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> Self {
        WorkloadCache::default()
    }

    /// The generated matrix for `workload` under `(max_dim, seed)`, shared
    /// when cached. Generation happens outside the lock; on a lost insert
    /// race the winner's copy is returned (identical bytes — generation is
    /// pure) and the lookup counts as the hit it would have been under the
    /// sequential schedule.
    pub fn matrix(&self, workload: &Workload, max_dim: usize, seed: u64) -> Arc<Coo<f32>> {
        self.matrix_impl(workload, max_dim, seed, true)
    }

    fn matrix_impl(
        &self,
        workload: &Workload,
        max_dim: usize,
        seed: u64,
        counted: bool,
    ) -> Arc<Coo<f32>> {
        let count = |c: &AtomicU64| {
            if counted {
                c.fetch_add(1, Ordering::Relaxed);
            }
        };
        let key = workload.cache_key(max_dim, seed);
        if let Some(m) = lock_clean(&self.matrices).get(&key) {
            count(&self.matrix_hits);
            return Arc::clone(m);
        }
        let generated = Arc::new(workload.generate(max_dim, seed));
        if coo_bytes(&generated) > MAX_ENTRY_BYTES {
            count(&self.matrix_misses);
            return generated;
        }
        match lock_clean(&self.matrices).entry(key) {
            Entry::Occupied(e) => {
                count(&self.matrix_hits);
                Arc::clone(e.get())
            }
            Entry::Vacant(v) => {
                count(&self.matrix_misses);
                v.insert(Arc::clone(&generated));
                generated
            }
        }
    }

    /// The tiling entry of `workload` at partition size `p` (with its
    /// matrix density), shared when cached. A miss pulls the matrix through
    /// [`matrix`](WorkloadCache::matrix) — so one unit's generation feeds
    /// every other partition size of the same workload — and builds no
    /// grid: [`CachedGrid::grid`] does, on first use. The entry is admitted
    /// when its matrix fits [`MAX_ENTRY_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures (invalid `p`).
    pub fn grid(
        &self,
        workload: &Workload,
        p: usize,
        max_dim: usize,
        seed: u64,
    ) -> Result<Arc<CachedGrid>, SparseError> {
        self.grid_impl(workload, p, max_dim, seed, true)
    }

    /// [`grid`](WorkloadCache::grid) without touching the hit/miss counters
    /// of either layer. The campaign runner meters exactly one counted grid
    /// lookup per unit; refills after a failed attempt go through here so
    /// retries never skew the counters (which must stay a pure function of
    /// the campaign's unit list — see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures (invalid `p`).
    pub(crate) fn grid_uncounted(
        &self,
        workload: &Workload,
        p: usize,
        max_dim: usize,
        seed: u64,
    ) -> Result<Arc<CachedGrid>, SparseError> {
        self.grid_impl(workload, p, max_dim, seed, false)
    }

    fn grid_impl(
        &self,
        workload: &Workload,
        p: usize,
        max_dim: usize,
        seed: u64,
        counted: bool,
    ) -> Result<Arc<CachedGrid>, SparseError> {
        let count = |c: &AtomicU64| {
            if counted {
                c.fetch_add(1, Ordering::Relaxed);
            }
        };
        let key = format!("{}|p={p}", workload.cache_key(max_dim, seed));
        if let Some(g) = lock_clean(&self.grids).get(&key) {
            count(&self.grid_hits);
            return Ok(Arc::clone(g));
        }
        let matrix = self.matrix_impl(workload, max_dim, seed, counted);
        check_partition_size(p)?;
        let built = Arc::new(CachedGrid::new(matrix, p));
        if coo_bytes(&built.matrix) > MAX_ENTRY_BYTES {
            count(&self.grid_misses);
            return Ok(built);
        }
        match lock_clean(&self.grids).entry(key) {
            Entry::Occupied(e) => {
                count(&self.grid_hits);
                Ok(Arc::clone(e.get()))
            }
            Entry::Vacant(v) => {
                count(&self.grid_misses);
                v.insert(Arc::clone(&built));
                Ok(built)
            }
        }
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let (matrices, grids, resident_bytes) = self.occupancy();
        CacheStats {
            matrix_hits: self.matrix_hits.load(Ordering::Relaxed),
            matrix_misses: self.matrix_misses.load(Ordering::Relaxed),
            grid_hits: self.grid_hits.load(Ordering::Relaxed),
            grid_misses: self.grid_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            matrices,
            grids,
            resident_bytes,
        }
    }

    /// Evicts entries — grids first, each layer in descending key order —
    /// until the resident estimate fits [`BUDGET_BYTES`]. Called by the
    /// runner on the coordinator thread after each campaign, so eviction
    /// order (and therefore every later hit/miss) is deterministic.
    pub fn prune(&self) {
        let (_, _, mut resident) = self.occupancy();
        if resident <= BUDGET_BYTES {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut grids = lock_clean(&self.grids);
            while resident > BUDGET_BYTES {
                let Some((key, g)) = grids.last_key_value().map(|(k, g)| (k.clone(), g.clone()))
                else {
                    break;
                };
                resident = resident.saturating_sub(g.resident_bytes());
                grids.remove(&key);
                evicted += 1;
            }
        }
        {
            let mut matrices = lock_clean(&self.matrices);
            while resident > BUDGET_BYTES {
                let Some((key, m)) = matrices
                    .last_key_value()
                    .map(|(k, m)| (k.clone(), m.clone()))
                else {
                    break;
                };
                resident = resident.saturating_sub(coo_bytes(&m));
                matrices.remove(&key);
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Emits the counter deltas since the previous export as `cache.*`
    /// counters. Zero deltas are skipped, so a campaign that never touched
    /// the cache leaves the registry byte-identical.
    pub fn export(&self, metrics: &MetricsRegistry) {
        let mut last = lock_clean(&self.exported);
        let now = Exported {
            matrix_hits: self.matrix_hits.load(Ordering::Relaxed),
            matrix_misses: self.matrix_misses.load(Ordering::Relaxed),
            grid_hits: self.grid_hits.load(Ordering::Relaxed),
            grid_misses: self.grid_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        };
        metrics.incr_nonzero("cache.matrix_hits", now.matrix_hits - last.matrix_hits);
        metrics.incr_nonzero(
            "cache.matrix_misses",
            now.matrix_misses - last.matrix_misses,
        );
        metrics.incr_nonzero("cache.grid_hits", now.grid_hits - last.grid_hits);
        metrics.incr_nonzero("cache.grid_misses", now.grid_misses - last.grid_misses);
        metrics.incr_nonzero("cache.evictions", now.evictions - last.evictions);
        *last = now;
    }

    fn occupancy(&self) -> (usize, usize, u64) {
        let matrices = lock_clean(&self.matrices);
        let grids = lock_clean(&self.grids);
        let bytes = matrices.values().map(|m| coo_bytes(m)).sum::<u64>()
            + grids.values().map(|g| g.resident_bytes()).sum::<u64>();
        (matrices.len(), grids.len(), bytes)
    }
}

/// Resident-size estimate of a COO matrix: header + triplet storage.
fn coo_bytes(m: &Coo<f32>) -> u64 {
    (std::mem::size_of::<Coo<f32>>() + m.nnz() * std::mem::size_of::<Triplet<f32>>()) as u64
}

/// Resident-size estimate of a tiling: header + per-partition headers +
/// every tile's triplet storage.
fn grid_bytes(grid: &PartitionGrid<f32>) -> u64 {
    (std::mem::size_of::<PartitionGrid<f32>>()
        + std::mem::size_of_val(grid.partitions())
        + grid.nnz() * std::mem::size_of::<Triplet<f32>>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: usize, density: f64) -> Workload {
        Workload::Random { n, density }
    }

    #[test]
    fn matrix_hits_after_first_generation_and_bytes_match() {
        let cache = WorkloadCache::new();
        let a = cache.matrix(&w(64, 0.1), 0, 7);
        let b = cache.matrix(&w(64, 0.1), 0, 7);
        assert_eq!(*a, *b);
        assert_eq!(*a, w(64, 0.1).generate(0, 7));
        let s = cache.stats();
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 1));
        assert_eq!(s.matrices, 1);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn keys_separate_seed_cap_and_spec() {
        let cache = WorkloadCache::new();
        cache.matrix(&w(64, 0.1), 0, 7);
        cache.matrix(&w(64, 0.1), 0, 8); // seed differs
        cache.matrix(&w(32, 0.1), 0, 7); // spec differs
        let suite = Workload::paper_suite()[0];
        cache.matrix(&suite, 128, 7);
        cache.matrix(&suite, 256, 7); // cap differs
        let s = cache.stats();
        assert_eq!(s.matrix_misses, 5);
        assert_eq!(s.matrix_hits, 0);
    }

    #[test]
    fn grid_hits_skip_the_matrix_layer() {
        let cache = WorkloadCache::new();
        let g1 = cache.grid(&w(64, 0.1), 16, 0, 7).unwrap();
        let g2 = cache.grid(&w(64, 0.1), 16, 0, 7).unwrap();
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(g1.density, g2.density);
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits), (1, 1));
        // The hit never consulted the matrix layer.
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 0));
        // A second partition size shares the generated matrix.
        cache.grid(&w(64, 0.1), 8, 0, 7).unwrap();
        let s = cache.stats();
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 1));
        assert_eq!(s.grids, 2);
    }

    #[test]
    fn cached_grid_is_byte_identical_to_a_fresh_build() {
        let cache = WorkloadCache::new();
        let cached = cache.grid(&w(48, 0.2), 16, 0, 3).unwrap();
        let matrix = w(48, 0.2).generate(0, 3);
        let fresh = PartitionGrid::new(&matrix, 16).unwrap();
        assert_eq!(*cached.matrix(), matrix);
        assert_eq!(cached.grid(None).unwrap().partitions(), fresh.partitions());
        assert_eq!(cached.density, matrix.density());
    }

    #[test]
    fn concurrent_lookups_count_like_the_sequential_schedule() {
        // 4 threads race the same (workload, p): one miss wins, three hits
        // — the exact totals a sequential 4-lookup schedule produces.
        let cache = std::sync::Arc::new(WorkloadCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || cache.grid(&w(96, 0.05), 16, 0, 9).unwrap());
            }
        });
        let s = cache.stats();
        assert_eq!(s.grid_misses + s.grid_hits, 4);
        assert_eq!(s.grid_misses, 1);
        assert_eq!(s.matrix_misses, 1);
        assert_eq!(s.grids, 1);
    }

    #[test]
    fn uncounted_lookups_share_entries_but_never_touch_the_counters() {
        let cache = WorkloadCache::new();
        // A cold uncounted lookup generates and inserts silently …
        let a = cache.grid_uncounted(&w(64, 0.1), 16, 0, 7).unwrap();
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits), (0, 0));
        assert_eq!((s.matrix_misses, s.matrix_hits), (0, 0));
        assert_eq!((s.grids, s.matrices), (1, 1));
        // … a warm one reads the shared entry silently …
        let b = cache.grid_uncounted(&w(64, 0.1), 16, 0, 7).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().grid_hits, 0);
        // … and a later counted lookup meters as if it ran the schedule
        // alone (here: a hit on the silently-inserted entry).
        cache.grid(&w(64, 0.1), 16, 0, 7).unwrap();
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits), (0, 1));
    }

    fn structural(p: usize) -> Session {
        Session::new(copernicus_hls::HwConfig {
            verify_functional: false,
            ..copernicus_hls::HwConfig::with_partition_size(p)
        })
        .unwrap()
    }

    #[test]
    fn measuring_builds_no_grid() {
        let cache = WorkloadCache::new();
        let entry = cache.grid(&w(64, 0.1), 16, 0, 7).unwrap();
        let unbuilt = cache.stats().resident_bytes;
        let stats = entry.measure(&mut structural(16)).unwrap();
        assert!(entry.grid.get().is_none());
        assert_eq!(cache.stats().resident_bytes, unbuilt);
        // A walking run builds the grid once; only then is it resident.
        let grid = entry.grid(None).unwrap();
        assert_eq!(grid.nonzero_tiles(), stats.tiles());
        assert!(Arc::ptr_eq(&grid, &entry.grid(None).unwrap()));
        assert!(cache.stats().resident_bytes > unbuilt);
        // A session at another p would measure another tiling.
        assert!(matches!(
            entry.measure(&mut structural(8)),
            Err(PlatformError::Config(_))
        ));
    }

    #[test]
    fn a_grid_over_the_entry_cap_is_built_per_use_and_never_kept() {
        // 640,000 entries (15 MB of triplets) in 474,079 tiles at p = 8:
        // 42 MB as a grid, over the entry cap. The entry, sized by its
        // matrix, is admitted; its grid is not.
        let big = w(8000, 0.01);
        let cache = WorkloadCache::new();
        let entry = cache.grid(&big, 8, 0, 42).unwrap();
        let unbuilt = cache.stats().resident_bytes;
        let grid = entry.grid(None).unwrap();
        assert!(grid_bytes(&grid) > MAX_ENTRY_BYTES);
        assert!(entry.grid.get().is_none());
        assert!(!Arc::ptr_eq(&grid, &entry.grid(None).unwrap()));
        assert_eq!(cache.stats().resident_bytes, unbuilt);
        // The next lookup is a hit on the admitted entry.
        assert!(Arc::ptr_eq(&entry, &cache.grid(&big, 8, 0, 42).unwrap()));
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits, s.grids), (1, 1, 1));
    }

    #[test]
    fn prune_evicts_in_descending_key_order_until_budget() {
        let cache = WorkloadCache::new();
        for seed in 0..6 {
            cache.grid(&w(64, 0.2), 16, 0, seed).unwrap();
        }
        // Budget is far above these tiny entries: prune is a no-op.
        cache.prune();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().grids, 6);
    }

    #[test]
    fn export_emits_nonzero_deltas_once() {
        let cache = WorkloadCache::new();
        cache.grid(&w(64, 0.1), 16, 0, 7).unwrap();
        cache.grid(&w(64, 0.1), 16, 0, 7).unwrap();
        let metrics = MetricsRegistry::new();
        cache.export(&metrics);
        assert_eq!(metrics.counter("cache.grid_misses"), 1);
        assert_eq!(metrics.counter("cache.grid_hits"), 1);
        assert_eq!(metrics.counter("cache.matrix_misses"), 1);
        // No activity since: a second export adds nothing and creates no
        // zero-valued counters.
        cache.export(&metrics);
        assert_eq!(metrics.counter("cache.grid_misses"), 1);
        assert!(!metrics
            .counter_names()
            .contains(&"cache.evictions".to_string()));
    }
}
