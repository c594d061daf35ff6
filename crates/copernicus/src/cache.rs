//! The campaign-scoped workload cache: each `(workload, seed, cap)` matrix
//! is generated once and each `(workload, seed, cap, p)` tiling entry is
//! made once, then shared — across the 8-format sweep of a unit, across the
//! partition-size axis, and across every campaign a
//! [`CampaignRunner`](crate::CampaignRunner) executes (`repro_all`'s Fig. 3
//! primes the grids its campaign then looks up).
//!
//! A cached matrix is made in the form each unit needs. A unit that prices
//! from structure (verification and codec off) gets only its
//! [`RowPattern`], generated straight from the workload
//! ([`Workload::pattern`]) with no triplet list ever made, and measures it
//! ([`CachedGrid::pattern`]): every partition size of a workload is
//! measured from that one pattern, and no grid is built. A unit that walks
//! tiles gets the generated [`Coo`], and its tiling entry ([`CachedGrid`])
//! builds the [`PartitionGrid`] on first use, keeping it for later units
//! when it fits [`MAX_ENTRY_BYTES`]. A matrix without a pattern is
//! generated as a [`Coo`] for structural units too, and walked through its
//! grid. A matrix asked for in both forms holds both; a pattern asked for
//! after the matrix was generated is read off it.
//!
//! # Single flight
//!
//! A lookup takes the cache's lock once: it finds the tiling entry, or
//! makes one over the matrix entry it finds or inserts empty. The matrix or
//! its pattern is generated outside the lock, on first use of the entry,
//! so concurrent lookups of one matrix wait for one generation. An entry
//! whose generation panicked stays empty, and the next use fills it.
//!
//! # Determinism
//!
//! Workload generation is a pure function of the key, so a cached matrix is
//! byte-identical to a regenerated one; hit/miss **counters** are a pure
//! function of the campaign's unit list — independent of the worker count,
//! of checkpoint resume, and of fault/retry schedules:
//!
//! * the campaign runner performs exactly **one grid lookup per unit**, at
//!   unit start, whether or not the unit's cells are already memoized or
//!   resumed from a checkpoint; every attempt at the unit's cells reads
//!   that lookup's result, so retries repeat work without repeating counts;
//! * grid keys are unique within one campaign (one unit per `(workload,
//!   p)`), so the set of grid lookups — and each lookup's hit/miss status,
//!   which only prior campaigns determine — never depends on scheduling;
//! * a lookup of a matrix over [`MAX_ENTRY_BYTES`] counts a miss in both
//!   layers. Any other lookup counts a grid hit when its tiling entry was
//!   in the map, and otherwise a grid miss plus a matrix hit or miss, by
//!   whether its matrix was. The first lookup of a key inserts it under
//!   the lock whichever worker runs it, so the totals are the sequential
//!   schedule's.
//!
//! # Bounds
//!
//! A lookup is charged and admitted at the size of what it made: a
//! structural lookup at its pattern's heap bytes (8 per row plus 4 per
//! entry), any other at its matrix's triplets (24 per entry); so a
//! matrix over the cap as triplets may be kept as a pattern. A matrix
//! whose lookup comes out larger than [`MAX_ENTRY_BYTES`] is not kept. It
//! moves to a map of weak references: later lookups share it while a unit
//! still holds it through its [`CachedGrid`], and it is freed when its last
//! holder drops it. Its tiling entries are not kept either. Every other
//! tiling entry is sized by what it holds: its matrix, which decides
//! admission (the matrix layer's own cap), and the grid once built. A
//! built grid over the cap is handed to the unit that built it and not
//! kept, so each unit that walks it builds it again. The resident total —
//! every matrix's triplets and pattern, whichever it holds, plus the grids
//! kept (an entry's matrix is the matrix layer's); weakly held matrices
//! carry none — is pruned back to [`BUDGET_BYTES`] at the end of every
//! campaign — on the coordinator thread, in descending key order (grids
//! before matrices), so eviction is deterministic and never perturbs an
//! in-flight unit.

use crate::campaign::lock_clean;
use copernicus_telemetry::{MetricsRegistry, Phase, PhaseProfiler};
use copernicus_workloads::Workload;
use sparsemat::{
    check_partition_size, Coo, Matrix, PartitionGrid, RowPattern, SparseError, Triplet,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Per-entry admission cap: a matrix or grid any larger is not kept
/// (paper-scale dense-ish sweeps would otherwise evict the whole suite).
pub const MAX_ENTRY_BYTES: u64 = 32 << 20;

/// Total resident budget the end-of-campaign prune enforces.
pub const BUDGET_BYTES: u64 = 256 << 20;

/// One matrix, in the forms its units have asked for, each made on first
/// use: its [`Coo`], for units that walk tiles, and its [`RowPattern`],
/// for units that price from structure. A matrix that only units pricing
/// from structure have asked for holds no triplets.
#[derive(Debug)]
struct CachedMatrix {
    workload: Workload,
    max_dim: usize,
    seed: u64,
    /// `workload.generate(max_dim, seed)`, once generated.
    coo: OnceLock<Coo<f32>>,
    /// `workload.pattern(max_dim, seed)`, once made (`None` inside: the
    /// matrix has no pattern).
    pattern: OnceLock<Option<RowPattern>>,
}

impl CachedMatrix {
    fn new(workload: Workload, max_dim: usize, seed: u64) -> Self {
        CachedMatrix {
            workload,
            max_dim,
            seed,
            coo: OnceLock::new(),
            pattern: OnceLock::new(),
        }
    }

    /// The matrix, generated on first use; concurrent callers wait for
    /// the one generation. Also the generation's wall time, when this call
    /// ran it.
    fn generate(&self) -> (&Coo<f32>, Option<Duration>) {
        let mut took = None;
        let coo = self.coo.get_or_init(|| {
            let start = Instant::now();
            let coo = self.workload.generate(self.max_dim, self.seed);
            took = Some(start.elapsed());
            coo
        });
        (coo, took)
    }

    fn coo(&self) -> &Coo<f32> {
        self.generate().0
    }

    /// The row pattern, made on first use; concurrent callers wait for the
    /// one making. It is read off the matrix when that is already
    /// generated (lapped as [`Phase::Partition`] into `profiler`), and
    /// otherwise generated straight from the workload
    /// ([`Workload::pattern`]), whose wall time is returned to this call.
    fn pattern(&self, profiler: Option<&PhaseProfiler>) -> (Option<&RowPattern>, Option<Duration>) {
        let mut took = None;
        let pattern = self.pattern.get_or_init(|| match self.coo.get() {
            Some(coo) => {
                let _lap = profiler.map(|p| p.scope(Phase::Partition));
                RowPattern::new(coo)
            }
            None => {
                let start = Instant::now();
                let pattern = self.workload.pattern(self.max_dim, self.seed);
                took = Some(start.elapsed());
                pattern
            }
        });
        (pattern.as_ref(), took)
    }

    /// What a lookup fills, on first use: the pattern for a unit that
    /// prices from structure, or the matrix for one that walks (and for a
    /// unit pricing from structure, when the matrix has no pattern). Also
    /// the bytes the lookup is charged and admitted at, and the wall time
    /// this call spent generating.
    fn fill(&self, structural: bool, profiler: Option<&PhaseProfiler>) -> (u64, Option<Duration>) {
        let (pattern, made) = if structural {
            self.pattern(profiler)
        } else {
            (None, None)
        };
        if let Some(pattern) = pattern {
            return (pattern.heap_bytes() as u64, made);
        }
        let (coo, generated) = self.generate();
        let took = [made, generated].into_iter().flatten().reduce(|a, b| a + b);
        (coo_bytes(coo), took)
    }

    /// Resident bytes: the triplets once generated, plus the pattern once
    /// made.
    fn resident_bytes(&self) -> u64 {
        let pattern = self.pattern.get().and_then(Option::as_ref);
        self.coo.get().map_or(0, coo_bytes) + pattern.map_or(0, |p| p.heap_bytes() as u64)
    }
}

/// One `(workload, seed, cap, p)` tiling entry: the matrix, and the
/// [`PartitionGrid`], built on first use by a run that walks tiles. Grid
/// hits skip the matrix layer entirely.
#[derive(Debug)]
pub struct CachedGrid {
    matrix: Arc<CachedMatrix>,
    p: usize,
    /// The tiling, once built, when it fits [`MAX_ENTRY_BYTES`].
    grid: OnceLock<Arc<PartitionGrid<f32>>>,
}

impl CachedGrid {
    fn new(matrix: Arc<CachedMatrix>, p: usize) -> Self {
        CachedGrid {
            matrix,
            p,
            grid: OnceLock::new(),
        }
    }

    /// The generated matrix, generated on first use.
    pub fn matrix(&self) -> &Coo<f32> {
        self.matrix.coo()
    }

    /// Density of the matrix, which every
    /// [`Measurement`](crate::Measurement) records: read off the pattern
    /// when the matrix has one made, otherwise off the generated matrix.
    /// The two agree to the bit.
    pub fn density(&self) -> f64 {
        match self.matrix.pattern.get() {
            Some(Some(pattern)) => pattern.density(),
            _ => self.matrix().density(),
        }
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
            Arc::new(PartitionGrid::new(self.matrix(), self.p)?)
        };
        if grid_bytes(&built) > MAX_ENTRY_BYTES {
            return Ok(built);
        }
        Ok(Arc::clone(self.grid.get_or_init(|| built)))
    }

    /// The matrix's row pattern, which a unit that prices from structure
    /// measures instead of building the grid, shared with every other
    /// partition size of the same matrix: the one a structural lookup
    /// generated, or else read off the generated matrix now (lapped as
    /// [`Phase::Partition`] into `profiler`). `None` when the matrix has no
    /// pattern, and its units walk the grid.
    pub fn pattern(&self, profiler: Option<&PhaseProfiler>) -> Option<&RowPattern> {
        self.matrix.pattern(profiler).0
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
    /// Matrix lookups that generated (first access) or found a matrix over
    /// the entry cap.
    pub matrix_misses: u64,
    /// Grid lookups served from the cache.
    pub grid_hits: u64,
    /// Grid lookups that made a tiling entry, or found one over the entry
    /// cap.
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

/// Both layers' entries, behind one lock.
#[derive(Debug, Default)]
struct Entries {
    grids: BTreeMap<String, Arc<CachedGrid>>,
    matrices: BTreeMap<String, Arc<CachedMatrix>>,
    /// Matrices over [`MAX_ENTRY_BYTES`], shared while a unit holds one.
    held: BTreeMap<String, Weak<CachedMatrix>>,
}

impl Entries {
    /// The matrix entry under `key`, kept or still held, and whether it
    /// was there; otherwise a new one, not yet generated, inserted.
    fn matrix(
        &mut self,
        key: &str,
        workload: &Workload,
        max_dim: usize,
        seed: u64,
    ) -> (Arc<CachedMatrix>, bool) {
        let found = self
            .matrices
            .get(key)
            .cloned()
            .or_else(|| self.held.get(key).and_then(Weak::upgrade));
        match found {
            Some(m) => (m, true),
            None => {
                let m = Arc::new(CachedMatrix::new(*workload, max_dim, seed));
                self.matrices.insert(key.to_string(), Arc::clone(&m));
                (m, false)
            }
        }
    }
}

/// Thread-safe, bounded matrix + tiling cache. See the [module
/// docs](self) for the key scheme and the determinism argument.
#[derive(Debug, Default)]
pub struct WorkloadCache {
    entries: Mutex<Entries>,
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

    /// The tiling entry of `workload` at partition size `p` under
    /// `(max_dim, seed)`, shared when cached. A miss makes the entry over
    /// the matrix layer's — so one unit's generation feeds every other
    /// partition size of the same workload — and builds no grid:
    /// [`CachedGrid::grid`] does, on first use. The matrix is filled in
    /// the form the unit needs: its row pattern alone when the unit prices
    /// from `structural` data, otherwise (and for a matrix without a
    /// pattern) its generated triplets. See the module docs for the single
    /// flight, the counters and the entry cap.
    ///
    /// The lookup is lapped into `profiler`: a generation as
    /// [`Phase::Generate`], the rest of the lookup (waits on another
    /// lookup's generation included) as [`Phase::CacheLookup`], so the two
    /// never overlap.
    ///
    /// # Errors
    ///
    /// An invalid `p`, before anything is generated or counted.
    pub(crate) fn lookup(
        &self,
        workload: &Workload,
        p: usize,
        max_dim: usize,
        seed: u64,
        structural: bool,
        profiler: Option<&PhaseProfiler>,
    ) -> Result<Arc<CachedGrid>, SparseError> {
        check_partition_size(p)?;
        let start = Instant::now();
        let key = workload.cache_key(max_dim, seed);
        let grid_key = format!("{key}|p={p}");
        let (entry, grid_found, matrix_found) = {
            let mut entries = lock_clean(&self.entries);
            match entries.grids.get(&grid_key) {
                Some(g) => (Arc::clone(g), true, true),
                None => {
                    let (matrix, found) = entries.matrix(&key, workload, max_dim, seed);
                    let g = Arc::new(CachedGrid::new(matrix, p));
                    entries.grids.insert(grid_key.clone(), Arc::clone(&g));
                    (g, false, found)
                }
            }
        };
        let (bytes, generating) = entry.matrix.fill(structural, profiler);
        let kept = bytes <= MAX_ENTRY_BYTES;
        if !kept {
            // Keep neither entry; lookups share the matrix only while a
            // unit holds it.
            let mut entries = lock_clean(&self.entries);
            entries.grids.remove(&grid_key);
            if let Some(m) = entries.matrices.remove(&key) {
                entries.held.insert(key, Arc::downgrade(&m));
            }
        }
        let count = |c: &AtomicU64| c.fetch_add(1, Ordering::Relaxed);
        if kept && grid_found {
            count(&self.grid_hits);
        } else {
            count(&self.grid_misses);
            count(if kept && matrix_found {
                &self.matrix_hits
            } else {
                &self.matrix_misses
            });
        }
        if let Some(profiler) = profiler {
            if let Some(took) = generating {
                profiler.record(Phase::Generate, took.as_secs_f64());
            }
            let looking = start
                .elapsed()
                .saturating_sub(generating.unwrap_or_default());
            profiler.record(Phase::CacheLookup, looking.as_secs_f64());
        }
        Ok(entry)
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
    /// until the resident estimate fits [`BUDGET_BYTES`], and forgets the
    /// weakly held matrices no unit holds any more. Called by the runner
    /// on the coordinator thread after each campaign, so eviction order
    /// (and therefore every later hit/miss) is deterministic.
    pub fn prune(&self) {
        let (_, _, mut resident) = self.occupancy();
        let mut entries = lock_clean(&self.entries);
        entries.held.retain(|_, m| m.strong_count() > 0);
        let mut evicted = 0u64;
        while resident > BUDGET_BYTES {
            let Some((_, g)) = entries.grids.pop_last() else {
                break;
            };
            resident = resident.saturating_sub(g.resident_bytes());
            evicted += 1;
        }
        while resident > BUDGET_BYTES {
            let Some((_, m)) = entries.matrices.pop_last() else {
                break;
            };
            resident = resident.saturating_sub(m.resident_bytes());
            evicted += 1;
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
        let entries = lock_clean(&self.entries);
        let bytes = entries
            .matrices
            .values()
            .map(|m| m.resident_bytes())
            .sum::<u64>()
            + entries
                .grids
                .values()
                .map(|g| g.resident_bytes())
                .sum::<u64>();
        (entries.matrices.len(), entries.grids.len(), bytes)
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
    use copernicus_hls::{HwConfig, Session};

    /// A lookup's `structural` argument: for a unit that walks tiles, or
    /// for one that prices from structure.
    const WALK: bool = false;
    const MEASURE: bool = true;

    fn w(n: usize, density: f64) -> Workload {
        Workload::Random { n, density }
    }

    #[test]
    fn matrix_hits_after_first_generation_and_bytes_match() {
        // Two partition sizes of one workload: two tiling entries over one
        // generated matrix.
        let cache = WorkloadCache::new();
        let a = cache.lookup(&w(64, 0.1), 16, 0, 7, WALK, None).unwrap();
        let b = cache.lookup(&w(64, 0.1), 8, 0, 7, WALK, None).unwrap();
        assert!(Arc::ptr_eq(&a.matrix, &b.matrix));
        assert_eq!(*a.matrix(), w(64, 0.1).generate(0, 7));
        let s = cache.stats();
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 1));
        assert_eq!(s.matrices, 1);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn keys_separate_seed_cap_and_spec() {
        let cache = WorkloadCache::new();
        let lookup = |workload: &Workload, max_dim, seed| {
            cache
                .lookup(workload, 16, max_dim, seed, WALK, None)
                .unwrap();
        };
        lookup(&w(64, 0.1), 0, 7);
        lookup(&w(64, 0.1), 0, 8); // seed differs
        lookup(&w(32, 0.1), 0, 7); // spec differs
        let suite = Workload::paper_suite()[0];
        lookup(&suite, 128, 7);
        lookup(&suite, 256, 7); // cap differs
        let s = cache.stats();
        assert_eq!(s.matrix_misses, 5);
        assert_eq!(s.matrix_hits, 0);
    }

    #[test]
    fn grid_hits_skip_the_matrix_layer() {
        let cache = WorkloadCache::new();
        let g1 = cache.lookup(&w(64, 0.1), 16, 0, 7, WALK, None).unwrap();
        let g2 = cache.lookup(&w(64, 0.1), 16, 0, 7, WALK, None).unwrap();
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(g1.density(), g2.density());
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits), (1, 1));
        // The hit never consulted the matrix layer.
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 0));
        // A second partition size shares the generated matrix.
        cache.lookup(&w(64, 0.1), 8, 0, 7, WALK, None).unwrap();
        let s = cache.stats();
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 1));
        assert_eq!(s.grids, 2);
    }

    #[test]
    fn cached_grid_is_byte_identical_to_a_fresh_build() {
        let cache = WorkloadCache::new();
        let cached = cache.lookup(&w(48, 0.2), 16, 0, 3, WALK, None).unwrap();
        let matrix = w(48, 0.2).generate(0, 3);
        let fresh = PartitionGrid::new(&matrix, 16).unwrap();
        assert_eq!(*cached.matrix(), matrix);
        assert_eq!(cached.grid(None).unwrap().partitions(), fresh.partitions());
        assert_eq!(cached.density(), matrix.density());
    }

    #[test]
    fn concurrent_lookups_share_one_generation() {
        // 4 threads look one key up at once, on a matrix that takes
        // milliseconds to generate: one generation, one miss, three hits —
        // the sequential schedule's totals.
        let cache = WorkloadCache::new();
        let profiler = PhaseProfiler::new();
        let start = std::sync::Barrier::new(4);
        let entries: Vec<Arc<CachedGrid>> = std::thread::scope(|scope| {
            let lookups: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache
                            .lookup(&w(2000, 0.05), 16, 0, 9, WALK, Some(&profiler))
                            .unwrap()
                    })
                })
                .collect();
            lookups.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(entries.iter().all(|e| Arc::ptr_eq(e, &entries[0])));
        let laps = profiler.histogram(Phase::Generate).map_or(0, |h| h.count());
        assert_eq!(laps, 1);
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits), (1, 3));
        assert_eq!((s.matrix_misses, s.matrix_hits), (1, 0));
        assert_eq!((s.grids, s.matrices), (1, 1));
    }

    #[test]
    fn a_matrix_over_the_entry_cap_is_shared_only_while_held() {
        // About 1.6M entries, 39 MB of triplets: over the entry cap.
        let big = Workload::Band {
            n: 25_000,
            width: 64,
        };
        let cache = WorkloadCache::new();
        let profiler = PhaseProfiler::new();
        let laps = || profiler.histogram(Phase::Generate).map_or(0, |h| h.count());
        let at8 = cache.lookup(&big, 8, 0, 42, WALK, Some(&profiler)).unwrap();
        assert!(coo_bytes(at8.matrix()) > MAX_ENTRY_BYTES);
        let at16 = cache
            .lookup(&big, 16, 0, 42, WALK, Some(&profiler))
            .unwrap();
        assert!(Arc::ptr_eq(&at8.matrix, &at16.matrix));
        assert_eq!(laps(), 1);
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits), (2, 0));
        assert_eq!((s.matrix_misses, s.matrix_hits), (2, 0));
        assert_eq!((s.grids, s.matrices, s.resident_bytes), (0, 0, 0));
        // Once no unit holds it, it is freed, and the next lookup generates
        // it again.
        drop((at8, at16));
        cache.lookup(&big, 8, 0, 42, WALK, Some(&profiler)).unwrap();
        assert_eq!(laps(), 2);
        assert_eq!(cache.stats().matrix_misses, 3);
        // The prune forgets the weak references no unit holds.
        cache.prune();
        assert!(lock_clean(&cache.entries).held.is_empty());
    }

    fn structural(p: usize) -> Session {
        Session::new(HwConfig {
            verify_functional: false,
            ..HwConfig::with_partition_size(p)
        })
        .unwrap()
    }

    #[test]
    fn a_structural_lookup_makes_the_pattern_alone() {
        // The pattern is made straight from the workload: the cache holds
        // its bytes and no triplets, and measuring builds no grid.
        let cache = WorkloadCache::new();
        let profiler = PhaseProfiler::new();
        let count = |phase| profiler.histogram(phase).map_or(0, |h| h.count());
        let entry = cache
            .lookup(&w(64, 0.1), 16, 0, 7, MEASURE, Some(&profiler))
            .unwrap();
        let pattern = entry.pattern(Some(&profiler)).unwrap();
        assert_eq!(Some(pattern), w(64, 0.1).pattern(0, 7).as_ref());
        assert!(entry.matrix.coo.get().is_none());
        // The matrix layer holds the pattern; the tiling entry, its header.
        assert_eq!(entry.matrix.resident_bytes(), pattern.heap_bytes() as u64);
        assert_eq!(
            cache.stats().resident_bytes,
            entry.resident_bytes() + pattern.heap_bytes() as u64
        );
        assert_eq!((count(Phase::Generate), count(Phase::Partition)), (1, 0));
        let stats = structural(16).measure(pattern).unwrap();
        assert!(entry.grid.get().is_none());
        assert_eq!(
            entry.density().to_bits(),
            w(64, 0.1).generate(0, 7).density().to_bits()
        );
        // A later walking lookup of the key is a hit that gets the
        // generated matrix; its grid is built once, and both stay.
        let walked = cache.lookup(&w(64, 0.1), 16, 0, 7, WALK, None).unwrap();
        assert!(Arc::ptr_eq(&entry, &walked));
        assert_eq!(*walked.matrix(), w(64, 0.1).generate(0, 7));
        let grid = walked.grid(None).unwrap();
        assert_eq!(grid.nonzero_tiles(), stats.tiles());
        assert!(Arc::ptr_eq(&grid, &walked.grid(None).unwrap()));
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits, s.matrix_misses), (1, 1, 1));
        assert!(s.resident_bytes > coo_bytes(walked.matrix()) + pattern.heap_bytes() as u64);
    }

    #[test]
    fn a_pattern_is_read_off_a_matrix_already_generated() {
        // A walking lookup generated the matrix: a unit that measures
        // later reads the pattern off it, lapped as a partition build.
        let cache = WorkloadCache::new();
        let profiler = PhaseProfiler::new();
        let count = |phase| profiler.histogram(phase).map_or(0, |h| h.count());
        let entry = cache
            .lookup(&w(64, 0.1), 16, 0, 7, WALK, Some(&profiler))
            .unwrap();
        let unmeasured = cache.stats().resident_bytes;
        let pattern = entry.pattern(Some(&profiler)).unwrap();
        assert_eq!(Some(pattern), RowPattern::new(entry.matrix()).as_ref());
        assert_eq!((count(Phase::Generate), count(Phase::Partition)), (1, 1));
        assert_eq!(
            cache.stats().resident_bytes,
            unmeasured + pattern.heap_bytes() as u64
        );
    }

    #[test]
    fn partition_sizes_share_one_pattern_and_the_counters_hold() {
        // The three paper partition sizes of one workload, measured: one
        // generation, of the pattern alone, and no partition build; the
        // lookups count exactly as walking ones do.
        let walked = WorkloadCache::new();
        let measured = WorkloadCache::new();
        let profiler = PhaseProfiler::new();
        for p in sparsemat::partition::PAPER_PARTITION_SIZES {
            walked.lookup(&w(64, 0.1), p, 0, 7, WALK, None).unwrap();
            let entry = measured
                .lookup(&w(64, 0.1), p, 0, 7, MEASURE, Some(&profiler))
                .unwrap();
            let pattern = entry.pattern(Some(&profiler)).unwrap();
            let stats = structural(p).measure(pattern).unwrap();
            let fresh = RowPattern::new(&w(64, 0.1).generate(0, 7)).unwrap();
            assert_eq!(stats, structural(p).measure(&fresh).unwrap());
        }
        let count = |phase| profiler.histogram(phase).map_or(0, |h| h.count());
        assert_eq!(count(Phase::Generate), 1);
        assert_eq!(count(Phase::Partition), 0);
        assert_eq!(count(Phase::CacheLookup), 3);
        let (a, b) = (walked.stats(), measured.stats());
        assert_eq!(
            (a.matrix_hits, a.matrix_misses, a.grid_hits, a.grid_misses),
            (b.matrix_hits, b.matrix_misses, b.grid_hits, b.grid_misses)
        );
        assert_eq!((b.matrix_misses, b.matrix_hits, b.grid_misses), (1, 2, 3));
        // 65 row pointers and one `u32` per entry, against 24 bytes an
        // entry of triplets.
        let entries = w(64, 0.1).generate(0, 7).nnz() as u64;
        let grids = 3 * std::mem::size_of::<CachedGrid>() as u64;
        assert_eq!(b.resident_bytes, grids + 65 * 8 + 4 * entries);
        assert!(a.resident_bytes > grids + 24 * entries);
    }

    #[test]
    fn a_matrix_is_admitted_at_the_size_of_what_its_lookup_made() {
        // 1.6M entries: 39 MB of triplets, over the entry cap, but a
        // 6.6 MB pattern, which a structural lookup is charged and keeps.
        let big = Workload::Band {
            n: 25_000,
            width: 64,
        };
        let cache = WorkloadCache::new();
        let entry = cache.lookup(&big, 8, 0, 42, MEASURE, None).unwrap();
        let bytes = entry.pattern(None).unwrap().heap_bytes() as u64;
        assert!(bytes < MAX_ENTRY_BYTES);
        cache.lookup(&big, 16, 0, 42, MEASURE, None).unwrap();
        let s = cache.stats();
        assert_eq!((s.matrix_misses, s.matrix_hits, s.matrices), (1, 1, 1));
        let grids = 2 * std::mem::size_of::<CachedGrid>() as u64;
        assert_eq!(s.resident_bytes, grids + bytes);
    }

    #[test]
    fn a_matrix_without_a_pattern_is_generated_once_for_a_structural_lookup() {
        // 5 entries over 70,000 rows: no pattern, so the lookup generates
        // the matrix its units walk, in one lap.
        let sparse = w(70_000, 1e-9);
        let cache = WorkloadCache::new();
        let profiler = PhaseProfiler::new();
        let entry = cache
            .lookup(&sparse, 16, 0, 7, MEASURE, Some(&profiler))
            .unwrap();
        assert!(entry.pattern(Some(&profiler)).is_none());
        assert_eq!(*entry.matrix(), sparse.generate(0, 7));
        let laps = profiler.histogram(Phase::Generate).map_or(0, |h| h.count());
        assert_eq!(laps, 1);
        assert_eq!(cache.stats().matrix_misses, 1);
    }

    #[test]
    fn a_grid_over_the_entry_cap_is_built_per_use_and_never_kept() {
        // 640,000 entries (15 MB of triplets) in 474,079 tiles at p = 8:
        // 42 MB as a grid, over the entry cap. The entry, sized by its
        // matrix, is admitted; its grid is not.
        let big = w(8000, 0.01);
        let cache = WorkloadCache::new();
        let entry = cache.lookup(&big, 8, 0, 42, WALK, None).unwrap();
        let unbuilt = cache.stats().resident_bytes;
        let grid = entry.grid(None).unwrap();
        assert!(grid_bytes(&grid) > MAX_ENTRY_BYTES);
        assert!(entry.grid.get().is_none());
        assert!(!Arc::ptr_eq(&grid, &entry.grid(None).unwrap()));
        assert_eq!(cache.stats().resident_bytes, unbuilt);
        // The next lookup is a hit on the admitted entry.
        assert!(Arc::ptr_eq(
            &entry,
            &cache.lookup(&big, 8, 0, 42, WALK, None).unwrap()
        ));
        let s = cache.stats();
        assert_eq!((s.grid_misses, s.grid_hits, s.grids), (1, 1, 1));
    }

    #[test]
    fn prune_evicts_in_descending_key_order_until_budget() {
        let cache = WorkloadCache::new();
        for seed in 0..6 {
            cache.lookup(&w(64, 0.2), 16, 0, seed, WALK, None).unwrap();
        }
        // Budget is far above these tiny entries: prune is a no-op.
        cache.prune();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().grids, 6);
    }

    #[test]
    fn export_emits_nonzero_deltas_once() {
        let cache = WorkloadCache::new();
        cache.lookup(&w(64, 0.1), 16, 0, 7, WALK, None).unwrap();
        cache.lookup(&w(64, 0.1), 16, 0, 7, WALK, None).unwrap();
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
