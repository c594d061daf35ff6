//! The parallel campaign executor: runs the `workload × partition size ×
//! format` measurement grid across OS threads with results that are
//! **bit-identical and identically ordered** to the sequential path.
//!
//! # Threading model
//!
//! The grid is split into *units* of one `(workload, partition size)` pair;
//! a unit generates its matrix and tiling once and sweeps every format over
//! the shared grid, exactly like the sequential loop in
//! [`characterize`](crate::characterize). Units are independent, so a pool
//! of `jobs` scoped OS threads ([`std::thread::scope`] — no external
//! dependencies) drains them from a bounded work queue (an atomic cursor
//! over the unit list; no unit is ever buffered twice).
//!
//! # Determinism argument
//!
//! Every cell of the grid is a pure function of `(workload spec, seed,
//! partition size, format, HwConfig)`: workload generation is seeded, and
//! the platform model is cycle-exact with no wall-clock inputs. Workers
//! therefore compute the same bytes regardless of scheduling; the runner
//! collects per-unit results and emits them sorted by grid index, so the
//! measurement vector, the metrics registry and the trace stream are
//! byte-for-byte independent of `jobs` (test-enforced for `--jobs 1` vs
//! `--jobs 8`).
//!
//! Telemetry under parallelism: each worker records pipeline events into a
//! private per-unit buffer ([`RecordingSink`]); after the pool joins, the
//! buffers are replayed into the campaign's real sink in grid order (within
//! a unit, events are already in nondecreasing modeled-cycle order), and the
//! [`MetricsRegistry`](copernicus_telemetry::MetricsRegistry) is shared —
//! it is atomic and order-independent.
//!
//! Wall-clock observability (the optional
//! [`ProgressReporter`] heartbeat
//! and [`PhaseProfiler`] phase/worker
//! timings) rides alongside: workers tick shared atomic counters and local
//! timers, none of which feed the deterministic artifacts above.
//!
//! # Memoization
//!
//! The runner carries a cache keyed on `(workload spec, seed, suite cap,
//! partition size, format, HwConfig)`. Figure campaigns overlap heavily —
//! `repro_all`'s shared campaign re-sweeps every cell Figs. 4–6/10/11
//! already computed — so one runner handed to every figure computes each
//! overlapping cell exactly once. Cache hits replay the stored
//! [`Measurement`] without re-running the platform (and therefore without
//! re-emitting trace spans); hit/miss behavior depends only on the call
//! sequence, never on `jobs`, so determinism is preserved.
//!
//! Below the cell memo sits the [`WorkloadCache`](crate::cache): cells that
//! do run share one generated matrix per `(workload, seed, cap)` and one
//! tiling per `(…, p)` — across the format sweep, across partition sizes,
//! and across campaigns. See [`cache`](crate::cache) for the bounds and the
//! jobs-invariance argument for its hit/miss counters, which are exported
//! as `cache.*` metrics after each campaign.
//!
//! # Fault tolerance
//!
//! Campaigns survive partial failure instead of discarding completed work
//! (see [`fault`](crate::fault) for the taxonomy and policy):
//!
//! * **Panic isolation** — each cell's computation runs under
//!   [`std::panic::catch_unwind`], so one wedged worker cannot take down
//!   the pool, and every lock in the runner recovers from poisoning (a
//!   panicking thread must surface *its* failure, not a cascade of
//!   `PoisonError`s).
//! * **Retry with backoff** — transient failures (panics, injected
//!   timeouts) retry up to [`CampaignPolicy::max_retries`] with bounded,
//!   jitter-free exponential backoff; trace events from failed attempts
//!   are rolled back so a retried cell emits exactly one span set.
//! * **Checkpointing** — [`CampaignRunner::attach_checkpoint`] streams
//!   each freshly computed cell to an append-only JSONL file;
//!   [`CampaignRunner::resume_from`] reloads it into the memo cache, so a
//!   killed campaign resumes from where it died. Resumed cells are cache
//!   hits: the measurement vector and metrics are byte-identical to an
//!   uninterrupted run (trace spans are not re-emitted for resumed cells,
//!   matching ordinary cache-hit semantics).
//! * **Keep-going** — with [`CampaignPolicy::keep_going`] the runner
//!   finishes the whole grid, reporting failed cells in
//!   [`CampaignOutcome::failures`] instead of aborting on the first one.

use crate::cache::{CachedGrid, WorkloadCache};
use crate::fault::{
    panic_message, CampaignError, CampaignPolicy, CellFailure, FailureKind, FaultKind,
};
use crate::{ExperimentConfig, Instruments, Measurement};
use copernicus_hls::{GridStats, PlatformError, RunRequest, Session};
use copernicus_telemetry::{
    replay, CancelToken, PhaseProfiler, PipelineEvent, ProgressReporter, RecordingSink, TraceSink,
    WorkerStats,
};
use copernicus_workloads::Workload;
use sparsemat::{FormatKind, PartitionGrid};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the data from a poisoned lock. The runner's
/// shared state (cache, result slots, checkpoint writer) stays consistent
/// under panics — each critical section either fully inserts a value or
/// does not — so the poison flag carries no information here, and clearing
/// it is what lets the *first real failure* surface instead of a
/// `PoisonError` cascade from every thread that comes after.
pub(crate) fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Executes measurement grids across OS threads with a shared memoization
/// cache. See the [module docs](self) for the threading and determinism
/// model.
#[derive(Debug, Default)]
pub struct CampaignRunner {
    jobs: usize,
    /// Intra-run worker count handed to every cell session; `None` splits
    /// the `jobs` budget between cells and tiles per campaign (see
    /// [`CampaignRunner::tile_jobs_for`]).
    tile_jobs: Option<usize>,
    cache: Mutex<HashMap<String, Measurement>>,
    workloads: WorkloadCache,
    policy: CampaignPolicy,
    checkpoint: Option<Mutex<BufWriter<File>>>,
    resumed: usize,
    /// Global cell counter: campaigns claim `total` indices each, in issue
    /// order, so every cell has a stable index across the runner's lifetime
    /// (the coordinate the fault harness and checkpoint diagnostics use).
    dispatched: AtomicUsize,
}

impl CampaignRunner {
    /// A runner with `jobs` worker threads (`0` is clamped to 1).
    pub fn new(jobs: usize) -> Self {
        CampaignRunner {
            jobs: jobs.max(1),
            ..CampaignRunner::default()
        }
    }

    /// A single-threaded runner — the reference path every parallel run
    /// must match byte-for-byte.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// A runner sized to the machine: one worker per available hardware
    /// thread (1 when the parallelism cannot be queried).
    pub fn auto() -> Self {
        Self::new(default_jobs())
    }

    /// Builder: replaces the fault-handling policy.
    pub fn with_policy(mut self, policy: CampaignPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active fault-handling policy.
    pub fn policy(&self) -> &CampaignPolicy {
        &self.policy
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Builder: pins the intra-run tile worker count handed to every cell
    /// session (`0` is clamped to 1 = serial tiles). Without this, the
    /// runner splits its `jobs` budget between campaign cells and
    /// partitions automatically. Purely a host-side speedup either way:
    /// measurements and traces are byte-identical at any setting.
    pub fn with_tile_jobs(mut self, jobs: usize) -> Self {
        self.tile_jobs = Some(jobs.max(1));
        self
    }

    /// The pinned intra-run tile worker count, if any.
    pub fn tile_jobs(&self) -> Option<usize> {
        self.tile_jobs
    }

    /// The tile worker count a campaign over `units` grid units uses: the
    /// pinned value when set, otherwise the `jobs` budget left over after
    /// unit-level parallelism (`jobs / units`, at least 1). A wide grid
    /// keeps every thread on its own cell (tiles stay serial, no
    /// oversubscription); a narrow grid — fewer units than threads — spends
    /// the idle budget inside each run.
    fn tile_jobs_for(&self, units: usize) -> usize {
        self.tile_jobs
            .unwrap_or_else(|| (self.jobs / units.max(1)).max(1))
    }

    /// Number of memoized cells accumulated so far.
    pub fn cached_cells(&self) -> usize {
        lock_clean(&self.cache).len()
    }

    /// The runner's workload/grid cache. Figure drivers that need raw
    /// matrices or tilings (e.g. Fig. 3's structural statistics) should
    /// pull them from here so generation is shared with the measurement
    /// campaigns.
    pub fn workloads(&self) -> &WorkloadCache {
        &self.workloads
    }

    /// Streams every freshly computed cell to an append-only JSONL
    /// checkpoint at `path` (one `{"key", "measurement"}` object per line,
    /// flushed per cell so a killed process loses at most the cell in
    /// flight). Cache hits are not re-written.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened for appending.
    pub fn attach_checkpoint(&mut self, path: &Path) -> std::io::Result<()> {
        let file = File::options().create(true).append(true).open(path)?;
        self.checkpoint = Some(Mutex::new(BufWriter::new(file)));
        Ok(())
    }

    /// Loads a checkpoint written by
    /// [`attach_checkpoint`](CampaignRunner::attach_checkpoint) into the
    /// memo cache and returns the number of cells restored. A missing file
    /// restores zero cells (a first run is just an empty resume); malformed
    /// lines — e.g. the torn final line of a killed process — are skipped
    /// with a warning, so the interrupted cell is simply recomputed.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors while reading an existing file.
    pub fn resume_from(&mut self, path: &Path) -> std::io::Result<usize> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut restored = 0usize;
        for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_checkpoint_line(&line) {
                Some((key, m)) => {
                    lock_clean(&self.cache).insert(key, m);
                    restored += 1;
                }
                None => eprintln!(
                    "warning: skipping malformed checkpoint line {} in {}",
                    lineno + 1,
                    path.display()
                ),
            }
        }
        self.resumed += restored;
        Ok(restored)
    }

    /// Cells restored from checkpoints by
    /// [`resume_from`](CampaignRunner::resume_from).
    pub fn resumed_cells(&self) -> usize {
        self.resumed
    }

    /// Runs the full cross product `workloads × partition_sizes × formats`
    /// across the worker pool. Output is identical — order and bytes — to
    /// [`characterize`](crate::characterize).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Cells`] when any grid cell fails after
    /// exhausting its retries (even under
    /// [`CampaignPolicy::keep_going`] — use
    /// [`run_campaign`](CampaignRunner::run_campaign) to get the partial
    /// grid alongside the failures).
    pub fn characterize(
        &self,
        workloads: &[Workload],
        formats: &[FormatKind],
        partition_sizes: &[usize],
        cfg: &ExperimentConfig,
    ) -> Result<Vec<Measurement>, CampaignError> {
        self.characterize_with(
            workloads,
            formats,
            partition_sizes,
            cfg,
            &mut Instruments::none(),
        )
    }

    /// [`CampaignRunner::characterize`] with observers attached. The trace
    /// stream, metrics totals and measurement vector are byte-identical for
    /// any `jobs`.
    ///
    /// # Errors
    ///
    /// See [`CampaignRunner::characterize`].
    pub fn characterize_with(
        &self,
        workloads: &[Workload],
        formats: &[FormatKind],
        partition_sizes: &[usize],
        cfg: &ExperimentConfig,
        instruments: &mut Instruments<'_>,
    ) -> Result<Vec<Measurement>, CampaignError> {
        self.run_campaign(workloads, formats, partition_sizes, cfg, instruments)?
            .into_result()
    }

    /// The fault-aware campaign entry point: runs the grid and reports the
    /// measurements *and* any failed cells, rather than collapsing both
    /// into one `Result`. Under [`CampaignPolicy::keep_going`] the outcome
    /// carries every failure alongside the cells that did succeed; without
    /// it the first permanent failure aborts the campaign as an `Err`.
    ///
    /// # Errors
    ///
    /// Without `keep_going`: [`CampaignError::Cells`] carrying the earliest
    /// observed cell failure.
    pub fn run_campaign(
        &self,
        workloads: &[Workload],
        formats: &[FormatKind],
        partition_sizes: &[usize],
        cfg: &ExperimentConfig,
        instruments: &mut Instruments<'_>,
    ) -> Result<CampaignOutcome, CampaignError> {
        let units: Vec<(usize, usize)> = (0..workloads.len())
            .flat_map(|wi| (0..partition_sizes.len()).map(move |pi| (wi, pi)))
            .collect();
        let total = workloads.len() * partition_sizes.len() * formats.len();
        let cell_base = self.dispatched.fetch_add(total, Ordering::Relaxed);
        let trace = instruments.sink.as_deref().is_some_and(TraceSink::enabled);
        let metrics = instruments.metrics;
        let observers = Observers {
            progress: instruments.progress,
            profiler: instruments.profiler.clone(),
        };
        if let Some(progress) = observers.progress {
            progress.add_total(total as u64);
        }
        // One memo-key ingredient is the hardware config's JSON form;
        // serialize it once per campaign instead of once per cell.
        let hw = hw_json(cfg);
        // Split the thread budget between cells and tiles (never part of
        // the memo key: cached bytes are tile-jobs-invariant).
        let tile_jobs = self.tile_jobs_for(units.len());

        // Per-worker wall-clock accounting, merged into the profiler after
        // the pool joins. Like every observer, it never feeds the
        // deterministic artifacts.
        let workers = self.jobs.max(1).min(units.len().max(1));
        let busy: Vec<Mutex<WorkerStats>> = (0..workers)
            .map(|_| Mutex::new(WorkerStats::default()))
            .collect();
        let campaign_start = observers
            .profiler
            .as_ref()
            .map(|_| std::time::Instant::now());

        let unit_outputs = try_par_map_tagged(self.jobs, &units, |worker, ui, &(wi, pi)| {
            let unit_start = observers
                .profiler
                .as_ref()
                .map(|_| std::time::Instant::now());
            let result = self.run_unit(
                &workloads[wi],
                partition_sizes[pi],
                formats,
                cfg,
                &hw,
                trace,
                tile_jobs,
                &observers,
                cell_base + ui * formats.len(),
            );
            if let Some(start) = unit_start {
                let mut stats = lock_clean(&busy[worker]);
                stats.busy_secs += start.elapsed().as_secs_f64();
                stats.cells += formats.len() as u64;
            }
            result
        })
        .map_err(|failure| CampaignError::Cells {
            failures: vec![failure],
            total_cells: total,
        })?;
        if let (Some(profiler), Some(start)) = (&observers.profiler, campaign_start) {
            let stats: Vec<WorkerStats> = busy.iter().map(|m| lock_clean(m).clone()).collect();
            profiler.record_pool(&stats, start.elapsed().as_secs_f64());
        }

        // In-order replay: the merged trace, metrics accumulation and
        // output vector all follow grid-index order, independent of which
        // worker produced each unit.
        let mut measurements = Vec::with_capacity(total);
        let mut failures = Vec::new();
        let mut retries: u64 = 0;
        for unit in unit_outputs {
            if let Some(sink) = instruments.sink.as_deref_mut() {
                replay(&unit.events, sink);
            }
            retries += unit.retries;
            for cell in unit.cells {
                match cell {
                    Ok(m) => {
                        if metrics.is_some() {
                            instruments.record_measurement(&m);
                        }
                        measurements.push(m);
                    }
                    Err(f) => failures.push(f),
                }
            }
        }
        if let Some(metrics) = metrics {
            // Failure/retry/cache counters are touched only when nonzero, so
            // a clean campaign's metrics TSV is byte-identical to one from a
            // resumed or pre-fault-tolerance run.
            metrics.incr_nonzero("cell_retries", retries);
            if !failures.is_empty() {
                metrics.incr("cell_failures", failures.len() as u64);
                for f in &failures {
                    metrics.incr(&format!("failures.{}", f.kind.label()), 1);
                }
            }
            self.workloads.export(metrics);
        }
        // Bound the resident cache between campaigns; on the coordinator
        // thread after the pool joins, so eviction is deterministic.
        self.workloads.prune();
        Ok(CampaignOutcome {
            measurements,
            failures,
            total_cells: total,
        })
    }

    /// One `(workload, partition size)` unit: look the shared tiling up
    /// once, then sweep formats in order, buffering trace events locally.
    /// Returns `Err` only on a failure the policy does not absorb (first
    /// failing cell, no `keep_going`).
    #[allow(clippy::too_many_arguments)]
    fn run_unit(
        &self,
        workload: &Workload,
        p: usize,
        formats: &[FormatKind],
        cfg: &ExperimentConfig,
        hw: &str,
        trace: bool,
        tile_jobs: usize,
        observers: &Observers<'_>,
        cell_base: usize,
    ) -> Result<UnitOutput, CellFailure> {
        let mut sink = RecordingSink::new();
        let mut cells = Vec::with_capacity(formats.len());
        let mut retries: u64 = 0;
        // Exactly one *counted* cache lookup per unit, performed whether or
        // not the cells below are memoized or resumed from a checkpoint:
        // the hit/miss counters then meter the campaign's unit list itself,
        // which keeps metrics.tsv byte-identical across `--jobs` and across
        // interrupted-then-resumed runs. A failure here is not the unit's
        // failure — `compute_cell` repeats the lookup (uncounted) with full
        // typed-failure handling per cell. Sessions stay lazy: a fully
        // memoized unit never builds one.
        let unit_grid = self
            .workloads
            .lookup(
                workload,
                p,
                cfg.suite_max_dim,
                cfg.seed,
                true,
                observers.profiler.as_deref(),
            )
            .ok();
        let mut prepared: Option<Prepared> = None;
        for (fi, &format) in formats.iter().enumerate() {
            let key = cell_key(workload, p, format, cfg, hw);
            let cached = lock_clean(&self.cache).get(&key).cloned();
            let outcome = match cached {
                Some(m) => {
                    if let Some(progress) = observers.progress {
                        progress.cell_done(true);
                    }
                    Ok(m)
                }
                None => {
                    let computed = self
                        .compute_cell(
                            workload,
                            p,
                            format,
                            cfg,
                            trace,
                            tile_jobs,
                            cell_base + fi,
                            unit_grid.as_ref(),
                            &mut prepared,
                            &mut sink,
                            &mut retries,
                            observers,
                        )
                        .inspect(|m| {
                            lock_clean(&self.cache).insert(key.clone(), m.clone());
                            self.append_checkpoint(&key, m);
                        });
                    if let Some(progress) = observers.progress {
                        if computed.is_err() {
                            progress.record_failure();
                        }
                        progress.cell_done(false);
                    }
                    computed
                }
            };
            match outcome {
                Ok(m) => cells.push(Ok(m)),
                Err(f) if self.policy.keep_going => cells.push(Err(f)),
                Err(f) => return Err(f),
            }
        }
        Ok(UnitOutput {
            cells,
            events: sink.into_events(),
            retries,
        })
    }

    /// Computes one cell under panic isolation, firing any injected fault
    /// and retrying transient failures per the policy. Trace events from
    /// failed attempts are rolled back so a retried cell's span set is
    /// byte-identical to a first-try success.
    #[allow(clippy::too_many_arguments)]
    fn compute_cell(
        &self,
        workload: &Workload,
        p: usize,
        format: FormatKind,
        cfg: &ExperimentConfig,
        trace: bool,
        tile_jobs: usize,
        cell: usize,
        unit_grid: Option<&Arc<CachedGrid>>,
        prepared: &mut Option<Prepared>,
        sink: &mut RecordingSink,
        retries: &mut u64,
        observers: &Observers<'_>,
    ) -> Result<Measurement, CellFailure> {
        let mut attempt: u32 = 0;
        loop {
            // Campaign-level cancellation (shutdown/drain or a request
            // deadline) stops the cell before any more work: the attempt
            // is not started and — below — not retried.
            if self.policy.cancelled() {
                return Err(CellFailure {
                    cell,
                    workload: workload.label(),
                    partition_size: p,
                    format,
                    kind: FailureKind::Timeout,
                    message: "campaign cancelled before the attempt started".to_string(),
                    retries: attempt,
                });
            }
            let mark = sink.events.len();
            let injected = self.policy.faults.as_ref().and_then(|plan| plan.fire(cell));
            let attempt_result =
                catch_unwind(AssertUnwindSafe(|| -> Result<Measurement, AttemptError> {
                    match injected {
                        Some(FaultKind::Panic) => panic!("injected fault at cell {cell}"),
                        Some(FaultKind::TransientError) => return Err(AttemptError::Injected),
                        None => {}
                    }
                    if prepared.is_none() {
                        // The unit-level lookup already metered this key
                        // once; reuse its entry, or — after a unit-level
                        // lookup error — repeat the lookup *uncounted*, so
                        // neither retries nor error paths skew the counters.
                        let entry = match unit_grid {
                            Some(entry) => Arc::clone(entry),
                            None => self.workloads.lookup(
                                workload,
                                p,
                                cfg.suite_max_dim,
                                cfg.seed,
                                false,
                                observers.profiler.as_deref(),
                            )?,
                        };
                        let mut session = cfg.session(p)?;
                        session.set_profiler(observers.profiler.clone());
                        session.set_tile_jobs(tile_jobs);
                        // A unit that prices from structure measures the
                        // matrix's row pattern and never builds the grid; a
                        // matrix without a pattern is walked.
                        let profiler = observers.profiler.as_deref();
                        let pattern = session
                            .config()
                            .prices_from_structure()
                            .then(|| entry.pattern(profiler))
                            .flatten();
                        let input = match pattern {
                            Some(pattern) => UnitInput::Measured(session.measure(pattern)?),
                            None => UnitInput::Walked(entry.grid(profiler)?),
                        };
                        *prepared = Some(Prepared {
                            entry,
                            session,
                            input,
                        });
                    }
                    let Some(Prepared {
                        entry,
                        session,
                        input,
                    }) = prepared.as_mut()
                    else {
                        // Unreachable: the branch above just filled it.
                        return Err(AttemptError::Platform(PlatformError::Config(
                            "unit preparation lost".to_string(),
                        )));
                    };
                    // Each attempt gets a fresh deadline, armed here: after
                    // the unit's shared preparation, so it bounds this
                    // cell's run alone. A retried timeout starts its clock
                    // over, and the token is chained under the campaign's so
                    // a drain cancels the attempt mid-run.
                    session.set_cancel(match (&self.policy.cancel, self.policy.cell_timeout) {
                        (None, None) => None,
                        (Some(parent), timeout) => Some(parent.child(timeout)),
                        (None, Some(timeout)) => Some(CancelToken::new().child(Some(timeout))),
                    });
                    let request = match input {
                        UnitInput::Measured(stats) => RunRequest::measured(stats, format),
                        UnitInput::Walked(grid) => RunRequest::grid(grid, format),
                    };
                    let report = if trace {
                        session.run(request.with_sink(&mut *sink))?.report
                    } else {
                        session.run(request)?.report
                    };
                    Ok(Measurement {
                        workload: workload.label(),
                        class: workload.class(),
                        density: entry.density,
                        format,
                        partition_size: p,
                        report,
                    })
                }));
            let (kind, message) = match attempt_result {
                Ok(Ok(m)) => {
                    *retries += u64::from(attempt);
                    return Ok(m);
                }
                Ok(Err(AttemptError::Injected)) => {
                    (FailureKind::Timeout, "injected transient fault".to_string())
                }
                Ok(Err(AttemptError::Platform(e))) => {
                    (FailureKind::of_platform_error(&e), e.to_string())
                }
                Err(payload) => (FailureKind::Panic, panic_message(&*payload)),
            };
            sink.events.truncate(mark);
            // A panic mid-run can leave the session's scratch buffers
            // half-written; rebuild the unit state so a retry starts from a
            // clean session (the grid itself comes back as a cache hit).
            *prepared = None;
            // A cancelled campaign never retries: cancellation means "stop
            // now", not "try harder" — retrying would stall the drain.
            if kind.is_transient() && attempt < self.policy.max_retries && !self.policy.cancelled()
            {
                attempt += 1;
                if let Some(progress) = observers.progress {
                    progress.record_retry();
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    self.policy.backoff_ms(attempt),
                ));
                continue;
            }
            return Err(CellFailure {
                cell,
                workload: workload.label(),
                partition_size: p,
                format,
                kind,
                message,
                retries: attempt,
            });
        }
    }

    /// Appends one cell to the checkpoint, if one is attached. Checkpoint
    /// I/O failures degrade to a warning — they cost resumability, not
    /// correctness of the in-flight campaign.
    fn append_checkpoint(&self, key: &str, m: &Measurement) {
        let Some(cp) = &self.checkpoint else { return };
        let line = checkpoint_line(key, m);
        let mut writer = lock_clean(cp);
        if writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            eprintln!("warning: failed to append campaign checkpoint for cell {key}");
        }
    }
}

/// What one `(workload, partition size)` unit prepares once and shares
/// across its format sweep.
struct Prepared {
    /// The cached tiling entry, plus the matrix density.
    entry: Arc<CachedGrid>,
    /// The session whose scratch buffers the eight format runs reuse.
    session: Session,
    /// What the eight runs read.
    input: UnitInput,
}

/// The tiles a unit's runs read, prepared once for all of them.
enum UnitInput {
    /// The matrix's structural classes, when the session prices from
    /// structure and the matrix has a row pattern.
    Measured(GridStats),
    /// The built tiling, for runs that walk tiles.
    Walked(Arc<PartitionGrid<f32>>),
}

/// What a single computation attempt can fail with (before classification).
enum AttemptError {
    /// The fault harness injected a transient failure.
    Injected,
    /// The platform (or encoding) rejected the cell.
    Platform(PlatformError),
}

impl From<PlatformError> for AttemptError {
    fn from(e: PlatformError) -> Self {
        AttemptError::Platform(e)
    }
}

impl From<sparsemat::SparseError> for AttemptError {
    fn from(e: sparsemat::SparseError) -> Self {
        AttemptError::Platform(e.into())
    }
}

/// Everything a completed campaign produced: the measurements that
/// succeeded (in grid order) and the cells that did not.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Successful cells, in grid order.
    pub measurements: Vec<Measurement>,
    /// Cells that failed after exhausting retries, in grid order.
    pub failures: Vec<CellFailure>,
    /// Cells the campaign was asked to measure.
    pub total_cells: usize,
}

impl CampaignOutcome {
    /// Collapses the outcome into the strict full-grid contract: the
    /// measurements when every cell succeeded, otherwise
    /// [`CampaignError::Cells`] carrying all failures.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Cells`] when any cell failed.
    pub fn into_result(self) -> Result<Vec<Measurement>, CampaignError> {
        if self.failures.is_empty() {
            Ok(self.measurements)
        } else {
            Err(CampaignError::Cells {
                failures: self.failures,
                total_cells: self.total_cells,
            })
        }
    }

    /// Whether every cell of the grid was measured.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one grid unit produced, handed back to the coordinating
/// thread for in-order emission.
struct UnitOutput {
    cells: Vec<Result<Measurement, CellFailure>>,
    events: Vec<PipelineEvent>,
    retries: u64,
}

/// The memoization key: every input that determines a cell's bytes — the
/// workload's canonical [`cache_key`](Workload::cache_key) (its `Debug`
/// form plus seed and cap) extended with the cell axes and the hardware
/// config's JSON form (`hw`, pre-serialized once per campaign). The bytes
/// are identical to pre-cache checkpoints, so old checkpoint files resume
/// cleanly.
fn cell_key(
    workload: &Workload,
    p: usize,
    format: FormatKind,
    cfg: &ExperimentConfig,
    hw: &str,
) -> String {
    format!(
        "{}|p={p}|{format}|{hw}",
        workload.cache_key(cfg.suite_max_dim, cfg.seed)
    )
}

/// The hardware config's JSON form, shared by every cell key of a campaign.
fn hw_json(cfg: &ExperimentConfig) -> String {
    serde::json::to_string(&serde::Serialize::serialize(&cfg.hw))
}

/// Renders one checkpoint line: a compact JSON object binding the memo key
/// to the measurement bytes. Floats round-trip exactly (the JSON writer
/// uses shortest-representation formatting), which is what makes resumed
/// artifacts byte-identical.
fn checkpoint_line(key: &str, m: &Measurement) -> String {
    serde::json::to_string(&serde::Value::Map(vec![
        ("key".to_string(), serde::Value::Str(key.to_string())),
        ("measurement".to_string(), serde::Serialize::serialize(m)),
    ]))
}

/// Parses one checkpoint line back into `(memo key, measurement)`; `None`
/// on any malformed input (the caller skips and recomputes).
fn parse_checkpoint_line(line: &str) -> Option<(String, Measurement)> {
    let value: serde::Value = serde::json::from_str(line).ok()?;
    let key = value.get("key")?.as_str()?.to_string();
    let m = serde::Deserialize::deserialize(value.get("measurement")?).ok()?;
    Some((key, m))
}

/// The worker count [`CampaignRunner::auto`] and the bench `--jobs` default
/// resolve to: available hardware parallelism, 1 when unknown.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The campaign's wall-clock observers, threaded down to every worker: the
/// shared progress counters and the phase profiler handed to each session.
/// Both sit outside the deterministic artifact path.
struct Observers<'a> {
    progress: Option<&'a ProgressReporter>,
    profiler: Option<Arc<PhaseProfiler>>,
}

/// Applies `f` to every item on a pool of `jobs` scoped threads and returns
/// the results **in item order**, stopping early on the first error.
///
/// The work queue is an atomic cursor over `items`: each worker claims the
/// next index, computes, and pushes `(index, result)`; the caller sorts by
/// index after the pool joins. With `jobs <= 1` (or a single item) no
/// thread is spawned and errors short-circuit exactly like a sequential
/// loop. Under parallelism the error with the smallest item index among
/// those encountered is returned, so a failing grid reports the same cell
/// at every job count in practice.
///
/// A worker that panics in `f` does not poison the shared result slots for
/// the others (locks recover from poisoning); the panic itself propagates
/// once after the pool joins, per [`std::thread::scope`] semantics.
///
/// # Errors
///
/// The first (lowest-index observed) error produced by `f`.
pub fn try_par_map_ordered<T, R, E, F>(jobs: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_par_map_tagged(jobs, items, |_, i, t| f(i, t))
}

/// [`try_par_map_ordered`] whose closure also receives the pool-local
/// **worker index** (`0..workers`, always `0` on the sequential path). The
/// worker index exists for wall-clock accounting (per-worker busy time)
/// only — results and errors are keyed by item index exactly as in the
/// untagged variant, so determinism is unaffected.
fn try_par_map_tagged<T, R, E, F>(jobs: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, usize, &T) -> Result<R, E> + Sync,
{
    let workers = jobs.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(0, i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let f = &f;
            let (next, abort, results, error) = (&next, &abort, &results, &error);
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                match f(worker, i, &items[i]) {
                    Ok(r) => lock_clean(results).push((i, r)),
                    Err(e) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut slot = lock_clean(error);
                        if slot.as_ref().is_none_or(|&(j, _)| i < j) {
                            *slot = Some((i, e));
                        }
                    }
                }
            });
        }
    });
    if let Some((_, e)) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let mut pairs = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    pairs.sort_by_key(|&(i, _)| i);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Infallible [`try_par_map_ordered`]: same pool, same ordering guarantee.
pub fn par_map_ordered<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map_ordered(jobs, items, |i, t| {
        Ok::<R, std::convert::Infallible>(f(i, t))
    }) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use copernicus_telemetry::{MetricsRegistry, Stage};

    fn grid() -> (Vec<Workload>, Vec<FormatKind>, Vec<usize>, ExperimentConfig) {
        (
            vec![
                Workload::Random {
                    n: 64,
                    density: 0.08,
                },
                Workload::Band { n: 48, width: 4 },
                Workload::Random {
                    n: 40,
                    density: 0.2,
                },
            ],
            vec![FormatKind::Dense, FormatKind::Csr, FormatKind::Coo],
            vec![8, 16],
            ExperimentConfig::quick(),
        )
    }

    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copernicus-campaign-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// The straight-line reference the runner must reproduce byte-for-byte:
    /// the nested loop `characterize` used before the parallel executor.
    fn reference(
        workloads: &[Workload],
        formats: &[FormatKind],
        sizes: &[usize],
        cfg: &ExperimentConfig,
    ) -> Vec<Measurement> {
        let mut out = Vec::new();
        for workload in workloads {
            let matrix = workload.generate(cfg.suite_max_dim, cfg.seed);
            let density = sparsemat::Matrix::density(&matrix);
            for &p in sizes {
                let mut session = cfg.session(p).unwrap();
                let grid = sparsemat::PartitionGrid::new(&matrix, p).unwrap();
                for &format in formats {
                    out.push(Measurement {
                        workload: workload.label(),
                        class: workload.class(),
                        density,
                        format,
                        partition_size: p,
                        report: session.run(RunRequest::grid(&grid, format)).unwrap().report,
                    });
                }
            }
        }
        out
    }

    /// `cfg` with functional verification off, so a unit whose matrix has
    /// a row pattern is measured instead of walked.
    fn structural(cfg: &ExperimentConfig) -> ExperimentConfig {
        let mut cfg = cfg.clone();
        cfg.hw.verify_functional = false;
        cfg
    }

    /// The campaign's measurements, and how many tiles it decompressed.
    fn characterize_counting_walks(
        workloads: &[Workload],
        sizes: &[usize],
        cfg: &ExperimentConfig,
        jobs: usize,
    ) -> (Vec<Measurement>, u64) {
        let profiler = Arc::new(copernicus_telemetry::PhaseProfiler::new());
        let mut instruments = Instruments::none().with_profiler(profiler.clone());
        let ms = CampaignRunner::new(jobs)
            .characterize_with(
                workloads,
                &FormatKind::CHARACTERIZED,
                sizes,
                cfg,
                &mut instruments,
            )
            .unwrap();
        let walks = profiler
            .histogram(copernicus_telemetry::Phase::Decompress)
            .map_or(0, |h| h.count());
        (ms, walks)
    }

    #[test]
    fn measured_campaigns_equal_the_walked_oracle() {
        // Every workload class the figures sweep, at quick dims, in every
        // format at every figure partition size: a verify-off campaign,
        // measured from each matrix's row pattern, returns exactly what a
        // verifying campaign (always walked) does, at any worker count.
        let cfg = ExperimentConfig::quick();
        let workloads = crate::experiments::fig07::all_class_workloads(&cfg);
        let sizes = crate::experiments::FIGURE_PARTITION_SIZES;
        for jobs in [1, 2] {
            let (walked, walks) = characterize_counting_walks(&workloads, &sizes, &cfg, jobs);
            let (measured, measured_walks) =
                characterize_counting_walks(&workloads, &sizes, &structural(&cfg), jobs);
            assert!(walks > 0, "jobs={jobs}: the verifying campaign walks");
            assert_eq!(measured_walks, 0, "jobs={jobs}: every matrix is measured");
            assert_eq!(measured, walked, "jobs={jobs}");
        }
    }

    #[test]
    fn a_matrix_without_a_pattern_is_walked_by_a_structural_campaign() {
        // 70,000 rows and a handful of entries: more than 4 rows per entry,
        // so no row pattern. Its verify-off units walk the grid and return
        // the verifying campaign's measurements.
        let cfg = ExperimentConfig::quick();
        let workloads = [Workload::Random {
            n: 70_000,
            density: 1e-9,
        }];
        let matrix = workloads[0].generate(cfg.suite_max_dim, cfg.seed);
        assert_eq!(sparsemat::Matrix::nnz(&matrix), 5);
        assert_eq!(sparsemat::RowPattern::new(&matrix), None);
        let sizes = crate::experiments::FIGURE_PARTITION_SIZES;
        let (walked, _) = characterize_counting_walks(&workloads, &sizes, &cfg, 1);
        let (structural, walks) =
            characterize_counting_walks(&workloads, &sizes, &structural(&cfg), 1);
        assert!(walks > 0, "a patternless matrix is walked");
        assert_eq!(structural, walked);
    }

    #[test]
    fn runner_matches_the_sequential_reference_at_every_job_count() {
        let (w, f, p, cfg) = grid();
        let expect = reference(&w, &f, &p, &cfg);
        for jobs in [1, 2, 4, 8] {
            let got = CampaignRunner::new(jobs)
                .characterize(&w, &f, &p, &cfg)
                .unwrap();
            assert_eq!(expect, got, "jobs={jobs}");
        }
    }

    #[test]
    fn traced_parallel_run_replays_events_in_grid_order() {
        let (w, f, p, cfg) = grid();
        let mut seq_sink = RecordingSink::new();
        let mut seq_instruments = Instruments::none().with_sink(&mut seq_sink);
        let seq = CampaignRunner::sequential()
            .characterize_with(&w, &f, &p, &cfg, &mut seq_instruments)
            .unwrap();

        let mut par_sink = RecordingSink::new();
        let mut par_instruments = Instruments::none().with_sink(&mut par_sink);
        let par = CampaignRunner::new(4)
            .characterize_with(&w, &f, &p, &cfg, &mut par_instruments)
            .unwrap();

        assert_eq!(seq, par);
        assert_eq!(seq_sink.events, par_sink.events);
        assert_eq!(par_sink.count("run_start"), par.len());
        let mem: u64 = par.iter().map(|m| m.report.total_mem_cycles).sum();
        assert_eq!(par_sink.stage_cycles(Stage::MemRead), mem);
    }

    #[test]
    fn metrics_totals_are_job_count_independent() {
        let (w, f, p, cfg) = grid();
        let tsv_at = |jobs: usize| {
            let metrics = MetricsRegistry::new();
            let mut instruments = Instruments::none().with_metrics(&metrics);
            CampaignRunner::new(jobs)
                .characterize_with(&w, &f, &p, &cfg, &mut instruments)
                .unwrap();
            metrics.to_tsv()
        };
        assert_eq!(tsv_at(1), tsv_at(8));
    }

    #[test]
    fn cache_deduplicates_overlapping_campaigns() {
        let (w, f, p, cfg) = grid();
        let runner = CampaignRunner::new(2);
        let first = runner.characterize(&w, &f, &p, &cfg).unwrap();
        let cells = runner.cached_cells();
        assert_eq!(cells, first.len());
        // A second, overlapping campaign adds no new cells and returns the
        // same bytes it would have computed.
        let again = runner.characterize(&w, &f, &[p[0]], &cfg).unwrap();
        assert_eq!(runner.cached_cells(), cells);
        let fresh = CampaignRunner::sequential()
            .characterize(&w, &f, &[p[0]], &cfg)
            .unwrap();
        assert_eq!(again, fresh);
    }

    #[test]
    fn cache_key_separates_labels_that_collide() {
        // Two different Random workloads share the label "d=0.1" at
        // different dimensions; the cache must keep them apart.
        let cfg = ExperimentConfig::quick();
        let a = Workload::Random {
            n: 32,
            density: 0.1,
        };
        let b = Workload::Random {
            n: 64,
            density: 0.1,
        };
        assert_eq!(a.label(), b.label());
        let hw = hw_json(&cfg);
        assert_ne!(
            cell_key(&a, 16, FormatKind::Csr, &cfg, &hw),
            cell_key(&b, 16, FormatKind::Csr, &cfg, &hw)
        );
        let runner = CampaignRunner::new(2);
        let ms = runner
            .characterize(&[a, b], &[FormatKind::Csr], &[16], &cfg)
            .unwrap();
        assert_eq!(runner.cached_cells(), 2);
        assert_ne!(ms[0].report, ms[1].report);
    }

    #[test]
    fn cached_cells_skip_the_platform_but_still_count_for_metrics() {
        let (w, f, p, cfg) = grid();
        let runner = CampaignRunner::sequential();
        runner.characterize(&w, &f, &p, &cfg).unwrap();
        // Second pass: all hits — no trace events, but metrics still see
        // every delivered measurement.
        let metrics = MetricsRegistry::new();
        let mut sink = RecordingSink::new();
        let mut instruments = Instruments::none()
            .with_sink(&mut sink)
            .with_metrics(&metrics);
        let ms = runner
            .characterize_with(&w, &f, &p, &cfg, &mut instruments)
            .unwrap();
        assert!(sink.events.is_empty());
        assert_eq!(metrics.counter("runs"), ms.len() as u64);
    }

    #[test]
    fn par_map_ordered_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 3, 16] {
            let out = par_map_ordered(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_ordered_reports_errors_at_every_job_count() {
        let items: Vec<usize> = (0..50).collect();
        for jobs in [1, 4] {
            let r: Result<Vec<usize>, String> = try_par_map_ordered(jobs, &items, |_, &x| {
                if x == 25 {
                    Err(format!("boom at {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(r.unwrap_err(), "boom at 25", "jobs={jobs}");
        }
    }

    #[test]
    fn platform_errors_surface_as_typed_cell_failures() {
        let cfg = ExperimentConfig {
            hw: copernicus_hls::HwConfig {
                bus_bytes_per_cycle: 0,
                ..copernicus_hls::HwConfig::default()
            },
            ..ExperimentConfig::quick()
        };
        let w = [Workload::Band { n: 32, width: 2 }];
        for jobs in [1, 4] {
            let r = CampaignRunner::new(jobs).characterize(&w, &[FormatKind::Csr], &[16], &cfg);
            let err = r.expect_err("invalid hw config must fail the campaign");
            let failure = err.first_failure().expect("a cell failure");
            assert_eq!(failure.kind, FailureKind::Platform, "jobs={jobs}");
            assert_eq!(failure.retries, 0, "permanent failures never retry");
            assert!(failure.message.contains("invalid hardware config"));
        }
    }

    #[test]
    fn injected_panic_is_isolated_and_the_runner_stays_usable() {
        let (w, f, p, cfg) = grid();
        let total = w.len() * p.len() * f.len();
        let runner = CampaignRunner::new(4).with_policy(
            CampaignPolicy::default()
                .with_keep_going()
                .with_faults(FaultPlan::single(FaultKind::Panic, 4, 1)),
        );
        let outcome = runner
            .run_campaign(&w, &f, &p, &cfg, &mut Instruments::none())
            .expect("keep-going campaigns complete");
        assert_eq!(outcome.total_cells, total);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.measurements.len(), total - 1);
        assert!(!outcome.is_complete());
        let failure = &outcome.failures[0];
        assert_eq!(failure.cell, 4);
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("injected fault"), "{failure}");
        // No poisoned-mutex cascade: the cache and a follow-up campaign
        // still work (the failed cell was never cached, so it recomputes).
        assert_eq!(runner.cached_cells(), total - 1);
        let again = runner
            .run_campaign(&w, &f, &p, &cfg, &mut Instruments::none())
            .expect("fault is spent; second pass is clean");
        assert!(again.is_complete());
        assert_eq!(again.measurements, reference(&w, &f, &p, &cfg));
    }

    #[test]
    fn transient_faults_retry_with_backoff_and_recover() {
        let (w, f, p, cfg) = grid();
        let runner = CampaignRunner::sequential().with_policy(
            CampaignPolicy {
                max_retries: 2,
                backoff_base_ms: 1,
                backoff_cap_ms: 2,
                ..CampaignPolicy::default()
            }
            .with_faults(FaultPlan::single(FaultKind::TransientError, 3, 2)),
        );
        let metrics = MetricsRegistry::new();
        let mut instruments = Instruments::none().with_metrics(&metrics);
        let ms = runner
            .characterize_with(&w, &f, &p, &cfg, &mut instruments)
            .expect("two injected failures, two retries allowed");
        assert_eq!(ms, reference(&w, &f, &p, &cfg));
        assert_eq!(metrics.counter("cell_retries"), 2);
        assert_eq!(metrics.counter("cell_failures"), 0);
    }

    #[test]
    fn exhausted_retries_classify_as_timeout() {
        let (w, f, p, cfg) = grid();
        let runner = CampaignRunner::sequential().with_policy(CampaignPolicy {
            max_retries: 1,
            backoff_base_ms: 1,
            backoff_cap_ms: 1,
            keep_going: true,
            faults: Some(FaultPlan::single(FaultKind::TransientError, 0, 5)),
            ..CampaignPolicy::default()
        });
        let outcome = runner
            .run_campaign(&w, &f, &p, &cfg, &mut Instruments::none())
            .unwrap();
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].kind, FailureKind::Timeout);
        assert_eq!(outcome.failures[0].retries, 1);
    }

    #[test]
    fn expired_cell_deadline_is_a_real_transient_timeout() {
        // A zero deadline is born expired: every attempt fails with a
        // *real* FailureKind::Timeout (no fault injection involved), and
        // the transient retry budget is spent in full before giving up.
        let (w, f, p, cfg) = grid();
        let total = w.len() * p.len() * f.len();
        let runner = CampaignRunner::sequential().with_policy(
            CampaignPolicy {
                max_retries: 2,
                backoff_base_ms: 1,
                backoff_cap_ms: 1,
                keep_going: true,
                ..CampaignPolicy::default()
            }
            .with_cell_timeout(std::time::Duration::ZERO),
        );
        let outcome = runner
            .run_campaign(&w, &f, &p, &cfg, &mut Instruments::none())
            .expect("keep-going campaigns complete");
        assert_eq!(outcome.failures.len(), total);
        assert!(outcome.measurements.is_empty());
        for failure in &outcome.failures {
            assert_eq!(failure.kind, FailureKind::Timeout);
            assert_eq!(
                failure.retries, 2,
                "transient timeouts spend the retry budget"
            );
            assert!(failure.message.contains("cancelled"), "{failure}");
        }
    }

    #[test]
    fn generous_cell_deadline_leaves_results_byte_identical() {
        let (w, f, p, cfg) = grid();
        let runner = CampaignRunner::sequential().with_policy(
            CampaignPolicy::default().with_cell_timeout(std::time::Duration::from_secs(3600)),
        );
        let ms = runner
            .characterize(&w, &f, &p, &cfg)
            .expect("generous deadline never fires");
        assert_eq!(ms, reference(&w, &f, &p, &cfg));
    }

    #[test]
    fn cell_deadlines_start_after_the_unit_is_prepared() {
        // Measuring this band (518,944 entries: a row-pattern build and a
        // pass over every entry) takes a few times the deadline in a debug
        // build, each of its runs (748 tiles priced from 2 classes) well
        // under a hundredth of it. The preparation is the unit's, shared by its
        // cells, so it must not count against the first cell's deadline:
        // with no retries, no cell may time out.
        let w = [Workload::Band { n: 8000, width: 64 }];
        let f = [FormatKind::Csr, FormatKind::Coo];
        let cfg = ExperimentConfig {
            hw: copernicus_hls::HwConfig {
                verify_functional: false,
                ..copernicus_hls::HwConfig::default()
            },
            ..ExperimentConfig::quick()
        };
        let deadline = std::time::Duration::from_millis(50);
        let runner = CampaignRunner::sequential().with_policy(
            CampaignPolicy {
                max_retries: 0,
                keep_going: true,
                ..CampaignPolicy::default()
            }
            .with_cell_timeout(deadline),
        );
        let outcome = runner
            .run_campaign(&w, &f, &[32], &cfg, &mut Instruments::none())
            .expect("keep-going campaigns complete");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(outcome.measurements.len(), f.len());
    }

    #[test]
    fn campaign_cancellation_stops_cells_without_retrying() {
        // A pre-cancelled campaign token models shutdown/drain: every cell
        // fails Timeout immediately with zero retries even though retries
        // are allowed — cancellation must not stall behind backoff sleeps.
        let (w, f, p, cfg) = grid();
        let total = w.len() * p.len() * f.len();
        let cancel = CancelToken::new();
        cancel.cancel();
        let runner = CampaignRunner::sequential().with_policy(
            CampaignPolicy {
                max_retries: 3,
                keep_going: true,
                ..CampaignPolicy::default()
            }
            .with_cancel(cancel),
        );
        let outcome = runner
            .run_campaign(&w, &f, &p, &cfg, &mut Instruments::none())
            .expect("keep-going campaigns complete");
        assert_eq!(outcome.failures.len(), total);
        for failure in &outcome.failures {
            assert_eq!(failure.kind, FailureKind::Timeout);
            assert_eq!(failure.retries, 0, "cancelled cells never retry");
        }
    }

    #[test]
    fn live_campaign_token_leaves_results_byte_identical() {
        let (w, f, p, cfg) = grid();
        let cancel = CancelToken::new();
        let runner =
            CampaignRunner::sequential().with_policy(CampaignPolicy::default().with_cancel(cancel));
        let ms = runner
            .characterize(&w, &f, &p, &cfg)
            .expect("live token never fires");
        assert_eq!(ms, reference(&w, &f, &p, &cfg));
    }

    #[test]
    fn fault_cells_index_the_global_dispatch_order() {
        let (w, f, p, cfg) = grid();
        let total = w.len() * p.len() * f.len();
        // Arm a fault in the *second* campaign's index range; the first
        // campaign must run clean.
        let runner = CampaignRunner::sequential().with_policy(
            CampaignPolicy::default()
                .with_keep_going()
                .with_faults(FaultPlan::single(FaultKind::Panic, total, 1)),
        );
        let first = runner
            .run_campaign(&w, &f, &p, &cfg, &mut Instruments::none())
            .unwrap();
        assert!(first.is_complete());
        // Second campaign over a different seed recomputes every cell; its
        // first cell carries global index `total` and trips the fault.
        let cfg2 = ExperimentConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let second = runner
            .run_campaign(&w, &f, &p, &cfg2, &mut Instruments::none())
            .unwrap();
        assert_eq!(second.failures.len(), 1);
        assert_eq!(second.failures[0].cell, total);
    }

    #[test]
    fn checkpoint_round_trips_through_resume() {
        let (w, f, p, cfg) = grid();
        let dir = scratch_dir("checkpoint-round-trip");
        let path = dir.join("checkpoint.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut writer = CampaignRunner::new(2);
        writer.attach_checkpoint(&path).expect("open checkpoint");
        let full = writer.characterize(&w, &f, &p, &cfg).unwrap();

        let mut reader = CampaignRunner::sequential();
        let restored = reader.resume_from(&path).expect("read checkpoint");
        assert_eq!(restored, full.len());
        assert_eq!(reader.resumed_cells(), full.len());
        assert_eq!(reader.cached_cells(), full.len());
        // Every cell is a cache hit now: identical bytes, no trace spans.
        let mut sink = RecordingSink::new();
        let mut instruments = Instruments::none().with_sink(&mut sink);
        let resumed = reader
            .characterize_with(&w, &f, &p, &cfg, &mut instruments)
            .unwrap();
        assert_eq!(resumed, full);
        assert!(sink.events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_torn_and_garbage_lines() {
        let dir = scratch_dir("resume-torn-lines");
        let path = dir.join("checkpoint.jsonl");
        let (w, f, p, cfg) = grid();
        let mut writer = CampaignRunner::sequential();
        writer.attach_checkpoint(&path).unwrap();
        writer.characterize(&w, &[f[0]], &[p[0]], &cfg).unwrap();
        // Simulate a kill mid-write: append garbage and a torn JSON line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n{\"key\": \"torn");
        std::fs::write(&path, text).unwrap();

        let mut reader = CampaignRunner::sequential();
        let restored = reader.resume_from(&path).unwrap();
        assert_eq!(restored, w.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_a_missing_checkpoint_restores_nothing() {
        let mut runner = CampaignRunner::sequential();
        let restored = runner
            .resume_from(Path::new("/nonexistent/checkpoint.jsonl"))
            .expect("missing file is an empty resume");
        assert_eq!(restored, 0);
        assert_eq!(runner.resumed_cells(), 0);
    }

    #[test]
    fn tile_parallel_campaigns_match_the_sequential_reference() {
        let (w, f, p, cfg) = grid();
        let expect = reference(&w, &f, &p, &cfg);
        // Pinned tile workers, with and without cell parallelism.
        for (jobs, tiles) in [(1, 4), (2, 3)] {
            let got = CampaignRunner::new(jobs)
                .with_tile_jobs(tiles)
                .characterize(&w, &f, &p, &cfg)
                .unwrap();
            assert_eq!(expect, got, "jobs={jobs} tile_jobs={tiles}");
        }
        // Auto split: more threads than units pushes the surplus into tiles.
        let runner = CampaignRunner::new(16);
        assert_eq!(runner.tile_jobs(), None);
        assert_eq!(runner.tile_jobs_for(6), 2);
        assert_eq!(runner.tile_jobs_for(16), 1);
        assert_eq!(runner.tile_jobs_for(0), 16);
        let got = runner.characterize(&w, &f, &p, &cfg).unwrap();
        assert_eq!(expect, got);
        // A wide grid at the default job count keeps tiles serial.
        assert_eq!(CampaignRunner::sequential().tile_jobs_for(4), 1);
        assert_eq!(
            CampaignRunner::new(0).with_tile_jobs(0).tile_jobs(),
            Some(1)
        );
    }

    #[test]
    fn tile_parallel_traced_campaign_replays_identical_events() {
        let (w, f, p, cfg) = grid();
        let mut seq_sink = RecordingSink::new();
        let mut seq_instruments = Instruments::none().with_sink(&mut seq_sink);
        let seq = CampaignRunner::sequential()
            .characterize_with(&w, &f, &p, &cfg, &mut seq_instruments)
            .unwrap();
        let mut par_sink = RecordingSink::new();
        let mut par_instruments = Instruments::none().with_sink(&mut par_sink);
        let par = CampaignRunner::new(2)
            .with_tile_jobs(4)
            .characterize_with(&w, &f, &p, &cfg, &mut par_instruments)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_sink.events, par_sink.events);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(CampaignRunner::new(0).jobs(), 1);
        assert!(default_jobs() >= 1);
        assert!(CampaignRunner::auto().jobs() >= 1);
    }
}
