//! Wall-clock phase profiling for the simulator itself.
//!
//! The paper's telemetry ([`MetricsRegistry`](crate::MetricsRegistry),
//! trace sinks) describes *modeled* cycles and is part of the byte-identical
//! artifact contract. This module answers a different question — where does
//! the **harness** spend real time? — and therefore lives strictly outside
//! that contract: a [`PhaseProfiler`] owns its own histogram store, is
//! never merged into a campaign's deterministic registry, and its export
//! (`profile.json`) is a wall-clock artifact excluded from determinism
//! diffs, exactly like the timestamped manifest.
//!
//! Two recording styles:
//!
//! * [`PhaseProfiler::scope`] — an RAII guard observing the elapsed time of
//!   one phase on drop (cache lookups, queue waits).
//! * [`PhaseAcc`] — a tiny mark/lap accumulator for tight per-tile loops:
//!   the pipeline laps encode/decompress/verify once per tile and flushes
//!   **one** histogram observation per phase per run, so profiling a
//!   50k-tile campaign costs `Instant::now` calls, not 200k mutex locks.

use crate::metrics::Histogram;
use serde::Value;
use std::sync::Mutex;
use std::time::Instant;

use crate::locks::lock_clean;

/// The harness phases the profiler attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Generating a workload's matrix on a cache miss.
    Generate,
    /// Tiling a matrix: building the row pattern a structural measure
    /// walks, or building a grid (the bounds check, zero drop and tile
    /// sort, then the partitions), which a matrix without a pattern walks.
    Partition,
    /// Building the per-tile compressed representation, or — for tiles
    /// priced from their structure (no verification, codec or SpMV) — the
    /// one structural pass that replaces encode and decompress, with the
    /// walk that hands it a row pattern's tiles.
    Encode,
    /// Running the modeled decompressor over the encoded tile.
    Decompress,
    /// Everything else inside a platform run: timing-model assembly, span
    /// scheduling, SpMV consumption (the residual of the run wall time
    /// after encode/decompress/verify).
    Compute,
    /// Cross-checking decompressed rows against the reference tile.
    Verify,
    /// Workload/grid cache lookups, generation excluded.
    CacheLookup,
    /// Worker idle time: campaign wall time a worker spent without a unit.
    QueueWait,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 8] = [
        Phase::Generate,
        Phase::Partition,
        Phase::Encode,
        Phase::Decompress,
        Phase::Compute,
        Phase::Verify,
        Phase::CacheLookup,
        Phase::QueueWait,
    ];

    /// The stable snake_case name used in `profile.json` and reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Partition => "partition",
            Phase::Encode => "encode",
            Phase::Decompress => "decompress",
            Phase::Compute => "compute",
            Phase::Verify => "verify",
            Phase::CacheLookup => "cache_lookup",
            Phase::QueueWait => "queue_wait",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Generate => 0,
            Phase::Partition => 1,
            Phase::Encode => 2,
            Phase::Decompress => 3,
            Phase::Compute => 4,
            Phase::Verify => 5,
            Phase::CacheLookup => 6,
            Phase::QueueWait => 7,
        }
    }
}

/// Per-worker utilization totals accumulated across campaigns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Seconds this worker spent executing units.
    pub busy_secs: f64,
    /// Grid cells this worker delivered (computed or cache-replayed).
    pub cells: u64,
}

/// Wall-clock phase histograms plus per-worker utilization; `Sync`, shared
/// across the campaign pool behind an `Arc`.
///
/// All state is wall-clock-derived and therefore scheduling-dependent; the
/// profiler must never feed the deterministic metrics registry.
#[derive(Debug)]
pub struct PhaseProfiler {
    phases: Mutex<[Histogram; Phase::ALL.len()]>,
    workers: Mutex<Vec<WorkerStats>>,
    /// Campaign wall seconds (coordinator-measured), summed over campaigns.
    wall: Mutex<f64>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler {
            phases: Mutex::new(std::array::from_fn(|_| Histogram::seconds())),
            workers: Mutex::default(),
            wall: Mutex::default(),
        }
    }
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one wall-clock observation (seconds) for `phase`.
    pub fn record(&self, phase: Phase, secs: f64) {
        lock_clean(&self.phases)[phase.index()].observe(secs);
    }

    /// RAII phase scope: observes the elapsed wall time on drop.
    pub fn scope(&self, phase: Phase) -> PhaseScope<'_> {
        PhaseScope {
            profiler: self,
            phase,
            start: Instant::now(),
        }
    }

    /// Folds one run's [`PhaseAcc`] into the histograms: one observation
    /// per lapped phase plus the run's residual as [`Phase::Compute`].
    pub fn flush_run(&self, acc: &PhaseAcc, run_secs: f64) {
        if !acc.enabled {
            return;
        }
        let mut phases = lock_clean(&self.phases);
        let mut accounted = 0.0;
        for (i, &secs) in acc.totals.iter().enumerate() {
            if secs > 0.0 {
                phases[i].observe(secs);
                accounted += secs;
            }
        }
        phases[Phase::Compute.index()].observe((run_secs - accounted).max(0.0));
    }

    /// Adds one campaign's pool observation: per-worker busy seconds and
    /// delivered cells, plus the campaign's wall time. Worker `i` here
    /// merges into worker `i` of earlier campaigns; each worker's idle
    /// share of the campaign is also observed as [`Phase::QueueWait`].
    pub fn record_pool(&self, busy: &[WorkerStats], wall_secs: f64) {
        {
            let mut workers = lock_clean(&self.workers);
            if workers.len() < busy.len() {
                workers.resize(busy.len(), WorkerStats::default());
            }
            for (w, b) in workers.iter_mut().zip(busy) {
                w.busy_secs += b.busy_secs;
                w.cells += b.cells;
            }
        }
        *lock_clean(&self.wall) += wall_secs;
        for b in busy {
            self.record(Phase::QueueWait, (wall_secs - b.busy_secs).max(0.0));
        }
    }

    /// Snapshot of one phase's histogram, if it has observations.
    pub fn histogram(&self, phase: Phase) -> Option<Histogram> {
        let h = &lock_clean(&self.phases)[phase.index()];
        if h.count() == 0 {
            None
        } else {
            Some(h.clone())
        }
    }

    /// Per-worker utilization totals (empty before the first campaign).
    pub fn workers(&self) -> Vec<WorkerStats> {
        lock_clean(&self.workers).clone()
    }

    /// Total campaign wall seconds observed via
    /// [`record_pool`](PhaseProfiler::record_pool).
    pub fn wall_secs(&self) -> f64 {
        *lock_clean(&self.wall)
    }

    /// Whether anything was recorded (used to skip writing an empty
    /// `profile.json`).
    pub fn has_data(&self) -> bool {
        lock_clean(&self.phases).iter().any(|h| h.count() > 0) || !self.workers().is_empty()
    }

    /// The `profile.json` document: per-phase summary statistics and
    /// per-worker utilization. Wall-clock values — never byte-compared.
    pub fn to_json(&self) -> String {
        let phases = {
            let hs = lock_clean(&self.phases);
            Value::Map(
                Phase::ALL
                    .iter()
                    .filter(|p| hs[p.index()].count() > 0)
                    .map(|p| (p.label().to_string(), histogram_value(&hs[p.index()])))
                    .collect(),
            )
        };
        let wall = self.wall_secs();
        let workers = Value::Seq(
            self.workers()
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let util = if wall > 0.0 {
                        (w.busy_secs / wall).min(1.0)
                    } else {
                        0.0
                    };
                    let rate = if w.busy_secs > 0.0 {
                        w.cells as f64 / w.busy_secs
                    } else {
                        0.0
                    };
                    Value::Map(vec![
                        ("worker".to_string(), Value::UInt(i as u64)),
                        ("busy_secs".to_string(), Value::Float(w.busy_secs)),
                        ("cells".to_string(), Value::UInt(w.cells)),
                        ("utilization".to_string(), Value::Float(util)),
                        ("cells_per_sec".to_string(), Value::Float(rate)),
                    ])
                })
                .collect(),
        );
        serde::json::to_string_pretty(&Value::Map(vec![
            ("phases".to_string(), phases),
            ("workers".to_string(), workers),
            ("campaign_wall_secs".to_string(), Value::Float(wall)),
        ]))
    }
}

fn histogram_value(h: &Histogram) -> Value {
    Value::Map(vec![
        ("count".to_string(), Value::UInt(h.count())),
        ("sum_secs".to_string(), Value::Float(h.sum())),
        ("mean_secs".to_string(), Value::Float(h.mean())),
        ("min_secs".to_string(), Value::Float(h.min())),
        ("max_secs".to_string(), Value::Float(h.max())),
        ("p50_secs".to_string(), Value::Float(h.quantile(0.5))),
        ("p95_secs".to_string(), Value::Float(h.quantile(0.95))),
        ("p99_secs".to_string(), Value::Float(h.quantile(0.99))),
    ])
}

/// See [`PhaseProfiler::scope`].
#[derive(Debug)]
pub struct PhaseScope<'a> {
    profiler: &'a PhaseProfiler,
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        self.profiler
            .record(self.phase, self.start.elapsed().as_secs_f64());
    }
}

/// A per-run mark/lap accumulator for the per-tile hot loop. Disabled, it
/// is a no-op with no `Instant` reads, so unprofiled runs keep the
/// zero-cost path.
#[derive(Debug)]
pub struct PhaseAcc {
    enabled: bool,
    last: Option<Instant>,
    totals: [f64; Phase::ALL.len()],
}

impl PhaseAcc {
    /// An accumulator; `enabled: false` turns every call into a no-op.
    pub fn new(enabled: bool) -> Self {
        PhaseAcc {
            enabled,
            last: None,
            totals: [0.0; Phase::ALL.len()],
        }
    }

    /// Starts (or restarts) the lap clock.
    pub fn mark(&mut self) {
        if self.enabled {
            self.last = Some(Instant::now());
        }
    }

    /// Attributes the time since the last [`mark`](PhaseAcc::mark)/`lap` to
    /// `phase` and restarts the clock.
    pub fn lap(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        if let Some(last) = self.last {
            self.totals[phase.index()] += now.duration_since(last).as_secs_f64();
        }
        self.last = Some(now);
    }

    /// Seconds accumulated for `phase` so far.
    pub fn total(&self, phase: Phase) -> f64 {
        self.totals[phase.index()]
    }

    /// Folds another accumulator's totals into this one — used to reduce
    /// per-worker accumulators into the run accumulator after a
    /// tile-parallel pass. Phase totals then aggregate CPU time across
    /// workers rather than wall time, which is what the per-phase
    /// histograms report for parallel runs.
    pub fn merge(&mut self, other: &PhaseAcc) {
        if other.enabled {
            for (t, o) in self.totals.iter_mut().zip(other.totals) {
                *t += o;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_and_laps_record_into_the_right_phase() {
        let p = PhaseProfiler::new();
        assert!(!p.has_data());
        {
            let _s = p.scope(Phase::CacheLookup);
        }
        let mut acc = PhaseAcc::new(true);
        acc.mark();
        acc.lap(Phase::Encode);
        acc.lap(Phase::Decompress);
        p.flush_run(&acc, 1.0);
        assert!(p.has_data());
        assert_eq!(p.histogram(Phase::CacheLookup).unwrap().count(), 1);
        assert_eq!(p.histogram(Phase::Encode).unwrap().count(), 1);
        // Compute is the residual of the run time.
        let compute = p.histogram(Phase::Compute).unwrap();
        assert_eq!(compute.count(), 1);
        assert!(compute.sum() <= 1.0);
        assert!(p.histogram(Phase::QueueWait).is_none());
    }

    #[test]
    fn every_phase_has_its_own_slot_and_label() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i, "{phase:?}");
        }
        let mut labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len());
        assert_eq!(Phase::Generate.label(), "generate");
    }

    #[test]
    fn quantiles_resolve_sub_millisecond_laps() {
        // Laps spread log-uniformly from 10 µs to 10 ms: every reported
        // quantile is the upper bound of the exact quantile's log2 bucket,
        // so it lies within one bucket (×2) above the exact value.
        let p = PhaseProfiler::new();
        let n = 301;
        let mut laps: Vec<f64> = (0..n)
            .map(|i| 1e-5 * 1e3f64.powf(i as f64 / (n - 1) as f64))
            .collect();
        for &secs in &laps {
            p.record(Phase::Encode, secs);
        }
        laps.sort_by(f64::total_cmp);
        let h = p.histogram(Phase::Encode).unwrap();
        for q in [0.0, 0.05, 0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            let exact = laps[rank - 1];
            let got = h.quantile(q);
            assert!(
                exact <= got && got <= 2.0 * exact,
                "q={q}: reported {got}, exact {exact}"
            );
        }
        assert!(h.quantile(0.5) < h.quantile(0.95));
    }

    #[test]
    fn disabled_acc_records_nothing() {
        let p = PhaseProfiler::new();
        let mut acc = PhaseAcc::new(false);
        acc.mark();
        acc.lap(Phase::Encode);
        p.flush_run(&acc, 5.0);
        assert!(!p.has_data());
        assert_eq!(acc.total(Phase::Encode), 0.0);
    }

    #[test]
    fn pool_records_merge_across_campaigns() {
        let p = PhaseProfiler::new();
        p.record_pool(
            &[
                WorkerStats {
                    busy_secs: 0.5,
                    cells: 10,
                },
                WorkerStats {
                    busy_secs: 0.25,
                    cells: 6,
                },
            ],
            1.0,
        );
        p.record_pool(
            &[WorkerStats {
                busy_secs: 1.0,
                cells: 4,
            }],
            1.5,
        );
        let workers = p.workers();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].cells, 14);
        assert!((workers[0].busy_secs - 1.5).abs() < 1e-12);
        assert_eq!(workers[1].cells, 6);
        assert!((p.wall_secs() - 2.5).abs() < 1e-12);
        // Each worker contributed one queue-wait observation per campaign.
        assert_eq!(p.histogram(Phase::QueueWait).unwrap().count(), 3);
    }

    #[test]
    fn json_export_names_every_recorded_phase() {
        let p = PhaseProfiler::new();
        p.record(Phase::Generate, 0.002);
        p.record(Phase::Encode, 0.001);
        p.record_pool(
            &[WorkerStats {
                busy_secs: 0.1,
                cells: 8,
            }],
            0.2,
        );
        let doc = serde::json::parse(&p.to_json()).expect("valid JSON");
        let phases = doc.get("phases").expect("phases map");
        assert!(phases.get("generate").is_some());
        assert!(phases.get("encode").is_some());
        assert!(phases.get("queue_wait").is_some());
        assert!(phases.get("verify").is_none(), "unrecorded phases omitted");
        let workers = doc.get("workers").and_then(Value::as_seq).unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("cells").and_then(Value::as_u64), Some(8));
        let util = workers[0]
            .get("utilization")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((util - 0.5).abs() < 1e-9);
    }
}
