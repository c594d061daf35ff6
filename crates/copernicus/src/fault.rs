//! Fault tolerance for measurement campaigns: the failure taxonomy, the
//! retry/backoff policy, and the deterministic fault-injection harness.
//!
//! # Failure taxonomy
//!
//! Every failed grid cell is classified into one of four [`FailureKind`]s:
//!
//! * **Input** — the workload data itself is bad (partitioning/encoding
//!   rejected the matrix, e.g. a malformed `.mtx` upstream). Permanent:
//!   re-running the same bytes re-fails.
//! * **Platform** — the hardware model rejected the configuration or a
//!   decompressor disagreed with the reference tile. Permanent for the same
//!   reason.
//! * **Panic** — a worker panicked while computing the cell. Treated as
//!   transient (a wedged allocation, a poisoned dependency) and retried.
//! * **Timeout** — the cell exceeded its deadline, the canonical transient
//!   failure of real measurement fleets. Produced by real per-cell
//!   deadlines ([`CampaignPolicy::cell_timeout`], the `--cell-timeout`
//!   flag, or a serve-daemon request deadline cancelling the cell
//!   cooperatively) and by the fault-injection harness (`err:`/`timeout:`
//!   faults).
//!
//! Transient kinds are retried up to
//! [`CampaignPolicy::max_retries`] with bounded, deterministic exponential
//! backoff; permanent kinds fail the cell immediately.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] makes chosen cells panic or fail so the recovery paths
//! are testable in CI. Faults are keyed on the runner's *global cell
//! index* — cells are numbered in dispatch order across every campaign a
//! [`CampaignRunner`](crate::CampaignRunner) executes — and fire only when
//! the cell is actually computed (cache hits are never faulted), so a plan
//! is deterministic for a given campaign sequence regardless of `--jobs`.
//!
//! Spec syntax (the `--inject-faults` flag): comma-separated clauses of
//! `kind:cell=N[:count=K]` where `kind` is `panic`, `err` or `timeout`
//! (alias of `err`) and `count` (default 1) is how many attempts at that
//! cell fail before it succeeds — `count=2` with `--max-retries 2` models a
//! flaky cell that recovers on the third try.
//!
//! ```text
//! --inject-faults panic:cell=12,err:cell=40:count=2
//! ```

use copernicus_hls::PlatformError;
use sparsemat::FormatKind;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Classification of a cell failure. See the [module docs](self) for the
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FailureKind {
    /// Bad workload data (partitioning/encoding rejected it). Permanent.
    Input,
    /// The platform model rejected the configuration or failed functional
    /// verification. Permanent.
    Platform,
    /// The worker panicked while computing the cell. Transient.
    Panic,
    /// The cell exceeded its deadline — a real `--cell-timeout` expiry, a
    /// cooperative cancellation, or an injected fault. Transient.
    Timeout,
}

impl FailureKind {
    /// Whether retrying the cell can plausibly succeed.
    pub fn is_transient(self) -> bool {
        matches!(self, FailureKind::Panic | FailureKind::Timeout)
    }

    /// Lower-case taxonomy tag used in metrics names and manifests.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Input => "input",
            FailureKind::Platform => "platform",
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }

    /// Classifies a platform error.
    pub fn of_platform_error(e: &PlatformError) -> Self {
        match e {
            PlatformError::Sparse(_) => FailureKind::Input,
            PlatformError::Cancelled => FailureKind::Timeout,
            _ => FailureKind::Platform,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One grid cell that ultimately failed (after exhausting any retries).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellFailure {
    /// Global cell index (dispatch order across the runner's campaigns).
    pub cell: usize,
    /// Workload label of the cell.
    pub workload: String,
    /// Partition size of the cell.
    pub partition_size: usize,
    /// Format under test.
    pub format: FormatKind,
    /// Failure classification.
    pub kind: FailureKind,
    /// Human-readable description of the last attempt's failure.
    pub message: String,
    /// Retries spent before giving up.
    pub retries: u32,
}

impl CellFailure {
    /// The manifest-facing audit record of this failure.
    pub fn to_record(&self) -> copernicus_telemetry::FailureRecord {
        copernicus_telemetry::FailureRecord {
            cell: self.cell as u64,
            workload: self.workload.clone(),
            partition_size: self.partition_size,
            format: self.format.to_string(),
            kind: self.kind.label().to_string(),
            message: self.message.clone(),
            retries: u64::from(self.retries),
        }
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} ({} p={} {}): {} failure: {}",
            self.cell, self.workload, self.partition_size, self.format, self.kind, self.message
        )?;
        if self.retries > 0 {
            write!(f, " (after {} retries)", self.retries)?;
        }
        Ok(())
    }
}

/// A campaign that could not deliver its full measurement grid.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// One or more cells failed permanently. Without
    /// [`CampaignPolicy::keep_going`] this carries the earliest observed
    /// failure; with it, every failed cell of the completed grid.
    Cells {
        /// The failed cells, in grid order.
        failures: Vec<CellFailure>,
        /// Cells the campaign was asked to measure.
        total_cells: usize,
    },
    /// A platform error outside the cell machinery (e.g. a directly driven
    /// experiment that does not run on a [`CampaignRunner`](crate::CampaignRunner)).
    Platform(PlatformError),
}

impl CampaignError {
    /// The earliest failed cell, when the error carries cell failures.
    pub fn first_failure(&self) -> Option<&CellFailure> {
        match self {
            CampaignError::Cells { failures, .. } => failures.first(),
            _ => None,
        }
    }

    /// Every failed cell carried by this error (empty for non-cell errors).
    pub fn failures(&self) -> &[CellFailure] {
        match self {
            CampaignError::Cells { failures, .. } => failures,
            _ => &[],
        }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Cells {
                failures,
                total_cells,
            } => {
                write!(f, "{} of {} grid cells failed", failures.len(), total_cells)?;
                if let Some(first) = failures.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            CampaignError::Platform(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for CampaignError {
    fn from(e: PlatformError) -> Self {
        CampaignError::Platform(e)
    }
}

impl From<sparsemat::SparseError> for CampaignError {
    fn from(e: sparsemat::SparseError) -> Self {
        CampaignError::Platform(PlatformError::from(e))
    }
}

/// How a [`CampaignRunner`](crate::CampaignRunner) reacts to failing cells.
#[derive(Debug, Clone)]
pub struct CampaignPolicy {
    /// Retries granted to each cell's *transient* failures (permanent
    /// failures never retry). `0` disables retrying.
    pub max_retries: u32,
    /// Record failed cells and keep measuring the rest of the grid instead
    /// of aborting on the first permanent failure.
    pub keep_going: bool,
    /// First retry's backoff in milliseconds; attempt `k` waits
    /// `min(base << (k - 1), cap)`.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff wait, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Deterministic fault injection (testing only).
    pub faults: Option<FaultPlan>,
    /// Wall-clock deadline applied to each cell attempt. The runner
    /// derives a child [`CancelToken`](copernicus_telemetry::CancelToken)
    /// with this timeout per attempt, armed once the unit's tiles are
    /// prepared (the grid build or the structural measure, shared by the
    /// unit's cells), so the deadline bounds the cell's own run; an
    /// expired deadline fails the cell with [`FailureKind::Timeout`]
    /// (transient — retried like any other timeout). `None` disables
    /// per-cell deadlines.
    pub cell_timeout: Option<std::time::Duration>,
    /// Campaign-level cancellation (shutdown/drain or a per-request
    /// deadline in the serve daemon). Once cancelled, in-flight cells fail
    /// with [`FailureKind::Timeout`] and are *not* retried — cancellation
    /// means "stop now", not "try harder".
    pub cancel: Option<copernicus_telemetry::CancelToken>,
}

impl Default for CampaignPolicy {
    fn default() -> Self {
        CampaignPolicy {
            max_retries: 0,
            keep_going: false,
            backoff_base_ms: 10,
            backoff_cap_ms: 250,
            faults: None,
            cell_timeout: None,
            cancel: None,
        }
    }
}

impl CampaignPolicy {
    /// The deterministic backoff before retry attempt `k` (1-based):
    /// exponential from [`backoff_base_ms`](Self::backoff_base_ms), capped
    /// at [`backoff_cap_ms`](Self::backoff_cap_ms). No jitter — resumed and
    /// repeated campaigns must behave identically.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ms)
    }

    /// Builder: sets [`max_retries`](Self::max_retries).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Builder: enables [`keep_going`](Self::keep_going).
    pub fn with_keep_going(mut self) -> Self {
        self.keep_going = true;
        self
    }

    /// Builder: arms a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder: sets a per-cell wall-clock deadline.
    pub fn with_cell_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Builder: attaches a campaign-level cancellation token.
    pub fn with_cancel(mut self, cancel: copernicus_telemetry::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// True when campaign-level cancellation has been requested.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(copernicus_telemetry::CancelToken::is_cancelled)
    }
}

/// What an armed fault does to the cell it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker panics (exercises `catch_unwind` isolation).
    Panic,
    /// The attempt fails with an injected transient error, classified as
    /// [`FailureKind::Timeout`].
    TransientError,
}

/// A seeded-by-construction, deterministic set of injected faults keyed on
/// global cell indices. See the [module docs](self) for the spec syntax
/// and determinism argument.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// cell index → (what to do, attempts left to sabotage).
    armed: Mutex<HashMap<usize, (FaultKind, usize)>>,
}

impl FaultPlan {
    /// Parses a `--inject-faults` spec
    /// (`kind:cell=N[:count=K][,kind:cell=N...]`).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown kinds, malformed clauses, or
    /// duplicate cells.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut armed = HashMap::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let kind = match parts.next() {
                Some("panic") => FaultKind::Panic,
                Some("err" | "timeout") => FaultKind::TransientError,
                other => {
                    return Err(format!(
                        "bad fault clause {clause:?}: unknown kind {:?} \
                         (expected panic, err or timeout)",
                        other.unwrap_or("")
                    ));
                }
            };
            let mut cell: Option<usize> = None;
            let mut count: usize = 1;
            for kv in parts {
                match kv.split_once('=') {
                    Some(("cell", v)) => {
                        cell = Some(v.parse().map_err(|e| {
                            format!("bad fault clause {clause:?}: cell {v:?}: {e}")
                        })?);
                    }
                    Some(("count", v)) => {
                        count = v.parse().map_err(|e| {
                            format!("bad fault clause {clause:?}: count {v:?}: {e}")
                        })?;
                        if count == 0 {
                            return Err(format!(
                                "bad fault clause {clause:?}: count must be at least 1"
                            ));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "bad fault clause {clause:?}: unknown parameter {kv:?} \
                             (expected cell=N or count=K)"
                        ));
                    }
                }
            }
            let cell =
                cell.ok_or_else(|| format!("bad fault clause {clause:?}: missing cell=N"))?;
            if armed.insert(cell, (kind, count)).is_some() {
                return Err(format!("duplicate fault for cell {cell}"));
            }
        }
        Ok(FaultPlan {
            armed: Mutex::new(armed),
        })
    }

    /// A plan with a single armed fault (test convenience).
    pub fn single(kind: FaultKind, cell: usize, count: usize) -> FaultPlan {
        let mut armed = HashMap::new();
        armed.insert(cell, (kind, count.max(1)));
        FaultPlan {
            armed: Mutex::new(armed),
        }
    }

    /// Fires the fault armed on `cell`, if any sabotage attempts remain.
    /// Each call consumes one attempt.
    pub fn fire(&self, cell: usize) -> Option<FaultKind> {
        let mut armed = self
            .armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (kind, remaining) = armed.get_mut(&cell)?;
        let kind = *kind;
        *remaining -= 1;
        if *remaining == 0 {
            armed.remove(&cell);
        }
        Some(kind)
    }

    /// Whether any faults remain armed.
    pub fn is_empty(&self) -> bool {
        self.armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_empty()
    }
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        FaultPlan {
            armed: Mutex::new(
                self.armed
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

/// Renders the panic payload caught by `catch_unwind` as a message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panic: {s}")
    } else {
        "worker panic (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example_spec() {
        let plan = FaultPlan::parse("panic:cell=12,err:cell=40:count=2").unwrap();
        assert_eq!(plan.fire(12), Some(FaultKind::Panic));
        assert_eq!(plan.fire(12), None, "count defaults to 1");
        assert_eq!(plan.fire(40), Some(FaultKind::TransientError));
        assert_eq!(plan.fire(40), Some(FaultKind::TransientError));
        assert_eq!(plan.fire(40), None, "count=2 exhausted");
        assert!(plan.is_empty());
    }

    #[test]
    fn timeout_is_an_alias_for_err() {
        let plan = FaultPlan::parse("timeout:cell=3").unwrap();
        assert_eq!(plan.fire(3), Some(FaultKind::TransientError));
    }

    #[test]
    fn unarmed_cells_never_fire() {
        let plan = FaultPlan::parse("panic:cell=5").unwrap();
        assert_eq!(plan.fire(4), None);
        assert_eq!(plan.fire(6), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("explode:cell=1").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic:cell=x").is_err());
        assert!(FaultPlan::parse("panic:cell=1:count=0").is_err());
        assert!(FaultPlan::parse("panic:cell=1:lives=3").is_err());
        assert!(FaultPlan::parse("panic:cell=1,err:cell=1").is_err());
    }

    #[test]
    fn empty_spec_is_an_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = CampaignPolicy {
            backoff_base_ms: 10,
            backoff_cap_ms: 100,
            ..CampaignPolicy::default()
        };
        assert_eq!(policy.backoff_ms(1), 10);
        assert_eq!(policy.backoff_ms(2), 20);
        assert_eq!(policy.backoff_ms(3), 40);
        assert_eq!(policy.backoff_ms(4), 80);
        assert_eq!(policy.backoff_ms(5), 100, "capped");
        assert_eq!(policy.backoff_ms(64), 100, "shift saturates");
    }

    #[test]
    fn taxonomy_splits_transient_from_permanent() {
        assert!(FailureKind::Panic.is_transient());
        assert!(FailureKind::Timeout.is_transient());
        assert!(!FailureKind::Input.is_transient());
        assert!(!FailureKind::Platform.is_transient());
    }

    #[test]
    fn platform_errors_classify_by_variant() {
        let sparse = PlatformError::Sparse(sparsemat::SparseError::ShapeMismatch {
            expected: (1, 1),
            found: (2, 2),
        });
        assert_eq!(FailureKind::of_platform_error(&sparse), FailureKind::Input);
        let config = PlatformError::Config("bad".into());
        assert_eq!(
            FailureKind::of_platform_error(&config),
            FailureKind::Platform
        );
    }

    #[test]
    fn cell_failure_display_mentions_retries() {
        let f = CellFailure {
            cell: 7,
            workload: "d=0.05".into(),
            partition_size: 16,
            format: FormatKind::Csr,
            kind: FailureKind::Panic,
            message: "worker panic: boom".into(),
            retries: 2,
        };
        let text = f.to_string();
        assert!(text.contains("cell 7"), "{text}");
        assert!(text.contains("after 2 retries"), "{text}");
        let e = CampaignError::Cells {
            failures: vec![f],
            total_cells: 10,
        };
        assert!(e.to_string().contains("1 of 10"), "{e}");
        assert_eq!(e.failures().len(), 1);
        assert!(e.first_failure().is_some());
    }

    #[test]
    fn panic_messages_render_str_and_string_payloads() {
        assert_eq!(panic_message(&"boom"), "worker panic: boom");
        assert_eq!(panic_message(&"boom".to_string()), "worker panic: boom");
        assert_eq!(panic_message(&42usize), "worker panic (non-string payload)");
    }
}
