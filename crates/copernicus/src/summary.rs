//! The normalized six-metric summary of Fig. 14.
//!
//! "Figure 14 summarizes all the six metrics for three group of workloads
//! by normalizing each metric to its maximum achieved number so that '1'
//! represents the best case and '0' represents the worst case."

use crate::Measurement;
use copernicus_workloads::WorkloadClass;
use sparsemat::FormatKind;

/// The six metrics Fig. 14 plots per format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum MetricKind {
    /// Decompression overhead σ (lower is better).
    Sigma,
    /// Total latency (lower is better).
    Latency,
    /// Balance ratio (closest to 1 is better).
    Balance,
    /// Throughput (higher is better).
    Throughput,
    /// Memory-bandwidth utilization (higher is better).
    BandwidthUtilization,
    /// Dynamic power (lower is better).
    Power,
}

impl MetricKind {
    /// All six, in the order the figure lists them.
    pub const ALL: [MetricKind; 6] = [
        MetricKind::Sigma,
        MetricKind::Latency,
        MetricKind::Balance,
        MetricKind::Throughput,
        MetricKind::BandwidthUtilization,
        MetricKind::Power,
    ];

    /// Short label for table headers.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Sigma => "sigma",
            MetricKind::Latency => "latency",
            MetricKind::Balance => "balance",
            MetricKind::Throughput => "throughput",
            MetricKind::BandwidthUtilization => "bw_util",
            MetricKind::Power => "power",
        }
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One Fig.-14 row: a format's six normalized scores within one workload
/// class (1 = best format on that metric, 0 = worst).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SummaryRow {
    /// Workload class the scores are computed within.
    pub class: WorkloadClass,
    /// Format.
    pub format: FormatKind,
    /// Normalized scores in [`MetricKind::ALL`] order.
    pub scores: [f64; 6],
}

impl SummaryRow {
    /// The score for one metric.
    pub fn score(&self, metric: MetricKind) -> f64 {
        MetricKind::ALL
            .iter()
            .position(|&m| m == metric)
            .map_or(f64::NAN, |idx| self.scores[idx])
    }
}

/// Raw (pre-normalization) value of a metric, averaged over a format's
/// measurements; larger-is-better metrics are returned as-is, the rest are
/// converted inside [`normalized_summary`].
fn raw_metric(ms: &[&Measurement], metric: MetricKind) -> f64 {
    let n = ms.len().max(1) as f64;
    match metric {
        MetricKind::Sigma => ms.iter().map(|m| m.sigma()).sum::<f64>() / n,
        MetricKind::Latency => ms.iter().map(|m| m.total_seconds()).sum::<f64>() / n,
        // Distance of the balance ratio from the perfect 1.0, in log space
        // so 2× memory-bound and 2× compute-bound are equally imbalanced.
        MetricKind::Balance => {
            ms.iter()
                .map(|m| m.balance_ratio().max(1e-12).ln().abs())
                .sum::<f64>()
                / n
        }
        MetricKind::Throughput => ms.iter().map(|m| m.throughput()).sum::<f64>() / n,
        MetricKind::BandwidthUtilization => {
            ms.iter().map(|m| m.bandwidth_utilization()).sum::<f64>() / n
        }
        MetricKind::Power => {
            ms.iter()
                .map(|m| copernicus_hls::power::dynamic_power(m.format, m.partition_size))
                .sum::<f64>()
                .max(1e-12)
                / n
        }
    }
}

/// Whether larger raw values are better for a metric.
fn higher_is_better(metric: MetricKind) -> bool {
    matches!(
        metric,
        MetricKind::Throughput | MetricKind::BandwidthUtilization
    )
}

/// Builds the Fig.-14 summary from a measurement campaign: for each
/// workload class, each format's per-metric average is min–max normalized
/// across formats so 1 is the best format and 0 the worst.
pub fn normalized_summary(measurements: &[Measurement]) -> Vec<SummaryRow> {
    let mut classes: Vec<WorkloadClass> = measurements.iter().map(|m| m.class).collect();
    classes.sort_by_key(|c| format!("{c}"));
    classes.dedup();
    let mut formats: Vec<FormatKind> = measurements.iter().map(|m| m.format).collect();
    formats.sort();
    formats.dedup();

    let mut rows = Vec::new();
    for &class in &classes {
        // raw[metric][format]
        let mut raw = vec![vec![0.0f64; formats.len()]; MetricKind::ALL.len()];
        for (fi, &format) in formats.iter().enumerate() {
            let ms: Vec<&Measurement> = measurements
                .iter()
                .filter(|m| m.class == class && m.format == format)
                .collect();
            for (mi, &metric) in MetricKind::ALL.iter().enumerate() {
                raw[mi][fi] = raw_metric(&ms, metric);
            }
        }
        for (fi, &format) in formats.iter().enumerate() {
            let mut scores = [0.0f64; 6];
            for (mi, &metric) in MetricKind::ALL.iter().enumerate() {
                let lo = raw[mi].iter().copied().fold(f64::INFINITY, f64::min);
                let hi = raw[mi].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let x = raw[mi][fi];
                scores[mi] = if (hi - lo).abs() < 1e-15 {
                    1.0
                } else if higher_is_better(metric) {
                    (x - lo) / (hi - lo)
                } else {
                    (hi - x) / (hi - lo)
                };
            }
            rows.push(SummaryRow {
                class,
                format,
                scores,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{characterize, ExperimentConfig};
    use copernicus_workloads::Workload;

    fn sample_rows() -> Vec<SummaryRow> {
        let cfg = ExperimentConfig::quick();
        let workloads = [
            Workload::Random {
                n: 96,
                density: 0.05,
            },
            Workload::Band { n: 96, width: 4 },
        ];
        let ms = characterize(&workloads, &FormatKind::CHARACTERIZED, &[16], &cfg).unwrap();
        normalized_summary(&ms)
    }

    #[test]
    fn scores_are_in_unit_interval() {
        for row in sample_rows() {
            for (m, s) in MetricKind::ALL.iter().zip(row.scores) {
                assert!(
                    (0.0..=1.0).contains(&s),
                    "{} {} {m} = {s}",
                    row.class,
                    row.format
                );
            }
        }
    }

    #[test]
    fn every_metric_has_a_best_and_worst_format() {
        let rows = sample_rows();
        let classes: Vec<WorkloadClass> = {
            let mut c: Vec<_> = rows.iter().map(|r| r.class).collect();
            c.dedup();
            c
        };
        for class in classes {
            for metric in MetricKind::ALL {
                let scores: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.class == class)
                    .map(|r| r.score(metric))
                    .collect();
                let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let min = scores.iter().copied().fold(f64::INFINITY, f64::min);
                assert!((max - 1.0).abs() < 1e-12, "{class} {metric} max={max}");
                assert!(min.abs() < 1e-12, "{class} {metric} min={min}");
            }
        }
    }

    #[test]
    fn csc_scores_worst_on_sigma() {
        // §6.1: the worst decompression overhead belongs to CSC.
        for row in sample_rows() {
            if row.format == FormatKind::Csc {
                assert!(row.score(MetricKind::Sigma) < 1e-12, "{:?}", row);
            }
        }
    }

    #[test]
    fn row_accessors() {
        let rows = sample_rows();
        let r = &rows[0];
        assert_eq!(r.score(MetricKind::Sigma), r.scores[0]);
    }

    #[test]
    fn metric_labels_are_unique() {
        let mut labels: Vec<&str> = MetricKind::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
