//! A process-wide metrics registry: named atomic counters plus fixed-bucket
//! histograms, exportable as TSV or JSON.
//!
//! The registry is `Sync` and takes `&self` everywhere, so one instance can
//! be shared across a whole characterization campaign. Counters use a
//! read-lock + atomic fast path; histograms use power-of-two buckets so
//! values spanning many orders of magnitude (cycles, bytes) and small ratios
//! (sigma, balance) share one bucketing scheme.

use crate::locks::{lock_clean, read_clean, write_clean};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Number of histogram buckets. Bucket `i` covers values
/// `<= 2^(i + min_exp)`; the final bucket is the overflow catch-all.
const BUCKETS: usize = 48;
/// Exponent of the first bucket's upper bound in the registry's
/// histograms: 2^-8 = 1/256, small enough for compute-balance ratios and
/// sigma values well below one.
const MIN_EXP: i32 = -8;
/// Exponent of the first bucket's upper bound for wall-clock seconds:
/// 2^-24 s ≈ 60 ns, below any lap the profiler takes, while the last
/// finite bucket still reaches 2^22 s.
const SECONDS_MIN_EXP: i32 = -24;

/// A fixed-bucket log2 histogram with exact count/sum/min/max sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Exponent of the first bucket's upper bound.
    min_exp: i32,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_min_exp(MIN_EXP)
    }
}

impl Histogram {
    /// An empty histogram whose first bucket ends at 2^-8.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram for wall-clock seconds, whose first bucket ends
    /// at 2^-24 s so sub-millisecond laps land in distinct buckets.
    pub fn seconds() -> Self {
        Histogram::with_min_exp(SECONDS_MIN_EXP)
    }

    fn with_min_exp(min_exp: i32) -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            min_exp,
        }
    }

    fn bucket_index(&self, value: f64) -> usize {
        if value.is_nan() {
            return BUCKETS - 1;
        }
        (0..BUCKETS - 1)
            .find(|&i| value <= self.bucket_bound(i))
            .unwrap_or(BUCKETS - 1)
    }

    /// Upper bound of bucket `i` (`+inf` for the overflow bucket).
    pub fn bucket_bound(&self, i: usize) -> f64 {
        if i >= BUCKETS - 1 {
            f64::INFINITY
        } else {
            (2.0f64).powi(i as i32 + self.min_exp)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.counts[self.bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Upper-bound estimate of quantile `q` in `[0, 1]`: the bound of the
    /// bucket where the cumulative count crosses `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for i in 0..BUCKETS {
            seen += self.counts[i];
            if seen >= target {
                // Clamp the coarse bucket bound by the exact extrema.
                return self.bucket_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Non-empty `(upper_bound, count)` buckets.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        (0..BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (self.bucket_bound(i), self.counts[i]))
            .collect()
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::Float(self.sum)),
            ("mean".to_string(), Value::Float(self.mean())),
            ("min".to_string(), Value::Float(self.min)),
            ("max".to_string(), Value::Float(self.max)),
            ("p50".to_string(), Value::Float(self.quantile(0.5))),
            ("p99".to_string(), Value::Float(self.quantile(0.99))),
            (
                "buckets".to_string(),
                Value::Seq(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(le, n)| {
                            Value::Map(vec![
                                ("le".to_string(), Value::Float(le)),
                                ("count".to_string(), Value::UInt(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Named counters and histograms for a characterization campaign.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, AtomicU64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero first if needed.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(c) = read_clean(&self.counters).get(name) {
            c.fetch_add(by, Ordering::Relaxed);
            return;
        }
        write_clean(&self.counters)
            .entry(name.to_string())
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(by, Ordering::Relaxed);
    }

    /// Adds `by` to the counter `name` unless `by` is zero. Zero deltas do
    /// not create the counter, so exporters of occasional events (cache
    /// deltas, retries, failures) keep a quiet run's TSV/JSON byte-identical
    /// to one where the subsystem never reported at all.
    pub fn incr_nonzero(&self, name: &str, by: u64) {
        if by > 0 {
            self.incr(name, by);
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        lock_clean(&self.histograms)
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        read_clean(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of histogram `name`, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        lock_clean(&self.histograms).get(name).cloned()
    }

    /// Sorted counter names.
    pub fn counter_names(&self) -> Vec<String> {
        read_clean(&self.counters).keys().cloned().collect()
    }

    /// Tab-separated export: one row per counter, then one per histogram
    /// summary, with a header row.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("metric\tkind\tcount\tsum\tmean\tmin\tmax\tp50\tp99\n");
        for (name, c) in read_clean(&self.counters).iter() {
            let v = c.load(Ordering::Relaxed);
            out.push_str(&format!("{name}\tcounter\t{v}\t{v}\t\t\t\t\t\n"));
        }
        for (name, h) in lock_clean(&self.histograms).iter() {
            out.push_str(&format!(
                "{name}\thistogram\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                h.count(),
                h.sum(),
                h.mean(),
                h.min(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// JSON export: `{"counters": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let counters = Value::Map(
            read_clean(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(v.load(Ordering::Relaxed))))
                .collect(),
        );
        let histograms = Value::Map(
            lock_clean(&self.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), h.to_value()))
                .collect(),
        );
        serde::json::to_string_pretty(&Value::Map(vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 3);
        m.incr("x", 4);
        m.incr("y", 1);
        assert_eq!(m.counter("x"), 7);
        assert_eq!(m.counter("y"), 1);
        assert_eq!(m.counter_names(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn incr_nonzero_skips_zero_deltas() {
        let m = MetricsRegistry::new();
        m.incr_nonzero("quiet", 0);
        assert!(m.counter_names().is_empty(), "zero delta must not register");
        m.incr_nonzero("loud", 3);
        m.incr_nonzero("loud", 0);
        assert_eq!(m.counter("loud"), 3);
        assert_eq!(m.counter_names(), vec!["loud".to_string()]);
    }

    #[test]
    fn histogram_summary_statistics_are_exact() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    fn histogram_buckets_cover_wide_ranges() {
        let mut h = Histogram::new();
        h.observe(0.01); // ratio-scale
        h.observe(1.5);
        h.observe(1.0e9); // cycle-scale
        h.observe(1.0e30); // overflow bucket
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4);
        assert!(buckets.last().unwrap().0.is_infinite());
        // The registry's first bucket stays at 2^-8, so metrics.tsv bytes
        // do not depend on the seconds floor.
        assert_eq!(h.bucket_bound(0), 1.0 / 256.0);
        assert_eq!(Histogram::seconds().bucket_bound(0), 2f64.powi(-24));
    }

    #[test]
    fn quantile_is_bounded_by_extrema() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((1.0..=100.0).contains(&p50), "{p50}");
        assert!(h.quantile(1.0) <= 100.0);
        assert!(h.quantile(0.0) >= 1.0);
        assert!(h.quantile(0.99) >= p50);
    }

    #[test]
    fn exports_contain_every_metric() {
        let m = MetricsRegistry::new();
        m.incr("runs", 2);
        m.observe("sigma", 1.25);
        let tsv = m.to_tsv();
        assert!(tsv.contains("runs\tcounter\t2"));
        assert!(tsv.contains("sigma\thistogram\t1"));

        let doc = serde::json::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("runs"))
                .and_then(Value::as_u64),
            Some(2)
        );
        let sigma = doc
            .get("histograms")
            .and_then(|h| h.get("sigma"))
            .expect("sigma histogram");
        assert_eq!(sigma.get("count").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.incr("hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter("hits"), 4000);
    }
}
