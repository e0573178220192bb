//! The metrics registry: counters, gauges, log-bucketed histograms.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde_json::{Map, Value};

/// A sorted label set (`model`, `platform`, `policy`, ...).
///
/// Labels sort by key so that `Labels::new().with("a", 1).with("b", 2)`
/// and the reverse insertion order address the same time series.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    pairs: Vec<(String, String)>,
}

impl Labels {
    /// An empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) one label.
    pub fn with(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        let key = key.into();
        self.pairs.retain(|(k, _)| *k != key);
        self.pairs.push((key, value.to_string()));
        self.pairs.sort();
        self
    }

    /// True when no labels are set.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Prometheus-style rendering: `{k="v",k2="v2"}` or `""` when empty.
    fn prometheus(&self) -> String {
        if self.pairs.is_empty() {
            return String::new();
        }
        let body: Vec<String> = self
            .pairs
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn to_json(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in &self.pairs {
            map.insert(k.clone(), Value::String(v.clone()));
        }
        Value::Object(map)
    }
}

/// Number of log buckets; bucket `i` spans `(2^(i-11), 2^(i-10)]`, so the
/// histogram covers ~0.0005 up to ~9e15 — microseconds from sub-ns noise
/// to hours, or byte counts up to petabytes.
const BUCKETS: usize = 64;

/// Upper edge of bucket `i`.
fn bucket_upper(i: usize) -> f64 {
    2f64.powi(i as i32 - 10)
}

/// Bucket index for a value.
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let idx = v.log2().ceil() + 10.0;
    idx.clamp(0.0, (BUCKETS - 1) as f64) as usize
}

/// A log-bucketed histogram.
#[derive(Debug, Clone)]
struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: f64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Approximate quantile by linear interpolation inside the bucket
    /// that crosses rank `q * count`.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if (next as f64) >= rank {
                let lower = if i == 0 { 0.0 } else { bucket_upper(i - 1) };
                let upper = bucket_upper(i).min(self.max);
                let within = (rank - cumulative as f64) / c as f64;
                return (lower + (upper - lower) * within).clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Exact nearest-rank percentile of an ascending-sorted sample: the
/// smallest value with at least `q` of the sample at or below it.
/// `None` when the sample is empty; each caller picks its own empty
/// value.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(last)])
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe metrics registry whose series all carry one set of base
/// labels (typically `model`/`platform`/`policy`), so each series is
/// keyed by its name alone.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    base: Labels,
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry with no base labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry whose series all carry `base` labels.
    pub fn with_labels(base: Labels) -> Self {
        Self {
            base,
            inner: Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // A poisoned lock only happens if a panicking thread died mid-
        // update; metrics are best-effort, so keep serving.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `by` to a counter (creates it at 0 first).
    pub fn inc_counter(&self, name: &str, by: f64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0.0) += by;
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Records one histogram observation.
    pub fn observe(&self, name: &str, value: f64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Reads a counter back (None when never incremented).
    pub fn counter_value(&self, name: &str) -> Option<f64> {
        self.lock().counters.get(name).copied()
    }

    /// Reads a gauge back.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Summarizes a histogram (None when it has no observations).
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().histograms.get(name).map(Histogram::snapshot)
    }

    /// Full JSON exposition: base labels plus every series.
    ///
    /// Histograms carry `count/sum/min/max/p50/p95/p99` and their
    /// non-empty log buckets as `{le, count}` pairs.
    pub fn to_json(&self) -> Value {
        let inner = self.lock();
        let labels = self.base.to_json();
        let mut root = Map::new();
        root.insert("labels".to_string(), labels.clone());
        let series = |name: &String, value: &f64| {
            let mut entry = Map::new();
            entry.insert("name".to_string(), Value::String(name.clone()));
            entry.insert("labels".to_string(), labels.clone());
            entry.insert("value".to_string(), Value::Number(*value));
            Value::Object(entry)
        };
        let counters = inner.counters.iter().map(|(n, v)| series(n, v)).collect();
        root.insert("counters".to_string(), Value::Array(counters));
        let gauges = inner.gauges.iter().map(|(n, v)| series(n, v)).collect();
        root.insert("gauges".to_string(), Value::Array(gauges));

        let mut histograms = Vec::new();
        for (name, hist) in &inner.histograms {
            let snap = hist.snapshot();
            let mut entry = Map::new();
            entry.insert("name".to_string(), Value::String(name.clone()));
            entry.insert("labels".to_string(), labels.clone());
            entry.insert("count".to_string(), Value::Number(snap.count as f64));
            entry.insert("sum".to_string(), Value::Number(snap.sum));
            entry.insert("min".to_string(), Value::Number(snap.min));
            entry.insert("max".to_string(), Value::Number(snap.max));
            entry.insert("p50".to_string(), Value::Number(snap.p50));
            entry.insert("p95".to_string(), Value::Number(snap.p95));
            entry.insert("p99".to_string(), Value::Number(snap.p99));
            let mut buckets = Vec::new();
            for (i, &count) in hist.counts.iter().enumerate() {
                if count > 0 {
                    let mut b = Map::new();
                    b.insert("le".to_string(), Value::Number(bucket_upper(i)));
                    b.insert("count".to_string(), Value::Number(count as f64));
                    buckets.push(Value::Object(b));
                }
            }
            entry.insert("buckets".to_string(), Value::Array(buckets));
            histograms.push(Value::Object(entry));
        }
        root.insert("histograms".to_string(), Value::Array(histograms));
        Value::Object(root)
    }

    /// Prometheus text exposition (histograms as cumulative `_bucket`
    /// series plus `_sum`/`_count`).
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.lock();
        let labels = self.base.prometheus();
        let mut out = String::new();
        for (name, value) in &inner.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name}{labels} {value}");
        }
        for (name, value) in &inner.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name}{labels} {value}");
        }
        for (name, hist) in &inner.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in hist.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let le = self.base.clone().with("le", bucket_upper(i));
                let _ = writeln!(out, "{name}_bucket{} {cumulative}", le.prometheus());
            }
            let inf = self.base.clone().with("le", "+Inf");
            let _ = writeln!(out, "{name}_bucket{} {}", inf.prometheus(), hist.count);
            let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum);
            let _ = writeln!(out, "{name}_count{labels} {}", hist.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), Some(2.0));
        assert_eq!(percentile(&sorted, 0.99), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn counters_accumulate_under_labels() {
        let reg = MetricsRegistry::with_labels(Labels::new().with("model", "lenet"));
        reg.inc_counter("edgenn_kernels_total", 3.0);
        reg.inc_counter("edgenn_kernels_total", 2.0);
        assert_eq!(reg.counter_value("edgenn_kernels_total"), Some(5.0));
        let json = reg.to_json();
        assert_eq!(json["counters"][0]["labels"]["model"], "lenet");
        assert_eq!(json["counters"][0]["value"], 5);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("depth", 3.0);
        reg.set_gauge("depth", 1.5);
        assert_eq!(reg.gauge_value("depth"), Some(1.5));
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_bounded() {
        let reg = MetricsRegistry::new();
        for i in 1..=1000 {
            reg.observe("latency_us", f64::from(i));
        }
        let snap = reg.histogram_snapshot("latency_us").unwrap();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 1000.0);
        assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
        assert!(snap.p50 >= snap.min && snap.p99 <= snap.max);
        // Log buckets are coarse, but the median of 1..=1000 must land
        // in the same power-of-two bucket as 500.
        assert!((256.0..=1000.0).contains(&snap.p50), "p50 = {}", snap.p50);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zeros() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.sum, 0.0);
        assert_eq!(snap.min, 0.0, "empty min must not leak +inf");
        assert_eq!(snap.max, 0.0);
        assert_eq!(snap.p50, 0.0);
        assert_eq!(snap.p95, 0.0);
        assert_eq!(snap.p99, 0.0);
    }

    #[test]
    fn single_sample_collapses_every_percentile_to_it() {
        // One observation sits alone in its bucket; interpolation must
        // clamp every quantile to the sample itself, even when the
        // sample sits exactly on a bucket's upper edge (a power of two).
        for v in [37.5, 64.0, 1.0, 0.25] {
            let mut h = Histogram::default();
            h.observe(v);
            let snap = h.snapshot();
            assert_eq!(snap.count, 1);
            assert_eq!(snap.min, v);
            assert_eq!(snap.max, v);
            assert_eq!(snap.p50, v, "p50 of single sample {v}");
            assert_eq!(snap.p95, v, "p95 of single sample {v}");
            assert_eq!(snap.p99, v, "p99 of single sample {v}");
        }
    }

    #[test]
    fn all_samples_in_one_bucket_stay_inside_it() {
        // 100 identical values: every percentile must equal the value,
        // not interpolate across the bucket's full [lower, upper) span.
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(300.0);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50, 300.0);
        assert_eq!(snap.p99, 300.0);

        // Distinct values confined to one bucket (256, 512]: percentiles
        // must stay within the observed [min, max], never the bucket
        // edges outside it.
        let mut h = Histogram::default();
        for v in [260.0, 300.0, 400.0, 500.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert!(snap.p50 >= 260.0 && snap.p50 <= 500.0, "p50 = {}", snap.p50);
        assert!(snap.p99 >= 260.0 && snap.p99 <= 500.0, "p99 = {}", snap.p99);
        assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
    }

    #[test]
    fn zero_and_negative_values_land_in_the_first_bucket() {
        let mut h = Histogram::default();
        h.observe(0.0);
        h.observe(-5.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, -5.0);
        // Quantiles clamp to the observed range.
        assert!(snap.p50 >= snap.min && snap.p99 <= snap.max);
    }

    #[test]
    fn histogram_handles_tiny_and_huge_values() {
        let reg = MetricsRegistry::new();
        reg.observe("wide", 1e-9);
        reg.observe("wide", 1e15);
        let snap = reg.histogram_snapshot("wide").unwrap();
        assert_eq!(snap.count, 2);
        assert!(snap.p99 <= snap.max);
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let reg = MetricsRegistry::with_labels(Labels::new().with("model", "alexnet"));
        reg.observe("edgenn_request_latency_us", 100.0);
        reg.observe("edgenn_request_latency_us", 200.0);
        reg.inc_counter("edgenn_copies_total", 1.0);
        let text = reg.to_prometheus_text();
        assert!(text.contains("# TYPE edgenn_request_latency_us histogram"));
        assert!(text.contains("edgenn_request_latency_us_count{model=\"alexnet\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("# TYPE edgenn_copies_total counter"));
    }

    #[test]
    fn label_order_does_not_matter() {
        let a = Labels::new().with("a", 1).with("b", 2);
        let b = Labels::new().with("b", 2).with("a", 1);
        assert_eq!(a, b);
    }
}
