//! The [`Recorder`]: one method per kind of observation the analytic
//! stack makes, each folded straight into a [`MetricsRegistry`]. Every
//! `edgenn_*` metric name is spelled in this module.

use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::{Labels, MetricsRegistry};

/// One sample of a counter track, extracted for trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter track name.
    pub track: String,
    /// Sample time.
    pub t_us: f64,
    /// Sampled value.
    pub value: f64,
}

/// Aggregates what the simulator's `Timeline`, the analytic runtime,
/// tuner and pipeline planner, the compiler report and the serving
/// dispatcher observe into a [`MetricsRegistry`], and keeps the counter
/// samples (for Chrome-trace `"ph":"C"` export) and warnings its readers
/// ask for. Cheap to clone (all clones share state), safe to use from
/// scoped worker threads.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    metrics: Arc<MetricsRegistry>,
    samples: Arc<Mutex<Vec<CounterSample>>>,
    warnings: Arc<Mutex<Vec<String>>>,
}

fn lock<T>(kept: &Mutex<T>) -> MutexGuard<'_, T> {
    kept.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    /// A recorder with no base labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder whose metrics all carry `labels`.
    pub fn with_labels(labels: Labels) -> Self {
        Self {
            metrics: Arc::new(MetricsRegistry::with_labels(labels)),
            ..Self::default()
        }
    }

    /// The aggregated metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// All counter samples, in recording order (for `"ph":"C"` export).
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        lock(&self.samples).clone()
    }

    /// All warning messages, in recording order.
    pub fn warnings(&self) -> Vec<String> {
        lock(&self.warnings).clone()
    }

    /// A timed activity of class `category` ("kernel", "copy",
    /// "migration", "thrash", "sync", "stall", ...) moving `bytes` (0 when
    /// not applicable): counts it, its duration and its bytes.
    pub fn span(&self, category: &str, start_us: f64, end_us: f64, bytes: u64) {
        let duration = (end_us - start_us).max(0.0);
        self.metrics
            .inc_counter(&format!("edgenn_{category}_total"), 1.0);
        self.metrics
            .inc_counter(&format!("edgenn_{category}_us_total"), duration);
        if bytes > 0 {
            self.metrics
                .inc_counter(&format!("edgenn_{category}_bytes_total"), bytes as f64);
        }
    }

    /// A point-in-time marker of class `category` ("plan", "pipeline").
    pub fn instant(&self, category: &str) {
        self.metrics
            .inc_counter(&format!("edgenn_{category}_events_total"), 1.0);
    }

    /// One sample of the numeric counter track `track` ("ema_cpu_us/conv1",
    /// ...) at `t_us` (us, or a round index for tuner-side tracks):
    /// consecutive samples of one track form a `"ph":"C"` series, and the
    /// track's gauge holds the latest value. The gauge is named after the
    /// track with every character a Prometheus metric name cannot hold
    /// (outside `[A-Za-z0-9_:]`) replaced by `_`: `ema_cpu_us/conv1+relu`
    /// sets `edgenn_track_ema_cpu_us_conv1_relu`.
    pub fn sample(&self, track: impl Into<String>, t_us: f64, value: f64) {
        let track = track.into();
        let gauge: String = track
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == ':' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.metrics
            .set_gauge(&format!("edgenn_track_{gauge}"), value);
        lock(&self.samples).push(CounterSample { track, t_us, value });
    }

    /// A non-fatal anomaly (an accounting violation, a rejected plan)
    /// raised by `source` ("metrics", "tuner", "runtime").
    pub fn warning(&self, source: &str, message: impl Display) {
        self.metrics.inc_counter("edgenn_warnings_total", 1.0);
        lock(&self.warnings).push(format!("[{source}] {message}"));
    }

    /// One request finished end to end after `latency_us`.
    pub fn request(&self, latency_us: f64) {
        self.metrics.inc_counter("edgenn_requests_total", 1.0);
        self.metrics
            .observe("edgenn_request_latency_us", latency_us);
    }

    /// One fault-injection or recovery occurrence, counted under
    /// `category`: "faults_injected", "retries", "fallbacks" or
    /// "deadline_degradations", so storm runs and recorded sessions show
    /// how often the stack had to save itself.
    pub fn fault(&self, category: &str) {
        self.metrics
            .inc_counter(&format!("edgenn_{category}_total"), 1.0);
    }

    /// One graph-compiler pass (`edgenn_nn::graph::compile`), or the
    /// prepack stage: how many rewrites (or packed nodes) it performed,
    /// the nodes it removed and the weight bytes it packed into kernel
    /// layouts, so the exposition shows what compilation bought before
    /// the first inference ran.
    pub fn compiler_pass(&self, applied: u64, nodes_eliminated: u64, bytes_prepacked: u64) {
        self.metrics
            .inc_counter("edgenn_compiler_passes_applied_total", applied as f64);
        self.metrics.inc_counter(
            "edgenn_compiler_nodes_eliminated_total",
            nodes_eliminated as f64,
        );
        self.metrics.inc_counter(
            "edgenn_compiler_bytes_prepacked_total",
            bytes_prepacked as f64,
        );
    }

    /// One serving-layer decision from `edgenn-serve` ("admitted",
    /// "rejected", "degraded", "shed", "batch_dispatched", "completed"),
    /// so overload behaviour rides in the exposition next to the
    /// resilience counters.
    pub fn serve(&self, decision: &str) {
        self.metrics
            .inc_counter(&format!("edgenn_serve_{decision}_total"), 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_become_category_counters() {
        let rec = Recorder::new();
        rec.span("copy", 0.0, 10.0, 4096);
        rec.span("copy", 10.0, 15.0, 1024);
        let m = rec.metrics();
        assert_eq!(m.counter_value("edgenn_copy_total"), Some(2.0));
        assert_eq!(m.counter_value("edgenn_copy_us_total"), Some(15.0));
        assert_eq!(m.counter_value("edgenn_copy_bytes_total"), Some(5120.0));
    }

    #[test]
    fn requests_feed_the_latency_histogram() {
        let rec = Recorder::new();
        for latency in [100.0, 200.0, 400.0] {
            rec.request(latency);
        }
        let snap = rec
            .metrics()
            .histogram_snapshot("edgenn_request_latency_us")
            .unwrap();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max, 400.0);
    }

    #[test]
    fn counter_samples_are_extracted_in_order() {
        let rec = Recorder::new();
        rec.sample("ema/fc1", 0.0, 10.0);
        rec.sample("ema/fc1", 1.0, 8.0);
        let samples = rec.counter_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].value, 8.0);
    }

    #[test]
    fn prometheus_text_holds_only_valid_metric_names() {
        let valid = |name: &str| {
            let mut chars = name.chars();
            chars
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let rec = Recorder::with_labels(Labels::new().with("model", "lenet"));
        rec.span("kernel", 0.0, 4.0, 64);
        rec.sample("ema_cpu_us/conv1+relu", 0.0, 3.0);
        rec.sample("bandwidth_gbps", 1.0, 2.0);
        rec.request(10.0);
        let text = rec.metrics().to_prometheus_text();
        for line in text.lines() {
            let name = match line.strip_prefix("# TYPE ") {
                Some(declaration) => declaration.split(' ').next(),
                None => line.split(['{', ' ']).next(),
            };
            let name = name.unwrap_or_default();
            assert!(valid(name), "invalid metric name {name:?} in {line:?}");
        }
        assert!(text.contains("edgenn_track_ema_cpu_us_conv1_relu{"));
        // The counter track keeps its name.
        assert_eq!(rec.counter_samples()[0].track, "ema_cpu_us/conv1+relu");
    }

    #[test]
    fn warnings_count_and_render() {
        let rec = Recorder::new();
        rec.warning("metrics", "copy > total");
        assert_eq!(
            rec.metrics().counter_value("edgenn_warnings_total"),
            Some(1.0)
        );
        assert_eq!(rec.warnings(), vec!["[metrics] copy > total".to_string()]);
    }

    #[test]
    fn compiler_pass_events_feed_the_compiler_counters() {
        let rec = Recorder::new();
        rec.compiler_pass(7, 7, 0);
        rec.compiler_pass(5, 0, 96_256);
        let m = rec.metrics();
        assert_eq!(
            m.counter_value("edgenn_compiler_passes_applied_total"),
            Some(12.0)
        );
        assert_eq!(
            m.counter_value("edgenn_compiler_nodes_eliminated_total"),
            Some(7.0)
        );
        assert_eq!(
            m.counter_value("edgenn_compiler_bytes_prepacked_total"),
            Some(96_256.0)
        );
        let text = rec.metrics().to_prometheus_text();
        assert!(text.contains("edgenn_compiler_bytes_prepacked_total 96256"));
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.request(5.0);
        assert_eq!(
            rec.metrics().counter_value("edgenn_requests_total"),
            Some(1.0)
        );
    }
}
