//! The span/event sink: the trait instrumented components emit into,
//! plus the standard [`Recorder`] implementation.

use std::sync::{Arc, Mutex};

use crate::metrics::{Labels, MetricsRegistry};

/// One observation emitted by an instrumented component.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkEvent {
    /// A timed activity on a processor or bus track (kernel launch,
    /// copy, migration, thrash penalty, sync, contention stall).
    Span {
        /// Which track the span belongs to ("cpu", "gpu", "bus", ...).
        track: &'static str,
        /// Activity class ("kernel", "copy", "migration", "thrash",
        /// "sync", "stall", ...).
        category: &'static str,
        /// Human-readable label (usually the layer name).
        label: String,
        /// Start time (us, simulated clock).
        start_us: f64,
        /// End time (us, simulated clock).
        end_us: f64,
        /// Bytes moved, for memory traffic spans (0 when not applicable).
        bytes: u64,
    },
    /// A point-in-time marker (plan regeneration, pipeline cut chosen).
    Instant {
        /// Event class ("plan", "pipeline", ...).
        category: &'static str,
        /// Human-readable label.
        label: String,
        /// Timestamp (us where meaningful, otherwise a sequence number).
        t_us: f64,
    },
    /// One sample of a numeric counter track (EMA value, bandwidth,
    /// outstanding pages). Consecutive samples of one `track` form a
    /// Chrome-trace `"ph":"C"` counter series.
    Counter {
        /// Counter track name ("ema_cpu_us/conv1", "bus_gbps", ...).
        track: String,
        /// Sample time (us, or a round index for tuner-side tracks).
        t_us: f64,
        /// Sampled value.
        value: f64,
    },
    /// A non-fatal anomaly worth surfacing (accounting violations,
    /// rejected plans, fallbacks).
    Warning {
        /// Component that raised it ("metrics", "tuner", "runtime").
        source: &'static str,
        /// What happened.
        message: String,
    },
    /// One request finished end-to-end (serving/pipeline runs).
    Request {
        /// End-to-end latency of the request (us).
        latency_us: f64,
    },
    /// One fault-injection or recovery occurrence from the resilience
    /// layer. Aggregated into `edgenn_<category>_total` counters
    /// (`faults_injected`, `retries`, `fallbacks`,
    /// `deadline_degradations`) so storm runs and recorded sessions
    /// expose exactly how often the stack had to save itself.
    Fault {
        /// Which resilience counter this increments: "faults_injected",
        /// "retries", "fallbacks", or "deadline_degradations".
        category: &'static str,
        /// The fault or cause ("transient-kernel", "deadline-overrun").
        kind: String,
        /// What it hit (layer name, or empty for run-wide faults).
        label: String,
        /// When it happened (us, simulated clock).
        t_us: f64,
    },
    /// One graph-compiler pass summary (`edgenn_nn::graph::compile`):
    /// how often the pass rewrote anything, how many nodes it removed,
    /// and how many weight bytes were prepacked at compile time.
    /// Aggregated into `edgenn_compiler_passes_applied_total`,
    /// `edgenn_compiler_nodes_eliminated_total`, and
    /// `edgenn_compiler_bytes_prepacked_total` so `explain` output and
    /// the Prometheus exposition show what compilation bought before
    /// the first inference ran.
    CompilerPass {
        /// Pass name ("identity-elim", "fuse-activations", ...), or
        /// "prepack" for the layout-selection stage.
        pass: &'static str,
        /// How many rewrites (or packed nodes) the pass performed.
        applied: u64,
        /// Net nodes removed by this pass across all iterations.
        nodes_eliminated: u64,
        /// Weight bytes packed into kernel-native layouts (prepack only).
        bytes_prepacked: u64,
    },
    /// One serving-layer decision from `edgenn-serve`: admission
    /// control, SLO degradation, load shedding, batch dispatch, or a
    /// completion. Aggregated into `edgenn_serve_<decision>_total`
    /// counters so overload behaviour rides in the standard exposition
    /// next to the resilience counters.
    Serve {
        /// Decision name ("admitted", "rejected", "degraded", "shed",
        /// "batch_dispatched", "completed").
        decision: &'static str,
        /// Tenant ordinal the decision applies to.
        tenant: u32,
        /// When it happened (us; virtual clock under `edgenn siege`).
        t_us: f64,
    },
}

impl SinkEvent {
    /// Convenience constructor for [`SinkEvent::Span`].
    pub fn span(
        category: &'static str,
        track: &'static str,
        label: impl Into<String>,
        start_us: f64,
        end_us: f64,
        bytes: u64,
    ) -> Self {
        SinkEvent::Span {
            track,
            category,
            label: label.into(),
            start_us,
            end_us,
            bytes,
        }
    }
}

/// Anything that can receive [`SinkEvent`]s.
///
/// Takes `&self` so sinks can be shared across the stack (and across
/// threads — implementors use interior mutability).
pub trait EventSink: Send + Sync {
    /// Receives one event. Must be cheap and must not fail.
    fn emit(&self, event: SinkEvent);
}

/// A sink that drops everything (the default when observability is off).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: SinkEvent) {}
}

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

/// Cap on retained raw events; metric aggregation continues past it and
/// the overflow is counted (never silently dropped).
const DEFAULT_EVENT_CAPACITY: usize = 1_000_000;

#[derive(Debug)]
struct RecorderState {
    events: Vec<SinkEvent>,
    dropped: u64,
    capacity: usize,
}

/// The standard sink: aggregates every event into a [`MetricsRegistry`]
/// and keeps the raw stream for trace export. Cheap to clone (all clones
/// share state), safe to use from scoped worker threads.
#[derive(Debug, Clone)]
pub struct Recorder {
    metrics: Arc<MetricsRegistry>,
    state: Arc<Mutex<RecorderState>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with no base labels.
    pub fn new() -> Self {
        Self::with_labels(Labels::new())
    }

    /// A recorder whose metrics all carry `labels`.
    pub fn with_labels(labels: Labels) -> Self {
        Self {
            metrics: Arc::new(MetricsRegistry::with_labels(labels)),
            state: Arc::new(Mutex::new(RecorderState {
                events: Vec::new(),
                dropped: 0,
                capacity: DEFAULT_EVENT_CAPACITY,
            })),
        }
    }

    /// Limits the retained raw-event buffer (metrics keep aggregating).
    pub fn with_event_capacity(self, capacity: usize) -> Self {
        self.lock().capacity = capacity;
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The aggregated metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A copy of every retained event, in emission order.
    pub fn events(&self) -> Vec<SinkEvent> {
        self.lock().events.clone()
    }

    /// How many events were discarded after the capacity was reached.
    pub fn dropped_events(&self) -> u64 {
        self.lock().dropped
    }

    /// All counter samples, in emission order (for `"ph":"C"` export).
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.lock()
            .events
            .iter()
            .filter_map(|e| match e {
                SinkEvent::Counter { track, t_us, value } => Some(CounterSample {
                    track: track.clone(),
                    t_us: *t_us,
                    value: *value,
                }),
                _ => None,
            })
            .collect()
    }

    /// All warning messages, in emission order.
    pub fn warnings(&self) -> Vec<String> {
        self.lock()
            .events
            .iter()
            .filter_map(|e| match e {
                SinkEvent::Warning { source, message } => Some(format!("[{source}] {message}")),
                _ => None,
            })
            .collect()
    }

    /// Folds one event into the metrics registry.
    fn aggregate(&self, event: &SinkEvent) {
        match event {
            SinkEvent::Span {
                category,
                start_us,
                end_us,
                bytes,
                ..
            } => {
                let duration = (end_us - start_us).max(0.0);
                self.metrics
                    .inc_counter(&format!("edgenn_{category}_total"), 1.0);
                self.metrics
                    .inc_counter(&format!("edgenn_{category}_us_total"), duration);
                if *bytes > 0 {
                    self.metrics
                        .inc_counter(&format!("edgenn_{category}_bytes_total"), *bytes as f64);
                }
            }
            SinkEvent::Instant { category, .. } => {
                self.metrics
                    .inc_counter(&format!("edgenn_{category}_events_total"), 1.0);
            }
            SinkEvent::Counter { track, value, .. } => {
                self.metrics
                    .set_gauge(&format!("edgenn_track_{track}"), *value);
            }
            SinkEvent::Warning { .. } => {
                self.metrics.inc_counter("edgenn_warnings_total", 1.0);
            }
            SinkEvent::Request { latency_us } => {
                self.metrics.inc_counter("edgenn_requests_total", 1.0);
                self.metrics
                    .observe("edgenn_request_latency_us", *latency_us);
            }
            SinkEvent::Fault { category, .. } => {
                self.metrics
                    .inc_counter(&format!("edgenn_{category}_total"), 1.0);
            }
            SinkEvent::CompilerPass {
                applied,
                nodes_eliminated,
                bytes_prepacked,
                ..
            } => {
                self.metrics
                    .inc_counter("edgenn_compiler_passes_applied_total", *applied as f64);
                self.metrics.inc_counter(
                    "edgenn_compiler_nodes_eliminated_total",
                    *nodes_eliminated as f64,
                );
                self.metrics.inc_counter(
                    "edgenn_compiler_bytes_prepacked_total",
                    *bytes_prepacked as f64,
                );
            }
            SinkEvent::Serve { decision, .. } => {
                self.metrics
                    .inc_counter(&format!("edgenn_serve_{decision}_total"), 1.0);
            }
        }
    }
}

impl EventSink for Recorder {
    fn emit(&self, event: SinkEvent) {
        self.aggregate(&event);
        let dropped = {
            let mut state = self.lock();
            if state.events.len() < state.capacity {
                state.events.push(event);
                false
            } else {
                state.dropped += 1;
                true
            }
        };
        // Surface the drop in the exposition formats too (JSON and
        // Prometheus), not just the Rust-side accessor; a scraper must
        // be able to see that the raw stream is incomplete.
        if dropped {
            self.metrics
                .inc_counter("edgenn_recorder_dropped_events_total", 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_become_category_counters() {
        let rec = Recorder::new();
        rec.emit(SinkEvent::span("copy", "bus", "w1", 0.0, 10.0, 4096));
        rec.emit(SinkEvent::span("copy", "bus", "w2", 10.0, 15.0, 1024));
        let m = rec.metrics();
        assert_eq!(m.counter_value("edgenn_copy_total"), Some(2.0));
        assert_eq!(m.counter_value("edgenn_copy_us_total"), Some(15.0));
        assert_eq!(m.counter_value("edgenn_copy_bytes_total"), Some(5120.0));
    }

    #[test]
    fn requests_feed_the_latency_histogram() {
        let rec = Recorder::new();
        for latency in [100.0, 200.0, 400.0] {
            rec.emit(SinkEvent::Request {
                latency_us: latency,
            });
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
        rec.emit(SinkEvent::Counter {
            track: "ema/fc1".into(),
            t_us: 0.0,
            value: 10.0,
        });
        rec.emit(SinkEvent::Counter {
            track: "ema/fc1".into(),
            t_us: 1.0,
            value: 8.0,
        });
        let samples = rec.counter_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].value, 8.0);
    }

    #[test]
    fn warnings_count_and_render() {
        let rec = Recorder::new();
        rec.emit(SinkEvent::Warning {
            source: "metrics",
            message: "copy > total".into(),
        });
        assert_eq!(
            rec.metrics().counter_value("edgenn_warnings_total"),
            Some(1.0)
        );
        assert_eq!(rec.warnings(), vec!["[metrics] copy > total".to_string()]);
    }

    #[test]
    fn capacity_drops_are_counted_not_silent() {
        let rec = Recorder::new().with_event_capacity(2);
        for i in 0..5 {
            rec.emit(SinkEvent::Instant {
                category: "plan",
                label: format!("{i}"),
                t_us: 0.0,
            });
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped_events(), 3);
        // Metrics still saw all five.
        assert_eq!(
            rec.metrics().counter_value("edgenn_plan_events_total"),
            Some(5.0)
        );
    }

    #[test]
    fn dropped_events_surface_in_json_and_prometheus() {
        let rec = Recorder::new().with_event_capacity(1);
        // Below capacity: the drop counter must not exist yet.
        rec.emit(SinkEvent::Request { latency_us: 1.0 });
        assert_eq!(
            rec.metrics()
                .counter_value("edgenn_recorder_dropped_events_total"),
            None
        );
        for _ in 0..3 {
            rec.emit(SinkEvent::Request { latency_us: 1.0 });
        }
        assert_eq!(rec.dropped_events(), 3);
        assert_eq!(
            rec.metrics()
                .counter_value("edgenn_recorder_dropped_events_total"),
            Some(3.0)
        );
        let json = rec.metrics().to_json();
        let counters = json["counters"].as_array().unwrap();
        assert!(counters
            .iter()
            .any(|c| c["name"] == "edgenn_recorder_dropped_events_total" && c["value"] == 3));
        let text = rec.metrics().to_prometheus_text();
        assert!(text.contains("edgenn_recorder_dropped_events_total 3"));
    }

    #[test]
    fn compiler_pass_events_feed_the_compiler_counters() {
        let rec = Recorder::new();
        rec.emit(SinkEvent::CompilerPass {
            pass: "fuse-activations",
            applied: 7,
            nodes_eliminated: 7,
            bytes_prepacked: 0,
        });
        rec.emit(SinkEvent::CompilerPass {
            pass: "prepack",
            applied: 5,
            nodes_eliminated: 0,
            bytes_prepacked: 96_256,
        });
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
        clone.emit(SinkEvent::Request { latency_us: 5.0 });
        assert_eq!(rec.events().len(), 1);
    }
}
