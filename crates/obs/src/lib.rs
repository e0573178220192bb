//! # edgenn-obs
//!
//! The observability layer shared by the whole EdgeNN stack. It answers
//! the questions the simulator and tuner otherwise leave implicit: *what
//! ran, where, for how long, moving how many bytes — and why did the
//! tuner decide that?*
//!
//! Four pieces:
//!
//! 1. [`MetricsRegistry`] — counters, gauges, and log-bucketed
//!    histograms (p50/p95/p99), labeled by model/platform/policy, with
//!    JSON and Prometheus-text exposition.
//! 2. [`Recorder`] — what `edgenn-sim`'s `Timeline`, `edgenn-core`'s
//!    `Runtime`/`Tuner`/`pipeline`, the serving dispatcher and the CLI's
//!    compile report record into, one method per kind of observation:
//!    kernel launches, copies/migrations with byte counts, contention
//!    stalls, EMA updates, plan regenerations, per-request latencies,
//!    faults and recoveries, compiler passes, serving decisions, and
//!    accounting warnings. Each folds straight into its registry; the
//!    recorder keeps only the counter samples (Chrome-trace `"ph":"C"`
//!    tracks) and the warnings. Cheaply clonable and thread-safe.
//! 3. [`flight`] — the flight recorder: lock-free per-worker rings of
//!    fixed-size span records written from the functional engine's hot
//!    paths, read back per request through its `ProfileWindow` (the
//!    request's causal record tree, or a per-stage summary), with fault
//!    black boxes and Perfetto export (see `docs/profiling.md`).
//! 4. [`chrome`] — the Chrome trace-event entries every trace export
//!    above is built from.
//!
//! Zero external dependencies: std plus the workspace's vendored
//! `serde`/`serde_json` only, so offline builds keep working.
//!
//! ```
//! use edgenn_obs::{Labels, Recorder};
//!
//! let recorder = Recorder::with_labels(Labels::new().with("model", "alexnet"));
//! recorder.span("kernel", 0.0, 42.0, 0);
//! recorder.sample("ema/conv1", 1.0, 42.0);
//! assert_eq!(recorder.counter_samples().len(), 1);
//! let json = recorder.metrics().to_json();
//! assert!(json["counters"].as_array().is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod flight;
mod metrics;
mod sink;

pub use flight::{
    BlackBox, NodeProfile, OpenSpan, ProfileSummary, ProfileWindow, SpanKind, SpanRecord, StageStat,
};
pub use metrics::{percentile, HistogramSnapshot, Labels, MetricsRegistry};
pub use sink::{CounterSample, Recorder};
