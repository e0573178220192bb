//! # edgenn-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the EdgeNN paper's evaluation (Section V). Each experiment is a
//! function in [`experiments`] (`fig06_edge_cpu_speedups`,
//! `fig08_ablation`, …, `tab1_hybrid_layer_improvement`) whose report
//! prints the paper's reported values next to the reproduction's
//! measured values.
//!
//! One binary runs them all:
//!
//! ```bash
//! cargo run --release -p edgenn-bench --bin all_experiments
//! ```
//!
//! Shape, not absolute numbers: the substrate is a calibrated simulator
//! (see `edgenn-sim`), so the comparisons to check are *who wins, by
//! roughly what factor, and where the crossovers fall*.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod experiments;
pub mod functional_bench;
pub mod report;

pub use report::{Comparison, ExperimentReport};
