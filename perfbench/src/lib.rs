//! The EdgeNN benchmark: three workloads against the public APIs of
//! `edgenn-core`, `edgenn-nn` and `edgenn-serve`, end-to-end metrics
//! from untraced runs and per-layer metrics from traced runs. See
//! `README.md` beside this crate for the workloads and every metric.

pub mod compare;
pub mod host;
pub mod run;
pub mod serve_stages;
pub mod speed;
pub mod stats;
pub mod subject;
pub mod trace;
pub mod verify;
