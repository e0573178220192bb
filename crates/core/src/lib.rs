//! # edgenn-core
//!
//! The paper's contribution: **EdgeNN**, an inference solution for CPU-GPU
//! integrated edge devices (Zhang et al., ICDE 2023), built from three
//! cooperating designs:
//!
//! 1. **Semantic-aware memory management** ([`semantics`], Section IV-B) —
//!    chooses, per array, between zero-copy managed allocation and regular
//!    explicit allocation based on how the array is produced and consumed.
//! 2. **Inter- and intra-kernel CPU-GPU hybrid execution** ([`partition`],
//!    [`assign`], Section IV-C) — co-runs the CPU with the GPU, splitting
//!    individual layers by output channels (intra-kernel) and assigning
//!    independent DAG branches to different processors (inter-kernel).
//! 3. **Fine-grained adaptive inference tuning** ([`tuner`], Section IV-D)
//!    — profiles sub-tasks, applies the paper's closed-form partition
//!    optimum (Equations 1-4), enumerates branch assignments, and adapts
//!    from execution feedback.
//!
//! The [`runtime`] executes a tuned [`plan::ExecutionPlan`] in two modes,
//! both walking the graph's one lowered [`schedule::Program`]:
//! *analytic* (timing on the `edgenn-sim` device models — used for every
//! paper experiment) and *functional* (real tensor arithmetic with actual
//! multi-threaded partition/merge — used to prove the hybrid execution is
//! numerically lossless). [`baselines`] implements the comparison points
//! the paper evaluates against.
//!
//! ```
//! use edgenn_core::prelude::*;
//!
//! let platform = edgenn_sim::platforms::jetson_agx_xavier();
//! let graph = edgenn_nn::models::build(ModelKind::LeNet, ModelScale::Paper);
//! let report = EdgeNn::new(&platform).infer(&graph).unwrap();
//! let baseline = GpuOnly::new(&platform).infer(&graph).unwrap();
//! assert!(report.total_us < baseline.total_us, "EdgeNN beats GPU-only");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assign;
pub mod baselines;
mod error;
pub mod footprint;
pub mod metrics;
pub mod partition;
pub mod pipeline;
pub mod plan;
pub mod runtime;
pub mod schedule;
pub mod semantics;
pub mod tuner;

pub use error::{CoreError, FaultKind, RecoveryAction, RecoveryCause};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::baselines::{CloudOffload, CpuOnly, EdgeNn, GpuOnly, InterKernelOnly};
    pub use crate::metrics::InferenceReport;
    pub use crate::plan::{
        Assignment, ExecutionConfig, ExecutionPlan, HybridMode, MemoryPolicy, Precision,
    };
    pub use crate::runtime::resilience::{ResilienceConfig, ResilientOutcome};
    pub use crate::runtime::Runtime;
    pub use crate::tuner::Tuner;
    pub use edgenn_nn::models::{build, ModelKind, ModelScale};
}
