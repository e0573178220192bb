//! # edgenn-nn
//!
//! Neural-network substrate for the EdgeNN reproduction: layer kernels with
//! **partition-aware** forward passes, a DAG graph representation with the
//! chain/branch decomposition the paper's tuner reasons about
//! (Section IV-D), and builders for the six benchmark networks evaluated in
//! the paper — FCNN, LeNet-5, AlexNet, VGG-16, SqueezeNet v1.0 and
//! ResNet-18.
//!
//! Every layer exposes two faces:
//!
//! 1. [`layer::Layer::forward_into`] — its one compute entry: real
//!    arithmetic, written into a buffer the caller hands it, over a
//!    [`layer::Part`] of the output (an output-channel or output-neuron
//!    range, or the raw partial sum over an input-channel range), in f32
//!    or int8, with an optional fused ReLU. This is the primitive EdgeNN's
//!    *intra-kernel CPU-GPU co-running* is built on: the GPU computes
//!    channels `0..k` and the CPU channels `k..n` into disjoint halves of
//!    one output buffer. [`layer::Layer::forward`], the reference forward
//!    pass, allocates the output and computes all of it.
//! 2. [`layer::Layer::workload`] — an analytic FLOP/byte model that feeds the
//!    device simulator in `edgenn-sim`.
//!
//! ```
//! use edgenn_nn::models::{build, ModelKind, ModelScale};
//! use edgenn_tensor::Tensor;
//!
//! let model = build(ModelKind::LeNet, ModelScale::Tiny);
//! let input = Tensor::random(model.input_shape().dims(), 1.0, 42);
//! let output = model.forward(&input).unwrap();
//! assert_eq!(output.len(), 10); // class scores
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod graph;
pub mod layer;
pub mod models;
mod workload;

pub use error::NnError;
pub use workload::Workload;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
