//! # edgenn-tensor
//!
//! Dense `f32` tensor substrate for the EdgeNN reproduction.
//!
//! The EdgeNN paper (ICDE 2023) evaluates CUDA kernels; this crate provides
//! the arithmetic those kernels perform so that the rest of the workspace
//! can execute *real* forward passes (and verify that hybrid CPU-GPU
//! partitioning is numerically lossless) without any GPU.
//!
//! Design notes:
//! - Tensors are owned, contiguous, row-major `Vec<f32>` buffers. Inference
//!   with batch size 1 (the paper's setting) never needs strided views, so
//!   we keep the representation simple and cache-friendly.
//! - The crate is deliberately free of external math dependencies: GEMM and
//!   the convolution lowering are implemented here, which keeps the
//!   reproduction self-contained per the build rules.
//!
//! ```
//! use edgenn_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod gemm;
mod im2col;
pub mod ops;
pub mod quant;
pub mod scratch;
mod shape;
pub mod simd;
mod tensor;

pub use error::TensorError;
pub use gemm::{
    dot, gemm, gemm_into, gemm_into_fused, gemm_pack_a, gemm_pack_elems, gemm_packed_a_len, matvec,
    matvec_into, naive_gemm, Epilogue,
};
pub use im2col::{
    col2im_shape, conv_gemm_into, conv_gemm_scratch_elems, conv_qgemm_into,
    conv_qgemm_scratch_elems, im2col, pool_into, Conv2dGeometry, PoolKind,
};
pub use quant::{
    dot_i8, min_max, qgemm_pack_a, qgemm_pack_a_words, qgemm_pack_bytes, qgemm_requant_into,
    qmatvec_into, quantize_into, row_sums, QTensor, QuantParams, Quantization, Requant, MAX_DEPTH,
};
pub use scratch::{scratch_stats, with_scratch, ScratchElem, ScratchStats};
pub use shape::Shape;
pub use simd::{kernel_arch, KernelArch};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
