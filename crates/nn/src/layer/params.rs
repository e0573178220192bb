//! Lazily materialized layer parameters.
//!
//! Paper-scale models (VGG-16 carries ~552 MB of fp32 weights) are used by
//! the simulator for *analytic* workloads only — no tensor math ever runs
//! on them. Materializing weights eagerly would make model construction
//! cost hundreds of megabytes and seconds of RNG for nothing, so
//! parameters are generated on first functional use and cached.

use std::sync::OnceLock;

use edgenn_tensor::{gemm_pack_a, row_sums, QTensor, Quantization, Tensor};

/// A deterministic pseudo-random parameter tensor, materialized on first
/// access.
#[derive(Debug)]
pub(crate) struct LazyParam {
    dims: Vec<usize>,
    bound: f32,
    seed: u64,
    /// Offset added to every element after sampling (used by batch-norm
    /// scales centred at 1.0).
    offset: f32,
    /// Whether the `(rows, k)` matrix is held in the f32 GEMM's padded A
    /// layout ([`LazyParam::gemm_a`]).
    gemm_a: bool,
    cell: OnceLock<Tensor>,
}

impl LazyParam {
    /// Declares a parameter of `dims` drawn uniformly from
    /// `offset + [-bound, bound)` with a fixed seed.
    pub(crate) fn new(dims: &[usize], bound: f32, seed: u64, offset: f32) -> Self {
        Self {
            dims: dims.to_vec(),
            bound,
            seed,
            offset,
            gemm_a: false,
            cell: OnceLock::new(),
        }
    }

    /// Declares a parameter pre-set to an explicit tensor.
    pub(crate) fn from_tensor(tensor: Tensor) -> Self {
        let param = Self::new(tensor.dims(), 0.0, 0, 0.0);
        param.cell.set(tensor).expect("fresh cell");
        param
    }

    /// Holds this `(rows, k)` matrix in the f32 GEMM's padded A layout
    /// ([`gemm_pack_a`]); an explicit tensor is packed now.
    pub(crate) fn gemm_a(mut self) -> Self {
        self.gemm_a = true;
        if let Some(t) = self.cell.take() {
            self.cell.set(self.layout(t)).expect("an emptied cell");
        }
        self
    }

    /// `t` in this parameter's layout.
    fn layout(&self, t: Tensor) -> Tensor {
        if !self.gemm_a {
            return t;
        }
        let k = self.dims[1];
        let packed = gemm_pack_a(t.as_slice(), self.dims[0], k);
        let rows = packed.len().checked_div(k).unwrap_or(0);
        Tensor::from_vec(packed, &[rows, k]).expect("whole rows")
    }

    /// Element count of the declared dims (available without
    /// materializing; a padded layout holds more).
    pub(crate) fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Materializes (if needed) and returns the tensor, in its layout.
    pub(crate) fn get(&self) -> &Tensor {
        self.cell.get_or_init(|| {
            let t = Tensor::random(&self.dims, self.bound, self.seed);
            let offset = self.offset;
            self.layout(if offset == 0.0 {
                t
            } else {
                t.map(|x| x + offset)
            })
        })
    }

    /// True when the tensor has already been materialized.
    pub(crate) fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }

    /// Materializes the tensor, returning the bytes this call built (0
    /// when it already existed).
    pub(crate) fn build(&self) -> u64 {
        if self.is_materialized() {
            return 0;
        }
        (self.get().len() * 4) as u64
    }
}

/// A layer's int8 weights, derived once from the f32 weights (symmetric
/// per-channel, axis 0 = output channel / dense unit): the A operand its
/// kernel reads — a dense layer's row-major codes (`A = i8`), a conv's
/// pair-word panel of them (`A = i32`), which replaces the codes — plus
/// what the requantize epilogue needs.
#[derive(Debug, Clone)]
pub(crate) struct QuantizedWeights<A> {
    /// The kernel's A operand.
    pub(crate) a: Vec<A>,
    /// Per-row scales (`zero_point` is 0 by construction).
    pub(crate) scales: Vec<f32>,
    /// Per-row code sums for the activation zero-point correction.
    pub(crate) row_sums: Vec<i32>,
}

impl<A> QuantizedWeights<A> {
    /// Quantizes the leading `rows` rows of the weight matrix `w` (a
    /// conv's padded matrix holds zero rows after them), one scale per
    /// row, and lays their row-major codes out for the kernel.
    pub(crate) fn new(w: &Tensor, rows: usize, layout: impl Fn(&[i8]) -> Vec<A>) -> Self {
        let q = QTensor::quantize_per_channel(w).expect("weight matrices are rank 2");
        let Quantization::PerChannel(params) = q.quant() else {
            unreachable!("quantize_per_channel returns per-channel params")
        };
        let k = w.dims()[1];
        let codes = &q.as_slice()[..rows * k];
        Self {
            a: layout(codes),
            scales: params[..rows].iter().map(|p| p.scale).collect(),
            row_sums: row_sums(codes, rows, k),
        }
    }

    /// Bytes held: the A operand, and a scale and a row sum per row.
    pub(crate) fn bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.a[..]) + self.scales.len() * 8) as u64
    }
}

impl Clone for LazyParam {
    fn clone(&self) -> Self {
        // Cloning drops a generated tensor: the clone regenerates it
        // identically on demand because the seed is preserved. Explicit
        // tensors cannot be regenerated; keep them.
        let cell = match self.cell.get() {
            Some(t) if self.bound == 0.0 => OnceLock::from(t.clone()),
            _ => OnceLock::new(),
        };
        Self {
            dims: self.dims.clone(),
            cell,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materializes_lazily_and_deterministically() {
        let p = LazyParam::new(&[8], 1.0, 42, 0.0);
        assert!(!p.is_materialized());
        assert_eq!(p.len(), 8);
        let first = p.get().clone();
        assert!(p.is_materialized());
        assert_eq!(p.get(), &first);
        let q = LazyParam::new(&[8], 1.0, 42, 0.0);
        assert_eq!(q.get(), &first, "same seed, same tensor");
    }

    #[test]
    fn offset_shifts_samples() {
        let p = LazyParam::new(&[64], 0.1, 7, 1.0);
        assert!(p.get().as_slice().iter().all(|&x| (0.9..1.1).contains(&x)));
    }

    #[test]
    fn explicit_tensor_survives_clone() {
        let p = LazyParam::from_tensor(Tensor::arange(&[4]));
        let c = p.clone();
        assert_eq!(c.get(), p.get());
    }

    #[test]
    fn random_clone_regenerates_identically() {
        let p = LazyParam::new(&[16], 1.0, 5, 0.0);
        let _ = p.get();
        let c = p.clone();
        assert!(!c.is_materialized());
        assert_eq!(c.get(), p.get());
    }
}
