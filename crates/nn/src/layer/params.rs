//! Lazily materialized layer parameters.
//!
//! Paper-scale models (VGG-16 carries ~552 MB of fp32 weights) are used by
//! the simulator for *analytic* workloads only — no tensor math ever runs
//! on them. Materializing weights eagerly would make model construction
//! cost hundreds of megabytes and seconds of RNG for nothing, so
//! parameters are generated on first functional use and cached.

use std::sync::OnceLock;

use edgenn_tensor::{qgemm_pack_a, row_sums, QTensor, Quantization, Tensor};

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
            cell: OnceLock::new(),
        }
    }

    /// Declares a parameter pre-set to an explicit tensor.
    pub(crate) fn from_tensor(tensor: Tensor) -> Self {
        let dims = tensor.dims().to_vec();
        let cell = OnceLock::new();
        cell.set(tensor).expect("fresh cell");
        Self {
            dims,
            bound: 0.0,
            seed: 0,
            offset: 0.0,
            cell,
        }
    }

    /// Element count (available without materializing).
    pub(crate) fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Materializes (if needed) and returns the tensor.
    pub(crate) fn get(&self) -> &Tensor {
        self.cell.get_or_init(|| {
            let t = Tensor::random(&self.dims, self.bound, self.seed);
            if self.offset == 0.0 {
                t
            } else {
                let offset = self.offset;
                t.map(|x| x + offset)
            }
        })
    }

    /// True when the tensor has already been materialized.
    pub(crate) fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }
}

/// Int8 weight codes plus everything the requantize epilogue needs,
/// derived once per layer from the f32 weights (symmetric per-channel,
/// axis 0 = output channel / dense unit) and cached beside them.
#[derive(Debug, Clone)]
pub(crate) struct QuantizedWeights {
    /// Per-channel symmetric int8 codes, same layout as the f32 matrix.
    pub(crate) q: QTensor,
    /// Per-row scales (`zero_point` is 0 by construction).
    pub(crate) scales: Vec<f32>,
    /// Per-row code sums for the activation zero-point correction.
    pub(crate) row_sums: Vec<i32>,
    /// The codes packed once into the int8 kernel's A layout of pair
    /// words ([`qgemm_pack_a`], in the conv lowering's channel-pair
    /// order): weights never change, so conv layers run a row range of
    /// this instead of re-packing A on every call.
    pub(crate) awide: Vec<i32>,
}

impl QuantizedWeights {
    /// Quantizes a `(rows, k)` weight matrix whose columns are input
    /// channels of `taps` kernel taps each (1 for a dense layer).
    pub(crate) fn from_weight(w: &Tensor, taps: usize) -> Self {
        let rows = w.dims()[0];
        let k = w.len() / rows.max(1);
        let q = QTensor::quantize_per_channel(w).expect("weight matrices are rank 2");
        let Quantization::PerChannel(params) = q.quant() else {
            unreachable!("quantize_per_channel returns per-channel params")
        };
        let scales = params.iter().map(|p| p.scale).collect();
        let row_sums = row_sums(q.as_slice(), rows, k);
        let awide = qgemm_pack_a(q.as_slice(), rows, k, taps);
        Self {
            q,
            scales,
            row_sums,
            awide,
        }
    }
}

impl Clone for LazyParam {
    fn clone(&self) -> Self {
        // Cloning drops the cache; the clone regenerates identically on
        // demand because the seed is preserved.
        Self {
            dims: self.dims.clone(),
            bound: self.bound,
            seed: self.seed,
            offset: self.offset,
            cell: match self.cell.get() {
                Some(t) if self.bound == 0.0 => {
                    // Explicit tensors cannot be regenerated; keep them.
                    let cell = OnceLock::new();
                    let _ = cell.set(t.clone());
                    cell
                }
                _ => OnceLock::new(),
            },
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
