//! Fully-connected layer.

use std::sync::OnceLock;

use edgenn_tensor::{
    dot, dot_i8, min_max, quantize_into, with_scratch_i8, QuantParams, Requant, Shape, Tensor,
};

use crate::layer::params::{LazyParam, QuantizedWeights};
use crate::layer::{check_arity, check_out, validate_range, Layer, LayerClass, Part};
use crate::{NnError, Result, Workload};

/// A fully-connected (dense) layer: `y = W x + b` over a rank-1 input.
///
/// With batch size 1 (the paper's inference setting) this is a mat-vec.
/// Fully-connected layers are the ones the paper finds benefit most from
/// CPU-GPU co-running (Table I: AlexNet fc layers improve 53.8% on average
/// with hybrid execution + zero-copy) because they are memory-bound on the
/// integrated GPU, so partition units here are output neurons.
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: LazyParam,
    bias: LazyParam,
    /// Int8 weight codes, derived from `weight` on first int8 use.
    qweight: OnceLock<QuantizedWeights>,
    /// Calibrated activation parameters ([`Layer::stamp_activation`]);
    /// absent means dynamic per-call min/max quantization.
    act_quant: OnceLock<QuantParams>,
}

impl Dense {
    /// Creates a dense layer with deterministic pseudo-random parameters.
    ///
    /// Parameters materialize lazily on first functional use, so building
    /// paper-scale models (AlexNet's fc layers alone hold ~58M weights)
    /// for analytic simulation costs nothing.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Self {
        let bound = (2.0 / in_features as f32).sqrt();
        let weight = LazyParam::new(&[out_features, in_features], bound, seed, 0.0);
        let bias = LazyParam::new(&[out_features], 0.01, seed.wrapping_add(1), 0.0);
        Self {
            name: name.into(),
            in_features,
            out_features,
            weight,
            bias,
            qweight: OnceLock::new(),
            act_quant: OnceLock::new(),
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Replaces the parameters (test/doc support).
    ///
    /// # Errors
    /// Returns [`NnError::BadInputShape`] when the shapes do not match the
    /// declared feature counts.
    pub fn with_params(mut self, weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.dims() != [self.out_features, self.in_features]
            || bias.dims() != [self.out_features]
        {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!(
                    "weight {:?} / bias {:?} incompatible with {}x{}",
                    weight.dims(),
                    bias.dims(),
                    self.out_features,
                    self.in_features
                ),
            });
        }
        self.weight = LazyParam::from_tensor(weight);
        self.bias = LazyParam::from_tensor(bias);
        self.qweight = OnceLock::new();
        Ok(self)
    }

    fn check_input(&self, input: &Shape) -> Result<()> {
        if input.rank() != 1 || input.dim(0)? != self.in_features {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("expected [{}] input, got {}", self.in_features, input),
            });
        }
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Fc
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        Ok(Shape::new(&[self.out_features]))
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0].shape())?;
        let x = inputs[0].as_slice();
        let k = self.in_features;
        let w = self.weight.get().as_slice();
        let bias = self.bias.get().as_slice();
        let (range, int8, relu) = match part {
            Part::Units { range, int8, relu } => (range, int8, relu),
            Part::Inputs(range) => {
                validate_range(&self.name, &range, k)?;
                check_out(out, self.out_features)?;
                let x = &x[range.clone()];
                for (o, dst) in out.iter_mut().enumerate() {
                    let partial = dot(&w[o * k + range.start..o * k + range.end], x);
                    // The bias is contributed exactly once, by the first
                    // partial.
                    *dst = if range.start == 0 {
                        partial + bias[o]
                    } else {
                        partial
                    };
                }
                return Ok(());
            }
        };
        validate_range(&self.name, &range, self.out_features)?;
        check_out(out, range.len())?;
        if int8 {
            let qw = self
                .qweight
                .get_or_init(|| QuantizedWeights::from_weight(self.weight.get(), 1));
            let act = self.act_quant.get().copied().unwrap_or_else(|| {
                let (lo, hi) = min_max(x);
                QuantParams::from_min_max(lo, hi)
            });
            let rq = Requant {
                w_scales: &qw.scales[range.clone()],
                act,
                row_sums: &qw.row_sums[range.clone()],
                bias: Some(&bias[range.clone()]),
                relu,
            };
            let codes = qw.q.as_slice();
            // Quantize the input vector once; each neuron is then one
            // int8 dot requantized through the shared epilogue math. This
            // is where int8 pays at the model level: the dominant traffic
            // here is the weight matrix, read at a quarter of the f32
            // width.
            with_scratch_i8(k, |qx| {
                quantize_into(x, qx, act);
                for (i, (o, dst)) in range.clone().zip(out.iter_mut()).enumerate() {
                    *dst = rq.apply(dot_i8(&codes[o * k..(o + 1) * k], qx), i);
                }
            });
            return Ok(());
        }
        // Weight rows for an output range are contiguous — dot against
        // them directly instead of copying a sub-matrix out. The optional
        // ReLU clamps each neuron as it is produced.
        for (o, dst) in range.zip(out.iter_mut()) {
            let v = dot(&w[o * k..(o + 1) * k], x) + bias[o];
            *dst = if relu { v.max(0.0) } else { v };
        }
        Ok(())
    }

    fn int8_ready(&self) -> bool {
        true
    }

    fn stamp_activation(&self, p: QuantParams) -> bool {
        self.act_quant.set(p).is_ok()
    }

    fn int8_worthwhile(&self) -> bool {
        // Mat-vec is memory-bound on the weight matrix, and the int8
        // path pays a per-call quantize of the input plus a requant of
        // the output. Below ~32k weights (the FCNN-Tiny stack) those
        // fixed costs exceed the halved weight traffic, and the
        // committed bench showed int8 *losing* to f32 there — so the
        // executor keeps small dense layers in f32 even under int8 plans.
        self.out_features * self.in_features >= 32 * 1024
    }

    fn prepack(&self, int8: bool) -> u64 {
        if int8 {
            if !self.int8_worthwhile() || self.qweight.get().is_some() {
                return 0;
            }
            let qw = self
                .qweight
                .get_or_init(|| QuantizedWeights::from_weight(self.weight.get(), 1));
            (qw.awide.len() * 4
                + qw.q.as_slice().len()
                + qw.scales.len() * 4
                + qw.row_sums.len() * 4) as u64
        } else {
            // Mat-vec reads weight rows in their stored layout — there
            // is no panel format to build, but materializing the lazy
            // parameters here moves the one-time generation cost out of
            // the first timed inference.
            if self.weight.is_materialized() {
                return 0;
            }
            let _ = self.weight.get();
            let _ = self.bias.get();
            ((self.weight.len() + self.bias.len()) * 4) as u64
        }
    }

    fn scratch_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        // The f32 mat-vec uses no arena scratch; the int8 path holds one
        // quantized copy of the input vector.
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        Ok(self.in_features as u64)
    }

    fn input_split_supported(&self) -> bool {
        true
    }

    fn input_channels(&self, inputs: &[&Shape]) -> Result<usize> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        Ok(self.in_features)
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        Ok(Workload {
            flops: 2 * (self.out_features as u64) * (self.in_features as u64),
            input_bytes: (self.in_features * 4) as u64,
            output_bytes: (self.out_features * 4) as u64,
            weight_bytes: ((self.out_features * self.in_features + self.out_features) * 4) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::test_support::{assert_merge_invariant, compute, units};

    #[test]
    fn hand_checked_matvec() {
        let dense = Dense::new("fc", 2, 2, 0)
            .with_params(
                Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
                Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
            )
            .unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let y = dense.forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn output_shape_and_arity() {
        let dense = Dense::new("fc", 8, 3, 1);
        assert_eq!(
            dense.output_shape(&[&Shape::new(&[8])]).unwrap().dims(),
            &[3]
        );
        assert!(dense.output_shape(&[&Shape::new(&[9])]).is_err());
        assert!(dense.output_shape(&[&Shape::new(&[8, 1])]).is_err());
        assert_eq!(dense.out_features(), 3);
    }

    #[test]
    fn merge_invariant_holds() {
        let dense = Dense::new("fc", 13, 7, 5);
        let x = Tensor::random(&[13], 1.0, 6);
        assert_merge_invariant(&dense, &[&x]);
    }

    #[test]
    fn partial_bias_indexing_is_global() {
        let dense = Dense::new("fc", 1, 3, 0)
            .with_params(
                Tensor::zeros(&[3, 1]),
                Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
            )
            .unwrap();
        let x = Tensor::ones(&[1]);
        let tail = compute(&dense, &[&x], units(2..3, false, false)).unwrap();
        assert_eq!(tail, &[3.0]);
    }

    #[test]
    fn with_params_validates_shapes() {
        let dense = Dense::new("fc", 4, 2, 0);
        assert!(dense
            .with_params(Tensor::zeros(&[2, 3]), Tensor::zeros(&[2]))
            .is_err());
    }

    #[test]
    fn input_split_sum_invariant() {
        let dense = Dense::new("fc", 11, 7, 13);
        let x = Tensor::random(&[11], 1.0, 14);
        let full = dense.forward(&[&x]).unwrap();
        let partial = |range| {
            let sum = compute(&dense, &[&x], Part::Inputs(range)).unwrap();
            Tensor::from_vec(sum, full.dims()).unwrap()
        };
        for cut in 1..11 {
            let a = partial(0..cut);
            let b = partial(cut..11);
            let merged = a.add(&b).unwrap();
            assert!(merged.approx_eq(&full, 1e-4), "cut {cut}");
        }
        assert!(dense.input_split_supported());
        assert_eq!(dense.input_channels(&[x.shape()]).unwrap(), 11);
    }

    #[test]
    fn int8_partials_merge_bitwise_and_track_f32() {
        let dense = Dense::new("fc", 64, 10, 3);
        let x = Tensor::random(&[64], 1.0, 4);
        let f = dense.forward(&[&x]).unwrap();
        let full = dense.forward_partial_int8(&[&x], 0..10, false).unwrap();
        assert!(
            full.approx_eq(&f, 0.05),
            "max diff {}",
            full.max_abs_diff(&f).unwrap()
        );
        for cut in [1, 5, 9] {
            let a = dense.forward_partial_int8(&[&x], 0..cut, false).unwrap();
            let b = dense.forward_partial_int8(&[&x], cut..10, false).unwrap();
            let merged = Tensor::concat_axis0(&[&a, &b]).unwrap();
            assert_eq!(merged.as_slice(), full.as_slice(), "cut {cut}");
        }
        assert!(dense.int8_ready());
    }

    #[test]
    fn int8_fused_relu_clamps() {
        let dense = Dense::new("fc", 32, 8, 5);
        let x = Tensor::random(&[32], 1.0, 6);
        let q = dense.forward_partial_int8(&[&x], 0..8, true).unwrap();
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        let f = compute(&dense, &[&x], units(0..8, false, true)).unwrap();
        assert!(q.approx_eq(&Tensor::from_vec(f, q.dims()).unwrap(), 0.05));
    }

    #[test]
    fn workload_is_2mn_flops() {
        let dense = Dense::new("fc", 256, 10, 0);
        let w = dense.workload(&[&Shape::new(&[256])]).unwrap();
        assert_eq!(w.flops, 2 * 256 * 10);
        assert_eq!(w.weight_bytes, (256 * 10 + 10) * 4);
        // fc layers are memory-bound: intensity ~2 flops/weight-byte / 4.
        assert!(w.arithmetic_intensity() < 1.0);
    }
}
