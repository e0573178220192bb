//! Normalization layers: local response normalization and batch norm.

use edgenn_tensor::{Shape, Tensor};

use crate::layer::params::LazyParam;
use crate::layer::{check_arity, clamp_if, units_part, Layer, LayerClass, Part};
use crate::{NnError, Result, Workload};

/// AlexNet-style local response normalization (across channels).
///
/// `y[c] = x[c] / (k + alpha/n * sum_{c' in window} x[c']^2)^beta`
///
/// Computing an output channel needs its neighboring *input* channels, so
/// partial execution reads the whole input but writes only its range —
/// the same access pattern as convolution, which keeps the unified-memory
/// traffic model consistent.
#[derive(Debug, Clone)]
pub struct LocalResponseNorm {
    name: String,
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
}

impl LocalResponseNorm {
    /// Creates an LRN layer with AlexNet's published constants.
    pub fn alexnet_default(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }

    /// Creates an LRN layer with explicit constants.
    pub fn new(name: impl Into<String>, size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        Self {
            name: name.into(),
            size,
            alpha,
            beta,
            k,
        }
    }

    fn check_input(&self, input: &Shape) -> Result<()> {
        if input.rank() != 3 {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("expected CHW input, got rank {}", input.rank()),
            });
        }
        Ok(())
    }
}

impl Layer for LocalResponseNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Norm
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        Ok(inputs[0].clone())
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0].shape())?;
        let channels = inputs[0].shape().dim(0)?;
        let plane = inputs[0].shape().dim(1)? * inputs[0].shape().dim(2)?;
        let (range, relu) = units_part(&self.name, part, channels, plane, out)?;
        let src = inputs[0].as_slice();
        let half = self.size / 2;
        for (c, dst) in range.zip(out.chunks_exact_mut(plane.max(1))) {
            let lo = c.saturating_sub(half);
            let hi = (c + half).min(channels - 1);
            for (p, d) in dst.iter_mut().enumerate() {
                let mut sq = 0.0f32;
                for cc in lo..=hi {
                    let v = src[cc * plane + p];
                    sq += v * v;
                }
                let denom = (self.k + self.alpha / self.size as f32 * sq).powf(self.beta);
                *d = src[c * plane + p] / denom;
            }
        }
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        let elems = inputs[0].num_elements() as u64;
        Ok(Workload {
            // window of squares + pow + divide per element
            flops: elems * (2 * self.size as u64 + 10),
            input_bytes: elems * 4 * self.size.min(3) as u64,
            output_bytes: elems * 4,
            weight_bytes: 0,
        })
    }
}

/// Inference-mode batch normalization over channels of a CHW map.
///
/// Folds the running statistics into per-channel scale/shift:
/// `y = x * gamma_hat[c] + beta_hat[c]`.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    name: String,
    scale: LazyParam,
    shift: LazyParam,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with deterministic pseudo-random folded
    /// parameters (scale near 1, shift near 0), materialized lazily.
    pub fn new(name: impl Into<String>, channels: usize, seed: u64) -> Self {
        let scale = LazyParam::new(&[channels], 0.1, seed, 1.0);
        let shift = LazyParam::new(&[channels], 0.1, seed.wrapping_add(1), 0.0);
        Self {
            name: name.into(),
            scale,
            shift,
        }
    }

    /// Creates a batch-norm layer from explicit folded parameters.
    ///
    /// # Errors
    /// Returns [`NnError::BadInputShape`] when scale and shift differ in length.
    pub fn from_params(name: impl Into<String>, scale: Tensor, shift: Tensor) -> Result<Self> {
        let name = name.into();
        if scale.dims() != shift.dims() || scale.shape().rank() != 1 {
            return Err(NnError::BadInputShape {
                layer: name,
                reason: format!(
                    "scale {:?} and shift {:?} must be equal-length vectors",
                    scale.dims(),
                    shift.dims()
                ),
            });
        }
        Ok(Self {
            name,
            scale: LazyParam::from_tensor(scale),
            shift: LazyParam::from_tensor(shift),
        })
    }

    fn channels(&self) -> usize {
        self.scale.len()
    }

    fn check_input(&self, input: &Shape) -> Result<()> {
        if input.rank() != 3 || input.dim(0)? != self.channels() {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("expected [{}, H, W] input, got {}", self.channels(), input),
            });
        }
        Ok(())
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Norm
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        Ok(inputs[0].clone())
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0].shape())?;
        let plane = inputs[0].shape().dim(1)? * inputs[0].shape().dim(2)?;
        let (range, relu) = units_part(&self.name, part, self.channels(), plane, out)?;
        let src = inputs[0].as_slice();
        let (scale, shift) = (self.scale.get().as_slice(), self.shift.get().as_slice());
        for (c, dst) in range.zip(out.chunks_exact_mut(plane.max(1))) {
            let (g, b) = (scale[c], shift[c]);
            for (d, &x) in dst.iter_mut().zip(&src[c * plane..(c + 1) * plane]) {
                *d = x * g + b;
            }
        }
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        let elems = inputs[0].num_elements() as u64;
        Ok(Workload {
            flops: 2 * elems,
            input_bytes: elems * 4,
            output_bytes: elems * 4,
            weight_bytes: (self.channels() * 2 * 4) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::test_support::assert_merge_invariant;

    #[test]
    fn lrn_is_identity_when_alpha_zero() {
        let lrn = LocalResponseNorm::new("lrn", 5, 0.0, 0.75, 1.0);
        let x = Tensor::random(&[4, 3, 3], 1.0, 1);
        let y = lrn.forward(&[&x]).unwrap();
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn lrn_hand_checked_single_pixel() {
        // 3 channels, 1x1 planes, window 3, alpha=3 (so alpha/n = 1), beta=1, k=0.
        let lrn = LocalResponseNorm::new("lrn", 3, 3.0, 1.0, 0.0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1, 1]).unwrap();
        let y = lrn.forward(&[&x]).unwrap();
        // channel 0 window {0,1}: denom = 1+4 = 5
        // channel 1 window {0,1,2}: denom = 1+4+9 = 14
        // channel 2 window {1,2}: denom = 4+9 = 13
        assert!((y.as_slice()[0] - 1.0 / 5.0).abs() < 1e-6);
        assert!((y.as_slice()[1] - 2.0 / 14.0).abs() < 1e-6);
        assert!((y.as_slice()[2] - 3.0 / 13.0).abs() < 1e-6);
    }

    #[test]
    fn lrn_merge_invariant_despite_cross_channel_window() {
        let lrn = LocalResponseNorm::alexnet_default("lrn");
        let x = Tensor::random(&[8, 4, 4], 1.0, 5);
        assert_merge_invariant(&lrn, &[&x]);
    }

    #[test]
    fn batchnorm_applies_folded_affine() {
        let bn = BatchNorm2d::from_params(
            "bn",
            Tensor::from_vec(vec![2.0, 0.5], &[2]).unwrap(),
            Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap(),
        )
        .unwrap();
        let x = Tensor::ones(&[2, 2, 2]);
        let y = bn.forward(&[&x]).unwrap();
        assert_eq!(&y.as_slice()[0..4], &[3.0; 4]);
        assert_eq!(&y.as_slice()[4..8], &[-0.5; 4]);
    }

    #[test]
    fn batchnorm_merge_invariant() {
        let bn = BatchNorm2d::new("bn", 6, 7);
        let x = Tensor::random(&[6, 3, 3], 1.0, 8);
        assert_merge_invariant(&bn, &[&x]);
    }

    #[test]
    fn batchnorm_validates_params_and_input() {
        assert!(BatchNorm2d::from_params("bn", Tensor::zeros(&[2]), Tensor::zeros(&[3])).is_err());
        let bn = BatchNorm2d::new("bn", 4, 0);
        assert!(bn.output_shape(&[&Shape::new(&[5, 2, 2])]).is_err());
        assert!(bn.output_shape(&[&Shape::new(&[4, 2])]).is_err());
    }

    #[test]
    fn norm_workloads_have_positive_flops() {
        let shape = Shape::new(&[4, 8, 8]);
        assert!(
            LocalResponseNorm::alexnet_default("l")
                .workload(&[&shape])
                .unwrap()
                .flops
                > 0
        );
        assert!(
            BatchNorm2d::new("b", 4, 0)
                .workload(&[&shape])
                .unwrap()
                .flops
                > 0
        );
    }
}
