//! Pooling layers (max, average, global average).

use edgenn_tensor::{pool_into, Conv2dGeometry, Shape, Tensor};

use crate::layer::{check_arity, clamp_if, units_part, Layer, LayerClass, Part};
use crate::{NnError, Result, Workload};

pub use edgenn_tensor::PoolKind;

/// Windowed 2-D pooling over CHW feature maps.
///
/// Channels are independent, so the partition unit is a channel. The paper
/// observes (Figure 10) that pooling layers *slow down* under zero-copy —
/// they are pure memory traffic, so the managed-memory access penalty is
/// not amortized by any compute; the simulator reproduces that effect via
/// this layer's low arithmetic intensity.
#[derive(Debug, Clone)]
pub struct Pool2d {
    name: String,
    kind: PoolKind,
    kernel: usize,
    stride: usize,
    pad: usize,
}

/// Max pooling constructor alias.
pub struct MaxPool2d;

#[allow(clippy::new_ret_no_self)] // constructor aliases intentionally build `Pool2d`
impl MaxPool2d {
    /// Creates a max-pooling layer.
    pub fn new(name: impl Into<String>, kernel: usize, stride: usize) -> Pool2d {
        Pool2d {
            name: name.into(),
            kind: PoolKind::Max,
            kernel,
            stride,
            pad: 0,
        }
    }

    /// Creates a padded max-pooling layer.
    pub fn with_pad(name: impl Into<String>, kernel: usize, stride: usize, pad: usize) -> Pool2d {
        Pool2d {
            name: name.into(),
            kind: PoolKind::Max,
            kernel,
            stride,
            pad,
        }
    }
}

/// Average pooling constructor alias.
pub struct AvgPool2d;

#[allow(clippy::new_ret_no_self)] // constructor aliases intentionally build `Pool2d`
impl AvgPool2d {
    /// Creates an average-pooling layer.
    pub fn new(name: impl Into<String>, kernel: usize, stride: usize) -> Pool2d {
        Pool2d {
            name: name.into(),
            kind: PoolKind::Avg,
            kernel,
            stride,
            pad: 0,
        }
    }
}

impl Pool2d {
    fn geometry(&self, input: &Shape) -> Result<Conv2dGeometry> {
        if input.rank() != 3 {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("expected CHW input, got rank {}", input.rank()),
            });
        }
        if input.dim(1)? == 0 || input.dim(2)? == 0 {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: "empty feature map".to_string(),
            });
        }
        let g = Conv2dGeometry {
            in_channels: input.dim(0)?,
            in_h: input.dim(1)?,
            in_w: input.dim(2)?,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride_h: self.stride,
            stride_w: self.stride,
            pad_h: self.pad,
            pad_w: self.pad,
        };
        g.validate()?;
        Ok(g)
    }
}

impl Layer for Pool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Pool
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0])?;
        Ok(Shape::new(&[g.in_channels, g.out_h(), g.out_w()]))
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0].shape())?;
        let (range, relu) =
            units_part(&self.name, part, g.in_channels, g.out_h() * g.out_w(), out)?;
        let plane = g.in_h * g.in_w;
        let x = &inputs[0].as_slice()[range.start * plane..range.end * plane];
        let g = Conv2dGeometry {
            in_channels: range.len(),
            ..g
        };
        pool_into(x, &g, self.kind, out)?;
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0])?;
        let out_elems = (g.in_channels * g.out_h() * g.out_w()) as u64;
        Ok(Workload {
            // one compare/add per tap
            flops: out_elems * (self.kernel * self.kernel) as u64,
            input_bytes: (inputs[0].num_elements() * 4) as u64,
            output_bytes: out_elems * 4,
            weight_bytes: 0,
        })
    }
}

/// Global average pooling: CHW -> C (mean of each channel plane).
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    name: String,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Pool
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        if inputs[0].rank() != 3 {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("expected CHW input, got rank {}", inputs[0].rank()),
            });
        }
        Ok(Shape::new(&[inputs[0].dim(0)?]))
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        let shape = inputs[0].shape();
        let channels = self.output_shape(&[shape])?.dim(0)?;
        let (range, relu) = units_part(&self.name, part, channels, 1, out)?;
        let plane = shape.dim(1)? * shape.dim(2)?;
        for (c, dst) in range.zip(out.iter_mut()) {
            let src = &inputs[0].as_slice()[c * plane..(c + 1) * plane];
            *dst = src.iter().sum::<f32>() / plane as f32;
        }
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        let elems = inputs[0].num_elements() as u64;
        let channels = inputs[0].dim(0)? as u64;
        Ok(Workload {
            flops: elems,
            input_bytes: elems * 4,
            output_bytes: channels * 4,
            weight_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::test_support::assert_merge_invariant;

    #[test]
    fn max_pool_hand_checked() {
        // 4x4 plane, 2x2 window stride 2.
        let x = Tensor::arange(&[1, 4, 4]);
        let pool = MaxPool2d::new("p", 2, 2);
        let y = pool.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_hand_checked() {
        let x = Tensor::arange(&[1, 4, 4]);
        let pool = AvgPool2d::new("p", 2, 2);
        let y = pool.forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn padded_max_pool_ignores_out_of_bounds() {
        let x = Tensor::ones(&[1, 2, 2]);
        let pool = MaxPool2d::with_pad("p", 3, 2, 1);
        let y = pool.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert_eq!(y.as_slice(), &[1.0]);
    }

    #[test]
    fn avg_pool_padding_excludes_taps_from_denominator() {
        // All-ones input with padding: averages must stay exactly 1.0
        // because padded taps are excluded, not counted as zeros.
        let x = Tensor::ones(&[1, 3, 3]);
        let pool = Pool2d {
            name: "p".into(),
            kind: PoolKind::Avg,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let y = pool.forward(&[&x]).unwrap();
        assert!(y.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    /// The per-tap bounds-checked pool, kept as the reference for the
    /// vectorized kernel: same fold order, so results match bitwise.
    fn reference_pool(pool: &Pool2d, x: &Tensor) -> Vec<f32> {
        let g = pool.geometry(x.shape()).unwrap();
        let mut out = Vec::new();
        for c in 0..g.in_channels {
            let src = &x.as_slice()[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    let mut acc = match pool.kind {
                        PoolKind::Max => f32::NEG_INFINITY,
                        PoolKind::Avg => 0.0,
                    };
                    let mut taps = 0usize;
                    for ky in 0..g.kernel_h {
                        let iy = (oy * g.stride_h + ky) as isize - g.pad_h as isize;
                        for kx in 0..g.kernel_w {
                            let ix = (ox * g.stride_w + kx) as isize - g.pad_w as isize;
                            if iy < 0 || iy >= g.in_h as isize || ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let v = src[iy as usize * g.in_w + ix as usize];
                            match pool.kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                            taps += 1;
                        }
                    }
                    out.push(match pool.kind {
                        PoolKind::Max => acc,
                        PoolKind::Avg if taps == 0 => 0.0,
                        PoolKind::Avg => acc / taps as f32,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn span_pool_matches_per_tap_reference_bitwise() {
        // Padded and unpadded windows, strides that skip and overlap,
        // windows wider than the input, both kinds.
        for kind in [PoolKind::Max, PoolKind::Avg] {
            for (hw, kernel, stride, pad) in [
                (8, 2, 2, 0),
                (7, 3, 2, 1),
                (5, 3, 1, 1),
                (6, 3, 3, 2),
                (2, 5, 1, 2),
                (9, 1, 2, 0),
            ] {
                let pool = Pool2d {
                    name: "p".into(),
                    kind,
                    kernel,
                    stride,
                    pad,
                };
                let x = Tensor::random(&[3, hw, hw], 1.0, 17);
                let got = pool.forward(&[&x]).unwrap();
                assert_eq!(
                    got.as_slice(),
                    reference_pool(&pool, &x).as_slice(),
                    "{kind:?} hw={hw} k={kernel} s={stride} p={pad}"
                );
            }
        }
    }

    #[test]
    fn pool_fold_order_holds_on_signed_zeros_nan_and_infinities() {
        // Under max, +0.0 and -0.0 tie and a NaN tap is skipped, so a
        // fold that reorders the taps (kx before ky), reassociates them
        // (pairwise) or swaps its operands changes some outputs' bits;
        // so does an average that starts from -0.0. Odd input widths,
        // output widths below, at and above the kernel's 16 register
        // lanes, every channel and a channel sub-range; pads below the
        // kernel, so every window holds a tap. An average over an
        // infinity of each sign and a NaN is a NaN whose sign Rust
        // leaves unspecified (`+` commutes, and x86 returns its first
        // NaN operand), so NaNs compare as one value; a max never makes
        // a NaN.
        const VALUES: [f32; 7] = [
            0.0,
            -0.0,
            f32::NAN,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        use crate::layer::test_support::{compute, units};
        let bits = |v: &[f32]| -> Vec<u32> {
            let nan = f32::NAN.to_bits();
            v.iter()
                .map(|x| if x.is_nan() { nan } else { x.to_bits() })
                .collect()
        };
        let (mut cases, mut failed, mut widths) = (0, Vec::new(), [false; 3]);
        for kind in [PoolKind::Max, PoolKind::Avg] {
            for (kernel, stride, pad) in (1..=5)
                .flat_map(|k| (1..=3).flat_map(move |s| (0..k.min(3)).map(move |p| (k, s, p))))
            {
                for (out_w, seed) in [5usize, 16, 21]
                    .into_iter()
                    .flat_map(|w| (0..3).map(move |s| (w, s)))
                {
                    let in_w = ((out_w - 1) * stride + kernel)
                        .saturating_sub(2 * pad)
                        .max(1)
                        | 1;
                    let dims = [4, kernel + 2, in_w];
                    let pool = Pool2d {
                        name: "p".into(),
                        kind,
                        kernel,
                        stride,
                        pad,
                    };
                    let Ok(g) = pool.geometry(&Shape::new(&dims)) else {
                        continue;
                    };
                    widths[usize::from(g.out_w() >= 16) + usize::from(g.out_w() > 16)] = true;
                    let x = Tensor::random(&dims, 1.0, seed)
                        .map(|v| VALUES[((v + 1.0) * 3.5) as usize % VALUES.len()]);
                    let want = bits(&reference_pool(&pool, &x));
                    let plane = g.out_h() * g.out_w();
                    let all = compute(&pool, &[&x], units(0..4, false, false)).unwrap();
                    let part = compute(&pool, &[&x], units(1..3, false, false)).unwrap();
                    cases += 1;
                    if bits(&all) != want || bits(&part) != want[plane..3 * plane] {
                        failed.push(format!(
                            "{kind:?} in_w={in_w} k={kernel} s={stride} p={pad}"
                        ));
                    }
                }
            }
        }
        assert_eq!(widths, [true; 3], "out_w must cover below, at and above 16");
        assert!(
            failed.is_empty(),
            "{} of {cases} cases differ, first {}",
            failed.len(),
            failed[0]
        );
    }

    #[test]
    fn windows_wholly_in_the_padding_fold_no_tap() {
        // A 1x1 map under a 1x1 window padded by 2: only the centre
        // output sees the input.
        let x = Tensor::from_vec(vec![3.0], &[1, 1, 1]).unwrap();
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let pool = Pool2d {
                name: "p".into(),
                kind,
                kernel: 1,
                stride: 1,
                pad: 2,
            };
            let got = pool.forward(&[&x]).unwrap();
            assert_eq!(got.as_slice(), reference_pool(&pool, &x).as_slice());
            assert_eq!(got.as_slice()[12], 3.0);
        }
    }

    #[test]
    fn pool_channels_are_independent() {
        let x = Tensor::random(&[5, 6, 6], 1.0, 3);
        let pool = MaxPool2d::new("p", 2, 2);
        assert_merge_invariant(&pool, &[&x]);
        let pool = AvgPool2d::new("p", 3, 1);
        assert_merge_invariant(&pool, &[&x]);
    }

    #[test]
    fn global_avg_pool_means_planes() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[2, 2, 2]).unwrap();
        let gap = GlobalAvgPool::new("gap");
        let y = gap.forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 2.0]);
        assert_merge_invariant(&gap, &[&x]);
    }

    #[test]
    fn pool_rejects_bad_rank() {
        let pool = MaxPool2d::new("p", 2, 2);
        assert!(pool.output_shape(&[&Shape::new(&[4, 4])]).is_err());
        let padded = MaxPool2d::with_pad("p", 3, 1, 2);
        assert!(padded.output_shape(&[&Shape::new(&[3, 0, 0])]).is_err());
        let gap = GlobalAvgPool::new("g");
        assert!(gap.output_shape(&[&Shape::new(&[4, 4])]).is_err());
    }

    #[test]
    fn pool_workload_is_memory_bound() {
        let pool = MaxPool2d::new("p", 3, 2);
        let w = pool.workload(&[&Shape::new(&[64, 32, 32])]).unwrap();
        assert!(w.arithmetic_intensity() < 3.0);
        assert_eq!(w.weight_bytes, 0);
    }
}
