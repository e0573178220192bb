//! Pooling layers (max, average, global average).

use std::ops::Range;

use edgenn_tensor::{Conv2dGeometry, Shape, Tensor};

use crate::layer::{check_arity, clamp_if, units_part, Layer, LayerClass, Part};
use crate::{NnError, Result, Workload};

/// Pooling reduction applied within each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window (out-of-bounds taps excluded).
    Avg,
}

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

    /// Pools one channel plane into `dst` (`out_h * out_w` outputs).
    /// `x_spans` holds each output column's in-range input columns, so
    /// the tap loops run over plain slices with no bounds tests:
    /// out-of-range taps are exactly the ones that contributed nothing.
    /// The fold order (ky, then kx, from `-inf` or `0`) is unchanged.
    fn pool_channel(
        &self,
        src: &[f32],
        g: &Conv2dGeometry,
        x_spans: &[Range<usize>],
        dst: &mut [f32],
    ) {
        match self.kind {
            PoolKind::Max => {
                pool_plane(
                    src,
                    g,
                    x_spans,
                    dst,
                    f32::NEG_INFINITY,
                    f32::max,
                    |acc, _| acc,
                );
            }
            PoolKind::Avg => pool_plane(
                src,
                g,
                x_spans,
                dst,
                0.0,
                |acc, v| acc + v,
                |acc, taps| if taps == 0 { 0.0 } else { acc / taps as f32 },
            ),
        }
    }
}

/// [`Pool2d::pool_channel`] for one reduction: `fold` each window's taps
/// into `init`, then `finish` the result with the window's tap count.
#[inline(always)]
fn pool_plane(
    src: &[f32],
    g: &Conv2dGeometry,
    x_spans: &[Range<usize>],
    dst: &mut [f32],
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) {
    for (oy, dst_row) in dst.chunks_exact_mut(x_spans.len()).enumerate() {
        let ys = window(oy, g.stride_h, g.pad_h, g.kernel_h, g.in_h);
        let rows = &src[ys.start * g.in_w..ys.end * g.in_w];
        for (d, xs) in dst_row.iter_mut().zip(x_spans) {
            let mut acc = init;
            for row in rows.chunks_exact(g.in_w) {
                for &v in &row[xs.clone()] {
                    acc = fold(acc, v);
                }
            }
            *d = finish(acc, ys.len() * xs.len());
        }
    }
}

/// In-range input indices of output `o`'s window along one axis: taps
/// `o*stride + k - pad` for `k < kernel`, clipped to `0..len`.
fn window(o: usize, stride: usize, pad: usize, kernel: usize, len: usize) -> Range<usize> {
    let start = (o * stride).max(pad) - pad;
    let end = (o * stride + kernel).min(len + pad).saturating_sub(pad);
    start..end.max(start)
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
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let (range, relu) = units_part(&self.name, part, g.in_channels, out_h * out_w, out)?;
        let plane = g.in_h * g.in_w;
        let x_spans: Vec<Range<usize>> = (0..out_w)
            .map(|ox| window(ox, g.stride_w, g.pad_w, g.kernel_w, g.in_w))
            .collect();
        let planes =
            inputs[0].as_slice()[range.start * plane..range.end * plane].chunks_exact(plane);
        for (src, dst) in planes.zip(out.chunks_exact_mut(out_h * out_w)) {
            self.pool_channel(src, &g, &x_spans, dst);
        }
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
    /// span-based one: same fold order, so results match bitwise.
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
