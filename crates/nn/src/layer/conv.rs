//! 2-D convolution as an implicit GEMM: the input is copied once into a
//! padded map, laid out so that the GEMM reads every patch-matrix row
//! straight from it ([`edgenn_tensor::conv_gemm_into`],
//! [`edgenn_tensor::conv_qgemm_into`]).

use std::ops::Range;
use std::sync::OnceLock;

use edgenn_tensor::{
    conv_gemm_into, conv_gemm_scratch_elems, conv_qgemm_into, conv_qgemm_scratch_elems,
    gemm_pack_a, min_max, with_scratch, Conv2dGeometry, Epilogue, QuantParams, Requant, Shape,
    Tensor,
};

use crate::layer::params::{LazyParam, QuantizedWeights};
use crate::layer::{check_arity, check_out, validate_range, Layer, LayerClass, Part};
use crate::{NnError, Result, Workload};

/// A 2-D convolution layer over CHW feature maps.
///
/// Weights are stored pre-flattened as `(out_channels, in_channels*kh*kw)`
/// so that intra-kernel partitioning is a row-range GEMM — exactly the way
/// the paper splits "the convolution results of the first k input channels"
/// between GPU and CPU (Section IV-D uses output-channel partitioning of
/// the first convolutional layer as its running example).
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: LazyParam,
    bias: LazyParam,
    in_channels: usize,
    /// Int8 weight codes, derived from `weight` on first int8 use.
    qweight: OnceLock<QuantizedWeights>,
    /// Calibrated activation parameters ([`Layer::stamp_activation`]);
    /// absent means dynamic per-call min/max quantization.
    act_quant: OnceLock<QuantParams>,
    /// The weight matrix in the f32 GEMM's padded A layout, built by
    /// [`Layer::prepack`]. Padding past the last row-panel lets any
    /// output-channel range run the full microkernel without a
    /// per-row tail — and without per-call packing work.
    pweight: OnceLock<Vec<f32>>,
}

impl Conv2d {
    /// Creates a convolution with deterministic pseudo-random parameters.
    ///
    /// `seed` keeps weights reproducible across runs; magnitude is scaled
    /// by fan-in (He-style) so deep paper-scale nets stay numerically
    /// tame. Parameters materialize lazily on first functional use — the
    /// simulator-driven experiments never pay for them.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = (2.0 / fan_in).sqrt();
        let weight = LazyParam::new(
            &[out_channels, in_channels * kernel * kernel],
            bound,
            seed,
            0.0,
        );
        let bias = LazyParam::new(&[out_channels], 0.01, seed.wrapping_add(1), 0.0);
        Self {
            name: name.into(),
            out_channels,
            kernel,
            stride,
            pad,
            weight,
            bias,
            in_channels,
            qweight: OnceLock::new(),
            act_quant: OnceLock::new(),
            pweight: OnceLock::new(),
        }
    }

    /// Replaces the parameters with explicit tensors.
    ///
    /// # Errors
    /// Returns [`NnError::BadInputShape`] when the tensors do not match
    /// the declared geometry (`weight: [out_c, in_c*k*k]`, `bias: [out_c]`).
    pub fn with_params(mut self, weight: Tensor, bias: Tensor) -> Result<Self> {
        let taps = self.in_channels * self.kernel * self.kernel;
        if weight.dims() != [self.out_channels, taps] || bias.dims() != [self.out_channels] {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!(
                    "weight {:?} / bias {:?} incompatible with [{}, {}] / [{}]",
                    weight.dims(),
                    bias.dims(),
                    self.out_channels,
                    taps,
                    self.out_channels
                ),
            });
        }
        self.weight = LazyParam::from_tensor(weight);
        self.bias = LazyParam::from_tensor(bias);
        self.qweight = OnceLock::new();
        self.pweight = OnceLock::new();
        Ok(self)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    fn geometry(&self, input: &Shape) -> Result<Conv2dGeometry> {
        if input.rank() != 3 {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("expected CHW input, got rank {}", input.rank()),
            });
        }
        if input.dim(0)? != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!(
                    "expected {} input channels, got {}",
                    self.in_channels,
                    input.dim(0)?
                ),
            });
        }
        let g = Conv2dGeometry {
            in_channels: self.in_channels,
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

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Conv
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0])?;
        Ok(Shape::new(&[self.out_channels, g.out_h(), g.out_w()]))
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0].shape())?;
        let x = inputs[0].as_slice();
        let cols = g.out_h() * g.out_w();
        let bias = self.bias.get().as_slice();
        let (range, int8, relu) = match part {
            Part::Units { range, int8, relu } => (range, int8, relu),
            Part::Inputs(range) => {
                validate_range(&self.name, &range, self.in_channels)?;
                check_out(out, self.out_channels * cols)?;
                return self.input_partial(x, &g, range, bias, out);
            }
        };
        validate_range(&self.name, &range, self.out_channels)?;
        check_out(out, range.len() * cols)?;
        if int8 {
            let qw = self.quantized();
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
            // The weights were widened into the kernel's channel-pair
            // layout at init; the output-channel range is a row range of
            // it, and the kernel overwrites `out`.
            conv_qgemm_into(x, &g, &qw.awide, range, out, &rq)?;
            return Ok(());
        }
        let patch = self.in_channels * self.kernel * self.kernel;
        // The weight matrix is pre-flattened row-major, so an output-channel
        // range is a contiguous sub-slice — no copy. A prepacked weight
        // keeps the trailing row-panel padding in the slice so the GEMM
        // runs full microkernel blocks on the tail.
        let w_part: &[f32] = if let Some(p) = self.pweight.get() {
            &p[range.start * patch..]
        } else {
            &self.weight.get().as_slice()[range.start * patch..range.end * patch]
        };
        // Bias (and the fused ReLU) ride in the GEMM's write-back
        // epilogue — each output element is touched exactly once. The
        // GEMM accumulates into `out`, so it starts from zero.
        let bias = &bias[range];
        let ep = if relu {
            Epilogue::BiasRelu { bias }
        } else {
            Epilogue::Bias { bias }
        };
        out.fill(0.0);
        conv_gemm_into(x, &g, w_part, out, ep)?;
        Ok(())
    }

    fn int8_ready(&self) -> bool {
        true
    }

    fn stamp_activation(&self, p: QuantParams) -> bool {
        self.act_quant.set(p).is_ok()
    }

    fn prepack(&self, int8: bool) -> u64 {
        let patch = self.in_channels * self.kernel * self.kernel;
        if int8 {
            if self.qweight.get().is_some() {
                return 0;
            }
            let qw = self.quantized();
            (qw.awide.len() * 4
                + qw.q.as_slice().len()
                + qw.scales.len() * 4
                + qw.row_sums.len() * 4) as u64
        } else {
            if self.pweight.get().is_some() {
                return 0;
            }
            let packed = self.pweight.get_or_init(|| {
                gemm_pack_a(self.weight.get().as_slice(), self.out_channels, patch)
            });
            let _ = self.bias.get();
            (packed.len() * 4) as u64
        }
    }

    fn input_split_supported(&self) -> bool {
        true
    }

    fn input_channels(&self, inputs: &[&Shape]) -> Result<usize> {
        check_arity(&self.name, 1, inputs)?;
        self.geometry(inputs[0])?;
        Ok(self.in_channels)
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0])?;
        let out_elems = (self.out_channels * g.out_h() * g.out_w()) as u64;
        let taps = (self.in_channels * self.kernel * self.kernel) as u64;
        Ok(Workload {
            flops: 2 * out_elems * taps,
            input_bytes: (inputs[0].num_elements() * 4) as u64,
            output_bytes: out_elems * 4,
            weight_bytes: (self.weight.len() + self.bias.len()) as u64 * 4,
        })
    }

    fn working_set_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0])?;
        // im2col patch matrix + the weight matrix streamed against it.
        let taps = (self.in_channels * self.kernel * self.kernel) as u64;
        let cols = (g.out_h() * g.out_w()) as u64;
        Ok((taps * cols + self.weight.len() as u64) * 4)
    }

    fn scratch_elems(&self, inputs: &[&Shape]) -> Result<u64> {
        check_arity(&self.name, 1, inputs)?;
        let g = self.geometry(inputs[0])?;
        // The worst f32 path is an input-channel part over all
        // channels: the gathered weight columns, with the kernel's padded
        // map and tap-offset table nested inside. The other paths acquire
        // only the kernel's share, so this dominates every f32 path.
        let gathered_w = self.out_channels * self.in_channels * self.kernel * self.kernel;
        Ok((gathered_w + conv_gemm_scratch_elems(&g)) as u64)
    }

    fn scratch_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        // Whichever precision's peak is larger bounds the arena: the f32
        // paths acquire `scratch_elems * 4` bytes; the int8 path holds
        // the quantized pair map and its tap-offset table (4 bytes per
        // word) at once (A is prepacked at init, outside the arena).
        let f32_bytes = self.scratch_elems(inputs)? * 4;
        let g = self.geometry(inputs[0])?;
        let int8_bytes = 4 * conv_qgemm_scratch_elems(&g) as u64;
        Ok(f32_bytes.max(int8_bytes))
    }
}

impl Conv2d {
    /// The raw partial sum over input channels `range` into `out`, the
    /// whole output. The channel range is a contiguous run of input
    /// planes; the matching weight columns are strided in the flattened
    /// weight matrix, so they do need a gather — into scratch, not a
    /// fresh Vec.
    fn input_partial(
        &self,
        x: &[f32],
        g: &Conv2dGeometry,
        range: Range<usize>,
        bias: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let plane = g.in_h * g.in_w;
        let input_part = &x[range.start * plane..range.end * plane];
        let part_geometry = Conv2dGeometry {
            in_channels: range.len(),
            ..*g
        };
        let taps_per_channel = self.kernel * self.kernel;
        let part_taps = range.len() * taps_per_channel;
        let full_taps = self.in_channels * taps_per_channel;
        let w = self.weight.get().as_slice();
        out.fill(0.0);
        with_scratch(self.out_channels * part_taps, |w_buf| {
            for (oc, dst) in w_buf.chunks_mut(part_taps).enumerate() {
                let row = &w[oc * full_taps..(oc + 1) * full_taps];
                dst.copy_from_slice(
                    &row[range.start * taps_per_channel..range.end * taps_per_channel],
                );
            }
            conv_gemm_into(input_part, &part_geometry, w_buf, out, Epilogue::None)
        })?;
        if range.start == 0 {
            // The bias is contributed exactly once, by the first partial.
            let cols = g.out_h() * g.out_w();
            for (chunk, &b) in out.chunks_mut(cols).zip(bias) {
                for v in chunk {
                    *v += b;
                }
            }
        }
        Ok(())
    }

    /// The int8 weights, quantized and widened on first use.
    fn quantized(&self) -> &QuantizedWeights {
        self.qweight.get_or_init(|| {
            QuantizedWeights::from_weight(self.weight.get(), self.kernel * self.kernel)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::test_support::{assert_merge_invariant, compute, units};

    fn input(c: usize, hw: usize, seed: u64) -> Tensor {
        Tensor::random(&[c, hw, hw], 1.0, seed)
    }

    #[test]
    fn output_shape_follows_conv_arithmetic() {
        let conv = Conv2d::new("c", 3, 96, 11, 4, 0, 0);
        let shape = conv.output_shape(&[&Shape::new(&[3, 227, 227])]).unwrap();
        assert_eq!(shape.dims(), &[96, 55, 55]);
    }

    #[test]
    fn rejects_wrong_rank_and_channels() {
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, 0);
        assert!(matches!(
            conv.output_shape(&[&Shape::new(&[3, 8])]),
            Err(NnError::BadInputShape { .. })
        ));
        assert!(matches!(
            conv.output_shape(&[&Shape::new(&[4, 8, 8])]),
            Err(NnError::BadInputShape { .. })
        ));
        assert!(matches!(
            conv.output_shape(&[]),
            Err(NnError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn identity_1x1_conv_reproduces_input_channel() {
        // A 1x1 conv whose weight row selects channel 0 with bias 0.
        let conv = Conv2d::new("c", 2, 1, 1, 1, 0, 0)
            .with_params(
                Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap(),
                Tensor::zeros(&[1]),
            )
            .unwrap();
        let x = Tensor::arange(&[2, 3, 3]);
        let y = conv.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 3, 3]);
        assert_eq!(y.as_slice(), &x.as_slice()[0..9]);
    }

    #[test]
    fn hand_checked_2x2_convolution() {
        // 1-channel 3x3 input, single 2x2 all-ones kernel, bias 10:
        // each output = window sum + 10.
        let conv = Conv2d::new("c", 1, 1, 2, 1, 0, 0)
            .with_params(Tensor::ones(&[1, 4]), Tensor::filled(&[1], 10.0))
            .unwrap();
        let x = Tensor::arange(&[1, 3, 3]);
        let y = conv.forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[18.0, 22.0, 30.0, 34.0]);
    }

    #[test]
    fn bias_is_applied_per_output_channel() {
        let conv = Conv2d::new("c", 1, 2, 1, 1, 0, 0)
            .with_params(
                Tensor::zeros(&[2, 1]),
                Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap(),
            )
            .unwrap();
        let x = Tensor::ones(&[1, 2, 2]);
        let y = conv.forward(&[&x]).unwrap();
        assert_eq!(&y.as_slice()[0..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..8], &[-2.5; 4]);
    }

    #[test]
    fn merge_invariant_holds() {
        let conv = Conv2d::new("c", 3, 7, 3, 1, 1, 9);
        let x = input(3, 6, 1);
        assert_merge_invariant(&conv, &[&x]);
    }

    #[test]
    fn merge_invariant_holds_with_stride_and_pad() {
        let conv = Conv2d::new("c", 2, 5, 3, 2, 1, 4);
        let x = input(2, 9, 2);
        assert_merge_invariant(&conv, &[&x]);
    }

    #[test]
    fn partial_bias_uses_global_channel_index() {
        let conv = Conv2d::new("c", 1, 3, 1, 1, 0, 0)
            .with_params(
                Tensor::zeros(&[3, 1]),
                Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
            )
            .unwrap();
        let x = Tensor::ones(&[1, 2, 2]);
        let part = compute(&conv, &[&x], units(1..3, false, false)).unwrap();
        assert_eq!(&part[0..4], &[2.0; 4]);
        assert_eq!(&part[4..8], &[3.0; 4]);
    }

    #[test]
    fn input_split_sum_invariant() {
        // Adding the partials of disjoint input-channel ranges must equal
        // the full forward pass (the paper's Section IV-D split).
        let conv = Conv2d::new("c", 6, 5, 3, 1, 1, 21);
        let x = input(6, 7, 22);
        let full = conv.forward(&[&x]).unwrap();
        let partial = |range| {
            let sum = compute(&conv, &[&x], Part::Inputs(range)).unwrap();
            Tensor::from_vec(sum, full.dims()).unwrap()
        };
        for cut in 1..6 {
            let a = partial(0..cut);
            let b = partial(cut..6);
            let merged = a.add(&b).unwrap();
            assert!(
                merged.approx_eq(&full, 1e-4),
                "cut {cut}: max diff {}",
                merged.max_abs_diff(&full).unwrap()
            );
        }
        assert!(conv.input_split_supported());
        assert_eq!(conv.input_channels(&[x.shape()]).unwrap(), 6);
    }

    #[test]
    fn input_split_three_way_sum() {
        let conv = Conv2d::new("c", 9, 4, 3, 2, 1, 31);
        let x = input(9, 8, 32);
        let full = conv.forward(&[&x]).unwrap();
        let partial = |range| {
            let sum = compute(&conv, &[&x], Part::Inputs(range)).unwrap();
            Tensor::from_vec(sum, full.dims()).unwrap()
        };
        let p1 = partial(0..3);
        let p2 = partial(3..7);
        let p3 = partial(7..9);
        let merged = p1.add(&p2).unwrap().add(&p3).unwrap();
        assert!(merged.approx_eq(&full, 1e-4));
    }

    #[test]
    fn input_split_bias_counted_once() {
        let conv = Conv2d::new("c", 2, 1, 1, 1, 0, 0)
            .with_params(Tensor::zeros(&[1, 2]), Tensor::filled(&[1], 5.0))
            .unwrap();
        let x = Tensor::ones(&[2, 2, 2]);
        let a = compute(&conv, &[&x], Part::Inputs(0..1)).unwrap();
        let b = compute(&conv, &[&x], Part::Inputs(1..2)).unwrap();
        assert_eq!(a, &[5.0; 4], "first partial carries the bias");
        assert_eq!(b, &[0.0; 4], "second partial must not re-add it");
    }

    #[test]
    fn input_split_validates_range() {
        let conv = Conv2d::new("c", 4, 2, 3, 1, 1, 0);
        let x = input(4, 6, 1);
        assert!(matches!(
            compute(&conv, &[&x], Part::Inputs(2..2)),
            Err(NnError::BadPartition { .. })
        ));
        assert!(matches!(
            compute(&conv, &[&x], Part::Inputs(0..5)),
            Err(NnError::BadPartition { .. })
        ));
    }

    #[test]
    fn scratch_bound_dominates_every_execution_path() {
        use edgenn_tensor::{conv_gemm_scratch_elems, conv_qgemm_scratch_elems};
        // Padded (the kernels build a map), stride-2 (a map of four
        // phase planes per channel) and unpadded (the f32 kernel reads
        // the input in place) geometries.
        for (conv, shape) in [
            (Conv2d::new("c", 6, 5, 3, 1, 1, 21), Shape::new(&[6, 7, 7])),
            (Conv2d::new("c", 3, 8, 3, 2, 1, 21), Shape::new(&[3, 9, 9])),
            (Conv2d::new("c", 3, 8, 1, 1, 0, 21), Shape::new(&[3, 5, 5])),
        ] {
            let g = conv.geometry(&shape).unwrap();
            let elems = conv.scratch_elems(&[&shape]).unwrap();
            let bytes = conv.scratch_bytes(&[&shape]).unwrap();
            // An f32 units part: the padded map and the tap-offset table,
            // held at once.
            let kernel = conv_gemm_scratch_elems(&g) as u64;
            assert!(elems >= kernel);
            // An input-channel part additionally gathers weight columns
            // around the kernel; largest over the full channel range.
            let taps = (conv.in_channels * conv.kernel * conv.kernel) as u64;
            assert!(elems >= conv.out_channels as u64 * taps + kernel);
            assert!(bytes >= 4 * elems);
            // An int8 units part: the pair map and its tap table.
            assert!(bytes >= 4 * conv_qgemm_scratch_elems(&g) as u64);
        }
        // Layers without arena use must report zero.
        let dense = crate::layer::Dense::new("d", 4, 2, 0);
        assert_eq!(dense.scratch_elems(&[&Shape::new(&[4])]).unwrap(), 0);
    }

    #[test]
    fn every_conv_path_matches_im2col_and_the_gemm_bitwise() {
        use edgenn_tensor::{
            gemm_into, gemm_into_fused, im2col, qgemm_requant_into, quantize_into,
        };
        // Padding, stride, a 1x1 conv, a kernel wider than a panel row
        // and odd channel counts; ranges full, split and off the MR grid.
        for (c, hw, oc, k, s, p) in [
            (3, 7, 5, 3, 1, 1),
            (4, 9, 6, 1, 1, 0),
            (5, 8, 4, 3, 2, 1),
            (2, 18, 7, 5, 1, 2),
        ] {
            let conv = Conv2d::new("c", c, oc, k, s, p, 3);
            let x = input(c, hw, 4);
            let g = conv.geometry(x.shape()).unwrap();
            let cols = im2col(&x, &g).unwrap();
            let (taps, n) = (c * k * k, g.out_h() * g.out_w());
            let w = conv.weight.get().as_slice();
            let bias = conv.bias.get().as_slice();
            let prepacked = conv.clone();
            prepacked.prepack(false);
            let qw = conv.quantized();
            let (lo, hi) = min_max(x.as_slice());
            let act = QuantParams::from_min_max(lo, hi);
            let mut qcols = vec![0i8; cols.len()];
            quantize_into(cols.as_slice(), &mut qcols, act);
            for range in [0..oc, 0..oc / 2, oc / 2..oc, 1..oc] {
                let (rows, b) = (range.len(), &bias[range.clone()]);
                for relu in [false, true] {
                    let ep = if relu {
                        Epilogue::BiasRelu { bias: b }
                    } else {
                        Epilogue::Bias { bias: b }
                    };
                    let a = &w[range.start * taps..range.end * taps];
                    let mut want = vec![0.0f32; rows * n];
                    gemm_into_fused(a, cols.as_slice(), &mut want, rows, taps, n, ep);
                    for layer in [&conv, &prepacked] {
                        let got = compute(layer, &[&x], units(range.clone(), false, relu));
                        assert_eq!(got.unwrap(), want, "f32 {range:?}");
                    }
                    let rq = Requant {
                        w_scales: &qw.scales[range.clone()],
                        act,
                        row_sums: &qw.row_sums[range.clone()],
                        bias: Some(b),
                        relu,
                    };
                    let codes = &qw.q.as_slice()[range.start * taps..range.end * taps];
                    qgemm_requant_into(codes, &qcols, &mut want, rows, taps, n, &rq);
                    let got = compute(&conv, &[&x], units(range.clone(), true, relu));
                    assert_eq!(got.unwrap(), want, "int8 {range:?}");
                }
            }
            for range in [0..c, 0..c / 2, c / 2..c] {
                if range.is_empty() {
                    continue;
                }
                let (kk, part) = (k * k, range.len() * k * k);
                let plane = hw * hw;
                let slice = &x.as_slice()[range.start * plane..range.end * plane];
                let x_part = Tensor::from_vec(slice.to_vec(), &[range.len(), hw, hw]).unwrap();
                let g_part = Conv2dGeometry {
                    in_channels: range.len(),
                    ..g
                };
                let part_cols = im2col(&x_part, &g_part).unwrap();
                let w_part: Vec<f32> = (0..oc)
                    .flat_map(|o| &w[o * taps + range.start * kk..o * taps + range.end * kk])
                    .copied()
                    .collect();
                let mut want = vec![0.0f32; oc * n];
                gemm_into(&w_part, part_cols.as_slice(), &mut want, oc, part, n);
                if range.start == 0 {
                    for (chunk, &b) in want.chunks_mut(n).zip(bias) {
                        chunk.iter_mut().for_each(|v| *v += b);
                    }
                }
                let got = compute(&conv, &[&x], Part::Inputs(range.clone()));
                assert_eq!(got.unwrap(), want, "inputs {range:?}");
            }
        }
    }

    #[test]
    fn int8_partials_merge_bitwise() {
        // Requantization is per output row, so channel-range partials are
        // *bitwise* identical to the full pass — integer accumulation has
        // no order sensitivity and the dynamic activation parameters
        // derive from the same input either way.
        let conv = Conv2d::new("c", 3, 6, 3, 1, 1, 9);
        let x = input(3, 6, 1);
        let full = conv.forward_partial_int8(&[&x], 0..6, false).unwrap();
        for cut in 1..6 {
            let a = conv.forward_partial_int8(&[&x], 0..cut, false).unwrap();
            let b = conv.forward_partial_int8(&[&x], cut..6, false).unwrap();
            let merged = Tensor::concat_axis0(&[&a, &b]).unwrap();
            assert_eq!(merged.as_slice(), full.as_slice(), "cut {cut}");
        }
    }

    #[test]
    fn int8_tracks_the_f32_reference() {
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, 5);
        let x = input(3, 8, 6);
        let f = conv.forward(&[&x]).unwrap();
        let q = conv.forward_partial_int8(&[&x], 0..8, false).unwrap();
        assert!(
            q.approx_eq(&f, 0.05),
            "max diff {}",
            q.max_abs_diff(&f).unwrap()
        );
        assert!(conv.int8_ready());
    }

    #[test]
    fn int8_fused_relu_clamps_like_f32() {
        let conv = Conv2d::new("c", 2, 4, 3, 1, 0, 7);
        let x = input(2, 6, 8);
        let q = conv.forward_partial_int8(&[&x], 0..4, true).unwrap();
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        let f = compute(&conv, &[&x], units(0..4, false, true)).unwrap();
        assert!(q.approx_eq(&Tensor::from_vec(f, q.dims()).unwrap(), 0.05));
    }

    #[test]
    fn fused_epilogue_is_bitwise_identical_to_separate_bias() {
        // The epilogue computes `acc + bias` exactly like the historical
        // separate bias loop did; fusing must not change a single bit.
        let conv = Conv2d::new("c", 3, 7, 3, 1, 1, 11);
        let x = input(3, 6, 12);
        let plain = compute(&conv, &[&x], units(0..7, false, false)).unwrap();
        let mut manual = compute(&conv, &[&x], units(0..7, false, true)).unwrap();
        // Un-clamp: wherever the fused output is positive it must equal
        // the plain output bitwise.
        for (m, p) in manual.iter_mut().zip(&plain) {
            if *m > 0.0 {
                assert_eq!(*m, *p);
                *m = *p;
            } else {
                assert!(*p <= 0.0, "fused relu zeroed a positive value");
            }
        }
    }

    #[test]
    fn stamped_activation_params_override_dynamic() {
        let conv = Conv2d::new("c", 2, 3, 3, 1, 1, 13);
        let x = input(2, 5, 14);
        let dynamic = conv.forward_partial_int8(&[&x], 0..3, false).unwrap();
        // Stamp a much wider range: coarser codes, different output.
        assert!(conv.stamp_activation(QuantParams::from_min_max(-64.0, 64.0)));
        assert!(!conv.stamp_activation(QuantParams::from_min_max(-1.0, 1.0)));
        let stamped = conv.forward_partial_int8(&[&x], 0..3, false).unwrap();
        assert_ne!(dynamic.as_slice(), stamped.as_slice());
    }

    #[test]
    fn workload_counts_macs() {
        let conv = Conv2d::new("c", 3, 4, 3, 1, 1, 0);
        let w = conv.workload(&[&Shape::new(&[3, 8, 8])]).unwrap();
        // out elems = 4*8*8 = 256; taps = 27; flops = 2*256*27.
        assert_eq!(w.flops, 2 * 256 * 27);
        assert_eq!(w.input_bytes, 3 * 8 * 8 * 4);
        assert_eq!(w.output_bytes, 256 * 4);
        assert_eq!(w.weight_bytes, (4 * 27 + 4) * 4);
    }

    #[test]
    fn workload_partial_scales_with_channels() {
        let conv = Conv2d::new("c", 3, 4, 3, 1, 1, 0);
        let shape = Shape::new(&[3, 8, 8]);
        let full = conv.workload(&[&shape]).unwrap();
        let half = conv.workload_partial(&[&shape], 0..2).unwrap();
        assert_eq!(half.flops, full.flops / 2);
        assert_eq!(half.input_bytes, full.input_bytes);
    }
}
