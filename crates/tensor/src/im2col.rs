//! Convolution lowering: implicit GEMM over a padded feature map.
//!
//! A convolution over a CHW feature map is a GEMM between the weight
//! matrix `(out_channels, in_channels * kh * kw)` and the patch matrix
//! `(in_channels * kh * kw, out_h * out_w)`. This is the lowering the
//! paper's CUDA kernels use; reproducing it keeps the FLOP counts the
//! simulator models aligned with what the functional engine executes.
//!
//! The engine never materializes the patch matrix. [`conv_gemm_into`] and
//! [`conv_qgemm_into`] copy the input once into a padded map — a zero
//! border for f32; for int8 the quantized codes with a zero-point border,
//! one pair word per channel pair — and gather the GEMM's packed B panels
//! straight from that map, so each patch element is written once, into
//! the layout the microkernel reads. [`im2col`] still builds the explicit
//! matrix as the tests' oracle.

use std::ops::Range;

use crate::gemm::{Epilogue, Phases};
use crate::quant::{pair_word, quantize_code, QuantParams, Requant, MR, NR};
use crate::scratch::{with_scratch, with_scratch_i32};
use crate::{Result, Tensor, TensorError};

/// Static geometry of a 2-D convolution (or pooling) window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along height.
    pub stride_h: usize,
    /// Stride along width.
    pub stride_w: usize,
    /// Zero padding along height (both sides).
    pub pad_h: usize,
    /// Zero padding along width (both sides).
    pub pad_w: usize,
}

impl Conv2dGeometry {
    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad_h - self.kernel_h) / self.stride_h + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad_w - self.kernel_w) / self.stride_w + 1
    }

    /// Validates that the window fits the padded input and strides are nonzero.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidConvGeometry`] with a description of
    /// the first inconsistency found.
    pub fn validate(&self) -> Result<()> {
        if self.stride_h == 0 || self.stride_w == 0 {
            return Err(TensorError::InvalidConvGeometry {
                reason: "stride must be nonzero".to_string(),
            });
        }
        if self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidConvGeometry {
                reason: "kernel must be nonzero".to_string(),
            });
        }
        if self.in_h + 2 * self.pad_h < self.kernel_h || self.in_w + 2 * self.pad_w < self.kernel_w
        {
            return Err(TensorError::InvalidConvGeometry {
                reason: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    self.kernel_h,
                    self.kernel_w,
                    self.in_h + 2 * self.pad_h,
                    self.in_w + 2 * self.pad_w
                ),
            });
        }
        Ok(())
    }
}

/// Shape of the feature map a convolution with `geometry` and
/// `out_channels` produces: `[out_channels, out_h, out_w]`.
pub fn col2im_shape(geometry: &Conv2dGeometry, out_channels: usize) -> [usize; 3] {
    [out_channels, geometry.out_h(), geometry.out_w()]
}

/// Unfolds a CHW input into the explicit im2col patch matrix
/// `(in_channels * kernel_h * kernel_w, out_h * out_w)`; padding taps
/// contribute zeros. No engine path builds this matrix — the conv kernels
/// gather their GEMM panels straight from a padded map — so it stays as
/// the reference the implicit-GEMM lowering is tested against.
///
/// # Errors
/// Returns geometry validation errors and
/// [`TensorError::ShapeMismatch`] when `input` does not match the declared
/// input dimensions.
pub fn im2col(input: &Tensor, geometry: &Conv2dGeometry) -> Result<Tensor> {
    geometry.validate()?;
    let expected = [geometry.in_channels, geometry.in_h, geometry.in_w];
    if input.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.to_vec(),
            right: input.dims().to_vec(),
        });
    }
    let (out_h, out_w) = (geometry.out_h(), geometry.out_w());
    let patch = geometry.in_channels * geometry.kernel_h * geometry.kernel_w;
    let cols = out_h * out_w;
    let mut data = vec![0.0f32; patch * cols];
    let src = input.as_slice();
    let plane = geometry.in_h * geometry.in_w;
    let mut row = 0usize;
    for c in 0..geometry.in_channels {
        for kh in 0..geometry.kernel_h {
            for kw in 0..geometry.kernel_w {
                let dst_row = &mut data[row * cols..(row + 1) * cols];
                for oy in 0..out_h {
                    let iy = (oy * geometry.stride_h + kh) as isize - geometry.pad_h as isize;
                    if iy < 0 || iy >= geometry.in_h as isize {
                        continue;
                    }
                    let base = c * plane + iy as usize * geometry.in_w;
                    for ox in 0..out_w {
                        let ix = (ox * geometry.stride_w + kw) as isize - geometry.pad_w as isize;
                        if ix >= 0 && ix < geometry.in_w as isize {
                            dst_row[oy * out_w + ox] = src[base + ix as usize];
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Tensor::from_vec(data, &[patch, cols])
}

impl Conv2dGeometry {
    /// Height and width of the padded map.
    fn padded_hw(&self) -> (usize, usize) {
        (self.in_h + 2 * self.pad_h, self.in_w + 2 * self.pad_w)
    }

    /// The same window over the int8 conv's pair map: one plane per
    /// channel pair (an odd count rounds up).
    fn pairs(&self) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels.div_ceil(2),
            ..*self
        }
    }

    /// Elements of the padded map: one per channel and padded position.
    fn map_len(&self) -> usize {
        let (ph, pw) = self.padded_hw();
        self.in_channels * ph * pw
    }

    /// Reduction depth of the patch matrix: channels times taps.
    fn depth(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Elements of the full-depth B panels gathered from the padded map.
    fn panel_len(&self) -> usize {
        let cols = self.out_h() * self.out_w();
        cols.div_ceil(NR) * NR * self.depth()
    }

    fn check_input(&self, input: &[f32]) -> Result<()> {
        self.validate()?;
        if self.in_channels == 0 {
            return Err(TensorError::InvalidConvGeometry {
                reason: "no input channels".to_string(),
            });
        }
        if input.len() != self.in_channels * self.in_h * self.in_w {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.in_channels, self.in_h, self.in_w],
                right: vec![input.len()],
            });
        }
        Ok(())
    }
}

/// Scratch-arena floats [`conv_gemm_into`] acquires for `geometry`: the
/// zero-bordered map (none without padding) plus the full-depth B panels.
#[must_use]
pub fn conv_gemm_scratch_elems(geometry: &Conv2dGeometry) -> usize {
    let map = if geometry.pad_h == 0 && geometry.pad_w == 0 {
        0
    } else {
        geometry.map_len()
    };
    map + geometry.panel_len()
}

/// Scratch-arena i32 elements [`conv_qgemm_into`] acquires for
/// `geometry`: the quantized pair map plus the B panels, one pair word
/// per position and per column and reduction pair respectively.
#[must_use]
pub fn conv_qgemm_scratch_elems(geometry: &Conv2dGeometry) -> usize {
    let pairs = geometry.pairs();
    pairs.map_len() + pairs.panel_len()
}

/// Convolution as an implicit GEMM: `out = ep(out + a · P)`, where `P` is
/// the [`im2col`] patch matrix of `input` (never materialized) and `a`
/// holds the `m = out.len() / (out_h * out_w)` weight rows of stride
/// `in_channels * kernel_h * kernel_w` — plain row-major, or the padded
/// layout of [`crate::gemm_pack_a`] sliced at a row offset.
///
/// The input is copied once into a zero-bordered map (used as is without
/// padding), a gather writes the GEMM's full-depth `NR`-column B panels
/// straight from that map, and the blocked microkernel sweeps them in
/// `KC`-deep slabs. For a zeroed `out` the result is bitwise identical to
/// [`im2col`] followed by [`crate::gemm_into_fused`]: both run the same
/// sweep over the same panel contents.
///
/// # Errors
/// Returns geometry validation errors and [`TensorError::ShapeMismatch`]
/// when `input`, `a` or `out` do not fit the geometry.
pub fn conv_gemm_into(
    input: &[f32],
    geometry: &Conv2dGeometry,
    a: &[f32],
    out: &mut [f32],
    ep: Epilogue<'_>,
) -> Result<()> {
    geometry.check_input(input)?;
    let cols = geometry.out_h() * geometry.out_w();
    let m = out_rows(out.len(), cols)?;
    let k = geometry.depth();
    if a.len() < m * k {
        return Err(TensorError::ShapeMismatch {
            left: vec![m, k],
            right: vec![a.len()],
        });
    }
    let phases = Phases::start();
    let panels = geometry.panel_len();
    let mut sweep = |map: &[f32]| {
        with_scratch(panels, |packed| {
            crate::simd::gather_panels_dispatch(map, geometry, packed);
            let phases = phases.packed();
            crate::simd::gemm_sweep_dispatch(a, packed, out, m, k, cols, ep);
            phases.finish((panels * 4) as u64);
        });
    };
    if geometry.pad_h == 0 && geometry.pad_w == 0 {
        sweep(input);
    } else {
        with_scratch(geometry.map_len(), |map| {
            pad_map(input, geometry, map);
            sweep(map);
        });
    }
    Ok(())
}

/// Int8 convolution as an implicit GEMM with fused requantization:
/// `out = rq(a · Q)`, where `Q` is the patch matrix of `input` quantized
/// under `rq.act` and `awide` is [`crate::qgemm_pack_a`]'s layout of the
/// weight codes with `taps = kernel_h * kernel_w`. `rows` selects the
/// output channels; `out` holds `rows.len()` output rows and is
/// overwritten.
///
/// The input is quantized once into a map filled with the activation
/// zero-point (so padding dequantizes to exactly `0.0`) that holds one
/// pair word per channel pair and position, a gather writes the
/// microtile's B panels straight from it — the same 32-bit copy as the
/// f32 gather — and the microtile sweep requantizes from the register
/// accumulators. Integer sums are exact, so the result is bitwise
/// identical to quantizing [`im2col`]'s matrix and running
/// [`crate::qgemm_requant_into`]: the channel-pair reduction order
/// changes nothing.
///
/// # Errors
/// Returns geometry validation errors and [`TensorError::ShapeMismatch`]
/// when `input`, `awide` or `out` do not fit the geometry and `rows`.
pub fn conv_qgemm_into(
    input: &[f32],
    geometry: &Conv2dGeometry,
    awide: &[i32],
    rows: Range<usize>,
    out: &mut [f32],
    rq: &Requant<'_>,
) -> Result<()> {
    geometry.check_input(input)?;
    let pairs = geometry.pairs();
    let cols = geometry.out_h() * geometry.out_w();
    let stride = pairs.depth();
    let m = out_rows(out.len(), cols)?;
    if m != rows.len() || awide.len() < (rows.start + m.div_ceil(MR) * MR) * stride {
        return Err(TensorError::ShapeMismatch {
            left: vec![rows.end, stride],
            right: vec![awide.len(), out.len()],
        });
    }
    let awide = &awide[rows.start * stride..];
    let phases = Phases::start();
    let panels = pairs.panel_len();
    with_scratch_i32(pairs.map_len(), |map| {
        crate::simd::quantize_pad_pairs_dispatch(input, geometry, rq.act, map);
        with_scratch_i32(panels, |packed| {
            crate::simd::gather_panels_dispatch(map, &pairs, packed);
            let phases = phases.packed();
            crate::simd::qgemm_sweep_dispatch(awide, packed, out, m, stride, cols, rq);
            phases.finish((panels * 4) as u64);
        });
    });
    Ok(())
}

/// Output rows of an `(m, cols)` result buffer of `len` elements.
fn out_rows(len: usize, cols: usize) -> Result<usize> {
    if cols == 0 || !len.is_multiple_of(cols) {
        return Err(TensorError::ShapeMismatch {
            left: vec![cols],
            right: vec![len],
        });
    }
    Ok(len / cols)
}

/// Copies the CHW `input` into the interior of `map`, a zeroed
/// `(C, in_h + 2*pad_h, in_w + 2*pad_w)` buffer, leaving the border zero.
fn pad_map(input: &[f32], g: &Conv2dGeometry, map: &mut [f32]) {
    if input.is_empty() {
        return; // an empty input leaves the map all padding
    }
    let (ph, pw) = g.padded_hw();
    let planes = input.chunks_exact(g.in_h * g.in_w);
    for (src, dst) in planes.zip(map.chunks_exact_mut(ph * pw)) {
        let rows = dst[g.pad_h * pw..].chunks_exact_mut(pw);
        for (src_row, dst_row) in src.chunks_exact(g.in_w).zip(rows) {
            dst_row[g.pad_w..g.pad_w + g.in_w].copy_from_slice(src_row);
        }
    }
}

/// Quantizes the CHW `input` under `p` into `map`, the padded pair map:
/// plane `c / 2` holds one [`crate::quant::pair_word`] per padded
/// position, channel `c` in its low half when `c` is even. Every other
/// code — the border and, for an odd channel count, the missing last
/// channel — is the zero-point, which dequantizes to exactly `0.0` (the
/// missing channel's weights are zero besides). Rounds exactly like
/// [`crate::quantize_into`].
#[inline(always)]
pub(crate) fn quantize_pad_pairs(
    input: &[f32],
    g: &Conv2dGeometry,
    p: QuantParams,
    map: &mut [i32],
) {
    let (ph, pw) = g.padded_hw();
    let (inv, zp) = (1.0 / p.scale, p.zero_point as f32);
    let q = |v: f32| quantize_code(v, inv, zp);
    let zero = p.zero_point as i8;
    map.fill(pair_word(zero, zero));
    let plane = g.in_h * g.in_w;
    for (pair, dst) in map.chunks_exact_mut(ph * pw).enumerate() {
        let lo = &input[2 * pair * plane..(2 * pair + 1) * plane];
        let hi = input.get((2 * pair + 1) * plane..(2 * pair + 2) * plane);
        let rows = dst[g.pad_h * pw..].chunks_exact_mut(pw);
        for (iy, dst_row) in rows.take(g.in_h).enumerate() {
            let interior = &mut dst_row[g.pad_w..g.pad_w + g.in_w];
            let lo_row = &lo[iy * g.in_w..(iy + 1) * g.in_w];
            if let Some(hi) = hi {
                let hi_row = &hi[iy * g.in_w..(iy + 1) * g.in_w];
                for (d, (&l, &h)) in interior.iter_mut().zip(lo_row.iter().zip(hi_row)) {
                    *d = pair_word(q(l), q(h));
                }
            } else {
                for (d, &l) in interior.iter_mut().zip(lo_row) {
                    *d = pair_word(q(l), zero);
                }
            }
        }
    }
}

/// Map offsets (in positions) of the window origins of output columns
/// `j0..j0 + NR`, and how many of those columns exist (the last panel
/// may be ragged).
#[inline(always)]
fn lane_offsets(g: &Conv2dGeometry, pw: usize, j0: usize, cols: usize) -> ([usize; NR], usize) {
    let out_w = g.out_w();
    let lanes = NR.min(cols - j0);
    let mut off = [0usize; NR];
    let (mut oy, mut ox) = (j0 / out_w, j0 % out_w);
    for o in &mut off[..lanes] {
        *o = oy * g.stride_h * pw + ox * g.stride_w;
        ox += 1;
        if ox == out_w {
            ox = 0;
            oy += 1;
        }
    }
    (off, lanes)
}

/// Gathers the full-depth B panels of a convolution's patch matrix
/// straight from its padded map ([`pad_map`]'s f32 map, or
/// [`quantize_pad_pairs`]'s pair map with `g` counting channel pairs).
///
/// Panel `p` covers output columns `p*NR..p*NR + NR` and stores one row
/// of `NR` elements per (channel, kernel row, kernel column), in that
/// order: lane `l` holds the map value at the tap's position in column
/// `l`'s window. Over the f32 map that is [`crate::gemm`]'s panel layout;
/// over the pair map it is the int8 microtile's, each pair word two
/// channels at one tap. Every element is written — lanes past the last
/// column as zero — so `panels` needs no pre-fill.
///
/// Each panel's lane offsets are computed once. When the panel's columns
/// are `NR` consecutive map positions (stride 1 within one output row,
/// or a 1x1 unpadded conv), every row is one contiguous copy; otherwise
/// the row is read through the lane offsets.
#[inline(always)]
pub(crate) fn gather_panels<T: Copy + Default>(map: &[T], g: &Conv2dGeometry, panels: &mut [T]) {
    let (ph, pw) = g.padded_hw();
    let cols = g.out_h() * g.out_w();
    for (p, panel) in panels.chunks_exact_mut(NR * g.depth()).enumerate() {
        let (off, lanes) = lane_offsets(g, pw, p * NR, cols);
        let contiguous = lanes == NR && off[NR - 1] == off[0] + NR - 1;
        let mut rows = panel.chunks_exact_mut(NR);
        for c in 0..g.in_channels {
            for kh in 0..g.kernel_h {
                let tap_row = c * ph * pw + kh * pw;
                for (kw, dst) in (0..g.kernel_w).zip(rows.by_ref()) {
                    let base = tap_row + kw;
                    if contiguous {
                        dst.copy_from_slice(&map[base + off[0]..base + off[0] + NR]);
                    } else {
                        for (d, &o) in dst.iter_mut().zip(&off[..lanes]) {
                            *d = map[base + o];
                        }
                        dst[lanes..].fill(T::default());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel_h: k,
            kernel_w: k,
            stride_h: s,
            stride_w: s,
            pad_h: p,
            pad_w: p,
        }
    }

    #[test]
    fn output_dims_match_formula() {
        let g = geo(3, 224, 224, 11, 4, 2);
        assert_eq!(g.out_h(), 55);
        assert_eq!(g.out_w(), 55);
        let g = geo(1, 28, 28, 5, 1, 2);
        assert_eq!(g.out_h(), 28);
    }

    #[test]
    fn validate_catches_degenerate_geometry() {
        assert!(geo(1, 4, 4, 3, 1, 0).validate().is_ok());
        assert!(matches!(
            geo(1, 4, 4, 3, 0, 0).validate(),
            Err(TensorError::InvalidConvGeometry { .. })
        ));
        assert!(matches!(
            geo(1, 2, 2, 5, 1, 0).validate(),
            Err(TensorError::InvalidConvGeometry { .. })
        ));
        assert!(matches!(
            Conv2dGeometry {
                kernel_h: 0,
                ..geo(1, 4, 4, 3, 1, 0)
            }
            .validate(),
            Err(TensorError::InvalidConvGeometry { .. })
        ));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshape.
        let input = Tensor::arange(&[2, 3, 3]);
        let g = geo(2, 3, 3, 1, 1, 0);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_hand_checked_3x3_input_2x2_kernel() {
        // input (1 channel):
        // 0 1 2
        // 3 4 5
        // 6 7 8
        let input = Tensor::arange(&[1, 3, 3]);
        let g = geo(1, 3, 3, 2, 1, 0);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // rows are kernel taps (kh,kw), columns are output positions.
        assert_eq!(
            cols.as_slice(),
            &[
                0.0, 1.0, 3.0, 4.0, // tap (0,0)
                1.0, 2.0, 4.0, 5.0, // tap (0,1)
                3.0, 4.0, 6.0, 7.0, // tap (1,0)
                4.0, 5.0, 7.0, 8.0, // tap (1,1)
            ]
        );
    }

    #[test]
    fn im2col_padding_contributes_zeros() {
        let input = Tensor::ones(&[1, 2, 2]);
        let g = geo(1, 2, 2, 3, 1, 1);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Corner tap (0,0) sees padding everywhere except output (1,1).
        assert_eq!(&cols.as_slice()[0..4], &[0.0, 0.0, 0.0, 1.0]);
        // Center tap (1,1) always lands in-bounds.
        assert_eq!(&cols.as_slice()[16..20], &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn im2col_rejects_wrong_input_shape() {
        let input = Tensor::zeros(&[2, 3, 3]);
        let g = geo(1, 3, 3, 2, 1, 0);
        assert!(matches!(
            im2col(&input, &g),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn col2im_shape_matches_geometry() {
        let g = geo(3, 8, 8, 3, 1, 1);
        assert_eq!(col2im_shape(&g, 16), [16, 8, 8]);
    }

    /// Geometries covering kernel 1-5, stride 1-3, pad 0-2 and 1-9
    /// channels (odd counts included), with output widths below, equal
    /// to and above `NR` — the last panel is ragged whenever `out_h *
    /// out_w` is not a multiple of `NR`, and the patch depth is odd with
    /// odd channels and odd kernels — plus an empty input whose every
    /// tap is padding.
    fn geometry_grid() -> Vec<Conv2dGeometry> {
        let mut grid = vec![geo(3, 0, 0, 3, 1, 2)];
        for k in 1..=5 {
            for s in 1..=3 {
                for p in 0..=2 {
                    for (c, out_w) in [(1, 5), (2, NR), (3, 21), (4, 7), (9, NR)] {
                        let in_w = ((out_w - 1) * s + k).saturating_sub(2 * p).max(1);
                        let g = Conv2dGeometry {
                            in_channels: c,
                            in_h: 3 + k,
                            in_w,
                            kernel_h: k,
                            kernel_w: k,
                            stride_h: s,
                            stride_w: s,
                            pad_h: p,
                            pad_w: p,
                        };
                        if g.validate().is_ok() {
                            grid.push(g);
                        }
                    }
                }
            }
        }
        grid
    }

    fn input_for(g: &Conv2dGeometry, seed: u64) -> Tensor {
        Tensor::random(&[g.in_channels, g.in_h, g.in_w], 1.0, seed)
    }

    /// The f32 panel layout built the slow way from [`im2col`]: lane `l`
    /// of panel `p`, row `r` is patch element `(r, p*NR + l)`, zero past
    /// the last column.
    fn reference_panels(cols: &Tensor) -> Vec<f32> {
        let (depth, n) = (cols.dims()[0], cols.dims()[1]);
        let mut panels = vec![0.0; n.div_ceil(NR) * NR * depth];
        for r in 0..depth {
            for j in 0..n {
                panels[(j / NR) * NR * depth + r * NR + j % NR] = cols.as_slice()[r * n + j];
            }
        }
        panels
    }

    /// The int8 pair-word panels built the slow way: quantize the
    /// [`im2col`] matrix (padding `0.0` quantizes to the zero-point),
    /// then pair channels `2q` and `2q+1` at each tap, the missing
    /// channel of an odd count quantizing as `0.0` too.
    fn reference_pair_panels(g: &Conv2dGeometry, cols: &Tensor, p: QuantParams) -> Vec<i32> {
        let n = cols.dims()[1];
        let mut codes = vec![0i8; cols.len()];
        crate::quantize_into(cols.as_slice(), &mut codes, p);
        let taps = g.kernel_h * g.kernel_w;
        let pairs = g.in_channels.div_ceil(2);
        let depth = pairs * taps;
        let zero = p.zero_point as i8;
        let code = |c: usize, t: usize, j: usize| {
            if c < g.in_channels {
                codes[(c * taps + t) * n + j]
            } else {
                zero
            }
        };
        let mut panels = vec![0i32; n.div_ceil(NR) * NR * depth];
        for q in 0..pairs {
            for t in 0..taps {
                for j in 0..n {
                    panels[(j / NR) * NR * depth + (q * taps + t) * NR + j % NR] =
                        pair_word(code(2 * q, t, j), code(2 * q + 1, t, j));
                }
            }
        }
        panels
    }

    fn act_params(x: &Tensor) -> QuantParams {
        let (lo, hi) = crate::min_max(x.as_slice());
        QuantParams::from_min_max(lo, hi)
    }

    /// The f32 map [`conv_gemm_into`] gathers from.
    fn f32_map(x: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
        let mut map = vec![0.0; g.map_len()];
        pad_map(x.as_slice(), g, &mut map);
        map
    }

    #[test]
    fn panel_gathers_match_im2col_in_the_reference_layout() {
        let mut widths = [false; 3];
        for (i, g) in geometry_grid().iter().enumerate() {
            let x = input_for(g, i as u64);
            let cols = im2col(&x, g).unwrap();
            let ow = g.out_w();
            widths[usize::from(ow >= NR) + usize::from(ow > NR)] = true;

            // Poisoned destinations: the gathers owe every element,
            // ragged lanes included.
            let mut got = vec![f32::NAN; g.panel_len()];
            gather_panels(&f32_map(&x, g), g, &mut got);
            let want = reference_panels(&cols);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "f32 {g:?}"
            );

            let p = act_params(&x);
            let pairs = g.pairs();
            let mut map = vec![0x5A5A_5A5A; pairs.map_len()];
            quantize_pad_pairs(x.as_slice(), g, p, &mut map);
            let mut got = vec![0x5A5A_5A5A; pairs.panel_len()];
            gather_panels(&map, &pairs, &mut got);
            assert_eq!(got, reference_pair_panels(g, &cols, p), "int8 {g:?}");
        }
        assert_eq!(
            widths, [true; 3],
            "grid must cover out_w below, at and above NR"
        );
    }

    /// `m` weight rows for `g`, with biases.
    fn weights(g: &Conv2dGeometry, m: usize) -> (Tensor, Vec<f32>) {
        let w = Tensor::random(&[m, g.depth()], 0.5, 77);
        let bias = (0..m).map(|i| i as f32 * 0.1 - 0.2).collect();
        (w, bias)
    }

    #[test]
    fn conv_gemm_matches_im2col_plus_gemm_bitwise() {
        // Padded and prepacked A, every row range shape the engine
        // slices: full, off the MR grid, and a single row.
        for (i, g) in geometry_grid().iter().enumerate().step_by(7) {
            let m = 6;
            let x = input_for(g, i as u64);
            let (w, bias) = weights(g, m);
            let (k, n) = (g.depth(), g.out_h() * g.out_w());
            let cols = im2col(&x, g).unwrap();
            let packed = crate::gemm_pack_a(w.as_slice(), m, k);
            for rows in [0..m, 1..5, 5..6] {
                let ep = Epilogue::BiasRelu {
                    bias: &bias[rows.clone()],
                };
                let a = &w.as_slice()[rows.start * k..rows.end * k];
                let mut want = vec![0.0; rows.len() * n];
                crate::gemm_into_fused(a, cols.as_slice(), &mut want, rows.len(), k, n, ep);
                for a in [a, &packed[rows.start * k..]] {
                    let mut got = vec![0.0; rows.len() * n];
                    conv_gemm_into(x.as_slice(), g, a, &mut got, ep).unwrap();
                    assert_eq!(got, want, "{g:?} rows {rows:?}");
                }
            }
        }
    }

    #[test]
    fn conv_qgemm_matches_im2col_plus_qgemm_bitwise() {
        for (i, g) in geometry_grid().iter().enumerate().step_by(7) {
            let m = 6;
            let x = input_for(g, i as u64);
            let (w, bias) = weights(g, m);
            let (k, n) = (g.depth(), g.out_h() * g.out_w());
            let qw = crate::QTensor::quantize_per_channel(&w).unwrap();
            let crate::Quantization::PerChannel(params) = qw.quant() else {
                unreachable!("per-channel weights")
            };
            let scales: Vec<f32> = params.iter().map(|p| p.scale).collect();
            let sums = crate::row_sums(qw.as_slice(), m, k);
            let awide = crate::qgemm_pack_a(qw.as_slice(), m, k, g.kernel_h * g.kernel_w);
            let act = act_params(&x);
            let cols = im2col(&x, g).unwrap();
            let mut qcols = vec![0i8; cols.len()];
            crate::quantize_into(cols.as_slice(), &mut qcols, act);
            for rows in [0..m, 1..5, 5..6] {
                let rq = Requant {
                    w_scales: &scales[rows.clone()],
                    act,
                    row_sums: &sums[rows.clone()],
                    bias: Some(&bias[rows.clone()]),
                    relu: rows.start == 1,
                };
                let a = &qw.as_slice()[rows.start * k..rows.end * k];
                let mut want = vec![0.0; rows.len() * n];
                crate::qgemm_requant_into(a, &qcols, &mut want, rows.len(), k, n, &rq);
                let mut got = vec![f32::NAN; rows.len() * n];
                conv_qgemm_into(x.as_slice(), g, &awide, rows.clone(), &mut got, &rq).unwrap();
                assert_eq!(got, want, "{g:?} rows {rows:?}");
            }
        }
    }

    #[test]
    fn conv_kernels_reject_mismatched_buffers() {
        let g = geo(2, 5, 5, 3, 1, 1);
        let x = vec![0.0f32; 2 * 5 * 5];
        let a = vec![0.0f32; 3 * 18];
        let mut out = vec![0.0f32; 3 * 25];
        assert!(conv_gemm_into(&x, &g, &a, &mut out, Epilogue::None).is_ok());
        for (x, a, out_len) in [
            (&x[1..], &a[..], 75),
            (&x[..], &a[..53], 75),
            (&x[..], &a[..], 74),
        ] {
            let mut out = vec![0.0f32; out_len];
            assert!(matches!(
                conv_gemm_into(x, &g, a, &mut out, Epilogue::None),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
        let empty = Conv2dGeometry {
            in_channels: 0,
            ..g
        };
        assert!(matches!(
            conv_gemm_into(&[], &empty, &a, &mut out, Epilogue::None),
            Err(TensorError::InvalidConvGeometry { .. })
        ));

        let rq = Requant {
            w_scales: &[1.0; 3],
            act: QuantParams::from_min_max(-1.0, 1.0),
            row_sums: &[0; 3],
            bias: None,
            relu: false,
        };
        let awide = vec![0i32; (4 + 4) * 9];
        assert!(conv_qgemm_into(&x, &g, &awide, 0..3, &mut out, &rq).is_ok());
        // Too few packed rows for the range, and a range that does not
        // match the output rows.
        assert!(conv_qgemm_into(&x, &g, &awide[..4 * 9], 1..4, &mut out, &rq).is_err());
        assert!(conv_qgemm_into(&x, &g, &awide, 0..2, &mut out, &rq).is_err());
    }

    #[test]
    fn scratch_sizes_cover_what_the_kernels_acquire() {
        // The arena counters see exactly these lengths (the f32 map only
        // with padding).
        let g = geo(3, 6, 6, 3, 1, 1);
        let cols = g.out_h() * g.out_w();
        let panels = cols.div_ceil(NR) * NR;
        assert_eq!(conv_gemm_scratch_elems(&g), 3 * 8 * 8 + panels * 27);
        assert_eq!(conv_qgemm_scratch_elems(&g), 2 * 8 * 8 + panels * 2 * 9);
        let unpadded = geo(3, 6, 6, 1, 1, 0);
        assert_eq!(conv_gemm_scratch_elems(&unpadded), 48 * 3);
    }
}
