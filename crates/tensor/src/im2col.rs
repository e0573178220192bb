//! Convolution lowering: implicit GEMM over a padded feature map; and
//! windowed pooling.
//!
//! A convolution over a CHW feature map is a GEMM between the weight
//! matrix `(out_channels, in_channels * kh * kw)` and the patch matrix
//! `(in_channels * kh * kw, out_h * out_w)`. This is the lowering the
//! paper's CUDA kernels use; reproducing it keeps the FLOP counts the
//! simulator models aligned with what the functional engine executes.
//!
//! The engine never materializes the patch matrix, nor copies any of it
//! into GEMM panels. [`conv_gemm_into`] and [`conv_qgemm_into`] copy the
//! input once into a padded map — a zero border for f32; for int8 the
//! quantized codes with a zero-point border, one pair word per channel
//! pair — laid out so that the microkernel reads every patch-matrix row
//! in place: the map is split by stride phase. Phase plane `(py, px)` of
//! a channel holds padded rows `py, py + stride_h, …` and columns `px,
//! px + stride_w, …`, all planes `qh x qw`, and the map ends in `NR`
//! elements of read slack. Kernel tap `(kh, kw)` of output `(oy, ox)`
//! then sits in plane `(kh % stride_h, kw % stride_w)` at row `oy +
//! kh / stride_h`, column `ox + kw / stride_w`: over the grid columns
//! `j = oy * qw + ox`, each tap's row is the map from one fixed offset,
//! so any 16 consecutive columns are one contiguous run. The sweeps place
//! their 16-column panels on that grid — flat, or from each output row's
//! start when that takes no more panels — and the write-back drops the
//! columns with `ox >= out_w` ([`crate::gemm`]'s `Grid`). An unpadded
//! stride-1 conv's map is its input, which the f32 kernel reads in
//! place. [`im2col`] still builds the explicit matrix as the tests'
//! oracle.
//!
//! [`pool_into`] pools a CHW input under the same geometry without any
//! map: it reads each window's stride-spaced input runs in place and
//! folds them across up to 16 output columns in registers.

use std::ops::Range;

use crate::gemm::{fill_taps, tap, ARows, Epilogue, Grid, Phases};
use crate::quant::{pair_word, quantize_code, QuantParams, Requant, MAX_DEPTH, MR, NR};
use crate::scratch::with_scratch;
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
/// read its rows straight from a padded map — so it stays as the
/// reference the implicit-GEMM lowering is tested against.
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

    /// Height and width of each stride-phase plane: the longest phase's
    /// share of the padded rows and columns.
    fn phase_hw(&self) -> (usize, usize) {
        let (ph, pw) = self.padded_hw();
        (ph.div_ceil(self.stride_h), pw.div_ceil(self.stride_w))
    }

    /// Elements of one channel's phase planes.
    fn block(&self) -> usize {
        self.stride_h * self.stride_w * self.phase_plane()
    }

    /// The same window over the int8 conv's pair map: one block per
    /// channel pair (an odd count rounds up).
    pub(crate) fn pairs(&self) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels.div_ceil(2),
            ..*self
        }
    }

    /// Elements of the phase-split map: every channel's block, then `NR`
    /// of read slack for the last panel's dropped columns.
    pub(crate) fn map_len(&self) -> usize {
        self.in_channels * self.block() + NR
    }

    /// Reduction depth of the patch matrix: channels times taps.
    fn depth(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// The sweep's grid over the map: one row of `qw` grid columns per
    /// output row, of which the first `out_w` are outputs.
    fn grid(&self) -> Grid {
        Grid::new(self.out_h(), self.phase_hw().1, self.out_w())
    }

    /// The grid over the input itself, when an f32 conv can read it in
    /// place: unpadded, stride 1 (the map would be the input) and at
    /// least one panel wide (the last panel's reads end on the input's
    /// last element instead of in slack).
    fn in_place_grid(&self) -> Option<Grid> {
        let plain = self.pad_h == 0 && self.pad_w == 0 && self.stride_h == 1 && self.stride_w == 1;
        if plain {
            Grid::flush(self.out_h(), self.in_w, self.out_w())
        } else {
            None
        }
    }

    /// Offset, within a channel's block, of padded position `(y, x)`:
    /// phase plane `(y % stride_h, x % stride_w)`, phase row `y /
    /// stride_h`, phase column `x / stride_w`.
    fn phase_at(&self, y: usize, x: usize) -> usize {
        let (qh, qw) = self.phase_hw();
        let (sh, sw) = (self.stride_h, self.stride_w);
        ((y % sh) * sw + x % sw) * qh * qw + y / sh * qw + x / sw
    }

    /// Elements of one phase plane.
    fn phase_plane(&self) -> usize {
        let (qh, qw) = self.phase_hw();
        qh * qw
    }

    /// [`Self::phase_at`] of every input row's padded column 0, top to
    /// bottom: the row phases are stepped through, so no row divides by
    /// the stride.
    fn phase_rows(&self) -> impl Iterator<Item = usize> + Clone {
        let (qw, sh) = (self.phase_hw().1, self.stride_h);
        let phase_step = self.stride_w * self.phase_plane();
        let (mut phase, mut row) = (self.pad_h % sh, self.pad_h / sh);
        (0..self.in_h).map(move |_| {
            let at = phase * phase_step + row * qw;
            phase += 1;
            if phase == sh {
                (phase, row) = (0, row + 1);
            }
            at
        })
    }

    /// The map offset of every patch-matrix row, `(channel, kh, kw)` in
    /// that order: tap `(kh, kw)` of the window at grid column 0.
    fn fill_taps(&self, taps: &mut [i32]) {
        let kw_n = self.kernel_w;
        let (window, block) = (self.kernel_h * kw_n, self.block());
        let (first, rest) = taps.split_at_mut(window);
        fill_taps(
            first,
            (0..window).map(|i| self.phase_at(i / kw_n, i % kw_n)),
        );
        // Every later channel's window is the first one, a block further.
        for (c, chunk) in rest.chunks_exact_mut(window).enumerate() {
            fill_taps(chunk, first.iter().map(|&t| tap(t) + (c + 1) * block));
        }
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

/// Scratch-arena elements (4 bytes each) [`conv_gemm_into`] acquires for
/// `geometry`: the zero-bordered phase-split map with its read slack
/// (none when the input is read in place) plus the tap-offset table, one
/// entry per patch-matrix row.
#[must_use]
pub fn conv_gemm_scratch_elems(geometry: &Conv2dGeometry) -> usize {
    let map = if geometry.in_place_grid().is_some() {
        0
    } else {
        geometry.map_len()
    };
    map + geometry.depth()
}

/// Scratch-arena i32 elements [`conv_qgemm_into`] acquires for
/// `geometry`: the quantized phase-split pair map with its read slack
/// plus the tap-offset table, one pair word per position and one entry
/// per reduction pair respectively.
#[must_use]
pub fn conv_qgemm_scratch_elems(geometry: &Conv2dGeometry) -> usize {
    let pairs = geometry.pairs();
    pairs.map_len() + pairs.depth()
}

/// Convolution as an implicit GEMM: `out = ep(a · P)`, where `P` is
/// the [`im2col`] patch matrix of `input` (never materialized) and `a`
/// holds the `m = out.len() / (out_h * out_w)` weight rows, row `i` at
/// `a[i * lda..]`: [`crate::gemm_pack_a`]'s layout windowed at a row and
/// a column (an input-channel range when `lda` exceeds the patch depth),
/// so it holds `m` rounded up to whole `MR`-row blocks. `out` is
/// overwritten.
///
/// The input is copied once into the zero-bordered phase-split map (read
/// in place when unpadded with stride 1), and the blocked microkernel
/// sweeps the map in `KC`-deep slabs, reading each patch-matrix row in
/// place through the tap-offset table. The result is bitwise identical
/// to [`im2col`] followed by [`crate::gemm_into_fused`]: both run the
/// same sweep, which fixes every element's summation order whatever the
/// layout of B.
///
/// # Errors
/// Returns geometry validation errors and [`TensorError::ShapeMismatch`]
/// when `input`, `a`, `lda` or `out` do not fit the geometry.
pub fn conv_gemm_into(
    input: &[f32],
    geometry: &Conv2dGeometry,
    a: &[f32],
    lda: usize,
    out: &mut [f32],
    ep: Epilogue<'_>,
) -> Result<()> {
    geometry.check_input(input)?;
    let cols = geometry.out_h() * geometry.out_w();
    let m = out_rows(out.len(), cols)?;
    let k = geometry.depth();
    if lda < k || a.len() < m.div_ceil(MR) * MR * lda {
        return Err(TensorError::ShapeMismatch {
            left: vec![m, lda],
            right: vec![a.len(), k],
        });
    }
    let a = ARows { data: a, lda };
    let phases = Phases::start();
    with_scratch(k, |taps: &mut [i32]| {
        geometry.fill_taps(taps);
        if let Some(grid) = geometry.in_place_grid() {
            let phases = phases.packed();
            crate::simd::gemm_sweep_dispatch(a, input, taps, grid, out, m, ep);
            phases.finish(0);
        } else {
            with_scratch(geometry.map_len(), |map: &mut [f32]| {
                pad_map(input, geometry, map);
                let phases = phases.packed();
                crate::simd::gemm_sweep_dispatch(a, map, taps, geometry.grid(), out, m, ep);
                phases.finish((map.len() * 4) as u64);
            });
        }
    });
    Ok(())
}

/// Int8 convolution as an implicit GEMM with fused requantization:
/// `out = rq(a · Q)`, where `Q` is the patch matrix of `input` quantized
/// under `rq.act` and `awide` is [`crate::qgemm_pack_a`]'s layout of the
/// weight codes with `taps = kernel_h * kernel_w`. `rows` selects the
/// output channels; `out` holds `rows.len()` output rows and is
/// overwritten.
///
/// The input is quantized once into a phase-split map filled with the
/// activation zero-point (so padding dequantizes to exactly `0.0`) that
/// holds one pair word per channel pair and position, and the int8 sweep
/// reads each reduction pair's row straight from it — the f32 sweep's
/// addressing over 32-bit words — and requantizes from the
/// accumulators. Integer sums are exact, so the result is
/// bitwise identical to quantizing [`im2col`]'s matrix and running
/// [`crate::qgemm_requant_into`]: the channel-pair reduction order
/// changes nothing.
///
/// # Errors
/// Returns geometry validation errors,
/// [`TensorError::InvalidConvGeometry`] when the reduction reaches 65,536
/// codes (channel pairs × 2 × taps; the requant's i32 difference is exact
/// only below that depth, and paper-scale VGG-16's 4,608 is the deepest
/// bundled one), and [`TensorError::ShapeMismatch`] when `input`,
/// `awide` or `out` do not fit the geometry and `rows`.
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
    if 2 * stride >= MAX_DEPTH {
        return Err(TensorError::InvalidConvGeometry {
            reason: format!("int8 reduction of {} codes reaches {MAX_DEPTH}", 2 * stride),
        });
    }
    let m = out_rows(out.len(), cols)?;
    if m != rows.len() || awide.len() < (rows.start + m.div_ceil(MR) * MR) * stride {
        return Err(TensorError::ShapeMismatch {
            left: vec![rows.end, stride],
            right: vec![awide.len(), out.len()],
        });
    }
    let awide = &awide[rows.start * stride..];
    let phases = Phases::start();
    with_scratch(stride, |taps: &mut [i32]| {
        pairs.fill_taps(taps);
        with_scratch(pairs.map_len(), |map: &mut [i32]| {
            crate::simd::quantize_pad_pairs_dispatch(input, geometry, rq.act, map);
            let phases = phases.packed();
            crate::simd::qgemm_sweep_dispatch(awide, map, taps, pairs.grid(), out, m, rq);
            phases.finish((map.len() * 4) as u64);
        });
    });
    Ok(())
}

/// Reduction a pooling window applies ([`pool_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window (out-of-bounds taps excluded).
    Avg,
}

/// Windowed pooling of the CHW `input` under `geometry`: `out` holds one
/// `out_h x out_w` plane per input channel and is overwritten.
///
/// Each output folds its in-range taps in (ky, then kx) order: a max
/// from `−∞` with [`f32::max`], an average from `+0.0` with `+`, divided
/// by its in-range tap count (`0.0` when it has none). Outputs whose
/// window lies inside the row fold up to 16 output columns at once,
/// reading each tap's stride-spaced run of an input row in place into
/// register accumulators; outputs whose window crosses the left or
/// right border fold their in-range taps one at a time. Nothing is
/// allocated and no scratch acquired. The flight recorder gets one
/// `compute` phase and no `pack`.
///
/// # Errors
/// Returns geometry validation errors and [`TensorError::ShapeMismatch`]
/// when `input` or `out` do not fit the geometry.
pub fn pool_into(
    input: &[f32],
    geometry: &Conv2dGeometry,
    kind: PoolKind,
    out: &mut [f32],
) -> Result<()> {
    geometry.check_input(input)?;
    let (out_h, out_w) = (geometry.out_h(), geometry.out_w());
    if out.len() != geometry.in_channels * out_h * out_w {
        return Err(TensorError::ShapeMismatch {
            left: vec![geometry.in_channels, out_h, out_w],
            right: vec![out.len()],
        });
    }
    let phases = Phases::start();
    crate::simd::pool_dispatch(input, geometry, kind, out);
    phases.finish_compute();
    Ok(())
}

/// Portable body behind [`pool_into`]; re-instantiated by
/// [`crate::simd`]. The compiler vectorizes the column fold well only
/// when the window width and stride are both constants in it, so the
/// max pool's arms pass them as literals: 2/2 (every pool of the Tiny
/// models) and 3/2 (the paper-scale ones). Any other geometry, and
/// every average pool (no bundled model runs one), takes a catch-all
/// arm with the same fold order.
#[inline(always)]
pub(crate) fn pool_planes(input: &[f32], g: &Conv2dGeometry, kind: PoolKind, out: &mut [f32]) {
    let max = |kw, sw| Fold {
        g,
        kw,
        sw,
        init: f32::NEG_INFINITY,
        op: f32::max,
        mean: false,
    };
    let avg = |kw, sw| Fold {
        g,
        kw,
        sw,
        init: 0.0,
        op: add,
        mean: true,
    };
    match (kind, g.kernel_w, g.stride_w) {
        (PoolKind::Max, 2, 2) => max(2, 2).pool(input, out),
        (PoolKind::Max, 3, 2) => max(3, 2).pool(input, out),
        (PoolKind::Max, kw, sw) => max(kw, sw).pool(input, out),
        (PoolKind::Avg, kw, sw) => avg(kw, sw).pool(input, out),
    }
}

/// The average pool's fold.
#[inline(always)]
fn add(acc: f32, v: f32) -> f32 {
    acc + v
}

/// A pool's fold over `g`'s windows: `kw` taps wide with stride `sw`
/// along a row, `op` from `init`, divided by the in-range tap count when
/// `mean`.
#[derive(Clone, Copy)]
struct Fold<'a, F> {
    g: &'a Conv2dGeometry,
    kw: usize,
    sw: usize,
    init: f32,
    op: F,
    mean: bool,
}

impl<F: Fn(f32, f32) -> f32 + Copy> Fold<'_, F> {
    /// An output's value from its fold over `taps` in-range taps.
    #[inline(always)]
    fn finish(&self, acc: f32, taps: usize) -> f32 {
        match (self.mean, taps) {
            (false, _) => acc,
            (true, 0) => 0.0,
            (true, taps) => acc / taps as f32,
        }
    }

    /// Pools every plane of `input` into `out`.
    #[inline(always)]
    fn pool(self, input: &[f32], out: &mut [f32]) {
        let (g, sw, out_w) = (self.g, self.sw, self.g.out_w());
        // Output columns `inner` have every tap of their window in the row.
        let start = g.pad_w.div_ceil(sw).min(out_w);
        let inner =
            start..((g.in_w + g.pad_w + sw).saturating_sub(self.kw) / sw).clamp(start, out_w);
        match inner.len() {
            0 => {}
            1 => self.inner_cols::<1>(input, out, inner.clone()),
            2..4 => self.inner_cols::<2>(input, out, inner.clone()),
            4..8 => self.inner_cols::<4>(input, out, inner.clone()),
            8..16 => self.inner_cols::<8>(input, out, inner.clone()),
            _ => self.inner_cols::<16>(input, out, inner.clone()),
        }
        if inner.len() < out_w {
            self.border_cols(input, out, inner);
        }
    }

    /// Folds the `inner` columns of every output row (at least `N`), `N`
    /// columns at a time in registers; the last `N` overlap the ones
    /// before when `N` does not divide the count. Each tap's `N` inputs
    /// are one stride-spaced run of its input row, read in place.
    #[inline(always)]
    fn inner_cols<const N: usize>(self, input: &[f32], out: &mut [f32], inner: Range<usize>) {
        let (g, kw, sw) = (self.g, self.kw, self.sw);
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let planes = input.chunks_exact(g.in_h * g.in_w);
        let groups = inner.len().div_ceil(N);
        for (src, dst) in planes.zip(out.chunks_exact_mut(out_h * out_w)) {
            for k in 0..groups {
                let c = (inner.start + k * N).min(inner.end - N);
                let x = c * sw - g.pad_w;
                for oy in 0..out_h {
                    let ys = window(oy, g.stride_h, g.pad_h, g.kernel_h, g.in_h);
                    let mut acc = [self.init; N];
                    for iy in ys.clone() {
                        let row = &src[iy * g.in_w + x..];
                        for kx in 0..kw {
                            let run = &row[kx..][..(N - 1) * sw + 1];
                            for (l, a) in acc.iter_mut().enumerate() {
                                *a = (self.op)(*a, run[l * sw]);
                            }
                        }
                    }
                    let taps = ys.len() * kw;
                    for (d, a) in dst[oy * out_w + c..][..N].iter_mut().zip(acc) {
                        *d = self.finish(a, taps);
                    }
                }
            }
        }
    }

    /// Folds the columns outside `inner`, whose windows cross the left or
    /// right border, one in-range tap at a time.
    fn border_cols(self, input: &[f32], out: &mut [f32], inner: Range<usize>) {
        let g = self.g;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let planes = input.chunks_exact(g.in_h * g.in_w);
        for (src, dst) in planes.zip(out.chunks_exact_mut(out_h * out_w)) {
            for (oy, dst_row) in dst.chunks_exact_mut(out_w).enumerate() {
                let ys = window(oy, g.stride_h, g.pad_h, g.kernel_h, g.in_h);
                for ox in (0..inner.start).chain(inner.end..out_w) {
                    let xs = window(ox, self.sw, g.pad_w, self.kw, g.in_w);
                    let mut acc = self.init;
                    for iy in ys.clone() {
                        for &v in &src[iy * g.in_w..][xs.clone()] {
                            acc = (self.op)(acc, v);
                        }
                    }
                    dst_row[ox] = self.finish(acc, ys.len() * xs.len());
                }
            }
        }
    }
}

/// In-range input indices of output `o`'s window along one axis: taps
/// `o*stride + k - pad` for `k < kernel`, clipped to `0..len` (empty at
/// `len` for a window wholly in the far padding).
#[inline(always)]
fn window(o: usize, stride: usize, pad: usize, kernel: usize, len: usize) -> Range<usize> {
    let start = ((o * stride).max(pad) - pad).min(len);
    let end = (o * stride + kernel).min(len + pad).saturating_sub(pad);
    start..end.max(start)
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
/// phase-split map (see the module docs), leaving the border and the
/// read slack zero.
fn pad_map(input: &[f32], g: &Conv2dGeometry, map: &mut [f32]) {
    if input.is_empty() {
        return; // an empty input leaves the map all padding
    }
    let (rows, plane) = (g.phase_rows(), g.phase_plane());
    let planes = input.chunks_exact(g.in_h * g.in_w);
    for (src, dst) in planes.zip(map.chunks_exact_mut(g.block())) {
        for (src_row, at) in src.chunks_exact(g.in_w).zip(rows.clone()) {
            place_row(g, plane, at, g.pad_w, src_row, dst);
        }
    }
}

/// Writes `src`, the values of one padded row from padded column `x` on,
/// into `dst`, a channel's block of the phase-split map: `at` is the
/// row's column 0 ([`Conv2dGeometry::phase_rows`]) and `plane` the
/// elements of one phase plane. Columns `x + i, x + i + stride_w, …`
/// are consecutive in their phase plane; stride 2 splits each column
/// pair between its two planes in one pass.
#[inline(always)]
fn place_row<T: Copy>(
    g: &Conv2dGeometry,
    plane: usize,
    at: usize,
    x: usize,
    src: &[T],
    dst: &mut [T],
) {
    match g.stride_w {
        1 => dst[at + x..][..src.len()].copy_from_slice(src),
        2 => {
            // Even-indexed values go to column `x`'s phase plane, odd-
            // indexed ones to the other plane, a column on when `x` is odd.
            let (col, phase) = (at + x / 2, x % 2 * plane);
            let (even, odd) = (col + phase, col + plane - phase + x % 2);
            let (n_even, n_odd) = (src.len().div_ceil(2), src.len() / 2);
            let (even, odd) = if even < odd {
                let (lo, hi) = dst.split_at_mut(odd);
                (&mut lo[even..][..n_even], &mut hi[..n_odd])
            } else {
                let (lo, hi) = dst.split_at_mut(even);
                (&mut hi[..n_even], &mut lo[odd..][..n_odd])
            };
            for ((e, o), pair) in even.iter_mut().zip(odd.iter_mut()).zip(src.chunks_exact(2)) {
                (*e, *o) = (pair[0], pair[1]);
            }
            if let Some(&last) = src.chunks_exact(2).remainder().first() {
                even[n_odd] = last;
            }
        }
        sw => {
            for i in 0..sw.min(src.len()) {
                let x = x + i;
                let run = dst[at + x % sw * plane + x / sw..].iter_mut();
                for (d, &v) in run.zip(src[i..].iter().step_by(sw)) {
                    *d = v;
                }
            }
        }
    }
}

/// Input columns a strided int8 row quantizes per pass into a stack
/// buffer before [`place_row`] spreads them: quantizing straight into the
/// strided runs does not vectorize and took twice as long.
const ROW_CHUNK: usize = 64;

/// Quantizes the CHW `input` under `p` into `map`, the phase-split pair
/// map: block `c / 2` holds one [`crate::quant::pair_word`] per padded
/// position, channel `c` in its low half when `c` is even. Every other
/// code — the border, the read slack and, for an odd channel count, the
/// missing last channel — is the zero-point, which dequantizes to
/// exactly `0.0` (the missing channel's weights are zero besides).
/// Rounds exactly like [`crate::quantize_into`].
#[inline(always)]
pub(crate) fn quantize_pad_pairs(
    input: &[f32],
    g: &Conv2dGeometry,
    p: QuantParams,
    map: &mut [i32],
) {
    let q = Codes {
        inv: 1.0 / p.scale,
        zp: p.zero_point as f32,
        zero: p.zero_point as i8,
    };
    map.fill(pair_word(q.zero, q.zero));
    let plane = g.in_h * g.in_w;
    let (rows, phase_plane) = (g.phase_rows(), g.phase_plane());
    let mut words = [0i32; ROW_CHUNK];
    let blocks = map
        .chunks_exact_mut(g.block())
        .take(g.in_channels.div_ceil(2));
    for (pair, dst) in blocks.enumerate() {
        let lo = &input[2 * pair * plane..(2 * pair + 1) * plane];
        let hi = input.get((2 * pair + 1) * plane..(2 * pair + 2) * plane);
        for (iy, at) in rows.clone().enumerate() {
            let span = iy * g.in_w..(iy + 1) * g.in_w;
            let (lo, hi) = (&lo[span.clone()], hi.map(|hi| &hi[span]));
            if g.stride_w == 1 {
                quantize_pairs(&mut dst[at + g.pad_w..], lo, hi, q);
                continue;
            }
            for (i, lo) in lo.chunks(ROW_CHUNK).enumerate() {
                let hi = hi.map(|hi| &hi[i * ROW_CHUNK..][..lo.len()]);
                quantize_pairs(&mut words, lo, hi, q);
                let x = g.pad_w + i * ROW_CHUNK;
                place_row(g, phase_plane, at, x, &words[..lo.len()], dst);
            }
        }
    }
}

/// A [`QuantParams`] as [`quantize_code`] takes it, plus the zero-point
/// code.
#[derive(Clone, Copy)]
struct Codes {
    inv: f32,
    zp: f32,
    zero: i8,
}

/// Pair words of `lo`'s and `hi`'s codes into `dst` (the zero-point for
/// a missing `hi`).
#[inline(always)]
fn quantize_pairs(dst: &mut [i32], lo: &[f32], hi: Option<&[f32]>, q: Codes) {
    let code = |v: f32| quantize_code(v, q.inv, q.zp);
    match hi {
        Some(hi) => {
            for (d, (&l, &h)) in dst.iter_mut().zip(lo.iter().zip(hi)) {
                *d = pair_word(code(l), code(h));
            }
        }
        None => {
            for (d, &l) in dst.iter_mut().zip(lo) {
                *d = pair_word(code(l), q.zero);
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
    /// to and above `NR` — the last panel is ragged whenever the grid's
    /// column count is not a multiple of `NR`, the patch depth is odd
    /// with odd channels and odd kernels, and the unpadded stride-1 ones
    /// at least a panel wide are read in place — plus an empty input
    /// whose every tap is padding, windows whose kernel, stride and
    /// padding differ between height and width, and an unpadded 1x1
    /// conv read in place whose last panel's reads end on the input's
    /// last element (35 columns: the last panel starts at column 19).
    fn geometry_grid() -> Vec<Conv2dGeometry> {
        let mut grid = vec![geo(3, 0, 0, 3, 1, 2), geo(3, 5, 7, 1, 1, 0)];
        for (c, in_h, in_w, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w) in [
            (3, 7, 11, 3, 5, 2, 1, 1, 2),
            (2, 9, 6, 1, 3, 1, 3, 0, 1),
            (5, 10, 13, 4, 2, 3, 2, 2, 0),
            (4, 6, 20, 2, 3, 1, 1, 0, 0),
        ] {
            grid.push(Conv2dGeometry {
                in_channels: c,
                in_h,
                in_w,
                kernel_h,
                kernel_w,
                stride_h,
                stride_w,
                pad_h,
                pad_w,
            });
        }
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

    fn act_params(x: &Tensor) -> QuantParams {
        let (lo, hi) = crate::min_max(x.as_slice());
        QuantParams::from_min_max(lo, hi)
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
        let mut widths = [false; 3];
        for (i, g) in geometry_grid().iter().enumerate() {
            let ow = g.out_w();
            widths[usize::from(ow >= NR) + usize::from(ow > NR)] = true;
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
                let mut got = vec![0.0; rows.len() * n];
                conv_gemm_into(x.as_slice(), g, &packed[rows.start * k..], k, &mut got, ep)
                    .unwrap();
                assert_eq!(got, want, "{g:?} rows {rows:?}");
            }
            // The last input channels alone: a window of every packed
            // row's columns, read in place at the full row stride.
            if g.in_channels < 2 {
                continue;
            }
            let (window, plane) = (g.kernel_h * g.kernel_w, g.in_h * g.in_w);
            let part = Conv2dGeometry {
                in_channels: g.in_channels - 1,
                ..*g
            };
            let x_part = Tensor::from_vec(
                x.as_slice()[plane..].to_vec(),
                &[part.in_channels, g.in_h, g.in_w],
            )
            .unwrap();
            let part_cols = im2col(&x_part, &part).unwrap();
            let a: Vec<f32> = (0..m)
                .flat_map(|r| &w.as_slice()[r * k + window..(r + 1) * k])
                .copied()
                .collect();
            let mut want = vec![0.0; m * n];
            crate::gemm_into(&a, part_cols.as_slice(), &mut want, m, part.depth(), n);
            let mut got = vec![f32::NAN; m * n];
            conv_gemm_into(
                x_part.as_slice(),
                &part,
                &packed[window..],
                k,
                &mut got,
                Epilogue::None,
            )
            .unwrap();
            assert_eq!(got, want, "{g:?} channels 1..");
        }
        assert_eq!(
            widths, [true; 3],
            "grid must cover out_w below, at and above NR"
        );
    }

    #[test]
    fn conv_qgemm_matches_im2col_plus_qgemm_bitwise() {
        // The quantized im2col matrix pads with the zero-point, and odd
        // channel counts leave the last pair's high half to it: the pair
        // map must match both, at every tap of every geometry.
        for (i, g) in geometry_grid().iter().enumerate() {
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
        // Three rows read as one whole MR block of 18 columns.
        let a = vec![0.0f32; 4 * 18];
        let mut out = vec![0.0f32; 3 * 25];
        assert!(conv_gemm_into(&x, &g, &a, 18, &mut out, Epilogue::None).is_ok());
        // A short input, A short of the block, a row stride below the
        // patch depth, and an output that is not whole rows.
        for (x, a, lda, out_len) in [
            (&x[1..], &a[..], 18, 75),
            (&x[..], &a[..71], 18, 75),
            (&x[..], &a[..], 17, 75),
            (&x[..], &a[..], 18, 74),
        ] {
            let mut out = vec![0.0f32; out_len];
            assert!(matches!(
                conv_gemm_into(x, &g, a, lda, &mut out, Epilogue::None),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
        let empty = Conv2dGeometry {
            in_channels: 0,
            ..g
        };
        assert!(matches!(
            conv_gemm_into(&[], &empty, &a, 18, &mut out, Epilogue::None),
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
    fn int8_conv_depth_stays_below_the_requant_bound() {
        // 1x1 kernels over a 1x1 input: 65,534 channels reduce 65,534
        // codes and run; 65,535 channels pad to 32,768 pairs, 65,536
        // codes, the first depth rejected, as is 65,536 channels.
        for (channels, runs) in [(65_534, true), (65_535, false), (65_536, false)] {
            let g = geo(channels, 1, 1, 1, 1, 0);
            let x = vec![0.5f32; channels];
            let awide = crate::qgemm_pack_a(&vec![1i8; channels], 1, channels, 1);
            let act = QuantParams::from_min_max(-1.0, 1.0);
            let sums = [channels as i32];
            let rq = Requant {
                w_scales: &[1.0],
                act,
                row_sums: &sums,
                bias: None,
                relu: false,
            };
            let mut out = [f32::NAN];
            let got = conv_qgemm_into(&x, &g, &awide, 0..1, &mut out, &rq);
            if runs {
                got.expect("below the bound");
                let acc = channels as i32 * i32::from(act.quantize_one(0.5));
                assert_eq!(out[0].to_bits(), rq.apply(acc, 0).to_bits());
            } else {
                assert!(
                    matches!(got, Err(TensorError::InvalidConvGeometry { .. })),
                    "{channels} channels: {got:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_sizes_cover_what_the_kernels_acquire() {
        // The arena counters see exactly these lengths: the phase-split
        // map with NR of read slack (none for an f32 input read in
        // place) and one tap-table entry per patch-matrix row.
        let g = geo(3, 6, 6, 3, 1, 1);
        assert_eq!(conv_gemm_scratch_elems(&g), 3 * 8 * 8 + NR + 27);
        assert_eq!(conv_qgemm_scratch_elems(&g), 2 * 8 * 8 + NR + 2 * 9);
        // Stride 2 over the 9x9 padded map: four 5x5 phase planes.
        let strided = geo(3, 7, 7, 3, 2, 1);
        assert_eq!(conv_gemm_scratch_elems(&strided), 3 * 4 * 25 + NR + 27);
        assert_eq!(conv_qgemm_scratch_elems(&strided), 2 * 4 * 25 + NR + 2 * 9);
        let unpadded = geo(3, 6, 6, 1, 1, 0);
        assert_eq!(conv_gemm_scratch_elems(&unpadded), 3);
        // Narrower than one panel: copied, so its reads have slack.
        let narrow = geo(1, 3, 3, 1, 1, 0);
        assert_eq!(conv_gemm_scratch_elems(&narrow), 9 + NR + 1);
    }
}
