//! Int8 quantization: parameters, quantized tensors, and the packed
//! int8×int8→i32 GEMM with a fused requantize epilogue.
//!
//! The scheme is the standard affine one: a real value `v` is stored as
//! `q = clamp(round(v / scale + zero_point), -128, 127)` and recovered
//! as `v ≈ scale * (q - zero_point)`. Weights use *symmetric per-channel*
//! parameters (`zero_point = 0`, one scale per output channel), so the
//! integer product needs only one cross-term correction; activations use
//! *per-tensor* affine parameters so zero-padding stays exactly
//! representable (`q = zero_point ⇔ v = 0`).
//!
//! With `W ≈ s_w[i]·Wq[i,p]` and `X ≈ s_x·(Xq[p,j] − z_x)`:
//!
//! ```text
//! Σ_p W·X ≈ s_w[i]·s_x · ( Σ_p Wq·Xq  −  z_x · Σ_p Wq[i,p] )
//! ```
//!
//! so the kernel accumulates `Σ Wq·Xq` in i32 registers and the
//! write-back applies the row-sum correction, the combined scale, bias,
//! and optional ReLU in one pass ([`Requant`]). The AVX-512 block kernel
//! requantizes straight from its accumulator registers; the portable and
//! AVX2 tiles store theirs to a stack array first. The f32 kernels
//! remain the differential oracle: every quantized path is tested
//! against dequantized f32 results under an analytic error bound.
//!
//! ## Kernel formulation
//!
//! The blocked kernel is an `MR x NR` microtile over a *pair-broadcast*
//! layout. Both operands are stored as **pair words**: two int8 codes of
//! adjacent reduction indices, sign-extended to i16 and packed into one
//! i32 (low half first, [`pair_word`]). A is row-major in pair words
//! (rows padded to an `MR` multiple); B is a pair-word map read in place,
//! reduction pair `h` of a panel being the `NR` consecutive words at
//! `b[taps[h] + base]` (the f32 sweep's [`crate::gemm`] addressing). One
//! microtile step then multiplies a broadcast A word against a whole
//! panel row — on x86 that is exactly one `pmaddwd` + one `vpaddd` per
//! `2*NR` MACs, with `MR` independent accumulator registers hiding the
//! multiply latency.
//! Autovectorizers do not find this shape from scalar code (the
//! horizontal-reduction idiom they do lower caps out well below the f32
//! kernel at small `k`), so [`crate::simd`] provides an explicit AVX2
//! microtile and an AVX-512 block kernel (up to [`GROUP`] panels per
//! call) behind the usual runtime dispatch, and [`qgemm_tile_portable`]
//! keeps a bit-identical safe fallback.
//!
//! [`qgemm_requant_into`] pairs adjacent reduction indices, and writes B
//! as a row-major pair-word matrix. The conv lowering
//! ([`crate::conv_qgemm_into`]) instead pairs two *channels* at one
//! kernel tap — integer sums are exact, so reduction order is free —
//! which makes its input map one pair word per position, read by the
//! microtile in place like the f32 map; [`qgemm_pack_a`] orders the conv
//! weights to match.

use crate::gemm::{fill_taps, tap, Grid, Panel, Phases};
use crate::scratch::with_scratch;
use crate::simd::Taps;
use crate::{Result, Shape, Tensor, TensorError};

/// Rows per microtile: independent accumulator sets per A row, enough
/// to hide the `pmaddwd` latency behind one shared B-panel load.
pub(crate) const MR: usize = 4;
/// Columns per packed B panel (one 512-bit lane row of i32 accumulators).
pub(crate) const NR: usize = 16;
/// Most panels one block-kernel call computes: with `MR` rows, 16
/// AVX-512 accumulators.
pub(crate) const GROUP: usize = 4;
/// Bound on the codes one int8 reduction sums. Below it, with i8 codes
/// on both sides and a zero-point in `[-128, 128]`, the requant's
/// difference `acc − z_x·Σ_p Wq[i][p] = Σ_p Wq·(Xq − z_x)` stays within
/// `128·256·k < 2^31`, so it is exact in i32, where every write-back
/// (the int8 GEMM's on each kernel variant, and the dense mat-vec's)
/// takes it.
pub const MAX_DEPTH: usize = 1 << 16;

/// Packs two int8 codes into one pair word: `lo` in the low 16 bits,
/// `hi` in the high 16, each sign-extended to i16 — in memory (little
/// endian) exactly the two adjacent i16 lanes `pmaddwd` multiplies.
#[inline(always)]
pub(crate) fn pair_word(lo: i8, hi: i8) -> i32 {
    i32::from(i16::from(lo) as u16) | i32::from(hi) << 16
}

/// Affine quantization parameters for one tensor or one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value step between adjacent int8 codes (always > 0).
    pub scale: f32,
    /// Int8 code that represents real `0.0` (in `[-128, 127]`).
    pub zero_point: i32,
}

impl QuantParams {
    /// Parameters covering `[min, max]`, widened to include `0.0` so the
    /// zero used for conv padding is exactly representable.
    ///
    /// A degenerate range (`min == max == 0`) yields identity-ish
    /// parameters (`scale = 1`); round-trip error never exceeds
    /// `scale / 2` per element for values inside the range.
    #[must_use]
    pub fn from_min_max(min: f32, max: f32) -> QuantParams {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let range = max - min;
        if range <= 0.0 || range.is_nan() || !range.is_finite() {
            return QuantParams {
                scale: 1.0,
                zero_point: 0,
            };
        }
        let scale = range / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams { scale, zero_point }
    }

    /// Symmetric parameters (`zero_point = 0`) covering `[-abs_max, abs_max]`.
    /// Used for weights, where symmetry removes one correction term from
    /// the integer GEMM.
    #[must_use]
    pub fn symmetric(abs_max: f32) -> QuantParams {
        let scale = if abs_max > 0.0 && abs_max.is_finite() {
            abs_max / 127.0
        } else {
            1.0
        };
        QuantParams {
            scale,
            zero_point: 0,
        }
    }

    /// Quantizes one real value (round-to-nearest, saturating). Uses the
    /// same rounding as [`quantize_into`] so scalar and bulk paths agree
    /// bit-for-bit.
    #[must_use]
    pub fn quantize_one(self, v: f32) -> i8 {
        round_nearest(v / self.scale + self.zero_point as f32) as i8
    }

    /// Recovers the real value one int8 code represents.
    #[must_use]
    pub fn dequantize_one(self, q: i8) -> f32 {
        self.scale * (i32::from(q) - self.zero_point) as f32
    }
}

/// Minimum and maximum of a slice (`(0, 0)` when empty), for dynamic
/// activation quantization and the calibration pass.
#[must_use]
pub fn min_max(data: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in data {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Round-to-nearest (ties to even) via the `1.5 * 2^23` magic constant:
/// adding and subtracting it leaves the nearest integer for any
/// `|x| < 2^22`, values beyond keep enough magnitude for the saturating
/// `as i8` cast, and NaN stays NaN (casting to 0). Every step is a plain
/// add, so the quantize loop autovectorizes — `f32::round`'s
/// half-away-from-zero semantics have no vector lowering and measured
/// ~3.5x slower per element.
#[inline(always)]
fn round_nearest(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    (x + MAGIC) - MAGIC
}

/// The int8 code of `v` under reciprocal scale `inv` and zero-point
/// `zp`: exactly `round_nearest(v * inv + zp) as i8` (ties to even,
/// saturating, NaN to 0), without the saturating float-to-int cast —
/// that cast has no vector lowering and measured ~15x slower per element
/// than this body under AVX-512. Clamping first keeps the value inside
/// the magic-number add's exact range, which leaves the rounded integer
/// in the low mantissa bits.
#[inline(always)]
pub(crate) fn quantize_code(v: f32, inv: f32, zp: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let x = v * inv + zp;
    let x = if x.is_nan() {
        0.0
    } else {
        x.clamp(-128.0, 127.0)
    };
    ((x + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32) as i8
}

/// Quantizes `src` into `dst` under `p` (the activation hot path).
pub fn quantize_into(src: &[f32], dst: &mut [i8], p: QuantParams) {
    debug_assert_eq!(src.len(), dst.len());
    let inv = 1.0 / p.scale;
    let zp = p.zero_point as f32;
    for (d, &v) in dst.iter_mut().zip(src.iter()) {
        *d = quantize_code(v, inv, zp);
    }
}

/// How a [`QTensor`]'s codes map back to real values.
#[derive(Debug, Clone, PartialEq)]
pub enum Quantization {
    /// One parameter set for every element.
    PerTensor(QuantParams),
    /// One parameter set per axis-0 slice (conv output channel / dense
    /// row); `params.len()` equals the axis-0 dimension.
    PerChannel(Vec<QuantParams>),
}

/// An int8 tensor plus the parameters to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    shape: Shape,
    quant: Quantization,
}

impl QTensor {
    /// Quantizes `t` with a single affine parameter set derived from its
    /// min/max.
    #[must_use]
    pub fn quantize_per_tensor(t: &Tensor) -> QTensor {
        let (lo, hi) = min_max(t.as_slice());
        let p = QuantParams::from_min_max(lo, hi);
        let mut data = vec![0i8; t.len()];
        quantize_into(t.as_slice(), &mut data, p);
        QTensor {
            data,
            shape: t.shape().clone(),
            quant: Quantization::PerTensor(p),
        }
    }

    /// Quantizes `t` symmetrically with one scale per axis-0 slice (the
    /// weight scheme: axis 0 is the output channel / dense unit).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors.
    pub fn quantize_per_channel(t: &Tensor) -> Result<QTensor> {
        if t.shape().rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let channels = t.dims()[0];
        let row = t.len().checked_div(channels).unwrap_or(0);
        let src = t.as_slice();
        let mut data = vec![0i8; t.len()];
        let mut params = Vec::with_capacity(channels);
        for c in 0..channels {
            let s = &src[c * row..(c + 1) * row];
            let amax = s.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let p = QuantParams::symmetric(amax);
            quantize_into(s, &mut data[c * row..(c + 1) * row], p);
            params.push(p);
        }
        Ok(QTensor {
            data,
            shape: t.shape().clone(),
            quant: Quantization::PerChannel(params),
        })
    }

    /// The int8 codes, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Tensor shape (same as the source tensor's).
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension list.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The quantization scheme.
    #[must_use]
    pub fn quant(&self) -> &Quantization {
        &self.quant
    }

    /// Bytes this tensor occupies (one per element).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Reconstructs the real-valued tensor (lossy inverse of quantize).
    #[must_use]
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = match &self.quant {
            Quantization::PerTensor(p) => self.data.iter().map(|&q| p.dequantize_one(q)).collect(),
            Quantization::PerChannel(params) => {
                let row = self.data.len().checked_div(params.len()).unwrap_or(0);
                self.data
                    .chunks(row.max(1))
                    .zip(params.iter())
                    .flat_map(|(chunk, p)| chunk.iter().map(|&q| p.dequantize_one(q)))
                    .collect()
            }
        };
        Tensor::from_vec(data, self.dims()).expect("shape preserved by construction")
    }
}

/// Per-row sums of an int8 weight matrix `(m, k)`, precomputed once per
/// layer for the zero-point correction in [`Requant`].
#[must_use]
pub fn row_sums(w: &[i8], m: usize, k: usize) -> Vec<i32> {
    debug_assert_eq!(w.len(), m * k);
    (0..m)
        .map(|i| w[i * k..(i + 1) * k].iter().map(|&v| i32::from(v)).sum())
        .collect()
}

/// Requantize epilogue of the int8 GEMM: maps the i32 accumulator of
/// output element `(i, j)` to
/// `f(w_scales[i] * act.scale * (acc - act.zero_point * row_sums[i]) + bias[i])`
/// where `f` is ReLU when `relu` is set. All slices are indexed by the
/// *local* row of the call (callers slice them alongside `a`). Callers
/// take `row_sums` to be the sums of `a`'s rows, as [`row_sums`] computes
/// them, over fewer than [`MAX_DEPTH`] codes: the write-back forms the
/// difference in i32, which is exact only for the true sums.
#[derive(Debug, Clone, Copy)]
pub struct Requant<'a> {
    /// Per-row (symmetric) weight scales, `len == m`.
    pub w_scales: &'a [f32],
    /// Activation quantization parameters (per-tensor affine).
    pub act: QuantParams,
    /// Per-row weight sums for the zero-point correction, `len == m`.
    pub row_sums: &'a [i32],
    /// Optional per-row bias added after rescaling.
    pub bias: Option<&'a [f32]>,
    /// Fuse a ReLU clamp into the write-back.
    pub relu: bool,
}

impl Requant<'_> {
    /// Maps one accumulated i32 for (local) row `i` to its real-valued
    /// output. Public so layer kernels that accumulate outside the GEMM
    /// (the quantized dense mat-vec) share the exact write-back math.
    #[inline(always)]
    #[must_use]
    pub fn apply(&self, acc: i32, i: usize) -> f32 {
        self.row(i).apply(acc)
    }

    /// Row `i`'s constants, hoisted out of per-element loops.
    #[inline(always)]
    fn row(&self, i: usize) -> RowRequant {
        RowRequant {
            scale: self.w_scales[i] * self.act.scale,
            corr: self.act.zero_point.wrapping_mul(self.row_sums[i]),
            bias: self.bias.map_or(0.0, |b| b[i]),
            relu: self.relu,
        }
    }

    fn debug_check(&self, m: usize) {
        debug_assert_eq!(self.w_scales.len(), m);
        debug_assert_eq!(self.row_sums.len(), m);
        if let Some(b) = self.bias {
            debug_assert_eq!(b.len(), m);
        }
    }
}

/// One output row's requantization: [`Requant::apply`] with the row's
/// scale, zero-point correction and bias already looked up.
#[derive(Clone, Copy, Default)]
pub(crate) struct RowRequant {
    pub(crate) scale: f32,
    pub(crate) corr: i32,
    pub(crate) bias: f32,
    pub(crate) relu: bool,
}

impl RowRequant {
    /// The difference `acc − corr` is exact in i32 below [`MAX_DEPTH`]
    /// codes, where the wrapped correction gives it, as in the AVX-512
    /// block kernel. The ReLU is `v > 0 ? v : +0.0`, which maps NaN and
    /// `-0.0` to `+0.0`, as x86's `maxps(v, 0)` does. `f32::max` leaves
    /// the sign of a zero unspecified: inlined against the constant it
    /// compiled to that `maxps`, but a debug build's call kept `-0.0`.
    #[inline(always)]
    fn apply(self, acc: i32) -> f32 {
        let v = self.scale * (acc.wrapping_sub(self.corr) as f32) + self.bias;
        if !self.relu || v > 0.0 {
            v
        } else {
            0.0
        }
    }
}

/// Bytes of scratch [`qgemm_requant_into`] may acquire for an
/// `(m, k) x (k, n)` product: both operands as pair words — A rows of
/// `k.div_ceil(2)` words padded to an `MR`-multiple row count, B as
/// `k.div_ceil(2)` rows of `n` words followed by `NR` words of read slack
/// — and the sweep's row-offset table, one word per B row (the int8
/// counterpart of [`crate::gemm_pack_elems`]). A sound over-approximation
/// for the tier-D arena accounting.
#[must_use]
pub fn qgemm_pack_bytes(m: usize, k: usize, n: usize) -> usize {
    if m == 0 || k == 0 || n == 0 {
        0
    } else {
        let pairs = k.div_ceil(2);
        let mp = m.div_ceil(MR) * MR;
        4 * (mp * pairs + pairs * n + NR + pairs)
    }
}

/// Packed int8 GEMM with fused requantization:
/// `out[i][j] = rq(Σ_p a[i][p]·b[p][j])` for an `(m, k) x (k, n)`
/// product. `a` is the (symmetric, per-row-scaled) weight matrix, `b`
/// the (affine, per-tensor) activation matrix; `out` is *overwritten*,
/// accumulation across k-ranges composes in f32 at the layer level.
///
/// Outputs are computed as `MR x NR` microtiles over the pair-broadcast
/// packed layout and requantized from the accumulators (see the module
/// docs for why this formulation).
///
/// # Panics
/// When `k` reaches 65,536 codes: the requant's i32 difference is exact
/// only below that depth (the deepest bundled int8 reduction, paper-scale
/// VGG-16's, sums 4,608).
pub fn qgemm_requant_into(
    a: &[i8],
    b: &[i8],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    rq: &Requant<'_>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    assert!(
        k < MAX_DEPTH,
        "int8 reduction of {k} codes reaches {MAX_DEPTH}"
    );
    rq.debug_check(m);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for i in 0..m {
            out[i * n..(i + 1) * n].fill(rq.apply(0, i));
        }
        return;
    }
    let pairs = k.div_ceil(2);
    let mp = m.div_ceil(MR) * MR;
    // One scratch slab holds A (`mp*pairs` words) followed by B (`pairs`
    // rows of `n` words, then the last panel's read slack): pair words
    // are still half the f32 footprint. As in the f32 path, scratch is
    // acquired *outside* the dispatched sweep so the hot loops inline
    // into the `#[target_feature]` wrappers (a closure would pin them at
    // baseline width).
    let scratch_elems = mp * pairs + pairs * n + NR;
    let phases = Phases::start();
    with_scratch(pairs, |taps: &mut [i32]| {
        with_scratch(scratch_elems, |packed: &mut [i32]| {
            let (awide, bwide) = packed.split_at_mut(mp * pairs);
            pack_pair_operands(a, b, awide, bwide, m, k, n);
            fill_taps(taps, (0..pairs).map(|h| h * n));
            let phases = phases.packed();
            let grid = Grid::new(1, n, n);
            crate::simd::qgemm_sweep_dispatch(awide, bwide, taps, grid, out, m, rq);
            phases.finish((4 * scratch_elems) as u64);
        });
    });
}

/// Int8 mat-vec rows into `out`: quantizes `x` under `rq.act` once (the
/// pack phase), then maps the int8 dot product of those codes with row
/// `i` of `a`, the `x.len()` codes from `a[i * lda]`, through `rq`'s row
/// `i` (the compute phase).
///
/// # Panics
/// When `x` holds [`MAX_DEPTH`] or more values, or `a` fewer than
/// `out.len()` rows.
pub fn qmatvec_into(a: &[i8], lda: usize, x: &[f32], rq: &Requant<'_>, out: &mut [f32]) {
    let k = x.len();
    assert!(
        k < MAX_DEPTH,
        "int8 reduction of {k} codes reaches {MAX_DEPTH}"
    );
    rq.debug_check(out.len());
    let phases = Phases::start();
    with_scratch(k, |qx: &mut [i8]| {
        quantize_into(x, qx, rq.act);
        let phases = phases.packed();
        for (i, dst) in out.iter_mut().enumerate() {
            *dst = rq.apply(dot_i8(&a[i * lda..i * lda + k], qx), i);
        }
        phases.finish(k as u64);
    });
}

/// One block-kernel call of [`qgemm_sweep`]: output rows `i0..i0 +
/// rq.len()` (at most `MR`) over a group of up to [`GROUP`] panels. The
/// kernel computes and requantizes the group's lanes and writes every
/// run of every panel into `out`, the block's output rows.
#[derive(Clone, Copy)]
pub(crate) struct Block<'a> {
    /// The block's `MR` rows of A, `taps.offsets().len()` pair words each;
    /// rows from `rq.len()` on are padding, computed and never stored.
    pub(crate) a: &'a [i32],
    /// B, read in place through `taps` from each panel's base.
    pub(crate) b: &'a [i32],
    pub(crate) taps: Taps<'a>,
    pub(crate) panels: &'a [Panel],
    /// The real rows' requant constants.
    pub(crate) rq: &'a [RowRequant],
    /// Output row stride: row `r`'s column `col` is `out[r * n + col]`.
    pub(crate) n: usize,
}

/// The int8 sweep behind [`qgemm_requant_into`] and
/// [`crate::conv_qgemm_into`]: runs `block` over every panel group x
/// row block of `awide` (rows of `taps.len()` pair words, readable in
/// whole `MR` blocks) and of B, read in place through `taps` and `grid`
/// as the f32 sweep reads it. Panels go in groups of up to [`GROUP`],
/// held in a fixed array, and each group's B rows are reused across the
/// row blocks; the tap table's reach is folded and each row block's
/// requant constants looked up once per group. `pub(crate)` +
/// `#[inline(always)]` so [`crate::simd`] re-instantiates it at the
/// selected width, with that width's block kernel inlined.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn qgemm_sweep(
    block: impl Fn(Block<'_>, &mut [f32]),
    awide: &[i32],
    b: &[i32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    rq: &Requant<'_>,
) {
    let (taps, n) = (Taps::new(taps), grid.n());
    let pairs = taps.offsets().len();
    let mut panels = grid.panels();
    let mut group = [Panel::default(); GROUP];
    loop {
        let mut len = 0;
        for (slot, panel) in group.iter_mut().zip(&mut panels) {
            *slot = panel;
            len += 1;
        }
        if len == 0 {
            return;
        }
        for i0 in (0..m).step_by(MR) {
            let rows = MR.min(m - i0);
            let mut rq_rows = [RowRequant::default(); MR];
            for (r, row) in rq_rows[..rows].iter_mut().enumerate() {
                *row = rq.row(i0 + r);
            }
            let blk = Block {
                a: &awide[i0 * pairs..(i0 + MR) * pairs],
                b,
                taps,
                panels: &group[..len],
                rq: &rq_rows[..rows],
                n,
            };
            block(blk, &mut out[i0 * n..(i0 + rows) * n]);
        }
    }
}

/// The block kernel of a variant whose `tile` computes one panel's
/// `MR x NR` accumulators: runs it on each panel of the group in turn
/// and requantizes the accumulators from a stack array.
#[inline(always)]
pub(crate) fn tile_block(
    tile: impl Fn(&[i32], &[i32], Taps<'_>, usize, &mut [i32; MR * NR]),
    blk: Block<'_>,
    out: &mut [f32],
) {
    let n = blk.n;
    // One spare row: a run from lane `l` reads `NR` lanes from there.
    let mut acc = [0i32; MR * NR + NR];
    for panel in blk.panels {
        // The microtile always computes a full MR x NR block (A's padding
        // rows are zeros, dropped lanes read whatever B holds there); the
        // requant write-back below only touches the real outputs.
        let lanes = acc.first_chunk_mut().expect("MR x NR lanes");
        tile(blk.a, blk.b, blk.taps, panel.base, lanes);
        // Each row's constants by value, so they stay in registers.
        for (r, (&row, out_row)) in blk.rq.iter().zip(out.chunks_mut(n)).enumerate() {
            // Each run is stored as NR lanes from its first one: the
            // lanes past the run land on output columns a later run (of
            // this panel or the next; runs come in column order)
            // overwrites. Only the output row's end shortens a store.
            for run in panel.runs() {
                let len = NR.min(n - run.col);
                let lanes = &acc[r * NR + run.lane..][..len];
                for (o, &lane) in out_row[run.col..][..len].iter_mut().zip(lanes) {
                    *o = row.apply(lane);
                }
            }
        }
    }
}

/// Packs an `(m, k)` int8 weight matrix into the microtile's A layout
/// once, up front. Layers cache this beside the codes — weights never
/// change, so the conv kernel ([`crate::conv_qgemm_into`]) skips the
/// per-call A pack entirely.
///
/// The `k` columns are `k / taps` input channels of `taps` kernel taps
/// each (`taps = 1` for a plain matrix). Each row becomes pair words in
/// the conv lowering's reduction order: word `(pair, tap)` holds channels
/// `2*pair` and `2*pair + 1` at `tap`, with a zero code standing in for
/// the missing channel of an odd count. Row stride is
/// `(k / taps).div_ceil(2) * taps` words; with `taps = 1` that is
/// `k.div_ceil(2)` adjacent-index pairs, the layout of
/// [`qgemm_requant_into`]. Rows are zero-padded to `m.div_ceil(MR)*MR +
/// MR` so that *any* row-range slice leaves a full `MR` block readable
/// past its last real row; [`qgemm_pack_a_words`] is the packed length.
#[must_use]
pub fn qgemm_pack_a(a: &[i8], m: usize, k: usize, taps: usize) -> Vec<i32> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert!(taps > 0 && k.is_multiple_of(taps));
    let stride = (k / taps).div_ceil(2) * taps;
    let mut awide = vec![0i32; qgemm_pack_a_words(m, k, taps)];
    for (row, src_row) in awide.chunks_mut(stride).zip(a.chunks(k)).take(m) {
        for (pair, dst) in row.chunks_exact_mut(taps).enumerate() {
            let lo = &src_row[2 * pair * taps..(2 * pair + 1) * taps];
            let hi = src_row.get((2 * pair + 1) * taps..(2 * pair + 2) * taps);
            for (t, (d, &l)) in dst.iter_mut().zip(lo).enumerate() {
                *d = pair_word(l, hi.map_or(0, |h| h[t]));
            }
        }
    }
    awide
}

/// Length in pair words of [`qgemm_pack_a`]'s packing of an `(m, k)`
/// matrix of `taps`-tap input channels: `m` rows padded as that function
/// describes, each `(k / taps).div_ceil(2) * taps` words long.
#[must_use]
pub fn qgemm_pack_a_words(m: usize, k: usize, taps: usize) -> usize {
    (m.div_ceil(MR) * MR + MR) * (k / taps).div_ceil(2) * taps
}

/// Portable `MR x NR` microtile over pair words:
/// `acc[r][lane] = Σ_h lo(a[r][h])·lo(bh[lane]) + hi(a[r][h])·hi(bh[lane])`
/// with `bh = b[base + tap(taps[h])..][..NR]`, `h < taps.len()`.
/// Integer arithmetic, so results are bit-identical to the explicit
/// AVX2 tile and AVX-512 block kernel in [`crate::simd`] that replace it
/// at runtime.
#[inline(always)]
pub(crate) fn qgemm_tile_portable(
    a: &[i32],
    b: &[i32],
    taps: Taps<'_>,
    base: usize,
    acc: &mut [i32; MR * NR],
) {
    let pairs = taps.offsets().len();
    acc.fill(0);
    for (h, &t) in taps.offsets().iter().enumerate() {
        let step = &b[base + tap(t)..][..NR];
        for r in 0..MR {
            let w = a[r * pairs + h];
            let (x0, x1) = (i32::from(w as i16), w >> 16);
            let dst = &mut acc[r * NR..(r + 1) * NR];
            for (d, &b) in dst.iter_mut().zip(step) {
                *d += x0 * i32::from(b as i16) + x1 * (b >> 16);
            }
        }
    }
}

/// Packs both operands into pair words: A `(m, k)` row-major into
/// `awide` rows of `k.div_ceil(2)` words (the odd-depth tail's high half
/// and rows `m..mp` zero, so the microtile can always read a full `MR`
/// block), B `(k, n)` into `bwide` rows of `n` words, where word
/// `h * n + j` holds reduction pair `(2h, 2h+1)` of column `j`. The odd
/// tail's high half and the read slack past the last row are zero — the
/// scratch arena hands out zeroed buffers.
fn pack_pair_operands(
    a: &[i8],
    b: &[i8],
    awide: &mut [i32],
    bwide: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    let pairs = k.div_ceil(2);
    awide.fill(0);
    for (row, src_row) in awide.chunks_mut(pairs).zip(a.chunks(k)).take(m) {
        for (dst, src) in row.iter_mut().zip(src_row.chunks(2)) {
            *dst = pair_word(src[0], src.get(1).copied().unwrap_or(0));
        }
    }
    for (h, dst) in bwide.chunks_exact_mut(n).take(pairs).enumerate() {
        let lo = &b[2 * h * n..(2 * h + 1) * n];
        let hi = b.get((2 * h + 1) * n..(2 * h + 2) * n);
        for (j, (d, &l)) in dst.iter_mut().zip(lo).enumerate() {
            *d = pair_word(l, hi.map_or(0, |h| h[j]));
        }
    }
}

/// Int8 dot product with i32 accumulation (quantized dense hot loop).
/// Dispatches to the widest microkernel variant like [`crate::dot`].
#[must_use]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    crate::simd::dot_i8_dispatch(a, b)
}

/// Portable body behind [`dot_i8`]; re-instantiated by [`crate::simd`].
/// A lone horizontal reduction on purpose: this is the shape LLVM
/// vectorizes into sign-extend + `pmaddwd` chains (see module docs).
#[inline(always)]
pub(crate) fn dot_i8_body(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let t = Tensor::random(&[64], 3.0, 9);
        let q = QTensor::quantize_per_tensor(&t);
        let Quantization::PerTensor(p) = *q.quant() else {
            panic!("per-tensor quantization expected");
        };
        let back = q.dequantize();
        for (orig, rec) in t.as_slice().iter().zip(back.as_slice()) {
            assert!(
                (orig - rec).abs() <= 0.5 * p.scale + 1e-6,
                "{orig} -> {rec} exceeds scale/2 = {}",
                0.5 * p.scale
            );
        }
    }

    #[test]
    fn quantize_code_matches_the_saturating_round() {
        // The vector-friendly code must equal the plain formula on every
        // class of input: in range, ties, beyond the int8 range, beyond
        // the magic add's exact range, infinities, NaN and subnormals.
        for bits in (0u32..=u32::MAX).step_by(65_521) {
            let v = f32::from_bits(bits);
            for (inv, zp) in [(1.0f32, 0.0f32), (37.5, -12.0), (0.003, 100.0)] {
                let want = round_nearest(v * inv + zp) as i8;
                assert_eq!(quantize_code(v, inv, zp), want, "v={v} inv={inv} zp={zp}");
            }
        }
        for v in [
            0.5f32,
            1.5,
            -0.5,
            -2.5,
            126.5,
            127.5,
            -128.5,
            -129.0,
            1e30,
            f32::NAN,
        ] {
            assert_eq!(quantize_code(v, 1.0, 0.0), round_nearest(v) as i8, "v={v}");
        }
    }

    #[test]
    fn zero_is_exactly_representable() {
        // Padding correctness hinges on dequantize(zero_point) == 0.
        for (lo, hi) in [(-3.0, 5.0), (0.5, 9.0), (-7.0, -0.25), (0.0, 0.0)] {
            let p = QuantParams::from_min_max(lo, hi);
            let q = p.quantize_one(0.0);
            assert_eq!(i32::from(q), p.zero_point, "[{lo},{hi}]");
            assert_eq!(p.dequantize_one(q), 0.0, "[{lo},{hi}]");
        }
    }

    #[test]
    fn degenerate_and_non_finite_ranges_fall_back_to_identity() {
        for p in [
            QuantParams::from_min_max(0.0, 0.0),
            QuantParams::from_min_max(f32::NAN, f32::NAN),
            QuantParams::symmetric(0.0),
            QuantParams::symmetric(f32::INFINITY),
        ] {
            assert_eq!(p.scale, 1.0);
            assert_eq!(p.zero_point, 0);
        }
    }

    #[test]
    fn per_channel_scales_each_row_independently() {
        // Row 0 is tiny, row 1 huge: per-tensor would crush row 0 to
        // zero codes; per-channel must keep both accurate.
        let t = Tensor::from_vec(vec![0.01, -0.02, 0.03, 100.0, -200.0, 50.0], &[2, 3]).unwrap();
        let q = QTensor::quantize_per_channel(&t).unwrap();
        let back = q.dequantize();
        for (orig, rec) in t.as_slice().iter().zip(back.as_slice()) {
            let tol = 0.5 * orig.abs().max(0.02) / 127.0 * 2.0;
            assert!((orig - rec).abs() <= tol, "{orig} -> {rec}");
        }
        let Quantization::PerChannel(params) = q.quant() else {
            panic!("per-channel expected");
        };
        assert_eq!(params.len(), 2);
        assert!(params[1].scale > params[0].scale * 100.0);
    }

    /// Analytic elementwise error bound for int8 GEMM vs the f32 oracle:
    /// quantization error ≤ scale/2 per operand, propagated through the
    /// bilinear product.
    fn gemm_error_bound(
        w: &Tensor,
        x: &Tensor,
        w_scales: &[f32],
        sx: f32,
        i: usize,
        j: usize,
    ) -> f32 {
        let (m, k) = (w.dims()[0], w.dims()[1]);
        let n = x.dims()[1];
        debug_assert!(i < m && j < n);
        let wrow = &w.as_slice()[i * k..(i + 1) * k];
        let row_abs: f32 = wrow.iter().map(|v| v.abs()).sum();
        let col_abs: f32 = (0..k).map(|p| x.as_slice()[p * n + j].abs()).sum();
        0.5 * sx * row_abs + 0.5 * w_scales[i] * col_abs + 0.25 * (k as f32) * w_scales[i] * sx
    }

    fn check_qgemm_against_oracle(m: usize, k: usize, n: usize, relu: bool, seed: u64) {
        let w = Tensor::random(&[m, k], 1.5, seed);
        let x = Tensor::random(&[k, n], 2.0, seed + 7);
        let bias: Vec<f32> = (0..m).map(|i| (i as f32) * 0.1 - 0.3).collect();

        let qw = QTensor::quantize_per_channel(&w).unwrap();
        let Quantization::PerChannel(wp) = qw.quant().clone() else {
            panic!("per-channel expected");
        };
        let w_scales: Vec<f32> = wp.iter().map(|p| p.scale).collect();
        let rsums = row_sums(qw.as_slice(), m, k);

        let (lo, hi) = min_max(x.as_slice());
        let act = QuantParams::from_min_max(lo, hi);
        let mut qx = vec![0i8; k * n];
        quantize_into(x.as_slice(), &mut qx, act);

        let mut got = vec![0.0f32; m * n];
        let rq = Requant {
            w_scales: &w_scales,
            act,
            row_sums: &rsums,
            bias: Some(&bias),
            relu,
        };
        qgemm_requant_into(qw.as_slice(), &qx, &mut got, m, k, n, &rq);

        let mut want = vec![0.0f32; m * n];
        crate::gemm::gemm_into(w.as_slice(), x.as_slice(), &mut want, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut r = want[i * n + j] + bias[i];
                if relu {
                    r = r.max(0.0);
                }
                let bound = gemm_error_bound(&w, &x, &w_scales, act.scale, i, j) + 1e-4;
                let err = (got[i * n + j] - r).abs();
                assert!(
                    err <= bound,
                    "({m},{k},{n}) relu={relu} [{i},{j}]: err {err} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn qgemm_matches_f32_oracle_within_quantization_bound() {
        // Small path, blocked path, off-tile dims, odd k (pair tail).
        check_qgemm_against_oracle(3, 5, 7, false, 1);
        check_qgemm_against_oracle(37, 301, 29, false, 2);
        check_qgemm_against_oracle(16, 64, 33, true, 3);
        check_qgemm_against_oracle(5, 27, 50, true, 4);
    }

    #[test]
    fn qgemm_zero_k_applies_requant_of_zero() {
        let bias = [1.5f32, -2.0];
        let rq = Requant {
            w_scales: &[1.0, 1.0],
            act: QuantParams::from_min_max(-1.0, 1.0),
            row_sums: &[0, 0],
            bias: Some(&bias),
            relu: true,
        };
        let mut out = vec![9.0f32; 2 * 3];
        qgemm_requant_into(&[], &[], &mut out, 2, 0, 3, &rq);
        assert_eq!(out, vec![1.5, 1.5, 1.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "int8 reduction of 65536 codes reaches 65536")]
    fn qgemm_depth_stays_below_the_requant_bound() {
        // 65,535 codes run; 65,536, the first depth rejected, panic.
        let act = QuantParams::from_min_max(-1.0, 1.0);
        let rq = Requant {
            w_scales: &[1.0],
            act,
            row_sums: &[-(MAX_DEPTH as i32 - 1)],
            bias: None,
            relu: false,
        };
        let (a, b) = (vec![-1i8; MAX_DEPTH], vec![127i8; MAX_DEPTH]);
        let mut out = [f32::NAN];
        let k = MAX_DEPTH - 1;
        qgemm_requant_into(&a[..k], &b[..k], &mut out, 1, k, 1, &rq);
        assert_eq!(out[0].to_bits(), rq.apply(-127 * k as i32, 0).to_bits());
        qgemm_requant_into(&a, &b, &mut out, 1, MAX_DEPTH, 1, &rq);
    }

    #[test]
    fn dot_i8_matches_scalar_reference() {
        let a: Vec<i8> = (0..37).map(|i| (i * 7 % 255 - 128) as i8).collect();
        let b: Vec<i8> = (0..37).map(|i| (i * 13 % 255 - 127) as i8).collect();
        let want: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(dot_i8(&a, &b), want);
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn pair_words_hold_two_sign_extended_codes() {
        for (lo, hi) in [(0i8, 0i8), (-1, 1), (127, -128), (-128, -1), (5, 0)] {
            let w = pair_word(lo, hi);
            assert_eq!(
                (w as i16, w >> 16),
                (i16::from(lo), i32::from(hi)),
                "({lo}, {hi})"
            );
        }
    }

    #[test]
    fn pack_a_pairs_channels_at_each_tap() {
        // Two rows of 3 channels x 2 taps: word (pair, tap) holds
        // channels 2*pair and 2*pair + 1 at that tap, the odd third
        // channel pairs with a zero code, and rows pad to a whole MR
        // block plus MR more.
        let a: Vec<i8> = (1..=12).collect();
        let packed = qgemm_pack_a(&a, 2, 6, 2);
        assert_eq!(packed.len(), (MR + MR) * 4);
        let w = pair_word;
        assert_eq!(&packed[..4], &[w(1, 3), w(2, 4), w(5, 0), w(6, 0)]);
        assert_eq!(&packed[4..8], &[w(7, 9), w(8, 10), w(11, 0), w(12, 0)]);
        assert!(packed[8..].iter().all(|&v| v == 0));
        // One tap per channel is the adjacent-index pairing of
        // `qgemm_requant_into`.
        let plain = qgemm_pack_a(&a, 2, 6, 1);
        assert_eq!(&plain[..3], &[w(1, 2), w(3, 4), w(5, 6)]);
    }

    #[test]
    fn pack_bytes_bound_covers_the_actual_acquisition() {
        assert_eq!(qgemm_pack_bytes(0, 10, 10), 0);
        assert_eq!(qgemm_pack_bytes(10, 0, 10), 0);
        assert_eq!(qgemm_pack_bytes(10, 10, 0), 0);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (37, 300, 17),
            (64, 256, 128),
            (3, 7, 1000),
        ] {
            // The kernel acquires (mp*pairs + pairs*n + NR) operand words
            // and a pairs-entry tap table.
            let pairs = k.div_ceil(2);
            let mp = m.div_ceil(4) * 4;
            assert!(
                qgemm_pack_bytes(m, k, n) >= 4 * (mp * pairs + pairs * n + 16 + pairs),
                "({m},{k},{n})"
            );
        }
    }
}
