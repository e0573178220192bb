//! Runtime architecture dispatch for the GEMM and conv-lowering kernels.
//!
//! The blocked f32 sweep, the int8 sweep, the int8
//! quantize-and-pad pass and the pooling fold are written once as
//! portable safe Rust over fixed-size slices (see [`crate::gemm`],
//! [`crate::quant`] and [`crate::im2col`]). That shape is what LLVM's
//! auto-vectorizer wants, but the *width* it vectorizes to is fixed at
//! compile time by the baseline target (`x86-64` = SSE2: 4 f32 lanes).
//! This module re-compiles
//! the same bodies under `#[target_feature]` so the identical source
//! lowers to 8-lane AVX2+FMA and 16-lane AVX-512 code, and selects one
//! variant per process with `is_x86_feature_detected!`.
//!
//! The one exception to the re-instantiation pattern is the int8 sweep's
//! block kernel, which each variant's sweep runs inline: its
//! pair-broadcast `pmaddwd` shape is precisely what autovectorizers
//! never find from scalar code (measured ≤ f32 throughput), so the
//! AVX2 tile and the AVX-512 block kernel here are written with explicit
//! `core::arch` intrinsics. They read B's panel rows in place — straight
//! from a conv's padded map — through the sweep's row-offset table and
//! compute exact integer sums. The AVX2 tile hands its accumulators to
//! the portable write-back; the AVX-512 kernel computes up to four panels
//! per call and requantizes them in registers with the write-back's own
//! operations in its order, so both stay bit-identical to the portable
//! tile.
//!
//! # `unsafe` exception
//!
//! The workspace denies `unsafe_code`; this module carries the one
//! documented exception (`#![allow(unsafe_code)]` below). Rust's
//! `target_feature` rules (RFC 2396) make the annotated functions
//! themselves safe to *define* but unsafe to *call* from code not known
//! to have the feature, because running an AVX2 instruction on a CPU
//! without AVX2 is undefined behaviour. Every `unsafe` block in this file
//! is either exactly one such call guarded by the process-wide
//! [`kernel_arch`] value (which only ever reports an architecture whose
//! feature bits `is_x86_feature_detected!` observed at first use), or an
//! intrinsic load/store inside the int8 kernels whose bounds are
//! established by plain `assert!`s at the top of the function — for the
//! map loads, one per panel over the row-offset table's reach (its
//! largest entry, folded once per sweep by the only constructor of
//! [`Taps`]), so a map without its read slack fails the assert instead
//! of reading past its end — or, for the AVX-512 kernel's masked output
//! stores, by the bounds-checked slice each store targets.
//!
//! The selected variant can be pinned for tests and benchmarks with the
//! `EDGENN_SIMD` environment variable (`portable`, `avx2`, or `avx512`);
//! requesting a wider variant than the CPU supports falls back to the
//! widest safe one.
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::gemm::{tap, ARows, Epilogue, Grid, Panel};
use crate::quant::{Block, QuantParams, Requant, MR, NR};
use crate::{Conv2dGeometry, PoolKind};

/// Microkernel instruction-set variant selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelArch {
    /// Baseline build target (SSE2 on `x86-64`): guaranteed available.
    Portable,
    /// 8-lane f32 FMA / 8-lane i32 (requires `avx2` + `fma`).
    Avx2,
    /// 16-lane f32 / 16-lane i32 (requires `avx512f/bw/dq/vl`).
    Avx512,
}

impl KernelArch {
    /// Stable lowercase name, used in stats, docs, and `EDGENN_SIMD`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelArch::Portable => "portable",
            KernelArch::Avx2 => "avx2",
            KernelArch::Avx512 => "avx512",
        }
    }
}

static ARCH: OnceLock<KernelArch> = OnceLock::new();

/// The microkernel variant every GEMM in this process dispatches to.
///
/// Detected once on first use: the widest variant whose CPU feature bits
/// are present, optionally narrowed by the `EDGENN_SIMD` environment
/// variable. Detection is infallible and never returns a variant the CPU
/// cannot execute.
pub fn kernel_arch() -> KernelArch {
    *ARCH.get_or_init(detect)
}

/// Widest variant the CPU supports, ignoring `EDGENN_SIMD`.
fn widest_supported() -> KernelArch {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return KernelArch::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelArch::Avx2;
        }
    }
    KernelArch::Portable
}

fn detect() -> KernelArch {
    let widest = widest_supported();
    match std::env::var("EDGENN_SIMD").as_deref() {
        Ok("portable") => KernelArch::Portable,
        Ok("avx2") if widest != KernelArch::Portable => KernelArch::Avx2,
        // Unknown values and requests beyond the CPU keep the safe widest.
        _ => widest,
    }
}

/// Dispatches the blocked f32 sweep over B read in place
/// ([`crate::gemm::gemm_sweep`]) to the selected variant.
#[inline]
pub(crate) fn gemm_sweep_dispatch(
    a: ARows<'_>,
    b: &[f32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    ep: Epilogue<'_>,
) {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel_arch` returned this variant only after
        // `is_x86_feature_detected!` confirmed the features it enables.
        KernelArch::Avx2 => unsafe { gemm_sweep_avx2(a, b, taps, grid, out, m, ep) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for the avx512f/bw/dq/vl feature set.
        KernelArch::Avx512 => unsafe { gemm_sweep_avx512(a, b, taps, grid, out, m, ep) },
        _ => crate::gemm::gemm_sweep(a, b, taps, grid, out, m, ep),
    }
}

/// Dispatches the int8 sweep with its requant write-back
/// ([`crate::quant::qgemm_sweep`]).
#[inline]
pub(crate) fn qgemm_sweep_dispatch(
    awide: &[i32],
    b: &[i32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    rq: &Requant<'_>,
) {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guarded by the same detection as `gemm_sweep_dispatch`.
        KernelArch::Avx2 => unsafe { qgemm_sweep_avx2(awide, b, taps, grid, out, m, rq) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for the avx512f/bw/dq/vl feature set.
        KernelArch::Avx512 => unsafe { qgemm_sweep_avx512(awide, b, taps, grid, out, m, rq) },
        _ => qgemm_sweep_portable(awide, b, taps, grid, out, m, rq),
    }
}

/// The int8 sweep at baseline width: the portable tile, one panel at a
/// time, under the shared write-back.
fn qgemm_sweep_portable(
    awide: &[i32],
    b: &[i32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    rq: &Requant<'_>,
) {
    let block = |blk: Block<'_>, out: &mut [f32]| {
        crate::quant::tile_block(crate::quant::qgemm_tile_portable, blk, out);
    };
    crate::quant::qgemm_sweep(block, awide, b, taps, grid, out, m, rq);
}

/// Dispatches the int8 conv's quantize-into-padded-map pass
/// ([`crate::im2col::quantize_pad_pairs`]).
#[inline]
pub(crate) fn quantize_pad_pairs_dispatch(
    input: &[f32],
    g: &Conv2dGeometry,
    p: QuantParams,
    map: &mut [i32],
) {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guarded by the same detection as `gemm_sweep_dispatch`.
        KernelArch::Avx2 => unsafe { quantize_pad_pairs_avx2(input, g, p, map) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for the avx512f/bw/dq/vl feature set.
        KernelArch::Avx512 => unsafe { quantize_pad_pairs_avx512(input, g, p, map) },
        _ => crate::im2col::quantize_pad_pairs(input, g, p, map),
    }
}

/// Dispatches the pooling fold ([`crate::im2col::pool_planes`]).
#[inline]
pub(crate) fn pool_dispatch(input: &[f32], g: &Conv2dGeometry, kind: PoolKind, out: &mut [f32]) {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guarded by the same detection as `gemm_sweep_dispatch`.
        KernelArch::Avx2 => unsafe { pool_avx2(input, g, kind, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for the avx512f/bw/dq/vl feature set.
        KernelArch::Avx512 => unsafe { pool_avx512(input, g, kind, out) },
        _ => crate::im2col::pool_planes(input, g, kind, out),
    }
}

/// Dispatches the f32 dot product (dense-layer hot loop).
#[inline]
pub(crate) fn dot_dispatch(a: &[f32], b: &[f32]) -> f32 {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guarded by the same detection as `gemm_sweep_dispatch`.
        KernelArch::Avx2 => unsafe { dot_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for the avx512f/bw/dq/vl feature set.
        KernelArch::Avx512 => unsafe { dot_avx512(a, b) },
        _ => crate::gemm::dot_body(a, b),
    }
}

/// Dispatches the int8 dot product (quantized dense-layer hot loop).
#[inline]
pub(crate) fn dot_i8_dispatch(a: &[i8], b: &[i8]) -> i32 {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guarded by the same detection as `gemm_sweep_dispatch`.
        KernelArch::Avx2 => unsafe { dot_i8_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for the avx512f/bw/dq/vl feature set.
        KernelArch::Avx512 => unsafe { dot_i8_avx512(a, b) },
        _ => crate::quant::dot_i8_body(a, b),
    }
}

// The wrappers below contain no code of their own: each re-instantiates
// the shared `#[inline(always)]` portable body under wider target
// features, so LLVM re-vectorizes the identical safe source at the
// variant's lane width. The bodies are deliberately closure-free (the
// scratch arena is acquired by the caller): a closure would monomorphize
// once at baseline width and take the hot loops with it. The closures
// here, each int8 sweep's block kernel, are defined inside the wrapper
// and inherit its target features, so the kernel inlines into the sweep.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gemm_sweep_avx2(
    a: ARows<'_>,
    b: &[f32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    ep: Epilogue<'_>,
) {
    crate::gemm::gemm_sweep(a, b, taps, grid, out, m, ep);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn gemm_sweep_avx512(
    a: ARows<'_>,
    b: &[f32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    ep: Epilogue<'_>,
) {
    crate::gemm::gemm_sweep(a, b, taps, grid, out, m, ep);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn qgemm_sweep_avx2(
    awide: &[i32],
    b: &[i32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    rq: &Requant<'_>,
) {
    let block = |blk: Block<'_>, out: &mut [f32]| {
        let tile = |a: &_, b: &_, taps: Taps<'_>, base, acc: &mut _| {
            qgemm_tile_avx2(a, b, taps, base, acc);
        };
        crate::quant::tile_block(tile, blk, out);
    };
    crate::quant::qgemm_sweep(block, awide, b, taps, grid, out, m, rq);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn qgemm_sweep_avx512(
    awide: &[i32],
    b: &[i32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    rq: &Requant<'_>,
) {
    // Groups of 4 panels run whole, a group of 3 as 2 + 1.
    let block = |blk: Block<'_>, out: &mut [f32]| {
        let mut rest = blk.panels;
        if let Some((four, tail)) = rest.split_first_chunk::<4>() {
            qgemm_block_avx512(blk, four, out);
            rest = tail;
        }
        if let Some((two, tail)) = rest.split_first_chunk::<2>() {
            qgemm_block_avx512(blk, two, out);
            rest = tail;
        }
        if let Some((one, _)) = rest.split_first_chunk::<1>() {
            qgemm_block_avx512(blk, one, out);
        }
    };
    crate::quant::qgemm_sweep(block, awide, b, taps, grid, out, m, rq);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn quantize_pad_pairs_avx2(input: &[f32], g: &Conv2dGeometry, p: QuantParams, map: &mut [i32]) {
    crate::im2col::quantize_pad_pairs(input, g, p, map);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn quantize_pad_pairs_avx512(input: &[f32], g: &Conv2dGeometry, p: QuantParams, map: &mut [i32]) {
    crate::im2col::quantize_pad_pairs(input, g, p, map);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn pool_avx2(input: &[f32], g: &Conv2dGeometry, kind: PoolKind, out: &mut [f32]) {
    crate::im2col::pool_planes(input, g, kind, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn pool_avx512(input: &[f32], g: &Conv2dGeometry, kind: PoolKind, out: &mut [f32]) {
    crate::im2col::pool_planes(input, g, kind, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    crate::gemm::dot_body(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
    crate::gemm::dot_body(a, b)
}

/// An int8 sweep's tap table with its reach, the largest offset.
/// [`Taps::new`] is the only constructor and folds the reach from the
/// offsets, so the kernels below bound every B row they read,
/// `b[base + tap(t)..][..NR]`, by one check of `base + reach + NR`
/// against B's length.
#[derive(Clone, Copy)]
pub(crate) struct Taps<'a> {
    offsets: &'a [i32],
    reach: usize,
}

impl<'a> Taps<'a> {
    #[inline(always)]
    pub(crate) fn new(offsets: &'a [i32]) -> Taps<'a> {
        let reach = offsets.iter().fold(0u32, |r, &t| r.max(t as u32)) as usize;
        Taps { offsets, reach }
    }

    /// One offset per reduction pair.
    #[inline(always)]
    pub(crate) fn offsets(self) -> &'a [i32] {
        self.offsets
    }

    /// The largest offset (0 for an empty table).
    #[inline(always)]
    pub(crate) fn reach(self) -> usize {
        self.reach
    }
}

// Explicit-intrinsic int8 kernels. Both broadcast one A pair word
// (a[p]·, a[p+1]· as two i16 halves) and multiply it against a panel row
// of pair words with `pmaddwd` (a[p]·b[p][j] + a[p+1]·b[p+1][j] per i32
// lane), keeping MR independent accumulator sets per panel so the
// multiply latency overlaps across rows. Panel row h is read in place at
// b[base + tap(taps[h])]. The `assert!`s make every raw load below
// in-bounds, with reach = max_h tap(taps[h]) (folded once per sweep by
// `Taps::new`):
//   A word reads:  r*pairs + h               <  MR*pairs  for h < pairs, r < MR
//   B row reads:   base + tap(taps[h]) + 15  <  b.len()   since tap ≤ reach

/// The AVX-512 block kernel: the `MR x NR` lanes of `G` panels in 4·G
/// zmm accumulators, requantized in registers and stored run by run.
///
/// The requant is [`crate::quant::Requant::apply`]'s, operation for
/// operation: the difference `acc − corr` is exact in i32 (see
/// [`crate::quant::MAX_DEPTH`]), so converting it rounds the same integer
/// the portable i64 path converts; `scale · d` and `+ bias` round
/// separately, as the portable source does (no FMA); and the ReLU's
/// `v > 0 ? v : +0.0` is `_mm512_max_ps(v, 0)`, which returns its second
/// operand unless the first is greater (so NaN and `-0.0` give `+0.0`).
/// Each run is one masked store of exactly its lanes, compressed down
/// first when it starts mid-vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
#[inline]
fn qgemm_block_avx512<const G: usize>(blk: Block<'_>, panels: &[Panel; G], out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_loadu_si512, _mm512_madd_epi16,
        _mm512_mask_storeu_ps, _mm512_maskz_compress_ps, _mm512_max_ps, _mm512_mul_ps,
        _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps, _mm512_setzero_si512,
        _mm512_sub_epi32,
    };
    let (taps, n) = (blk.taps, blk.n);
    let pairs = taps.offsets().len();
    let bases = panels.map(|p| p.base);
    assert!(blk.a.len() >= MR * pairs);
    for base in bases {
        assert!(base + taps.reach() + NR <= blk.b.len());
    }
    let mut acc = [[_mm512_setzero_si512(); G]; MR];
    let (ap, bp) = (blk.a.as_ptr(), blk.b.as_ptr());
    for (h, &t) in taps.offsets().iter().enumerate() {
        // SAFETY: in-bounds by the asserts above; unaligned loads.
        unsafe {
            let bv = bases.map(|base| _mm512_loadu_si512(bp.add(base + tap(t)).cast()));
            for (r, acc) in acc.iter_mut().enumerate() {
                let p = _mm512_set1_epi32(*ap.add(r * pairs + h));
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm512_add_epi32(*acc, _mm512_madd_epi16(p, bv));
                }
            }
        }
    }
    let zero = _mm512_setzero_ps();
    // One expansion per row (MR = 4) and panel (G ≤ 4), so every
    // accumulator is named by constant indices: a loop over rows or
    // panels around the runs' store loop would send them to the stack.
    macro_rules! requant_row {
        ($r:literal: $($g:literal)*) => {
            if let Some(row) = blk.rq.get($r) {
                let out_row = &mut out[$r * n..][..n];
                // The difference fits in i32, so the wrapped correction gives it.
                let corr = _mm512_set1_epi32(row.corr);
                let (scale, bias) = (_mm512_set1_ps(row.scale), _mm512_set1_ps(row.bias));
                $(if let (Some(&acc), Some(panel)) = (acc[$r].get($g), panels.get($g)) {
                    let d = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, corr));
                    let mut v = _mm512_add_ps(_mm512_mul_ps(scale, d), bias);
                    if row.relu {
                        v = _mm512_max_ps(v, zero);
                    }
                    for run in panel.runs() {
                        let dst = &mut out_row[run.col..][..run.len];
                        let mask = lane_mask(dst.len());
                        let lanes = if run.lane == 0 {
                            v
                        } else {
                            _mm512_maskz_compress_ps(mask << run.lane, v)
                        };
                        // SAFETY: the mask enables lanes below `dst.len()` only.
                        unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask, lanes) };
                    }
                })*
            }
        };
    }
    requant_row!(0: 0 1 2 3);
    requant_row!(1: 0 1 2 3);
    requant_row!(2: 0 1 2 3);
    requant_row!(3: 0 1 2 3);
}

/// The mask of a vector's first `len` lanes (all of them from `NR` on).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_mask(len: usize) -> u16 {
    if len >= NR {
        u16::MAX
    } else {
        (1 << len) - 1
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn qgemm_tile_avx2(a: &[i32], b: &[i32], taps: Taps<'_>, base: usize, acc: &mut [i32; 64]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    let pairs = taps.offsets().len();
    assert!(a.len() >= 4 * pairs && base + taps.reach() + 16 <= b.len());
    let mut lo = [_mm256_setzero_si256(); 4];
    let mut hi = [_mm256_setzero_si256(); 4];
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for (h, &t) in taps.offsets().iter().enumerate() {
        // SAFETY: in-bounds by the assert above; unaligned loads. The
        // 16-word panel row is consumed as two 256-bit halves.
        unsafe {
            let row = bp.add(base + tap(t));
            let blo = _mm256_loadu_si256(row.cast());
            let bhi = _mm256_loadu_si256(row.add(8).cast());
            for (r, (l, h_acc)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let p = _mm256_set1_epi32(*ap.add(r * pairs + h));
                *l = _mm256_add_epi32(*l, _mm256_madd_epi16(p, blo));
                *h_acc = _mm256_add_epi32(*h_acc, _mm256_madd_epi16(p, bhi));
            }
        }
    }
    // SAFETY: `acc` is 64 i32s; each store writes 8 at offsets 0..=56.
    unsafe {
        for r in 0..4 {
            _mm256_storeu_si256(acc.as_mut_ptr().add(16 * r).cast(), lo[r]);
            _mm256_storeu_si256(acc.as_mut_ptr().add(16 * r + 8).cast(), hi[r]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    crate::quant::dot_i8_body(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn dot_i8_avx512(a: &[i8], b: &[i8]) -> i32 {
    crate::quant::dot_i8_body(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_named() {
        let a = kernel_arch();
        assert_eq!(a, kernel_arch(), "arch must be selected once per process");
        assert!(["portable", "avx2", "avx512"].contains(&a.name()));
    }

    #[test]
    fn docs_list_every_kernel_arch() {
        // Doc-sync contract (same pattern as the flight-recorder stage
        // table): the dispatch table in docs/perf.md must name every
        // KernelArch variant and the pinning env var, so a new variant
        // cannot land without its documentation row.
        let docs = include_str!("../../../docs/perf.md");
        for arch in [KernelArch::Portable, KernelArch::Avx2, KernelArch::Avx512] {
            assert!(
                docs.contains(&format!("`{arch:?}`")),
                "variant {arch:?} missing from docs/perf.md"
            );
        }
        for needle in ["EDGENN_SIMD", "zero_point", "Requantize", "calibration"] {
            assert!(docs.contains(needle), "{needle} missing from docs/perf.md");
        }
    }

    #[test]
    fn qgemm_tile_variants_agree_bitwise() {
        // The AVX2 tile against the portable one, independent of which
        // variant `kernel_arch` selected (the AVX-512 block kernel is
        // checked through its sweep below). Panel rows sit at scattered,
        // unsorted offsets, and the farthest one ends on B's last word.
        let word = |i: usize, s: usize| {
            let code = |j: usize| (((j * s) % 255) as i16 - 127) as i8;
            crate::quant::pair_word(code(2 * i), code(2 * i + 1))
        };
        for pairs in [1usize, 3, 24, 73] {
            let a: Vec<i32> = (0..4 * pairs).map(|i| word(i, 37)).collect();
            let offsets: Vec<i32> = (0..pairs)
                .map(|h| ((h * 29) % pairs * 17 + h % 3) as i32)
                .collect();
            let taps = Taps::new(&offsets);
            let base = 5;
            let b: Vec<i32> = (0..base + taps.reach() + 16).map(|i| word(i, 53)).collect();
            let mut want = [0i32; 64];
            crate::quant::qgemm_tile_portable(&a, &b, taps, base, &mut want);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut got = [1i32; 64];
                // SAFETY: feature presence checked on the line above.
                unsafe { qgemm_tile_avx2(&a, &b, taps, base, &mut got) };
                assert_eq!(got, want, "avx2 pairs={pairs}");
            }
        }
    }

    /// An output element's bits, so that NaNs and signed zeros compare
    /// by what is stored.
    trait Bits: Copy {
        fn bits(self) -> u32;
    }

    impl Bits for f32 {
        fn bits(self) -> u32 {
            self.to_bits()
        }
    }

    impl Bits for i32 {
        fn bits(self) -> u32 {
            self as u32
        }
    }

    /// Runs `portable`, then `variant` under each wider feature set the
    /// CPU has, on copies of the same output, and demands identical
    /// bits. The closures receive the arch they stand for.
    fn agree<T: Bits>(init: &[T], what: &str, mut run: impl FnMut(KernelArch, &mut [T])) {
        let mut want = init.to_vec();
        run(KernelArch::Portable, &mut want);
        #[cfg(target_arch = "x86_64")]
        for (arch, present) in [
            (
                KernelArch::Avx2,
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma"),
            ),
            (
                KernelArch::Avx512,
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl"),
            ),
        ] {
            if present {
                let mut got = init.to_vec();
                run(arch, &mut got);
                let same = got
                    .iter()
                    .map(|v| v.bits())
                    .eq(want.iter().map(|v| v.bits()));
                assert!(same, "{what}: {arch:?} differs from portable");
            }
        }
    }

    #[test]
    fn pool_variants_agree_bitwise() {
        // Each max arm of the fold (2/2, 3/2 padded, and 3/1 for the
        // rest) and the average's one arm over the same geometries, on
        // rows under, at and over 16 outputs wide.
        for kind in [PoolKind::Max, PoolKind::Avg] {
            for (k, s, p, in_w) in [(2, 2, 0, 17), (2, 2, 0, 32), (3, 2, 1, 45), (3, 1, 0, 9)] {
                let g = Conv2dGeometry {
                    in_channels: 2,
                    in_h: 7,
                    in_w,
                    kernel_h: k,
                    kernel_w: k,
                    stride_h: s,
                    stride_w: s,
                    pad_h: p,
                    pad_w: p,
                };
                let input = crate::Tensor::random(&[2, 7, in_w], 1.0, 9);
                let out = vec![f32::NAN; 2 * g.out_h() * g.out_w()];
                // SAFETY: `agree` only hands an arch to the closure after
                // detecting its features.
                agree(&out, "pool", |arch, out| match arch {
                    KernelArch::Avx2 => unsafe { pool_avx2(input.as_slice(), &g, kind, out) },
                    KernelArch::Avx512 => unsafe { pool_avx512(input.as_slice(), &g, kind, out) },
                    KernelArch::Portable => {
                        crate::im2col::pool_planes(input.as_slice(), &g, kind, out);
                    }
                });
            }
        }
    }

    #[test]
    fn sweep_and_quantize_variants_agree_bitwise() {
        // Padding, a stride that splits the map into phase planes, an
        // odd channel count and a ragged last panel.
        let g = Conv2dGeometry {
            in_channels: 3,
            in_h: 9,
            in_w: 11,
            kernel_h: 3,
            kernel_w: 3,
            stride_h: 1,
            stride_w: 2,
            pad_h: 1,
            pad_w: 1,
        };
        let input = crate::Tensor::random(&[3, 9, 11], 2.0, 5);
        let p = QuantParams::from_min_max(-2.0, 2.0);
        // SAFETY (every `unsafe` below): `agree` only hands an arch to
        // the closure after detecting its features.
        agree(
            &vec![7i32; g.pairs().map_len()],
            "quantize_pad_pairs",
            |arch, map| match arch {
                KernelArch::Avx2 => unsafe {
                    quantize_pad_pairs_avx2(input.as_slice(), &g, p, map);
                },
                KernelArch::Avx512 => unsafe {
                    quantize_pad_pairs_avx512(input.as_slice(), &g, p, map);
                },
                KernelArch::Portable => {
                    crate::im2col::quantize_pad_pairs(input.as_slice(), &g, p, map);
                }
            },
        );

        // Sweeps: more than one KC slab, rows off the MR grid, padded A;
        // a flat grid whose rows drop 2 of 10 columns (several runs per
        // panel) over a B with read slack, and one read to B's last
        // element.
        let (m, k) = (7usize, 300usize);
        let a = crate::Tensor::random(&[m, k], 1.0, 6);
        let padded = crate::gemm_pack_a(a.as_slice(), m, k);
        let a = ARows {
            data: &padded,
            lda: k,
        };
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.3 - 1.0).collect();
        let ep = Epilogue::BiasRelu { bias: &bias };
        let flush = Grid::flush(1, 37, 37).expect("wider than a panel");
        for (grid, row, slack) in [(Grid::new(4, 10, 8), 40, 16), (flush, 37, 0)] {
            let taps: Vec<i32> = (0..k).map(|r| (r * row) as i32).collect();
            let b: Vec<f32> = (0..k * row + slack)
                .map(|i| (i % 97) as f32 * 0.01 - 0.4)
                .collect();
            let n = grid.n();
            agree(&vec![0.5f32; m * n], "f32 sweep", |arch, out| match arch {
                KernelArch::Avx2 => unsafe { gemm_sweep_avx2(a, &b, &taps, grid, out, m, ep) },
                KernelArch::Avx512 => unsafe {
                    gemm_sweep_avx512(a, &b, &taps, grid, out, m, ep);
                },
                KernelArch::Portable => crate::gemm::gemm_sweep(a, &b, &taps, grid, out, m, ep),
            });
        }
        // Int8 sweeps: every group the block kernel runs (a by-row grid
        // of 9 panels in groups of 4, 4 and 1; a ragged flush one of 10,
        // whose last panel starts mid-vector; flat grids of 2 and 3
        // multi-run panels, the 3 running as 2 + 1; the flush row above),
        // rows on and off the MR grid, ReLU on and off, no bias, and
        // codes at the int8 extremes over enough pairs that the requant's
        // difference passes 2^24, where its rounding to f32 matters. Row 1
        // has no weights under a negative scale and a -0.0 bias (ReLU of
        // -0.0), row 2 a NaN scale (ReLU of NaN).
        let grids = [
            (Grid::new(9, 18, 16), 9 * 18, 16),
            (
                Grid::flush(5, 32, 31).expect("wider than a panel"),
                4 * 32 + 31,
                0,
            ),
            (Grid::new(3, 10, 8), 30, 16),
            (Grid::new(4, 10, 8), 40, 16),
            (flush, 37, 0),
        ];
        let scales: Vec<f32> = (0..12)
            .map(|i| match i {
                1 => -0.5,
                2 => f32::NAN,
                _ => 0.37 + 0.01 * i as f32,
            })
            .collect();
        let bias: Vec<f32> = (0..12)
            .map(|i| if i == 1 { -0.0 } else { i as f32 * 0.3 - 1.0 })
            .collect();
        let (lo, hi) = (|w: i32| i64::from(w as i16), |w: i32| i64::from(w >> 16));
        for (pairs, zp) in [(19usize, -3), (400, -128), (400, 128)] {
            let word = |a, i: usize| {
                crate::quant::pair_word(int8_code(a, zp, 2 * i), int8_code(a, zp, 2 * i + 1))
            };
            // Twelve rows: row 1 zero, the ones past `m` A's padding.
            let awide: Vec<i32> = (0..12 * pairs)
                .map(|i| if i / pairs == 1 { 0 } else { word(true, i) })
                .collect();
            let sums: Vec<i32> = awide
                .chunks(pairs)
                .map(|row| row.iter().map(|&w| (lo(w) + hi(w)) as i32).sum())
                .collect();
            let act = QuantParams {
                scale: 0.0173,
                zero_point: zp,
            };
            for (grid, row, slack) in grids {
                let taps: Vec<i32> = (0..pairs).map(|h| (h * row) as i32).collect();
                let bw: Vec<i32> = (0..pairs * row + slack).map(|i| word(false, i)).collect();
                if zp.abs() == 128 {
                    // Row 0's first output column: Σ Wq·(Xq − z_x).
                    let zp = i64::from(zp);
                    let d: i64 = (0..pairs)
                        .map(|h| {
                            let (w, x) = (awide[h], bw[h * row]);
                            lo(w) * (lo(x) - zp) + hi(w) * (hi(x) - zp)
                        })
                        .sum();
                    assert!(d.abs() > 1 << 24, "difference {d} rounds exactly");
                }
                let n = grid.n();
                for m in [1, 4, 7, 9] {
                    let bias = Some(&bias[..m]);
                    for (relu, bias) in [(true, bias), (false, bias), (false, None)] {
                        let rq = Requant {
                            w_scales: &scales[..m],
                            act,
                            row_sums: &sums[..m],
                            bias,
                            relu,
                        };
                        let what = format!("int8 sweep pairs={pairs} zp={zp} n={n} m={m}");
                        agree(&vec![f32::NAN; m * n], &what, |arch, out| match arch {
                            KernelArch::Avx2 => unsafe {
                                qgemm_sweep_avx2(&awide, &bw, &taps, grid, out, m, &rq);
                            },
                            KernelArch::Avx512 => unsafe {
                                qgemm_sweep_avx512(&awide, &bw, &taps, grid, out, m, &rq);
                            },
                            KernelArch::Portable => {
                                qgemm_sweep_portable(&awide, &bw, &taps, grid, out, m, &rq);
                            }
                        });
                    }
                }
            }
        }
    }

    /// Code `j` of the int8 sweep test's A (`a`) or B: spread over every
    /// value for a small zero-point; at the extremes for `zp = ±128`, A
    /// mostly -128 and B mostly the code farthest from `zp`.
    fn int8_code(a: bool, zp: i32, j: usize) -> i8 {
        let far: i8 = if zp < 0 { 127 } else { -128 };
        match (a, zp.abs() == 128) {
            (true, false) => ((j * 37) % 256) as u8 as i8,
            (false, false) => ((j * 53) % 256) as u8 as i8,
            (true, true) => match j % 16 {
                0 => 127,
                8 => -127,
                _ => -128,
            },
            (false, true) if j % 32 == 5 => -1 - far,
            (false, true) => far,
        }
    }

    #[test]
    fn widest_supported_is_executable_here() {
        // Smoke: run a tiny product through the dispatched kernel. If
        // detection ever over-reports, this dies with SIGILL rather than
        // returning a wrong answer.
        let a = vec![1.0f32; 8];
        let b = vec![2.0f32; 8];
        assert!((dot_dispatch(&a, &b) - 16.0).abs() < 1e-6);
        let qa = vec![3i8; 8];
        let qb = vec![-2i8; 8];
        assert_eq!(dot_i8_dispatch(&qa, &qb), -48);
    }
}
