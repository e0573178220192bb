//! Runtime architecture dispatch for the GEMM and conv-lowering kernels.
//!
//! The blocked f32 sweep, the int8 microtile sweep, the int8
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
//! The one exception to the re-instantiation pattern is the int8
//! microtile, which each variant's int8 sweep runs inline: its
//! pair-broadcast `pmaddwd` shape is precisely what autovectorizers
//! never find from scalar code (measured ≤ f32 throughput), so the
//! AVX2/AVX-512 variants here are written with explicit `core::arch`
//! intrinsics. They read B's panel rows in place — straight from a
//! conv's padded map — through the sweep's row-offset table, and compute
//! exact integer results, so they remain bit-identical to the portable
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
//! intrinsic load/store inside the int8 microtiles whose bounds are
//! established by plain `assert!`s at the top of the function — for the
//! map loads, one over the largest entry of the row-offset table, so a
//! map without its read slack fails the assert instead of reading past
//! its end.
//!
//! The selected variant can be pinned for tests and benchmarks with the
//! `EDGENN_SIMD` environment variable (`portable`, `avx2`, or `avx512`);
//! requesting a wider variant than the CPU supports falls back to the
//! widest safe one.
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::gemm::{tap, ARows, Epilogue, Grid};
use crate::quant::{QuantParams, Requant};
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

/// Dispatches the int8 microtile sweep with its requant write-back
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
        _ => {
            let tile = crate::quant::qgemm_tile_portable;
            crate::quant::qgemm_sweep(tile, awide, b, taps, grid, out, m, rq);
        }
    }
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
// once at baseline width and take the hot loops with it. The one closure
// here, each int8 sweep's tile, is defined inside the wrapper and
// inherits its target features, so the tile inlines into the sweep.
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
    let tile = |a: &_, b: &_, taps: &_, base, acc: &mut _| {
        qgemm_tile_avx2(a, b, taps, base, acc);
    };
    crate::quant::qgemm_sweep(tile, awide, b, taps, grid, out, m, rq);
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
    let tile = |a: &_, b: &_, taps: &_, base, acc: &mut _| {
        qgemm_tile_avx512(a, b, taps, base, acc);
    };
    crate::quant::qgemm_sweep(tile, awide, b, taps, grid, out, m, rq);
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

// Explicit-intrinsic int8 microtiles. Both variants broadcast one A
// pair word (a[p]·, a[p+1]· as two i16 halves) and multiply it against a
// panel row of pair words with `pmaddwd` (a[p]·b[p][j] + a[p+1]·b[p+1][j]
// per i32 lane), keeping MR independent accumulator sets so the
// multiply latency overlaps across rows. Panel row h is read in place at
// b[base + tap(taps[h])]. The `assert!`s make every raw load below
// in-bounds, with reach = max_h tap(taps[h]) (one vectorized fold per
// tile, instead of a check per row):
//   A word reads:  r*pairs + h               <  MR*pairs  for h < pairs, r < MR
//   B row reads:   base + tap(taps[h]) + 15  <  b.len()   since tap ≤ reach
// The i32 stores target the fixed-size `acc` array by construction.

/// The largest offset in a tap table (0 for an empty one).
#[inline(always)]
fn reach(taps: &[i32]) -> usize {
    taps.iter().fold(0u32, |r, &t| r.max(t as u32)) as usize
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
#[inline]
fn qgemm_tile_avx512(a: &[i32], b: &[i32], taps: &[i32], base: usize, acc: &mut [i32; 64]) {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_loadu_si512, _mm512_madd_epi16, _mm512_set1_epi32,
        _mm512_setzero_si512, _mm512_storeu_si512,
    };
    let pairs = taps.len();
    assert!(a.len() >= 4 * pairs && base + reach(taps) + 16 <= b.len());
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    let mut acc2 = _mm512_setzero_si512();
    let mut acc3 = _mm512_setzero_si512();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for (h, &t) in taps.iter().enumerate() {
        // SAFETY: in-bounds by the assert above; unaligned loads.
        unsafe {
            let bv = _mm512_loadu_si512(bp.add(base + tap(t)).cast());
            let p0 = _mm512_set1_epi32(*ap.add(h));
            let p1 = _mm512_set1_epi32(*ap.add(pairs + h));
            let p2 = _mm512_set1_epi32(*ap.add(2 * pairs + h));
            let p3 = _mm512_set1_epi32(*ap.add(3 * pairs + h));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(p0, bv));
            acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(p1, bv));
            acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(p2, bv));
            acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(p3, bv));
        }
    }
    // SAFETY: `acc` is 64 i32s; each store writes 16 at offsets 0..=48.
    unsafe {
        _mm512_storeu_si512(acc.as_mut_ptr().cast(), acc0);
        _mm512_storeu_si512(acc.as_mut_ptr().add(16).cast(), acc1);
        _mm512_storeu_si512(acc.as_mut_ptr().add(32).cast(), acc2);
        _mm512_storeu_si512(acc.as_mut_ptr().add(48).cast(), acc3);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn qgemm_tile_avx2(a: &[i32], b: &[i32], taps: &[i32], base: usize, acc: &mut [i32; 64]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    let pairs = taps.len();
    assert!(a.len() >= 4 * pairs && base + reach(taps) + 16 <= b.len());
    let mut lo = [_mm256_setzero_si256(); 4];
    let mut hi = [_mm256_setzero_si256(); 4];
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for (h, &t) in taps.iter().enumerate() {
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
        // Exercise every variant the CPU can run against the portable
        // tile, independent of which one `kernel_arch` selected. Panel
        // rows sit at scattered, unsorted offsets, and the farthest one
        // ends on B's last word.
        let word = |i: usize, s: usize| {
            let code = |j: usize| (((j * s) % 255) as i16 - 127) as i8;
            crate::quant::pair_word(code(2 * i), code(2 * i + 1))
        };
        for pairs in [1usize, 3, 24, 73] {
            let a: Vec<i32> = (0..4 * pairs).map(|i| word(i, 37)).collect();
            let taps: Vec<i32> = (0..pairs)
                .map(|h| ((h * 29) % pairs * 17 + h % 3) as i32)
                .collect();
            let base = 5;
            let b: Vec<i32> = (0..base + reach(&taps) + 16).map(|i| word(i, 53)).collect();
            let mut want = [0i32; 64];
            crate::quant::qgemm_tile_portable(&a, &b, &taps, base, &mut want);
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut got = [1i32; 64];
                    // SAFETY: feature presence checked on the line above.
                    unsafe { qgemm_tile_avx2(&a, &b, &taps, base, &mut got) };
                    assert_eq!(got, want, "avx2 pairs={pairs}");
                }
                if std::arch::is_x86_feature_detected!("avx512bw") {
                    let mut got = [2i32; 64];
                    // SAFETY: feature presence checked on the line above.
                    unsafe { qgemm_tile_avx512(&a, &b, &taps, base, &mut got) };
                    assert_eq!(got, want, "avx512 pairs={pairs}");
                }
            }
        }
    }

    /// Runs `portable`, then `variant` under each wider feature set the
    /// CPU has, on copies of the same output, and demands identical
    /// bits. The closures receive the arch they stand for.
    fn agree<T: Clone + PartialEq + std::fmt::Debug>(
        init: &[T],
        what: &str,
        mut run: impl FnMut(KernelArch, &mut [T]),
    ) {
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
                assert!(got == want, "{what}: {arch:?} differs from portable");
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
        let pairs_k = 19;
        let word = |i: usize, s: usize| {
            let code = |j: usize| ((j * s) % 256) as u8 as i8;
            crate::quant::pair_word(code(2 * i), code(2 * i + 1))
        };
        let awide: Vec<i32> = (0..8 * pairs_k).map(|i| word(i, 37)).collect();
        let grid = Grid::new(4, 10, 8);
        let n = grid.n();
        let taps: Vec<i32> = (0..pairs_k).map(|h| (h * 40) as i32).collect();
        let bw: Vec<i32> = (0..pairs_k * 40 + 16).map(|i| word(i, 53)).collect();
        let sums: Vec<i32> = (0..m as i32).map(|i| i * 3 - 5).collect();
        let rq = Requant {
            w_scales: &bias,
            act: p,
            row_sums: &sums,
            bias: Some(&bias),
            relu: true,
        };
        agree(
            &vec![f32::NAN; m * n],
            "int8 sweep",
            |arch, out| match arch {
                KernelArch::Avx2 => unsafe {
                    qgemm_sweep_avx2(&awide, &bw, &taps, grid, out, m, &rq);
                },
                KernelArch::Avx512 => unsafe {
                    qgemm_sweep_avx512(&awide, &bw, &taps, grid, out, m, &rq);
                },
                KernelArch::Portable => {
                    let tile = crate::quant::qgemm_tile_portable;
                    crate::quant::qgemm_sweep(tile, &awide, &bw, &taps, grid, out, m, &rq);
                }
            },
        );
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
