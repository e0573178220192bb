//! Matrix multiplication kernels.
//!
//! Convolutions in `edgenn-nn` lower to this GEMM as an implicit GEMM
//! ([`crate::conv_gemm_into`]), so this is the hot loop of the functional
//! execution path. The fast path is a cache-blocked kernel in the BLIS
//! style: an `MR x NR` register-tiled microkernel sweeps the output in
//! `NR`-column panels and `KC`-deep reduction slabs, accumulating into
//! local arrays that LLVM keeps in vector registers. B is never packed
//! into panels: the sweep reads each panel row in place, `NR` contiguous
//! elements at `b[taps[r] + base]`, through a table of reduction-row
//! offsets and a [`Grid`] that places the panels and drops the columns
//! no output owns. [`gemm_into_fused`] hands it B row-major (a copy with
//! read slack); the conv lowering hands it a padded input map. A always
//! comes padded to whole `MR`-row blocks ([`gemm_pack_a`]), read in place
//! by row and by column window. Every loop is over fixed-size safe
//! slices, so the whole kernel auto-vectorizes without `unsafe` — and the
//! same safe body is re-instantiated under `#[target_feature]` by
//! [`crate::simd`], which picks the widest variant (AVX2+FMA, AVX-512)
//! the CPU supports once per process.
//!
//! Epilogues (bias add, bias+ReLU) run *inside* the microkernel's
//! write-back loop via [`Epilogue`], while the output tile is still in
//! registers, instead of as separate passes over the output.
//!
//! [`naive_gemm`] keeps the original textbook triple loop as the
//! differential-test oracle: every optimized path must match it within
//! fp32 re-association tolerance (see `tests/proptests.rs`).

use edgenn_obs::flight;

use crate::scratch::with_scratch;
use crate::{Result, Tensor, TensorError};

/// Rows of the register microtile (output rows accumulated at once).
const MR: usize = 4;
/// Columns of the register microtile (one panel width; two f32x8 lanes).
/// The int8 kernel shares this panel width and the [`Grid`] with it.
const NR: usize = crate::quant::NR;
/// Reduction-dimension block: one panel slab is `KC x NR` = 16 KiB.
const KC: usize = 256;
/// Output-row block: an `MC x KC` slab of A stays resident in L2.
const MC: usize = 64;

/// Operation fused into the GEMM write-back loop.
///
/// Let `t` be the fully accumulated product for one output element of
/// row `i` (whatever `out` held before is overwritten). The epilogue maps
/// `t` to the stored value while the tile is still in registers:
///
/// | variant    | stored value                  |
/// |------------|-------------------------------|
/// | `None`     | `t`                           |
/// | `Bias`     | `t + bias[i]`                 |
/// | `BiasRelu` | `max(t + bias[i], 0)`         |
///
/// `bias` is indexed by output *row* (the conv output channel / dense
/// unit).
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// The plain product, as [`gemm_into`] stores it.
    None,
    /// Per-row bias add fused into the write-back.
    Bias {
        /// One bias value per output row (`len == m`).
        bias: &'a [f32],
    },
    /// Per-row bias add plus ReLU clamp fused into the write-back.
    BiasRelu {
        /// One bias value per output row (`len == m`).
        bias: &'a [f32],
    },
}

impl Epilogue<'_> {
    /// Applies the epilogue to one accumulated element of output row `i`.
    #[inline(always)]
    fn apply(&self, t: f32, i: usize) -> f32 {
        match *self {
            Epilogue::None => t,
            Epilogue::Bias { bias } => t + bias[i],
            Epilogue::BiasRelu { bias } => (t + bias[i]).max(0.0),
        }
    }

    /// Asserts the operand lengths promised by the variant docs.
    fn debug_check(&self, m: usize) {
        if let Epilogue::Bias { bias } | Epilogue::BiasRelu { bias } = *self {
            debug_assert_eq!(bias.len(), m, "bias must have one entry per output row");
        }
    }
}

/// Multiplies two rank-2 tensors: `(m, k) x (k, n) -> (m, n)`.
///
/// # Errors
/// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
/// and [`TensorError::MatmulDimMismatch`] when the inner dimensions differ.
pub fn gemm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: b.shape().rank(),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (k2, n),
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_into(a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Reference triple-loop GEMM, kept as the differential-test oracle for
/// the blocked kernel. `(m, k) x (k, n) -> (m, n)`.
///
/// # Errors
/// Same shape requirements as [`gemm`].
pub fn naive_gemm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.shape().rank() != 2 {
                a.shape().rank()
            } else {
                b.shape().rank()
            },
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (k2, n),
        });
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += av[i * k + p] * bv[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Scratch-arena elements (4 bytes each) [`gemm_into`] acquires for a
/// `(m, k) x (k, n)` product: A padded to whole `MR`-row blocks, a copy
/// of B followed by `NR` floats of read slack, and the `k`-entry
/// row-offset table the sweep reads it through — the static bound the
/// tier-D ownership analyzer certifies against measured arena growth.
#[must_use]
pub fn gemm_pack_elems(m: usize, k: usize, n: usize) -> usize {
    if m == 0 || n == 0 || k == 0 {
        return 0;
    }
    m.div_ceil(MR) * MR * k + k * n + NR + k
}

/// Raw blocked GEMM on slices: writes `a * b` into `out`, which must hold
/// `m * n` elements and is overwritten.
///
/// Exposed so that layer kernels can run the hot loop directly on weight
/// sub-slices and scratch-arena buffers without re-wrapping tensors.
pub fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into_fused(a, b, out, m, k, n, Epilogue::None);
}

/// Length of the buffer [`gemm_pack_a`] produces for an `(m, k)` matrix.
#[must_use]
pub fn gemm_packed_a_len(m: usize, k: usize) -> usize {
    (m.div_ceil(MR) * MR + MR) * k
}

/// Copies an `(m, k)` row-major A matrix into the one layout the blocked
/// kernel reads: the same row-major rows, zero-padded with enough
/// trailing rows that any window of it — rows from `start`, columns from
/// `c`, `&packed[start * k + c..]` at row stride `k` — exposes whole
/// `MR`-row microtile blocks. The sweep runs the register-tiled
/// microkernel over remainder rows too and writes back only the real
/// ones; each row's accumulation order does not depend on its block.
///
/// Mirrors [`crate::qgemm_pack_a`]'s padding contract (an extra `MR` rows
/// beyond the round-up) so weights packed once serve every output- and
/// input-channel partial of a conv in place.
#[must_use]
pub fn gemm_pack_a(a: &[f32], m: usize, k: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    let mut packed = vec![0.0f32; gemm_packed_a_len(m, k)];
    packed[..m * k].copy_from_slice(a);
    packed
}

/// [`gemm_into`] with an [`Epilogue`] fused into the write-back loop:
/// `out = ep(a*b)`, so `Epilogue::Bias` computes `a*b + bias` in one pass
/// with no separate bias sweep over the output. `a` is row-major (its
/// first `m * k` elements are read); it is copied into scratch padded to
/// whole `MR`-row blocks, as B is copied to give its reads slack.
pub fn gemm_into_fused(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
) {
    debug_assert!(a.len() >= m * k, "A must hold at least m*k elements");
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    ep.debug_check(m);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // An empty product: the epilogue alone maps zero.
        for (i, row) in out.chunks_mut(n).enumerate() {
            row.fill(ep.apply(0.0, i));
        }
        return;
    }
    // The scratch acquisition happens here, outside the dispatched sweep:
    // the sweep must be a closure-free straight line so it inlines whole
    // into the `#[target_feature]` wrappers and re-vectorizes (a closure
    // would monomorphize once, at baseline width, and the hot loops with
    // it).
    let phases = Phases::start();
    with_scratch(k, |taps: &mut [i32]| {
        with_scratch(m.div_ceil(MR) * MR * k, |apad: &mut [f32]| {
            with_scratch(k * n + NR, |bmap: &mut [f32]| {
                apad[..m * k].copy_from_slice(&a[..m * k]);
                bmap[..k * n].copy_from_slice(b);
                fill_taps(taps, (0..k).map(|r| r * n));
                let phases = phases.packed();
                let (a, grid) = (ARows { data: apad, lda: k }, Grid::new(1, n, n));
                crate::simd::gemm_sweep_dispatch(a, bmap, taps, grid, out, m, ep);
                phases.finish(((apad.len() + bmap.len()) * 4) as u64);
            });
        });
    });
}

/// The sweep's left operand: row `i` starts at `data[i * lda]` and is
/// read over the reduction depth. `data` holds whole `MR`-row blocks
/// ([`gemm_pack_a`]'s padding), so the microkernel runs remainder rows
/// too; a row stride wider than the depth reads a window of columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ARows<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) lda: usize,
}

/// Most write-back runs one panel can hold: one per output row its `NR`
/// lanes touch, and a grid whose rows carry dropped columns has a pitch
/// of at least 2 (a grid without them merges into one run).
const MAX_RUNS: usize = NR / 2 + 1;

/// Lanes `lane..lane + len` of a panel hold output columns
/// `col..col + len`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) lane: usize,
    pub(crate) len: usize,
    pub(crate) col: usize,
}

/// Where the sweeps' `NR`-column panels read B and write the output.
///
/// B is read in place: reduction row `r` of grid column `j` is
/// `b[taps[r] + j]`. The grid has `rows` rows of `pitch` columns, grid
/// column `j = oy * pitch + ox` is output column `oy * width + ox`, and
/// columns with `ox >= width` — the conv map's border positions — are
/// never written back. The grid ends at the last output column,
/// `(rows - 1) * pitch + width`.
///
/// A panel owns up to `NR` consecutive grid columns and reads `NR` lanes
/// from its first one. The panels either tile the grid flat, `NR`
/// columns each, crossing rows (and computing the border columns between
/// them), or start at every output row's first column, `NR` output
/// columns each, the last one of a row ragged — whichever takes fewer
/// panels, rows first on a tie: a row-aligned panel's lanes land in one
/// run. The last panel of a [`Grid::flush`] grid starts early so its
/// reads end on the grid's last column; lanes an earlier panel owns are
/// then not written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid {
    rows: usize,
    pitch: usize,
    width: usize,
    /// Grid column the last panel reads from.
    last: usize,
    /// Whether panels start at each output row's first column.
    by_row: bool,
}

impl Grid {
    /// A grid over a B that holds `NR` elements of read slack past the
    /// last row's end: every panel reads from its own first column.
    pub(crate) fn new(rows: usize, pitch: usize, width: usize) -> Grid {
        debug_assert!(rows > 0 && width > 0 && width <= pitch);
        let end = (rows - 1) * pitch + width;
        let by_row = rows * width.div_ceil(NR) <= end.div_ceil(NR);
        let last = if by_row {
            (rows - 1) * pitch + (width - 1) / NR * NR
        } else {
            (end.div_ceil(NR) - 1) * NR
        };
        Grid {
            rows,
            pitch,
            width,
            last,
            by_row,
        }
    }

    /// A grid over a B without read slack, whose last reduction row ends
    /// on the grid's last column; `None` when the grid is narrower than
    /// one panel.
    pub(crate) fn flush(rows: usize, pitch: usize, width: usize) -> Option<Grid> {
        let grid = Grid::new(rows, pitch, width);
        let end = grid.end();
        (end >= NR).then(|| Grid {
            last: end - NR,
            ..grid
        })
    }

    /// One past the last grid column an output owns.
    fn end(&self) -> usize {
        (self.rows - 1) * self.pitch + self.width
    }

    /// Output columns: `rows * width`.
    pub(crate) fn n(&self) -> usize {
        self.rows * self.width
    }

    /// The panels, in order.
    pub(crate) fn panels(&self) -> Panels {
        Panels {
            grid: *self,
            own: 0,
            oy: 0,
            ox: 0,
        }
    }
}

/// One panel of a [`Grid`]: the grid column its reads start at, and the
/// runs of lanes its write-back stores (the first `count`).
#[derive(Clone, Copy, Default)]
pub(crate) struct Panel {
    pub(crate) base: usize,
    runs: [Run; MAX_RUNS],
    count: usize,
}

impl Panel {
    /// The write-back runs.
    #[inline(always)]
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs[..self.count]
    }
}

/// The panels of a [`Grid`] in order, stepping the output row and column
/// of each panel's first owned grid column without a division.
pub(crate) struct Panels {
    grid: Grid,
    /// First grid column the next panel owns, at output `(oy, ox)`.
    own: usize,
    oy: usize,
    ox: usize,
}

impl Iterator for Panels {
    type Item = Panel;

    #[inline(always)]
    fn next(&mut self) -> Option<Panel> {
        let Grid {
            rows,
            pitch,
            width,
            last,
            by_row,
        } = self.grid;
        let mut panel = Panel::default();
        if by_row {
            if self.oy == rows {
                return None;
            }
            let (oy, ox) = (self.oy, self.ox);
            let own = oy * pitch + ox;
            panel.base = own.min(last);
            panel.runs[0] = Run {
                lane: own - panel.base,
                len: (width - ox).min(NR),
                col: oy * width + ox,
            };
            panel.count = 1;
            self.ox += NR;
            if self.ox >= width {
                (self.oy, self.ox) = (oy + 1, 0);
            }
            return Some(panel);
        }
        let end = (self.own + NR).min(self.grid.end());
        if self.own >= end {
            return None;
        }
        let base = self.own.min(last);
        panel.base = base;
        let (mut j, mut oy, mut ox) = (self.own, self.oy, self.ox);
        while j < end {
            // An output stretch of the row, or the dropped columns after it.
            let step = if ox < width {
                let len = (width - ox).min(end - j);
                let (lane, col) = (j - base, oy * width + ox);
                match panel.runs[..panel.count].last_mut() {
                    // Rows without dropped columns continue the run.
                    Some(prev) if prev.lane + prev.len == lane && prev.col + prev.len == col => {
                        prev.len += len;
                    }
                    _ => {
                        panel.runs[panel.count] = Run { lane, len, col };
                        panel.count += 1;
                    }
                }
                len
            } else {
                (pitch - ox).min(end - j)
            };
            j += step;
            ox += step;
            if ox == pitch {
                (oy, ox) = (oy + 1, 0);
            }
        }
        (self.own, self.oy, self.ox) = (j, oy, ox);
        Some(panel)
    }
}

/// Writes `offsets` into a tap table. Entries are `u32` offsets held in
/// the i32 arena; [`tap`] reads them back.
#[inline(always)]
pub(crate) fn fill_taps(taps: &mut [i32], offsets: impl Iterator<Item = usize>) {
    for (t, off) in taps.iter_mut().zip(offsets) {
        *t = u32::try_from(off).expect("B offsets fit in 32 bits") as i32;
    }
}

/// A tap-table entry as an offset into B.
#[inline(always)]
pub(crate) fn tap(t: i32) -> usize {
    t as u32 as usize
}

/// The blocked sweep behind [`gemm_into_fused`] and
/// [`crate::conv_gemm_into`]: `out = ep(a * B)` over the `m` rows of `a`,
/// where reduction row `r` of B is read in place at `b[taps[r] + j]` for
/// grid column `j` (see [`Grid`]), so `k = taps.len()`. The reduction
/// runs in `KC`-deep slabs, each accumulated from zero in registers; the
/// first slab stores `0.0 + acc` over whatever `out` held and every later
/// one adds to it, so every element's summation order is fixed by `k`
/// alone, whatever the layout of B — the bits of an accumulation into a
/// zeroed `out`, `-0.0` included. Rows run in whole `MR` blocks, the last
/// one reading A's padding rows and writing back only the real ones.
///
/// `pub(crate)` + `#[inline(always)]` so [`crate::simd`] can re-compile
/// the identical safe source under wider `#[target_feature]` sets.
#[inline(always)]
pub(crate) fn gemm_sweep(
    a: ARows<'_>,
    b: &[f32],
    taps: &[i32],
    grid: Grid,
    out: &mut [f32],
    m: usize,
    ep: Epilogue<'_>,
) {
    let (k, n) = (taps.len(), grid.n());
    for kb in (0..k).step_by(KC) {
        let slab = &taps[kb..(kb + KC).min(k)];
        // The epilogue must fire exactly once per element, after the
        // last KC slab has been accumulated.
        let slab_ep = if kb + slab.len() == k {
            ep
        } else {
            Epilogue::None
        };
        for mb in (0..m).step_by(MC) {
            let mc = MC.min(m - mb);
            for panel in grid.panels() {
                let tile = Tile {
                    b,
                    slab,
                    base: panel.base,
                    kb,
                    lda: a.lda,
                    n,
                    runs: panel.runs(),
                    ep: slab_ep,
                };
                let mut i0 = 0;
                while i0 + MR <= mc {
                    microkernel(a.data, &tile, out, mb + i0, MR);
                    i0 += MR;
                }
                if i0 < mc {
                    microkernel(a.data, &tile, out, mb + i0, mc - i0);
                }
            }
        }
    }
}

/// One panel's share of one `KC` slab: the B rows it reads and where its
/// lanes land.
struct Tile<'a> {
    b: &'a [f32],
    /// The slab's reduction-row offsets into `b`.
    slab: &'a [i32],
    /// Grid column the panel reads from.
    base: usize,
    /// First reduction row of the slab.
    kb: usize,
    /// A's row stride.
    lda: usize,
    /// Output row stride.
    n: usize,
    runs: &'a [Run],
    ep: Epilogue<'a>,
}

impl Tile<'_> {
    /// Reduction row `r` of the slab, over the panel's `NR` lanes.
    #[inline(always)]
    fn brow(&self, t: i32) -> &[f32] {
        &self.b[tap(t) + self.base..][..NR]
    }

    /// `out[i][col] = ep(prior + acc[lane])` over the panel's runs, where
    /// `prior` is `0.0` on the first slab (`out` held nothing yet) and
    /// `out[i][col]` on every later one.
    #[inline(always)]
    fn write_back(&self, out: &mut [f32], acc: &[f32; NR], i: usize) {
        let first = self.kb == 0;
        for run in self.runs {
            let row = &mut out[i * self.n + run.col..][..run.len];
            let acc = &acc[run.lane..];
            if first {
                for (o, &v) in row.iter_mut().zip(acc) {
                    *o = self.ep.apply(0.0 + v, i);
                }
            } else {
                for (o, &v) in row.iter_mut().zip(acc) {
                    *o = self.ep.apply(*o + v, i);
                }
            }
        }
    }
}

/// `MR x NR` register-tiled update of output rows `i0..i0 + rows` over
/// one panel and slab, with the epilogue applied during write-back. The
/// accumulator lives in fixed-size local arrays, which LLVM promotes to
/// vector registers; each loaded B row is reused `MR` times and each A
/// element `NR` times. `rows < MR` (the last block) reads all `MR` A
/// rows — A's padding makes them readable — but writes back only the
/// first `rows` accumulator rows.
#[inline(always)]
fn microkernel(a: &[f32], tile: &Tile<'_>, out: &mut [f32], i0: usize, rows: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    let (lda, kb, kc) = (tile.lda, tile.kb, tile.slab.len());
    let a0 = &a[i0 * lda + kb..i0 * lda + kb + kc];
    let a1 = &a[(i0 + 1) * lda + kb..(i0 + 1) * lda + kb + kc];
    let a2 = &a[(i0 + 2) * lda + kb..(i0 + 2) * lda + kb + kc];
    let a3 = &a[(i0 + 3) * lda + kb..(i0 + 3) * lda + kb + kc];
    for (p, &t) in tile.slab.iter().enumerate() {
        let brow = tile.brow(t);
        let av = [a0[p], a1[p], a2[p], a3[p]];
        for (accr, &ar) in acc.iter_mut().zip(av.iter()) {
            for (dst, &bv) in accr.iter_mut().zip(brow.iter()) {
                *dst += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        tile.write_back(out, accr, i0 + r);
    }
}

/// Records a kernel's pack and compute phases from at most three clock
/// reads sharing the pack/compute boundary — two when the pack phase
/// starts at the enclosing node span's start ([`flight::phase_start`]);
/// reads no clock while the flight recorder is off.
#[derive(Clone, Copy)]
pub(crate) struct Phases {
    start: Option<u64>,
    boundary: u64,
}

impl Phases {
    /// Opens the pack phase.
    pub(crate) fn start() -> Phases {
        Phases {
            start: flight::enabled().then(flight::phase_start),
            boundary: 0,
        }
    }

    /// Ends the pack phase and opens the compute phase.
    pub(crate) fn packed(self) -> Phases {
        Phases {
            boundary: if self.start.is_some() {
                flight::now_ns()
            } else {
                0
            },
            ..self
        }
    }

    /// Ends the compute phase and records both (`pack_bytes` is the pack
    /// span's argument).
    pub(crate) fn finish(self, pack_bytes: u64) {
        if let Some(start) = self.start {
            flight::record_phases(start, self.boundary, pack_bytes);
        }
    }

    /// Ends a kernel that lays nothing out: its whole time, from the
    /// start, is one compute phase, recorded with no pack.
    pub(crate) fn finish_compute(self) {
        if let Some(start) = self.start {
            let (parent, end) = (flight::current_parent(), flight::now_ns());
            flight::record_manual(
                flight::SpanKind::Compute,
                flight::NO_NODE,
                parent,
                start,
                end,
                0,
            );
        }
    }
}

/// Matrix-vector product: `(m, k) x (k,) -> (m,)`.
///
/// Fully-connected layers with batch size 1 are mat-vec, not mat-mat; a
/// dedicated kernel avoids the degenerate `n = 1` GEMM layout. Each dot
/// product runs over eight independent accumulators so the reduction
/// vectorizes despite fp32 non-associativity.
///
/// # Errors
/// Returns [`TensorError::RankMismatch`] when `a` is not rank 2 or `x` is
/// not rank 1, and [`TensorError::MatmulDimMismatch`] when dims disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if x.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: x.shape().rank(),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if k != x.dims()[0] {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (x.dims()[0], 1),
        });
    }
    let mut data = vec![0.0; m];
    matvec_into(a.as_slice(), k, x.as_slice(), None, false, &mut data);
    Tensor::from_vec(data, &[m])
}

/// Mat-vec rows into `out`: `out[i]` is the [`dot`] of `x` with row `i`
/// of `a`, the `x.len()` values from `a[i * lda]` (a window of a wider
/// matrix's columns when `x.len() < lda`), plus `bias[i]` when given,
/// clamped at zero under `relu`. Records one compute phase.
///
/// # Panics
/// When `a` holds fewer than `out.len()` such rows, or `bias` fewer than
/// `out.len()` values.
pub fn matvec_into(
    a: &[f32],
    lda: usize,
    x: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    let phases = Phases::start();
    let k = x.len();
    for (i, dst) in out.iter_mut().enumerate() {
        let d = dot(&a[i * lda..i * lda + k], x);
        let v = match bias {
            Some(bias) => d + bias[i],
            None => d,
        };
        *dst = if relu { v.max(0.0) } else { v };
    }
    phases.finish_compute();
}

/// Vectorizable dot product: eight parallel partial sums plus a scalar
/// tail. Also used by the dense layer's partial-input path. Dispatches
/// to the widest microkernel variant like [`gemm_into`].
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    crate::simd::dot_dispatch(a, b)
}

/// Portable body behind [`dot`]; re-instantiated by [`crate::simd`].
#[inline(always)]
pub(crate) fn dot_body(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for (ac, bc) in a
        .chunks_exact(LANES)
        .take(chunks)
        .zip(b.chunks_exact(LANES))
    {
        for (l, dst) in acc.iter_mut().enumerate() {
            *dst += ac[l] * bc[l];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for (av, bv) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        total += av * bv;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_matches_hand_example() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_matches_naive_on_random_inputs() {
        for seed in 0..4 {
            let a = Tensor::random(&[7, 11], 1.0, seed);
            let b = Tensor::random(&[11, 5], 1.0, seed + 100);
            let fast = gemm(&a, &b).unwrap();
            let slow = naive_gemm(&a, &b).unwrap();
            assert!(fast.approx_eq(&slow, 1e-4), "seed {seed}");
        }
    }

    #[test]
    fn blocked_path_matches_naive_past_the_small_cutoff() {
        // Big enough that the packed/blocked kernel runs, with dims that
        // are not multiples of MR/NR/KC.
        let a = Tensor::random(&[37, 301], 1.0, 5);
        let b = Tensor::random(&[301, 29], 1.0, 6);
        let fast = gemm(&a, &b).unwrap();
        let slow = naive_gemm(&a, &b).unwrap();
        assert!(
            fast.approx_eq(&slow, 1e-3),
            "max diff {}",
            fast.max_abs_diff(&slow).unwrap()
        );
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Tensor::random(&[4, 4], 2.0, 1);
        assert!(gemm(&a, &Tensor::eye(4)).unwrap().approx_eq(&a, 1e-6));
        assert!(gemm(&Tensor::eye(4), &a).unwrap().approx_eq(&a, 1e-6));
    }

    #[test]
    fn gemm_validates_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            gemm(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            gemm(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            gemm(&a, &v),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            naive_gemm(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        assert!(matches!(
            naive_gemm(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn zero_inner_dimension_yields_zero_matrix() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matvec_matches_gemm_column() {
        let a = Tensor::random(&[5, 9], 1.0, 11);
        let x = Tensor::random(&[9], 1.0, 12);
        let mv = matvec(&a, &x).unwrap();
        let as_col = x.reshape(&[9, 1]).unwrap();
        let mm = gemm(&a, &as_col).unwrap();
        assert!(mv.approx_eq(&mm.reshape(&[5]).unwrap(), 1e-5));
    }

    #[test]
    fn matvec_validates_shapes() {
        let a = Tensor::zeros(&[5, 9]);
        assert!(matches!(
            matvec(&a, &Tensor::zeros(&[8])),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        assert!(matches!(
            matvec(&a, &Tensor::zeros(&[8, 1])),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn pack_bound_covers_the_actual_packing_acquisition() {
        // The kernel acquires A padded to whole MR-row blocks, B's k * n
        // floats plus NR of read slack, and one tap-table entry per
        // reduction row; the exported bound must never undercount them
        // (empty problems acquire nothing).
        assert_eq!(gemm_pack_elems(0, 64, 64), 0);
        assert_eq!(gemm_pack_elems(64, 0, 64), 0);
        for (m, k, n) in [(1, 1, 1), (4, 300, 17), (64, 256, 128), (3, 7, 1000)] {
            let bound = gemm_pack_elems(m, k, n);
            assert!(
                bound >= m.div_ceil(4) * 4 * k + k * n + 16 + k,
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn prepacked_row_range_slices_match_full_rows_bitwise() {
        // The compile-time layout contract: any output-row range served
        // from `&packed[start * k..]` must reproduce the same rows of
        // the full product bitwise, including ranges that start and end
        // off the MR grid.
        let (m, k, n) = (23, 173, 57);
        let a = Tensor::random(&[m, k], 1.0, 51);
        let b = Tensor::random(&[k, n], 1.0, 52);
        let packed = gemm_pack_a(a.as_slice(), m, k);
        let mut full = vec![0.0f32; m * n];
        gemm_into_fused(&packed, b.as_slice(), &mut full, m, k, n, Epilogue::None);
        for (start, end) in [(0, 4), (3, 9), (5, 23), (21, 23), (22, 23)] {
            let rows = end - start;
            let mut part = vec![0.0f32; rows * n];
            gemm_into_fused(
                &packed[start * k..],
                b.as_slice(),
                &mut part,
                rows,
                k,
                n,
                Epilogue::None,
            );
            assert_eq!(&part[..], &full[start * n..end * n], "rows {start}..{end}");
        }
    }

    #[test]
    fn grid_panels_write_every_output_column_once() {
        // Flat and row-aligned placements, rows with and without dropped
        // columns, ragged rows and panels, with and without read slack.
        for rows in 1..5 {
            for width in 1..40 {
                for pitch in width..width + 4 {
                    let end = (rows - 1) * pitch + width;
                    let grids = [
                        (Some(Grid::new(rows, pitch, width)), end + NR - 1),
                        (Grid::flush(rows, pitch, width), end),
                    ];
                    for (grid, reach) in grids {
                        let Some(grid) = grid else { continue };
                        let mut written = vec![0; grid.n()];
                        for panel in grid.panels() {
                            assert!(panel.base + NR <= reach, "{grid:?} reads past B");
                            for run in panel.runs() {
                                assert!(run.lane + run.len <= NR);
                                for l in 0..run.len {
                                    let j = panel.base + run.lane + l;
                                    assert_eq!(j % pitch + j / pitch * width, run.col + l);
                                    assert!(j % pitch < width, "{grid:?} stores a border column");
                                    written[run.col + l] += 1;
                                }
                            }
                        }
                        assert!(written.iter().all(|&w| w == 1), "{grid:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dot_handles_tails_and_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
        let a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..19).map(|i| (i * 2) as f32).collect();
        let expected: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - expected).abs() < 1e-3);
    }

    /// Reference for the fused paths: plain product + separate epilogue.
    fn unfused(a: &Tensor, b: &Tensor, ep: Epilogue<'_>) -> Tensor {
        let mut c = naive_gemm(a, b).unwrap();
        let (m, n) = (c.dims()[0], c.dims()[1]);
        let data = c.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                data[i * n + j] = ep.apply(data[i * n + j], i);
            }
        }
        c
    }

    #[test]
    fn fused_epilogues_match_separate_passes() {
        // Cover both the small kernel and the blocked kernel (the second
        // shape is past the 8k cutoff and off-tile in every dimension).
        for (m, k, n) in [(3, 5, 7), (37, 301, 29)] {
            let a = Tensor::random(&[m, k], 1.0, 21);
            let b = Tensor::random(&[k, n], 1.0, 22);
            let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.25 - 1.0).collect();
            for ep in [
                Epilogue::Bias { bias: &bias },
                Epilogue::BiasRelu { bias: &bias },
            ] {
                let mut out = vec![f32::NAN; m * n];
                gemm_into_fused(a.as_slice(), b.as_slice(), &mut out, m, k, n, ep);
                let want = unfused(&a, &b, ep);
                let got = Tensor::from_vec(out, &[m, n]).unwrap();
                assert!(
                    got.approx_eq(&want, 1e-3),
                    "({m},{k},{n}) {ep:?}: max diff {}",
                    got.max_abs_diff(&want).unwrap()
                );
            }
        }
    }

    #[test]
    fn fused_bias_relu_clamps_negatives_once() {
        // k = 0 exercises the epilogue-only path: out = relu(0 + bias),
        // whatever `out` held.
        let mut out = vec![f32::NAN; 2];
        let bias = [1.0f32, -5.0];
        gemm_into_fused(
            &[],
            &[],
            &mut out,
            2,
            0,
            1,
            Epilogue::BiasRelu { bias: &bias },
        );
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    fn every_slab_count_overwrites_the_output() {
        // One KC slab and two: the first stores, the second adds to what
        // the first stored, and nothing the buffer held survives.
        for k in [3, KC + 5] {
            let a = Tensor::random(&[5, k], 1.0, 61);
            let b = Tensor::random(&[k, 19], 1.0, 62);
            let mut out = vec![f32::NAN; 5 * 19];
            gemm_into(a.as_slice(), b.as_slice(), &mut out, 5, k, 19);
            let want = naive_gemm(&a, &b).unwrap();
            let got = Tensor::from_vec(out, &[5, 19]).unwrap();
            assert!(got.approx_eq(&want, 1e-3), "k = {k}");
        }
    }
}
