//! Reusable scratch buffers for kernel lowering.
//!
//! The conv hot path materializes two temporaries per layer — the padded
//! input map and the table of row offsets the GEMM sweep reads it
//! through. Allocating them per layer dominated steady-state inference
//! cost, so both come from a per-thread arena: a stack of `Vec<f32>` buffers
//! that grow to the largest request they have served and are then reused
//! forever. After the first pass over a model, a thread performs **zero
//! heap allocations per conv layer**.
//!
//! The arena is deliberately thread-local: the functional engine's worker
//! pool gives each worker its own arena, so no locking sits on the hot
//! path. Each thread also counts the bytes its arena reused and freshly
//! allocated ([`scratch_stats`]), and the engine adds up the counts of
//! the threads that ran a request, so the observability layer can prove
//! the steady state is reached.
//!
//! All three arenas hand out slices starting on a 64-byte boundary (see
//! [`SCRATCH_ALIGN`]) so which of the vectorized GEMM row loads straddle
//! cache lines depends on the layer, not on where the allocator placed
//! the buffer.

use std::cell::{Cell, RefCell};
use std::thread::LocalKey;

use edgenn_obs::flight;

/// Every scratch slice starts on a 64-byte boundary. The conv maps live
/// in scratch and are consumed by 512-bit vector loads; a `Vec`
/// allocation only guarantees the element's own alignment, so which of
/// those loads split cache lines would be decided once per process by
/// allocator luck. That made whole-process runs bimodal (the same model
/// 20-40% slower in an unlucky run, stably, until restart). Each arena
/// over-allocates by one cache line and hands out the aligned window.
const SCRATCH_ALIGN: usize = 64;

/// Offset (in elements of size `elem`) that 64-byte-aligns `addr`,
/// capped at one cache line's worth of elements.
fn align_pad(addr: usize, elem: usize) -> usize {
    (addr.wrapping_neg() % SCRATCH_ALIGN) / elem
}

thread_local! {
    /// This thread's arena traffic, every element type in bytes.
    static COUNTS: Cell<ScratchStats> = const {
        Cell::new(ScratchStats {
            fresh_bytes: 0,
            reused_bytes: 0,
        })
    };
    /// Stack of idle buffers. Nested `with_scratch` calls pop in LIFO
    /// order, so a fixed nesting pattern always meets the same buffer at
    /// the same depth and stops growing after the first pass.
    static ARENA: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Parallel stack for int8 buffers (the quantized input vector of
    /// an int8 dense layer). Safe Rust cannot reinterpret an f32
    /// buffer as bytes without `unsafe`, so the quantized path gets its
    /// own arena; both report into the same byte counters.
    static ARENA_I8: RefCell<Vec<Vec<i8>>> = const { RefCell::new(Vec::new()) };
    /// Stack for i32 buffers: the int8 GEMM packs its operands as pair
    /// words (two codes widened to i16 in one i32) so the microkernel's
    /// inner loops lower to the widening multiply-accumulate idiom
    /// (`pmaddwd` on x86) without a per-iteration sign-extension, and
    /// both GEMM sweeps read B through tables of `u32` row offsets.
    static ARENA_I32: RefCell<Vec<Vec<i32>>> = const { RefCell::new(Vec::new()) };
}

/// An element type the scratch arena hands out (`f32`, `i8` and `i32`),
/// each from its own thread-local stack of buffers.
pub trait ScratchElem: Copy + Default + 'static {
    /// The calling thread's stack of idle buffers of this type.
    fn arena() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

impl ScratchElem for f32 {
    fn arena() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &ARENA
    }
}

impl ScratchElem for i8 {
    fn arena() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &ARENA_I8
    }
}

impl ScratchElem for i32 {
    fn arena() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &ARENA_I32
    }
}

/// Monotonic counters describing one thread's arena behaviour since
/// the thread started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Bytes that required a fresh heap allocation (buffer growth).
    pub fresh_bytes: u64,
    /// Bytes served from an existing buffer without allocating.
    pub reused_bytes: u64,
}

impl ScratchStats {
    /// Counter deltas between two snapshots (`later - self`).
    pub fn delta(&self, later: &ScratchStats) -> ScratchStats {
        ScratchStats {
            fresh_bytes: later.fresh_bytes.saturating_sub(self.fresh_bytes),
            reused_bytes: later.reused_bytes.saturating_sub(self.reused_bytes),
        }
    }
}

/// Snapshot of the calling thread's scratch counters.
pub fn scratch_stats() -> ScratchStats {
    COUNTS.with(Cell::get)
}

/// Runs `f` with a zeroed scratch slice of `len` elements drawn from the
/// calling thread's arena for `T`. Calls may nest (each nesting level
/// gets its own buffer); the buffer returns to the arena when `f`
/// returns. Every element type reports into the calling thread's one
/// pair of counters in bytes (a byte is a byte), so the observability
/// layer and the tier-D certified-peak gate see all scratch traffic
/// through one [`ScratchStats`].
pub fn with_scratch<T: ScratchElem, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    let size = std::mem::size_of::<T>();
    let mut buf = T::arena()
        .with(|arena| arena.borrow_mut().pop())
        .unwrap_or_default();
    let had_capacity = buf.capacity();
    buf.clear();
    buf.resize(len + SCRATCH_ALIGN / size, T::default());
    let pad = align_pad(buf.as_ptr() as usize, size);
    let bytes = (len * size) as u64;
    let grew = buf.capacity() > had_capacity;
    COUNTS.with(|counts| {
        let mut now = counts.get();
        if grew {
            now.fresh_bytes += bytes;
        } else {
            now.reused_bytes += bytes;
        }
        counts.set(now);
    });
    // Only misses get an individual flight record: each one means a heap
    // allocation on the hot path, and they go to zero in steady state, so
    // they are rare and each is worth seeing. Hits are the common case
    // (one per conv phase per layer); recording each would be the single
    // largest contributor to recorder overhead, and the information is
    // already carried per request by the reused-byte count in
    // `EngineStats`.
    if grew && flight::enabled() {
        flight::instant(flight::SpanKind::ArenaMiss, flight::NO_NODE, bytes);
    }
    let result = f(&mut buf[pad..pad + len]);
    T::arena().with(|arena| arena.borrow_mut().push(buf));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_every_time() {
        with_scratch(8, |buf: &mut [f32]| {
            assert_eq!(buf, &[0.0; 8]);
            buf.fill(7.0);
        });
        with_scratch(8, |buf: &mut [f32]| assert_eq!(buf, &[0.0; 8]));
    }

    #[test]
    fn second_acquisition_reuses_capacity() {
        // Warm the arena beyond any smaller request. The counters are
        // this thread's, so the delta is exactly this request.
        with_scratch(1024, |_: &mut [f32]| {});
        let before = scratch_stats();
        with_scratch(512, |buf: &mut [f32]| assert_eq!(buf.len(), 512));
        let delta = before.delta(&scratch_stats());
        assert_eq!(
            delta,
            ScratchStats {
                fresh_bytes: 0,
                reused_bytes: 512 * 4,
            },
            "a smaller request after warm-up must count as reuse"
        );
    }

    #[test]
    fn nested_acquisitions_get_distinct_buffers() {
        with_scratch(16, |outer: &mut [f32]| {
            outer.fill(1.0);
            with_scratch(16, |inner: &mut [f32]| {
                assert_eq!(inner, &[0.0; 16]);
                inner.fill(2.0);
            });
            assert_eq!(outer, &[1.0; 16], "inner call must not alias outer");
        });
    }

    #[test]
    fn i8_arena_is_distinct_zeroed_and_counted_in_bytes() {
        with_scratch(64, |buf: &mut [i8]| {
            assert_eq!(buf, &[0i8; 64]);
            buf.fill(5);
        });
        // The f32 arena must not see the i8 buffer (separate stacks).
        with_scratch(64, |buf: &mut [f32]| assert_eq!(buf, &[0.0f32; 64]));
        with_scratch(64, |buf: &mut [i8]| assert_eq!(buf, &[0i8; 64]));
        // Counters are bytes, not elements: a warm 64-byte request
        // contributes exactly 64 reused bytes from this thread.
        let before = scratch_stats();
        with_scratch(64, |_: &mut [i8]| {});
        let delta = before.delta(&scratch_stats());
        assert_eq!(
            delta,
            ScratchStats {
                fresh_bytes: 0,
                reused_bytes: 64,
            }
        );
    }

    #[test]
    fn every_arena_hands_out_cache_line_aligned_slices() {
        // Alignment must hold on fresh allocation AND on reuse (a popped
        // buffer's base address never changes, but the guarantee is about
        // the slice we hand out, not the Vec).
        for _ in 0..2 {
            with_scratch(33, |buf: &mut [f32]| {
                assert_eq!(buf.as_ptr() as usize % SCRATCH_ALIGN, 0);
                assert_eq!(buf.len(), 33);
            });
            with_scratch(77, |buf: &mut [i32]| {
                assert_eq!(buf.as_ptr() as usize % SCRATCH_ALIGN, 0);
                assert_eq!(buf.len(), 77);
            });
            with_scratch(129, |buf: &mut [i8]| {
                assert_eq!(buf.as_ptr() as usize % SCRATCH_ALIGN, 0);
                assert_eq!(buf.len(), 129);
            });
        }
    }

    #[test]
    fn growth_is_counted_as_fresh() {
        let before = scratch_stats();
        // A request larger than anything this thread has served forces
        // at least one buffer to grow (each test runs on a fresh thread,
        // so this thread's arena starts empty).
        with_scratch(1 << 20, |buf: &mut [f32]| assert_eq!(buf.len(), 1 << 20));
        let delta = before.delta(&scratch_stats());
        assert_eq!(
            delta,
            ScratchStats {
                fresh_bytes: 1 << 22,
                reused_bytes: 0,
            }
        );
    }
}
