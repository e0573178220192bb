//! A host speed reference, measured beside the workload.
//!
//! On a shared host the speed of the cores this process gets changes in
//! phases from milliseconds to minutes long. On the 2-core AVX-512 host
//! this benchmark was written on, calls ran either at full speed or about
//! 1.75 times slower, and a plain loop of arithmetic slowed by about the
//! same factor at the same moments. A figure of raw wall times measures
//! the mix of phases its run happened to see: the same binary read a
//! batch p50 of 2.0 ms in one run and 3.5 ms in the next.
//!
//! So the benchmark times a fixed kernel, [`probe`], written here and
//! independent of every crate under test, right before and right after
//! each measured call, and scales the call's time by [`NOMINAL_US`] over
//! the mean of the two probes. A change to the code under test moves the
//! scaled time as it moves the raw one; a change of host speed moves the
//! raw time and the probes alike, and cancels out. Scaled figures read as
//! the times the calls would take on that host at full speed.
//!
//! Not every workload slows as much as the probe: when the probe ran 1.9
//! times slower, batch calls ran 1.75 times and single `execute` calls,
//! whose time is largely thread hand-off, only 1.4 times slower. So an
//! engine run scales by `(NOMINAL_US / probe) ^ alpha`, with `alpha`
//! fitted to that run's own calls by [`fit_alpha`]: the log of how much
//! slower its calls ran at slow probes than at full-speed ones, over the
//! log of how much slower the probes were.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{median, percentile, sorted};

/// Side of the square f32 matrices the reference kernel multiplies.
const N: usize = 40;
/// Probe time (µs) the scaled figures refer to: the probe's time on the
/// 2-core AVX-512 host at full speed.
pub const NOMINAL_US: f64 = 21.0;
/// Time between two probes of a [`Timeline`]'s probing thread.
pub const PROBE_EVERY: Duration = Duration::from_millis(2);
/// [`fit_alpha`]: probes up to this multiple of the run's 2nd-percentile
/// probe count as full speed...
pub const FAST_BAND: f64 = 1.15;
/// ...and from this multiple up as slowed.
pub const SLOW_BAND: f64 = 1.5;
/// [`fit_alpha`]: calls each band needs; with fewer, `alpha` is 1.
pub const MIN_BAND: usize = 200;
/// [`fit_alpha`] fits on at most about this many calls, evenly spaced,
/// so the memory it takes does not grow with the call rate.
pub const FIT_CALLS: usize = 20_000;

/// One run of the reference kernel, µs: `c = a * b` over `N`×`N` f32
/// matrices, plain loops, no allocation, after one untimed run.
#[must_use]
pub fn probe() -> f64 {
    thread_local! {
        static MATS: std::cell::RefCell<[Vec<f32>; 3]> = std::cell::RefCell::new([
            (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect(),
            (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect(),
            vec![0.0; N * N],
        ]);
    }
    MATS.with(|m| {
        let [a, b, c] = &mut *m.borrow_mut();
        // The call before evicted the matrices: one untimed run brings
        // them back to cache, so the timed run sees core speed only.
        matmul(a, b, c);
        let start = Instant::now();
        matmul(a, b, c);
        start.elapsed().as_secs_f64() * 1e6
    })
}

fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    let (a, b) = (black_box(a), black_box(b));
    c.fill(0.0);
    for i in 0..N {
        for k in 0..N {
            let x = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += x * b[k * N + j];
            }
        }
    }
    black_box(&*c);
}

/// `raw`, the time of a call between probes of mean `probe` µs, scaled
/// to nominal host speed with exponent `alpha`.
#[must_use]
pub fn scaled(raw: f64, probe: f64, alpha: f64) -> f64 {
    raw * (NOMINAL_US / probe).powf(alpha)
}

/// The exponent that makes a run's calls at slowed probes read as its
/// calls at full-speed probes, from `(raw time, probe, _)` triples; 1
/// when the run has too few calls in either band (see [`FAST_BAND`]).
/// Clamped to `[0, 1.5]`.
#[must_use]
pub fn fit_alpha(calls: &[(f32, f32, f32)]) -> f64 {
    let step = calls.len().div_ceil(FIT_CALLS).max(1);
    let calls: Vec<(f64, f64)> = calls
        .iter()
        .step_by(step)
        .map(|&(raw, p, _)| (f64::from(raw), f64::from(p)))
        .collect();
    let probes = sorted(&calls.iter().map(|c| c.1).collect::<Vec<_>>());
    let Some(full) = percentile(&probes, 0.02) else {
        return 1.0;
    };
    let band = |keep: &dyn Fn(f64) -> bool| -> (Vec<f64>, Vec<f64>) {
        calls.iter().filter(|&&(_, p)| keep(p)).copied().unzip()
    };
    let (fast_raw, fast_p) = band(&|p| p <= FAST_BAND * full);
    let (slow_raw, slow_p) = band(&|p| p >= SLOW_BAND * full);
    if fast_raw.len() < MIN_BAND || slow_raw.len() < MIN_BAND {
        return 1.0;
    }
    let slower = median(&slow_raw) / median(&fast_raw);
    let probe_slower = median(&slow_p) / median(&fast_p);
    (slower.ln() / probe_slower.ln()).clamp(0.0, 1.5)
}

/// Probes around consecutive calls or set-ups on one thread.
#[derive(Debug)]
pub struct Scaler {
    last: f64,
}

impl Scaler {
    /// Probes once.
    #[must_use]
    pub fn new() -> Self {
        Self { last: probe() }
    }

    /// Probes again, for a call that does not follow the last one
    /// directly.
    pub fn reprobe(&mut self) {
        self.last = probe();
    }

    /// Probes again, and returns the mean of this probe and the last:
    /// the host speed around the call made since the last probe.
    pub fn around(&mut self) -> f64 {
        let after = probe();
        let mean = (self.last + after) / 2.0;
        self.last = after;
        mean
    }

    /// Scales `t`, the time of a call made since the last probe, with
    /// exponent 1, and probes again for the next call.
    pub fn scale(&mut self, t: f64) -> f64 {
        scaled(t, self.around(), 1.0)
    }
}

impl Default for Scaler {
    fn default() -> Self {
        Self::new()
    }
}

/// Probes taken by a background thread while code that cannot be
/// interleaved with probes runs: `(seconds since origin, µs)`, in time
/// order.
#[derive(Debug, Default)]
pub struct Timeline {
    probes: Vec<(f64, f64)>,
}

impl Timeline {
    /// Runs `f` while a second thread probes every [`PROBE_EVERY`];
    /// probe times are seconds since `origin`.
    pub fn around<R>(origin: Instant, f: impl FnOnce() -> R) -> (R, Self) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let prober = s.spawn(|| {
                let mut probes = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let at = origin.elapsed().as_secs_f64();
                    probes.push((at, probe()));
                    std::thread::sleep(PROBE_EVERY);
                }
                probes
            });
            let r = f();
            stop.store(true, Ordering::Relaxed);
            let probes = prober.join().unwrap_or_default();
            (r, Self { probes })
        })
    }

    /// A timeline of the given probes, which must be in time order.
    #[must_use]
    pub fn from_probes(probes: Vec<(f64, f64)>) -> Self {
        Self { probes }
    }

    /// Factor that scales a time spent between `from` and `to` (seconds
    /// since the origin) to nominal host speed: from the mean of the
    /// probes in that span, or the nearest probe when none falls in it;
    /// 1 without probes.
    #[must_use]
    pub fn factor(&self, from: f64, to: f64) -> f64 {
        let lo = self.probes.partition_point(|p| p.0 < from);
        let hi = self.probes.partition_point(|p| p.0 <= to);
        let mean = if lo < hi {
            self.probes[lo..hi].iter().map(|p| p.1).sum::<f64>() / (hi - lo) as f64
        } else {
            let near = [lo.checked_sub(1), Some(lo)]
                .into_iter()
                .flatten()
                .filter_map(|i| self.probes.get(i))
                .min_by(|a, b| (a.0 - from).abs().total_cmp(&(b.0 - from).abs()));
            match near {
                Some(p) => p.1,
                None => return 1.0,
            }
        };
        NOMINAL_US / mean
    }
}
