//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `q` percentile of
//! `n` sorted samples is the sample at rank `ceil(q * n)`. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! strictly beyond its rank, so a p99 needs at least 1000 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples strictly beyond the `q` percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The `q` percentile of `sorted` (ascending). `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (nearest rank, so always an observed value);
/// 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5).unwrap_or(0.0)
}

/// Calls per block of [`Blocks`]: the fewest whose p99 has
/// [`MIN_BEYOND`] samples beyond it.
pub const BLOCK_CALLS: usize = 1000;

/// The calls of a timed loop, in consecutive blocks of [`BLOCK_CALLS`].
///
/// Each figure is taken per block, and the reported one is that of the
/// block at the [`QUIET_Q`] quantile, quietest first: the 20th
/// percentile of the blocks' latency percentiles, the 80th of their
/// throughputs. The hypervisor takes a core away for milliseconds at a
/// time, in bursts that can cover most of a run; the blocks such a
/// burst hits read slow whatever the code does, while a tail the code
/// under test causes shows in every block.
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    /// Calls made.
    pub calls: u64,
    /// Verified outputs those calls returned.
    pub verified: u64,
    /// Summed time of the calls (s).
    pub secs: f64,
    current: Vec<f64>,
    current_verified: u64,
    /// Each full block's percentiles, in [`BLOCK_QS`] order.
    per_q: Vec<[f64; 3]>,
    per_s: Vec<f64>,
}

/// The percentiles [`Blocks`] takes of each block.
pub const BLOCK_QS: [f64; 3] = [0.5, 0.9, 0.99];

/// Where among its blocks, quietest first, [`Blocks`] reports a figure;
/// also where among its set-ups a run reports `setup_s`.
pub const QUIET_Q: f64 = 0.2;

/// The `q` quantile of `values`, nearest rank; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    percentile(&sorted(values), q).unwrap_or(0.0)
}

impl Blocks {
    /// Counts one call of `us` that returned `verified` good outputs.
    pub fn push(&mut self, us: f64, verified: u64) {
        self.calls += 1;
        self.verified += verified;
        self.secs += us / 1e6;
        self.current.push(us);
        self.current_verified += verified;
        if self.current.len() == BLOCK_CALLS {
            let block = sorted(&self.current);
            self.per_q
                .push(BLOCK_QS.map(|q| percentile(&block, q).unwrap_or(0.0)));
            let secs = block.iter().sum::<f64>() / 1e6;
            self.per_s.push(self.current_verified as f64 / secs);
            self.current.clear();
            self.current_verified = 0;
        }
    }

    /// Full blocks so far.
    #[must_use]
    pub fn full(&self) -> usize {
        self.per_q.len()
    }

    /// The [`QUIET_Q`] quantile over the full blocks of each block's `q`
    /// percentile, `q` being one of [`BLOCK_QS`].
    ///
    /// # Errors
    /// Fails, naming `what`, before the first full block or for another
    /// `q`.
    pub fn percentile(&self, q: f64, what: &str) -> Result<f64, String> {
        if self.full() == 0 {
            return Err(format!(
                "{what}: {} calls make no full block of {BLOCK_CALLS}",
                self.calls
            ));
        }
        let k = BLOCK_QS
            .iter()
            .position(|&x| x == q)
            .ok_or_else(|| format!("{what}: blocks keep no p{}", q * 100.0))?;
        let per_block: Vec<f64> = self.per_q.iter().map(|p| p[k]).collect();
        Ok(quantile(&per_block, QUIET_Q))
    }

    /// The `1 - QUIET_Q` quantile over the full blocks of each block's
    /// verified outputs per second of call time.
    ///
    /// # Errors
    /// Fails before the first full block.
    pub fn throughput(&self) -> Result<f64, String> {
        self.percentile(0.5, "throughput")?;
        Ok(quantile(&self.per_s, 1.0 - QUIET_Q))
    }
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
