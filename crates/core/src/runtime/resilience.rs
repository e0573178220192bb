//! Resilient execution: recovery policy, accounting, and degraded
//! re-planning for runs under an injected [`FaultPlan`].
//!
//! The analytic entry point is
//! [`Runtime::simulate_with_faults`](crate::runtime::Runtime::simulate_with_faults);
//! this module holds the pieces it composes:
//!
//! - [`ResilienceConfig`] — the retry/backoff/deadline policy knobs;
//! - [`RecoveryLog`] / [`RecoveryEvent`] — the per-run accounting of
//!   what was injected and what the runtime did about it (the input to
//!   the `EC04x` checker tier);
//! - [`ResilientOutcome`] — the report plus its recovery log;
//! - the crate-private `FaultCtx` the simulation loop threads through.
//!
//! Every analytic run goes through this machinery: a fault-free run is a
//! run under [`FaultPlan::none`] and the default config.
//!
//! The recovery state machine (see `docs/resilience.md`): a failed GPU
//! kernel launch is retried with exponential backoff up to
//! `max_retries` times; exhaustion re-places the work on the CPU, and a
//! permanent failure additionally re-tunes the remaining plan suffix to
//! a CPU-only plan. A burning deadline budget switches the remaining
//! suffix to a single-processor plan. Both suffix plans are tuned at the
//! switch. OOM pressure is handled before execution by shrinking the
//! footprint (explicit → managed arrays).

use serde::Serialize;

use crate::error::{RecoveryAction, RecoveryCause};
use crate::metrics::InferenceReport;
use crate::plan::ExecutionPlan;
use edgenn_sim::{FaultClock, FaultPlan};

/// Policy knobs for the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResilienceConfig {
    /// Maximum retries of one failed kernel before falling back to the
    /// CPU (the initial attempt is not a retry).
    pub max_retries: u32,
    /// Backoff before the first retry (us, simulated clock).
    pub backoff_base_us: f64,
    /// Multiplier applied to the backoff after every failed retry.
    pub backoff_multiplier: f64,
    /// Per-inference deadline budget (us); `None` disables deadline
    /// monitoring.
    pub deadline_us: Option<f64>,
    /// Fraction of the deadline that may burn before the runtime
    /// degrades the remaining suffix to a single-processor plan.
    pub deadline_degrade_fraction: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_us: 50.0,
            backoff_multiplier: 2.0,
            deadline_us: None,
            deadline_degrade_fraction: 0.8,
        }
    }
}

impl ResilienceConfig {
    /// The simulated-time gap before retry number `retry` (1-based):
    /// `base * multiplier^(retry-1)`.
    #[must_use]
    pub fn backoff_us(&self, retry: u32) -> f64 {
        self.backoff_base_us * self.backoff_multiplier.powi(retry.saturating_sub(1) as i32)
    }
}

/// One recovery decision, in simulated-time order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryEvent {
    /// When the decision was taken (us, simulated clock).
    pub t_us: f64,
    /// Graph node the decision anchors to.
    pub node: usize,
    /// What triggered it.
    pub cause: RecoveryCause,
    /// What the runtime did.
    pub action: RecoveryAction,
    /// Failed attempts of this node's kernel so far (0 for non-kernel
    /// causes).
    pub attempt: u32,
}

/// Accounting of one resilient run: what was injected, what the runtime
/// did, and the decision stream the `EC04x` checker validates.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryLog {
    /// Faults that actually bit (kernel failures plus one per
    /// environmental category that affected the run).
    pub faults_injected: u64,
    /// Kernel retry launches issued.
    pub retries: u64,
    /// GPU→CPU fallback re-placements.
    pub fallbacks: u64,
    /// Deadline-triggered degradations to a single-processor plan.
    pub deadline_degradations: u64,
    /// The retry budget the run executed under (`max_retries`).
    pub max_attempts: u32,
    /// Whether a permanent kernel failure re-tuned the remaining suffix
    /// to the CPU-only plan.
    pub gpu_lost: bool,
    /// Every recovery decision, in simulated-time order.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// True when the run saw no faults and took no recovery action.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults_injected == 0 && self.events.is_empty()
    }
}

/// A completed resilient inference: the report plus the recovery log
/// explaining how it survived.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The inference report (same shape as a fault-free run).
    pub report: InferenceReport,
    /// What was injected and what the runtime did about it.
    pub recovery: RecoveryLog,
}

/// Per-run fault state the simulation loop threads through: the ticking
/// clock, the policy, the accounting, and the suffix plans a mid-run
/// switch installs. A suffix plan is tuned at its switch, so a run that
/// never switches tunes nothing; tuning is deterministic, emits no
/// events and costs no simulated time, so when it happens does not
/// change the report.
pub(crate) struct FaultCtx {
    /// The seeded fault source.
    pub clock: FaultClock,
    /// Retry/backoff/deadline policy.
    pub cfg: ResilienceConfig,
    /// Accounting.
    pub log: RecoveryLog,
    /// CPU-only plan, set once a permanent kernel failure removes the
    /// GPU; it runs the remaining suffix.
    pub cpu_plan: Option<ExecutionPlan>,
    /// Single-processor plan, set once the deadline monitor degrades the
    /// run; it runs the remaining suffix unless the GPU is lost.
    pub degraded_plan: Option<ExecutionPlan>,
}

impl FaultCtx {
    /// Fresh state for one run of `plan` under `cfg`.
    pub fn new(plan: FaultPlan, cfg: ResilienceConfig) -> Self {
        Self {
            clock: FaultClock::new(plan),
            cfg,
            log: RecoveryLog {
                max_attempts: cfg.max_retries,
                ..RecoveryLog::default()
            },
            cpu_plan: None,
            degraded_plan: None,
        }
    }

    /// Closes the run's accounting.
    pub fn into_log(self) -> RecoveryLog {
        RecoveryLog {
            faults_injected: self.clock.injected(),
            gpu_lost: self.cpu_plan.is_some(),
            ..self.log
        }
    }
}

/// The fault-free state: an empty fault plan under the default config.
impl Default for FaultCtx {
    fn default() -> Self {
        Self::new(FaultPlan::none(), ResilienceConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_from_base() {
        let cfg = ResilienceConfig::default();
        assert!((cfg.backoff_us(1) - 50.0).abs() < 1e-9);
        assert!((cfg.backoff_us(2) - 100.0).abs() < 1e-9);
        assert!((cfg.backoff_us(3) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn clean_log_reports_clean() {
        let mut log = RecoveryLog::default();
        assert!(log.is_clean());
        log.faults_injected = 1;
        assert!(!log.is_clean());
    }
}
