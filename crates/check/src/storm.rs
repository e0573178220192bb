//! The seeded Monte-Carlo fault storm behind `edgenn storm`.
//!
//! Each model gets one [`Twin`] with a single rung under the storm's
//! config and one input drawn from the base seed. The round seeded `s`
//! must survive `simulate_with_faults` under `FaultPlan::from_seed(s, …)`,
//! come back clean under the trace, report and `EC04x` recovery checks,
//! and then reproduce the fault-free output bit for bit when the twin
//! reruns its Tiny plan under the same seed. Round `i` of a storm is
//! seeded `base + i`; [`replay`] re-runs one seed alone.

use edgenn_core::plan::ExecutionConfig;
use edgenn_core::runtime::resilience::{ResilienceConfig, ResilientOutcome};
use edgenn_core::runtime::Runtime;
use edgenn_nn::models::ModelKind;
use edgenn_obs::percentile;
use edgenn_serve::Twin;
use edgenn_sim::{FaultPlan, Platform};
use serde::Serialize;

use crate::{check_recovery, check_report, check_trace_events, CheckReport, Severity};

/// What one storm runs.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// The simulated device.
    pub platform: Platform,
    /// The models, stormed in this order.
    pub models: Vec<ModelKind>,
    /// The config every model is planned under.
    pub config: ExecutionConfig,
    /// The base seed: it draws each twin's input and seeds round 0.
    pub seed: u64,
    /// Rounds per model.
    pub runs: usize,
    /// Retry budget and deadline of every round.
    pub resilience: ResilienceConfig,
    /// A round recorded as failed without running it.
    pub inject_failure: Option<usize>,
}

/// One model's rounds: a model entry of the `edgenn storm` summary.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ModelStorm {
    /// The model's name.
    pub model: String,
    /// Rounds run.
    pub runs: usize,
    /// Rounds that passed every gate.
    pub survived: usize,
    /// `survived / runs`.
    pub survival_rate: f64,
    /// The fault-free analytic latency (us).
    pub clean_us: f64,
    /// Median faulted latency of the surviving rounds (us).
    pub p50_degraded_us: Option<f64>,
    /// 99th-percentile faulted latency of the surviving rounds (us).
    pub p99_degraded_us: Option<f64>,
    /// Faults that bit, over the surviving rounds.
    pub faults_injected: u64,
    /// Kernel retries, over the surviving rounds.
    pub retries: u64,
    /// GPU→CPU fallbacks, over the surviving rounds.
    pub fallbacks: u64,
    /// Deadline degradations, over the surviving rounds.
    pub deadline_degradations: u64,
    /// `"<model> seed <s>: <why>"` per failed round.
    pub failures: Vec<String>,
    /// The failed rounds' seeds, each replayable with `--replay-seed`.
    pub failed_seeds: Vec<u64>,
    /// The surviving rounds' seeds that degraded for the deadline.
    pub degraded_seeds: Vec<u64>,
}

/// A storm's outcome: the `edgenn storm` summary.
#[derive(Debug, Clone, Serialize)]
pub struct StormReport {
    /// The platform's name.
    pub platform: String,
    /// The base seed.
    pub seed: u64,
    /// Rounds per model.
    pub runs_per_model: usize,
    /// The retry budget.
    pub max_retries: u32,
    /// Rounds over all models.
    pub total_runs: usize,
    /// Surviving rounds over all models.
    pub total_survived: usize,
    /// `total_survived / total_runs`.
    pub survival_rate: f64,
    /// One entry per model, in config order.
    pub models: Vec<ModelStorm>,
}

impl StormReport {
    /// `Ok` when every round survived, otherwise a message naming up to
    /// 10 failures, at most 3 per model.
    ///
    /// # Errors
    /// At least one round failed.
    pub fn gate(&self) -> Result<(), String> {
        if self.total_survived == self.total_runs {
            return Ok(());
        }
        let mut message = format!(
            "storm failed: {}/{} run(s) survived on {}",
            self.total_survived, self.total_runs, self.platform
        );
        let failures = self.models.iter().flat_map(|m| m.failures.iter().take(3));
        for failure in failures.take(10) {
            message.push_str("\n  ");
            message.push_str(failure);
        }
        Err(message)
    }
}

/// Runs the round seeded `seed` on `twin`'s first rung.
fn storm_round(
    twin: &Twin,
    runtime: &Runtime<'_>,
    seed: u64,
    resilience: &ResilienceConfig,
) -> Result<ResilientOutcome, String> {
    let faults = FaultPlan::from_seed(seed, twin.paper.len());
    let outcome = runtime
        .simulate_with_faults(&twin.paper, &twin.rungs[0].plan, &faults, resilience)
        .map_err(|e| format!("analytic: {e}"))?;
    let mut check = CheckReport::new(check_trace_events(
        &outcome.report.events,
        runtime.platform(),
    ));
    check.extend(check_report(&outcome.report));
    check.extend(check_recovery(&outcome.recovery));
    let errors = check
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error);
    let codes: Vec<&str> = errors.map(|d| d.code).collect();
    if !codes.is_empty() {
        return Err(format!(
            "checker: {} error(s): {}",
            codes.len(),
            codes.join(" ")
        ));
    }
    let verdicts = twin
        .run(0, &[0], Some((seed, resilience.max_retries)))
        .map_err(|e| format!("functional: {e}"))?;
    if verdicts != [true] {
        return Err("functional output diverged from the fault-free reference".to_string());
    }
    Ok(outcome)
}

/// Runs `cfg.runs` rounds on `twin`, seeded from `first` up.
fn storm_model(twin: &Twin, runtime: &Runtime<'_>, cfg: &StormConfig, first: u64) -> ModelStorm {
    let name = twin.kind.name();
    let mut m = ModelStorm {
        model: name.to_string(),
        runs: cfg.runs,
        clean_us: twin.rungs[0].predicted_us,
        ..ModelStorm::default()
    };
    let mut latencies = Vec::with_capacity(cfg.runs);
    for i in 0..cfg.runs {
        let seed = first.wrapping_add(i as u64);
        let outcome = if cfg.inject_failure == Some(i) {
            Err(format!("forced failure (--inject-failure {i})"))
        } else {
            storm_round(twin, runtime, seed, &cfg.resilience)
        };
        match outcome {
            Ok(ResilientOutcome { report, recovery }) => {
                m.survived += 1;
                latencies.push(report.total_us);
                m.faults_injected += recovery.faults_injected;
                m.retries += recovery.retries;
                m.fallbacks += recovery.fallbacks;
                m.deadline_degradations += recovery.deadline_degradations;
                if recovery.deadline_degradations > 0 {
                    m.degraded_seeds.push(seed);
                }
            }
            Err(why) => {
                m.failures.push(format!("{name} seed {seed}: {why}"));
                m.failed_seeds.push(seed);
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    m.p50_degraded_us = percentile(&latencies, 0.50);
    m.p99_degraded_us = percentile(&latencies, 0.99);
    m.survival_rate = m.survived as f64 / cfg.runs as f64;
    m
}

/// Storms every model in `cfg`, round `i` seeded `first + i`.
fn storm(cfg: &StormConfig, first: u64) -> Result<StormReport, String> {
    if cfg.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let runtime = Runtime::new(&cfg.platform);
    let mut models = Vec::with_capacity(cfg.models.len());
    for &kind in &cfg.models {
        let mut twin = Twin::new(kind, &[cfg.seed]);
        twin.push(&runtime, &[cfg.config])
            .map_err(|e| format!("{kind}: {e}"))?;
        models.push(storm_model(&twin, &runtime, cfg, first));
    }
    let total_runs = cfg.runs * models.len();
    let total_survived = models.iter().map(|m| m.survived).sum();
    Ok(StormReport {
        platform: cfg.platform.name.clone(),
        seed: cfg.seed,
        runs_per_model: cfg.runs,
        max_retries: cfg.resilience.max_retries,
        total_runs,
        total_survived,
        survival_rate: total_survived as f64 / total_runs as f64,
        models,
    })
}

/// Storms every model in `cfg`, rounds seeded from `cfg.seed` up.
///
/// # Errors
/// `cfg.runs` is 0, or a model could not be planned. A failed round is
/// reported, not returned: [`StormReport::gate`] fails on it.
pub fn run_storm(cfg: &StormConfig) -> Result<StormReport, String> {
    storm(cfg, cfg.seed)
}

/// Re-runs the one round seeded `seed` for every model in `cfg`, on
/// twins whose inputs `cfg.seed` drew.
///
/// # Errors
/// A model could not be planned.
pub fn replay(cfg: &StormConfig, seed: u64) -> Result<StormReport, String> {
    let one = StormConfig {
        runs: 1,
        inject_failure: None,
        ..cfg.clone()
    };
    storm(&one, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_diverged_reference_fails_its_input_and_the_round() {
        let cfg = StormConfig {
            platform: edgenn_sim::platforms::amd_embedded_apu(),
            models: vec![ModelKind::Fcnn],
            config: ExecutionConfig::edgenn(),
            seed: 7,
            runs: 2,
            resilience: ResilienceConfig::default(),
            inject_failure: None,
        };
        let runtime = Runtime::new(&cfg.platform);
        let mut twin = Twin::new(ModelKind::Fcnn, &[cfg.seed, 1]);
        twin.push(&runtime, &[cfg.config]).unwrap();
        twin.rungs[0].references[0].as_mut_slice()[0] += 1e-3;
        let verdicts = twin.run(0, &[1, 0], Some((8, 3))).unwrap();
        assert_eq!(verdicts, [true, false], "only the perturbed input fails");

        let m = storm_model(&twin, &runtime, &cfg, 8);
        assert_eq!((m.survived, m.failed_seeds.as_slice()), (0, &[8, 9][..]));
        assert_eq!(
            m.failures[0],
            "FCNN seed 8: functional output diverged from the fault-free reference"
        );
        assert_eq!((m.p50_degraded_us, m.p99_degraded_us), (None, None));
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"p50_degraded_us\":null"), "{json}");
    }
}
