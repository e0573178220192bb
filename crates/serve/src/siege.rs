//! `edgenn siege`: the deterministic, fault-injected load gate.
//!
//! A seeded closed+open-loop multi-tenant load generator drives the
//! serving pipeline — the same dispatcher (`crate::dispatch`) that
//! `edgenn serve` runs — in **virtual time**. This module owns only the
//! event heap, the arrival generators and the closed-loop reissue:
//! every arrival gap, model pick, and fault plan comes from the seed,
//! and the engine is a single resource whose service time is the
//! tuner's analytic prediction scaled by batch size (the dispatcher's
//! estimate table stays at those predictions). The same
//! `(config, seed)` therefore always produces the identical admission
//! log, which is what lets the EC07x checker verify every decision
//! after the fact and CI diff runs across machines.
//!
//! What is *not* simulated: every formed batch also executes **for
//! real** on its model's [`crate::Twin`] through
//! `Executor::batch_execute`, with the fault injector armed from a
//! per-batch seed, and each output must reproduce the fault-free
//! reference **bitwise** (`approx_eq(_, 0.0)`). Survival is counted
//! over admitted requests: every one must either complete bitwise-
//! correct or be explicitly shed with a typed reason — anything else is
//! a lost request and fails the gate.
//!
//! Service-time model: a batch of `n` requests occupies the engine for
//! `predicted_us * n` — the engine runs a batch's inputs one after
//! another, so batching saves nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edgenn_nn::models::ModelKind;
use edgenn_obs::Recorder;
use edgenn_sim::Platform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::admission::TenantConfig;
use crate::batcher::BatchPolicy;
use crate::dispatch::Dispatcher;
use crate::events::AdmissionLog;

/// How one tenant generates load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Open loop: Poisson arrivals at a sustained rate, clients never
    /// wait for responses (the overload-generating mode).
    Open {
        /// Mean arrival rate (requests per second).
        rate_rps: f64,
    },
    /// Closed loop: a fixed number of clients, each issuing its next
    /// request `think_us` after the previous one resolves.
    Closed {
        /// Concurrent clients.
        concurrency: usize,
        /// Pause between a response and the next request (us).
        think_us: f64,
    },
}

/// One tenant's complete siege profile: admission policy plus load.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Admission policy and fair-share weight.
    pub tenant: TenantConfig,
    /// Load generation mode.
    pub mode: LoadMode,
    /// Relative SLO: each request's deadline is arrival + `slo_us`.
    pub slo_us: Option<f64>,
    /// Indices into [`SiegeConfig::models`] this tenant requests
    /// (uniformly at random); empty means the full catalog.
    pub models: Vec<usize>,
}

/// A complete siege scenario.
#[derive(Debug, Clone)]
pub struct SiegeConfig {
    /// Master seed: arrivals, model picks, inputs, and per-batch fault
    /// plans all derive from it.
    pub seed: u64,
    /// How long arrivals are generated (virtual us). Queued work drains
    /// past this horizon.
    pub duration_us: f64,
    /// The tenant population.
    pub tenants: Vec<TenantLoad>,
    /// The model catalog.
    pub models: Vec<ModelKind>,
    /// Bound on the pending set (requests); pushes beyond it are
    /// rejected with `queue_full`.
    pub queue_capacity: usize,
    /// Dynamic-batching policy.
    pub policy: BatchPolicy,
    /// Arm the PR 4 fault injector on every functional batch.
    pub faults: bool,
    /// Retry budget per injected kernel fault.
    pub max_retries: u32,
    /// The platform the tuner plans against.
    pub platform: Platform,
}

impl SiegeConfig {
    /// The CI scenario: two tenants (one open-loop, one closed-loop,
    /// 2:1 weights) over two models with faults armed and SLOs generous
    /// enough that a healthy pipeline sheds nothing.
    pub fn ci(seed: u64) -> Self {
        SiegeConfig {
            seed,
            duration_us: 60_000.0,
            tenants: vec![
                TenantLoad {
                    tenant: TenantConfig {
                        name: "open-a".to_string(),
                        weight: 2.0,
                        rate_per_s: 400.0,
                        burst: 8.0,
                        max_in_flight: 16,
                    },
                    mode: LoadMode::Open { rate_rps: 250.0 },
                    slo_us: Some(500_000.0),
                    models: Vec::new(),
                },
                TenantLoad {
                    tenant: TenantConfig {
                        name: "closed-b".to_string(),
                        weight: 1.0,
                        rate_per_s: 400.0,
                        burst: 8.0,
                        max_in_flight: 16,
                    },
                    mode: LoadMode::Closed {
                        concurrency: 3,
                        think_us: 2_000.0,
                    },
                    slo_us: Some(500_000.0),
                    models: Vec::new(),
                },
            ],
            models: vec![ModelKind::Fcnn, ModelKind::LeNet],
            queue_capacity: 64,
            policy: BatchPolicy {
                max_batch: 4,
                max_delay_us: 1_500.0,
            },
            faults: true,
            max_retries: 3,
            platform: edgenn_sim::platforms::jetson_agx_xavier(),
        }
    }
}

/// One plan variant's per-tenant outcome counters and latency tails.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Requests that arrived at the front door.
    pub arrived: usize,
    /// Requests admission accepted.
    pub admitted: usize,
    /// Requests refused at admission (typed, never entered the queue).
    pub rejected: usize,
    /// Admitted requests dropped because no ladder variant could meet
    /// their deadline.
    pub shed: usize,
    /// Admitted requests that completed bitwise-correct.
    pub completed: usize,
    /// Admitted requests whose functional output diverged (gate
    /// failures).
    pub failed: usize,
    /// Completions that rode a degraded plan variant.
    pub degraded: usize,
    /// Median end-to-end latency (us; NaN with no completions).
    pub p50_us: f64,
    /// 99th-percentile latency (us).
    pub p99_us: f64,
    /// 99.9th-percentile latency (us).
    pub p999_us: f64,
    /// Completed requests per second of siege duration.
    pub goodput_rps: f64,
}

/// One catalog model's plan ladder as the tuner priced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// `(variant name, paper-scale predicted latency us)` in ladder
    /// (quality) order — hybrid first.
    pub variants: Vec<(String, f64)>,
}

/// Everything one siege run produced.
#[derive(Debug, Clone)]
pub struct SiegeReport {
    /// Per-tenant outcomes in tenant order.
    pub tenants: Vec<TenantStats>,
    /// The plan ladder per catalog model.
    pub models: Vec<ModelStats>,
    /// Batches dispatched.
    pub batches: usize,
    /// Batches that ran a degraded variant.
    pub degraded_batches: usize,
    /// Completed-bitwise-correct over (admitted − shed). 1.0 when the
    /// denominator is zero.
    pub survival: f64,
    /// Shed over admitted (0.0 when nothing was admitted).
    pub shed_rate: f64,
    /// Max/min ratio of weight-normalized tenant goodput (1.0 when
    /// fewer than two tenants completed work).
    pub fairness_spread: f64,
    /// Deepest the bounded pending set ever got.
    pub high_water: usize,
    /// The configured bound it must stay under.
    pub queue_capacity: usize,
    /// Batching policy the run used (checker replay input).
    pub max_batch: usize,
    /// Tenant weights the run used (checker replay input).
    pub weights: Vec<f64>,
    /// Admitted requests that neither completed nor were shed.
    pub lost: usize,
    /// Bitwise-divergence descriptions (empty on a clean run).
    pub bitwise_failures: Vec<String>,
    /// The complete typed decision record.
    pub log: AdmissionLog,
}

impl SiegeReport {
    /// True when every admitted request was accounted for bitwise-
    /// correctly: the CI gate condition.
    pub fn gate_clean(&self) -> bool {
        self.bitwise_failures.is_empty()
            && self.lost == 0
            && self.survival >= 1.0
            && self.high_water <= self.queue_capacity
    }

    /// JSON form (archived under `target/siege/` by CI).
    pub fn to_value(&self) -> Value {
        let tenants = self.tenants.iter().map(|t| {
            object([
                ("name", t.name.as_str().into()),
                ("weight", t.weight.into()),
                ("arrived", t.arrived.into()),
                ("admitted", t.admitted.into()),
                ("rejected", t.rejected.into()),
                ("shed", t.shed.into()),
                ("completed", t.completed.into()),
                ("failed", t.failed.into()),
                ("degraded", t.degraded.into()),
                ("p50_us", t.p50_us.into()),
                ("p99_us", t.p99_us.into()),
                ("p999_us", t.p999_us.into()),
                ("goodput_rps", t.goodput_rps.into()),
            ])
        });
        let models = self.models.iter().map(|md| {
            let variants = md.variants.iter().map(|(name, pred)| {
                object([
                    ("variant", name.as_str().into()),
                    ("predicted_us", (*pred).into()),
                ])
            });
            object([
                ("name", md.name.as_str().into()),
                ("variants", variants.collect::<Vec<_>>().into()),
            ])
        });
        let failures = self.bitwise_failures.iter().map(|s| s.as_str().into());
        object([
            ("tenants", tenants.collect::<Vec<_>>().into()),
            ("models", models.collect::<Vec<_>>().into()),
            ("batches", self.batches.into()),
            ("degraded_batches", self.degraded_batches.into()),
            ("survival", self.survival.into()),
            ("shed_rate", self.shed_rate.into()),
            ("fairness_spread", self.fairness_spread.into()),
            ("high_water", self.high_water.into()),
            ("queue_capacity", self.queue_capacity.into()),
            ("lost", self.lost.into()),
            ("bitwise_failures", failures.collect::<Vec<_>>().into()),
            ("events", self.log.to_value()),
        ])
    }
}

/// A JSON object with `fields` in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Virtual-time event kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrival { tenant: usize },
    EngineFree,
    BatchTimer,
}

/// A heap entry ordered by (time, sequence) — the sequence tiebreak
/// makes simultaneous events process in schedule order, which keeps the
/// whole run deterministic.
#[derive(Debug, Clone, Copy)]
struct QEv {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEv {
    fn eq(&self, other: &Self) -> bool {
        self.t.to_bits() == other.t.to_bits() && self.seq == other.seq
    }
}
impl Eq for QEv {}
impl PartialOrd for QEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}

/// The virtual-time event heap.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Reverse<QEv>>,
    seq: u64,
}

impl Agenda {
    fn schedule(&mut self, t: f64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(QEv { t, seq, ev }));
    }

    /// Schedules `tenant`'s next arrival at `t` unless it falls past the
    /// arrival horizon.
    fn arrival(&mut self, t: f64, tenant: usize, horizon_us: f64) {
        if t <= horizon_us {
            self.schedule(t, Ev::Arrival { tenant });
        }
    }

    /// A closed-loop tenant issues its next request `think_us` after a
    /// response (or shed); open-loop tenants do not wait for responses.
    fn reissue(&mut self, now: f64, tenant: usize, config: &SiegeConfig) {
        if let LoadMode::Closed { think_us, .. } = config.tenants[tenant].mode {
            self.arrival(now + think_us.max(1.0), tenant, config.duration_us);
        }
    }

    fn pop(&mut self) -> Option<(f64, Ev)> {
        self.heap.pop().map(|Reverse(q)| (q.t, q.ev))
    }
}

/// Exponential inter-arrival gap (us) for an open-loop tenant.
fn poisson_gap(rng: &mut StdRng, rate_rps: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * 1e6 / rate_rps.max(1e-9)
}

/// Runs one deterministic siege. Same config (including seed), same
/// admission log — bit for bit.
///
/// Decisions are counted into `observer` (when given) as
/// `edgenn_serve_<decision>_total` counters.
///
/// # Errors
/// Fails on scenario construction problems (empty tenant/model lists,
/// un-plannable models); load-induced failures are *reported*, not
/// errored, so the gate can print per-tenant evidence before exiting
/// non-zero.
pub fn run_siege(config: &SiegeConfig, observer: Option<&Recorder>) -> Result<SiegeReport, String> {
    let mut dispatcher = Dispatcher::new(
        &config.tenants,
        &config.models,
        &config.platform,
        config.seed,
        config.queue_capacity,
        config.policy,
        observer,
    )?;
    let faults = config.faults.then_some((config.seed, config.max_retries));
    let horizon = config.duration_us;
    let mut rngs: Vec<StdRng> = (0..config.tenants.len())
        .map(|t| StdRng::seed_from_u64(config.seed.wrapping_add(0x51E6 + t as u64 * 7919)))
        .collect();
    let mut agenda = Agenda::default();
    for (t, load) in config.tenants.iter().enumerate() {
        match load.mode {
            LoadMode::Open { rate_rps } => {
                agenda.arrival(poisson_gap(&mut rngs[t], rate_rps), t, horizon);
            }
            LoadMode::Closed { concurrency, .. } => {
                for k in 0..concurrency {
                    agenda.schedule(k as f64 * 1.0, Ev::Arrival { tenant: t });
                }
            }
        }
    }

    // The engine is one resource: at most one job in flight, finishing
    // at its estimated `done_us`.
    let mut inflight = None;
    while let Some((now, ev)) = agenda.pop() {
        match ev {
            Ev::Arrival { tenant } => {
                let load = &config.tenants[tenant];
                let rng = &mut rngs[tenant];
                let model = if load.models.is_empty() {
                    rng.gen_range(0..config.models.len())
                } else {
                    load.models[rng.gen_range(0..load.models.len())]
                };
                let admitted = dispatcher.arrive(now, tenant, model);
                match load.mode {
                    LoadMode::Open { rate_rps } => {
                        agenda.arrival(now + poisson_gap(rng, rate_rps), tenant, horizon);
                    }
                    // A refused closed-loop client retries at the hinted
                    // backoff; an admitted one reissues at completion (or
                    // shed) plus think time.
                    LoadMode::Closed { .. } => {
                        if let Err(retry) = admitted {
                            agenda.arrival(now + retry.clamp(1.0, 50_000.0), tenant, horizon);
                        }
                    }
                }
            }
            Ev::EngineFree => {
                if let Some((job, verdicts)) = inflight.take() {
                    dispatcher.complete(now, &job, verdicts);
                    for m in &job.keep {
                        agenda.reissue(now, m.tenant, config);
                    }
                }
            }
            Ev::BatchTimer => {}
        }
        // Dispatch ready batches while the engine is free; otherwise
        // park a timer on the batcher's next max-delay expiry.
        while inflight.is_none() {
            let Some(job) = dispatcher.form(now) else {
                if let Some(expiry) = dispatcher.next_expiry() {
                    agenda.schedule(expiry.max(now), Ev::BatchTimer);
                }
                break;
            };
            for m in &job.shed {
                agenda.reissue(now, m.tenant, config);
            }
            if job.keep.is_empty() {
                continue;
            }
            let verdicts = job.execute(faults);
            agenda.schedule(job.done_us, Ev::EngineFree);
            inflight = Some((job, verdicts));
        }
    }
    Ok(dispatcher.report(config.duration_us / 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{RejectReason, ServeEventKind};

    fn quick_config(seed: u64) -> SiegeConfig {
        let mut cfg = SiegeConfig::ci(seed);
        cfg.duration_us = 20_000.0;
        cfg
    }

    #[test]
    fn siege_is_deterministic_and_admitted_requests_survive() {
        let cfg = quick_config(42);
        let a = run_siege(&cfg, None).unwrap();
        let b = run_siege(&cfg, None).unwrap();
        assert_eq!(a.log.events, b.log.events, "same seed, same decisions");
        assert!(a.bitwise_failures.is_empty(), "{:?}", a.bitwise_failures);
        assert_eq!(a.lost, 0);
        assert!((a.survival - 1.0).abs() < 1e-12);
        assert!(a.high_water <= a.queue_capacity, "queue bound violated");
        assert!(a.batches > 0, "the scenario actually dispatched work");
        assert!(
            a.tenants.iter().all(|t| t.completed > 0),
            "every tenant made progress: {:?}",
            a.tenants
        );
        assert!(a.gate_clean());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_siege(&quick_config(1), None).unwrap();
        let b = run_siege(&quick_config(2), None).unwrap();
        assert_ne!(a.log.events, b.log.events);
    }

    #[test]
    fn tight_slo_degrades_or_sheds_instead_of_losing_requests() {
        // Probe the ladder first, then set an SLO below the hybrid
        // rung's reach: the guard must degrade where a faster rung
        // exists and shed (typed) where none does — never lose.
        let mut probe = quick_config(7);
        probe.duration_us = 0.0;
        let ladder = run_siege(&probe, None).unwrap();
        let hybrid_max = ladder
            .models
            .iter()
            .map(|m| m.variants[0].1)
            .fold(f64::MIN, f64::max);
        let fastest_min = ladder
            .models
            .iter()
            .map(|m| m.variants.iter().map(|v| v.1).fold(f64::INFINITY, f64::min))
            .fold(f64::INFINITY, f64::min);

        let mut cfg = quick_config(7);
        cfg.duration_us = 15_000.0;
        // Deadline sits above the fastest rung's cost but below the
        // slowest hybrid's: some mix of degrade and shed must appear.
        let slo = (fastest_min * 1.2).max(hybrid_max * 0.5);
        for tenant in &mut cfg.tenants {
            tenant.slo_us = Some(slo);
        }
        let report = run_siege(&cfg, None).unwrap();
        assert!(report.bitwise_failures.is_empty());
        assert_eq!(report.lost, 0, "tight SLOs shed, they do not lose");
        assert!((report.survival - 1.0).abs() < 1e-12);
        let sheds: usize = report.tenants.iter().map(|t| t.shed).sum();
        let degrades: usize = report.tenants.iter().map(|t| t.degraded).sum();
        let deadline_rejects = report
            .log
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ServeEventKind::Rejected {
                        reason: RejectReason::DeadlineUnmeetable,
                        ..
                    }
                )
            })
            .count();
        assert!(
            sheds + degrades + deadline_rejects > 0,
            "a sub-hybrid SLO must trigger the guard: {report:?}"
        );
    }

    #[test]
    fn observer_receives_serve_counters() {
        let recorder = Recorder::new();
        let cfg = quick_config(11);
        let report = run_siege(&cfg, Some(&recorder)).unwrap();
        let admitted: usize = report.tenants.iter().map(|t| t.admitted).sum();
        assert!(admitted > 0);
        assert_eq!(
            recorder
                .metrics()
                .counter_value("edgenn_serve_admitted_total"),
            Some(admitted as f64),
            "admitted counter tracks the report"
        );
    }
}
