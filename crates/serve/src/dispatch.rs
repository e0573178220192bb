//! The serving pipeline, once: admission, the bounded pending set, the
//! SLO guard, execution and completion.
//!
//! Both entry points feed one [`Dispatcher`]: [`crate::siege`] from its
//! virtual-time event heap, [`crate::server`] from wall-clock client
//! threads and a dispatcher thread. Every method takes `now_us`, the way
//! [`AdmissionController`] does, so the decision sequence is a function
//! of the calls alone and the EC07x checker replays either one's log.
//!
//! A request's path:
//!
//! 1. [`Dispatcher::arrive`] — the queue bound, then deadline
//!    feasibility, then the tenant's token bucket and in-flight cap. A
//!    refusal by an earlier check never charges a later one. An
//!    admitted request enters the batcher at once, so `Admitted` and
//!    `Enqueued` share an instant and the pending set is the only bound.
//! 2. [`Dispatcher::form`] — closes a ready batch and runs the SLO guard
//!    ([`decide_batch`]) over the per-(model, rung) service estimates.
//! 3. [`Job::execute`] — the batch runs for real on the model's
//!    [`Twin`], with an optional per-batch fault plan, and each output
//!    is checked bitwise against the fault-free reference.
//! 4. [`Dispatcher::complete`] — logs completions, records divergences
//!    and releases admission slots.
//! 5. [`Dispatcher::report`] — derives the [`SiegeReport`] from the log.

use std::sync::Arc;

use edgenn_core::plan::ExecutionConfig;
use edgenn_core::runtime::Runtime;
use edgenn_nn::models::ModelKind;
use edgenn_obs::{percentile, EventSink, Recorder, SinkEvent};
use edgenn_sim::Platform;

use crate::admission::{AdmissionController, TenantConfig};
use crate::batcher::{BatchPolicy, Batcher, PlanVariant, Request};
use crate::events::{AdmissionLog, RejectReason, ServeEvent, ServeEventKind};
use crate::siege::{ModelStats, SiegeReport, TenantLoad, TenantStats};
use crate::twin::Twin;

/// How many distinct input tensors each model's request stream cycles
/// through (slot = request id mod pool).
const INPUT_POOL: usize = 4;

/// The serving plan ladder of `kind`, in quality order: rung `i` runs
/// [`PlanVariant::LADDER`]`[i]`, and input slot `s` is drawn from
/// `seed + s`. A GPU-less platform gets one CPU-only rung. Otherwise
/// the hybrid plan comes first, then whichever of GPU-only and CPU-only
/// the analytic model prices faster, then int8 where the model's layers
/// make quantization worthwhile (Tiny shapes often do not).
fn ladder(kind: ModelKind, runtime: &Runtime<'_>, seed: u64) -> edgenn_core::Result<Twin> {
    let seeds: Vec<u64> = (0..INPUT_POOL as u64)
        .map(|i| seed.wrapping_add(i))
        .collect();
    let mut twin = Twin::new(kind, &seeds);
    if !runtime.platform().has_gpu() {
        twin.push(runtime, &[ExecutionConfig::cpu_only()])?;
        return Ok(twin);
    }
    twin.push(runtime, &[ExecutionConfig::edgenn()])?;
    let single = [ExecutionConfig::baseline_gpu(), ExecutionConfig::cpu_only()];
    twin.push(runtime, &single)?;
    let nodes = twin.tiny.nodes();
    if nodes.iter().any(|n| n.layer().int8_worthwhile()) {
        twin.push(runtime, &[ExecutionConfig::edgenn_int8()])?;
    }
    Ok(twin)
}

/// Batch service-time scaling: near-linear with a 10% coalescing
/// saving per member past the first.
pub(crate) fn batch_factor(n: usize) -> f64 {
    1.0 + 0.9 * (n as f64 - 1.0)
}

/// The SLO guard's per-batch decision.
struct BatchDecision {
    /// Ladder index of the rung the batch runs (0 = hybrid).
    chosen: usize,
    /// Members riding the batch.
    keep: Vec<Request>,
    /// Members no rung could save (shed with `deadline_unmeetable`).
    shed: Vec<Request>,
    /// Ids of kept members whose deadline the hybrid rung would miss —
    /// the requests that forced the downgrade.
    forced: Vec<u64>,
}

/// Decides which ladder rung a batch runs: the best-quality rung
/// meeting every surviving deadline, shedding only members even the
/// fastest rung cannot save. `preds` is the per-rung service estimate
/// in ladder (quality) order, hybrid first.
fn decide_batch(now: f64, members: &[Request], preds: &[f64]) -> BatchDecision {
    let factor = batch_factor(members.len());
    let fits = |variant: usize, m: &Request| {
        m.deadline_us
            .is_none_or(|d| now + preds[variant] * factor <= d)
    };
    let fastest = (0..preds.len())
        .min_by(|&a, &b| preds[a].total_cmp(&preds[b]))
        .expect("ladder non-empty");
    let (keep, shed): (Vec<Request>, Vec<Request>) =
        members.iter().cloned().partition(|m| fits(fastest, m));
    let chosen = (0..preds.len())
        .find(|&v| keep.iter().all(|m| fits(v, m)))
        .unwrap_or(fastest);
    let forced = if chosen == 0 {
        Vec::new()
    } else {
        keep.iter().filter(|m| !fits(0, m)).map(|m| m.id).collect()
    };
    BatchDecision {
        chosen,
        keep,
        shed,
        forced,
    }
}

/// A formed batch the SLO guard let through: what runs, on which rung.
pub(crate) struct Job {
    /// Batch id.
    batch: u64,
    /// Catalog model ordinal.
    pub(crate) model: usize,
    /// Ladder index of the rung it runs (0 = hybrid).
    pub(crate) rung: usize,
    /// Members riding the batch; empty when every member was shed.
    pub(crate) keep: Vec<Request>,
    /// Members the guard shed.
    pub(crate) shed: Vec<Request>,
    /// When the engine is estimated to be free again: formation time
    /// plus the rung's estimate scaled by [`batch_factor`].
    pub(crate) done_us: f64,
    twin: Arc<Twin>,
}

impl Job {
    /// Runs the kept members on the model's twin, each on input slot
    /// `id mod INPUT_POOL`. With `faults = Some((seed, max_retries))` a
    /// fault plan derived from `seed` and the batch id is armed. Returns
    /// one bitwise verdict per kept member, or why the batch could not
    /// run.
    ///
    /// # Errors
    /// The executor could not be built or the batch failed to run.
    pub(crate) fn execute(&self, faults: Option<(u64, u32)>) -> Result<Vec<bool>, String> {
        let slot = |m: &Request| (m.id % INPUT_POOL as u64) as usize;
        let slots: Vec<usize> = self.keep.iter().map(slot).collect();
        let salt = self.batch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let faults = faults.map(|(seed, max_retries)| (seed.wrapping_add(salt), max_retries));
        let (kind, batch) = (self.twin.kind, self.batch);
        self.twin
            .run(self.rung, &slots, faults)
            .map_err(|e| format!("{kind} batch {batch}: functional execution failed: {e}"))
    }
}

/// The serving pipeline's state, shared by `run_siege` and `run_server`.
pub(crate) struct Dispatcher<'a> {
    loads: Vec<TenantLoad>,
    twins: Vec<Arc<Twin>>,
    /// Per-(model, rung) service-time estimate (us per request),
    /// seeded with the analytic predictions.
    est: Vec<Vec<f64>>,
    admission: AdmissionController,
    batcher: Batcher,
    log: AdmissionLog,
    next_req: u64,
    next_batch: u64,
    /// When the engine is estimated to be free (the last job's
    /// [`Job::done_us`]).
    busy_until: f64,
    bitwise_failures: Vec<String>,
    observer: Option<&'a Recorder>,
}

impl<'a> Dispatcher<'a> {
    /// Validates the scenario and builds every model's plan ladder.
    ///
    /// # Errors
    /// Empty tenant or model lists, a tenant naming a model outside the
    /// catalog, or a model the tuner cannot plan.
    pub(crate) fn new(
        loads: &[TenantLoad],
        models: &[ModelKind],
        platform: &Platform,
        seed: u64,
        queue_capacity: usize,
        policy: BatchPolicy,
        observer: Option<&'a Recorder>,
    ) -> Result<Self, String> {
        if loads.is_empty() {
            return Err("serving needs at least one tenant".to_string());
        }
        if models.is_empty() {
            return Err("serving needs at least one model".to_string());
        }
        for load in loads {
            if let Some(&bad) = load.models.iter().find(|&&m| m >= models.len()) {
                return Err(format!(
                    "tenant {} references model index {bad} outside the catalog",
                    load.tenant.name
                ));
            }
        }
        let runtime = Runtime::new(platform);
        let twins = models
            .iter()
            .enumerate()
            .map(|(ordinal, &kind)| {
                let base = seed.wrapping_add((ordinal as u64) << 32);
                ladder(kind, &runtime, base).map_err(|e| format!("{kind}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tenants: Vec<TenantConfig> = loads.iter().map(|l| l.tenant.clone()).collect();
        let weights: Vec<f64> = tenants.iter().map(|t| t.weight).collect();
        Ok(Dispatcher {
            loads: loads.to_vec(),
            est: twins
                .iter()
                .map(|t| t.rungs.iter().map(|r| r.predicted_us).collect())
                .collect(),
            twins: twins.into_iter().map(Arc::new).collect(),
            admission: AdmissionController::new(&tenants, 0.0),
            batcher: Batcher::new(policy, queue_capacity, &weights, models.len()),
            log: AdmissionLog::default(),
            next_req: 0,
            next_batch: 0,
            busy_until: 0.0,
            bitwise_failures: Vec::new(),
            observer,
        })
    }

    /// The catalog's twins, in model ordinal order.
    pub(crate) fn twins(&self) -> &[Arc<Twin>] {
        &self.twins
    }

    /// The per-(model, rung) service-time estimates the SLO guard reads.
    pub(crate) fn estimates_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.est
    }

    /// Admitted requests not yet formed into a batch.
    pub(crate) fn pending(&self) -> usize {
        self.batcher.depth()
    }

    /// When the oldest pending group ages past the batching delay.
    pub(crate) fn next_expiry(&self) -> Option<f64> {
        self.batcher.next_expiry()
    }

    fn sink(&self, decision: &'static str, tenant: usize, t_us: f64) {
        if let Some(obs) = self.observer {
            obs.emit(SinkEvent::Serve {
                decision,
                tenant: tenant as u32,
                t_us,
            });
        }
    }

    /// One request of `tenant` for catalog `model` arrives at `now_us`.
    /// Decision order (the checker replays the same order): queue bound,
    /// then deadline feasibility, then per-tenant rate and in-flight.
    ///
    /// # Errors
    /// The request was refused; the value is the retry-after hint (us).
    pub(crate) fn arrive(&mut self, now_us: f64, tenant: usize, model: usize) -> Result<(), f64> {
        let id = self.next_req;
        self.next_req += 1;
        self.log.push(
            now_us,
            ServeEventKind::Arrived {
                req: id,
                tenant,
                model,
            },
        );
        let est = &self.est[model];
        let hybrid = est[0];
        let fastest = est.iter().copied().fold(f64::INFINITY, f64::min);
        let depth = self.batcher.depth();
        let deadline = self.loads[tenant].slo_us.map(|s| now_us + s);
        let est_wait = (self.busy_until - now_us).max(0.0) + hybrid * depth as f64;
        let refusal = if depth >= self.batcher.capacity() {
            Some((RejectReason::QueueFull, hybrid * depth as f64))
        } else if deadline.is_some_and(|d| now_us + est_wait + fastest > d) {
            Some((RejectReason::DeadlineUnmeetable, est_wait))
        } else {
            self.admission.admit(tenant, now_us).err()
        };
        if let Some((reason, retry_after_us)) = refusal {
            self.log.push(
                now_us,
                ServeEventKind::Rejected {
                    req: id,
                    tenant,
                    reason,
                    retry_after_us,
                },
            );
            self.sink("rejected", tenant, now_us);
            return Err(retry_after_us);
        }
        self.log
            .push(now_us, ServeEventKind::Admitted { req: id, tenant });
        self.sink("admitted", tenant, now_us);
        let req = Request {
            id,
            tenant,
            model,
            arrival_us: now_us,
            deadline_us: deadline,
        };
        let depth = self
            .batcher
            .push(req, now_us)
            .expect("depth checked against capacity above");
        self.log.push(
            now_us,
            ServeEventKind::Enqueued {
                req: id,
                tenant,
                model,
                depth,
            },
        );
        Ok(())
    }

    /// Closes the batch that is ready at `now_us`, if any, and takes it
    /// through the SLO guard: the best rung meeting every kept deadline,
    /// shedding (and releasing) only members no rung can save.
    pub(crate) fn form(&mut self, now_us: f64) -> Option<Job> {
        let model = self.batcher.ready(now_us)?;
        let batch = self.batcher.form(model, now_us);
        let id = self.next_batch;
        self.next_batch += 1;
        let BatchDecision {
            chosen,
            keep,
            shed,
            forced,
        } = decide_batch(now_us, &batch.members, &self.est[model]);
        let variant = PlanVariant::LADDER[chosen];
        self.log.push(
            now_us,
            ServeEventKind::BatchFormed {
                batch: id,
                model,
                variant,
                members: batch.members.iter().map(|m| m.id).collect(),
                oldest_wait_us: batch.oldest_wait_us,
                vtime: batch.vtime,
                backlogged: batch.backlogged,
            },
        );
        if chosen != 0 {
            for m in keep.iter().filter(|m| forced.contains(&m.id)) {
                self.log.push(
                    now_us,
                    ServeEventKind::Degraded {
                        req: m.id,
                        tenant: m.tenant,
                        batch: id,
                        from: PlanVariant::Hybrid,
                        to: variant,
                    },
                );
                self.sink("degraded", m.tenant, now_us);
            }
        }
        for m in &shed {
            self.log.push(
                now_us,
                ServeEventKind::Shed {
                    req: m.id,
                    tenant: m.tenant,
                    reason: RejectReason::DeadlineUnmeetable,
                },
            );
            self.sink("shed", m.tenant, now_us);
            self.admission.release(m.tenant);
        }
        let done_us = now_us + self.est[model][chosen] * batch_factor(keep.len());
        if let Some(first) = keep.first() {
            self.busy_until = done_us;
            self.sink("batch_dispatched", first.tenant, now_us);
        }
        Some(Job {
            batch: id,
            model,
            rung: chosen,
            keep,
            shed,
            done_us,
            twin: Arc::clone(&self.twins[model]),
        })
    }

    /// Settles an executed job at `now_us`: every bitwise-correct member
    /// completes, every divergence is recorded as a gate failure, and
    /// every member's admission slot is released.
    pub(crate) fn complete(&mut self, now_us: f64, job: &Job, verdicts: Result<Vec<bool>, String>) {
        let verdicts = verdicts.unwrap_or_else(|why| {
            self.bitwise_failures.push(why);
            Vec::new()
        });
        for (i, m) in job.keep.iter().enumerate() {
            self.admission.release(m.tenant);
            match verdicts.get(i) {
                Some(true) => {
                    self.log.push(
                        now_us,
                        ServeEventKind::Completed {
                            req: m.id,
                            tenant: m.tenant,
                            batch: job.batch,
                            latency_us: now_us - m.arrival_us,
                            deadline_us: m.deadline_us,
                            degraded: job.rung != 0,
                        },
                    );
                    self.sink("completed", m.tenant, now_us);
                }
                Some(false) => self.bitwise_failures.push(format!(
                    "{} batch {} req {}: output diverged from the fault-free {} reference",
                    job.twin.kind,
                    job.batch,
                    m.id,
                    PlanVariant::LADDER[job.rung].name()
                )),
                // The whole batch failed; its reason is recorded above.
                None => {}
            }
        }
    }

    /// The run's report, derived from the admission log; goodput is
    /// over `duration_s` of arrival generation.
    pub(crate) fn report(self, duration_s: f64) -> SiegeReport {
        let mut tenants: Vec<TenantStats> = self
            .loads
            .iter()
            .map(|l| TenantStats {
                name: l.tenant.name.clone(),
                weight: l.tenant.weight,
                ..TenantStats::default()
            })
            .collect();
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
        let (mut batches, mut degraded_batches) = (0, 0);
        for ServeEvent { kind, .. } in &self.log.events {
            match kind {
                ServeEventKind::Arrived { tenant, .. } => tenants[*tenant].arrived += 1,
                ServeEventKind::Admitted { tenant, .. } => tenants[*tenant].admitted += 1,
                ServeEventKind::Rejected { tenant, .. } => tenants[*tenant].rejected += 1,
                ServeEventKind::Shed { tenant, .. } => tenants[*tenant].shed += 1,
                ServeEventKind::Degraded { tenant, .. } => tenants[*tenant].degraded += 1,
                ServeEventKind::Completed {
                    tenant, latency_us, ..
                } => {
                    tenants[*tenant].completed += 1;
                    latencies[*tenant].push(*latency_us);
                }
                ServeEventKind::BatchFormed { variant, .. } => {
                    batches += 1;
                    if *variant != PlanVariant::Hybrid {
                        degraded_batches += 1;
                    }
                }
                ServeEventKind::Enqueued { .. } => {}
            }
        }
        let duration_s = duration_s.max(1e-9);
        for (t, mut sample) in tenants.iter_mut().zip(latencies) {
            sample.sort_by(f64::total_cmp);
            let pct = |q| percentile(&sample, q).unwrap_or(f64::NAN);
            t.p50_us = pct(0.50);
            t.p99_us = pct(0.99);
            t.p999_us = pct(0.999);
            t.failed = t.admitted.saturating_sub(t.shed + t.completed);
            t.goodput_rps = t.completed as f64 / duration_s;
        }
        let admitted: usize = tenants.iter().map(|t| t.admitted).sum();
        let shed: usize = tenants.iter().map(|t| t.shed).sum();
        let completed: usize = tenants.iter().map(|t| t.completed).sum();
        let servable = admitted.saturating_sub(shed);
        let normalized: Vec<f64> = tenants
            .iter()
            .filter(|t| t.completed > 0)
            .map(|t| t.goodput_rps / t.weight)
            .collect();
        SiegeReport {
            models: self
                .twins
                .iter()
                .map(|t| ModelStats {
                    name: t.kind.to_string(),
                    variants: t
                        .rungs
                        .iter()
                        .zip(PlanVariant::LADDER)
                        .map(|(r, v)| (v.name().to_string(), r.predicted_us))
                        .collect(),
                })
                .collect(),
            weights: tenants.iter().map(|t| t.weight).collect(),
            tenants,
            batches,
            degraded_batches,
            survival: if servable == 0 {
                1.0
            } else {
                completed as f64 / servable as f64
            },
            shed_rate: if admitted == 0 {
                0.0
            } else {
                shed as f64 / admitted as f64
            },
            fairness_spread: if normalized.len() < 2 {
                1.0
            } else {
                normalized.iter().copied().fold(f64::MIN, f64::max)
                    / normalized.iter().copied().fold(f64::MAX, f64::min)
            },
            high_water: self.batcher.high_water(),
            queue_capacity: self.batcher.capacity(),
            max_batch: self.batcher.policy().max_batch,
            lost: servable.saturating_sub(completed),
            bitwise_failures: self.bitwise_failures,
            log: self.log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::siege::LoadMode;

    fn load(tenant: TenantConfig) -> TenantLoad {
        TenantLoad {
            tenant,
            mode: LoadMode::Open { rate_rps: 1.0 },
            slo_us: None,
            models: Vec::new(),
        }
    }

    #[test]
    fn queue_full_refusal_leaves_the_token_bucket_untouched() {
        // Tenant 1 holds exactly one token and earns no more. With the
        // pending set full its request is refused `queue_full`; that
        // refusal must not spend the token, so once the set drains the
        // tenant is admitted at the same instant.
        let loads = [
            load(TenantConfig::unlimited("filler", 1.0)),
            load(TenantConfig {
                name: "burst-1".to_string(),
                weight: 1.0,
                rate_per_s: 1e-9,
                burst: 1.0,
                max_in_flight: 8,
            }),
        ];
        let policy = BatchPolicy {
            max_batch: 1,
            max_delay_us: 0.0,
        };
        let mut d = Dispatcher::new(
            &loads,
            &[ModelKind::Fcnn],
            &edgenn_sim::platforms::jetson_agx_xavier(),
            3,
            1,
            policy,
            None,
        )
        .unwrap();
        assert_eq!(d.arrive(0.0, 0, 0), Ok(()));
        assert!(d.arrive(0.0, 1, 0).is_err(), "the pending set is full");
        assert!(matches!(
            d.log.events.last().map(|e| &e.kind),
            Some(ServeEventKind::Rejected {
                reason: RejectReason::QueueFull,
                ..
            })
        ));
        let job = d.form(0.0).expect("a full group of one is ready");
        assert_eq!(job.keep.len(), 1);
        assert_eq!(d.pending(), 0);
        assert_eq!(
            d.arrive(0.0, 1, 0),
            Ok(()),
            "the queue_full refusal spent the tenant's only token"
        );
    }
}
