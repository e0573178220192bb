//! `edgenn serve`: the real-time serving loop.
//!
//! The same dispatcher (`crate::dispatch`) that [`crate::siege`] drives
//! in virtual time runs here against the wall clock. This module owns
//! only the threads: seeded client threads generate each tenant's
//! arrivals and hand them to `Dispatcher::arrive`, and the calling
//! thread dispatches — it parks
//! on a condvar until a batch is ready or the batcher's next max-delay
//! expiry, forms and guards the batch under the lock, executes it
//! outside the lock through `Executor::batch_execute` with a bitwise
//! check against the fault-free reference, and completes it under the
//! lock again. The clock is read inside the lock, so the log is in time
//! order, and its t = 0 is the end of set-up.
//!
//! One intentional difference from the siege: service-time estimates
//! are **measured**, not analytic. The hybrid rung is warmed once per
//! model at set-up (other rungs start from the analytic ratio) and an
//! EWMA tracks each rung as batches execute. Wall-clock SLO math against
//! tiny twins needs wall-clock costs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use edgenn_core::runtime::functional::Executor;
use edgenn_nn::models::ModelKind;
use edgenn_obs::Recorder;
use edgenn_sim::Platform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::TenantConfig;
use crate::batcher::BatchPolicy;
use crate::dispatch::Dispatcher;
use crate::siege::{LoadMode, SiegeReport, TenantLoad};

/// A real-time serving scenario.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for client arrival processes and input selection.
    pub seed: u64,
    /// Wall-clock run length (ms).
    pub duration_ms: u64,
    /// The tenant population. Closed-loop tenants run semi-open here:
    /// each client paces by think time without waiting for responses.
    pub tenants: Vec<TenantLoad>,
    /// The model catalog.
    pub models: Vec<ModelKind>,
    /// Bound on admitted requests not yet formed into a batch (the
    /// batcher's pending set); arrivals beyond it are rejected with
    /// `queue_full`.
    pub queue_capacity: usize,
    /// Dynamic-batching policy.
    pub policy: BatchPolicy,
    /// The platform the tuner prices plans against.
    pub platform: Platform,
}

impl ServeConfig {
    /// A small two-tenant demo scenario.
    pub fn demo(seed: u64, duration_ms: u64) -> Self {
        ServeConfig {
            seed,
            duration_ms,
            tenants: vec![
                TenantLoad {
                    tenant: TenantConfig {
                        name: "tenant-a".to_string(),
                        weight: 2.0,
                        rate_per_s: 300.0,
                        burst: 8.0,
                        max_in_flight: 32,
                    },
                    mode: LoadMode::Open { rate_rps: 150.0 },
                    slo_us: None,
                    models: Vec::new(),
                },
                TenantLoad {
                    tenant: TenantConfig {
                        name: "tenant-b".to_string(),
                        weight: 1.0,
                        rate_per_s: 300.0,
                        burst: 8.0,
                        max_in_flight: 32,
                    },
                    mode: LoadMode::Open { rate_rps: 150.0 },
                    slo_us: None,
                    models: Vec::new(),
                },
            ],
            models: vec![ModelKind::Fcnn, ModelKind::LeNet],
            queue_capacity: 64,
            policy: BatchPolicy {
                max_batch: 4,
                max_delay_us: 2_000.0,
            },
            platform: edgenn_sim::platforms::jetson_agx_xavier(),
        }
    }
}

const POISONED: &str = "a serving thread panicked while holding the dispatcher";

fn lock<'d, 'a>(state: &'d Mutex<Dispatcher<'a>>) -> MutexGuard<'d, Dispatcher<'a>> {
    state.lock().expect(POISONED)
}

/// Microseconds since `t0`: the log's clock.
fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// One client thread: generates this tenant's arrivals against the
/// wall clock until the dispatcher closes the door.
fn client_loop(
    config: &ServeConfig,
    tenant: usize,
    state: &Mutex<Dispatcher<'_>>,
    work: &Condvar,
    closed: &AtomicBool,
    t0: Instant,
) {
    let load = &config.tenants[tenant];
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xC11E + tenant as u64 * 7919));
    let (mean_gap_us, think) = match load.mode {
        LoadMode::Open { rate_rps } => (1e6 / rate_rps.max(1e-9), false),
        LoadMode::Closed {
            concurrency,
            think_us,
        } => (think_us.max(100.0) / concurrency.max(1) as f64, true),
    };
    loop {
        let gap_us = if think {
            mean_gap_us
        } else {
            let u: f64 = rng.gen_range(0.0..1.0);
            -(1.0 - u).ln() * mean_gap_us
        };
        std::thread::sleep(Duration::from_micros(gap_us.clamp(50.0, 100_000.0) as u64));
        let model = if load.models.is_empty() {
            rng.gen_range(0..config.models.len())
        } else {
            load.models[rng.gen_range(0..load.models.len())]
        };
        let mut dispatcher = lock(state);
        // Once the dispatcher has closed the door and drained, no
        // request may be admitted behind it.
        if closed.load(Ordering::Relaxed) {
            return;
        }
        if dispatcher.arrive(micros_since(t0), tenant, model).is_ok() {
            work.notify_one();
        }
    }
}

/// Measures the hybrid rung once per model and rescales each model's
/// analytic estimates to it.
fn warm_estimates(dispatcher: &mut Dispatcher<'_>) -> Result<(), String> {
    let mut measured = Vec::new();
    for twin in dispatcher.twins() {
        let exec = Executor::new(&twin.tiny).map_err(|e| e.to_string())?;
        let start = Instant::now();
        exec.execute(&twin.rungs[0].tiny_plan, &twin.inputs[0])
            .map_err(|e| format!("{} warm-up: {e}", twin.kind))?;
        measured.push(micros_since(start));
    }
    for (row, hybrid_us) in dispatcher.estimates_mut().iter_mut().zip(measured) {
        let hybrid_pred = row[0];
        for est in row.iter_mut() {
            *est = hybrid_us * (*est / hybrid_pred);
        }
    }
    Ok(())
}

/// The dispatcher thread: closes the door at the end of the run, then
/// drains. Batches are formed and completed under the lock and executed
/// outside it.
fn dispatch_loop(
    state: &Mutex<Dispatcher<'_>>,
    work: &Condvar,
    closed: &AtomicBool,
    t0: Instant,
    end_us: f64,
) {
    let mut dispatcher = lock(state);
    loop {
        let now_us = micros_since(t0);
        if now_us >= end_us {
            closed.store(true, Ordering::Relaxed);
        }
        if let Some(job) = dispatcher.form(now_us) {
            if job.keep.is_empty() {
                continue;
            }
            drop(dispatcher);
            let start = Instant::now();
            let verdicts = job.execute(None);
            let per_req_us = micros_since(start) / job.keep.len() as f64;
            dispatcher = lock(state);
            let est = &mut dispatcher.estimates_mut()[job.model][job.rung];
            *est = 0.7 * *est + 0.3 * per_req_us;
            dispatcher.complete(micros_since(t0), &job, verdicts);
            continue;
        }
        if closed.load(Ordering::Relaxed) && dispatcher.pending() == 0 {
            return;
        }
        let park_us = dispatcher
            .next_expiry()
            .map_or(1_000.0, |e| (e - now_us).clamp(50.0, 5_000.0));
        dispatcher = work
            .wait_timeout(dispatcher, Duration::from_micros(park_us as u64))
            .expect(POISONED)
            .0;
    }
}

/// Runs a real-time serving session for `config.duration_ms`, then
/// drains and reports. The report shape is shared with the siege so
/// `edgenn serve` and `edgenn siege` print identically and the EC07x
/// checker consumes either log.
///
/// # Errors
/// Fails on scenario construction problems (empty tenant/model lists,
/// un-plannable models, out-of-range model references).
pub fn run_server(
    config: &ServeConfig,
    observer: Option<&Recorder>,
) -> Result<SiegeReport, String> {
    let mut dispatcher = Dispatcher::new(
        &config.tenants,
        &config.models,
        &config.platform,
        config.seed,
        config.queue_capacity,
        config.policy,
        observer,
    )?;
    warm_estimates(&mut dispatcher)?;
    let state = Mutex::new(dispatcher);
    let work = Condvar::new();
    // Only read and written under the dispatcher lock, which orders it.
    let closed = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..config.tenants.len() {
            let (state, work, closed) = (&state, &work, &closed);
            scope.spawn(move || client_loop(config, tenant, state, work, closed, t0));
        }
        dispatch_loop(&state, &work, &closed, t0, config.duration_ms as f64 * 1e3);
    });
    let dispatcher = state.into_inner().expect(POISONED);
    Ok(dispatcher.report(config.duration_ms as f64 / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{RejectReason, ServeEventKind};

    #[test]
    fn short_realtime_session_serves_and_accounts() {
        let mut cfg = ServeConfig::demo(42, 250);
        cfg.models = vec![ModelKind::Fcnn];
        let report = run_server(&cfg, None).unwrap();
        assert!(
            report.bitwise_failures.is_empty(),
            "{:?}",
            report.bitwise_failures
        );
        assert_eq!(report.lost, 0, "every admitted request accounted for");
        let admitted: usize = report.tenants.iter().map(|t| t.admitted).sum();
        assert!(admitted > 0, "the session admitted work: {report:?}");
        assert!((report.survival - 1.0).abs() < 1e-12);
        assert!(report.high_water <= report.queue_capacity);
    }

    #[test]
    fn queue_capacity_bounds_admitted_but_unbatched_requests() {
        let mut cfg = ServeConfig::demo(1, 300);
        cfg.queue_capacity = 1;
        let report = run_server(&cfg, None).unwrap();
        let (mut unbatched, mut worst) = (0usize, 0usize);
        for event in &report.log.events {
            match &event.kind {
                ServeEventKind::Admitted { .. } => unbatched += 1,
                ServeEventKind::BatchFormed { members, .. } => unbatched -= members.len(),
                _ => {}
            }
            worst = worst.max(unbatched);
        }
        assert!(worst <= 1, "{worst} admitted requests waited unbatched");
        assert!(report.gate_clean(), "{:?}", report.tenants);
    }

    #[test]
    fn unmeetable_slo_is_refused_at_admission_not_shed() {
        // A zero SLO sits below every rung's estimate: the feasibility
        // check must refuse each such request before it is admitted.
        let mut cfg = ServeConfig::demo(5, 150);
        cfg.models = vec![ModelKind::Fcnn];
        cfg.tenants[1].slo_us = Some(0.0);
        let report = run_server(&cfg, None).unwrap();
        let tight = &report.tenants[1];
        let refused = report
            .log
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ServeEventKind::Rejected {
                        tenant: 1,
                        reason: RejectReason::DeadlineUnmeetable,
                        ..
                    }
                )
            })
            .count();
        assert!(tight.arrived > 0, "{tight:?}");
        assert_eq!(refused, tight.arrived, "{tight:?}");
        assert_eq!((tight.admitted, tight.shed), (0, 0));
        assert!(
            report.tenants[0].completed > 0,
            "the other tenant is served"
        );
        assert!(report.gate_clean(), "{:?}", report.tenants);
    }
}
