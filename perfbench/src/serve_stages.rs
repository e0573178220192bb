//! Per-request stage times and per-batch records derived from the
//! admission log that `edgenn_serve::run_server` returns.
//!
//! Stages of one request, all on the server's clock:
//! queue wait = `Admitted` → `Enqueued`, batch wait = `Enqueued` →
//! `BatchFormed` (the batch that lists it), exec = `BatchFormed` →
//! `Completed`.

use std::collections::HashMap;

use edgenn_serve::{AdmissionLog, PlanVariant, ServeEventKind};

/// One dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Catalog model ordinal.
    pub model: usize,
    /// Members the batcher put in it (shed members included).
    pub size: usize,
    /// Members that completed.
    pub completed: usize,
    /// Whether the SLO guard moved it off the hybrid plan.
    pub degraded: bool,
    /// When it was formed (µs, server clock).
    pub formed_us: f64,
    /// Last member completion (µs); equals `formed_us` if none did.
    pub done_us: f64,
}

impl BatchRecord {
    /// Formed → last completion (µs).
    #[must_use]
    pub fn exec_us(&self) -> f64 {
        self.done_us - self.formed_us
    }
}

/// Everything the benchmark reads out of one admission log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStages {
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests admission accepted.
    pub admitted: usize,
    /// Requests admission refused.
    pub rejected: usize,
    /// Admitted requests dropped by the SLO guard.
    pub shed: usize,
    /// Requests whose batch ran a degraded plan.
    pub degraded: usize,
    /// Requests that completed with a verified output.
    pub completed: usize,
    /// Completed requests that met their deadline.
    pub within_slo: usize,
    /// Arrival → completion per completed request (µs).
    pub latency_us: Vec<f64>,
    /// Admitted → enqueued per enqueued request (µs).
    pub queue_wait_us: Vec<f64>,
    /// Enqueued → batch formed per batched request (µs).
    pub batch_wait_us: Vec<f64>,
    /// Batch formed → completed per completed request (µs).
    pub exec_us: Vec<f64>,
    /// Every batch in formation order.
    pub batches: Vec<BatchRecord>,
    /// Time of the last event (µs); the log starts at 0.
    pub last_us: f64,
}

impl ServeStages {
    /// Summed batch exec time over the log's span: the share of wall
    /// time the single dispatcher spent executing.
    #[must_use]
    pub fn dispatcher_busy(&self) -> f64 {
        if self.last_us <= 0.0 {
            return 0.0;
        }
        self.batches.iter().map(BatchRecord::exec_us).sum::<f64>() / self.last_us
    }

    /// Mean members per batch.
    #[must_use]
    pub fn batch_size_mean(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.size as f64).sum::<f64>() / self.batches.len() as f64
    }

    /// Rejected over arrived.
    #[must_use]
    pub fn reject_ratio(&self) -> f64 {
        ratio(self.rejected, self.arrived)
    }

    /// Shed over admitted.
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        ratio(self.shed, self.admitted)
    }

    /// Degraded over admitted.
    #[must_use]
    pub fn degraded_ratio(&self) -> f64 {
        ratio(self.degraded, self.admitted)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The stage boundaries of one completed request (µs, server clock).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timeline {
    /// Request id.
    pub req: u64,
    /// `Arrived`.
    pub arrived_us: f64,
    /// `Admitted`.
    pub admitted_us: f64,
    /// `Enqueued`.
    pub enqueued_us: f64,
    /// `BatchFormed` of its batch.
    pub formed_us: f64,
    /// `Completed`.
    pub done_us: f64,
}

/// Timelines of every completed request, in completion order.
#[must_use]
pub fn timelines(log: &AdmissionLog) -> Vec<Timeline> {
    let mut open: HashMap<u64, Timeline> = HashMap::new();
    let mut done = Vec::new();
    for ev in &log.events {
        let t = ev.t_us;
        match &ev.kind {
            ServeEventKind::Arrived { req, .. } => {
                open.insert(
                    *req,
                    Timeline {
                        req: *req,
                        arrived_us: t,
                        ..Timeline::default()
                    },
                );
            }
            ServeEventKind::Admitted { req, .. } => {
                if let Some(tl) = open.get_mut(req) {
                    tl.admitted_us = t;
                }
            }
            ServeEventKind::Enqueued { req, .. } => {
                if let Some(tl) = open.get_mut(req) {
                    tl.enqueued_us = t;
                }
            }
            ServeEventKind::BatchFormed { members, .. } => {
                for m in members {
                    if let Some(tl) = open.get_mut(m) {
                        tl.formed_us = t;
                    }
                }
            }
            ServeEventKind::Completed { req, .. } => {
                if let Some(mut tl) = open.remove(req) {
                    tl.done_us = t;
                    done.push(tl);
                }
            }
            _ => {}
        }
    }
    done
}

/// Derives stage times and batch records from `log`.
#[must_use]
pub fn derive(log: &AdmissionLog) -> ServeStages {
    let mut s = ServeStages::default();
    let mut admitted_at: HashMap<u64, f64> = HashMap::new();
    let mut enqueued_at: HashMap<u64, f64> = HashMap::new();
    let mut batch_index: HashMap<u64, usize> = HashMap::new();
    for ev in &log.events {
        s.last_us = s.last_us.max(ev.t_us);
        match &ev.kind {
            ServeEventKind::Arrived { .. } => s.arrived += 1,
            ServeEventKind::Admitted { req, .. } => {
                s.admitted += 1;
                admitted_at.insert(*req, ev.t_us);
            }
            ServeEventKind::Rejected { .. } => s.rejected += 1,
            ServeEventKind::Enqueued { req, .. } => {
                enqueued_at.insert(*req, ev.t_us);
                if let Some(a) = admitted_at.get(req) {
                    s.queue_wait_us.push(ev.t_us - a);
                }
            }
            ServeEventKind::BatchFormed {
                batch,
                model,
                variant,
                members,
                ..
            } => {
                for m in members {
                    if let Some(e) = enqueued_at.get(m) {
                        s.batch_wait_us.push(ev.t_us - e);
                    }
                }
                batch_index.insert(*batch, s.batches.len());
                s.batches.push(BatchRecord {
                    model: *model,
                    size: members.len(),
                    completed: 0,
                    degraded: *variant != PlanVariant::Hybrid,
                    formed_us: ev.t_us,
                    done_us: ev.t_us,
                });
            }
            ServeEventKind::Degraded { .. } => {}
            ServeEventKind::Shed { .. } => s.shed += 1,
            ServeEventKind::Completed {
                batch,
                latency_us,
                deadline_us,
                degraded,
                ..
            } => {
                s.completed += 1;
                s.latency_us.push(*latency_us);
                if deadline_us.is_none_or(|d| ev.t_us <= d) {
                    s.within_slo += 1;
                }
                if *degraded {
                    s.degraded += 1;
                }
                if let Some(&i) = batch_index.get(batch) {
                    let b = &mut s.batches[i];
                    b.completed += 1;
                    b.done_us = b.done_us.max(ev.t_us);
                    s.exec_us.push(ev.t_us - b.formed_us);
                }
            }
        }
    }
    s
}
