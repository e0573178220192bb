//! Typed serving-layer decisions: the admission log.
//!
//! Every decision the front-end takes — admit, reject, enqueue, batch,
//! degrade, shed, complete — is appended to an [`AdmissionLog`] as a
//! [`ServeEvent`]. The log is the serving layer's equivalent of PR 4's
//! recovery log: a replayable record the `edgenn-check` EC07x tier can
//! verify *after the fact* (no post-shed completions, exact weighted-
//! fair pick order, bounded queue depth, admission accounting that adds
//! up), and the raw material for the siege report's per-tenant tails.

use serde_json::{Map, Value};

use crate::batcher::PlanVariant;

/// Why a request was refused (at admission) or shed (after admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty (sustained rate exceeded).
    RateLimited,
    /// The tenant already has its maximum admitted requests in flight.
    InFlightCap,
    /// The bounded pending set is at capacity (global backpressure).
    QueueFull,
    /// Queue-wait estimate plus the fastest plan variant's predicted
    /// latency already exceeds the request's deadline.
    DeadlineUnmeetable,
}

impl RejectReason {
    /// Stable snake-case name (JSON, metrics, docs).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::RateLimited => "rate_limited",
            RejectReason::InFlightCap => "in_flight_cap",
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineUnmeetable => "deadline_unmeetable",
        }
    }

    /// Every reason, for docs-sync and exhaustive tests.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::RateLimited,
        RejectReason::InFlightCap,
        RejectReason::QueueFull,
        RejectReason::DeadlineUnmeetable,
    ];
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One serving-layer decision, stamped with the clock it happened on
/// (virtual microseconds under `edgenn siege`, wall microseconds under
/// `edgenn serve`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// When the decision was taken (us).
    pub t_us: f64,
    /// What was decided.
    pub kind: ServeEventKind,
}

/// The decision itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEventKind {
    /// A request arrived at the front door.
    Arrived {
        /// Request id (unique within one run).
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
        /// Catalog model ordinal the request targets.
        model: usize,
    },
    /// Admission control accepted the request.
    Admitted {
        /// Request id.
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
    },
    /// Admission control refused the request (never entered the queue).
    Rejected {
        /// Request id.
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
        /// Why it was refused.
        reason: RejectReason,
        /// Backpressure hint: earliest worthwhile retry (us from now).
        retry_after_us: f64,
    },
    /// An admitted request entered the bounded pending set.
    Enqueued {
        /// Request id.
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
        /// Catalog model ordinal.
        model: usize,
        /// Pending-set depth *after* this enqueue (bound check input).
        depth: usize,
    },
    /// The dynamic batcher closed a batch and dispatched it.
    BatchFormed {
        /// Batch id (unique within one run).
        batch: u64,
        /// Catalog model ordinal the batch executes.
        model: usize,
        /// The plan variant the whole batch runs under.
        variant: PlanVariant,
        /// Member request ids, in pick order (fairness replay input).
        members: Vec<u64>,
        /// Age of the oldest member at dispatch (us).
        oldest_wait_us: f64,
        /// Per-tenant virtual-time vector *after* charging this batch.
        vtime: Vec<f64>,
        /// Tenants still holding pending requests after this batch.
        backlogged: Vec<usize>,
    },
    /// The SLO guard downgraded a batch's plan variant to protect a
    /// member's deadline.
    Degraded {
        /// Request id whose deadline forced the downgrade.
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
        /// Batch the request rides in.
        batch: u64,
        /// Variant the batch would have run.
        from: PlanVariant,
        /// Variant it runs instead.
        to: PlanVariant,
    },
    /// An admitted request was dropped because no ladder variant could
    /// meet its deadline.
    Shed {
        /// Request id.
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
        /// Why it could not be saved.
        reason: RejectReason,
    },
    /// A request finished executing and its output passed verification.
    Completed {
        /// Request id.
        req: u64,
        /// Tenant ordinal.
        tenant: usize,
        /// Batch it executed in.
        batch: u64,
        /// End-to-end latency, arrival → completion (us).
        latency_us: f64,
        /// Absolute deadline, if the request carried one (us).
        deadline_us: Option<f64>,
        /// Whether the batch ran a degraded variant.
        degraded: bool,
    },
}

impl ServeEventKind {
    /// Stable snake-case name (JSON, metrics, docs-sync).
    pub fn name(&self) -> &'static str {
        match self {
            ServeEventKind::Arrived { .. } => "arrived",
            ServeEventKind::Admitted { .. } => "admitted",
            ServeEventKind::Rejected { .. } => "rejected",
            ServeEventKind::Enqueued { .. } => "enqueued",
            ServeEventKind::BatchFormed { .. } => "batch_formed",
            ServeEventKind::Degraded { .. } => "degraded",
            ServeEventKind::Shed { .. } => "shed",
            ServeEventKind::Completed { .. } => "completed",
        }
    }

    /// Every kind name, for the docs-sync test.
    pub const ALL_NAMES: [&'static str; 8] = [
        "arrived",
        "admitted",
        "rejected",
        "enqueued",
        "batch_formed",
        "degraded",
        "shed",
        "completed",
    ];
}

impl ServeEvent {
    /// JSON form (archived by `edgenn siege --out`).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("t_us", Value::from(self.t_us));
        m.insert("event", Value::from(self.kind.name()));
        match &self.kind {
            ServeEventKind::Arrived { req, tenant, model } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
                m.insert("model", Value::from(*model));
            }
            ServeEventKind::Admitted { req, tenant } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
            }
            ServeEventKind::Rejected {
                req,
                tenant,
                reason,
                retry_after_us,
            } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
                m.insert("reason", Value::from(reason.name()));
                m.insert("retry_after_us", Value::from(*retry_after_us));
            }
            ServeEventKind::Enqueued {
                req,
                tenant,
                model,
                depth,
            } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
                m.insert("model", Value::from(*model));
                m.insert("depth", Value::from(*depth));
            }
            ServeEventKind::BatchFormed {
                batch,
                model,
                variant,
                members,
                oldest_wait_us,
                vtime,
                backlogged,
            } => {
                m.insert("batch", Value::from(*batch));
                m.insert("model", Value::from(*model));
                m.insert("variant", Value::from(variant.name()));
                m.insert(
                    "members",
                    Value::Array(members.iter().map(|r| Value::from(*r)).collect()),
                );
                m.insert("oldest_wait_us", Value::from(*oldest_wait_us));
                m.insert(
                    "vtime",
                    Value::Array(vtime.iter().map(|v| Value::from(*v)).collect()),
                );
                m.insert(
                    "backlogged",
                    Value::Array(backlogged.iter().map(|t| Value::from(*t)).collect()),
                );
            }
            ServeEventKind::Degraded {
                req,
                tenant,
                batch,
                from,
                to,
            } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
                m.insert("batch", Value::from(*batch));
                m.insert("from", Value::from(from.name()));
                m.insert("to", Value::from(to.name()));
            }
            ServeEventKind::Shed {
                req,
                tenant,
                reason,
            } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
                m.insert("reason", Value::from(reason.name()));
            }
            ServeEventKind::Completed {
                req,
                tenant,
                batch,
                latency_us,
                deadline_us,
                degraded,
            } => {
                m.insert("req", Value::from(*req));
                m.insert("tenant", Value::from(*tenant));
                m.insert("batch", Value::from(*batch));
                m.insert("latency_us", Value::from(*latency_us));
                if let Some(d) = deadline_us {
                    m.insert("deadline_us", Value::from(*d));
                }
                m.insert("degraded", Value::Bool(*degraded));
            }
        }
        Value::Object(m)
    }
}

/// The append-only decision record of one serving run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionLog {
    /// Events in decision order.
    pub events: Vec<ServeEvent>,
}

impl AdmissionLog {
    /// Appends one decision.
    pub fn push(&mut self, t_us: f64, kind: ServeEventKind) {
        self.events.push(ServeEvent { t_us, kind });
    }

    /// Count of events matching `name`.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.kind.name() == name).count()
    }

    /// JSON form: an array of event objects in decision order.
    pub fn to_value(&self) -> Value {
        Value::Array(self.events.iter().map(ServeEvent::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_stable_and_complete() {
        let samples = [
            ServeEventKind::Arrived {
                req: 1,
                tenant: 0,
                model: 0,
            },
            ServeEventKind::Admitted { req: 1, tenant: 0 },
            ServeEventKind::Rejected {
                req: 1,
                tenant: 0,
                reason: RejectReason::RateLimited,
                retry_after_us: 10.0,
            },
            ServeEventKind::Enqueued {
                req: 1,
                tenant: 0,
                model: 0,
                depth: 1,
            },
            ServeEventKind::BatchFormed {
                batch: 0,
                model: 0,
                variant: PlanVariant::Hybrid,
                members: vec![1],
                oldest_wait_us: 0.0,
                vtime: vec![1.0],
                backlogged: vec![],
            },
            ServeEventKind::Degraded {
                req: 1,
                tenant: 0,
                batch: 0,
                from: PlanVariant::Hybrid,
                to: PlanVariant::Int8,
            },
            ServeEventKind::Shed {
                req: 1,
                tenant: 0,
                reason: RejectReason::DeadlineUnmeetable,
            },
            ServeEventKind::Completed {
                req: 1,
                tenant: 0,
                batch: 0,
                latency_us: 5.0,
                deadline_us: None,
                degraded: false,
            },
        ];
        let names: Vec<&str> = samples.iter().map(ServeEventKind::name).collect();
        assert_eq!(names, ServeEventKind::ALL_NAMES);
    }

    #[test]
    fn log_round_trips_to_json() {
        let mut log = AdmissionLog::default();
        log.push(1.0, ServeEventKind::Admitted { req: 7, tenant: 2 });
        log.push(
            2.0,
            ServeEventKind::Completed {
                req: 7,
                tenant: 2,
                batch: 0,
                latency_us: 1.0,
                deadline_us: Some(100.0),
                degraded: true,
            },
        );
        let v = log.to_value();
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains("\"admitted\""));
        assert!(text.contains("\"deadline_us\""));
        assert_eq!(log.count("completed"), 1);
    }

    #[test]
    fn docs_list_every_event_and_reason() {
        // Repo-standard doc-sync: docs/serving.md must name every event
        // kind and every reject reason, so a new decision type cannot
        // land undocumented.
        let docs = include_str!("../../../docs/serving.md");
        for name in ServeEventKind::ALL_NAMES {
            assert!(
                docs.contains(&format!("`{name}`")),
                "event {name} missing from docs/serving.md"
            );
        }
        for reason in RejectReason::ALL {
            assert!(
                docs.contains(&format!("`{}`", reason.name())),
                "reject reason {} missing from docs/serving.md",
                reason.name()
            );
        }
    }
}
