//! The weighted-fair dynamic batcher.
//!
//! Admitted requests wait in a **bounded** pending set, grouped by
//! model. A batch for one model closes when the group reaches
//! `max_batch` or its oldest member has waited `max_delay_us` —
//! same-model (and, because the whole batch executes one plan variant,
//! same-precision) requests coalesce into a single
//! `Executor::batch_execute` call, which runs each member the way
//! `Executor::execute` does.
//!
//! Tenant fairness is start-time fair queueing over a per-tenant
//! **virtual time**: each tenant accumulates `1 / weight` per served
//! request, and every pick goes to the eligible tenant with the
//! smallest virtual time (ties to the lowest ordinal). Two properties
//! follow, and both are enforced elsewhere:
//!
//! * Among tenants continuously backlogged on one model, normalized
//!   service never diverges by more than `1 / min_weight` — the
//!   weighted-fairness bound the proptests below drive adversarially.
//! * The pick sequence is a pure function of the push sequence, so the
//!   EC07x checker replays it decision-for-decision from the admission
//!   log and flags any divergence.
//!
//! A tenant re-entering the backlog resumes at the *minimum* virtual
//! time of the currently backlogged tenants — or at the server virtual
//! time (the largest pick start tag so far) when the backlog is empty —
//! never below its own, so idling banks no credit with which to starve
//! others later.

use std::collections::VecDeque;

/// One admitted inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id within one serving run.
    pub id: u64,
    /// Tenant ordinal.
    pub tenant: usize,
    /// Catalog model ordinal.
    pub model: usize,
    /// Arrival time (us).
    pub arrival_us: f64,
    /// Absolute completion deadline (us), if the tenant carries an SLO.
    pub deadline_us: Option<f64>,
}

/// The plan-variant ladder one model can execute under, in degradation
/// order: the tuned hybrid plan first, then single-processor, then
/// int8 where the model's layers make quantization worthwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanVariant {
    /// The tuner's hybrid CPU+GPU plan (the default, highest-quality
    /// co-run schedule).
    Hybrid,
    /// Single-processor execution (whichever of GPU-only/CPU-only the
    /// tuner predicts faster) — fewer moving parts under pressure.
    Single,
    /// The int8 quantized path (only offered where `int8_worthwhile`).
    Int8,
}

impl PlanVariant {
    /// The ladder in quality order: a model's rung `i` runs `LADDER[i]`.
    pub const LADDER: [PlanVariant; 3] =
        [PlanVariant::Hybrid, PlanVariant::Single, PlanVariant::Int8];

    /// Stable snake-case name (JSON, events, docs).
    pub fn name(self) -> &'static str {
        match self {
            PlanVariant::Hybrid => "hybrid",
            PlanVariant::Single => "single",
            PlanVariant::Int8 => "int8",
        }
    }
}

/// When a model's pending group closes into a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Maximum time the oldest member may wait before the batch closes
    /// regardless of size (us).
    pub max_delay_us: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay_us: 2_000.0,
        }
    }
}

/// One closed batch, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Catalog model ordinal every member targets.
    pub model: usize,
    /// Members in pick order (per-tenant FIFO subsequences).
    pub members: Vec<Request>,
    /// Age of the oldest member at close (us).
    pub oldest_wait_us: f64,
    /// Per-tenant virtual time *after* charging this batch.
    pub vtime: Vec<f64>,
    /// Tenants still backlogged after this batch closed.
    pub backlogged: Vec<usize>,
}

struct Pending {
    req: Request,
    enqueue_us: f64,
}

/// The bounded pending set plus the weighted-fair pick state.
pub struct Batcher {
    policy: BatchPolicy,
    capacity: usize,
    weights: Vec<f64>,
    vtime: Vec<f64>,
    /// Per-model pending requests in enqueue order.
    pending: Vec<VecDeque<Pending>>,
    /// Per-tenant total pending count (backlog membership).
    tenant_pending: Vec<usize>,
    /// Server virtual time: the largest pre-charge virtual time any
    /// pick has started at. Monotone; the re-entry floor when the
    /// backlog is empty, so a tenant joining an idle server still
    /// banks no credit against tenants with service history.
    vfloor: f64,
    depth: usize,
    high_water: usize,
}

impl Batcher {
    /// A batcher over `models` model groups and one weight per tenant,
    /// refusing pushes beyond `capacity` total pending requests.
    ///
    /// # Panics
    /// Panics on a zero capacity or a non-positive tenant weight
    /// (both are configuration bugs).
    pub fn new(policy: BatchPolicy, capacity: usize, weights: &[f64], models: usize) -> Self {
        assert!(capacity > 0, "batcher capacity must be at least 1");
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "tenant weights must be positive"
        );
        Batcher {
            policy,
            capacity,
            weights: weights.to_vec(),
            vtime: vec![0.0; weights.len()],
            pending: (0..models).map(|_| VecDeque::new()).collect(),
            tenant_pending: vec![0; weights.len()],
            vfloor: 0.0,
            depth: 0,
            high_water: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Total pending requests.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest the pending set ever got.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Per-tenant virtual time (normalized service) snapshot.
    pub fn vtime(&self) -> &[f64] {
        &self.vtime
    }

    /// Tenants currently holding pending requests, ascending.
    pub fn backlogged(&self) -> Vec<usize> {
        (0..self.tenant_pending.len())
            .filter(|&t| self.tenant_pending[t] > 0)
            .collect()
    }

    /// Enqueues an admitted request at `now_us`. Returns the depth
    /// after the push (the `Enqueued` event's bound-check input).
    ///
    /// # Errors
    /// `Err(())` when the pending set is at capacity — the caller
    /// translates this into a typed `QueueFull` rejection.
    ///
    /// # Panics
    /// Panics on an out-of-range model or tenant ordinal (caller bug).
    // The unit error is deliberate: "full" carries no payload, and the
    // caller owns the typed rejection (reason + retry hint).
    #[allow(clippy::result_unit_err)]
    pub fn push(&mut self, req: Request, now_us: f64) -> Result<usize, ()> {
        if self.depth >= self.capacity {
            return Err(());
        }
        let tenant = req.tenant;
        if self.tenant_pending[tenant] == 0 {
            // Re-entry: resume at the backlog's minimum virtual time —
            // or, when nothing is backlogged, at the server virtual
            // time — so an idle period banks no catch-up credit.
            let backlog_floor = (0..self.tenant_pending.len())
                .filter(|&t| self.tenant_pending[t] > 0)
                .map(|t| self.vtime[t])
                .fold(f64::INFINITY, f64::min);
            let floor = if backlog_floor.is_finite() {
                backlog_floor
            } else {
                self.vfloor
            };
            self.vtime[tenant] = self.vtime[tenant].max(floor);
        }
        self.pending[req.model].push_back(Pending {
            req,
            enqueue_us: now_us,
        });
        self.tenant_pending[tenant] += 1;
        self.depth += 1;
        self.high_water = self.high_water.max(self.depth);
        Ok(self.depth)
    }

    /// The model whose batch should close at `now_us`, if any: a group
    /// at `max_batch`, or one whose oldest member has aged past
    /// `max_delay_us`. Among ready models, the one containing the
    /// smallest-virtual-time tenant wins (ties to the older group).
    pub fn ready(&self, now_us: f64) -> Option<usize> {
        let mut best: Option<(f64, f64, usize)> = None;
        for (model, group) in self.pending.iter().enumerate() {
            let Some(oldest) = group.front() else {
                continue;
            };
            // Compare against the same sum `next_expiry` hands the
            // dispatcher to park on: `now - enqueue >= delay` can round
            // the other way at the exact expiry instant and livelock
            // the park/poll loop.
            let aged = now_us >= oldest.enqueue_us + self.policy.max_delay_us;
            if group.len() < self.policy.max_batch && !aged {
                continue;
            }
            let min_vtime = group
                .iter()
                .map(|p| self.vtime[p.req.tenant])
                .fold(f64::INFINITY, f64::min);
            let key = (min_vtime, oldest.enqueue_us, model);
            let better = match best {
                None => true,
                Some(b) => key < b,
            };
            if better {
                best = Some(key);
            }
        }
        best.map(|(_, _, model)| model)
    }

    /// The earliest future instant at which some group ages past
    /// `max_delay_us` (the dispatcher's park deadline). `None` when
    /// nothing is pending.
    pub fn next_expiry(&self) -> Option<f64> {
        self.pending
            .iter()
            .filter_map(|g| g.front().map(|p| p.enqueue_us + self.policy.max_delay_us))
            .min_by(|a, b| a.partial_cmp(b).expect("finite expiry times"))
    }

    /// Closes the batch for `model` at `now_us`: up to `max_batch`
    /// picks, each going to the eligible tenant with minimal virtual
    /// time (ties to the lowest ordinal), each taking that tenant's
    /// oldest pending request for the model, each charging
    /// `1 / weight`.
    ///
    /// # Panics
    /// Panics if `model` has nothing pending (callers gate on
    /// [`Batcher::ready`]).
    pub fn form(&mut self, model: usize, now_us: f64) -> Batch {
        assert!(
            !self.pending[model].is_empty(),
            "form() on an empty model group"
        );
        let oldest_wait_us = now_us - self.pending[model].front().expect("non-empty").enqueue_us;
        let mut members = Vec::new();
        while members.len() < self.policy.max_batch {
            // The eligible tenant with minimal virtual time.
            let Some(&winner) = self.pending[model]
                .iter()
                .map(|p| p.req.tenant)
                .collect::<std::collections::BTreeSet<_>>()
                .iter()
                .min_by(|&&a, &&b| {
                    self.vtime[a]
                        .partial_cmp(&self.vtime[b])
                        .expect("finite vtime")
                        .then(a.cmp(&b))
                })
            else {
                break;
            };
            let pos = self.pending[model]
                .iter()
                .position(|p| p.req.tenant == winner)
                .expect("winner has a pending request");
            let picked = self.pending[model].remove(pos).expect("position valid");
            self.tenant_pending[winner] -= 1;
            self.depth -= 1;
            self.vfloor = self.vfloor.max(self.vtime[winner]);
            self.vtime[winner] += 1.0 / self.weights[winner];
            members.push(picked.req);
        }
        Batch {
            model,
            members,
            oldest_wait_us,
            vtime: self.vtime.clone(),
            backlogged: self.backlogged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn req(id: u64, tenant: usize, model: usize, t: f64) -> Request {
        Request {
            id,
            tenant,
            model,
            arrival_us: t,
            deadline_us: None,
        }
    }

    #[test]
    fn batch_closes_at_max_batch_or_max_delay() {
        let policy = BatchPolicy {
            max_batch: 3,
            max_delay_us: 100.0,
        };
        let mut b = Batcher::new(policy, 64, &[1.0], 1);
        b.push(req(0, 0, 0, 0.0), 0.0).unwrap();
        assert_eq!(b.ready(50.0), None, "young and under-full");
        b.push(req(1, 0, 0, 60.0), 60.0).unwrap();
        b.push(req(2, 0, 0, 70.0), 70.0).unwrap();
        assert_eq!(b.ready(70.0), Some(0), "max_batch reached");
        let batch = b.form(0, 70.0);
        assert_eq!(batch.members.len(), 3);
        // A lone aged request closes by delay.
        b.push(req(3, 0, 0, 80.0), 80.0).unwrap();
        assert_eq!(b.ready(179.0), None);
        assert_eq!(b.ready(180.0), Some(0));
        assert_eq!(b.next_expiry(), Some(180.0));
    }

    #[test]
    fn capacity_bound_is_hard_and_high_water_tracked() {
        let mut b = Batcher::new(BatchPolicy::default(), 2, &[1.0], 1);
        b.push(req(0, 0, 0, 0.0), 0.0).unwrap();
        b.push(req(1, 0, 0, 0.0), 0.0).unwrap();
        assert!(b.push(req(2, 0, 0, 0.0), 0.0).is_err());
        assert_eq!(b.depth(), 2);
        assert_eq!(b.high_water(), 2);
        let _ = b.form(0, 10.0);
        assert_eq!(b.depth(), 0);
        assert_eq!(b.high_water(), 2, "high water survives drain");
    }

    /// Satellite proptest (a): one tenant's requests to one model are
    /// never reordered, under seeded adversarial arrivals.
    #[test]
    fn proptest_tenant_fifo_never_reorders() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0xF1F0 ^ seed);
            let tenants = rng.gen_range(1..5usize);
            let models = rng.gen_range(1..4usize);
            let weights: Vec<f64> = (0..tenants).map(|_| rng.gen_range(0.5..4.5)).collect();
            let policy = BatchPolicy {
                max_batch: rng.gen_range(1..7usize),
                max_delay_us: 50.0,
            };
            let mut b = Batcher::new(policy, 1024, &weights, models);
            let mut dispatched: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); models]; tenants];
            let mut now = 0.0;
            for id in 0..400u64 {
                now += rng.gen_range(0.0..20.0);
                let t = rng.gen_range(0..tenants);
                let m = rng.gen_range(0..models);
                b.push(req(id, t, m, now), now).unwrap();
                while let Some(model) = b.ready(now) {
                    for member in b.form(model, now).members {
                        dispatched[member.tenant][model].push(member.id);
                    }
                }
            }
            for per_model in &dispatched {
                for ids in per_model {
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    assert_eq!(ids, &sorted, "tenant requests reordered (seed {seed})");
                }
            }
        }
    }

    /// Satellite proptest (b): a pending request is never held past
    /// max_delay — whenever the batcher refuses to close a batch, every
    /// pending request is younger than max_delay; and an event-driven
    /// dispatcher polling `next_expiry` dispatches every request within
    /// max_delay of its enqueue.
    #[test]
    fn proptest_batch_formation_never_exceeds_max_delay() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0xDE1A ^ seed);
            let models = rng.gen_range(1..4usize);
            let policy = BatchPolicy {
                max_batch: rng.gen_range(1..6usize),
                max_delay_us: rng.gen_range(10.0..210.0),
            };
            let mut b = Batcher::new(policy, 4096, &[1.0, 2.0], models);
            let mut enqueue_at: std::collections::HashMap<u64, f64> = Default::default();
            let mut arrivals: Vec<(f64, u64, usize, usize)> = Vec::new();
            let mut t = 0.0;
            for id in 0..300u64 {
                t += rng.gen_range(0.0..policy.max_delay_us / 2.0);
                arrivals.push((t, id, rng.gen_range(0..2usize), rng.gen_range(0..models)));
            }
            let mut i = 0;
            let mut now = 0.0;
            while i < arrivals.len() || b.depth() > 0 {
                // Advance to the next arrival or batch expiry, whichever
                // comes first — exactly what the dispatcher loop does.
                let next_arrival = arrivals.get(i).map(|a| a.0);
                let expiry = b.next_expiry();
                now = match (next_arrival, expiry) {
                    (Some(a), Some(e)) => a.min(e).max(now),
                    (Some(a), None) => a.max(now),
                    (None, Some(e)) => e.max(now),
                    (None, None) => break,
                };
                while i < arrivals.len() && arrivals[i].0 <= now {
                    let (at, id, tenant, model) = arrivals[i];
                    b.push(req(id, tenant, model, at), at).unwrap();
                    enqueue_at.insert(id, at);
                    i += 1;
                }
                while let Some(model) = b.ready(now) {
                    for member in b.form(model, now).members {
                        let waited = now - enqueue_at[&member.id];
                        assert!(
                            waited <= policy.max_delay_us + 1e-6,
                            "request {} waited {waited} > max_delay {} (seed {seed})",
                            member.id,
                            policy.max_delay_us
                        );
                    }
                }
            }
            assert_eq!(b.depth(), 0, "drained (seed {seed})");
        }
    }

    /// Satellite proptest (c): among tenants *continuously backlogged*
    /// on one model, normalized service (virtual time) never diverges
    /// by more than `1 / min_weight`, under adversarial weights and
    /// batch sizes. The closed-loop refill (every served request is
    /// immediately replaced before the next batch forms) guarantees the
    /// continuous backlog the bound is stated over.
    #[test]
    fn proptest_weighted_fairness_bound_holds() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0xFA1B ^ seed);
            let tenants = rng.gen_range(2..6usize);
            let weights: Vec<f64> = (0..tenants).map(|_| rng.gen_range(0.25..4.25)).collect();
            let min_weight = weights.iter().copied().fold(f64::INFINITY, f64::min);
            let bound = 1.0 / min_weight + 1e-9;
            let policy = BatchPolicy {
                max_batch: rng.gen_range(1..7usize),
                max_delay_us: 1.0,
            };
            let mut b = Batcher::new(policy, 1 << 14, &weights, 1);
            // Standing backlog of max_batch + 1 per tenant: even if one
            // batch serves a single tenant exclusively, that tenant
            // still holds a pending request afterwards.
            let mut id = 0u64;
            for t in 0..tenants {
                for _ in 0..=policy.max_batch {
                    b.push(req(id, t, 0, 0.0), 0.0).unwrap();
                    id += 1;
                }
            }
            let mut served = vec![0usize; tenants];
            for round in 0..200u32 {
                let now = f64::from(round + 1) * 10.0;
                assert_eq!(b.ready(now), Some(0), "continuous backlog (seed {seed})");
                let batch = b.form(0, now);
                let spread_max = batch.vtime.iter().copied().fold(f64::MIN, f64::max);
                let spread_min = batch.vtime.iter().copied().fold(f64::MAX, f64::min);
                assert!(
                    spread_max - spread_min <= bound,
                    "fairness spread {} > bound {bound} (seed {seed}, round {round})",
                    spread_max - spread_min
                );
                for member in &batch.members {
                    served[member.tenant] += 1;
                    // Closed-loop refill before the next form: the
                    // tenant never idles across a form boundary.
                    b.push(req(id, member.tenant, 0, now), now).unwrap();
                    id += 1;
                }
            }
            // Long-run goodput tracks the weights: normalized service
            // (served / weight = virtual time) stays within the bound.
            for i in 0..tenants {
                for j in 0..tenants {
                    let ni = served[i] as f64 / weights[i];
                    let nj = served[j] as f64 / weights[j];
                    assert!(
                        (ni - nj).abs() <= 1.0 / min_weight + 1.0,
                        "long-run goodput diverged (seed {seed}): {ni} vs {nj}"
                    );
                }
            }
        }
    }

    #[test]
    fn reentry_banks_no_credit() {
        // Tenant 1 idles while tenant 0 is served heavily; when tenant 1
        // returns it resumes at the backlog floor, not at zero.
        let policy = BatchPolicy {
            max_batch: 2,
            max_delay_us: 0.0,
        };
        let mut b = Batcher::new(policy, 64, &[1.0, 1.0], 1);
        for id in 0..6u64 {
            b.push(req(id, 0, 0, 0.0), 0.0).unwrap();
        }
        while b.ready(1.0).is_some() {
            let _ = b.form(0, 1.0);
        }
        assert!(b.vtime()[0] >= 6.0 - 1e-9);
        b.push(req(10, 1, 0, 2.0), 2.0).unwrap();
        b.push(req(11, 0, 0, 2.0), 2.0).unwrap();
        // Tenant 1 re-entered at tenant 0's level: one batch serves one
        // request each instead of letting tenant 1 monopolize.
        let batch = b.form(0, 3.0);
        let tenants: Vec<usize> = batch.members.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![1, 0]);
        assert!((b.vtime()[1] - b.vtime()[0]).abs() <= 1.0 + 1e-9);
    }
}
