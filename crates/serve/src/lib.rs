//! # edgenn-serve
//!
//! The multi-tenant serving front-end over the functional execution
//! engine: the ROADMAP's "millions of users" pillar. One shared SoC
//! runs many models for many tenants; this crate is the front door
//! that stays up when requests arrive faster than they drain.
//!
//! The pipeline a request crosses (see `docs/serving.md` for the full
//! state machine):
//!
//! 1. **Admission** ([`admission`]) — a per-tenant token bucket
//!    (sustained rate + burst) and an in-flight cap, so one hot tenant
//!    cannot starve the rest. Rejections are explicit and typed
//!    ([`events::RejectReason`]) and carry a `retry_after_us` hint.
//! 2. **Bounded pending set** ([`batcher`]) — admitted requests wait
//!    in one set bounded by `queue_capacity`; overflow is a typed
//!    `queue_full` refusal, not memory growth, and the high-water mark
//!    is tracked so CI can assert the bound held.
//! 3. **Weighted-fair dynamic batching** ([`batcher`]) — same-model
//!    same-precision requests coalesce into one
//!    `Executor::batch_execute` under a max-batch/max-delay policy;
//!    tenants are served min-virtual-time first (start-time fair
//!    queueing), every pick replayable by the `edgenn-check` EC07x
//!    tier.
//! 4. **SLO guard** — when realized queue wait
//!    plus the tuner's predicted latency threatens a deadline, the
//!    batch degrades hybrid→single-processor (and f32→int8 where the
//!    model's layers make int8 worthwhile) instead of missing it; a
//!    request is shed (typed) only when no ladder variant can save it.
//!
//! Every decision lands as a typed [`events::ServeEvent`] in the
//! admission log, and as an `edgenn_serve_<decision>_total` counter in
//! the obs registry when the caller passes a recorder.
//!
//! The pipeline exists once, as the crate-private dispatcher in
//! `dispatch.rs`; each entry point only drives it on a clock.
//! [`server::run_server`] feeds it from wall-clock client threads.
//! [`siege::run_siege`] is the gate: a seeded, deterministic
//! closed+open-loop load generator in virtual time whose formed batches
//! execute for real (tiny-scale graphs, fault injection active) and
//! must reproduce the fault-free reference bitwise. Those runs and
//! their references live in one [`twin::Twin`] per model, which the
//! fault storm in `edgenn-check` reruns its rounds on too.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod batcher;
mod dispatch;
pub mod events;
pub mod server;
pub mod siege;
pub mod twin;

pub use admission::{AdmissionController, TenantConfig, TokenBucket};
pub use batcher::{Batch, BatchPolicy, Batcher, PlanVariant, Request};
pub use events::{AdmissionLog, RejectReason, ServeEvent, ServeEventKind};
pub use server::{run_server, ServeConfig};
pub use siege::{
    run_siege, LoadMode, ModelStats, SiegeConfig, SiegeReport, TenantLoad, TenantStats,
};
pub use twin::{Rung, Twin};
