//! The EdgeNN runtime: executes an [`ExecutionPlan`] against a simulated
//! platform (analytic mode) or against real tensors (functional mode, in
//! [`functional`]).

pub mod functional;
pub mod pool;
pub mod resilience;
pub mod sched_explore;

use std::borrow::Cow;

use edgenn_nn::graph::{Graph, NodeId, Segment};
use edgenn_nn::layer::LayerClass;
use edgenn_obs::{percentile, Recorder};
use edgenn_sim::processor::ExecutionContext;
use edgenn_sim::{
    AllocStrategy, KernelDesc, OpClass, Platform, ProcessorKind, ProcessorSpec, Timeline, TraceKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{RecoveryAction, RecoveryCause};
use crate::metrics::{InferenceReport, LayerTiming};
use crate::plan::{Assignment, ExecutionPlan, HybridMode, MemoryPolicy};
use crate::runtime::resilience::{FaultCtx, RecoveryEvent, ResilienceConfig, ResilientOutcome};
use crate::schedule::Program;
use crate::{CoreError, Result};
use edgenn_sim::{FaultKind, FaultPlan};

/// Maps a layer class to the simulator's operation class.
pub fn op_class(class: LayerClass) -> OpClass {
    match class {
        LayerClass::Conv => OpClass::Conv,
        LayerClass::Fc => OpClass::Fc,
        LayerClass::Pool => OpClass::Pool,
        LayerClass::Activation => OpClass::Activation,
        LayerClass::Norm => OpClass::Norm,
        LayerClass::Combine | LayerClass::Input => OpClass::Combine,
    }
}

/// Builds the kernel descriptor of one graph node.
///
/// # Errors
/// Propagates shape/workload failures from the layer.
pub fn kernel_desc(graph: &Graph, id: NodeId) -> Result<KernelDesc> {
    let node = graph.node(id)?;
    let shapes = graph.input_shapes(id)?;
    let w = node.layer().workload(&shapes)?;
    let ws = node.layer().working_set_bytes(&shapes)?;
    Ok(KernelDesc {
        class: op_class(node.layer().class()),
        flops: w.flops,
        bytes_in: w.input_bytes,
        bytes_out: w.output_bytes,
        weight_bytes: w.weight_bytes,
        parallelism: node.output_shape().num_elements() as u64,
        working_set_bytes: ws,
    })
}

/// Scales a kernel descriptor to `part / total` of its partition units.
///
/// FLOPs, output bytes, weight bytes, and parallelism scale; input bytes
/// and working set do not (both partitions read the whole input — the
/// paper's Section IV-D example: "the GPU calculates the convolution
/// results of the first k input channels, and the CPU calculates the
/// results of the remaining").
pub fn scale_desc(desc: &KernelDesc, fraction: f64) -> KernelDesc {
    let f = fraction.clamp(0.0, 1.0);
    KernelDesc {
        class: desc.class,
        flops: (desc.flops as f64 * f) as u64,
        bytes_in: desc.bytes_in,
        bytes_out: (desc.bytes_out as f64 * f) as u64,
        weight_bytes: (desc.weight_bytes as f64 * f) as u64,
        parallelism: (desc.parallelism as f64 * f).ceil() as u64,
        working_set_bytes: desc.working_set_bytes,
    }
}

/// Scales a kernel descriptor to an *input-channel* fraction: FLOPs,
/// input bytes, weight bytes, and the working set scale with the channel
/// share, while the output is produced at full size by both partitions
/// (each side emits a complete partial-sum map).
pub fn scale_desc_input(desc: &KernelDesc, fraction: f64) -> KernelDesc {
    let f = fraction.clamp(0.0, 1.0);
    KernelDesc {
        class: desc.class,
        flops: (desc.flops as f64 * f) as u64,
        bytes_in: (desc.bytes_in as f64 * f) as u64,
        bytes_out: desc.bytes_out,
        weight_bytes: (desc.weight_bytes as f64 * f) as u64,
        parallelism: desc.parallelism,
        working_set_bytes: (desc.working_set_bytes as f64 * f) as u64,
    }
}

/// Blends a managed-memory bandwidth factor over a kernel's traffic mix:
/// the zero-copy penalty hits *activation* arrays (allocated per
/// inference), while weights are resident and read at full rate after
/// their first touch.
pub fn weighted_bw_factor(desc: &KernelDesc, activation_factor: f64) -> f64 {
    let act = (desc.bytes_in + desc.bytes_out) as f64;
    let w = desc.weight_bytes as f64;
    let total = act + w;
    if total <= 0.0 {
        1.0
    } else {
        (act * activation_factor + w) / total
    }
}

/// Where a node's output data currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In host (CPU-side) memory only.
    Host,
    /// In device (GPU-side) memory only.
    Device,
    /// Valid in both (after a round trip or a managed array at rest).
    Both,
}

impl Loc {
    fn of(proc: ProcessorKind) -> Self {
        match proc {
            ProcessorKind::Cpu => Loc::Host,
            ProcessorKind::Gpu => Loc::Device,
        }
    }

    fn available_to(&self, proc: ProcessorKind) -> bool {
        matches!(
            (self, proc),
            (Loc::Both, _) | (Loc::Host, ProcessorKind::Cpu) | (Loc::Device, ProcessorKind::Gpu)
        )
    }
}

/// The analytic runtime: walks a graph under a plan, issuing kernels,
/// copies, migrations, and syncs to the simulated [`Timeline`].
pub struct Runtime<'a> {
    platform: &'a Platform,
    observer: Option<Recorder>,
}

impl<'a> Runtime<'a> {
    /// Creates a runtime for `platform`.
    pub fn new(platform: &'a Platform) -> Self {
        Self {
            platform,
            observer: None,
        }
    }

    /// Creates a runtime that records every simulated activity (kernel
    /// launches, copies, migrations, stalls), tuner decision, fault and
    /// per-request latency into `observer` (a clone of the caller's
    /// recorder shares its state).
    pub fn with_observer(platform: &'a Platform, observer: Recorder) -> Self {
        Self {
            platform,
            observer: Some(observer),
        }
    }

    /// The attached recorder, if any (the tuner and pipeline use this to
    /// report their decisions alongside the runtime's observations).
    pub fn observer(&self) -> Option<&Recorder> {
        self.observer.as_ref()
    }

    /// Records into the attached recorder, if any.
    fn record(&self, observe: impl FnOnce(&Recorder)) {
        if let Some(rec) = &self.observer {
            observe(rec);
        }
    }

    /// A fresh timeline wired to the recorder when one is attached.
    fn new_timeline(&self) -> Timeline {
        match &self.observer {
            Some(rec) => Timeline::with_recorder(rec.clone()),
            None => Timeline::new(),
        }
    }

    /// The platform this runtime simulates.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    fn spec(&self, proc: ProcessorKind) -> Result<&ProcessorSpec> {
        match proc {
            ProcessorKind::Cpu => Ok(&self.platform.cpu),
            ProcessorKind::Gpu => self.platform.gpu.as_ref().ok_or_else(|| CoreError::NoGpu {
                platform: self.platform.name.clone(),
            }),
        }
    }

    /// Solo full-layer times `(t_cpu_us, t_gpu_us)` for one node, used by
    /// the tuner as its profiling measurements. GPU time is infinite on
    /// CPU-only platforms.
    ///
    /// # Errors
    /// Propagates workload failures.
    pub fn node_times(&self, graph: &Graph, id: NodeId) -> Result<(f64, f64)> {
        let desc = kernel_desc(graph, id)?;
        let ctx = ExecutionContext::default();
        let t_cpu = self.platform.cpu.kernel_time_us(&desc, &ctx);
        let t_gpu = match &self.platform.gpu {
            Some(gpu) => gpu.kernel_time_us(&desc, &ctx),
            None => f64::INFINITY,
        };
        Ok((t_cpu, t_gpu))
    }

    /// Simulates one inference under `plan`, producing the full report:
    /// [`Runtime::simulate_with_faults`] under an empty fault plan and
    /// the default resilience config.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, missing GPU, or workload errors.
    pub fn simulate(&self, graph: &Graph, plan: &ExecutionPlan) -> Result<InferenceReport> {
        self.simulate_with_faults(
            graph,
            plan,
            &FaultPlan::none(),
            &ResilienceConfig::default(),
        )
        .map(|outcome| outcome.report)
    }

    /// Simulates one inference under `plan` while the environment
    /// misbehaves per `faults`, recovering per `cfg`: failed kernels are
    /// retried with exponential backoff and re-placed on the CPU on
    /// exhaustion (a permanent loss re-tunes the remaining suffix to the
    /// CPU-only plan), a burning deadline budget degrades the suffix to
    /// a single-processor plan, and OOM pressure shrinks the footprint
    /// (explicit → managed arrays) before execution.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, workload errors, or a fault that
    /// defeats every recovery path ([`CoreError::Unrecoverable`]).
    pub fn simulate_with_faults(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        faults: &FaultPlan,
        cfg: &ResilienceConfig,
    ) -> Result<ResilientOutcome> {
        plan.validate(graph)?;
        let program = Program::new(graph)?;
        let mut ctx = FaultCtx::new(faults.clone(), *cfg);

        // OOM pressure is a planning-time fault: if a co-tenant's
        // reservation squeezes the plan's footprint out of DRAM, shrink
        // it by converting explicit two-copy arrays to managed
        // single-copy arrays (skipping input-split co-run outputs, whose
        // semantics prescribe an explicit merge — EC012).
        let mut effective = Cow::Borrowed(plan);
        let reserved = ctx.clock.reserved_bytes(self.platform.dram_bytes);
        if reserved > 0 && self.platform.dram_bytes > 0 {
            self.record(|rec| rec.fault("faults_injected"));
            let budget = self.platform.dram_bytes - reserved;
            let fp = crate::footprint::footprint(graph, &effective)?;
            if fp.peak_bytes > budget {
                // Under the pure AllExplicit policy the per-node alloc is
                // ignored, so the shrink must also move the plan to the
                // semantic-aware policy for the node conversions to bind.
                let shrunk = effective.to_mut();
                if shrunk.config.memory_policy != MemoryPolicy::AllManaged {
                    for node_plan in &mut shrunk.nodes {
                        node_plan.output_alloc =
                            if matches!(node_plan.assignment, Assignment::SplitInput { .. }) {
                                AllocStrategy::Explicit
                            } else {
                                AllocStrategy::Managed
                            };
                    }
                    shrunk.config.memory_policy = MemoryPolicy::SemanticAware;
                }
                ctx.log.events.push(RecoveryEvent {
                    t_us: 0.0,
                    node: 0,
                    cause: RecoveryCause::OomPressure,
                    action: RecoveryAction::ShrinkFootprint,
                    attempt: 0,
                });
                let shrunk = crate::footprint::footprint(graph, &effective)?;
                if shrunk.peak_bytes > budget {
                    return Err(CoreError::Unrecoverable {
                        node: 0,
                        kind: FaultKind::OomPressure,
                    });
                }
            }
        }

        let mut timeline = self.new_timeline();
        let (layers, ctx) =
            self.run_request_at((graph, &program), &effective, &mut timeline, 0, 0.0, ctx)?;
        let total_us = timeline.makespan_us();
        self.record(|rec| rec.request(total_us));
        let energy = self.platform.power.energy(&timeline);
        let report = InferenceReport {
            model: graph.name().to_string(),
            platform: self.platform.name.clone(),
            total_us,
            summary: timeline.summary(),
            energy,
            layers,
            events: timeline.events().to_vec(),
            decisions: Vec::new(),
        };
        if let Some(rec) = &self.observer {
            report.audit(rec);
        }
        // Debug builds gate every single-request simulation on a clean
        // happens-before check of the trace just produced: a scheduling
        // regression (overlapping kernels, racing DMA) fails loudly here
        // instead of skewing results downstream. Release builds skip the
        // O(n^2) pass; `edgenn check` runs the same detector on demand.
        #[cfg(debug_assertions)]
        {
            let caps = edgenn_sim::trace::LinkCaps::from_platform(self.platform);
            let violations: Vec<_> = edgenn_sim::trace::check_trace(&report.events, Some(&caps))
                .into_iter()
                .filter(|v| v.kind != edgenn_sim::trace::TraceViolationKind::AggregateBandwidth)
                .collect();
            debug_assert!(
                violations.is_empty(),
                "runtime produced a racy trace for '{}' on '{}': {violations:?}",
                report.model,
                report.platform
            );
        }
        Ok(ResilientOutcome {
            report,
            recovery: ctx.into_log(),
        })
    }

    /// Tunes a single-processor plan for degraded execution, preserving
    /// the original config's memory policy and seeds.
    fn degraded_plan(
        &self,
        graph: &Graph,
        base: &ExecutionPlan,
        hybrid: HybridMode,
    ) -> Result<ExecutionPlan> {
        let mut config = base.config;
        config.hybrid = hybrid;
        let tuner = crate::tuner::Tuner::new(graph, self)?;
        tuner.plan(graph, self, config)
    }

    /// Simulates a back-to-back stream of `requests` inferences sharing
    /// one plan (a deployed service's steady state): the one-model case
    /// of [`Runtime::simulate_workload`]. The per-processor clocks carry
    /// across requests, so a plan that leaves one processor idle lets the
    /// next request start on it — request-level pipelining in the spirit
    /// of DART (the paper's reference \[88\]), which the paper cites as
    /// the multi-DNN scheduling line of work.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, missing GPU, workload errors, or
    /// zero requests.
    pub fn simulate_stream(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        requests: usize,
    ) -> Result<StreamReport> {
        self.simulate_workload(&vec![(graph, plan); requests])
    }

    /// Simulates a mixed multi-DNN workload: each job is one inference of
    /// its own network under its own plan, submitted at t = 0 and executed
    /// in the given order on the shared device — the multi-model serving
    /// scenario of the DART line of work the paper cites. Returns the
    /// per-job completion times and the stream report.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches or an empty job list.
    pub fn simulate_workload(&self, jobs: &[(&Graph, &ExecutionPlan)]) -> Result<StreamReport> {
        if jobs.is_empty() {
            return Err(CoreError::Internal {
                reason: "empty workload".to_string(),
            });
        }
        for (graph, plan) in jobs {
            plan.validate(graph)?;
        }
        let mut timeline = self.new_timeline();
        let mut finish_times = Vec::with_capacity(jobs.len());
        let mut last: Option<(&Graph, Program)> = None;
        for (request, &(graph, plan)) in jobs.iter().enumerate() {
            // Consecutive jobs of one graph (a stream) share its program.
            let program = match last.take() {
                Some((previous, program)) if std::ptr::eq(previous, graph) => program,
                _ => Program::new(graph)?,
            };
            let (layers, _) = self.run_request_at(
                (graph, &program),
                plan,
                &mut timeline,
                request as u64,
                0.0,
                FaultCtx::default(),
            )?;
            last = Some((graph, program));
            let finished = layers
                .iter()
                .map(|l| l.end_us)
                .fold(0.0f64, f64::max)
                .max(timeline.makespan_us());
            let started = layers.iter().map(|l| l.start_us).fold(finished, f64::min);
            self.record(|rec| rec.request(finished - started));
            finish_times.push(finished);
        }
        let total_us = timeline.makespan_us();
        let energy = self.platform.power.energy(&timeline);
        Ok(StreamReport {
            requests: jobs.len(),
            total_us,
            finish_times_us: finish_times,
            throughput_per_s: jobs.len() as f64 * 1e6 / total_us,
            energy,
        })
    }

    /// Simulates an open-loop request stream with Poisson arrivals at
    /// `rate_per_s`, the standard serving model: requests queue when the
    /// device is busy, and per-request latency is completion minus
    /// arrival. Deterministic per `seed`.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, a zero rate, or zero requests.
    pub fn simulate_poisson_stream(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        rate_per_s: f64,
        requests: usize,
        seed: u64,
    ) -> Result<OpenLoopReport> {
        plan.validate(graph)?;
        if requests == 0 || rate_per_s <= 0.0 {
            return Err(CoreError::Internal {
                reason: format!("invalid open-loop stream: rate {rate_per_s}, {requests} requests"),
            });
        }
        let program = Program::new(graph)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_gap_us = 1e6 / rate_per_s;
        let mut timeline = self.new_timeline();
        let mut arrival = 0.0f64;
        let mut latencies = Vec::with_capacity(requests);
        for request in 0..requests {
            // Exponential inter-arrival via inverse transform sampling.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            arrival += -mean_gap_us * u.ln();
            let (layers, _) = self.run_request_at(
                (graph, &program),
                plan,
                &mut timeline,
                request as u64,
                arrival,
                FaultCtx::default(),
            )?;
            let finished = layers.iter().map(|l| l.end_us).fold(arrival, f64::max);
            self.record(|rec| rec.request(finished - arrival));
            latencies.push(finished - arrival);
        }
        let total_us = timeline.makespan_us();
        let energy = self.platform.power.energy(&timeline);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = |q| percentile(&sorted, q).expect("at least one request");
        Ok(OpenLoopReport {
            requests,
            offered_rate_per_s: rate_per_s,
            total_us,
            latencies_us: latencies,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            energy,
        })
    }

    /// Runs request number `request` of `graph` under `plan` against a
    /// (possibly shared) timeline, walking the segments of `graph`'s
    /// `program`: no node starts before `arrival_us`, and `faults`
    /// perturbs and recovers the run. Returns the per-layer timings and
    /// the fault state the run left behind.
    fn run_request_at(
        &self,
        (graph, program): (&Graph, &Program),
        plan: &ExecutionPlan,
        timeline: &mut Timeline,
        request: u64,
        arrival_us: f64,
        faults: FaultCtx,
    ) -> Result<(Vec<LayerTiming>, FaultCtx)> {
        let mut sim = Sim {
            runtime: self,
            graph,
            plan,
            timeline,
            ready: vec![arrival_us; graph.len()],
            loc: vec![Loc::Host; graph.len()],
            layers: Vec::with_capacity(graph.len()),
            jitter: StdRng::seed_from_u64(plan.config.jitter_seed.wrapping_add(request)),
            faults,
        };
        for segment in program.segments() {
            match segment {
                Segment::Chain(nodes) => {
                    for &id in nodes {
                        sim.exec_node(id, false)?;
                    }
                }
                Segment::Parallel { branches, join } => {
                    sim.exec_parallel(branches, *join)?;
                }
            }
        }
        sim.read_back_output(graph.output_id())?;
        Ok((sim.layers, sim.faults))
    }
}

/// Result of an open-loop (Poisson-arrival) stream simulation. Its
/// percentiles are nearest-rank ([`edgenn_obs::percentile`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OpenLoopReport {
    /// Number of requests simulated.
    pub requests: usize,
    /// Offered load (requests per second).
    pub offered_rate_per_s: f64,
    /// Makespan of the run (us).
    pub total_us: f64,
    /// Per-request latency (completion minus arrival, us), arrival order.
    pub latencies_us: Vec<f64>,
    /// Median latency (us).
    pub p50_us: f64,
    /// 95th-percentile latency (us).
    pub p95_us: f64,
    /// 99th-percentile latency (us).
    pub p99_us: f64,
    /// Energy over the run.
    pub energy: edgenn_sim::EnergyReport,
}

/// Result of a multi-request stream simulation.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StreamReport {
    /// Number of inferences simulated.
    pub requests: usize,
    /// Makespan of the whole stream (us).
    pub total_us: f64,
    /// Completion time of each request (us from stream start).
    pub finish_times_us: Vec<f64>,
    /// Sustained throughput (inferences per second).
    pub throughput_per_s: f64,
    /// Energy accounting over the whole stream.
    pub energy: edgenn_sim::EnergyReport,
}

impl StreamReport {
    /// Mean completion time across the stream's requests (us) — the
    /// scheduling metric shortest-job-first optimizes.
    pub fn mean_completion_us(&self) -> f64 {
        if self.finish_times_us.is_empty() {
            return 0.0;
        }
        self.finish_times_us.iter().sum::<f64>() / self.finish_times_us.len() as f64
    }

    /// Average steady-state latency between consecutive completions (us).
    pub fn inter_completion_us(&self) -> f64 {
        if self.finish_times_us.len() < 2 {
            return self.total_us;
        }
        let first = self.finish_times_us[0];
        let last = *self.finish_times_us.last().expect("non-empty");
        (last - first) / (self.finish_times_us.len() - 1) as f64
    }
}

/// How a kernel launch with retries ended.
enum Launch {
    /// The kernel ran; it ends at this time.
    Done(f64),
    /// The retry budget ran out and the fallback is logged; the last
    /// failed attempt ends at this time.
    Exhausted(f64),
}

/// Mutable state of one simulation run.
struct Sim<'a, 'p> {
    runtime: &'a Runtime<'p>,
    graph: &'a Graph,
    plan: &'a ExecutionPlan,
    timeline: &'a mut Timeline,
    /// Time each node's output becomes available.
    ready: Vec<f64>,
    /// Residency of each node's output.
    loc: Vec<Loc>,
    layers: Vec<LayerTiming>,
    jitter: StdRng,
    /// Fault-injection state. An empty fault plan leaves every window
    /// factor at exactly 1 and fails no launch, so it draws nothing and
    /// perturbs no timing.
    faults: FaultCtx,
}

impl Sim<'_, '_> {
    fn config(&self) -> &crate::plan::ExecutionConfig {
        &self.plan.config
    }

    fn jittered(&mut self, duration: f64) -> f64 {
        let amp = self.config().jitter;
        if amp <= 0.0 {
            duration
        } else {
            duration * (1.0 + amp * self.jitter.gen_range(-1.0..=1.0))
        }
    }

    /// The effective assignment of a node, honouring a mid-run suffix
    /// switch to a degraded plan (GPU loss, then deadline degradation).
    fn assignment_of(&self, id: NodeId) -> Assignment {
        let f = &self.faults;
        let plan = f.cpu_plan.as_ref().or(f.degraded_plan.as_ref());
        plan.unwrap_or(self.plan).nodes[id.index()].assignment
    }

    /// Multiplier from the active `kind` windows at `t`: on attainable
    /// memory bandwidth for [`FaultKind::BandwidthDegradation`], on the
    /// compute roofline for [`FaultKind::ThermalThrottle`], and (≥ 1) on
    /// managed-page migration time for [`FaultKind::MigrationStall`].
    fn fault_window(&mut self, kind: FaultKind, t: f64) -> f64 {
        let clock = &mut self.faults.clock;
        let before = clock.injected();
        let factor = match kind {
            FaultKind::BandwidthDegradation => clock.bandwidth_factor_at(t),
            FaultKind::ThermalThrottle => clock.compute_factor_at(t),
            FaultKind::MigrationStall => clock.stall_factor_at(t),
            FaultKind::TransientKernel | FaultKind::OomPressure => {
                unreachable!("{kind} is not a time-window fault")
            }
        };
        if clock.injected() > before {
            self.runtime.record(|rec| rec.fault("faults_injected"));
        }
        factor
    }

    /// Records a retry decision after failed attempt `attempt` and
    /// returns the backoff gap to wait before re-launching.
    fn fault_log_retry(&mut self, id: NodeId, t: f64, attempt: u32) -> f64 {
        let f = &mut self.faults;
        f.log.retries += 1;
        f.log.events.push(RecoveryEvent {
            t_us: t,
            node: id.index(),
            cause: RecoveryCause::TransientKernel,
            action: RecoveryAction::Retry,
            attempt,
        });
        self.runtime.record(|rec| rec.fault("retries"));
        f.cfg.backoff_us(attempt)
    }

    /// Records a GPU→CPU fallback; a permanent failure marks the GPU
    /// lost by tuning the CPU-only plan the remaining suffix runs.
    fn fault_log_fallback(&mut self, id: NodeId, t: f64, attempt: u32) -> Result<()> {
        let permanent = self.faults.clock.is_permanent(id.index());
        let cause = if permanent {
            RecoveryCause::PermanentKernel
        } else {
            RecoveryCause::TransientKernel
        };
        self.faults.log.fallbacks += 1;
        self.faults.log.events.push(RecoveryEvent {
            t_us: t,
            node: id.index(),
            cause,
            action: RecoveryAction::FallbackToCpu,
            attempt,
        });
        if permanent && self.faults.cpu_plan.is_none() {
            let plan = self
                .runtime
                .degraded_plan(self.graph, self.plan, HybridMode::CpuOnly)?;
            self.faults.cpu_plan = Some(plan);
        }
        self.runtime.record(|rec| rec.fault("fallbacks"));
        Ok(())
    }

    /// Degrades the remaining suffix to the single-processor plan (the
    /// GPU-only plan where a GPU exists) when the deadline budget is
    /// burning, at most once per run and never after a GPU loss.
    fn maybe_degrade_for_deadline(&mut self, id: NodeId, now: f64) -> Result<()> {
        let f = &self.faults;
        let burning = f
            .cfg
            .deadline_us
            .is_some_and(|deadline| now > deadline * f.cfg.deadline_degrade_fraction);
        if !burning || f.degraded_plan.is_some() || f.cpu_plan.is_some() {
            return Ok(());
        }
        let hybrid = if self.runtime.platform.gpu.is_some() {
            HybridMode::GpuOnly
        } else {
            HybridMode::CpuOnly
        };
        let plan = self.runtime.degraded_plan(self.graph, self.plan, hybrid)?;
        let f = &mut self.faults;
        f.degraded_plan = Some(plan);
        f.log.deadline_degradations += 1;
        f.log.events.push(RecoveryEvent {
            t_us: now,
            node: id.index(),
            cause: RecoveryCause::DeadlineOverrun,
            action: RecoveryAction::DegradeToSingleProcessor,
            attempt: 0,
        });
        self.runtime
            .record(|rec| rec.fault("deadline_degradations"));
        Ok(())
    }

    /// Allocation strategy of a node's output under the active policy.
    fn alloc_of(&self, id: NodeId) -> AllocStrategy {
        match self.config().memory_policy {
            MemoryPolicy::AllExplicit => AllocStrategy::Explicit,
            MemoryPolicy::AllManaged => AllocStrategy::Managed,
            MemoryPolicy::SemanticAware => self.plan.nodes[id.index()].output_alloc,
        }
    }

    /// Bandwidth factor a kernel sees given the arrays it touches,
    /// weighted by its activation-vs-weight traffic mix.
    fn bandwidth_factor(&self, id: NodeId) -> f64 {
        let memory = &self.runtime.platform.memory;
        let node = self.graph.nodes().get(id.index()).expect("validated");
        let mut factor = memory.bandwidth_factor(self.alloc_of(id));
        for input in node.inputs() {
            factor = factor.min(memory.bandwidth_factor(self.alloc_of(*input)));
        }
        let desc = kernel_desc(self.graph, id).expect("validated at plan time");
        weighted_bw_factor(&desc, factor)
    }

    /// Ensures `id`'s output is accessible to `proc` by time `at`,
    /// scheduling copies/migrations as needed; returns the ready time.
    fn make_available(&mut self, id: NodeId, proc: ProcessorKind, at: f64) -> f64 {
        let memory = &self.runtime.platform.memory;
        let loc = self.loc[id.index()];
        if loc.available_to(proc) {
            return at;
        }
        let node = self.graph.nodes().get(id.index()).expect("validated");
        let bytes = (node.output_shape().num_elements() * 4) as u64;
        let label = format!("{} -> {proc}", node.layer().name());
        let end = match self.alloc_of(id) {
            AllocStrategy::Explicit => {
                // A bandwidth-degradation window stretches the DMA.
                let dur = memory.copy_time_us(bytes)
                    / self.fault_window(FaultKind::BandwidthDegradation, at);
                self.timeline
                    .schedule_bus(TraceKind::Copy, at, dur, bytes, Some(proc), label)
            }
            AllocStrategy::Managed => {
                let prefetched = self.plan.nodes[id.index()].prefetch_inputs
                    || self
                        .graph
                        .successors(id)
                        .iter()
                        .any(|s| self.plan.nodes[s.index()].prefetch_inputs);
                // A stall window multiplies the page-migration time.
                let dur = memory.migration_time_us(bytes, prefetched)
                    * self.fault_window(FaultKind::MigrationStall, at);
                self.timeline
                    .schedule_bus(TraceKind::Migration, at, dur, bytes, Some(proc), label)
            }
        };
        self.loc[id.index()] = Loc::Both;
        end.max(at)
    }

    /// Makes every input of `id` accessible to `proc`, starting at `at`;
    /// returns when the last one is.
    fn stage_inputs(&mut self, id: NodeId, proc: ProcessorKind, at: f64) -> f64 {
        let graph = self.graph;
        let node = graph.nodes().get(id.index()).expect("validated");
        node.inputs()
            .iter()
            .fold(at, |ready, input| self.make_available(*input, proc, ready))
    }

    /// One host-orchestrated boundary transfer of `bytes` for the GPU
    /// (`dir` is `h2d` or `d2h`), starting at `at` and scaled by the
    /// round-trip fraction: an explicit copy under the naive policy, an
    /// on-demand page-fault storm for managed arrays otherwise. Charges
    /// its time to `timing` and returns when the data is in place.
    fn host_transfer(&mut self, timing: &mut LayerTiming, dir: &str, bytes: u64, at: f64) -> f64 {
        let memory = &self.runtime.platform.memory;
        let (kind, dur) = if self.config().memory_policy == MemoryPolicy::AllExplicit {
            (TraceKind::Copy, memory.copy_time_us(bytes))
        } else {
            (TraceKind::Migration, memory.migration_time_us(bytes, false))
        };
        let dur = self.config().host_roundtrip_fraction * dur;
        if dur <= 0.0 {
            return at;
        }
        timing.memory_us += dur;
        self.timeline.schedule_bus(
            kind,
            at,
            dur,
            bytes,
            Some(ProcessorKind::Gpu),
            format!("{} {dir}", timing.name),
        )
    }

    /// Launches `id`'s kernel on `proc` at `ready`, pricing each attempt
    /// with `attempt_us`; `part` tags a co-run share's trace labels. An
    /// injected failure (GPU launches only) occupies the processor for
    /// the attempt, then retries after an exponential backoff; once the
    /// retry budget is spent the fallback is logged and the caller
    /// re-places the work.
    fn launch(
        &mut self,
        id: NodeId,
        proc: ProcessorKind,
        name: &str,
        part: &str,
        mut ready: f64,
        mut attempt_us: impl FnMut(&mut Self, ProcessorKind, f64) -> f64,
    ) -> Result<Launch> {
        let label = |status: &str| match (part, status) {
            ("", "") => name.to_string(),
            (tag, "") | ("", tag) => format!("{name} [{tag}]"),
            (part, status) => format!("{name} [{part} {status}]"),
        };
        let mut failed_attempts = 0u32;
        loop {
            let duration = attempt_us(self, proc, ready);
            // A failing launch consumes one planned failure of the kernel.
            if proc == ProcessorKind::Cpu || !self.faults.clock.should_fail_kernel(id.index()) {
                let end =
                    self.timeline
                        .schedule(proc, TraceKind::Kernel, ready, duration, label(""));
                return Ok(Launch::Done(end));
            }
            self.runtime.record(|rec| rec.fault("faults_injected"));
            failed_attempts += 1;
            let fail_end = self.timeline.schedule(
                proc,
                TraceKind::Kernel,
                ready,
                duration,
                label(&format!("attempt {failed_attempts} failed")),
            );
            if failed_attempts > self.faults.cfg.max_retries {
                self.fault_log_fallback(id, fail_end, failed_attempts)?;
                return Ok(Launch::Exhausted(fail_end));
            }
            ready = fail_end + self.fault_log_retry(id, fail_end, failed_attempts);
        }
    }

    /// Executes one node per its plan and records its timing.
    /// `corun_context` marks nodes inside a fork-join region whose
    /// branches run on both processors (memory contention applies).
    fn exec_node(&mut self, id: NodeId, corun_context: bool) -> Result<()> {
        let graph = self.graph;
        let node = graph.node(id)?;
        if node.layer().class() == LayerClass::Input {
            // The host writes the input tensor when the request arrives
            // (the vector is pre-seeded with the arrival time).
            self.loc[id.index()] = Loc::Host;
            return Ok(());
        }
        let start = node
            .inputs()
            .iter()
            .map(|i| self.ready[i.index()])
            .fold(0.0, f64::max);
        self.maybe_degrade_for_deadline(id, start)?;
        let mut timing = LayerTiming {
            node: id.index(),
            name: node.layer().name().to_string(),
            class_tag: node.layer().class().tag().to_string(),
            assignment: self.assignment_of(id),
            start_us: start,
            end_us: start,
            kernel_us: 0.0,
            memory_us: 0.0,
        };
        match timing.assignment {
            Assignment::Gpu => self.exec_solo(id, ProcessorKind::Gpu, corun_context, &mut timing),
            Assignment::Cpu => self.exec_solo(id, ProcessorKind::Cpu, corun_context, &mut timing),
            Assignment::Split { cpu_fraction } => {
                self.exec_split(id, cpu_fraction, false, &mut timing)
            }
            Assignment::SplitInput { cpu_fraction } => {
                self.exec_split(id, cpu_fraction, true, &mut timing)
            }
        }?;
        // A permanent failure inside this node switches the suffix plan
        // from this node on.
        timing.assignment = self.assignment_of(id);
        self.ready[id.index()] = timing.end_us;
        self.layers.push(timing);
        Ok(())
    }

    /// Whole layer on one processor.
    fn exec_solo(
        &mut self,
        id: NodeId,
        proc: ProcessorKind,
        corun: bool,
        timing: &mut LayerTiming,
    ) -> Result<()> {
        let platform = self.runtime.platform;
        let spec = self.runtime.spec(proc)?;
        let desc = kernel_desc(self.graph, id)?;
        let naive = self.config().memory_policy == MemoryPolicy::AllExplicit;
        // The original host-orchestrated program with managed arrays: the
        // host still touches activations between kernels. On an integrated
        // SoC that is free (same DRAM); on a discrete GPU every touch
        // bounces the pages over PCIe — the paper's Section IV-B claim
        // that unified memory "brings no benefit for the discrete
        // architecture".
        let managed_bounce = self.config().memory_policy == MemoryPolicy::AllManaged
            && !platform.memory.is_unified();
        let host_roundtrip = naive || managed_bounce;

        let mut ready = timing.start_us;
        if !host_roundtrip {
            ready = self.stage_inputs(id, proc, ready);
        } else if proc == ProcessorKind::Gpu {
            // Host-orchestrated boundary before a GPU kernel.
            ready = self.host_transfer(timing, "h2d", desc.bytes_in, ready);
        }

        // The zero-copy access penalty is a GPU-side effect (managed pages
        // lose some coalescing); the CPU reads the same DRAM either way.
        let policy_bw = if naive {
            1.0
        } else {
            self.bandwidth_factor(id)
        };
        let contention = if corun {
            platform.memory.corun_contention_factor
        } else {
            1.0
        };
        let mut attempt_us = |sim: &mut Self, on: ProcessorKind, t: f64| {
            let (spec, bw) = match on {
                ProcessorKind::Cpu => (&platform.cpu, 1.0),
                ProcessorKind::Gpu => (spec, policy_bw),
            };
            let ctx = ExecutionContext {
                bandwidth_factor: bw * sim.fault_window(FaultKind::BandwidthDegradation, t),
                contention_factor: contention,
                compute_factor: sim.fault_window(FaultKind::ThermalThrottle, t),
            };
            let duration = sim.jittered(spec.kernel_time_us(&desc, &ctx));
            timing.kernel_us += duration;
            duration
        };
        let mut proc = proc;
        let mut end = match self.launch(id, proc, &timing.name, "", ready, &mut attempt_us)? {
            Launch::Done(end) => end,
            Launch::Exhausted(fail_end) => {
                // Re-place the work on the CPU after the failed attempt.
                proc = ProcessorKind::Cpu;
                let ready = if host_roundtrip {
                    fail_end
                } else {
                    self.stage_inputs(id, proc, fail_end)
                };
                let duration = attempt_us(self, proc, ready);
                self.timeline.schedule(
                    proc,
                    TraceKind::Kernel,
                    ready,
                    duration,
                    timing.name.clone(),
                )
            }
        };

        if host_roundtrip && proc == ProcessorKind::Gpu {
            // ... and the host reads the output after it.
            end = self.host_transfer(timing, "d2h", desc.bytes_out, end);
            self.loc[id.index()] = Loc::Both;
        } else {
            self.loc[id.index()] = Loc::of(proc);
        }
        timing.end_us = end;
        Ok(())
    }

    /// Intra-kernel co-run: CPU computes `p` of the units, GPU the rest.
    /// `by_input` selects the input-channel split (full-size partial sums
    /// merged by addition) instead of the output-unit split.
    fn exec_split(
        &mut self,
        id: NodeId,
        p_cpu: f64,
        by_input: bool,
        timing: &mut LayerTiming,
    ) -> Result<()> {
        let platform = self.runtime.platform;
        let gpu = self.runtime.spec(ProcessorKind::Gpu)?;
        let (cpu, memory) = (&platform.cpu, &platform.memory);
        let desc = kernel_desc(self.graph, id)?;
        let naive = self.config().memory_policy == MemoryPolicy::AllExplicit;

        // Both processors need the inputs. Under zero-copy this is free
        // (the whole point of fine-grained co-running on unified memory);
        // under the naive policy the GPU side re-uploads.
        let mut ready = timing.start_us;
        if naive {
            ready = self.host_transfer(timing, "h2d", desc.bytes_in, ready);
        } else {
            for &input in self.graph.node(id)?.inputs() {
                ready = self.make_available(input, ProcessorKind::Cpu, ready);
                ready = self.make_available(input, ProcessorKind::Gpu, ready);
            }
        }

        let bw = if naive {
            1.0
        } else {
            self.bandwidth_factor(id)
        };
        let window_bw = self.fault_window(FaultKind::BandwidthDegradation, ready);
        let window_compute = self.fault_window(FaultKind::ThermalThrottle, ready);
        let cpu_ctx = ExecutionContext {
            // Zero-copy penalty is GPU-side only, but a degradation
            // window squeezes the shared DRAM for both processors.
            bandwidth_factor: window_bw,
            contention_factor: memory.corun_contention_factor,
            compute_factor: window_compute,
        };
        let gpu_ctx = ExecutionContext {
            bandwidth_factor: bw * window_bw,
            contention_factor: memory.corun_contention_factor,
            compute_factor: window_compute,
        };
        let (cpu_desc, gpu_desc) = if by_input {
            (
                scale_desc_input(&desc, p_cpu),
                scale_desc_input(&desc, 1.0 - p_cpu),
            )
        } else {
            (scale_desc(&desc, p_cpu), scale_desc(&desc, 1.0 - p_cpu))
        };
        let t_cpu = self.jittered(cpu.kernel_time_us(&cpu_desc, &cpu_ctx));
        let cpu_end = self.timeline.schedule(
            ProcessorKind::Cpu,
            TraceKind::Kernel,
            ready,
            t_cpu,
            format!("{} [cpu part]", timing.name),
        );
        // GPU share with recovery: exhaustion re-executes the GPU's share
        // on the CPU after its own part (recovery changes *where*, never
        // *what*).
        let mut t_gpu_total = 0.0;
        let gpu_attempt_us = |sim: &mut Self, _: ProcessorKind, _: f64| {
            let t_gpu = sim.jittered(gpu.kernel_time_us(&gpu_desc, &gpu_ctx));
            t_gpu_total += t_gpu;
            t_gpu
        };
        let gpu_end = match self.launch(
            id,
            ProcessorKind::Gpu,
            &timing.name,
            "gpu part",
            ready,
            gpu_attempt_us,
        )? {
            Launch::Done(end) => end,
            Launch::Exhausted(fail_end) => {
                let t = self.jittered(cpu.kernel_time_us(&gpu_desc, &cpu_ctx));
                t_gpu_total += t;
                self.timeline.schedule(
                    ProcessorKind::Cpu,
                    TraceKind::Kernel,
                    cpu_end.max(fail_end),
                    t,
                    format!("{} [gpu share on cpu]", timing.name),
                )
            }
        };
        let mut end = cpu_end.max(gpu_end);
        timing.kernel_us = t_cpu.max(t_gpu_total);

        // Merge the CPU part into the canonical output array. An
        // input-channel split produces a full-size partial sum on each
        // processor, so the whole output volume crosses at the merge; an
        // output split only moves the CPU's share.
        let merge_bytes = if by_input {
            desc.bytes_out
        } else {
            (desc.bytes_out as f64 * p_cpu) as u64
        };
        match self.alloc_of(id) {
            AllocStrategy::Explicit => {
                let dur = memory.copy_time_us(merge_bytes);
                timing.memory_us += dur;
                end = self.timeline.schedule_bus(
                    TraceKind::Copy,
                    end,
                    dur,
                    merge_bytes,
                    Some(ProcessorKind::Gpu),
                    format!("{} merge", timing.name),
                );
            }
            AllocStrategy::Managed => {
                // An output split writes disjoint ranges of one managed
                // array: only the pages straddling the partition boundary
                // thrash. An input split's partial sums overlap on every
                // page — the full race-condition case of Section IV-B.
                let boundary = if by_input {
                    merge_bytes
                } else {
                    merge_bytes.min(128 << 10)
                };
                let dur = memory.thrash_time_us(boundary);
                timing.memory_us += dur;
                end = self.timeline.schedule_bus(
                    TraceKind::Thrash,
                    end,
                    dur,
                    boundary,
                    None,
                    format!("{} boundary pages", timing.name),
                );
            }
        }

        // Co-run synchronization (kernel wait + worker join).
        end += self.config().sync_overhead_us;
        self.timeline.advance_to(end);

        self.loc[id.index()] = if self.alloc_of(id) == AllocStrategy::Managed {
            Loc::Both
        } else {
            Loc::Device
        };
        timing.end_us = end;
        Ok(())
    }

    /// Executes a fork-join region: branches on their assigned processors,
    /// concurrently when assignments differ.
    fn exec_parallel(&mut self, branches: &[Vec<NodeId>], join: NodeId) -> Result<()> {
        // A branch is CPU-assigned when its first node is.
        let mut has_cpu = false;
        let mut has_gpu = false;
        for branch in branches {
            match branch.first().map(|id| self.assignment_of(*id)) {
                Some(Assignment::Cpu) => has_cpu = true,
                Some(Assignment::Gpu)
                | Some(Assignment::Split { .. })
                | Some(Assignment::SplitInput { .. }) => has_gpu = true,
                None => {}
            }
        }
        let corun = has_cpu && has_gpu;

        for branch in branches {
            for &id in branch {
                self.exec_node(id, corun)?;
            }
        }

        if corun {
            // The processors synchronize before the join layer
            // (paper Figure 5: "CPU and GPU need to synchronize before
            // going on to the concatenation layer").
            let at = branches
                .iter()
                .flat_map(|b| b.last())
                .map(|id| self.ready[id.index()])
                .fold(0.0, f64::max)
                + self.config().sync_overhead_us;
            self.timeline.advance_to(at);
            let join_name = self.graph.node(join)?.layer().name().to_string();
            self.timeline.schedule_bus(
                TraceKind::Sync,
                at - self.config().sync_overhead_us,
                self.config().sync_overhead_us,
                0,
                None,
                format!("barrier before {join_name}"),
            );
        }
        Ok(())
    }

    /// Final D2H of the class scores (the host consumes the result).
    fn read_back_output(&mut self, output: NodeId) -> Result<()> {
        let memory = self.runtime.platform.memory.clone();
        let node = self.graph.node(output)?;
        let bytes = (node.output_shape().num_elements() * 4) as u64;
        let at = self.ready[output.index()];
        if !self.loc[output.index()].available_to(ProcessorKind::Cpu) {
            let dur = match self.alloc_of(output) {
                AllocStrategy::Explicit => memory.copy_time_us(bytes),
                AllocStrategy::Managed => memory.migration_time_us(bytes, false),
            };
            self.timeline.schedule_bus(
                TraceKind::Copy,
                at,
                dur,
                bytes,
                Some(ProcessorKind::Cpu),
                "output read-back",
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecutionConfig, NodePlan};
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::{jetson_agx_xavier, raspberry_pi_4};

    fn gpu_plan(graph: &Graph, config: ExecutionConfig) -> ExecutionPlan {
        ExecutionPlan {
            config,
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        }
    }

    /// The tuner's EdgeNN plan for `graph`.
    fn tuned(graph: &Graph, runtime: &Runtime<'_>) -> ExecutionPlan {
        let tuner = crate::tuner::Tuner::new(graph, runtime).unwrap();
        tuner
            .plan(graph, runtime, ExecutionConfig::edgenn())
            .unwrap()
    }

    fn cpu_plan(graph: &Graph, config: ExecutionConfig) -> ExecutionPlan {
        ExecutionPlan {
            config,
            nodes: vec![
                NodePlan {
                    assignment: Assignment::Cpu,
                    output_alloc: AllocStrategy::Explicit,
                    prefetch_inputs: false,
                };
                graph.len()
            ],
        }
    }

    #[test]
    fn gpu_baseline_runs_all_models() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Paper);
            let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
            let report = runtime.simulate(&graph, &plan).unwrap();
            assert!(report.total_us > 0.0, "{kind}");
            assert!(report.summary.copy_us > 0.0, "{kind}: naive mode must copy");
            assert!(report.energy.energy_mj > 0.0, "{kind}");
            // Kernel events exist for every non-input layer.
            assert_eq!(report.layers.len(), graph.len() - 1, "{kind}");
        }
    }

    #[test]
    fn cpu_only_runs_on_gpuless_platform() {
        let platform = raspberry_pi_4();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = cpu_plan(&graph, ExecutionConfig::cpu_only());
        let report = runtime.simulate(&graph, &plan).unwrap();
        assert!(report.total_us > 0.0);
        assert_eq!(report.energy.gpu_utilization, 0.0);
    }

    #[test]
    fn gpu_plan_on_gpuless_platform_errors() {
        let platform = raspberry_pi_4();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        assert!(matches!(
            runtime.simulate(&graph, &plan),
            Err(CoreError::NoGpu { .. })
        ));
    }

    #[test]
    fn managed_policy_eliminates_explicit_copies() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let naive = runtime
            .simulate(&graph, &gpu_plan(&graph, ExecutionConfig::baseline_gpu()))
            .unwrap();
        let mut managed_cfg = ExecutionConfig::baseline_gpu();
        managed_cfg.memory_policy = MemoryPolicy::AllManaged;
        let managed = runtime
            .simulate(&graph, &gpu_plan(&graph, managed_cfg))
            .unwrap();
        assert!(naive.summary.copy_us > 0.0);
        assert!(managed.summary.copy_us < naive.summary.copy_us / 4.0);
    }

    #[test]
    fn split_assignment_beats_gpu_only_on_fc_heavy_net() {
        // FCNN's fc layers are memory-bound on the GPU; a tuned split
        // should win despite sync overhead.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::Fcnn, ModelScale::Paper);
        let mut cfg = ExecutionConfig::edgenn();
        cfg.memory_policy = MemoryPolicy::AllManaged;
        let baseline = {
            let mut plan = gpu_plan(&graph, cfg);
            plan.config.memory_policy = MemoryPolicy::AllManaged;
            runtime.simulate(&graph, &plan).unwrap()
        };
        // Hand-build a split plan on the large fc layers.
        let mut plan = gpu_plan(&graph, cfg);
        for (idx, node) in graph.nodes().iter().enumerate() {
            if node.layer().class() == LayerClass::Fc {
                let (t_cpu, t_gpu) = runtime.node_times(&graph, NodeId(idx)).unwrap();
                let p = t_gpu / (t_cpu + t_gpu);
                plan.nodes[idx].assignment = Assignment::Split { cpu_fraction: p };
            }
        }
        let split = runtime.simulate(&graph, &plan).unwrap();
        assert!(
            split.total_us < baseline.total_us,
            "split {} should beat gpu-only {}",
            split.total_us,
            baseline.total_us
        );
    }

    #[test]
    fn jitter_changes_times_but_stays_deterministic_per_seed() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let mut cfg = ExecutionConfig::baseline_gpu();
        cfg.jitter = 0.1;
        cfg.jitter_seed = 1;
        let a = runtime.simulate(&graph, &gpu_plan(&graph, cfg)).unwrap();
        let b = runtime.simulate(&graph, &gpu_plan(&graph, cfg)).unwrap();
        assert_eq!(a.total_us, b.total_us, "same seed, same result");
        cfg.jitter_seed = 2;
        let c = runtime.simulate(&graph, &gpu_plan(&graph, cfg)).unwrap();
        assert_ne!(a.total_us, c.total_us, "different seed, different result");
    }

    #[test]
    fn scale_desc_partitions_conserve_flops() {
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let desc = kernel_desc(&graph, NodeId(1)).unwrap();
        let a = scale_desc(&desc, 0.3);
        let b = scale_desc(&desc, 0.7);
        let total = a.flops + b.flops;
        assert!(total >= desc.flops - 1 && total <= desc.flops + 1);
        let out = a.bytes_out + b.bytes_out;
        assert!(out >= desc.bytes_out - 1 && out <= desc.bytes_out + 1);
        assert_eq!(a.bytes_in, desc.bytes_in, "both parts read the whole input");
        assert_eq!(a.working_set_bytes, desc.working_set_bytes);
        // Half the output channels: half the work, output and weights.
        let half = scale_desc(&desc, 0.5);
        assert_eq!(half.flops, desc.flops / 2);
        assert_eq!(half.bytes_out, desc.bytes_out / 2);
        assert_eq!(half.weight_bytes, desc.weight_bytes / 2);
        // The work grows with the share and the whole share is all of it.
        let flops: Vec<u64> = (0..=10)
            .map(|k| scale_desc(&desc, f64::from(k) / 10.0).flops)
            .collect();
        assert!(flops.windows(2).all(|w| w[0] <= w[1]), "{flops:?}");
        assert_eq!(flops[10], desc.flops);
    }

    #[test]
    fn op_class_covers_all_layer_classes() {
        assert_eq!(op_class(LayerClass::Conv), OpClass::Conv);
        assert_eq!(op_class(LayerClass::Fc), OpClass::Fc);
        assert_eq!(op_class(LayerClass::Pool), OpClass::Pool);
        assert_eq!(op_class(LayerClass::Activation), OpClass::Activation);
        assert_eq!(op_class(LayerClass::Norm), OpClass::Norm);
        assert_eq!(op_class(LayerClass::Combine), OpClass::Combine);
        assert_eq!(op_class(LayerClass::Input), OpClass::Combine);
    }

    #[test]
    fn stream_throughput_at_least_matches_sequential() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let plan = tuned(&graph, &runtime);
        let single = runtime.simulate(&graph, &plan).unwrap();
        let stream = runtime.simulate_stream(&graph, &plan, 8).unwrap();
        assert_eq!(stream.requests, 8);
        assert_eq!(stream.finish_times_us.len(), 8);
        // Completions are ordered and the stream is no slower than 8
        // strictly sequential runs.
        for w in stream.finish_times_us.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(stream.total_us <= single.total_us * 8.0 + 1e-6);
        assert!(stream.throughput_per_s >= 1e6 / single.total_us - 1e-6);
        assert!(stream.inter_completion_us() <= single.total_us + 1e-6);
        assert!(stream.energy.energy_mj > single.energy.energy_mj);
    }

    #[test]
    fn poisson_stream_latency_grows_with_load() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let plan = tuned(&graph, &runtime);
        let single = runtime.simulate(&graph, &plan).unwrap();
        let capacity = 1e6 / single.total_us; // requests/s the device sustains

        let light = runtime
            .simulate_poisson_stream(&graph, &plan, capacity * 0.3, 40, 7)
            .unwrap();
        let heavy = runtime
            .simulate_poisson_stream(&graph, &plan, capacity * 0.95, 40, 7)
            .unwrap();
        assert!(
            light.p50_us >= single.total_us * 0.9,
            "latency floor is one inference"
        );
        assert!(
            heavy.p95_us > light.p95_us,
            "queueing under load must raise tail latency: {} vs {}",
            heavy.p95_us,
            light.p95_us
        );
        assert!(light.p50_us <= light.p95_us && light.p95_us <= light.p99_us);
        // Determinism per seed.
        let again = runtime
            .simulate_poisson_stream(&graph, &plan, capacity * 0.3, 40, 7)
            .unwrap();
        assert_eq!(again.p99_us, light.p99_us);
    }

    #[test]
    fn mixed_workload_runs_and_sjf_beats_fifo_on_mean_completion() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let vgg = build(ModelKind::Vgg16, ModelScale::Paper);
        let lenet = build(ModelKind::LeNet, ModelScale::Paper);
        let vgg_plan = tuned(&vgg, &runtime);
        let lenet_plan = tuned(&lenet, &runtime);

        // FIFO with the heavy job first vs shortest-job-first.
        let fifo = runtime
            .simulate_workload(&[
                (&vgg, &vgg_plan),
                (&lenet, &lenet_plan),
                (&lenet, &lenet_plan),
            ])
            .unwrap();
        let sjf = runtime
            .simulate_workload(&[
                (&lenet, &lenet_plan),
                (&lenet, &lenet_plan),
                (&vgg, &vgg_plan),
            ])
            .unwrap();
        assert_eq!(fifo.requests, 3);
        // The makespan is order-insensitive (same total work)...
        assert!((fifo.total_us - sjf.total_us).abs() / fifo.total_us < 0.02);
        // ...but mean completion strongly favors running the LeNets first.
        assert!(
            sjf.mean_completion_us() < fifo.mean_completion_us() * 0.6,
            "sjf {} vs fifo {}",
            sjf.mean_completion_us(),
            fifo.mean_completion_us()
        );
    }

    #[test]
    fn stream_rejects_zero_requests() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        assert!(runtime.simulate_stream(&graph, &plan, 0).is_err());
    }

    #[test]
    fn per_layer_timings_are_ordered_and_positive() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let report = runtime
            .simulate(&graph, &gpu_plan(&graph, ExecutionConfig::baseline_gpu()))
            .unwrap();
        for layer in &report.layers {
            assert!(layer.end_us >= layer.start_us, "{}", layer.name);
            assert!(layer.kernel_us > 0.0, "{}", layer.name);
        }
        let sum_kernels: f64 = report.layers.iter().map(|l| l.kernel_us).sum();
        assert!(sum_kernels <= report.total_us + 1e-6);
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical_to_plain_simulate() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let plain = runtime.simulate(&graph, &plan).unwrap();
        let outcome = runtime
            .simulate_with_faults(
                &graph,
                &plan,
                &FaultPlan::none(),
                &ResilienceConfig::default(),
            )
            .unwrap();
        assert!(outcome.recovery.is_clean());
        assert_eq!(
            outcome.report.total_us, plain.total_us,
            "resilience machinery must cost nothing when idle"
        );
    }

    /// Asserts that the layers executed before node `switch` ran
    /// `before`'s assignments, that `switch` and every later layer ran
    /// `after`'s, and that the switch changed at least one of them.
    fn assert_suffix_switch(
        report: &InferenceReport,
        switch: usize,
        before: &ExecutionPlan,
        after: &ExecutionPlan,
    ) {
        let at = report
            .layers
            .iter()
            .position(|l| l.node == switch)
            .expect("the switch node ran");
        assert!(at > 0, "the switch should land mid-run");
        for layer in &report.layers[..at] {
            assert_eq!(
                layer.assignment, before.nodes[layer.node].assignment,
                "{}",
                layer.name
            );
        }
        for layer in &report.layers[at..] {
            assert_eq!(
                layer.assignment, after.nodes[layer.node].assignment,
                "{}",
                layer.name
            );
        }
        assert!(report.layers[at..]
            .iter()
            .any(|l| l.assignment != before.nodes[l.node].assignment));
    }

    #[test]
    fn analytic_permanent_failure_exhausts_retries_then_falls_back() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let lost = graph.len() / 2;
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node: lost,
            fail_count: u32::MAX,
        });
        let cfg = ResilienceConfig::default();
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &cfg)
            .unwrap();
        assert_eq!(outcome.recovery.retries, u64::from(cfg.max_retries));
        assert_eq!(outcome.recovery.fallbacks, 1);
        assert!(outcome.recovery.gpu_lost, "permanent loss re-tunes to CPU");
        let cpu_only = runtime
            .degraded_plan(&graph, &plan, HybridMode::CpuOnly)
            .unwrap();
        assert_suffix_switch(&outcome.report, lost, &plan, &cpu_only);
        let clean = runtime.simulate(&graph, &plan).unwrap();
        assert!(
            outcome.report.total_us > clean.total_us,
            "retries and the CPU path must cost simulated time"
        );
    }

    #[test]
    fn analytic_one_shot_transient_recovers_in_one_retry() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node: graph.len() / 2,
            fail_count: 1,
        });
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &ResilienceConfig::default())
            .unwrap();
        assert_eq!(outcome.recovery.retries, 1);
        assert_eq!(outcome.recovery.fallbacks, 0);
        assert!(!outcome.recovery.gpu_lost);
        assert_eq!(outcome.recovery.faults_injected, 1);
    }

    #[test]
    fn deadline_budget_degrades_the_run_to_a_single_processor() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::ResNet18, ModelScale::Paper);
        let plan = tuned(&graph, &runtime);
        let cfg = ResilienceConfig {
            deadline_us: Some(1.0), // burns immediately
            ..ResilienceConfig::default()
        };
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &FaultPlan::none(), &cfg)
            .unwrap();
        assert_eq!(outcome.recovery.deadline_degradations, 1);
        let switch = outcome
            .recovery
            .events
            .iter()
            .find(|e| e.action == RecoveryAction::DegradeToSingleProcessor)
            .expect("the deadline burns")
            .node;
        let gpu_only = runtime
            .degraded_plan(&graph, &plan, HybridMode::GpuOnly)
            .unwrap();
        assert_suffix_switch(&outcome.report, switch, &plan, &gpu_only);
    }

    #[test]
    fn seeded_fault_runs_are_deterministic_and_survive_every_seed() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let plan = tuned(&graph, &runtime);
        let cfg = ResilienceConfig::default();
        for seed in 0..12u64 {
            let faults = FaultPlan::from_seed(seed, graph.len());
            let a = runtime
                .simulate_with_faults(&graph, &plan, &faults, &cfg)
                .unwrap();
            let b = runtime
                .simulate_with_faults(&graph, &plan, &faults, &cfg)
                .unwrap();
            assert_eq!(a.report.total_us, b.report.total_us, "seed {seed}");
            assert_eq!(
                a.recovery.faults_injected, b.recovery.faults_injected,
                "seed {seed}"
            );
            assert!(a.report.total_us.is_finite() && a.report.total_us > 0.0);
        }
    }

    #[test]
    fn oom_pressure_shrinks_the_footprint_to_managed_arrays() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::Vgg16, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        // Reserve enough DRAM that the explicit-copy footprint no longer
        // fits but the all-managed one still does, forcing exactly one
        // shrink rather than an unrecoverable failure.
        let explicit_peak = crate::footprint::footprint(&graph, &plan)
            .unwrap()
            .peak_bytes;
        let mut managed_plan = plan.clone();
        managed_plan.config.memory_policy = MemoryPolicy::AllManaged;
        let managed_peak = crate::footprint::footprint(&graph, &managed_plan)
            .unwrap()
            .peak_bytes;
        assert!(managed_peak < explicit_peak);
        let budget = (managed_peak + explicit_peak) as f64 / 2.0;
        let mut faults = FaultPlan::none();
        faults.oom_reserve_fraction = 1.0 - budget / platform.dram_bytes as f64;
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &ResilienceConfig::default())
            .unwrap();
        assert!(outcome
            .recovery
            .events
            .iter()
            .any(|e| e.action == RecoveryAction::ShrinkFootprint));
    }
}
