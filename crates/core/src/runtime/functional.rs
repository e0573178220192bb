//! Functional execution: runs a plan on **real tensors**, actually
//! splitting layers across OS threads and merging the parts.
//!
//! The analytic runtime proves EdgeNN's policies are *fast*; this module
//! proves they are *correct*: for any plan, the functional result must be
//! numerically identical (up to fp32 associativity) to the reference
//! single-threaded forward pass. Intra-kernel splits really compute the
//! two output ranges on different threads ("CPU" worker vs "GPU" worker)
//! and merge; inter-kernel branches really run concurrently.
//!
//! ## Execution core
//!
//! The engine is built to add as little overhead as possible on top of
//! the kernels themselves:
//!
//! - **One worker pool per process** ([`pool::Pool`]): its
//!   [`Pool::default_workers`] workers are spawned when the first
//!   [`Executor`] is built and park between sessions; every co-run split
//!   share and fork-join branch is a queue push, never a thread spawn.
//!   Splits and forks whose handed-off work is below the measured co-run
//!   cutoff stay on the calling thread.
//!   Pooled jobs are `'static` closures over an `Arc`-shared session
//!   (the graph's [`Program`], plan assignments, output slots, counters
//!   and fault injector), so no `unsafe` is needed.
//!   [`Executor::batch_execute`] shares one session (and the layers'
//!   warm scratch arenas) across a whole batch.
//! - **Zero-copy dataflow**: the engine allocates each node's output
//!   once, from the program's dims, and every layer computes into the
//!   buffer it is handed ([`Layer::forward_into`]); the two shares of an
//!   output-channel split write disjoint sub-slices of that one buffer,
//!   so a split whose shares run on the computing thread merges nothing.
//!   A share that runs as a pooled job computes into a buffer it owns,
//!   which the join copies into its sub-slice, and an input-channel
//!   split adds its CPU partial into the GPU partial in place. Outputs
//!   live in [`OnceLock`] slots that producers fill by move and
//!   consumers read by reference; the network input is borrowed, and
//!   copied only when a pooled job reads it; branch workers read the
//!   shared slots directly instead of cloning a snapshot.
//! - **Engine observability**: every run reports its pool and arena
//!   behaviour in [`EngineStats`], and writes node spans to the flight
//!   recorder when it is enabled.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use edgenn_nn::graph::{Graph, NodeId, Segment};
use edgenn_nn::layer::{Layer, LayerClass, Part};
use edgenn_obs::{flight, ProfileSummary};
use edgenn_sim::FaultPlan;
use edgenn_tensor::{scratch_stats, Shape, Tensor};

use crate::plan::{Assignment, ExecutionPlan, Precision};
use crate::runtime::pool::{self, JoinError, Pool, ShutdownGuard, Tally, TaskHandle};
use crate::schedule::Program;
use crate::{CoreError, Result};

/// What a pooled task yields: `Some` for a split's CPU share, the buffer
/// the job computed it into; `None` for branch bodies (their outputs go
/// straight into the slots).
type TaskResult = Result<Option<Vec<f32>>>;

/// The network input pseudo-node (see [`Graph::input_id`]).
const INPUT: NodeId = NodeId(0);

/// Clamp bounds for the measured co-run cutoff: even a pathological
/// measurement must neither co-run layers smaller than any realistic
/// handoff (floor) nor refuse to co-run paper-scale conv layers (ceiling).
const CUTOFF_FLOOR: u64 = 1 << 16;
const CUTOFF_CEIL: u64 = 1 << 24;

/// Flight-recorder capacity reserved per graph node at executor
/// construction. VGG-16 (41 raw nodes) measured ~225 records per node
/// in one request window. Compiled graphs raise the *density*: a fused
/// `conv+relu` node emits the spans of both constituent ops but counts
/// as one node (ResNet-18 drops ~24% of its nodes), so the budget
/// carries the pre-compile density times that shrinkage on top of the
/// 2x headroom for int8 plans (extra quantize pack spans) and
/// fault-injected reruns.
const FLIGHT_RECORDS_PER_NODE: usize = 768;

/// The process-wide pool every [`Executor`] submits to. Its
/// [`Pool::default_workers`] workers are spawned on first use and park
/// between sessions for the life of the process, so a session pays a
/// condvar wake per pooled task, never a thread spawn. On a single-core
/// host there are no workers and every task runs inline at its join.
fn shared_pool() -> &'static Pool<'static, TaskResult> {
    static POOL: Pool<'static, TaskResult> = Pool::new();
    static WORKERS: std::sync::Once = std::sync::Once::new();
    WORKERS.call_once(|| {
        for i in 0..Pool::<TaskResult>::default_workers() {
            // A worker that fails to spawn only costs parallelism: joins
            // reclaim queued work inline.
            let _ = std::thread::Builder::new()
                .name(format!("edgenn-worker-{i}"))
                .spawn(|| POOL.run_worker());
        }
    });
    &POOL
}

/// Minimum size (flops) of a split layer, or of the branches a fork
/// would hand off, for the pool to co-run it.
///
/// A handoff costs a queue round trip plus moving the operands to
/// another core and the result back; below the cutoff the work finishes
/// faster than that, so split partials and fork branches run on the
/// driver thread instead. The split/merge and fork/join semantics are
/// identical either way.
///
/// The break-even point is `handoff_time x flop_rate`, and both factors
/// vary by an order of magnitude across hosts (a busy single-core CI
/// runner vs an eight-core edge board), so the cutoff is **measured
/// once per process** at first [`Executor`] construction instead of
/// hard-coded.
fn corun_cutoff() -> u64 {
    static CUTOFF: OnceLock<u64> = OnceLock::new();
    *CUTOFF.get_or_init(measure_corun_cutoff)
}

/// Measures the pool-handoff round trip and the single-core flop rate,
/// then derives the break-even layer size: a split saves roughly half
/// the layer's time but pays one handoff, so co-running wins once
/// `flops / 2 > handoff_ns x flops_per_ns`.
fn measure_corun_cutoff() -> u64 {
    // Handoff: submit no-op tasks to a one-worker pool and time
    // submission to completion, keeping only samples a worker actually
    // ran (a help-first join can reclaim the task inline, which
    // measures queue-push cost, not the handoff to a waiting worker
    // being priced here).
    let ran = AtomicBool::new(false);
    let tally = Tally::default();
    let pool: Pool<'_, ()> = Pool::new();
    let mut samples: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| pool.run_worker());
        let _guard = ShutdownGuard(&pool);
        for _ in 0..32 {
            ran.store(false, Ordering::Relaxed);
            let start = std::time::Instant::now();
            let handle = pool.submit(Box::new(|| ran.store(true, Ordering::Release)));
            // Yield so the worker gets scheduled even on a one-core host.
            while !ran.load(Ordering::Acquire) && start.elapsed() < Duration::from_millis(2) {
                std::thread::yield_now();
            }
            let elapsed = start.elapsed();
            let before = tally.stats().worker_tasks;
            let _ = handle.join(&pool, &tally);
            if tally.stats().worker_tasks > before {
                samples.push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            }
            if samples.len() >= 8 {
                break;
            }
        }
    });
    drop(pool);
    // Best observed wake-up is the stable statistic (outliers include
    // scheduler preemption); 10us default when no worker ever won the
    // race against the inline reclaim.
    let handoff_ns = samples.iter().copied().min().unwrap_or(10_000).max(200);

    // Flop rate: a warm SIMD dot, the same primitive the split kernels
    // bottom out in.
    const DOT_LEN: usize = 4096;
    const ITERS: u64 = 64;
    let a = vec![1.0f32; DOT_LEN];
    let b = vec![0.5f32; DOT_LEN];
    let mut sink = 0.0f32;
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        sink += edgenn_tensor::dot(&a, &b);
    }
    let elapsed_ns = u64::try_from(start.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1);
    std::hint::black_box(sink);
    let flops_per_ns = (2 * DOT_LEN as u64 * ITERS) as f64 / elapsed_ns as f64;

    let cutoff = (2.0 * handoff_ns as f64 * flops_per_ns) as u64;
    cutoff.clamp(CUTOFF_FLOOR, CUTOFF_CEIL)
}

/// Engine-overhead counters for one functional run.
///
/// The pool counters are the session's own [`Tally`] (the workers are
/// shared with every concurrent session); the arena counters are
/// process-wide. Per-request windowing happens through
/// [`EngineStats::snapshot_delta`], so stats reported for one request
/// never inherit a previous request's counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Tasks completed by pool workers.
    pub pool_tasks: u64,
    /// Tasks the waiter reclaimed and ran inline (help-first joins).
    pub inline_tasks: u64,
    /// Nanoseconds tasks spent queued before starting.
    pub queue_wait_ns: u64,
    /// Scratch-arena bytes that required fresh heap allocation.
    pub arena_fresh_bytes: u64,
    /// Scratch-arena bytes served without allocating (steady state).
    pub arena_reused_bytes: u64,
    /// Bytes moved into node output slots. The engine holds every slot
    /// to session end, so this is also the run's slot high-water mark —
    /// the measured quantity the tier-D checker's certified bound must
    /// dominate. The copy of the network input that pooled jobs read
    /// (see [`Executor`]) is not a node output and is not counted.
    pub slot_bytes: u64,
    /// Flight-recorder profile of this run (per-stage p50/p99), present
    /// when the flight recorder was enabled during the run.
    pub profile: Option<ProfileSummary>,
}

impl EngineStats {
    /// Absolute snapshot of the cumulative engine counters underlying
    /// one session (no profile — profiles belong to windows).
    fn capture(
        pool: &pool::PoolStats,
        scratch: &edgenn_tensor::ScratchStats,
        slot_bytes: u64,
    ) -> EngineStats {
        EngineStats {
            pool_tasks: pool.worker_tasks,
            inline_tasks: pool.inline_tasks,
            queue_wait_ns: pool.queue_wait_ns,
            arena_fresh_bytes: scratch.fresh_bytes,
            arena_reused_bytes: scratch.reused_bytes,
            slot_bytes,
            profile: None,
        }
    }

    /// Counter growth from `self` to `later` — the per-request window.
    /// The returned stats carry `later`'s profile (profiles are built
    /// per window and never accumulate).
    #[must_use]
    pub fn snapshot_delta(&self, later: &EngineStats) -> EngineStats {
        EngineStats {
            pool_tasks: later.pool_tasks.saturating_sub(self.pool_tasks),
            inline_tasks: later.inline_tasks.saturating_sub(self.inline_tasks),
            queue_wait_ns: later.queue_wait_ns.saturating_sub(self.queue_wait_ns),
            arena_fresh_bytes: later
                .arena_fresh_bytes
                .saturating_sub(self.arena_fresh_bytes),
            arena_reused_bytes: later
                .arena_reused_bytes
                .saturating_sub(self.arena_reused_bytes),
            slot_bytes: later.slot_bytes.saturating_sub(self.slot_bytes),
            profile: later.profile.clone(),
        }
    }
}

/// Recovery counters of one functional run (all zero when no
/// [`FaultInjector`] is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Kernel launches that failed by injection.
    pub faults_injected: u64,
    /// Launches retried after a transient failure.
    pub retries: u64,
    /// GPU-role computations re-run in the CPU role after the retry
    /// budget was exhausted.
    pub fallbacks: u64,
    /// Pool workers written off (panicked task or watchdog timeout)
    /// whose partials were recomputed inline by the waiter.
    pub worker_losses: u64,
}

impl FaultCounts {
    /// Counter growth from `self` to `later`.
    fn delta(&self, later: &FaultCounts) -> FaultCounts {
        FaultCounts {
            faults_injected: later.faults_injected - self.faults_injected,
            retries: later.retries - self.retries,
            fallbacks: later.fallbacks - self.fallbacks,
            worker_losses: later.worker_losses - self.worker_losses,
        }
    }
}

/// Deterministic fault injection for functional runs.
///
/// Mirrors the analytic [`edgenn_sim::FaultClock`] on the real-tensor
/// path: every GPU-role kernel launch consults the injector; a failing
/// launch is retried up to `max_retries` times and then recomputed in
/// the CPU role. The recomputation runs the identical kernel over the
/// identical operands, so a recovered run is **bitwise identical** to
/// the fault-free run of the same plan — resilience never perturbs the
/// numerics. Environmental windows (bandwidth, thermal, stalls) scale
/// simulated time only and do not apply here.
#[derive(Debug)]
pub struct FaultInjector {
    /// Per-node remaining failure charges; `u32::MAX` is permanent.
    remaining: Vec<AtomicU32>,
    /// Retries granted before a launch is re-placed on the CPU role.
    max_retries: u32,
    /// Watchdog bound for worker-held partial joins.
    join_timeout: Option<Duration>,
    faults_injected: AtomicU64,
    retries: AtomicU64,
    fallbacks: AtomicU64,
    worker_losses: AtomicU64,
    /// Test hook standing in for a hung kernel: how long a pooled
    /// partial that a worker picked up sleeps before computing.
    #[cfg(test)]
    worker_stall: Option<Duration>,
}

impl FaultInjector {
    /// Builds an injector from `plan`'s kernel faults for a graph of
    /// `nodes` nodes, with a per-kernel retry budget of `max_retries`.
    #[must_use]
    pub fn from_plan(plan: &FaultPlan, nodes: usize, max_retries: u32) -> Self {
        let remaining: Vec<AtomicU32> = (0..nodes).map(|_| AtomicU32::new(0)).collect();
        for fault in &plan.kernel_faults {
            if let Some(cell) = remaining.get(fault.node) {
                cell.store(fault.fail_count, Ordering::Relaxed);
            }
        }
        Self {
            remaining,
            max_retries,
            join_timeout: None,
            faults_injected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            worker_losses: AtomicU64::new(0),
            #[cfg(test)]
            worker_stall: None,
        }
    }

    /// Bounds every worker-held partial join by `timeout`: a worker
    /// that holds a partial longer is written off as hung until its job
    /// finishes, and its share is recomputed inline (see
    /// [`pool::LossAccount`]).
    #[must_use]
    pub fn with_join_timeout(mut self, timeout: Duration) -> Self {
        self.join_timeout = Some(timeout);
        self
    }

    /// Whether the next launch of `node`'s kernel fails, consuming one
    /// failure charge (a `u32::MAX` charge never depletes).
    fn should_fail(&self, node: usize) -> bool {
        let Some(cell) = self.remaining.get(node) else {
            return false;
        };
        let fails = cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| match n {
                0 => None,
                u32::MAX => Some(u32::MAX),
                n => Some(n - 1),
            })
            .is_ok();
        if fails {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        fails
    }

    /// Recovery counters accumulated across every run so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            worker_losses: self.worker_losses.load(Ordering::Relaxed),
        }
    }
}

/// Statistics of one functional run.
#[derive(Debug, Clone)]
pub struct FunctionalOutcome {
    /// The network output.
    pub output: Tensor,
    /// Number of layers executed as partition+merge splits. Splits above
    /// the measured co-run cutoff co-run on two threads; smaller ones
    /// compute both shares on the driver (the handoff would cost more
    /// than the layer).
    pub corun_layers: usize,
    /// Number of layers executed wholly by the CPU-role worker.
    pub cpu_layers: usize,
    /// Number of layers computed by the int8 quantized kernels (zero
    /// under [`Precision::F32`] plans).
    pub int8_layers: usize,
    /// Number of int8-capable layers an int8 plan kept in f32 because
    /// quantize/requantize overhead beats the saved weight traffic on
    /// their shape ([`Layer::int8_worthwhile`]).
    pub int8_gated: usize,
    /// Number of fork-join regions that forked: their pooled branches
    /// cleared the co-run cutoff and were handed to the pool (the others
    /// ran their branches one after another on the driver).
    pub parallel_regions: usize,
    /// Engine-overhead accounting (pool + scratch arena).
    pub engine: EngineStats,
    /// Fault-recovery accounting (all zero without a [`FaultInjector`]).
    pub recovery: FaultCounts,
}

/// One `run_session`'s state, shared by `Arc` with its pooled jobs. A
/// job the watchdog abandoned may hold it past the session's end.
struct Session {
    program: Arc<Program>,
    assignments: Vec<Assignment>,
    int8: bool,
    /// Node output slots, one per program node per input of the batch.
    slots: Vec<OnceLock<Tensor>>,
    corun: AtomicUsize,
    cpu: AtomicUsize,
    int8_layers: AtomicUsize,
    int8_gated: AtomicUsize,
    slot_bytes: AtomicU64,
    faults: Option<Arc<FaultInjector>>,
    corun_cutoff: u64,
    /// This session's pool tasks (the workers are shared).
    tally: Tally,
}

/// A reusable functional execution session for one graph.
///
/// Construction lowers the graph once into its [`Program`];
/// [`Executor::execute`] then runs any plan/input against it, and
/// [`Executor::batch_execute`] amortizes session setup and scratch-arena
/// warm-up across a batch of inputs. Every executor submits to the one
/// process-wide worker pool, so building one per batch spawns nothing.
///
/// Pooled jobs cannot borrow the caller's input; a session copies it
/// (once per input) only when it submits a job that reads it.
pub struct Executor<'g> {
    graph: &'g Graph,
    program: Arc<Program>,
    faults: Option<Arc<FaultInjector>>,
    corun_cutoff: u64,
    /// One-shot guard for the int8 calibration pass (see `run_session`).
    calibrated: std::sync::Once,
    pool: &'static Pool<'static, TaskResult>,
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("graph", &self.graph.name())
            .field("faults", &self.faults.is_some())
            .field("corun_cutoff", &self.corun_cutoff)
            .finish()
    }
}

impl<'g> Executor<'g> {
    /// Prepares an executor for `graph` (builds its [`Program`]).
    ///
    /// # Errors
    /// Fails when the graph has no valid fork-join decomposition.
    pub fn new(graph: &'g Graph) -> Result<Self> {
        // Size the flight-recorder rings so one request's window fits
        // even on the deepest model: VGG-16 overflowed the old fixed
        // 4096-record rings by ~5k records per request (~225 records
        // per node between node/merge spans, kernel pack/compute pairs,
        // scratch instants and pool queue/task spans). Rings only grow,
        // so an oversized estimate costs memory, never records.
        flight::reserve(graph.len() * FLIGHT_RECORDS_PER_NODE);
        Ok(Self {
            graph,
            program: Arc::new(Program::new(graph)?),
            faults: None,
            corun_cutoff: corun_cutoff(),
            calibrated: std::sync::Once::new(),
            pool: shared_pool(),
        })
    }

    /// Overrides the measured co-run cutoff (flops) for this executor,
    /// for tests that must force or forbid pool handoffs regardless of
    /// the host's measured break-even point.
    #[cfg(test)]
    fn with_corun_cutoff(mut self, flops: u64) -> Self {
        self.corun_cutoff = flops;
        self
    }

    /// Injects faults from `injector` into every subsequent run.
    #[must_use]
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(Arc::new(injector));
        self
    }

    /// Runs this executor's sessions on `pool` instead of the
    /// process-wide one, for tests that hang a worker on purpose.
    #[cfg(test)]
    fn with_pool(mut self, pool: &'static Pool<'static, TaskResult>) -> Self {
        self.pool = pool;
        self
    }

    /// Executes `plan` functionally on one `input`.
    ///
    /// # Errors
    /// Fails on plan/graph mismatch, shape errors, or if a worker thread
    /// panics (surfaced as [`CoreError::Internal`]).
    pub fn execute(&self, plan: &ExecutionPlan, input: &Tensor) -> Result<FunctionalOutcome> {
        let mut outcomes = self.run_session(plan, &[input])?;
        outcomes.pop().ok_or_else(|| CoreError::Internal {
            reason: "session returned no outcome".to_string(),
        })
    }

    /// Executes `plan` on a batch of inputs sharing one session and
    /// warm scratch arenas. Outcomes are returned in input order; the
    /// batch fails as a whole on the first error.
    ///
    /// # Errors
    /// Same failure modes as [`Executor::execute`]; additionally fails
    /// on an empty batch.
    pub fn batch_execute(
        &self,
        plan: &ExecutionPlan,
        inputs: &[Tensor],
    ) -> Result<Vec<FunctionalOutcome>> {
        if inputs.is_empty() {
            return Err(CoreError::Internal {
                reason: "empty batch".to_string(),
            });
        }
        let refs: Vec<&Tensor> = inputs.iter().collect();
        self.run_session(plan, &refs)
    }

    /// Runs one session over `inputs` sequentially.
    fn run_session(
        &self,
        plan: &ExecutionPlan,
        inputs: &[&Tensor],
    ) -> Result<Vec<FunctionalOutcome>> {
        plan.validate(self.graph)?;
        for input in inputs {
            if input.shape() != self.graph.input_shape() {
                return Err(CoreError::PlanMismatch {
                    reason: format!(
                        "input shape {} does not match graph input {}",
                        input.shape(),
                        self.graph.input_shape()
                    ),
                });
            }
        }
        // Int8 plans calibrate activation ranges from the first real input
        // before anything is timed: one f32 reference pass stamps frozen
        // per-layer quantization parameters (write-once, shared by every
        // executor over the same graph), so the quantized kernels skip
        // their per-call min/max scan on every subsequent inference and
        // all partials/replays see identical parameters.
        if plan.config.precision == Precision::Int8 {
            self.calibrated.call_once(|| {
                if let Some(&first) = inputs.first() {
                    let _ = edgenn_nn::graph::calibrate(self.graph, std::slice::from_ref(first));
                }
            });
        }
        let len = self.graph.len();
        let mut session = Arc::new(Session {
            program: Arc::clone(&self.program),
            assignments: plan.nodes.iter().map(|n| n.assignment).collect(),
            int8: plan.config.precision == Precision::Int8,
            slots: (0..len * inputs.len()).map(|_| OnceLock::new()).collect(),
            corun: AtomicUsize::new(0),
            cpu: AtomicUsize::new(0),
            int8_layers: AtomicUsize::new(0),
            int8_gated: AtomicUsize::new(0),
            slot_bytes: AtomicU64::new(0),
            faults: self.faults.clone(),
            corun_cutoff: self.corun_cutoff,
            tally: Tally::default(),
        });
        let runs = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                run_one(Ctx {
                    session: &session,
                    base: i * len,
                    input: Some(input),
                    pool: Some(self.pool),
                })
            })
            .collect::<Result<Vec<_>>>()?;

        // Every job this session joined has dropped its share of the
        // session by now; only one the watchdog abandoned can still hold
        // it, and then the outputs are copied out instead of moved.
        let output_idx = self.graph.output_id().index();
        runs.into_iter()
            .enumerate()
            .map(|(i, counters)| {
                let slot = i * len + output_idx;
                let output = match Arc::get_mut(&mut session) {
                    Some(owned) => owned.slots[slot].take(),
                    None => session.slots[slot].get().cloned(),
                }
                .ok_or_else(|| CoreError::Internal {
                    reason: "output never computed".to_string(),
                })?;
                Ok(FunctionalOutcome {
                    output,
                    corun_layers: counters.corun,
                    cpu_layers: counters.cpu,
                    int8_layers: counters.int8,
                    int8_gated: counters.int8_gated,
                    parallel_regions: counters.parallel_regions,
                    engine: counters.engine,
                    recovery: counters.recovery,
                })
            })
            .collect()
    }
}

/// Executes `plan` functionally on `input`.
///
/// One-shot convenience over [`Executor`]: builds an executor and runs
/// the single input. Callers running many inputs should hold an
/// [`Executor`] and use [`Executor::batch_execute`].
///
/// # Errors
/// Fails on plan/graph mismatch, shape errors, or if a worker thread
/// panics (surfaced as [`CoreError::Internal`]).
pub fn execute(graph: &Graph, plan: &ExecutionPlan, input: &Tensor) -> Result<FunctionalOutcome> {
    Executor::new(graph)?.execute(plan, input)
}

/// Per-run counter deltas collected by [`run_one`].
struct RunCounters {
    corun: usize,
    cpu: usize,
    int8: usize,
    int8_gated: usize,
    parallel_regions: usize,
    engine: EngineStats,
    recovery: FaultCounts,
}

/// One input's view of a [`Session`]. The driver's view borrows the
/// caller's input and queues work on the pool; a pooled job's view has
/// neither — it reads the input copy in slot 0, and computes both
/// shares of its own splits (the driver would only take them back).
#[derive(Clone, Copy)]
struct Ctx<'a> {
    session: &'a Arc<Session>,
    /// Index of this input's node-0 slot in `session.slots`.
    base: usize,
    input: Option<&'a Tensor>,
    pool: Option<&'a Pool<'static, TaskResult>>,
}

impl<'a> Ctx<'a> {
    /// The view a pooled job rebuilds from its owned session handle.
    fn job(session: &'a Arc<Session>, base: usize) -> Self {
        Self {
            session,
            base,
            input: None,
            pool: None,
        }
    }

    fn layer(self, id: NodeId) -> &'a dyn Layer {
        self.session.program.layer(id)
    }

    fn inputs(self, id: NodeId) -> &'a [NodeId] {
        self.session.program.inputs(id)
    }

    fn slot(self, id: NodeId) -> &'a OnceLock<Tensor> {
        &self.session.slots[self.base + id.index()]
    }

    fn faults(self) -> Option<&'a FaultInjector> {
        self.session.faults.as_deref()
    }

    /// Before submitting a job that runs `nodes`: if any of them reads
    /// the network input, copy the borrowed input into slot 0 (once per
    /// input), where the job can reach it.
    fn share_input(self, nodes: &[NodeId]) {
        let Some(input) = self.input else { return };
        if nodes.iter().any(|&id| self.inputs(id).contains(&INPUT)) {
            self.slot(INPUT).get_or_init(|| input.clone());
        }
    }
}

/// Drives one input through every segment on the calling thread,
/// delegating branch bodies and split partials to the pool.
fn run_one(ctx: Ctx<'_>) -> Result<RunCounters> {
    let session = &**ctx.session;
    let stats_before = EngineStats::capture(
        &session.tally.stats(),
        &scratch_stats(),
        session.slot_bytes.load(Ordering::Relaxed),
    );
    let corun_before = session.corun.load(Ordering::Relaxed);
    let cpu_before = session.cpu.load(Ordering::Relaxed);
    let int8_before = session.int8_layers.load(Ordering::Relaxed);
    let int8_gated_before = session.int8_gated.load(Ordering::Relaxed);
    let recovery_before = ctx.faults().map(FaultInjector::counts).unwrap_or_default();

    // Per-request flight window: everything recorded between here and
    // the drain below that is causally reachable from the request root
    // span becomes this request's profile.
    let marker = flight::enabled().then(flight::mark);
    let root = flight::begin(flight::SpanKind::Request, flight::NO_NODE);

    let run: Result<usize> = flight::with_parent(root.id(), || {
        let mut parallel_regions = 0usize;
        for (seg, segment) in session.program.segments().iter().enumerate() {
            match segment {
                Segment::Chain(nodes) => run_branch(ctx, nodes)?,
                Segment::Parallel { branches, .. } => {
                    // Like a split, a fork co-runs only when the work it
                    // hands off clears the cutoff.
                    let forked = branches.iter().filter(|b| !b.is_empty()).count() >= 2
                        && session.program.fork_flops(seg) >= session.corun_cutoff;
                    match ctx.pool {
                        Some(pool) if forked => {
                            parallel_regions += 1;
                            exec_branches(ctx, pool, seg)?;
                        }
                        // Zero or one real branch, or too little work to
                        // hand off: run the branches here.
                        _ => {
                            for branch in branches {
                                run_branch(ctx, branch)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(parallel_regions)
    });
    flight::end(root);
    let parallel_regions = run?;

    let mut stats_after = EngineStats::capture(
        &session.tally.stats(),
        &scratch_stats(),
        session.slot_bytes.load(Ordering::Relaxed),
    );
    if let Some(marker) = &marker {
        stats_after.profile = Some(flight::profile_since(marker, root.id()));
    }
    Ok(RunCounters {
        corun: session.corun.load(Ordering::Relaxed) - corun_before,
        cpu: session.cpu.load(Ordering::Relaxed) - cpu_before,
        int8: session.int8_layers.load(Ordering::Relaxed) - int8_before,
        int8_gated: session.int8_gated.load(Ordering::Relaxed) - int8_gated_before,
        parallel_regions,
        recovery: recovery_before
            .delta(&ctx.faults().map(FaultInjector::counts).unwrap_or_default()),
        engine: stats_before.snapshot_delta(&stats_after),
    })
}

/// Runs the branches of fork-join segment `seg`: the last non-empty one
/// on this thread, every other non-empty one on the pool. Branches write
/// disjoint slot ranges, so they share the session's slots directly — no
/// snapshot copy of previous outputs.
fn exec_branches(ctx: Ctx<'_>, pool: &Pool<'static, TaskResult>, seg: usize) -> Result<()> {
    let branches = ctx.session.program.branches(seg);
    let mut real = branches.iter().enumerate().filter(|(_, b)| !b.is_empty());
    let Some((_, last)) = real.next_back() else {
        return Ok(());
    };
    let parent = flight::current_parent();
    let handles: Vec<_> = real
        .map(|(b, nodes)| {
            ctx.share_input(nodes);
            let session = Arc::clone(ctx.session);
            let base = ctx.base;
            let submitted = submit_ns();
            pool.submit(Box::new(move || {
                traced_task(parent, submitted, flight::NO_NODE, || {
                    let ctx = Ctx::job(&session, base);
                    run_branch(ctx, &session.program.branches(seg)[b]).map(|()| None)
                })
            }))
        })
        .collect();
    let mut first_err = run_branch(ctx, last).err();
    for handle in handles {
        match handle.join(pool, &ctx.session.tally) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(CoreError::Internal {
                    reason: "branch worker panicked".to_string(),
                }));
            }
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Executes one branch's nodes in order (on whichever thread runs it).
/// Consecutive node spans share their boundary: each starts where the
/// previous one ended, one clock read per node instead of two.
fn run_branch(ctx: Ctx<'_>, nodes: &[NodeId]) -> Result<()> {
    let mut boundary = 0;
    for &id in nodes {
        boundary = exec_node(ctx, id, boundary)?;
    }
    Ok(())
}

/// A graph node id as recorded in flight spans.
fn flight_node(id: NodeId) -> u32 {
    u32::try_from(id.index()).unwrap_or(flight::NO_NODE)
}

/// Wraps a pooled task body for the flight recorder: restores the
/// submitting span's causal parent on the executing thread and records
/// a queue-wait span (submission to pickup) plus a task-run span around
/// the body. `submit_ns` of 0 means "recorder was off at submission" —
/// the body still runs under `parent`, just without pool spans.
fn traced_task<R>(parent: u64, submit_ns: u64, node: u32, body: impl FnOnce() -> R) -> R {
    flight::with_parent(parent, || {
        if submit_ns == 0 || !flight::enabled() {
            return body();
        }
        let picked_up_ns = flight::now_ns();
        flight::record_manual(
            flight::SpanKind::QueueWait,
            node,
            parent,
            submit_ns,
            picked_up_ns,
            0,
        );
        let task = flight::begin(flight::SpanKind::TaskRun, node);
        let result = flight::with_parent(task.id(), body);
        flight::end(task);
        result
    })
}

/// Submission timestamp for [`traced_task`] (0 when the recorder is off).
fn submit_ns() -> u64 {
    if flight::enabled() {
        flight::now_ns()
    } else {
        0
    }
}

/// Resolves a node output: computed slots first, then the driver's
/// borrowed network input.
fn lookup<'a>(ctx: Ctx<'a>, id: NodeId) -> Result<&'a Tensor> {
    if let Some(tensor) = ctx.slot(id).get() {
        return Ok(tensor);
    }
    match ctx.input {
        Some(input) if id == INPUT => Ok(input),
        _ => Err(CoreError::Internal {
            reason: format!("input {id} not computed"),
        }),
    }
}

/// Resolves every input of node `id`.
fn node_inputs<'a>(ctx: Ctx<'a>, id: NodeId) -> Result<Vec<&'a Tensor>> {
    ctx.inputs(id).iter().map(|&i| lookup(ctx, i)).collect()
}

/// Executes one node and moves its output into the slot. The node's
/// span starts at `start_ns` when nonzero (the previous node's end) and
/// at a fresh clock read otherwise; returns the span's end (0 when the
/// recorder is off).
fn exec_node(ctx: Ctx<'_>, id: NodeId, start_ns: u64) -> Result<u64> {
    if ctx.layer(id).class() == LayerClass::Input {
        return Ok(start_ns); // resolved by `lookup` as the network input
    }
    let inputs = node_inputs(ctx, id)?;
    let span = if start_ns == 0 {
        flight::begin(flight::SpanKind::Node, flight_node(id))
    } else {
        flight::begin_at(flight::SpanKind::Node, flight_node(id), start_ns)
    };
    let result = flight::with_span(&span, || forward_assigned(ctx, id, &inputs));
    let end_ns = flight::end_at(span);
    let (tensor, corun, cpu) = result?;
    let session = &**ctx.session;
    session
        .corun
        .fetch_add(usize::from(corun), Ordering::Relaxed);
    session.cpu.fetch_add(cpu, Ordering::Relaxed);
    session
        .slot_bytes
        .fetch_add((tensor.as_slice().len() * 4) as u64, Ordering::Relaxed);
    ctx.slot(id).set(tensor).map_err(|_| CoreError::Internal {
        reason: format!("node {id} computed twice"),
    })?;
    Ok(end_ns)
}

/// Computes one node per its assignment into its output, allocated once
/// here from the program's dims: a whole node writes all of it, and the
/// two shares of an output-channel split write its disjoint sub-slices.
/// Returns `(output, was_corun, was_cpu as 0/1)`.
fn forward_assigned(ctx: Ctx<'_>, id: NodeId, inputs: &[&Tensor]) -> Result<(Tensor, bool, usize)> {
    let layer = ctx.layer(id);
    let session = &**ctx.session;
    let assignment = session.assignments[id.index()];
    // Input-channel splits stay f32 regardless of the plan's precision:
    // their partial *sums* need f32 accumulation, and requantizing each
    // partial would double the rounding error.
    let int8_plan =
        session.int8 && layer.int8_ready() && !matches!(assignment, Assignment::SplitInput { .. });
    // An int8-capable layer whose shape loses to f32 (quantize/requant
    // overhead beats the saved weight traffic) stays in f32 — counted
    // separately so benches can see the gate at work.
    let int8 = int8_plan && layer.int8_worthwhile();
    if int8 {
        session.int8_layers.fetch_add(1, Ordering::Relaxed);
    } else if int8_plan {
        session.int8_gated.fetch_add(1, Ordering::Relaxed);
    }
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let units = layer.partition_units(&shapes)?;
    let dims = session.program.dims(id);
    let mut out = vec![0.0f32; dims.iter().product()];
    let part = |range| Part::Units {
        range,
        int8,
        relu: false,
    };
    let whole = |out: &mut [f32]| Ok(layer.forward_into(inputs, part(0..units), out)?);
    let (corun, cpu) = match assignment {
        Assignment::Gpu => {
            recovering_forward(ctx, id, || whole(&mut out))?;
            (false, 0)
        }
        Assignment::Cpu => {
            whole(&mut out)?;
            (false, 1)
        }
        Assignment::SplitInput { cpu_fraction } => {
            let channels = layer.input_channels(&shapes)?;
            if !layer.input_split_supported() || channels < 2 {
                whole(&mut out)?;
                return Ok((Tensor::from_vec(out, dims)?, false, 0));
            }
            let cpu_channels =
                ((cpu_fraction * channels as f64).round() as usize).clamp(1, channels - 1);
            let gpu_channels = channels - cpu_channels;
            // The GPU takes the first channels (the paper's "first k input
            // channels"), the CPU the remainder; both partials are
            // full-size, and the CPU's is added into the GPU's.
            let mut cpu_part = vec![0.0f32; out.len()];
            split_shares(
                ctx,
                id,
                inputs,
                &shapes,
                (Part::Inputs(0..gpu_channels), &mut out),
                (Part::Inputs(gpu_channels..channels), &mut cpu_part),
            )?;
            // In-place partial-sum merge into the node's output.
            let merge_span = flight::begin(flight::SpanKind::Merge, flight_node(id));
            for (m, c) in out.iter_mut().zip(&cpu_part) {
                *m += c;
            }
            // A fused `+relu` node hands out *raw* partial sums on the
            // input split (relu(a) + relu(b) != relu(a + b)); its folded
            // activation applies exactly once, here, after the merge.
            if layer.deferred_epilogue_relu() {
                edgenn_tensor::ops::relu_in_place(&mut out);
            }
            flight::end(merge_span);
            (true, 0)
        }
        Assignment::Split { cpu_fraction } => {
            if units < 2 {
                whole(&mut out)?;
                return Ok((Tensor::from_vec(out, dims)?, false, 0));
            }
            let cpu_units = ((cpu_fraction * units as f64).round() as usize).clamp(1, units - 1);
            // The paper's convention: the GPU computes the first units,
            // the CPU the remainder (Section IV-D), each into its own
            // sub-slice of the node's output.
            let gpu_units = units - cpu_units;
            let at = out.len() / units * gpu_units;
            let (gpu_out, cpu_out) = out.split_at_mut(at);
            split_shares(
                ctx,
                id,
                inputs,
                &shapes,
                (part(0..gpu_units), gpu_out),
                (part(gpu_units..units), cpu_out),
            )?;
            (true, 0)
        }
    };
    Ok((Tensor::from_vec(out, dims)?, corun, cpu))
}

/// Computes a split node's GPU share into `gpu.1` on this thread and its
/// CPU share into `cpu.1`. Above the co-run cutoff, and when this thread
/// may queue work, the CPU share co-runs as a pooled job, which computes
/// into a buffer it owns (a job the watchdog abandons may still be
/// running) that the join copies into `cpu.1`; otherwise it runs here
/// first, straight into `cpu.1`.
fn split_shares(
    ctx: Ctx<'_>,
    id: NodeId,
    inputs: &[&Tensor],
    shapes: &[&Shape],
    gpu: (Part, &mut [f32]),
    cpu: (Part, &mut [f32]),
) -> Result<()> {
    let layer = ctx.layer(id);
    let share = |part: Part, out: &mut [f32]| Ok(layer.forward_into(inputs, part, out)?);
    let pool = ctx.pool.filter(|_| {
        layer
            .workload(shapes)
            .is_ok_and(|w| w.flops >= ctx.session.corun_cutoff)
    });
    let (gpu_part, gpu_out) = gpu;
    let (cpu_part, cpu_out) = cpu;
    let Some(pool) = pool else {
        share(cpu_part, cpu_out)?;
        return recovering_forward(ctx, id, || share(gpu_part, gpu_out));
    };
    let task = submit_partial(ctx, pool, id, cpu_part.clone(), cpu_out.len());
    let gpu_done = recovering_forward(ctx, id, || share(gpu_part, gpu_out));
    join_partial(ctx, pool, id, task, cpu_out, |out| share(cpu_part, out))?;
    gpu_done
}

/// Queues a split's CPU share as a `'static` job over the shared
/// session: the job re-resolves the node's inputs from the session's
/// slots on whichever thread runs it, and computes the share into a
/// buffer of `len` elements it owns.
fn submit_partial(
    ctx: Ctx<'_>,
    pool: &Pool<'static, TaskResult>,
    id: NodeId,
    part: Part,
    len: usize,
) -> TaskHandle<'static, TaskResult> {
    ctx.share_input(&[id]);
    let session = Arc::clone(ctx.session);
    let base = ctx.base;
    let parent = flight::current_parent();
    let submitted = submit_ns();
    #[cfg(test)]
    let driver = std::thread::current().id();
    pool.submit(Box::new(move || {
        traced_task(parent, submitted, flight_node(id), || {
            #[cfg(test)]
            stall_off_driver(&session, driver);
            let ctx = Ctx::job(&session, base);
            let mut out = vec![0.0f32; len];
            ctx.layer(id)
                .forward_into(&node_inputs(ctx, id)?, part, &mut out)?;
            Ok(Some(out))
        })
    }))
}

/// The `FaultInjector` test hook: a partial that a worker picked up (not
/// one its driver reclaimed) sleeps out the stall, like a hung kernel.
#[cfg(test)]
fn stall_off_driver(session: &Session, driver: std::thread::ThreadId) {
    let stall = session.faults.as_ref().and_then(|f| f.worker_stall);
    if let Some(stall) = stall.filter(|_| std::thread::current().id() != driver) {
        std::thread::sleep(stall);
    }
}

/// Runs one GPU-role computation under the injector's recovery state
/// machine: a failing launch is retried up to the budget, then
/// recomputed in the CPU role. Every path runs the identical kernel
/// over the identical operands, so recovery never perturbs the output.
fn recovering_forward(
    ctx: Ctx<'_>,
    id: NodeId,
    compute: impl FnOnce() -> Result<()>,
) -> Result<()> {
    let Some(injector) = ctx.faults() else {
        return compute();
    };
    if !injector.should_fail(id.index()) {
        return compute();
    }
    let mut failed_attempts = 1u32;
    let recovered = loop {
        if failed_attempts > injector.max_retries {
            // Retry budget exhausted: re-place the work in the CPU role.
            injector.fallbacks.fetch_add(1, Ordering::Relaxed);
            flight::instant(flight::SpanKind::Fallback, flight_node(id), 0);
            break compute();
        }
        injector.retries.fetch_add(1, Ordering::Relaxed);
        flight::instant(
            flight::SpanKind::Retry,
            flight_node(id),
            u64::from(failed_attempts),
        );
        if !injector.should_fail(id.index()) {
            break compute();
        }
        failed_attempts += 1;
    };
    // A fault happened on this launch: snapshot the flight rings so the
    // records leading up to it (including the retry/fallback markers
    // just written) survive as a black box.
    flight::blackbox_dump(&format!("kernel-fault: node {}", id.index()));
    recovered
}

/// Joins a split-partial task and copies its buffer into `out`, mapping
/// pool-level failures to engine errors. With a fault injector attached,
/// a lost worker (panicked task, or one hung past the injector's join
/// timeout) is converted into an inline recomputation of the identical
/// share into `out` instead of a failed inference. A timed-out join
/// returns at its deadline; the pool writes the hung worker off until its
/// abandoned job finishes (see [`pool::LossAccount`]).
fn join_partial(
    ctx: Ctx<'_>,
    pool: &Pool<'static, TaskResult>,
    id: NodeId,
    task: TaskHandle<'static, TaskResult>,
    out: &mut [f32],
    recompute: impl FnOnce(&mut [f32]) -> Result<()>,
) -> Result<()> {
    let tally = &ctx.session.tally;
    let joined = match ctx.faults().and_then(|f| f.join_timeout) {
        Some(timeout) => task.join_deadline(pool, tally, timeout),
        None => task.join(pool, tally),
    };
    match joined {
        Ok(result) => {
            let share = result?.ok_or_else(|| CoreError::Internal {
                reason: "split task returned no share".to_string(),
            })?;
            let merge_span = flight::begin(flight::SpanKind::Merge, flight_node(id));
            out.copy_from_slice(&share);
            flight::end(merge_span);
            Ok(())
        }
        Err(err) => {
            let Some(injector) = ctx.faults() else {
                return Err(CoreError::Internal {
                    reason: "cpu worker panicked".to_string(),
                });
            };
            // A timed-out join already recorded the loss with its
            // write-off.
            if err == JoinError::Panicked {
                flight::instant(flight::SpanKind::WorkerLoss, flight::NO_NODE, 0);
            }
            injector.worker_losses.fetch_add(1, Ordering::Relaxed);
            flight::blackbox_dump(match err {
                JoinError::TimedOut => "deadline-miss: worker held a partial past the watchdog",
                JoinError::Panicked => "worker-panic: split partial lost",
            });
            recompute(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionConfig;
    use crate::runtime::Runtime;
    use crate::tuner::Tuner;
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::jetson_agx_xavier;

    fn edgenn_plan(graph: &Graph) -> ExecutionPlan {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(graph, &runtime).unwrap();
        tuner
            .plan(graph, &runtime, ExecutionConfig::edgenn())
            .unwrap()
    }

    #[test]
    fn functional_execution_matches_reference_for_all_models() {
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let plan = edgenn_plan(&graph);
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
            let reference = graph.forward(&input).unwrap();
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert!(
                outcome.output.approx_eq(&reference, 1e-4),
                "{kind}: max diff {}",
                outcome.output.max_abs_diff(&reference).unwrap_or(f32::NAN)
            );
        }
    }

    #[test]
    fn batch_execute_matches_reference_for_all_models() {
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let plan = edgenn_plan(&graph);
            let inputs: Vec<Tensor> = (0..3)
                .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 40 + i))
                .collect();
            let executor = Executor::new(&graph).unwrap();
            let outcomes = executor.batch_execute(&plan, &inputs).unwrap();
            assert_eq!(outcomes.len(), inputs.len());
            for (input, outcome) in inputs.iter().zip(&outcomes) {
                let reference = graph.forward(input).unwrap();
                assert!(
                    outcome.output.approx_eq(&reference, 1e-4),
                    "{kind}: batch diverged from reference"
                );
            }
        }
    }

    #[test]
    fn batch_execute_rejects_empty_batch() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let executor = Executor::new(&graph).unwrap();
        assert!(matches!(
            executor.batch_execute(&plan, &[]),
            Err(CoreError::Internal { .. })
        ));
    }

    #[test]
    fn executor_sessions_are_reusable() {
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let executor = Executor::new(&graph).unwrap();
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 9);
        let a = executor.execute(&plan, &input).unwrap();
        let b = executor.execute(&plan, &input).unwrap();
        assert!(a.output.approx_eq(&b.output, 0.0), "runs are deterministic");
        // The second run should hit a warm arena: most scratch bytes
        // served without allocating.
        assert!(
            b.engine.arena_reused_bytes > 0,
            "second run must reuse scratch: {:?}",
            b.engine
        );
    }

    #[test]
    fn forked_branches_count_as_pool_tasks() {
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        // Cutoff 0: the fire modules fork on any host.
        let executor = Executor::new(&graph).unwrap().with_corun_cutoff(0);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
        let outcome = executor.execute(&plan, &input).unwrap();
        assert!(outcome.parallel_regions > 0, "fire modules should fork");
        assert!(
            outcome.engine.pool_tasks + outcome.engine.inline_tasks > 0,
            "forked branches must run as pool tasks (worker or inline): {:?}",
            outcome.engine
        );
    }

    #[test]
    fn splits_actually_happen_on_fc_heavy_models() {
        // Paper-scale FCNN: its wide fc layers are memory-bound on the
        // GPU, so the tuned plan must co-run them; the functional engine
        // then really computes the two parts as separate pool tasks.
        let graph = build(ModelKind::Fcnn, ModelScale::Paper);
        let plan = edgenn_plan(&graph);
        assert!(plan.corun_count() > 0, "paper-scale fc layers should split");
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 3);
        let reference = graph.forward(&input).unwrap();
        let outcome = execute(&graph, &plan, &input).unwrap();
        assert!(outcome.corun_layers > 0);
        assert!(
            outcome.engine.pool_tasks + outcome.engine.inline_tasks > 0,
            "splits must go through the pool: {:?}",
            outcome.engine
        );
        assert!(outcome.output.approx_eq(&reference, 1e-4));
    }

    #[test]
    fn branch_regions_run_in_parallel_for_squeezenet() {
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
        // Cutoff 0: the fire modules fork on any host.
        let executor = Executor::new(&graph).unwrap().with_corun_cutoff(0);
        let outcome = executor.execute(&plan, &input).unwrap();
        assert!(outcome.parallel_regions > 0, "fire modules should fork");
        let reference = graph.forward(&input).unwrap();
        assert!(outcome.output.approx_eq(&reference, 1e-4));
    }

    #[test]
    fn forks_below_the_cutoff_run_on_the_driver() {
        // Tiny SqueezeNet's pooled expand branches are a few KFLOP —
        // less work than a handoff — so under a cutoff above their size
        // the regions run serially on the driver: no task, same output.
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
        let forked = Executor::new(&graph)
            .unwrap()
            .with_corun_cutoff(0)
            .execute(&plan, &input)
            .unwrap();
        let serial = Executor::new(&graph)
            .unwrap()
            .with_corun_cutoff(u64::MAX)
            .execute(&plan, &input)
            .unwrap();
        assert!(forked.parallel_regions > 0);
        assert_eq!(serial.parallel_regions, 0);
        assert_eq!(serial.engine.pool_tasks + serial.engine.inline_tasks, 0);
        assert!(serial.output.approx_eq(&forked.output, 0.0));
    }

    #[test]
    fn forced_splits_on_every_partitionable_layer_stay_correct() {
        use crate::plan::{Assignment, NodePlan};
        use edgenn_sim::AllocStrategy;
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
            for id in graph.topo_order() {
                let node = graph.node(id).unwrap();
                let shapes: Vec<_> = node
                    .inputs()
                    .iter()
                    .map(|i| graph.node(*i).unwrap().output_shape())
                    .collect();
                if node.layer().partitionable()
                    && node.layer().partition_units(&shapes).unwrap_or(1) >= 2
                {
                    nodes[id.index()] = NodePlan {
                        assignment: Assignment::Split { cpu_fraction: 0.5 },
                        output_alloc: AllocStrategy::Explicit,
                        prefetch_inputs: false,
                    };
                }
            }
            let plan = ExecutionPlan {
                config: ExecutionConfig::edgenn(),
                nodes,
            };
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 11);
            let reference = graph.forward(&input).unwrap();
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert!(outcome.corun_layers > 0, "{kind}");
            assert!(
                outcome.output.approx_eq(&reference, 1e-4),
                "{kind}: forced-split mismatch"
            );
            // Cutoff 0 hands every CPU share to the pool, including the
            // first layer's, whose job reads the copied network input.
            let pooled = Executor::new(&graph)
                .unwrap()
                .with_corun_cutoff(0)
                .execute(&plan, &input)
                .unwrap();
            assert!(pooled.engine.pool_tasks + pooled.engine.inline_tasks > 0);
            assert!(
                pooled.output.approx_eq(&reference, 1e-4),
                "{kind}: pooled forced-split mismatch"
            );
        }
    }

    #[test]
    fn forced_input_splits_stay_correct() {
        use crate::plan::{Assignment, NodePlan};
        use edgenn_sim::AllocStrategy;
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
            let mut forced = 0;
            for id in graph.topo_order() {
                let node = graph.node(id).unwrap();
                let shapes: Vec<_> = node
                    .inputs()
                    .iter()
                    .map(|i| graph.node(*i).unwrap().output_shape())
                    .collect();
                if node.layer().input_split_supported()
                    && node.layer().input_channels(&shapes).unwrap_or(1) >= 2
                {
                    nodes[id.index()] = NodePlan {
                        assignment: Assignment::SplitInput { cpu_fraction: 0.4 },
                        output_alloc: AllocStrategy::Explicit,
                        prefetch_inputs: false,
                    };
                    forced += 1;
                }
            }
            if forced == 0 {
                continue;
            }
            let plan = ExecutionPlan {
                config: ExecutionConfig::edgenn(),
                nodes,
            };
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 17);
            let reference = graph.forward(&input).unwrap();
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert!(outcome.corun_layers > 0, "{kind}");
            assert!(
                outcome.output.approx_eq(&reference, 1e-4),
                "{kind}: input-split plan diverged by {}",
                outcome.output.max_abs_diff(&reference).unwrap_or(f32::NAN)
            );
        }
    }

    #[test]
    fn fused_nodes_allow_input_splits_with_deferred_relu() {
        // Satellite regression: PR 9 retires the "input-channel splitting
        // disabled on fused layers" restriction. A fused `conv+relu` node
        // under a forced SplitInput must hand out raw partial sums and
        // have the executor clamp once after the merge — matching the
        // full-range fused run within f32 partial-sum tolerance.
        use crate::plan::{Assignment, NodePlan};
        use edgenn_nn::graph::{compile, CompileOptions};
        use edgenn_sim::AllocStrategy;
        let mut fused_split_models = 0;
        for kind in ModelKind::ALL {
            let raw = build(kind, ModelScale::Tiny);
            let (graph, _) = compile(&raw, &CompileOptions::default()).unwrap();
            let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
            let mut forced_fused = 0;
            for id in graph.topo_order() {
                let node = graph.node(id).unwrap();
                let shapes: Vec<_> = node
                    .inputs()
                    .iter()
                    .map(|i| graph.node(*i).unwrap().output_shape())
                    .collect();
                if node.layer().input_split_supported()
                    && node.layer().input_channels(&shapes).unwrap_or(1) >= 2
                {
                    nodes[id.index()] = NodePlan {
                        assignment: Assignment::SplitInput { cpu_fraction: 0.4 },
                        output_alloc: AllocStrategy::Explicit,
                        prefetch_inputs: false,
                    };
                    if node.layer().deferred_epilogue_relu() {
                        forced_fused += 1;
                    }
                }
            }
            if forced_fused == 0 {
                continue;
            }
            fused_split_models += 1;
            let plan = ExecutionPlan {
                config: ExecutionConfig::edgenn(),
                nodes,
            };
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 23);
            let reference = graph.forward(&input).unwrap();
            let raw_reference = raw.forward(&input).unwrap();
            assert_eq!(
                reference.as_slice(),
                raw_reference.as_slice(),
                "{kind}: compiled forward must match the uncompiled graph"
            );
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert!(
                outcome.output.approx_eq(&reference, 1e-4),
                "{kind}: fused input-split diverged by {}",
                outcome.output.max_abs_diff(&reference).unwrap_or(f32::NAN)
            );
        }
        assert!(
            fused_split_models >= 3,
            "expected fused input-splittable nodes on most conv models, got {fused_split_models}"
        );
    }

    /// First GPU-role node of `plan` (skipping the input node) — the
    /// anchor for targeted kernel-fault tests.
    fn first_gpu_role_node(graph: &Graph, plan: &ExecutionPlan) -> usize {
        graph
            .topo_order()
            .into_iter()
            .find(|id| {
                graph.node(*id).unwrap().layer().class() != LayerClass::Input
                    && !matches!(plan.nodes[id.index()].assignment, Assignment::Cpu)
            })
            .expect("plan has a GPU-role node")
            .index()
    }

    #[test]
    fn recovered_runs_are_bitwise_identical_to_fault_free() {
        // Property over seeded fault plans: for any injected fault mix,
        // hybrid_forward with recovery must reproduce the fault-free
        // output bit for bit.
        for kind in [ModelKind::LeNet, ModelKind::SqueezeNet] {
            let graph = build(kind, ModelScale::Tiny);
            let plan = edgenn_plan(&graph);
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 21);
            let clean = execute(&graph, &plan, &input).unwrap();
            let mut any_injected = false;
            for seed in 0..24u64 {
                let faults = FaultPlan::from_seed(seed, graph.len());
                let injector = FaultInjector::from_plan(&faults, graph.len(), 3);
                let executor = Executor::new(&graph).unwrap().with_faults(injector);
                let outcome = executor.execute(&plan, &input).unwrap();
                any_injected |= outcome.recovery.faults_injected > 0;
                assert!(
                    outcome.output.approx_eq(&clean.output, 0.0),
                    "{kind} seed {seed}: recovery perturbed the output by {}",
                    outcome
                        .output
                        .max_abs_diff(&clean.output)
                        .unwrap_or(f32::NAN)
                );
            }
            assert!(any_injected, "{kind}: no seed exercised the injector");
        }
    }

    #[test]
    fn permanent_gpu_failure_exhausts_retries_then_falls_back_to_cpu() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 33);
        let clean = execute(&graph, &plan, &input).unwrap();
        let node = first_gpu_role_node(&graph, &plan);
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node,
            fail_count: u32::MAX,
        });
        let injector = FaultInjector::from_plan(&faults, graph.len(), 3);
        let executor = Executor::new(&graph).unwrap().with_faults(injector);
        let outcome = executor.execute(&plan, &input).unwrap();
        assert_eq!(outcome.recovery.retries, 3, "all retries spent");
        assert_eq!(outcome.recovery.fallbacks, 1, "then exactly one fallback");
        assert_eq!(outcome.recovery.faults_injected, 4, "initial + 3 retries");
        assert!(outcome.output.approx_eq(&clean.output, 0.0));
    }

    #[test]
    fn one_shot_transient_fault_recovers_in_exactly_one_retry() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 33);
        let clean = execute(&graph, &plan, &input).unwrap();
        let node = first_gpu_role_node(&graph, &plan);
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node,
            fail_count: 1,
        });
        let injector = FaultInjector::from_plan(&faults, graph.len(), 3);
        let executor = Executor::new(&graph).unwrap().with_faults(injector);
        let outcome = executor.execute(&plan, &input).unwrap();
        assert_eq!(outcome.recovery.retries, 1, "exactly one retry");
        assert_eq!(outcome.recovery.fallbacks, 0, "no fallback needed");
        assert_eq!(outcome.recovery.faults_injected, 1);
        assert!(outcome.output.approx_eq(&clean.output, 0.0));
    }

    #[test]
    fn hung_worker_partial_is_recomputed_inline_within_the_deadline() {
        // A permanently-failing split node with a watchdog timeout: the
        // run must still produce the exact fault-free output even when
        // joins are deadline-bounded.
        let graph = build(ModelKind::Fcnn, ModelScale::Paper);
        let plan = edgenn_plan(&graph);
        assert!(plan.corun_count() > 0);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 3);
        let clean = execute(&graph, &plan, &input).unwrap();
        let faults = FaultPlan::from_seed(7, graph.len());
        let injector = FaultInjector::from_plan(&faults, graph.len(), 2)
            .with_join_timeout(Duration::from_secs(30));
        let executor = Executor::new(&graph).unwrap().with_faults(injector);
        let outcome = executor.execute(&plan, &input).unwrap();
        assert!(outcome.output.approx_eq(&clean.output, 0.0));
    }

    #[test]
    fn timed_out_partial_returns_at_its_deadline_and_credits_the_worker_back() {
        // A worker hangs on a split partial past a 10 ms watchdog: the
        // inference returns well before the hang ends, bitwise identical
        // to the fault-free run, and the worker's write-off is credited
        // back once the abandoned job finishes.
        let _serial = pool::workers_lock();
        let graph = build(ModelKind::Fcnn, ModelScale::Paper);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 3);
        let started = std::time::Instant::now();
        let clean = execute(&graph, &plan, &input).unwrap();
        // Long enough that returning only when the hang ends could not
        // pass for returning at the deadline, whatever the build profile:
        // the faulted run recomputes one share inline, so it takes at
        // most about twice the clean run.
        let stall = started.elapsed() * 4 + Duration::from_secs(1);
        // A private one-worker pool: a worker exists on any host, and
        // the hang never holds up other tests' sessions.
        let private: &'static Pool<'static, TaskResult> = Box::leak(Box::new(Pool::new()));
        let worker = std::thread::spawn(move || private.run_worker());
        let before = pool::lost_workers();
        let mut injector = FaultInjector::from_plan(&FaultPlan::none(), graph.len(), 0)
            .with_join_timeout(Duration::from_millis(10));
        injector.worker_stall = Some(stall);
        let executor = Executor::new(&graph)
            .unwrap()
            .with_corun_cutoff(0)
            .with_faults(injector)
            .with_pool(private);
        // The driver may reclaim a partial before the parked worker wakes;
        // only a partial the worker holds can hang, so retry until one did.
        let (outcome, took) = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                let outcome = executor.execute(&plan, &input).unwrap();
                (outcome, start.elapsed())
            })
            .find(|(outcome, _)| outcome.recovery.worker_losses > 0)
            .expect("a worker picked up a partial and hung");
        assert!(
            took < stall / 2,
            "execute returns at the watchdog deadline, not when the hang ends: \
             {took:?} against a {stall:?} hang"
        );
        assert!(
            outcome.output.approx_eq(&clean.output, 0.0),
            "the recomputed share is bitwise identical"
        );
        assert!(
            pool::lost_workers() > before,
            "the hung worker is written off"
        );
        let deadline = std::time::Instant::now() + stall * 2 + Duration::from_secs(5);
        while pool::lost_workers() != before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            pool::lost_workers(),
            before,
            "the write-off is credited back once the abandoned job ends"
        );
        private.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn concurrent_sessions_count_only_their_own_pool_tasks() {
        // The workers are shared by every executor in the process; the
        // engine counters must not be. Two executors racing on two
        // threads each report exactly the solo run's task count.
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
        let tasks = |o: &FunctionalOutcome| o.engine.pool_tasks + o.engine.inline_tasks;
        // Cutoff 0: the fire modules fork on any host.
        let executor = || Executor::new(&graph).unwrap().with_corun_cutoff(0);
        let solo = executor().execute(&plan, &input).unwrap();
        assert_eq!(
            tasks(&solo),
            3,
            "one pooled branch per forked fire region: {:?}",
            solo.engine
        );
        let start = std::sync::Barrier::new(2);
        let counts: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let executor = executor();
                        start.wait();
                        (0..25)
                            .map(|_| tasks(&executor.execute(&plan, &input).unwrap()))
                            .collect()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for per_session in counts {
            assert!(
                per_session.iter().all(|&n| n == tasks(&solo)),
                "a session absorbed another's tasks: {per_session:?}"
            );
        }
    }

    #[test]
    fn slot_bytes_accounts_every_non_input_output_exactly() {
        // Fault-free, the engine moves exactly one tensor per non-input
        // node into its slot and frees nothing mid-run, so the measured
        // slot bytes equal the sum of non-input output sizes — the same
        // quantity the tier-D checker certifies.
        for kind in [ModelKind::LeNet, ModelKind::SqueezeNet] {
            let graph = build(kind, ModelScale::Tiny);
            let plan = edgenn_plan(&graph);
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 13);
            let outcome = execute(&graph, &plan, &input).unwrap();
            let expected: u64 = graph
                .nodes()
                .iter()
                .filter(|n| n.layer().class() != LayerClass::Input)
                .map(|n| (n.output_shape().num_elements() * 4) as u64)
                .sum();
            assert_eq!(outcome.engine.slot_bytes, expected, "{kind}");
        }
    }

    #[test]
    fn snapshot_delta_windows_counters_and_keeps_later_profile() {
        let a = EngineStats {
            pool_tasks: 10,
            inline_tasks: 2,
            queue_wait_ns: 1_000,
            arena_fresh_bytes: 4_096,
            arena_reused_bytes: 0,
            slot_bytes: 256,
            profile: None,
        };
        let b = EngineStats {
            pool_tasks: 13,
            inline_tasks: 2,
            queue_wait_ns: 1_500,
            arena_fresh_bytes: 4_096,
            arena_reused_bytes: 8_192,
            slot_bytes: 1_280,
            profile: Some(ProfileSummary::default()),
        };
        let delta = a.snapshot_delta(&b);
        assert_eq!(delta.pool_tasks, 3);
        assert_eq!(delta.inline_tasks, 0);
        assert_eq!(delta.queue_wait_ns, 500);
        assert_eq!(delta.arena_fresh_bytes, 0);
        assert_eq!(delta.arena_reused_bytes, 8_192);
        assert_eq!(delta.slot_bytes, 1_024);
        assert!(delta.profile.is_some(), "delta carries the later profile");
        // Reversed order must saturate, not wrap.
        assert_eq!(b.snapshot_delta(&a).pool_tasks, 0);
    }

    #[test]
    fn flight_profile_rides_in_engine_stats_per_request() {
        flight::enable();
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let executor = Executor::new(&graph).unwrap();
        let inputs: Vec<Tensor> = (0..2)
            .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 60 + i))
            .collect();
        let outcomes = executor.batch_execute(&plan, &inputs).unwrap();
        for outcome in &outcomes {
            let profile = outcome
                .engine
                .profile
                .as_ref()
                .expect("flight enabled => profile present");
            let request = profile.stage("request").expect("request stage");
            assert_eq!(
                request.count, 1,
                "each request window holds exactly its own root span"
            );
            let node = profile.stage("node").expect("node stage");
            // SqueezeNet tiny has a few dozen layers; every non-input
            // node must have produced a node span in its own window.
            assert_eq!(node.count as usize, graph.len() - 1);
            assert!(node.total_us > 0.0);
            assert!(node.p50_us <= node.p99_us);
            assert!(
                profile.stage("compute").is_some(),
                "kernel compute phases must be attributed: {:?}",
                profile.stages.iter().map(|s| s.stage).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn deep_graphs_reserve_flight_capacity_and_drop_nothing() {
        flight::enable();
        // The regression: VGG's 41-node chain overflowed the old fixed
        // 4096-record rings by ~5k records per paper-scale request, so
        // its profiles reported flight_dropped > 0 and lost the early
        // conv spans. Executor construction now reserves capacity from
        // the node count before the first record lands.
        let graph = build(ModelKind::Vgg16, ModelScale::Tiny);
        let executor = Executor::new(&graph).unwrap();
        assert!(
            flight::retained_records_per_ring() >= graph.len() * FLIGHT_RECORDS_PER_NODE,
            "executor construction must size the rings from the node count"
        );
        let plan = edgenn_plan(&graph);
        let inputs: Vec<Tensor> = (0..2)
            .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 90 + i))
            .collect();
        let outcomes = executor.batch_execute(&plan, &inputs).unwrap();
        for outcome in &outcomes {
            let profile = outcome
                .engine
                .profile
                .as_ref()
                .expect("flight enabled => profile present");
            assert!(profile.span_count > 0);
            assert_eq!(
                profile.dropped, 0,
                "sized rings must hold a full request window"
            );
        }
    }

    #[test]
    fn fault_injected_run_leaves_a_blackbox_with_the_failing_span() {
        flight::enable();
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 33);
        let node = first_gpu_role_node(&graph, &plan);
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node,
            fail_count: u32::MAX,
        });
        let injector = FaultInjector::from_plan(&faults, graph.len(), 1);
        let executor = Executor::new(&graph).unwrap().with_faults(injector);
        let outcome = executor.execute(&plan, &input).unwrap();
        assert!(outcome.recovery.fallbacks > 0);
        let dump = flight::last_blackbox().expect("fault must leave a black box");
        assert!(
            dump.reason.contains(&format!("node {node}")) || dump.reason.contains("worker"),
            "reason names the failure: {}",
            dump.reason
        );
        let node_tag = u32::try_from(node).unwrap();
        assert!(
            dump.records
                .iter()
                .any(|r| r.kind == flight::SpanKind::Retry && r.node == node_tag),
            "black box contains the failing node's retry span"
        );
        assert!(
            dump.records
                .iter()
                .any(|r| r.kind == flight::SpanKind::Fallback && r.node == node_tag),
            "black box contains the failing node's fallback span"
        );
    }

    #[test]
    fn measured_cutoff_stays_within_the_clamp() {
        let cutoff = measure_corun_cutoff();
        assert!(
            (CUTOFF_FLOOR..=CUTOFF_CEIL).contains(&cutoff),
            "measured cutoff {cutoff} escaped the clamp"
        );
    }

    #[test]
    fn int8_execution_tracks_f32_within_quantization_error() {
        // Satellite 3's accuracy-loss bound: on every model, the int8
        // hybrid output must stay within a small absolute band of the
        // f32 reference (outputs are post-softmax, so values are
        // probabilities in [0, 1]).
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            let plan = tuner
                .plan(&graph, &runtime, ExecutionConfig::edgenn_int8())
                .unwrap();
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
            let reference = graph.forward(&input).unwrap();
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert!(
                outcome.int8_layers + outcome.int8_gated > 0,
                "{kind}: int8 plan must reach the quantized kernels or the gate"
            );
            assert!(
                outcome.output.approx_eq(&reference, 0.05),
                "{kind}: int8 output drifted {} from f32",
                outcome.output.max_abs_diff(&reference).unwrap_or(f32::NAN)
            );
        }
    }

    #[test]
    fn split_plans_merge_bitwise_with_unsplit_runs() {
        // Integer accumulation is order-insensitive and the requantize
        // epilogue is per-row independent, and an f32 output element sums
        // its products in the same order whatever rows its call covers. So
        // a split whose shares write disjoint sub-slices of one output must
        // reproduce the unsplit run bit for bit, in either precision: on
        // raw and compiled graphs, at a fraction off the channel grid, and
        // with the CPU share computed by a pooled job.
        use crate::plan::NodePlan;
        use edgenn_nn::graph::{compile, CompileOptions};
        use edgenn_sim::AllocStrategy;
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in ModelKind::ALL {
            let raw = build(kind, ModelScale::Tiny);
            let (compiled, _) = compile(&raw, &CompileOptions::default()).unwrap();
            let input = Tensor::random(raw.input_shape().dims(), 1.0, 29);
            for graph in [&raw, &compiled] {
                for config in [ExecutionConfig::edgenn(), ExecutionConfig::edgenn_int8()] {
                    let unsplit = ExecutionPlan {
                        config,
                        nodes: vec![NodePlan::gpu_explicit(); graph.len()],
                    };
                    let a = execute(graph, &unsplit, &input).unwrap();
                    for cpu_fraction in [0.5, 0.37] {
                        let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
                        for id in graph.topo_order() {
                            let node = graph.node(id).unwrap();
                            let shapes: Vec<_> = node
                                .inputs()
                                .iter()
                                .map(|i| graph.node(*i).unwrap().output_shape())
                                .collect();
                            if node.layer().partitionable()
                                && node.layer().partition_units(&shapes).unwrap_or(1) >= 2
                            {
                                nodes[id.index()] = NodePlan {
                                    assignment: Assignment::Split { cpu_fraction },
                                    output_alloc: AllocStrategy::Explicit,
                                    prefetch_inputs: false,
                                };
                            }
                        }
                        let split = ExecutionPlan { config, nodes };
                        let inline = execute(graph, &split, &input).unwrap();
                        let pooled = Executor::new(graph)
                            .unwrap()
                            .with_corun_cutoff(0)
                            .execute(&split, &input)
                            .unwrap();
                        assert!(pooled.engine.pool_tasks + pooled.engine.inline_tasks > 0);
                        for b in [inline, pooled] {
                            let what = format!(
                                "{kind} ({} nodes, {:?}, cpu {cpu_fraction})",
                                graph.len(),
                                config.precision
                            );
                            assert!(b.corun_layers > 0, "{what}");
                            assert_eq!(
                                bits(&a.output),
                                bits(&b.output),
                                "{what}: split diverged bitwise from unsplit"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn int8_plan_counts_its_quantized_layers() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = {
            let platform = jetson_agx_xavier();
            let runtime = Runtime::new(&platform);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            tuner
                .plan(&graph, &runtime, ExecutionConfig::edgenn_int8())
                .unwrap()
        };
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
        let outcome = execute(&graph, &plan, &input).unwrap();
        assert!(outcome.int8_layers > 0);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let bad = Tensor::zeros(&[3, 3, 3]);
        assert!(matches!(
            execute(&graph, &plan, &bad),
            Err(CoreError::PlanMismatch { .. })
        ));
    }
}
