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
//! - **One worker pool per process** ([`Pool`]): its
//!   [`Pool::default_workers`] workers are spawned when the first
//!   [`Executor`] is built and park between sessions; every co-run split
//!   share and fork-join branch is a queue push, never a thread spawn.
//!   Splits and forks whose handed-off work is below [`CORUN_CUTOFF`]
//!   flops stay on the calling thread.
//!   Pooled jobs are `'static` closures over an `Arc`-shared session
//!   (the graph's [`Program`], plan assignments, output slots, counters
//!   and fault injector), so no `unsafe` is needed.
//! - **One session per executor, renewed per input**: [`Executor::execute`]
//!   and each input of [`Executor::batch_execute`] run in a session with
//!   one output slot per node and its own task, slot and recovery counts.
//!   The executor keeps its last session idle and renews it for the next
//!   input: it re-derives the per-node decisions only when the plan
//!   differs, zeroes the counts, and hands each node the output buffer
//!   it filled last time, so a steady-state request allocates only the
//!   network output, which leaves with the caller. A thread that finds
//!   the idle session taken builds a session of its own. A batch saves
//!   nothing over calling `execute` per input: the pool's workers, the
//!   idle session and the per-thread scratch arenas stay warm across
//!   calls either way.
//! - **Zero-copy dataflow**: the engine allocates each node's output
//!   once per session, from the program's dims, and every layer computes
//!   into the buffer it is handed ([`Layer::forward_into`]), overwriting
//!   whatever the previous request left there; the two shares of an
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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

use edgenn_nn::graph::{Graph, NodeId, Segment};
use edgenn_nn::layer::{Layer, LayerClass, Part};
use edgenn_obs::{flight, ProfileWindow};
use edgenn_sim::FaultPlan;
use edgenn_tensor::{scratch_stats, Tensor};

use crate::plan::{Assignment, ExecutionPlan, Precision};
use crate::runtime::pool::{JoinError, Pool, Tally, TaskHandle};
use crate::schedule::Program;
use crate::{CoreError, Result};

/// What a pooled task yields: `Some` for a split's CPU share, the buffer
/// the job computed it into; `None` for branch bodies (their outputs go
/// straight into the slots).
type TaskResult = Result<Option<Vec<f32>>>;

/// The network input pseudo-node (see [`Graph::input_id`]).
const INPUT: NodeId = NodeId(0);

/// The process-wide pool every [`Executor`] submits to. Its
/// [`Pool::default_workers`] workers are spawned on first use and park
/// between sessions for the life of the process, so a session pays a
/// condvar wake per pooled task, never a thread spawn. On a single-core
/// host there are no workers and every task runs inline at its join.
fn shared_pool() -> &'static Pool<TaskResult> {
    static POOL: Pool<TaskResult> = Pool::new();
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

/// Engine-overhead counters for one functional run, all the session's
/// own: the pool counters its [`Tally`] (the workers are shared with
/// every concurrent session), the slot bytes its own counter, and the
/// arena counters what its threads drew from their scratch arenas — the
/// driver's thread over the run, including the jobs it reclaimed
/// inline, plus what each job a pool worker ran used.
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
    /// Bytes moved into node output slots during the run. The engine
    /// holds every slot to the run's end, so this is also the run's slot
    /// high-water mark — the measured quantity the tier-D checker's
    /// certified bound must dominate. The copy of the network input that
    /// pooled jobs read (see [`Executor`]) is not a node output and is
    /// not counted.
    pub slot_bytes: u64,
    /// Flight-recorder window of this run, present when the flight
    /// recorder was enabled during the run: its `dropped` count, and
    /// [`ProfileWindow::summary`] for the per-stage p50/p99.
    pub profile: Option<ProfileWindow>,
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
    /// Pool workers lost (panicked task or watchdog timeout) whose
    /// partials were recomputed inline by the waiter.
    pub worker_losses: u64,
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
/// simulated time only and do not apply here. The injector holds the
/// fault plan only; each session counts the injections and recoveries
/// of its own run ([`FunctionalOutcome::recovery`]).
#[derive(Debug)]
pub struct FaultInjector {
    /// Per-node remaining failure charges; `u32::MAX` is permanent.
    remaining: Vec<AtomicU32>,
    /// Retries granted before a launch is re-placed on the CPU role.
    max_retries: u32,
    /// Watchdog bound for worker-held partial joins.
    join_timeout: Option<Duration>,
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
            #[cfg(test)]
            worker_stall: None,
        }
    }

    /// Bounds every worker-held partial join by `timeout`: a worker
    /// that holds a partial longer is counted as lost
    /// ([`FaultCounts::worker_losses`]) and its share is recomputed
    /// inline.
    #[must_use]
    pub fn with_join_timeout(mut self, timeout: Duration) -> Self {
        self.join_timeout = Some(timeout);
        self
    }

    /// Whether the next launch of `node`'s kernel fails, consuming one
    /// failure charge (a `u32::MAX` charge never depletes).
    fn should_fail(&self, node: usize) -> bool {
        self.remaining.get(node).is_some_and(|cell| {
            cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| match n {
                0 => None,
                u32::MAX => Some(u32::MAX),
                n => Some(n - 1),
            })
            .is_ok()
        })
    }
}

/// Statistics of one input's session. Its layer and region counts are
/// the session's decisions for the plan, made before the input ran; its
/// engine and recovery stats are the session's own counts.
#[derive(Debug, Clone)]
pub struct FunctionalOutcome {
    /// The network output.
    pub output: Tensor,
    /// Number of layers executed as partition+merge splits. Splits of at
    /// least [`CORUN_CUTOFF`] flops co-run on two threads; smaller ones
    /// compute both shares on the driver (the handoff would cost more
    /// than the layer).
    pub corun_layers: usize,
    /// Number of layers computed by the int8 quantized kernels (zero
    /// under [`Precision::F32`] plans).
    pub int8_layers: usize,
    /// Number of int8-capable layers an int8 plan kept in f32 because
    /// quantize/requantize overhead beats the saved weight traffic on
    /// their shape ([`Layer::int8_worthwhile`]).
    pub int8_gated: usize,
    /// Number of fork-join regions that forked: their pooled branches
    /// reached [`CORUN_CUTOFF`] flops and were handed to the pool (the
    /// others ran their branches one after another on the driver).
    pub parallel_regions: usize,
    /// Engine-overhead accounting (pool + scratch arena).
    pub engine: EngineStats,
    /// Fault-recovery accounting (all zero without a [`FaultInjector`]).
    pub recovery: FaultCounts,
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
/// A split saves roughly half the layer's time but pays one handoff, so
/// co-running wins once `flops / 2 > handoff_ns x flops_per_ns`. That
/// break-even varies by an order of magnitude across hosts; on a 2-core
/// AVX-512 x86 host it measured 21-48 KFLOP (a 2.9-3.7 us handoff at
/// 3-7 flop/ns), below this cutoff. On a host whose break-even is
/// higher, the layers between the two are handed off at a loss.
const CORUN_CUTOFF: u64 = 1 << 16;

/// One input's run state, shared by `Arc` with its pooled jobs. A job
/// the watchdog abandoned may hold it past the run's end; otherwise the
/// executor keeps it, with every node's output buffer, for its next
/// input ([`Session::renew`]).
struct Session {
    program: Arc<Program>,
    /// The plan precision and per-node assignments the decisions below
    /// were derived for.
    precision: Precision,
    planned: Vec<Assignment>,
    /// Per node, how it runs ([`Program::run_as`]).
    assignments: Vec<Assignment>,
    /// Per node, whether it computes with the int8 kernels.
    int8: Vec<bool>,
    /// Per segment, whether its branches fork onto the pool.
    forks: Vec<bool>,
    /// Int8-capable nodes the plan's precision leaves in f32 because
    /// their shape loses to f32 ([`FunctionalOutcome::int8_gated`]).
    int8_gated: usize,
    /// Node output slots, one per program node.
    slots: Vec<OnceLock<Tensor>>,
    /// Per node, the output buffer it filled on the previous run, taken
    /// back when it computes again. One thread computes a given node per
    /// run, so each lock is taken once, uncontended.
    buffers: Vec<Mutex<Option<Tensor>>>,
    faults: Option<Arc<FaultInjector>>,
    corun_cutoff: u64,
    /// The thread that runs the session and submits its jobs.
    driver: ThreadId,
    counts: Counts,
}

/// The counts of a session's current run, zeroed when it is renewed.
#[derive(Default)]
struct Counts {
    /// This run's pool tasks (the workers are shared).
    tally: Tally,
    slot_bytes: AtomicU64,
    /// Scratch bytes the jobs that pool workers ran drew from their
    /// arenas ([`count_scratch`]).
    arena_fresh_bytes: AtomicU64,
    arena_reused_bytes: AtomicU64,
    /// This run's [`FaultCounts`], counted by whichever thread recovers.
    faults_injected: AtomicU64,
    retries: AtomicU64,
    fallbacks: AtomicU64,
    worker_losses: AtomicU64,
}

impl Session {
    /// A session of `program` for `plan`, run by the calling thread.
    fn new(
        program: &Arc<Program>,
        plan: &ExecutionPlan,
        faults: Option<Arc<FaultInjector>>,
        corun_cutoff: u64,
    ) -> Self {
        let nodes = plan.nodes.len();
        let mut session = Self {
            program: Arc::clone(program),
            precision: plan.config.precision,
            planned: vec![Assignment::Cpu; nodes],
            assignments: vec![Assignment::Cpu; nodes],
            int8: vec![false; nodes],
            forks: vec![false; program.segments().len()],
            int8_gated: 0,
            slots: (0..nodes).map(|_| OnceLock::new()).collect(),
            buffers: (0..nodes).map(|_| Mutex::new(None)).collect(),
            faults,
            corun_cutoff,
            driver: std::thread::current().id(),
            counts: Counts::default(),
        };
        session.decide(plan);
        session
    }

    /// Readies an idle session for the next run on the calling thread:
    /// re-derives its decisions only when `plan` or the cutoff differs
    /// from what it decided for, takes the executor's current injector,
    /// and zeroes its counts. Its node buffers stay for the nodes to
    /// take back.
    fn renew(
        &mut self,
        plan: &ExecutionPlan,
        faults: Option<Arc<FaultInjector>>,
        corun_cutoff: u64,
    ) {
        let planned = plan.nodes.iter().map(|node| &node.assignment);
        if self.precision != plan.config.precision
            || self.corun_cutoff != corun_cutoff
            || !self.planned.iter().eq(planned)
        {
            self.corun_cutoff = corun_cutoff;
            self.decide(plan);
        }
        self.faults = faults;
        self.driver = std::thread::current().id();
        self.counts = Counts::default();
    }

    /// Decides, in place, how each node runs under `plan` and which
    /// fork-join segments fork.
    fn decide(&mut self, plan: &ExecutionPlan) {
        let program = &self.program;
        let int8_plan = plan.config.precision == Precision::Int8;
        self.precision = plan.config.precision;
        self.int8_gated = 0;
        for (i, node) in plan.nodes.iter().enumerate() {
            let layer = program.layer(NodeId(i));
            // Input-channel splits stay f32 regardless of the plan's
            // precision: their partial *sums* need f32 accumulation, and
            // requantizing each partial would double the rounding error.
            // An int8-capable layer whose shape loses to f32
            // (quantize/requant overhead beats the saved weight traffic)
            // stays in f32 too, counted apart so benches see the gate.
            let quantizable = int8_plan
                && layer.int8_ready()
                && !matches!(node.assignment, Assignment::SplitInput { .. });
            self.int8[i] = quantizable && layer.int8_worthwhile();
            self.int8_gated += usize::from(quantizable && !layer.int8_worthwhile());
            self.planned[i] = node.assignment;
            self.assignments[i] = program.run_as(NodeId(i), node.assignment);
        }
        // Like a split, a fork co-runs only when the work it hands off
        // clears the cutoff.
        for (seg, fork) in self.forks.iter_mut().enumerate() {
            let real = program.branches(seg).iter().filter(|b| !b.is_empty());
            *fork = real.count() >= 2 && program.fork_flops(seg) >= self.corun_cutoff;
        }
    }

    /// Ends a run the session owns outright: moves every node's output
    /// back to its buffer for the next run and returns the network
    /// output, which leaves with the caller. The copy of the network
    /// input that pooled jobs read, if any, is dropped.
    fn recycle(&mut self, output: NodeId) -> Option<Tensor> {
        let output = self.slots[output.index()].take();
        self.slots[INPUT.index()].take();
        for (slot, buffer) in self.slots.iter_mut().zip(&mut self.buffers) {
            *buffer.get_mut().unwrap_or_else(PoisonError::into_inner) = slot.take();
        }
        output
    }
}

/// A reusable functional execution session for one graph.
///
/// Construction lowers the graph once into its [`Program`];
/// [`Executor::execute`] then runs any plan/input against it, and
/// [`Executor::batch_execute`] runs a batch the same way, one input
/// after another. Each input runs in a session; the executor keeps one
/// idle session between inputs and renews it for the next, so a
/// steady-state input allocates only its network output. A thread that
/// finds the idle session taken by another runs in a new one. Every
/// executor submits to the one process-wide worker pool, so building one
/// per batch spawns nothing.
///
/// Pooled jobs cannot borrow the caller's input; a session copies it
/// (once per input) only when it submits a job that reads it.
pub struct Executor<'g> {
    graph: &'g Graph,
    program: Arc<Program>,
    faults: Option<Arc<FaultInjector>>,
    corun_cutoff: u64,
    /// One-shot guard for the int8 calibration pass (see `prepare`).
    calibrated: std::sync::Once,
    pool: &'static Pool<TaskResult>,
    /// The last session, with its node buffers, until the next input.
    idle: Mutex<Option<Arc<Session>>>,
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
        Ok(Self {
            graph,
            program: Arc::new(Program::new(graph)?),
            faults: None,
            corun_cutoff: CORUN_CUTOFF,
            calibrated: std::sync::Once::new(),
            pool: shared_pool(),
            idle: Mutex::new(None),
        })
    }

    /// Overrides [`CORUN_CUTOFF`] for this executor, for tests that must
    /// force or forbid pool handoffs whatever the plan's layer sizes.
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
    fn with_pool(mut self, pool: &'static Pool<TaskResult>) -> Self {
        self.pool = pool;
        self
    }

    /// Executes `plan` functionally on one `input`.
    ///
    /// # Errors
    /// Fails on plan/graph mismatch, shape errors, or if a worker thread
    /// panics (surfaced as [`CoreError::Internal`]).
    pub fn execute(&self, plan: &ExecutionPlan, input: &Tensor) -> Result<FunctionalOutcome> {
        self.prepare(plan, std::slice::from_ref(input))?;
        self.run_session(plan, input)
    }

    /// Executes `plan` on each of `inputs` in turn, as
    /// [`Executor::execute`] does, once the plan and every input's shape
    /// are validated. Outcomes are returned in input order; the batch
    /// fails as a whole on the first error.
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
        self.prepare(plan, inputs)?;
        inputs
            .iter()
            .map(|input| self.run_session(plan, input))
            .collect()
    }

    /// Validates `plan` and every input's shape before anything runs.
    fn prepare(&self, plan: &ExecutionPlan, inputs: &[Tensor]) -> Result<()> {
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
                let _ = edgenn_nn::graph::calibrate(self.graph, &inputs[..1]);
            });
        }
        Ok(())
    }

    /// The idle session slot.
    fn idle_slot(&self) -> MutexGuard<'_, Option<Arc<Session>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A session for `plan` on the calling thread: the idle one renewed,
    /// or a new one when there is none (the first input, or another
    /// thread is running the idle one).
    fn session(&self, plan: &ExecutionPlan) -> Arc<Session> {
        let idle = self.idle_slot().take();
        if let Some(mut session) = idle {
            // Only a session no job holds is ever made idle.
            if let Some(owned) = Arc::get_mut(&mut session) {
                owned.renew(plan, self.faults.clone(), self.corun_cutoff);
                return session;
            }
        }
        Arc::new(Session::new(
            &self.program,
            plan,
            self.faults.clone(),
            self.corun_cutoff,
        ))
    }

    /// Runs `input` through every segment in a session, on the calling
    /// thread, delegating branch bodies and split partials to the pool.
    fn run_session(&self, plan: &ExecutionPlan, input: &Tensor) -> Result<FunctionalOutcome> {
        let mut session = self.session(plan);
        let ctx = Ctx {
            session: &session,
            input: Some(input),
            pool: Some(self.pool),
        };
        let scratch_before = scratch_stats();

        // Per-request flight window: everything recorded between here and
        // its close below that is causally reachable from the request root
        // span is this request's profile, summarized only when read.
        let marker = flight::enabled().then(flight::mark);
        let root = flight::begin(flight::SpanKind::Request, flight::NO_NODE);
        let run: Result<()> = flight::with_parent(root.id(), || {
            for (seg, segment) in session.program.segments().iter().enumerate() {
                match segment {
                    Segment::Chain(nodes) => run_branch(ctx, nodes)?,
                    Segment::Parallel { .. } if session.forks[seg] => {
                        exec_branches(ctx, self.pool, seg)?;
                    }
                    // Zero or one real branch, or too little work to hand
                    // off: run the branches here.
                    Segment::Parallel { branches, .. } => {
                        for branch in branches {
                            run_branch(ctx, branch)?;
                        }
                    }
                }
            }
            Ok(())
        });
        flight::end(root);
        run?;
        let driver_scratch = scratch_before.delta(&scratch_stats());
        let profile = marker.map(|marker| flight::close_window(marker, root.id()));

        // Every job this session joined has dropped its share of the
        // session by now; only one the watchdog abandoned can still hold
        // it, and then the output is copied out instead of moved and the
        // session is left to that job.
        let owned = Arc::get_mut(&mut session);
        let reusable = owned.is_some();
        let output = match owned {
            Some(owned) => owned.recycle(self.graph.output_id()),
            None => session.slots[self.graph.output_id().index()].get().cloned(),
        }
        .ok_or_else(|| CoreError::Internal {
            reason: "output never computed".to_string(),
        })?;
        let counts = &session.counts;
        let pool = counts.tally.stats();
        let count = |flags: &[bool]| flags.iter().filter(|&&flag| flag).count();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let outcome = FunctionalOutcome {
            output,
            corun_layers: session.assignments.iter().filter(|a| a.is_corun()).count(),
            int8_layers: count(&session.int8),
            int8_gated: session.int8_gated,
            parallel_regions: count(&session.forks),
            engine: EngineStats {
                pool_tasks: pool.worker_tasks,
                inline_tasks: pool.inline_tasks,
                queue_wait_ns: pool.queue_wait_ns,
                arena_fresh_bytes: driver_scratch.fresh_bytes + load(&counts.arena_fresh_bytes),
                arena_reused_bytes: driver_scratch.reused_bytes + load(&counts.arena_reused_bytes),
                slot_bytes: load(&counts.slot_bytes),
                profile,
            },
            recovery: FaultCounts {
                faults_injected: load(&counts.faults_injected),
                retries: load(&counts.retries),
                fallbacks: load(&counts.fallbacks),
                worker_losses: load(&counts.worker_losses),
            },
        };
        if reusable {
            self.idle_slot().get_or_insert(session);
        }
        Ok(outcome)
    }
}

/// Executes `plan` functionally on `input`.
///
/// One-shot convenience over [`Executor`]: builds an executor and runs
/// the single input. Callers running many inputs should hold an
/// [`Executor`], which lowers the graph once.
///
/// # Errors
/// Fails on plan/graph mismatch, shape errors, or if a worker thread
/// panics (surfaced as [`CoreError::Internal`]).
pub fn execute(graph: &Graph, plan: &ExecutionPlan, input: &Tensor) -> Result<FunctionalOutcome> {
    Executor::new(graph)?.execute(plan, input)
}

/// A view of a [`Session`]. The driver's view borrows the caller's input
/// and queues work on the pool; a pooled job's view has neither — it
/// reads the input copy in slot 0, and computes both shares of its own
/// splits (the driver would only take them back).
#[derive(Clone, Copy)]
struct Ctx<'a> {
    session: &'a Arc<Session>,
    input: Option<&'a Tensor>,
    pool: Option<&'a Pool<TaskResult>>,
}

impl<'a> Ctx<'a> {
    /// The view a pooled job rebuilds from its owned session handle.
    fn job(session: &'a Arc<Session>) -> Self {
        Self {
            session,
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
        &self.session.slots[id.index()]
    }

    fn faults(self) -> Option<&'a FaultInjector> {
        self.session.faults.as_deref()
    }

    /// Before submitting a job that runs `nodes`: if any of them reads
    /// the network input, copy the borrowed input into slot 0 (once per
    /// session), where the job can reach it.
    fn share_input(self, nodes: &[NodeId]) {
        let Some(input) = self.input else { return };
        if nodes.iter().any(|&id| self.inputs(id).contains(&INPUT)) {
            self.slot(INPUT).get_or_init(|| input.clone());
        }
    }
}

/// Runs the branches of fork-join segment `seg`: the last non-empty one
/// on this thread, every other non-empty one on the pool. Branches write
/// disjoint slot ranges, so they share the session's slots directly — no
/// snapshot copy of previous outputs.
fn exec_branches(ctx: Ctx<'_>, pool: &Pool<TaskResult>, seg: usize) -> Result<()> {
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
            let submitted = submit_ns();
            pool.submit(Box::new(move || {
                traced_task(parent, submitted, flight::NO_NODE, || {
                    count_scratch(&session, || {
                        let ctx = Ctx::job(&session);
                        run_branch(ctx, &session.program.branches(seg)[b]).map(|()| None)
                    })
                })
            }))
        })
        .collect();
    let mut first_err = run_branch(ctx, last).err();
    for handle in handles {
        match handle.join(pool, &ctx.session.counts.tally) {
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

/// Runs a pooled job's `body` and, when a pool worker runs it, adds the
/// scratch it drew to its session's arena counts. A job its driver
/// reclaimed inline ran inside the driver's own window (see
/// `run_session`), so it adds nothing, and nothing is counted twice.
fn count_scratch<R>(session: &Session, body: impl FnOnce() -> R) -> R {
    let before = scratch_stats();
    let result = body();
    if std::thread::current().id() != session.driver {
        let used = before.delta(&scratch_stats());
        session
            .counts
            .arena_fresh_bytes
            .fetch_add(used.fresh_bytes, Ordering::Relaxed);
        session
            .counts
            .arena_reused_bytes
            .fetch_add(used.reused_bytes, Ordering::Relaxed);
    }
    result
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
    let tensor = result?;
    ctx.session
        .counts
        .slot_bytes
        .fetch_add((tensor.as_slice().len() * 4) as u64, Ordering::Relaxed);
    ctx.slot(id).set(tensor).map_err(|_| CoreError::Internal {
        reason: format!("node {id} computed twice"),
    })?;
    Ok(end_ns)
}

/// Computes one node per its session assignment into its output: the
/// buffer the node filled on the session's previous run, or one
/// allocated here from the program's dims on its first. A whole node
/// overwrites all of it, and the two shares of an output-channel split
/// its disjoint sub-slices.
fn forward_assigned(ctx: Ctx<'_>, id: NodeId, inputs: &[&Tensor]) -> Result<Tensor> {
    let layer = ctx.layer(id);
    let session = &**ctx.session;
    let facts = session.program.facts(id);
    let units = facts.units;
    let buffer = session.buffers[id.index()]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    let mut tensor = buffer.unwrap_or_else(|| Tensor::zeros(session.program.dims(id)));
    let out = tensor.as_mut_slice();
    let part = |range| Part::Units {
        range,
        int8: session.int8[id.index()],
        relu: false,
    };
    let whole = |out: &mut [f32]| Ok(layer.forward_into(inputs, part(0..units), out)?);
    match session.assignments[id.index()] {
        Assignment::Gpu => recovering_forward(ctx, id, || whole(out))?,
        Assignment::Cpu => whole(out)?,
        Assignment::SplitInput { cpu_fraction } => {
            let channels = facts.channels;
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
                (Part::Inputs(0..gpu_channels), &mut *out),
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
                edgenn_tensor::ops::relu_in_place(out);
            }
            flight::end(merge_span);
        }
        Assignment::Split { cpu_fraction } => {
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
                (part(0..gpu_units), gpu_out),
                (part(gpu_units..units), cpu_out),
            )?;
        }
    }
    Ok(tensor)
}

/// Computes a split node's GPU share into `gpu.1` on this thread and its
/// CPU share into `cpu.1`. From [`CORUN_CUTOFF`] flops up, and when this
/// thread may queue work, the CPU share co-runs as a pooled job, which
/// computes into a buffer it owns (a job the watchdog abandons may still
/// be running) that the join copies into `cpu.1`; otherwise it runs here
/// first, straight into `cpu.1`.
fn split_shares(
    ctx: Ctx<'_>,
    id: NodeId,
    inputs: &[&Tensor],
    gpu: (Part, &mut [f32]),
    cpu: (Part, &mut [f32]),
) -> Result<()> {
    let layer = ctx.layer(id);
    let share = |part: Part, out: &mut [f32]| Ok(layer.forward_into(inputs, part, out)?);
    let session = &**ctx.session;
    let pool = ctx
        .pool
        .filter(|_| session.program.facts(id).flops >= session.corun_cutoff);
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
    pool: &Pool<TaskResult>,
    id: NodeId,
    part: Part,
    len: usize,
) -> TaskHandle<TaskResult> {
    ctx.share_input(&[id]);
    let session = Arc::clone(ctx.session);
    let parent = flight::current_parent();
    let submitted = submit_ns();
    pool.submit(Box::new(move || {
        traced_task(parent, submitted, flight_node(id), || {
            #[cfg(test)]
            stall_off_driver(&session);
            count_scratch(&session, || {
                let ctx = Ctx::job(&session);
                let mut out = vec![0.0f32; len];
                ctx.layer(id)
                    .forward_into(&node_inputs(ctx, id)?, part, &mut out)?;
                Ok(Some(out))
            })
        })
    }))
}

/// The `FaultInjector` test hook: a partial that a worker picked up (not
/// one its driver reclaimed) sleeps out the stall, like a hung kernel.
#[cfg(test)]
fn stall_off_driver(session: &Session) {
    let stall = session.faults.as_ref().and_then(|f| f.worker_stall);
    if let Some(stall) = stall.filter(|_| std::thread::current().id() != session.driver) {
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
    let counts = &ctx.session.counts;
    let fails = || {
        let fails = injector.should_fail(id.index());
        counts
            .faults_injected
            .fetch_add(u64::from(fails), Ordering::Relaxed);
        fails
    };
    if !fails() {
        return compute();
    }
    let mut failed_attempts = 1u32;
    let recovered = loop {
        if failed_attempts > injector.max_retries {
            // Retry budget exhausted: re-place the work in the CPU role.
            counts.fallbacks.fetch_add(1, Ordering::Relaxed);
            flight::instant(flight::SpanKind::Fallback, flight_node(id), 0);
            break compute();
        }
        counts.retries.fetch_add(1, Ordering::Relaxed);
        flight::instant(
            flight::SpanKind::Retry,
            flight_node(id),
            u64::from(failed_attempts),
        );
        if !fails() {
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
/// returns at its deadline and leaves the abandoned job to its worker.
/// Either loss is counted in the session's `worker_losses`, marked by a
/// `WorkerLoss` flight instant and dumped to the black box.
fn join_partial(
    ctx: Ctx<'_>,
    pool: &Pool<TaskResult>,
    id: NodeId,
    task: TaskHandle<TaskResult>,
    out: &mut [f32],
    recompute: impl FnOnce(&mut [f32]) -> Result<()>,
) -> Result<()> {
    let tally = &ctx.session.counts.tally;
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
            if ctx.faults().is_none() {
                return Err(CoreError::Internal {
                    reason: "cpu worker panicked".to_string(),
                });
            }
            flight::instant(flight::SpanKind::WorkerLoss, flight::NO_NODE, 0);
            ctx.session
                .counts
                .worker_losses
                .fetch_add(1, Ordering::Relaxed);
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

    /// Every output bit, for bitwise comparisons.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// An outcome's decision, slot, task and recovery counts.
    fn counts(o: &FunctionalOutcome) -> ([usize; 4], u64, u64, FaultCounts) {
        (
            [
                o.corun_layers,
                o.int8_layers,
                o.int8_gated,
                o.parallel_regions,
            ],
            o.engine.slot_bytes,
            o.engine.pool_tasks + o.engine.inline_tasks,
            o.recovery,
        )
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
        // A batch runs each input the way `execute` does: every outcome
        // matches the reference and, bit for bit and count for count,
        // `execute` of the same input, in both precisions.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            let inputs: Vec<Tensor> = (0..3)
                .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 40 + i))
                .collect();
            let executor = Executor::new(&graph).unwrap();
            for (config, tolerance) in [
                (ExecutionConfig::edgenn(), 1e-4),
                (ExecutionConfig::edgenn_int8(), 0.05),
            ] {
                let plan = tuner.plan(&graph, &runtime, config).unwrap();
                let outcomes = executor.batch_execute(&plan, &inputs).unwrap();
                assert_eq!(outcomes.len(), inputs.len());
                let what = format!("{kind} {:?}", config.precision);
                for (input, outcome) in inputs.iter().zip(&outcomes) {
                    let reference = graph.forward(input).unwrap();
                    assert!(
                        outcome.output.approx_eq(&reference, tolerance),
                        "{what}: batch diverged from reference"
                    );
                    let solo = executor.execute(&plan, input).unwrap();
                    assert_eq!(
                        bits(&outcome.output),
                        bits(&solo.output),
                        "{what}: batch output differs from execute"
                    );
                    assert_eq!(counts(outcome), counts(&solo), "{what}");
                }
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
    fn renewed_sessions_match_fresh_executors_across_plan_switches() {
        // One executor runs inputs a, b, a under six plans in turn, so
        // every run renews the previous run's session for another plan
        // and computes into the buffers that run filled. Each outcome
        // must equal a fresh executor's, bit for bit and count for count.
        // Cutoff 0 also hands the first layer's shares to the pool, whose
        // jobs read a copy of the current input.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            let [a, b] = [71, 72].map(|seed| Tensor::random(graph.input_shape().dims(), 1.0, seed));
            edgenn_nn::graph::calibrate(&graph, std::slice::from_ref(&a)).unwrap();
            let mut plans = Vec::new();
            for config in [ExecutionConfig::edgenn(), ExecutionConfig::edgenn_int8()] {
                let tuned = tuner.plan(&graph, &runtime, config).unwrap();
                let forced = |split| ExecutionPlan {
                    config,
                    nodes: split_every_layer(&graph, split),
                };
                plans.push(("tuned", tuned));
                plans.push(("all-split", forced(HALVES)));
                let inputs = Assignment::SplitInput { cpu_fraction: 0.4 };
                plans.push(("input-split", forced(inputs)));
            }
            for cutoff in [CORUN_CUTOFF, 0] {
                let executor = || Executor::new(&graph).unwrap().with_corun_cutoff(cutoff);
                let renewed = executor();
                for input in [&a, &b, &a] {
                    for (name, plan) in &plans {
                        let what =
                            format!("{kind} {} {name} cutoff {cutoff}", plan.config.precision);
                        let fresh = executor().execute(plan, input).unwrap();
                        let outcome = renewed.execute(plan, input).unwrap();
                        assert_eq!(bits(&outcome.output), bits(&fresh.output), "{what}");
                        assert_eq!(counts(&outcome), counts(&fresh), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_renewed_session_allocates_no_node_buffer() {
        // The second request on an executor runs in the first one's
        // session, and every node but the output computes into the very
        // buffer it filled the first time: only the output is allocated.
        use edgenn_nn::graph::{compile, CompileOptions};
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for (kind, config, options) in [
            (
                ModelKind::SqueezeNet,
                ExecutionConfig::edgenn(),
                CompileOptions::default(),
            ),
            (
                ModelKind::Vgg16,
                ExecutionConfig::edgenn_int8(),
                CompileOptions::int8(),
            ),
        ] {
            let graph = compile(&build(kind, ModelScale::Tiny), &options).unwrap().0;
            let plan = Tuner::new(&graph, &runtime)
                .unwrap()
                .plan(&graph, &runtime, config)
                .unwrap();
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
            let executor = Executor::new(&graph).unwrap();
            let idle = || {
                let idle = executor.idle_slot();
                let session = idle.as_ref().expect("the run left its session idle");
                let buffers: Vec<Option<*const f32>> = session
                    .buffers
                    .iter()
                    .map(|b| b.lock().unwrap().as_ref().map(|t| t.as_slice().as_ptr()))
                    .collect();
                (Arc::as_ptr(session), buffers)
            };
            executor.execute(&plan, &input).unwrap();
            let first = idle();
            let output = graph.output_id().index();
            for (i, buffer) in first.1.iter().enumerate() {
                let held = i != INPUT.index() && i != output;
                assert_eq!(buffer.is_some(), held, "{kind} node {i}");
            }
            executor.execute(&plan, &input).unwrap();
            assert_eq!(idle(), first, "{kind}: same session, same node buffers");
        }
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
    fn the_cutoff_hands_off_only_layers_of_at_least_64_kflop() {
        // Pins what `CORUN_CUTOFF` hands to the pool, so a plan that
        // decides handoffs itself changes these counts on purpose.
        use crate::plan::{Assignment, NodePlan};
        use edgenn_nn::graph::{compile, CompileOptions};
        use edgenn_sim::AllocStrategy;
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let compiled = |kind, precision| {
            let options = match precision {
                Precision::F32 => CompileOptions::default(),
                Precision::Int8 => CompileOptions::int8(),
            };
            compile(&build(kind, ModelScale::Tiny), &options).unwrap().0
        };
        let config = |precision| ExecutionConfig {
            precision,
            ..ExecutionConfig::edgenn()
        };
        let handoffs = |o: &FunctionalOutcome| {
            let tasks = o.engine.pool_tasks + o.engine.inline_tasks;
            (o.corun_layers, o.parallel_regions, tasks)
        };
        // The benchmark workloads' tuned plans hand nothing off.
        for (kind, precision) in [
            (ModelKind::SqueezeNet, Precision::F32),
            (ModelKind::Vgg16, Precision::Int8),
        ] {
            let graph = compiled(kind, precision);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            let plan = tuner.plan(&graph, &runtime, config(precision)).unwrap();
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 3);
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert_eq!(handoffs(&outcome), (0, 0, 0), "{kind} {precision}");
        }
        // Splitting every layer of VGG-16 hands off the CPU shares of
        // exactly the nine convs of at least 64 KFLOP.
        for precision in [Precision::F32, Precision::Int8] {
            let graph = compiled(ModelKind::Vgg16, precision);
            let program = Program::new(&graph).unwrap();
            let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
            let mut handed_off = Vec::new();
            for id in graph.topo_order() {
                let shapes = graph.input_shapes(id).unwrap();
                let layer = graph.node(id).unwrap().layer();
                if layer.partition_units(&shapes).unwrap_or(1) < 2 {
                    continue;
                }
                nodes[id.index()] = NodePlan {
                    assignment: Assignment::Split { cpu_fraction: 0.5 },
                    output_alloc: AllocStrategy::Explicit,
                    prefetch_inputs: false,
                };
                if program.facts(id).flops >= CORUN_CUTOFF {
                    handed_off.push(layer.name().split('+').next().unwrap().to_string());
                }
            }
            assert_eq!(
                handed_off,
                [
                    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3",
                    "conv4_2", "conv4_3"
                ],
                "{precision}"
            );
            let plan = ExecutionPlan {
                config: config(precision),
                nodes,
            };
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 3);
            let outcome = execute(&graph, &plan, &input).unwrap();
            assert_eq!(handoffs(&outcome), (21, 0, 9), "{precision}");
        }
    }

    /// Splits every layer with at least two output units half and half.
    const HALVES: Assignment = Assignment::Split { cpu_fraction: 0.5 };

    /// A plan that runs every layer with at least two units to share by
    /// `split` (output units for [`Assignment::Split`], input channels
    /// for [`Assignment::SplitInput`]) as `split`, and every other layer
    /// in the GPU role.
    fn split_every_layer(graph: &Graph, split: Assignment) -> Vec<crate::plan::NodePlan> {
        use crate::plan::NodePlan;
        use edgenn_sim::AllocStrategy;
        let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
        for id in graph.topo_order() {
            let layer = graph.node(id).unwrap().layer();
            let shapes = graph.input_shapes(id).unwrap();
            let shares = match split {
                Assignment::SplitInput { .. } => layer.input_channels(&shapes),
                _ => layer.partition_units(&shapes),
            };
            if shares.unwrap_or(1) >= 2 {
                nodes[id.index()] = NodePlan {
                    assignment: split,
                    output_alloc: AllocStrategy::Explicit,
                    prefetch_inputs: false,
                };
            }
        }
        nodes
    }

    #[test]
    fn forced_splits_on_every_partitionable_layer_stay_correct() {
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let plan = ExecutionPlan {
                config: ExecutionConfig::edgenn(),
                nodes: split_every_layer(&graph, HALVES),
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
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let nodes = split_every_layer(&graph, Assignment::SplitInput { cpu_fraction: 0.4 });
            if !nodes.iter().any(|node| node.assignment.is_corun()) {
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
                let shapes = graph.input_shapes(id).unwrap();
                if node.layer().input_channels(&shapes).unwrap_or(1) >= 2 {
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
    fn threads_sharing_an_executor_each_count_only_their_own_recoveries() {
        // The fault plan is the executor's, the counts each session's: two
        // threads racing on one armed executor each see exactly the one
        // permanent fault's initial failure, three retries and fallback.
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 33);
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node: first_gpu_role_node(&graph, &plan),
            fail_count: u32::MAX,
        });
        let injector = FaultInjector::from_plan(&faults, graph.len(), 3);
        let executor = Executor::new(&graph).unwrap().with_faults(injector);
        let start = std::sync::Barrier::new(2);
        let recoveries: Vec<Vec<FaultCounts>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..25)
                            .map(|_| executor.execute(&plan, &input).unwrap().recovery)
                            .collect()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let expected = FaultCounts {
            faults_injected: 4,
            retries: 3,
            fallbacks: 1,
            worker_losses: 0,
        };
        for per_thread in recoveries {
            assert!(
                per_thread.iter().all(|&r| r == expected),
                "a session counted another's recoveries: {per_thread:?}"
            );
        }
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
        // to the fault-free run.
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
        let private: &'static Pool<TaskResult> = Box::leak(Box::new(Pool::new()));
        let worker = std::thread::spawn(move || private.run_worker());
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
        // The abandoned job still holds that run's session, so the next
        // run builds one of its own; the hung worker leaves its partial
        // to the driver.
        let next = executor.execute(&plan, &input).unwrap();
        assert_eq!(bits(&next.output), bits(&clean.output));
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
    fn threads_sharing_an_executor_each_count_only_their_own_scratch() {
        // Scratch arenas are per thread, and a session counts only what
        // its own threads drew: two threads racing on one executor each
        // report the solo warm run's figures, nothing fresh once warm.
        // The plan hands nothing off here, so every draw is the driver's.
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = edgenn_plan(&graph);
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 5);
        let executor = Executor::new(&graph).unwrap();
        let arena =
            |o: FunctionalOutcome| (o.engine.arena_fresh_bytes, o.engine.arena_reused_bytes);
        executor.execute(&plan, &input).unwrap();
        let solo = arena(executor.execute(&plan, &input).unwrap());
        assert_eq!(solo.0, 0, "a warm arena allocates nothing");
        assert!(solo.1 > 0, "a warm run reuses its scratch");
        let start = std::sync::Barrier::new(2);
        let counts: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        executor.execute(&plan, &input).unwrap();
                        start.wait();
                        (0..25)
                            .map(|_| arena(executor.execute(&plan, &input).unwrap()))
                            .collect()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for per_thread in counts {
            assert!(
                per_thread.iter().all(|&n| n == solo),
                "a session counted another's scratch (solo {solo:?}): {per_thread:?}"
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
                .expect("flight enabled => profile present")
                .summary();
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
    fn one_request_fills_at_most_an_eighth_of_a_flight_ring() {
        // The rings are a fixed size, so this pins the records a request
        // writes: every Tiny model, tuned for the Jetson and with every
        // partitionable layer split, in both precisions, must keep its
        // whole window and leave the ring to the requests around it.
        use edgenn_nn::graph::{compile, CompileOptions};
        flight::enable();
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            for precision in [Precision::F32, Precision::Int8] {
                let options = match precision {
                    Precision::F32 => CompileOptions::default(),
                    Precision::Int8 => CompileOptions::int8(),
                };
                let graph = compile(&build(kind, ModelScale::Tiny), &options).unwrap().0;
                let config = ExecutionConfig {
                    precision,
                    ..ExecutionConfig::edgenn()
                };
                let tuned = Tuner::new(&graph, &runtime)
                    .unwrap()
                    .plan(&graph, &runtime, config)
                    .unwrap();
                let split = ExecutionPlan {
                    config,
                    nodes: split_every_layer(&graph, HALVES),
                };
                let executor = Executor::new(&graph).unwrap();
                let inputs: Vec<Tensor> = (0..2)
                    .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 90 + i))
                    .collect();
                for (name, plan) in [("tuned", &tuned), ("all-split", &split)] {
                    for outcome in executor.batch_execute(plan, &inputs).unwrap() {
                        let window = outcome
                            .engine
                            .profile
                            .expect("flight enabled => profile present");
                        assert_eq!(window.dropped, 0, "{kind} {precision} {name}");
                        let profile = window.summary();
                        assert_eq!(profile.dropped, 0, "{kind} {precision} {name}");
                        let written = profile.span_count;
                        assert!(
                            (1..=(flight::RING_RECORDS / 8) as u64).contains(&written),
                            "{kind} {precision} {name}: one request wrote {written} records"
                        );
                    }
                }
            }
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
                        let split = ExecutionPlan {
                            config,
                            nodes: split_every_layer(graph, Assignment::Split { cpu_fraction }),
                        };
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
