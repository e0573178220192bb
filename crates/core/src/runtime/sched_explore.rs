//! Loom-lite exhaustive interleaving explorer for the worker pool.
//!
//! The worker pool ([`super::pool`]) is lock-based and `unsafe`-free, but
//! its correctness argument — help-first join never deadlocks, lazy
//! reclaim never runs a task twice, no submitted task is ever lost, no
//! spent cell outlives its session — rests on how its atomic sections
//! (queue pop, task-cell claim, reclaim dequeue, completion publish)
//! interleave across the drivers and any number of workers. Runtime
//! tests only sample a few schedules the OS happens to produce; this
//! module checks **all of them**, up to a preemption bound.
//!
//! The model is a faithful, pure re-implementation of the pool's state
//! machine at the granularity of its critical sections: each actor
//! (a session's driver or a worker) is a small program whose steps are
//! exactly the pool's lock-protected transitions, and [`explore`] runs a
//! depth-first search over every scheduling choice, in the style of
//! CHESS-bounded model checking — a context switch away from a runnable
//! actor costs one unit of the preemption budget, switches at blocking
//! points are free. Empirically (and per the CHESS result) almost all
//! concurrency bugs of this shape surface within two preemptions.
//!
//! Workers are persistent, as in the engine's process-wide pool: there is
//! no shutdown, and one or more drivers (concurrent sessions) share them.
//! An idle worker may step whenever the queue is non-empty: every push
//! notifies the condvar under which idle workers park, so no wake-up is
//! lost.
//! A schedule is terminal when every driver has finished and no actor can
//! move — the workers are parked on an empty queue. On every terminal
//! state the explorer asserts the pool's contract:
//!
//! 1. every submitted task executed **exactly once** — on a worker or
//!    inline at its joiner, never both — and ended `Taken`;
//! 2. every join completed (no lost task, no deadlock);
//! 3. each session's worker/inline counters conserve its own task count;
//! 4. no queue cell of a finished session remains — a reclaim must drop
//!    its cell, or a pool without workers would keep it forever. This one
//!    is also checked the moment each driver finishes.
//!
//! The model deliberately shares the pool's lazy-claim quirk: a task
//! popped by a worker may have been reclaimed by the joiner in the
//! window between the queue pop and the task-cell claim, in which case
//! the worker must skip it. Planting a defect in the model (removing the
//! claim check, or the reclaim's dequeue) makes the explorer report it —
//! see the tests.

use serde::Serialize;

/// Hard cap on explored transitions, against pathological configs.
const STATE_CAP: u64 = 4_000_000;

/// At most this many violation strings are retained per run.
const VIOLATION_CAP: usize = 16;

/// One exploration scenario: `sessions` drivers each submitting `tasks`
/// jobs and joining them in `join_order`, with `workers` shared pool
/// workers racing them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExploreConfig {
    /// Number of tasks each driver submits (keep the total ≤ 6: the
    /// schedule space is exponential).
    pub tasks: usize,
    /// Number of pool workers (0 exercises the pure inline-reclaim path).
    pub workers: usize,
    /// Number of concurrent sessions (one driver each) sharing the
    /// workers.
    pub sessions: usize,
    /// Order in which each driver joins its task handles, as a
    /// permutation of `0..tasks`.
    pub join_order: Vec<usize>,
    /// Maximum involuntary context switches per schedule (CHESS bound).
    pub preemption_bound: usize,
}

impl ExploreConfig {
    /// A one-session scenario joining in submission order.
    #[must_use]
    pub fn new(tasks: usize, workers: usize, preemption_bound: usize) -> Self {
        Self {
            tasks,
            workers,
            sessions: 1,
            join_order: (0..tasks).collect(),
            preemption_bound,
        }
    }

    /// A one-session scenario joining in reverse submission order — the
    /// adversarial order for help-first reclaim (the last-submitted task
    /// is the most likely to still be queued).
    #[must_use]
    pub fn reversed(tasks: usize, workers: usize, preemption_bound: usize) -> Self {
        Self {
            join_order: (0..tasks).rev().collect(),
            ..Self::new(tasks, workers, preemption_bound)
        }
    }

    /// The same scenario run by `sessions` concurrent sessions.
    #[must_use]
    pub fn shared_by(self, sessions: usize) -> Self {
        Self { sessions, ..self }
    }
}

/// Outcome of exploring one [`ExploreConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExploreResult {
    /// Complete schedules reached (terminal states, counted per path).
    pub interleavings: u64,
    /// Atomic transitions executed across all schedules.
    pub states: u64,
    /// Invariant violations found (empty means the contract holds on
    /// every explored schedule).
    pub violations: Vec<String>,
    /// True when [`STATE_CAP`] truncated the search.
    pub truncated: bool,
}

impl ExploreResult {
    /// True when every explored schedule upheld the pool contract.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// A defect planted in the model, to prove the explorer reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// The faithful model.
    None,
    /// A worker claims whatever it popped, reclaimed or not.
    SkipClaimCheck,
    /// A reclaim leaves its spent cell in the queue.
    SkipReclaimDequeue,
}

/// Lifecycle of one modelled task cell (mirrors `pool::TaskState` with
/// the executing actor made explicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskPhase {
    /// Submitted and still claimable from the queue or by the joiner.
    Pending,
    /// Claimed by worker `i`; its job is running outside any lock.
    RunningWorker(usize),
    /// Reclaimed by its driver; running inline.
    RunningInline,
    /// Completed by a worker; result awaiting the joiner.
    Done,
    /// Result consumed by `join`.
    Taken,
}

/// A worker's position in `run_worker`/`run_task`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerPhase {
    /// In the pop loop (parked while the queue is empty).
    Idle,
    /// Popped a task id; has not yet locked its cell to claim it.
    Holding(usize),
    /// Claimed the cell (`Pending → Running`); job in flight.
    Executing(usize),
}

/// A driver's position in submit-all / join-all. Task ids are global:
/// driver `d`'s task `i` is `d * tasks + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriverPhase {
    /// Next local task index to submit.
    Submitting(usize),
    /// Index into `join_order` currently being joined.
    Joining(usize),
    /// Reclaimed task `.0` (joining `join_order[.1]`); about to drop its
    /// cell from the queue.
    Dequeuing(usize, usize),
    /// Reclaimed task `.0` and is running it inline.
    InlineRun(usize, usize),
    /// Session complete.
    Finished,
}

/// One explored state of the whole system. Cloned at every branch point
/// (it is a few dozen bytes for the config sizes that make sense).
#[derive(Debug, Clone)]
struct ModelState {
    tasks: Vec<TaskPhase>,
    /// Executions per task; the invariant demands exactly one.
    runs: Vec<u8>,
    queue: std::collections::VecDeque<usize>,
    workers: Vec<WorkerPhase>,
    drivers: Vec<DriverPhase>,
    /// Per-session join-side counters, as each session's `Tally` sees them.
    worker_tasks: Vec<u64>,
    inline_tasks: Vec<u64>,
}

impl ModelState {
    fn initial(cfg: &ExploreConfig) -> Self {
        let first = if cfg.tasks == 0 {
            DriverPhase::Finished
        } else {
            DriverPhase::Submitting(0)
        };
        Self {
            tasks: vec![TaskPhase::Pending; cfg.tasks * cfg.sessions],
            runs: vec![0; cfg.tasks * cfg.sessions],
            queue: std::collections::VecDeque::new(),
            workers: vec![WorkerPhase::Idle; cfg.workers],
            drivers: vec![first; cfg.sessions],
            worker_tasks: vec![0; cfg.sessions],
            inline_tasks: vec![0; cfg.sessions],
        }
    }

    /// Actors `0..sessions` are the drivers, then the workers.
    fn enabled(&self, actor: usize, cfg: &ExploreConfig) -> bool {
        if let Some(&driver) = self.drivers.get(actor) {
            return match driver {
                DriverPhase::Submitting(_)
                | DriverPhase::Dequeuing(..)
                | DriverPhase::InlineRun(..) => true,
                // Blocked on the `done` condvar while a worker holds the
                // job; every other cell state progresses.
                DriverPhase::Joining(idx) => !matches!(
                    self.tasks[actor * cfg.tasks + cfg.join_order[idx]],
                    TaskPhase::RunningWorker(_) | TaskPhase::RunningInline
                ),
                DriverPhase::Finished => false,
            };
        }
        match self.workers[actor - cfg.sessions] {
            WorkerPhase::Holding(_) | WorkerPhase::Executing(_) => true,
            // Parked on `work_available` until a push.
            WorkerPhase::Idle => !self.queue.is_empty(),
        }
    }

    /// Executes one atomic section of `actor`, recording violations.
    fn step(
        &mut self,
        actor: usize,
        cfg: &ExploreConfig,
        mutation: Mutation,
        violations: &mut Vec<String>,
    ) {
        if actor < cfg.sessions {
            self.step_driver(actor, cfg, mutation, violations);
            return;
        }
        let w = actor - cfg.sessions;
        match self.workers[w] {
            WorkerPhase::Idle => {
                // Pop loop body, one pool-lock section.
                let tid = self
                    .queue
                    .pop_front()
                    .expect("parked worker is never enabled");
                self.workers[w] = WorkerPhase::Holding(tid);
            }
            WorkerPhase::Holding(tid) => {
                // `run_task`'s claim: only a still-pending cell yields
                // its job — the joiner may have reclaimed it since the
                // pop.
                if self.tasks[tid] == TaskPhase::Pending || mutation == Mutation::SkipClaimCheck {
                    self.tasks[tid] = TaskPhase::RunningWorker(w);
                    self.workers[w] = WorkerPhase::Executing(tid);
                } else {
                    self.workers[w] = WorkerPhase::Idle;
                }
            }
            WorkerPhase::Executing(tid) => {
                self.run(tid, violations);
                self.tasks[tid] = TaskPhase::Done; // + notify_all on `done`
                self.workers[w] = WorkerPhase::Idle;
            }
        }
    }

    fn step_driver(
        &mut self,
        d: usize,
        cfg: &ExploreConfig,
        mutation: Mutation,
        violations: &mut Vec<String>,
    ) {
        let base = d * cfg.tasks;
        match self.drivers[d] {
            DriverPhase::Submitting(next) => {
                // `submit`: cell created Pending + queue push (one
                // pool-lock section) + notify.
                self.queue.push_back(base + next);
                self.drivers[d] = if next + 1 < cfg.tasks {
                    DriverPhase::Submitting(next + 1)
                } else {
                    DriverPhase::Joining(0)
                };
            }
            DriverPhase::Joining(idx) => {
                let tid = base + cfg.join_order[idx];
                match self.tasks[tid] {
                    // Help-first reclaim: take the job back under the
                    // cell lock, then drop its cell from the queue.
                    TaskPhase::Pending => {
                        self.tasks[tid] = TaskPhase::RunningInline;
                        self.drivers[d] = if mutation == Mutation::SkipReclaimDequeue {
                            DriverPhase::InlineRun(tid, idx)
                        } else {
                            DriverPhase::Dequeuing(tid, idx)
                        };
                    }
                    TaskPhase::Done => {
                        self.tasks[tid] = TaskPhase::Taken;
                        self.worker_tasks[d] += 1;
                        self.after_join(d, idx, cfg, violations);
                    }
                    other => {
                        violate(
                            violations,
                            format!("join stepped on task {tid} in {other:?}"),
                        );
                        self.after_join(d, idx, cfg, violations);
                    }
                }
            }
            DriverPhase::Dequeuing(tid, idx) => {
                // One pool-lock section; the cell may already be gone if
                // a worker popped it after the claim.
                self.queue.retain(|&t| t != tid);
                self.drivers[d] = DriverPhase::InlineRun(tid, idx);
            }
            DriverPhase::InlineRun(tid, idx) => {
                self.run(tid, violations);
                self.tasks[tid] = TaskPhase::Taken;
                self.inline_tasks[d] += 1;
                self.after_join(d, idx, cfg, violations);
            }
            DriverPhase::Finished => unreachable!("finished driver is never enabled"),
        }
    }

    fn run(&mut self, tid: usize, violations: &mut Vec<String>) {
        self.runs[tid] += 1;
        if self.runs[tid] > 1 {
            violate(
                violations,
                format!("task {tid} executed {} times", self.runs[tid]),
            );
        }
    }

    fn after_join(
        &mut self,
        d: usize,
        idx: usize,
        cfg: &ExploreConfig,
        violations: &mut Vec<String>,
    ) {
        if idx + 1 < cfg.join_order.len() {
            self.drivers[d] = DriverPhase::Joining(idx + 1);
            return;
        }
        self.drivers[d] = DriverPhase::Finished;
        let session = d * cfg.tasks..(d + 1) * cfg.tasks;
        for tid in self.queue.iter().filter(|t| session.contains(t)) {
            violate(
                violations,
                format!("session {d} finished with task {tid}'s cell still queued"),
            );
        }
    }

    fn check_terminal(&self, cfg: &ExploreConfig, violations: &mut Vec<String>) {
        for (tid, phase) in self.tasks.iter().enumerate() {
            if *phase != TaskPhase::Taken {
                violate(
                    violations,
                    format!("task {tid} ended in {phase:?}, not Taken"),
                );
            }
        }
        for (tid, runs) in self.runs.iter().enumerate() {
            if *runs != 1 {
                violate(
                    violations,
                    format!("task {tid} executed {runs} times, not once"),
                );
            }
        }
        for d in 0..cfg.sessions {
            let total = self.worker_tasks[d] + self.inline_tasks[d];
            if total != cfg.tasks as u64 {
                violate(
                    violations,
                    format!(
                        "session {d} counter conservation broken: {} worker + {} inline != {} tasks",
                        self.worker_tasks[d], self.inline_tasks[d], cfg.tasks
                    ),
                );
            }
        }
        if !self.queue.is_empty() {
            violate(
                violations,
                format!("finished sessions left cells {:?} queued", self.queue),
            );
        }
    }
}

fn violate(violations: &mut Vec<String>, msg: String) {
    if violations.len() < VIOLATION_CAP {
        violations.push(msg);
    }
}

/// Exhaustively explores every schedule of `cfg` within its preemption
/// bound, checking the pool contract on each.
///
/// # Panics
/// When `join_order` is not a permutation of `0..tasks` — a scenario
/// bug, not a pool bug.
#[must_use]
pub fn explore(cfg: &ExploreConfig) -> ExploreResult {
    explore_model(cfg, Mutation::None)
}

fn explore_model(cfg: &ExploreConfig, mutation: Mutation) -> ExploreResult {
    let mut sorted = cfg.join_order.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..cfg.tasks).collect::<Vec<_>>(),
        "join_order must be a permutation of 0..tasks"
    );
    let mut result = ExploreResult {
        interleavings: 0,
        states: 0,
        violations: Vec::new(),
        truncated: false,
    };
    dfs(
        ModelState::initial(cfg),
        0,
        cfg.preemption_bound,
        cfg,
        mutation,
        &mut result,
    );
    result
}

/// One DFS node: run `current` while it can proceed; branch to other
/// enabled actors by spending preemption budget; switch for free when
/// `current` blocks or finishes.
fn dfs(
    state: ModelState,
    current: usize,
    budget: usize,
    cfg: &ExploreConfig,
    mutation: Mutation,
    result: &mut ExploreResult,
) {
    if result.truncated {
        return;
    }
    let actors = cfg.sessions + cfg.workers;
    let enabled: Vec<usize> = (0..actors).filter(|&a| state.enabled(a, cfg)).collect();
    if enabled.is_empty() {
        if state.drivers.iter().all(|d| *d == DriverPhase::Finished) {
            // Terminal: every session done, every worker parked.
            result.interleavings += 1;
            state.check_terminal(cfg, &mut result.violations);
        } else {
            violate(
                &mut result.violations,
                format!("deadlock: no runnable actor in {state:?}"),
            );
        }
        return;
    }
    let advance = |actor: usize, budget: usize, result: &mut ExploreResult| {
        let mut next = state.clone();
        next.step(actor, cfg, mutation, &mut result.violations);
        result.states += 1;
        if result.states > STATE_CAP {
            result.truncated = true;
            return;
        }
        dfs(next, actor, budget, cfg, mutation, result);
    };
    if enabled.contains(&current) {
        advance(current, budget, result);
        if budget > 0 {
            for &other in enabled.iter().filter(|&&a| a != current) {
                advance(other, budget - 1, result);
            }
        }
    } else {
        // Blocking point: switching away is involuntary-free.
        for &other in &enabled {
            advance(other, budget, result);
        }
    }
}

/// The scenario matrix the CI gate and `edgenn analyze` run: one session
/// with up to six tasks, zero to two workers, forward and adversarial
/// join orders; and two sessions sharing zero to two workers. Covers the
/// inline-only path, the single-worker race (pop vs. reclaim),
/// multi-worker contention, and sessions racing for the same workers.
#[must_use]
pub fn default_matrix() -> Vec<ExploreConfig> {
    let mut configs = Vec::new();
    for &(tasks, workers, bound) in &[
        (0usize, 1usize, 2usize),
        (1, 0, 3),
        (1, 1, 3),
        (2, 1, 3),
        (2, 2, 2),
        (3, 1, 2),
        (3, 2, 2),
        (4, 2, 2),
        (6, 2, 1),
    ] {
        configs.push(ExploreConfig::new(tasks, workers, bound));
        if tasks > 1 {
            configs.push(ExploreConfig::reversed(tasks, workers, bound));
        }
    }
    for &(tasks, workers, bound) in &[(1usize, 0usize, 3usize), (1, 1, 3), (2, 1, 2), (2, 2, 1)] {
        configs.push(ExploreConfig::new(tasks, workers, bound).shared_by(2));
        if tasks > 1 {
            configs.push(ExploreConfig::reversed(tasks, workers, bound).shared_by(2));
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_matrix_scenario_upholds_the_pool_contract() {
        for cfg in default_matrix() {
            let result = explore(&cfg);
            assert!(
                result.is_clean(),
                "{cfg:?} violated the contract: {:?} (truncated: {})",
                result.violations,
                result.truncated
            );
            assert!(result.interleavings > 0, "{cfg:?} explored nothing");
        }
    }

    #[test]
    fn matrix_includes_sessions_sharing_the_workers() {
        let shared: Vec<_> = default_matrix()
            .into_iter()
            .filter(|c| c.sessions > 1 && c.workers > 0)
            .collect();
        assert!(!shared.is_empty(), "no two-driver scenario in the matrix");
        for cfg in shared {
            let result = explore(&cfg);
            assert!(result.is_clean(), "{cfg:?}: {:?}", result.violations);
            assert!(result.interleavings > 1, "{cfg:?} must race the drivers");
        }
    }

    #[test]
    fn zero_workers_is_the_single_inline_schedule() {
        let result = explore(&ExploreConfig::new(3, 0, 4));
        assert!(result.is_clean(), "{:?}", result.violations);
        // Only the driver can act: exactly one schedule, all inline.
        assert_eq!(result.interleavings, 1);
    }

    #[test]
    fn preemptions_grow_the_schedule_space_monotonically() {
        let base = explore(&ExploreConfig::new(2, 1, 0)).interleavings;
        let one = explore(&ExploreConfig::new(2, 1, 1)).interleavings;
        let two = explore(&ExploreConfig::new(2, 1, 2)).interleavings;
        assert!(base >= 1);
        assert!(one > base, "one preemption must add schedules");
        assert!(two > one, "two preemptions must add more");
    }

    #[test]
    fn removing_the_claim_check_is_caught_as_a_double_execution() {
        // Without the claim check the worker runs whatever it popped.
        // The explorer must find the schedule where the joiner reclaimed
        // the task first → executed twice.
        let result = explore_model(&ExploreConfig::new(1, 1, 2), Mutation::SkipClaimCheck);
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.contains("executed 2 times")),
            "the mutant must double-execute somewhere: {:?}",
            result.violations
        );
    }

    #[test]
    fn removing_the_reclaim_dequeue_is_caught_as_a_leaked_cell() {
        // Without the dequeue a reclaimed cell stays queued: forever on
        // a pool without workers, and past its session's end when a
        // worker has yet to pop and skip it.
        for cfg in [
            ExploreConfig::new(1, 0, 2),
            ExploreConfig::new(1, 1, 2),
            ExploreConfig::new(1, 1, 2).shared_by(2),
        ] {
            assert!(explore(&cfg).is_clean(), "{cfg:?}");
            let result = explore_model(&cfg, Mutation::SkipReclaimDequeue);
            assert!(
                result.violations.iter().any(|v| v.contains("still queued")),
                "{cfg:?}: the mutant must leak a cell: {:?}",
                result.violations
            );
        }
    }

    #[test]
    fn join_order_must_be_a_permutation() {
        let cfg = ExploreConfig {
            tasks: 2,
            workers: 1,
            sessions: 1,
            join_order: vec![0, 0],
            preemption_bound: 1,
        };
        assert!(std::panic::catch_unwind(|| explore(&cfg)).is_err());
    }
}
