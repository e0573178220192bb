//! Worker pool for the functional engine.
//!
//! The engine keeps **one pool for the whole process** (see
//! `functional.rs`): its workers are spawned on first use and wait
//! between sessions, and every co-run split share or fork branch is a
//! queue push. A thread spawn per session would cost more than a small
//! model's fork-join regions save.
//!
//! Design constraints and how they are met:
//!
//! - **No `unsafe`** (workspace-wide deny): jobs are `'static` boxed
//!   closures (`Box<dyn FnOnce() -> T + Send>`), so the engine's jobs own
//!   `Arc`s of the session state they read instead of borrowing it.
//! - **Deadlock freedom on any worker count** (including zero): `join`
//!   uses help-first reclaim — if the task is still queued, the waiter
//!   takes it back, removes its cell from the queue and runs it inline
//!   instead of blocking. On a one-core edge target this is also the
//!   fastest schedule: no context switch, and no spent cell left behind
//!   for a worker that does not exist.
//! - **Panic containment**: worker and inline execution both run the job
//!   under `catch_unwind`; a panicking kernel surfaces as
//!   [`JoinError::Panicked`], never a hung join.
//! - **Watchdog**: [`TaskHandle::join_deadline`] returns at its deadline.
//!   The worker it gave up on finishes the abandoned job and drops its
//!   result; the caller records the loss where its readers look.
//! - **Per-session accounting**: the pool keeps no counters of its own.
//!   Every join credits the [`Tally`] its caller passes, so sessions that
//!   share the workers each count only their own tasks.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A unit of work: owns everything it captures.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Why [`TaskHandle::join`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// The job panicked (on a worker or during inline reclaim).
    Panicked,
    /// The watchdog deadline of [`TaskHandle::join_deadline`] expired
    /// while a worker still held the job (hung or starved worker).
    TimedOut,
}

/// Lifecycle of one submitted task.
enum TaskState<T> {
    /// Queued; the job is still here and can be reclaimed by the waiter.
    Pending(Job<T>),
    /// A worker (or the reclaiming waiter) took the job and is running
    /// it.
    Running,
    /// Finished; `None` means the job panicked.
    Done(Option<T>),
    /// The result was consumed by `join`. (A timed-out join leaves the
    /// cell to its worker, whose result drops with it.)
    Taken,
}

impl<T> std::fmt::Debug for TaskState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TaskState::Pending(_) => "Pending",
            TaskState::Running => "Running",
            TaskState::Done(_) => "Done",
            TaskState::Taken => "Taken",
        })
    }
}

/// One task cell, shared between the queue and the waiter's handle.
struct Task<T> {
    state: Mutex<TaskState<T>>,
    done: Condvar,
    queued_at: Instant,
    /// Queue wait stamped by the worker that claimed the job.
    wait_ns: AtomicU64,
}

impl<T> Task<T> {
    fn lock(&self) -> MutexGuard<'_, TaskState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn waited_ns(&self) -> u64 {
        u64::try_from(self.queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Waiter-side handle returned by [`Pool::submit`].
pub struct TaskHandle<T>(Arc<Task<T>>);

struct QueueState<T> {
    queue: VecDeque<Arc<Task<T>>>,
    shutdown: bool,
}

/// Snapshot of one [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks completed by pool workers.
    pub worker_tasks: u64,
    /// Tasks reclaimed and run inline by the waiter (help-first join).
    pub inline_tasks: u64,
    /// Total nanoseconds tasks spent queued before starting.
    pub queue_wait_ns: u64,
}

/// Task counters of one session. Each join credits the tally its caller
/// passes — a worker-run task when its result (or its timeout) is
/// collected, a reclaimed one when it starts inline — so concurrent
/// sessions on one pool never absorb each other's tasks.
#[derive(Debug, Default)]
pub struct Tally {
    worker_tasks: AtomicU64,
    inline_tasks: AtomicU64,
    queue_wait_ns: AtomicU64,
}

impl Tally {
    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            worker_tasks: self.worker_tasks.load(Ordering::Relaxed),
            inline_tasks: self.inline_tasks.load(Ordering::Relaxed),
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Relaxed),
        }
    }

    fn record(&self, on_worker: bool, wait_ns: u64) {
        let tasks = if on_worker {
            &self.worker_tasks
        } else {
            &self.inline_tasks
        };
        tasks.fetch_add(1, Ordering::Relaxed);
        self.queue_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    }
}

/// The injector queue plus parked-worker signalling. Spawn workers that
/// call [`Pool::run_worker`] and push work with [`Pool::submit`].
pub struct Pool<T> {
    state: Mutex<QueueState<T>>,
    work_available: Condvar,
}

impl<T> std::fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("queued", &self.queued())
            .finish()
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Pool<T> {
    /// An empty pool with no workers attached (so it can back a
    /// `static`). Workers attach via [`Pool::run_worker`].
    pub const fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        }
    }

    /// How many workers a pool should spawn: one per available core
    /// beyond the driver thread. On a single-core machine this is
    /// **zero** — help-first inline reclaim in [`TaskHandle::join`]
    /// keeps every task completing on the driver, and skipping the spawn
    /// avoids futile context switches on a core the driver already
    /// saturates.
    ///
    /// The engine reads this once, when it spawns its process-wide pool
    /// (`available_parallelism` re-reads cgroup quota files on every call
    /// on Linux, so it is not a per-request probe).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) - 1
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a job and wakes one parked worker.
    ///
    /// After shutdown, jobs are accepted but only ever run via inline
    /// reclaim in [`TaskHandle::join`] (the pool is winding down).
    pub fn submit(&self, job: Job<T>) -> TaskHandle<T> {
        let task = Arc::new(Task {
            state: Mutex::new(TaskState::Pending(job)),
            done: Condvar::new(),
            queued_at: Instant::now(),
            wait_ns: AtomicU64::new(0),
        });
        self.lock().queue.push_back(Arc::clone(&task));
        self.work_available.notify_one();
        TaskHandle(task)
    }

    /// Task cells currently queued.
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// Worker loop: pop tasks until shutdown, parking while the queue is
    /// empty.
    pub fn run_worker(&self) {
        loop {
            let task = {
                let mut state = self.lock();
                loop {
                    if let Some(task) = state.queue.pop_front() {
                        break Some(task);
                    }
                    if state.shutdown {
                        break None;
                    }
                    state = self
                        .work_available
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(task) = task else { return };
            Self::run_task(&task);
        }
    }

    /// Runs `task` if it is still pending (its waiter may have reclaimed
    /// it since the pop), stamping its queue wait. If a watchdog gave up
    /// on the task meanwhile, nobody collects the result: it drops with
    /// the cell once the worker lets go of it.
    fn run_task(task: &Task<T>) {
        let job = {
            let mut state = task.lock();
            match std::mem::replace(&mut *state, TaskState::Running) {
                TaskState::Pending(job) => {
                    task.wait_ns.store(task.waited_ns(), Ordering::Relaxed);
                    job
                }
                // Reclaimed (or already finished): restore and bail.
                other => {
                    *state = other;
                    return;
                }
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(job)).ok();
        *task.lock() = TaskState::Done(outcome);
        task.done.notify_all();
    }

    /// Drops a reclaimed task's cell from the queue, so no spent cell
    /// waits for a worker to skip it — with zero workers, none ever would.
    fn dequeue(&self, task: &Arc<Task<T>>) {
        let mut state = self.lock();
        if let Some(pos) = state.queue.iter().rposition(|t| Arc::ptr_eq(t, task)) {
            state.queue.remove(pos);
        }
    }

    /// Signals workers to exit once the queue drains. Idempotent. A pool
    /// whose workers live in a `thread::scope` must shut down before the
    /// scope closes.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work_available.notify_all();
    }
}

impl<T> TaskHandle<T> {
    /// Waits for the result, crediting `tally`. If the task has not
    /// started yet, the waiter reclaims it and runs it inline (help-first
    /// scheduling) — so `join` never deadlocks, whatever the worker count.
    ///
    /// # Errors
    /// [`JoinError::Panicked`] when the job panicked.
    pub fn join(self, pool: &Pool<T>, tally: &Tally) -> Result<T, JoinError> {
        self.join_until(pool, tally, None)
    }

    /// Like [`TaskHandle::join`] but watchdog-bounded: waits at most
    /// `timeout` for a worker-held task, then returns
    /// [`JoinError::TimedOut`] at the deadline, converting a hung worker
    /// into a recoverable error instead of a stalled inference. The
    /// worker finishes the abandoned job and drops its result. A
    /// still-queued task is reclaimed inline exactly as in `join` and
    /// never times out — only a task another thread holds can hang.
    ///
    /// # Errors
    /// [`JoinError::Panicked`] when the job panicked;
    /// [`JoinError::TimedOut`] when the deadline expired first.
    pub fn join_deadline(
        self,
        pool: &Pool<T>,
        tally: &Tally,
        timeout: Duration,
    ) -> Result<T, JoinError> {
        self.join_until(pool, tally, Some(timeout))
    }

    fn join_until(
        self,
        pool: &Pool<T>,
        tally: &Tally,
        timeout: Option<Duration>,
    ) -> Result<T, JoinError> {
        let task = &self.0;
        let mut state = task.lock();
        if matches!(*state, TaskState::Pending(_)) {
            // Reclaim: take the job, drop the cell from the queue, and
            // run it on this thread.
            let TaskState::Pending(job) = std::mem::replace(&mut *state, TaskState::Running) else {
                unreachable!("checked pending above");
            };
            drop(state);
            pool.dequeue(task);
            tally.record(false, task.waited_ns());
            let outcome = catch_unwind(AssertUnwindSafe(job)).ok();
            *task.lock() = TaskState::Taken;
            return outcome.ok_or(JoinError::Panicked);
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match std::mem::replace(&mut *state, TaskState::Taken) {
                TaskState::Done(outcome) => {
                    tally.record(true, task.wait_ns.load(Ordering::Relaxed));
                    return outcome.ok_or(JoinError::Panicked);
                }
                TaskState::Running => {
                    *state = TaskState::Running;
                    let now = Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        // Abandon the job to its worker.
                        tally.record(true, task.wait_ns.load(Ordering::Relaxed));
                        return Err(JoinError::TimedOut);
                    }
                    state = match deadline {
                        None => task
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner),
                        Some(deadline) => {
                            task.done
                                .wait_timeout(state, deadline - now)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0
                        }
                    };
                }
                other @ (TaskState::Pending(_) | TaskState::Taken) => {
                    unreachable!("a claimed task is never {other:?} before its join")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Shuts the pool down on drop, so a failed assertion never leaves
    /// scoped workers parked forever inside a `thread::scope`.
    struct ShutdownGuard<'a, T>(&'a Pool<T>);

    impl<T> Drop for ShutdownGuard<'_, T> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Runs `f` with `workers` scoped pool workers attached.
    fn with_pool<T: Send, R>(workers: usize, f: impl FnOnce(&Pool<T>) -> R) -> R {
        let pool = Pool::new();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| pool.run_worker());
            }
            let _guard = ShutdownGuard(&pool);
            f(&pool)
        })
    }

    #[test]
    fn submit_and_join_round_trips() {
        with_pool(2, |pool| {
            let tally = Tally::default();
            let handles: Vec<_> = (0..16)
                .map(|i| pool.submit(Box::new(move || i * 2)))
                .collect();
            let total: i32 = handles
                .into_iter()
                .map(|h| h.join(pool, &tally).unwrap())
                .sum();
            assert_eq!(total, (0..16).map(|i| i * 2).sum::<i32>());
            let stats = tally.stats();
            assert_eq!(stats.worker_tasks + stats.inline_tasks, 16);
        });
    }

    #[test]
    fn zero_workers_still_completes_via_inline_reclaim() {
        with_pool(0, |pool| {
            let tally = Tally::default();
            let h = pool.submit(Box::new(|| 41 + 1));
            assert_eq!(h.join(pool, &tally), Ok(42));
            let stats = tally.stats();
            assert_eq!(stats.inline_tasks, 1);
            assert_eq!(stats.worker_tasks, 0);
        });
    }

    #[test]
    fn reclaim_leaves_no_cell_behind_on_a_workerless_pool() {
        // A process-wide pool on a one-core host has no worker to pop
        // spent cells, so every reclaim must dequeue its own.
        let pool: Pool<usize> = Pool::new();
        let tally = Tally::default();
        for i in 0..10_000 {
            let h = pool.submit(Box::new(move || i));
            assert_eq!(h.join(&pool, &tally), Ok(i));
        }
        assert_eq!(pool.queued(), 0, "reclaimed cells must leave the queue");
        assert_eq!(tally.stats().inline_tasks, 10_000);
    }

    #[test]
    fn static_pool_runs_jobs_on_detached_workers() {
        // The engine's shape: a `'static` pool whose workers are plain
        // threads that outlive every session.
        let pool: &'static Pool<u32> = Box::leak(Box::new(Pool::new()));
        let worker = std::thread::spawn(move || pool.run_worker());
        let tally = Tally::default();
        for session in 0..3u32 {
            let owned = Arc::new(vec![session; 4]);
            let h = pool.submit(Box::new(move || owned.iter().sum()));
            assert_eq!(h.join(pool, &tally), Ok(4 * session));
        }
        assert_eq!(tally.stats().worker_tasks + tally.stats().inline_tasks, 3);
        pool.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn panics_surface_as_join_errors_not_hangs() {
        with_pool(1, |pool| {
            let tally = Tally::default();
            let h = pool.submit(Box::new(|| -> u32 { panic!("kernel bug") }));
            assert_eq!(h.join(pool, &tally), Err(JoinError::Panicked));
            // The pool survives a panicking task.
            let h = pool.submit(Box::new(|| 7));
            assert_eq!(h.join(pool, &tally), Ok(7));
        });
    }

    #[test]
    fn stats_count_queue_wait() {
        with_pool(1, |pool| {
            let tally = Tally::default();
            let h = pool.submit(Box::new(|| {
                std::thread::sleep(Duration::from_millis(1));
            }));
            h.join(pool, &tally).unwrap();
            let stats = tally.stats();
            assert_eq!(stats.worker_tasks + stats.inline_tasks, 1);
        });
    }

    #[test]
    fn tallies_count_only_their_own_joins() {
        with_pool(1, |pool| {
            let (a, b) = (Tally::default(), Tally::default());
            let ha: Vec<_> = (0..3).map(|i| pool.submit(Box::new(move || i))).collect();
            let hb = pool.submit(Box::new(|| 9));
            for h in ha {
                h.join(pool, &a).unwrap();
            }
            hb.join(pool, &b).unwrap();
            let (a, b) = (a.stats(), b.stats());
            assert_eq!(a.worker_tasks + a.inline_tasks, 3);
            assert_eq!(b.worker_tasks + b.inline_tasks, 1);
        });
    }

    #[test]
    fn default_workers_leaves_the_driver_a_core() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(Pool::<()>::default_workers(), cores - 1);
    }

    /// Submits a job that flags its start, sleeps `hang`, then records
    /// and returns `value` — a partial whose kernel hangs on its worker.
    /// Returns once a worker holds the job, so the help-first inline
    /// reclaim cannot short-circuit the hang.
    fn submit_hanging(
        pool: &Pool<u64>,
        hang: Duration,
        value: u64,
    ) -> (TaskHandle<u64>, Arc<Mutex<Option<u64>>>) {
        let started = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(Mutex::new(None));
        let (s, f) = (Arc::clone(&started), Arc::clone(&finished));
        let handle = pool.submit(Box::new(move || {
            s.store(true, Ordering::SeqCst);
            std::thread::sleep(hang);
            *f.lock().unwrap() = Some(value);
            value
        }));
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        (handle, finished)
    }

    #[test]
    fn join_deadline_returns_at_its_deadline_and_credits_back_when_the_job_ends() {
        let pool: &'static Pool<u64> = Box::leak(Box::new(Pool::new()));
        let worker = std::thread::spawn(move || pool.run_worker());
        let tally = Tally::default();
        let hang = Duration::from_millis(600);
        let (handle, finished) = submit_hanging(pool, hang, 0x5EED);
        let start = Instant::now();
        assert_eq!(
            handle.join_deadline(pool, &tally, Duration::from_millis(10)),
            Err(JoinError::TimedOut)
        );
        let waited = start.elapsed();
        assert!(
            waited < hang / 2,
            "a timed-out join returns at its deadline, not when the hang ends: {waited:?}"
        );
        assert_eq!(tally.stats().worker_tasks, 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while finished.lock().unwrap().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            *finished.lock().unwrap(),
            Some(0x5EED),
            "the abandoned job ran to completion"
        );
        pool.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn join_deadline_completes_in_time_via_inline_reclaim() {
        with_pool(0, |pool| {
            let h = pool.submit(Box::new(|| 5u32));
            assert_eq!(
                h.join_deadline(pool, &Tally::default(), Duration::from_secs(5)),
                Ok(5)
            );
        });
    }

    #[test]
    fn shutdown_is_idempotent_and_drains() {
        let pool: Pool<u32> = Pool::new();
        let tally = Tally::default();
        std::thread::scope(|scope| {
            scope.spawn(|| pool.run_worker());
            scope.spawn(|| pool.run_worker());
            let h = pool.submit(Box::new(|| 1));
            pool.shutdown();
            pool.shutdown();
            // Submitted-but-unclaimed work after shutdown still completes
            // through inline reclaim.
            let late = pool.submit(Box::new(|| 2));
            assert_eq!(
                h.join(&pool, &tally).unwrap() + late.join(&pool, &tally).unwrap(),
                3
            );
        });
    }
}
