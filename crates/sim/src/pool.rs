//! Persistent worker pool and shared thread budget.
//!
//! PR 4's parallel engine spawned `std::thread::scope` workers per wide
//! event and tore them down again — at ~10 µs per spawn/join cycle the
//! fan-out barely broke even against the work it distributed. This
//! module replaces every scoped-spawn site with two pieces:
//!
//! * [`WorkerPool`] — a persistent pool of parked worker threads
//!   (std-only: channel-free `Mutex` + `Condvar`, since deps are
//!   vendored). Workers are spawned **lazily** on the first dispatch and
//!   then parked between dispatches, so a pool that never sees a wide
//!   event costs nothing, and one that does pays the spawn once per
//!   *run* instead of once per *event*. Dispatch is scoped: [`WorkerPool::run`]
//!   blocks until every task completed, so tasks may borrow caller
//!   state. The dispatching thread participates in draining the task
//!   queue — a pool of `k` threads is the caller plus `k - 1` parked
//!   workers, which is what makes pool sizes compose with a
//!   [`ThreadBudget`] (every claimant already owns one thread).
//! * [`ThreadBudget`] — a cloneable ledger of how many OS threads a
//!   whole experiment may use, shared by the sweep engine's outer
//!   `(cell, run)` workers and the engines' inner per-event fan-out.
//!   Claimants [`ThreadBudget::claim`] *extra* threads (beyond the one
//!   they run on) and get whatever is still unclaimed; dropping the
//!   [`BudgetLease`] returns them. A budget of 8 therefore yields
//!   4 sweep workers × 2-thread engines, or 1 runner × an 8-thread
//!   engine for a single 100k-node run — never 4 × 8 oversubscription.
//!
//! Determinism: the pool distributes *which thread runs a task*, never
//! what a task computes or the order results are committed — every call
//! site keeps collecting results by index (the sweep's unit slots, the
//! engine's in-order commit phase). Results are bit-identical for any
//! pool size, including the degenerate single-thread pool, which runs
//! tasks inline on the caller and never spawns anything.
//!
//! Panic safety: a panicking task marks its batch poisoned; the
//! dispatcher still waits for every other task of the batch to finish
//! (their borrows of caller state must end before `run` returns), then
//! panics with a clear message instead of deadlocking a commit phase on
//! a worker that will never report back.
//!
//! # Examples
//!
//! ```
//! use glr_sim::pool::{Task, ThreadBudget, WorkerPool};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = WorkerPool::with_threads(4);
//! let sum = AtomicUsize::new(0);
//! let tasks: Vec<Task<'_>> = (0..8)
//!     .map(|i| {
//!         let sum = &sum;
//!         Box::new(move || {
//!             sum.fetch_add(i, Ordering::Relaxed);
//!         }) as Task<'_>
//!     })
//!     .collect();
//! pool.run(tasks); // blocks until all 8 ran
//! assert_eq!(sum.load(Ordering::Relaxed), 28);
//!
//! // A budget of 8 shared by an outer layer (wants 4 extra) and two
//! // inner layers (want 2 extra each): the ledger grants 4 + 2 + 1.
//! let budget = ThreadBudget::total(8);
//! let outer = budget.claim(4);
//! let inner_a = budget.claim(2);
//! let inner_b = budget.claim(2);
//! assert_eq!(
//!     (outer.granted(), inner_a.granted(), inner_b.granted()),
//!     (4, 2, 1)
//! );
//! drop(inner_a); // returns 2 threads to the ledger
//! assert_eq!(budget.claim(9).granted(), 2);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work: runs exactly once, on exactly one thread, before
/// [`WorkerPool::run`] returns.
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// A shared ledger of how many OS threads an experiment may use in
/// total, drawn on by every layer that wants parallelism: the sweep
/// engine's outer `(cell, run)` workers and the simulation engines'
/// inner per-event fan-out.
///
/// Cloning shares the ledger (an `Arc`); a clone stored in
/// [`crate::SimConfig`] therefore draws from the same budget as the
/// [`crate::Sweep`] that spawned the run. Equality compares the *limit*
/// only (configurations with equal limits are interchangeable), never
/// the momentary claim state.
///
/// Every claimant is assumed to already own the thread it runs on, so
/// claims are for *extra* threads: a budget of `n` has `n - 1`
/// claimable threads (one is the root caller's own).
#[derive(Clone)]
pub struct ThreadBudget {
    /// `None` = unlimited (every claim granted in full) — the default,
    /// preserving pre-budget behaviour for standalone runs.
    ledger: Option<Arc<Ledger>>,
}

#[derive(Debug)]
struct Ledger {
    /// Total thread budget, including the root caller's own thread.
    total: usize,
    /// Extra threads currently claimed (of the `total - 1` claimable).
    taken: AtomicUsize,
}

impl ThreadBudget {
    /// An unlimited budget: every claim is granted in full. The default
    /// of [`crate::SimConfig`], preserving standalone-run behaviour
    /// (`EngineKind::Parallel(k)` really uses `k` threads).
    pub fn unlimited() -> Self {
        ThreadBudget { ledger: None }
    }

    /// A budget of `total` OS threads, shared by everything holding a
    /// clone.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` — the caller's own thread always exists.
    pub fn total(total: usize) -> Self {
        assert!(total >= 1, "a thread budget must include the caller");
        ThreadBudget {
            ledger: Some(Arc::new(Ledger {
                total,
                taken: AtomicUsize::new(0),
            })),
        }
    }

    /// The budget's total, or `None` when unlimited.
    pub fn limit(&self) -> Option<usize> {
        self.ledger.as_ref().map(|l| l.total)
    }

    /// Claims up to `want` extra threads (beyond the caller's own),
    /// granting whatever the ledger still has — possibly zero. The
    /// grant is returned to the ledger when the lease drops.
    ///
    /// Grants depend on what other claimants currently hold, i.e. on
    /// timing — which is safe precisely because results never depend on
    /// thread counts (the bit-identity guarantee every parallel path in
    /// this crate maintains).
    pub fn claim(&self, want: usize) -> BudgetLease {
        let Some(ledger) = &self.ledger else {
            return BudgetLease {
                granted: want,
                ledger: None,
            };
        };
        let claimable = ledger.total - 1;
        let mut cur = ledger.taken.load(Ordering::Relaxed);
        loop {
            let grant = want.min(claimable.saturating_sub(cur));
            if grant == 0 {
                return BudgetLease {
                    granted: 0,
                    ledger: None,
                };
            }
            match ledger.taken.compare_exchange_weak(
                cur,
                cur + grant,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return BudgetLease {
                        granted: grant,
                        ledger: Some(ledger.clone()),
                    }
                }
                Err(now) => cur = now,
            }
        }
    }
}

impl std::fmt::Debug for ThreadBudget {
    /// Prints the limit only — deliberately not the momentary claim
    /// state, so `Debug` output of configurations is stable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.limit() {
            None => f.write_str("ThreadBudget(unlimited)"),
            Some(n) => write!(f, "ThreadBudget(total={n})"),
        }
    }
}

impl PartialEq for ThreadBudget {
    fn eq(&self, other: &Self) -> bool {
        self.limit() == other.limit()
    }
}

impl Eq for ThreadBudget {}

/// A claim of extra threads from a [`ThreadBudget`]; returns them to
/// the ledger on drop.
#[derive(Debug)]
pub struct BudgetLease {
    granted: usize,
    ledger: Option<Arc<Ledger>>,
}

impl BudgetLease {
    /// How many extra threads the ledger granted (`<=` the claim).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        if let Some(ledger) = &self.ledger {
            ledger.taken.fetch_sub(self.granted, Ordering::AcqRel);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// A persistent pool of parked worker threads with scoped dispatch.
///
/// `WorkerPool::with_threads(k)` is a pool of `k` *compute* threads:
/// the dispatching caller plus `k - 1` workers, spawned lazily on the
/// first [`WorkerPool::run`] and parked on a condvar between
/// dispatches. Cloning shares the pool; the workers are joined when the
/// last clone drops.
///
/// A pool of one thread never spawns anything and runs every task
/// inline on the caller — the serial degradation path.
#[derive(Clone)]
pub struct WorkerPool {
    core: Arc<PoolCore>,
}

struct PoolCore {
    shared: Arc<Shared>,
    /// Worker threads this pool may spawn (`threads - 1`).
    workers: usize,
    /// This pool's spawned workers that have not exited yet.
    live: LiveWorkers,
    /// Join handles of spawned workers (empty until first dispatch).
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Budget lease backing `workers`, if pool came from a budget;
    /// returned to the ledger when the pool drops.
    _lease: Option<BudgetLease>,
}

struct Shared {
    state: Mutex<TaskQueue>,
    /// Workers park here waiting for tasks (or shutdown).
    work: Condvar,
    /// Dispatchers park here waiting for their batch to complete.
    done: Condvar,
}

/// One `run` call's completion state.
struct Batch {
    /// Tasks of this batch not yet finished. Decremented under the pool
    /// mutex so a waiting dispatcher cannot miss the final notify.
    remaining: AtomicUsize,
    /// Set when any task of the batch panicked.
    panicked: AtomicBool,
}

#[derive(Default)]
struct TaskQueue {
    tasks: VecDeque<(Arc<Batch>, Task<'static>)>,
    shutdown: bool,
}

impl WorkerPool {
    /// A pool of `threads` compute threads (the caller plus
    /// `threads - 1` lazily-spawned workers).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "a pool includes the calling thread");
        WorkerPool {
            core: Arc::new(PoolCore {
                shared: Arc::new(Shared {
                    state: Mutex::new(TaskQueue::default()),
                    work: Condvar::new(),
                    done: Condvar::new(),
                }),
                workers: threads - 1,
                live: LiveWorkers::default(),
                handles: Mutex::new(Vec::new()),
                _lease: None,
            }),
        }
    }

    /// A pool wanting `want_threads` compute threads, sized by what
    /// `budget` actually grants: the caller's own thread plus up to
    /// `want_threads - 1` claimed extras. The claim is held for the
    /// pool's lifetime and returned to the ledger when the pool drops.
    pub fn from_budget(budget: &ThreadBudget, want_threads: usize) -> Self {
        let lease = budget.claim(want_threads.saturating_sub(1));
        WorkerPool {
            core: Arc::new(PoolCore {
                shared: Arc::new(Shared {
                    state: Mutex::new(TaskQueue::default()),
                    work: Condvar::new(),
                    done: Condvar::new(),
                }),
                workers: lease.granted(),
                live: LiveWorkers::default(),
                handles: Mutex::new(Vec::new()),
                _lease: Some(lease),
            }),
        }
    }

    /// Compute threads this pool dispatches across (caller + workers).
    pub fn threads(&self) -> usize {
        self.core.workers + 1
    }

    /// Whether the worker threads have been spawned yet (false until
    /// the first multi-task dispatch, and always false for a
    /// single-thread pool).
    pub fn is_started(&self) -> bool {
        !self.core.handles.lock().expect("pool mutex").is_empty()
    }

    /// A handle on this pool's count of live worker threads: raised as
    /// each worker spawns, lowered as it exits. The handle outlives the
    /// pool, and dropping the pool joins every worker, so the count reads
    /// zero right after the drop. Unlike the process's thread count, it
    /// ignores threads that other pools (or other tests) spawn.
    pub fn live_workers(&self) -> LiveWorkers {
        self.core.live.clone()
    }

    /// Runs every task to completion, distributing them across the
    /// pool's threads; the caller participates. Blocks until all tasks
    /// finished, so tasks may borrow caller state.
    ///
    /// # Panics
    ///
    /// If any task panics, `run` waits for the rest of the batch to
    /// finish (their borrows must end) and then panics.
    pub fn run<'scope>(&self, tasks: Vec<Task<'scope>>) {
        if tasks.is_empty() {
            return;
        }
        // Serial degradation: a single-thread pool (or single task)
        // runs inline — no spawn, no queue, no synchronisation.
        if self.core.workers == 0 || tasks.len() == 1 {
            for task in tasks {
                task();
            }
            return;
        }
        self.core.ensure_started();
        let batch = Arc::new(Batch {
            remaining: AtomicUsize::new(tasks.len()),
            panicked: AtomicBool::new(false),
        });
        let shared = &self.core.shared;
        {
            let mut q = shared.state.lock().expect("pool mutex");
            for task in tasks {
                // SAFETY: erasing the `'scope` lifetime to store the
                // task in the long-lived queue. Sound because this very
                // call blocks until `batch.remaining == 0`, i.e. until
                // every task has finished running — no task (or borrow
                // inside it) outlives the `'scope` the caller holds.
                // On panic the wait still happens before unwinding.
                let task: Task<'static> =
                    unsafe { std::mem::transmute::<Task<'scope>, Task<'static>>(task) };
                q.tasks.push_back((batch.clone(), task));
            }
        }
        shared.work.notify_all();
        // Work the queue ourselves until it drains (tasks of concurrent
        // dispatchers included — helping them can never hurt, and our
        // own batch cannot finish while queued tasks remain unclaimed).
        loop {
            let next = {
                let mut q = shared.state.lock().expect("pool mutex");
                q.tasks.pop_front()
            };
            match next {
                Some((b, task)) => Shared::execute(shared, &b, task),
                None => break,
            }
        }
        // Wait for tasks still running on workers.
        let mut q = shared.state.lock().expect("pool mutex");
        while batch.remaining.load(Ordering::Acquire) != 0 {
            q = shared.done.wait(q).expect("pool mutex");
        }
        drop(q);
        if batch.panicked.load(Ordering::Relaxed) {
            panic!("worker pool task panicked (run poisoned; see worker backtrace above)");
        }
    }
}

/// Live worker threads of one [`WorkerPool`]; see
/// [`WorkerPool::live_workers`].
#[derive(Debug, Clone, Default)]
pub struct LiveWorkers(Arc<AtomicUsize>);

impl LiveWorkers {
    /// Workers spawned and not yet exited.
    pub fn count(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("started", &self.is_started())
            .finish()
    }
}

impl PoolCore {
    /// Spawns the worker threads on first use.
    fn ensure_started(&self) {
        let mut handles = self.handles.lock().expect("pool mutex");
        if !handles.is_empty() {
            return;
        }
        for i in 0..self.workers {
            let shared = self.shared.clone();
            // Relaxed: the count publishes no other data, and `join` in
            // `Drop` orders each worker's final decrement before the drop
            // returns.
            let live = self.live.clone();
            live.0.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("glr-pool-{i}"))
                .spawn(move || {
                    Shared::worker_loop(&shared);
                    live.0.fetch_sub(1, Ordering::Relaxed);
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut q = self.shared.state.lock().expect("pool mutex");
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.get_mut().expect("pool mutex").drain(..) {
            let _ = handle.join();
        }
    }
}

impl Shared {
    /// Runs one task and reports completion to its batch. Panics are
    /// caught so the batch always completes (a deadlocked dispatcher
    /// would be strictly worse than a poisoned one).
    fn execute(shared: &Shared, batch: &Batch, task: Task<'static>) {
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            batch.panicked.store(true, Ordering::Relaxed);
        }
        // Decrement under the mutex: a dispatcher checks `remaining`
        // only while holding it, so the final notify cannot be missed.
        let q = shared.state.lock().expect("pool mutex");
        let was = batch.remaining.fetch_sub(1, Ordering::AcqRel);
        drop(q);
        if was == 1 {
            shared.done.notify_all();
        }
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let next = {
                let mut q = shared.state.lock().expect("pool mutex");
                loop {
                    if let Some(item) = q.tasks.pop_front() {
                        break Some(item);
                    }
                    if q.shutdown {
                        break None;
                    }
                    q = shared.work.wait(q).expect("pool mutex");
                }
            };
            match next {
                Some((batch, task)) => Shared::execute(shared, &batch, task),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn count_tasks(pool: &WorkerPool, n: usize) -> usize {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..n)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::with_threads(4);
        assert_eq!(count_tasks(&pool, 64), 64);
        // The pool is persistent: a second dispatch reuses the workers.
        assert!(pool.is_started());
        assert_eq!(count_tasks(&pool, 3), 3);
    }

    #[test]
    fn tasks_may_mutate_disjoint_borrows() {
        let pool = WorkerPool::with_threads(3);
        let mut data = vec![0u64; 12];
        let tasks: Vec<Task<'_>> = data
            .chunks_mut(4)
            .enumerate()
            .map(|(i, chunk)| {
                Box::new(move || {
                    for v in chunk.iter_mut() {
                        *v = i as u64 + 1;
                    }
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn single_thread_pool_runs_inline_and_never_spawns() {
        let pool = WorkerPool::with_threads(1);
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool.run(vec![Box::new(|| {
            ran_on = Some(std::thread::current().id());
        }) as Task<'_>]);
        assert_eq!(ran_on, Some(caller));
        assert!(!pool.is_started());
        assert_eq!(count_tasks(&pool, 10), 10);
        assert!(!pool.is_started(), "single-thread pool must stay inline");
    }

    #[test]
    fn pool_is_lazy_until_first_wide_dispatch() {
        let pool = WorkerPool::with_threads(4);
        assert!(!pool.is_started());
        // A single task stays inline even on a wide pool.
        assert_eq!(count_tasks(&pool, 1), 1);
        assert!(!pool.is_started());
        assert_eq!(count_tasks(&pool, 2), 2);
        assert!(pool.is_started());
    }

    #[test]
    fn clones_share_the_pool() {
        let pool = WorkerPool::with_threads(3);
        let clone = pool.clone();
        assert_eq!(count_tasks(&clone, 8), 8);
        assert!(pool.is_started());
        assert_eq!(pool.threads(), clone.threads());
    }

    #[test]
    fn panicking_task_poisons_the_batch_without_deadlock() {
        let pool = WorkerPool::with_threads(4);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut tasks: Vec<Task<'_>> = Vec::new();
            tasks.push(Box::new(|| panic!("boom")) as Task<'_>);
            for _ in 0..7 {
                let completed = &completed;
                tasks.push(Box::new(move || {
                    completed.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>);
            }
            pool.run(tasks);
        }));
        let err = result.expect_err("panic must propagate to the dispatcher");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("worker pool task panicked"), "got {msg:?}");
        // Every non-panicking task still ran (the batch completed).
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // The pool survives a poisoned batch.
        assert_eq!(count_tasks(&pool, 5), 5);
    }

    #[test]
    fn budget_grants_and_releases() {
        let budget = ThreadBudget::total(8);
        assert_eq!(budget.limit(), Some(8));
        let a = budget.claim(3);
        assert_eq!(a.granted(), 3);
        let b = budget.claim(7);
        assert_eq!(b.granted(), 4, "only 7 extras exist; 3 are taken");
        assert_eq!(budget.claim(1).granted(), 0);
        drop(a);
        assert_eq!(budget.claim(9).granted(), 3);
    }

    #[test]
    fn unlimited_budget_grants_everything() {
        let budget = ThreadBudget::unlimited();
        assert_eq!(budget.limit(), None);
        assert_eq!(budget.claim(100).granted(), 100);
        assert_eq!(budget.claim(100).granted(), 100);
    }

    #[test]
    fn budget_of_one_degrades_pools_to_serial() {
        let budget = ThreadBudget::total(1);
        let pool = WorkerPool::from_budget(&budget, 8);
        assert_eq!(pool.threads(), 1);
        assert_eq!(count_tasks(&pool, 6), 6);
        assert!(!pool.is_started(), "budget of 1 must never spawn threads");
    }

    #[test]
    fn budget_pools_return_their_claim_on_drop() {
        let budget = ThreadBudget::total(4);
        let pool = WorkerPool::from_budget(&budget, 4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(budget.claim(3).granted(), 0);
        drop(pool);
        assert_eq!(budget.claim(3).granted(), 3);
    }

    #[test]
    fn budget_equality_ignores_claim_state() {
        let a = ThreadBudget::total(4);
        let b = ThreadBudget::total(4);
        let _lease = a.claim(2);
        assert_eq!(a, b);
        assert_ne!(a, ThreadBudget::total(5));
        assert_ne!(a, ThreadBudget::unlimited());
        assert_eq!(format!("{a:?}"), "ThreadBudget(total=4)");
    }
}
