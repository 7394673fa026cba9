//! Lifecycle properties of the persistent worker pool as the engine
//! uses it: dropping a pool (or the simulation owning it) joins every
//! worker — no threads leak across runs; a panicking task poisons the
//! dispatch with a clear error instead of deadlocking the engine's
//! commit phase; and a thread budget of 1 degrades everything to the
//! serial path without ever spawning a thread.

use glr_sim::pool::Task;
use glr_sim::{
    Ctx, EngineKind, LiveWorkers, MessageInfo, NodeId, Protocol, RunStats, SimConfig, Simulation,
    ThreadBudget, WorkerPool, Workload,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Idle;
impl Protocol for Idle {
    type Packet = ();
    fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
    fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
}

fn dispatch_counts(pool: &WorkerPool, tasks: usize) -> usize {
    let counter = AtomicUsize::new(0);
    let jobs: Vec<Task<'_>> = (0..tasks)
        .map(|_| {
            let counter = &counter;
            Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }) as Task<'_>
        })
        .collect();
    pool.run(jobs);
    counter.load(Ordering::Relaxed)
}

// Thread checks read each pool's own live-worker count, never the
// process's thread count: sibling tests run in parallel and spawn pools
// of their own.

#[test]
fn pool_drop_joins_all_workers() {
    let pool = WorkerPool::with_threads(4);
    let live = pool.live_workers();
    assert_eq!(live.count(), 0, "workers spawn lazily");
    assert_eq!(dispatch_counts(&pool, 32), 32);
    assert!(pool.is_started());
    assert_eq!(live.count(), 3, "3 workers must be live");
    drop(pool);
    assert_eq!(live.count(), 0, "dropping the pool joins every worker");
}

/// Runs one simulation and returns its statistics, the engine pool's live
/// workers at the end of the run, and the pool's counter after teardown.
fn run_counting_workers(cfg: SimConfig, wl: Workload) -> (RunStats, usize, LiveWorkers) {
    let mut seen = None;
    let stats = Simulation::new(cfg, wl, |_, _| Idle).run_inspect(|sim| {
        let live = sim.engine_pool().live_workers();
        seen = Some((live.count(), live));
    });
    let (at_end, live) = seen.expect("inspect runs");
    (stats, at_end, live)
}

#[test]
fn simulations_leak_no_threads() {
    // Forced-fanout parallel runs: every beacon dispatches to the pool.
    for seed in 0..3 {
        let cfg = SimConfig::paper(250.0, seed)
            .with_nodes(30)
            .with_duration(20.0)
            .with_engine(EngineKind::Parallel(4))
            .with_parallel_grain(1);
        let wl = Workload::paper_style(cfg.n_nodes, 5, 1000);
        let (stats, at_end, live) = run_counting_workers(cfg, wl);
        assert!(stats.control_tx > 0);
        assert_eq!(at_end, 3, "the fan-out must have started the pool");
        assert_eq!(live.count(), 0, "workers outlived the simulation");
    }
}

#[test]
fn panicking_task_errors_instead_of_deadlocking() {
    let pool = WorkerPool::with_threads(4);
    let survivors = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut tasks: Vec<Task<'_>> = vec![Box::new(|| panic!("injected fault"))];
        for _ in 0..5 {
            let survivors = &survivors;
            tasks.push(Box::new(move || {
                survivors.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.run(tasks);
    }));
    let err = result.expect_err("the dispatcher must observe the poison");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("worker pool task panicked"),
        "poison must carry a clear error, got {msg:?}"
    );
    // The whole batch still completed before the error surfaced — the
    // commit phase's borrows were released, nothing deadlocked.
    assert_eq!(survivors.load(Ordering::Relaxed), 5);
    // And the pool remains usable afterwards.
    assert_eq!(dispatch_counts(&pool, 8), 8);
}

#[test]
fn budget_of_one_runs_serial_and_spawns_nothing() {
    let budget = ThreadBudget::total(1);
    let cfg = SimConfig::paper(250.0, 9)
        .with_nodes(30)
        .with_duration(30.0)
        .with_engine(EngineKind::Parallel(8))
        .with_parallel_grain(1)
        .with_thread_budget(budget);
    let wl = Workload::paper_style(cfg.n_nodes, 5, 1000);
    let serial_cfg = cfg
        .clone()
        .with_engine(EngineKind::Serial)
        .with_thread_budget(ThreadBudget::unlimited());
    let (parallel, at_end, _) = run_counting_workers(cfg, wl.clone());
    let serial = Simulation::new(serial_cfg, wl, |_, _| Idle).run();
    assert_eq!(serial, parallel);
    assert_eq!(at_end, 0, "budget of 1 must never spawn workers");
}
