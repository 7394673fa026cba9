//! The generic parameter-sweep engine.
//!
//! Every table in the paper is a grid — radio range × copy policy ×
//! storage × workload density — with each cell averaged over seeded
//! runs. [`Sweep`] executes such grids: the caller expands its axes into
//! a flat cell list (typically `Vec<Scenario>`, but any `Sync` cell type
//! works), and the engine flattens `(cell, run)` pairs into a work queue
//! that scoped worker threads drain via an atomic cursor — long cells
//! never leave threads idle the way per-cell fan-out would. This is the
//! only place the simulator uses more than one thread: each run itself
//! is single-threaded, and the paper's grids (many small 50-node runs)
//! parallelise across `(cell, run)` units.
//!
//! Determinism: a work unit is a pure function of `(cell, run index)`
//! (the run function derives the seed from the cell's base seed plus the
//! run index), and results are stored by unit index, so the outcome is
//! bit-identical to [`Sweep::execute_serial`] for any thread count and
//! completion order — asserted by the tests here and in
//! `tests/sweep_shard.rs`. Across machines the same holds whenever the
//! hosts compute `f64` math identically (same binary, or same target +
//! libm; see [`crate::ShadowingMedium`] for the one medium that leans
//! on libm-rounded functions).
//!
//! The run function returns whatever the caller keeps of a run — whole
//! [`crate::RunStats`] in the determinism tests, a [`crate::RunMetrics`]
//! row in the experiment harness — so a worker can distil each run
//! before handing it back, and per-message records never outlive the
//! run that produced them.
//!
//! Sharding: [`Sweep::with_shard`] restricts execution to every `n`-th
//! cell so independent invocations (other processes, other machines)
//! cover disjoint cell sets. Each shard's [`CellRuns`] carry global cell
//! indices, and [`crate::ReportSet::merge`] reassembles the shards'
//! reports exactly as if the grid had run unsharded.
//!
//! Resume: [`Sweep::skipping`] excludes already-completed cells (e.g.
//! those present in a partial report written before an interruption), so
//! a killed run continues where it stopped; merging the old and new
//! results is byte-identical to an uninterrupted run.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Which slice of a sweep's cells one invocation executes: the cells `c`
/// with `c % of == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shard {
    index: usize,
    of: usize,
}

/// The sweep engine: run count, worker threads, an optional shard, and
/// an optional set of cells to skip (resume support).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    runs_per_cell: usize,
    threads: usize,
    shard: Option<Shard>,
    skip: Vec<usize>,
}

impl Sweep {
    /// A sweep averaging every cell over `runs_per_cell` seeded runs,
    /// with one worker per available core and no sharding.
    ///
    /// # Panics
    ///
    /// Panics if `runs_per_cell == 0` — a cell needs at least one run.
    pub fn new(runs_per_cell: usize) -> Self {
        assert!(runs_per_cell > 0, "need at least one run per cell");
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Sweep {
            runs_per_cell,
            threads,
            shard: None,
            skip: Vec::new(),
        }
    }

    /// Returns the sweep with an explicit worker-thread count (results
    /// are independent of it; this is the knob for oversubscribed or
    /// cgroup-limited hosts).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the sweep restricted to shard `index` of `of`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < of`.
    pub fn with_shard(mut self, index: usize, of: usize) -> Self {
        assert!(index < of, "shard index {index} out of range 0..{of}");
        self.shard = Some(Shard { index, of });
        self
    }

    /// Returns the sweep with the given global cell indices excluded —
    /// the resume mechanism: pass the cells already present in a
    /// previously written report (e.g.
    /// [`crate::ReportSet::completed_cells`] of a partial `--json` file
    /// from an interrupted run) and only the missing cells execute.
    /// Because every run is a pure function of `(cell, run index)`,
    /// merging the old report with the resumed one reproduces an
    /// uninterrupted run byte for byte (`tests/sweep_shard.rs`).
    pub fn skipping(mut self, cells: impl IntoIterator<Item = usize>) -> Self {
        self.skip.extend(cells);
        self.skip.sort_unstable();
        self.skip.dedup();
        self
    }

    /// The global cell indices this sweep will execute.
    fn owned_cells(&self, n_cells: usize) -> Vec<usize> {
        (0..n_cells)
            .filter(|&c| {
                self.shard.is_none_or(|s| c % s.of == s.index)
                    && self.skip.binary_search(&c).is_err()
            })
            .collect()
    }

    /// Executes the sweep across worker threads.
    ///
    /// `run_fn` receives a cell and a run index `0..runs_per_cell` and
    /// returns what the caller keeps of that run (its
    /// [`crate::RunStats`], or a [`crate::RunMetrics`] row distilled on
    /// the worker); it is the caller's job to derive the seed from the
    /// two (e.g. [`crate::Scenario::run_seeded`] with
    /// `cell.config.seed + run`). `run_fn` must be a pure function of its
    /// arguments for the determinism guarantee to hold.
    ///
    /// Returns the executed cells in ascending cell order.
    ///
    /// # Panics
    ///
    /// Propagates the panic of a failing run once the other workers
    /// have drained the queue.
    pub fn execute<C: Sync, R: Send>(
        &self,
        cells: &[C],
        run_fn: impl Fn(&C, usize) -> R + Send + Sync,
    ) -> Vec<CellRuns<R>> {
        let owned = self.owned_cells(cells.len());
        let units: Vec<(usize, usize)> = owned
            .iter()
            .flat_map(|&c| (0..self.runs_per_cell).map(move |r| (c, r)))
            .collect();
        let threads = self.threads.min(units.len());
        if threads <= 1 {
            return self.execute_serial(cells, run_fn);
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = units.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(c, r)) = units.get(i) else {
                                break done;
                            };
                            done.push((i, run_fn(&cells[c], r)));
                        }
                    })
                })
                .collect();
            for worker in workers {
                let done = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, result) in done {
                    slots[i] = Some(result);
                }
            }
        });

        let mut flat = slots
            .into_iter()
            .map(|s| s.expect("every unit index is claimed exactly once"));
        owned
            .into_iter()
            .map(|cell| CellRuns {
                cell,
                runs: (0..self.runs_per_cell)
                    .map(|_| flat.next().expect("unit count mismatch"))
                    .collect(),
            })
            .collect()
    }

    /// Executes the sweep on the calling thread — the reference the
    /// parallel path is validated against, and the variant for stateful
    /// (`FnMut`) run functions.
    pub fn execute_serial<C, R>(
        &self,
        cells: &[C],
        mut run_fn: impl FnMut(&C, usize) -> R,
    ) -> Vec<CellRuns<R>> {
        self.owned_cells(cells.len())
            .into_iter()
            .map(|cell| CellRuns {
                cell,
                runs: (0..self.runs_per_cell)
                    .map(|r| run_fn(&cells[cell], r))
                    .collect(),
            })
            .collect()
    }
}

/// One executed cell: its global index in the sweep's cell list and the
/// results of its seeded runs, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRuns<R> {
    /// Global cell index (stable across shards).
    pub cell: usize,
    /// Per-run results, indexed by run.
    pub runs: Vec<R>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MessageId, NodeId};
    use crate::stats::RunStats;
    use crate::time::SimTime;

    /// A deterministic fake run derived only from (cell value, run).
    fn fake_run(cell: u64, run: usize) -> RunStats {
        let mut s = RunStats::new(2);
        let total = 8;
        let delivered = ((cell + run as u64) % 7) as usize;
        for i in 0..total {
            let id = MessageId {
                src: NodeId(0),
                seq: i as u32,
            };
            s.register_message(id, NodeId(0), NodeId(1), SimTime::ZERO);
            if i < delivered {
                s.record_delivery(id, SimTime::from_secs(5.0 + i as f64), 2);
            }
        }
        s
    }

    /// Shard (or resume) outputs concatenated and sorted by cell.
    fn concat_sorted(parts: Vec<Vec<CellRuns<RunStats>>>) -> Vec<CellRuns<RunStats>> {
        let mut cells: Vec<_> = parts.into_iter().flatten().collect();
        cells.sort_by_key(|c| c.cell);
        cells
    }

    fn cell_ids(cells: &[CellRuns<RunStats>]) -> Vec<usize> {
        cells.iter().map(|c| c.cell).collect()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let cells: Vec<u64> = (0..13).collect();
        let run_fn = |c: &u64, r: usize| fake_run(*c, r);
        let serial = Sweep::new(3).with_threads(1).execute_serial(&cells, run_fn);
        for threads in [2, 4, 8] {
            let par = Sweep::new(3).with_threads(threads).execute(&cells, run_fn);
            assert_eq!(par, serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn shards_partition_and_merge() {
        let cells: Vec<u64> = (0..11).collect();
        let run_fn = |c: &u64, r: usize| fake_run(*c, r);
        let full = Sweep::new(2).execute(&cells, run_fn);
        assert_eq!(cell_ids(&full), (0..cells.len()).collect::<Vec<_>>());
        let parts: Vec<_> = (0..3)
            .map(|i| Sweep::new(2).with_shard(i, 3).execute(&cells, run_fn))
            .collect();
        // Disjoint cover.
        let counts: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(counts, cells.len());
        assert!(parts[0].len() < cells.len());
        assert_eq!(concat_sorted(parts), full);
    }

    #[test]
    fn shard_may_own_nothing() {
        let cells: Vec<u64> = (0..2).collect();
        let res = Sweep::new(1)
            .with_shard(3, 4)
            .execute(&cells, |c, r| fake_run(*c, r));
        assert!(res.is_empty());
    }

    #[test]
    fn get_returns_cell_runs() {
        let cells: Vec<u64> = (0..4).collect();
        let res = Sweep::new(2)
            .with_shard(1, 2)
            .execute(&cells, |c, r| fake_run(*c, r));
        assert_eq!(cell_ids(&res), vec![1, 3], "shard 1/2 owns odd cells");
        let c3 = &res[1];
        assert_eq!(c3.runs.len(), 2);
        assert_eq!(c3.runs[0], fake_run(3, 0));
        assert_eq!(c3.runs[1], fake_run(3, 1));
    }

    #[test]
    fn skipping_resumes_to_the_same_results() {
        let cells: Vec<u64> = (0..9).collect();
        let run_fn = |c: &u64, r: usize| fake_run(*c, r);
        let full = Sweep::new(2).execute(&cells, run_fn);
        // An "interrupted" run finished only cells 0, 3, 4.
        let done = [0usize, 3, 4];
        let partial: Vec<_> = full
            .iter()
            .filter(|c| done.contains(&c.cell))
            .cloned()
            .collect();
        let resumed = Sweep::new(2).skipping(done).execute(&cells, run_fn);
        assert_eq!(resumed.len(), cells.len() - done.len());
        assert!(!cell_ids(&resumed).contains(&3));
        assert_eq!(concat_sorted(vec![partial, resumed]), full);
    }

    #[test]
    fn skipping_composes_with_shards() {
        let cells: Vec<u64> = (0..10).collect();
        let run_fn = |c: &u64, r: usize| fake_run(*c, r);
        let res = Sweep::new(1)
            .with_shard(0, 2) // owns even cells
            .skipping([0usize, 1, 4])
            .execute(&cells, run_fn);
        assert_eq!(cell_ids(&res), vec![2, 6, 8]);
    }

    /// A sweep whose unit (cell 5, run 1) panics, at `threads` workers.
    fn sweep_with_failing_unit(threads: usize) {
        let cells: Vec<u64> = (0..8).collect();
        let _ = Sweep::new(2).with_threads(threads).execute(&cells, |c, r| {
            assert!(!(*c == 5 && r == 1), "unit (5, 1) failed");
            fake_run(*c, r)
        });
    }

    #[test]
    #[should_panic(expected = "unit (5, 1) failed")]
    fn panicking_run_propagates_at_two_threads() {
        sweep_with_failing_unit(2);
    }

    #[test]
    #[should_panic(expected = "unit (5, 1) failed")]
    fn panicking_run_propagates_at_four_threads() {
        sweep_with_failing_unit(4);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = Sweep::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_shard_rejected() {
        let _ = Sweep::new(1).with_shard(4, 4);
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let cells: Vec<u64> = Vec::new();
        let res = Sweep::new(5).execute(&cells, |c, r| fake_run(*c, r));
        assert!(res.is_empty());
    }
}
