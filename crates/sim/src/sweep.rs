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
//! Sharding: [`Sweep::with_shard`] restricts execution to every `n`-th
//! cell so independent invocations (other processes, other machines)
//! cover disjoint cell sets. Each shard's [`SweepResults`] carries
//! global cell indices, and [`SweepResults::merge`] reassembles the full
//! grid exactly as if it had run unsharded.
//!
//! Resume: [`Sweep::skipping`] excludes already-completed cells (e.g.
//! those present in a partial report written before an interruption), so
//! a killed run continues where it stopped; merging the old and new
//! results is byte-identical to an uninterrupted run.

use crate::stats::RunStats;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which slice of a sweep's cells one invocation executes: cells with
/// `index % of == index_of_this_shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl Shard {
    /// Creates a shard descriptor.
    ///
    /// # Panics
    ///
    /// Panics unless `index < of`.
    pub fn new(index: usize, of: usize) -> Self {
        assert!(index < of, "shard index {index} out of range 0..{of}");
        Shard { index, of }
    }

    /// Whether this shard owns cell `cell`.
    pub fn owns(&self, cell: usize) -> bool {
        cell % self.of == self.index
    }
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
        self.shard = Some(Shard::new(index, of));
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

    /// Runs per cell.
    pub fn runs_per_cell(&self) -> usize {
        self.runs_per_cell
    }

    /// The global cell indices this sweep will execute.
    fn owned_cells(&self, n_cells: usize) -> Vec<usize> {
        (0..n_cells)
            .filter(|&c| {
                self.shard.is_none_or(|s| s.owns(c)) && self.skip.binary_search(&c).is_err()
            })
            .collect()
    }

    /// Executes the sweep across worker threads.
    ///
    /// `run_fn` receives a cell and a run index `0..runs_per_cell` and
    /// must return that run's [`RunStats`]; it is the caller's job to
    /// derive the seed from the two (e.g.
    /// [`crate::Scenario::run_seeded`] with `cell.config.seed + run`).
    /// `run_fn` must be a pure function of its arguments for the
    /// determinism guarantee to hold.
    ///
    /// # Panics
    ///
    /// Propagates the panic of a failing run once the other workers
    /// have drained the queue.
    pub fn execute<C: Sync>(
        &self,
        cells: &[C],
        run_fn: impl Fn(&C, usize) -> RunStats + Send + Sync,
    ) -> SweepResults {
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
        let mut slots: Vec<Option<RunStats>> = units.iter().map(|_| None).collect();
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
                for (i, stats) in done {
                    slots[i] = Some(stats);
                }
            }
        });

        let mut flat = slots
            .into_iter()
            .map(|s| s.expect("every unit index is claimed exactly once"));
        let cells = owned
            .into_iter()
            .map(|cell| CellRuns {
                cell,
                runs: (0..self.runs_per_cell)
                    .map(|_| flat.next().expect("unit count mismatch"))
                    .collect(),
            })
            .collect();
        SweepResults { cells }
    }

    /// Executes the sweep on the calling thread — the reference the
    /// parallel path is validated against, and the variant for stateful
    /// (`FnMut`) run functions.
    pub fn execute_serial<C>(
        &self,
        cells: &[C],
        mut run_fn: impl FnMut(&C, usize) -> RunStats,
    ) -> SweepResults {
        let cells = self
            .owned_cells(cells.len())
            .into_iter()
            .map(|cell| CellRuns {
                cell,
                runs: (0..self.runs_per_cell)
                    .map(|r| run_fn(&cells[cell], r))
                    .collect(),
            })
            .collect();
        SweepResults { cells }
    }
}

/// One executed cell: its global index in the sweep's cell list and the
/// statistics of its seeded runs, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRuns {
    /// Global cell index (stable across shards).
    pub cell: usize,
    /// Per-run statistics, indexed by run.
    pub runs: Vec<RunStats>,
}

/// Results of a sweep (or of one shard of it), ordered by cell index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepResults {
    cells: Vec<CellRuns>,
}

impl SweepResults {
    /// The executed cells, ascending by global cell index.
    pub fn cells(&self) -> &[CellRuns] {
        &self.cells
    }

    /// The runs of cell `cell`, if this (possibly sharded) result set
    /// executed it.
    pub fn get(&self, cell: usize) -> Option<&CellRuns> {
        self.cells.iter().find(|c| c.cell == cell)
    }

    /// Whether every cell of an `n_cells`-cell sweep is present.
    pub fn is_complete(&self, n_cells: usize) -> bool {
        self.cells.len() == n_cells && self.cells.iter().enumerate().all(|(i, c)| c.cell == i)
    }

    /// Merges shard results into one set, re-sorting by cell index —
    /// the in-memory counterpart of the JSON-level
    /// [`crate::ReportSet::merge`].
    ///
    /// # Panics
    ///
    /// Panics if two shards executed the same cell.
    pub fn merge(parts: Vec<SweepResults>) -> SweepResults {
        let mut cells: Vec<CellRuns> = parts.into_iter().flat_map(|p| p.cells).collect();
        cells.sort_by_key(|c| c.cell);
        for w in cells.windows(2) {
            assert!(
                w[0].cell != w[1].cell,
                "cell {} present in more than one shard",
                w[0].cell
            );
        }
        SweepResults { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MessageId, NodeId};
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
        assert!(full.is_complete(cells.len()));
        let parts: Vec<SweepResults> = (0..3)
            .map(|i| Sweep::new(2).with_shard(i, 3).execute(&cells, run_fn))
            .collect();
        // Disjoint cover.
        let counts: usize = parts.iter().map(|p| p.cells().len()).sum();
        assert_eq!(counts, cells.len());
        assert!(!parts[0].is_complete(cells.len()));
        let merged = SweepResults::merge(parts);
        assert_eq!(merged, full);
        assert!(merged.is_complete(cells.len()));
    }

    #[test]
    fn shard_may_own_nothing() {
        let cells: Vec<u64> = (0..2).collect();
        let res = Sweep::new(1)
            .with_shard(3, 4)
            .execute(&cells, |c, r| fake_run(*c, r));
        assert!(res.cells().is_empty());
        assert!(res.get(0).is_none());
    }

    #[test]
    fn get_returns_cell_runs() {
        let cells: Vec<u64> = (0..4).collect();
        let res = Sweep::new(2)
            .with_shard(1, 2)
            .execute(&cells, |c, r| fake_run(*c, r));
        assert!(res.get(0).is_none());
        let c3 = res.get(3).expect("shard 1/2 owns odd cells");
        assert_eq!(c3.cell, 3);
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
        let partial = SweepResults {
            cells: full
                .cells()
                .iter()
                .filter(|c| done.contains(&c.cell))
                .cloned()
                .collect(),
        };
        let resumed = Sweep::new(2).skipping(done).execute(&cells, run_fn);
        assert_eq!(resumed.cells().len(), cells.len() - done.len());
        assert!(resumed.get(3).is_none());
        let merged = SweepResults::merge(vec![partial, resumed]);
        assert_eq!(merged, full);
    }

    #[test]
    fn skipping_composes_with_shards() {
        let cells: Vec<u64> = (0..10).collect();
        let run_fn = |c: &u64, r: usize| fake_run(*c, r);
        let res = Sweep::new(1)
            .with_shard(0, 2) // owns even cells
            .skipping([0usize, 1, 4])
            .execute(&cells, run_fn);
        let owned: Vec<usize> = res.cells().iter().map(|c| c.cell).collect();
        assert_eq!(owned, vec![2, 6, 8]);
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
    #[should_panic(expected = "more than one shard")]
    fn overlapping_merge_rejected() {
        let cells: Vec<u64> = (0..3).collect();
        let a = Sweep::new(1).execute(&cells, |c, r| fake_run(*c, r));
        let b = Sweep::new(1)
            .with_shard(0, 2)
            .execute(&cells, |c, r| fake_run(*c, r));
        let _ = SweepResults::merge(vec![a, b]);
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let cells: Vec<u64> = Vec::new();
        let res = Sweep::new(5).execute(&cells, |c, r| fake_run(*c, r));
        assert!(res.cells().is_empty());
        assert!(res.is_complete(0));
    }
}
