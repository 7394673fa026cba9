//! Shared experiment plumbing for the GLR reproduction harness.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper; this library holds the pieces it shares with the Criterion
//! benches: experiment cells and their sweep execution, workload sizing,
//! and paper-style table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod render;

pub use render::{plot_data, svg_topology, Series};

use glr_core::{Glr, GlrConfig};
use glr_epidemic::Epidemic;
use glr_sim::{ReportSet, RunStats, Scenario, Sweep};

/// How much simulation an experiment buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Independent runs (seeds) per data point. The paper uses 10.
    pub runs: usize,
    /// Scale factor (per mille) applied to workload sizes. 1000 = paper
    /// scale.
    pub scale_pm: u32,
}

impl Effort {
    /// Paper-fidelity effort: 10 runs, full workloads.
    pub const FULL: Effort = Effort {
        runs: 10,
        scale_pm: 1000,
    };

    /// Default effort: 5 runs, full workloads.
    pub const DEFAULT: Effort = Effort {
        runs: 5,
        scale_pm: 1000,
    };

    /// Smoke-test effort for CI: 2 runs, quarter workloads.
    pub const QUICK: Effort = Effort {
        runs: 2,
        scale_pm: 250,
    };

    /// Scales a workload size.
    pub fn scale(&self, count: usize) -> usize {
        ((count as u64 * self.scale_pm as u64) / 1000).max(1) as usize
    }
}

/// Which routing protocol an experiment cell runs.
#[derive(Debug, Clone)]
pub enum Proto {
    /// The paper's protocol with the given configuration.
    Glr(GlrConfig),
    /// The epidemic-routing baseline.
    Epidemic,
}

impl Proto {
    /// A short stable name for labels (`"glr"` / `"epidemic"`).
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Glr(_) => "glr",
            Proto::Epidemic => "epidemic",
        }
    }
}

/// One cell of an experiment grid: a declarative [`Scenario`] plus the
/// protocol to run over it. The experiments binary expands every table
/// and figure into a flat `Vec<Cell>` and hands it to [`execute_cells`];
/// nothing below this layer loops over parameters by hand.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The scenario (config + workload + medium); its label is the cell
    /// label used in tables and JSON reports.
    pub scenario: Scenario,
    /// The protocol under test.
    pub proto: Proto,
}

impl Cell {
    /// A GLR cell.
    pub fn glr(scenario: Scenario, glr: GlrConfig) -> Self {
        Cell {
            scenario,
            proto: Proto::Glr(glr),
        }
    }

    /// An epidemic-routing cell.
    pub fn epidemic(scenario: Scenario) -> Self {
        Cell {
            scenario,
            proto: Proto::Epidemic,
        }
    }

    /// Executes run `run` of this cell (seeded per
    /// [`Scenario::run_nth`]). A pure function of `(cell, run)`, as the
    /// sweep engine requires.
    pub fn run(&self, run: usize) -> RunStats {
        match &self.proto {
            Proto::Glr(cfg) => self.scenario.run_nth(run, Glr::factory(cfg.clone())),
            Proto::Epidemic => self.scenario.run_nth(run, Epidemic::new),
        }
    }
}

/// Executes an experiment grid on the sweep engine and distils the
/// results into a shard-mergeable [`ReportSet`].
///
/// `threads` of `None` uses one worker per core; `shard` of
/// `Some((i, n))` executes only every `n`-th cell (the report keeps
/// global cell indices so shard outputs merge back together); `skip`
/// lists cells already completed by an interrupted run — they are not
/// re-executed and are absent from the returned report (merge it with
/// the old one to reassemble the full grid). None of these knobs
/// affects the results.
pub fn execute_cells(
    cells: &[Cell],
    runs: usize,
    threads: Option<usize>,
    shard: Option<(usize, usize)>,
    skip: &[usize],
) -> ReportSet {
    let mut sweep = Sweep::new(runs).skipping(skip.iter().copied());
    if let Some(t) = threads {
        sweep = sweep.with_threads(t);
    }
    if let Some((index, of)) = shard {
        sweep = sweep.with_shard(index, of);
    }
    let results = sweep.execute(cells, |cell, run| cell.run(run));
    ReportSet::from_sweep(&results, |i| cells[i].scenario.label.clone())
}

/// Prints a table row: a label column then value columns.
pub fn row(label: &str, cells: &[String]) {
    print!("  {label:<26}");
    for c in cells {
        print!(" | {c:>18}");
    }
    println!();
}

/// Prints a table header and a rule underneath.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    print!("  {:<26}", "");
    for c in columns {
        print!(" | {c:>18}");
    }
    println!();
    println!("  {}", "-".repeat(26 + columns.len() * 21));
}

#[cfg(test)]
mod tests {
    use super::*;
    use glr_sim::SimConfig;

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::FULL.scale(1980), 1980);
        assert_eq!(Effort::QUICK.scale(1980), 495);
        assert_eq!(Effort::QUICK.scale(1), 1);
    }

    #[test]
    fn execute_cells_runs_grid_and_shards_merge() {
        let sim = SimConfig::paper(250.0, 42).with_duration(30.0);
        let cells = vec![
            Cell::glr(
                Scenario::new("glr-cell", sim.clone()).with_messages(5),
                GlrConfig::paper(),
            ),
            Cell::epidemic(Scenario::new("epi-cell", sim).with_messages(5)),
        ];
        let full = execute_cells(&cells, 2, Some(2), None, &[]);
        assert!(full.is_complete(2));
        assert_eq!(full.cells[0].label, "glr-cell");
        assert!(full
            .cells
            .iter()
            .all(|c| c.runs.iter().all(|r| r.messages_created == 5)));

        let s0 = execute_cells(&cells, 2, None, Some((0, 2)), &[]);
        let s1 = execute_cells(&cells, 2, None, Some((1, 2)), &[]);
        assert!(!s0.is_complete(2));
        let merged = ReportSet::merge(vec![s1, s0]).expect("disjoint shards");
        assert_eq!(merged, full);
        assert_eq!(merged.to_json(), full.to_json());
    }
}
