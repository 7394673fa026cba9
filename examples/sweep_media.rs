//! Sweep demo: a declarative radio-range × medium grid executed on the
//! work-queue sweep engine, with the shard/merge pipeline shown in
//! miniature — everything the `experiments` binary does, in ~80 lines.
//!
//! ```text
//! cargo run --release --example sweep_media
//! ```

use glr::core::{Glr, GlrConfig};
use glr::sim::{MediumKind, ReportSet, RunMetrics, Scenario, SimConfig, Sweep};

fn main() {
    // The grid: two radio ranges × three media, 300 simulated seconds,
    // 100 paper-style messages, 3 seeded runs per cell.
    let mut cells = Vec::new();
    for range in [100.0, 200.0] {
        for medium in [
            MediumKind::Contention,
            MediumKind::Ideal,
            MediumKind::shadowing(),
        ] {
            let config = SimConfig::paper(range, 7).with_duration(300.0);
            cells.push(
                Scenario::new(format!("range {range:.0} m / {medium}"), config)
                    .with_messages(100)
                    .with_medium(medium),
            );
        }
    }
    let runs = 3;
    let glr = GlrConfig::paper();
    // Each worker keeps only the run's metric row.
    let run_cell = |sc: &Scenario, run: usize| {
        RunMetrics::from_stats(&sc.run_nth(run, Glr::factory(glr.clone())))
    };

    // One work queue, all (cell, run) units, as many threads as cores.
    let results = Sweep::new(runs).execute(&cells, run_cell);
    // The in-memory flavour of the determinism guarantee: the parallel
    // sweep equals the serial one.
    let serial = Sweep::new(runs)
        .with_threads(1)
        .execute_serial(&cells, run_cell);
    assert_eq!(serial, results);
    let report = ReportSet::from_sweep(results, |i| cells[i].label.clone());

    println!("GLR across media — {} cells x {} runs", cells.len(), runs);
    println!(
        "{:<28} {:>16} {:>14} {:>12}",
        "cell", "delivery %", "latency (s)", "hops"
    );
    for cell in &report.cells {
        println!(
            "{:<28} {:>16} {:>14} {:>12}",
            cell.label,
            cell.delivery_pct().display(1),
            cell.avg_latency(300.0).display(1),
            cell.avg_hops().display(2),
        );
    }

    // The same grid split across two "machines": each shard executes its
    // half, writes JSON, and the merged report is byte-identical to the
    // unsharded one.
    let shards: Vec<String> = (0..2)
        .map(|i| {
            let part = Sweep::new(runs).with_shard(i, 2).execute(&cells, run_cell);
            ReportSet::from_sweep(part, |c| cells[c].label.clone()).to_json()
        })
        .collect();
    let merged = ReportSet::merge(
        shards
            .iter()
            .map(|s| ReportSet::from_json(s).expect("shard JSON parses"))
            .collect(),
    )
    .expect("shards are disjoint");
    assert_eq!(merged.to_json(), report.to_json());
    println!("\nshard 0/2 + shard 1/2 merged == unsharded report (byte-identical)");
    println!("parallel sweep == serial sweep (bit-identical run metrics)");
}
