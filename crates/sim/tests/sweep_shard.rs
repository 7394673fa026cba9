//! End-to-end guarantees of the sweep/shard/report pipeline over real
//! simulations: results are bit-identical across thread counts, shard
//! splits reassemble exactly, and the JSON round trip is byte-stable —
//! so shards produced on different machines merge into the same report
//! an unsharded run would have written.

use glr_sim::{
    CellRuns, Ctx, MediumKind, MessageInfo, NodeId, PacketKind, Protocol, ReportSet, RunMetrics,
    RunStats, Scenario, SimConfig, Sweep,
};

/// Forwards to the destination when it is in (true) range.
struct Direct;

impl Protocol for Direct {
    type Packet = MessageInfo;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, MessageInfo>, info: MessageInfo) {
        if ctx.true_pos(info.dst).dist(ctx.my_pos()) <= ctx.config().radio_range {
            let _ = ctx.send(info.dst, info, info.size, PacketKind::Data);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, MessageInfo>, _: NodeId, pkt: MessageInfo) {
        if pkt.dst == ctx.me() {
            ctx.deliver(pkt.id, 1);
        }
    }
}

/// A 6-cell grid: radio range × medium, the shape of the paper's tables.
fn grid() -> Vec<Scenario> {
    let mut cells = Vec::new();
    for range in [100.0, 200.0] {
        for medium in [
            MediumKind::Contention,
            MediumKind::Ideal,
            MediumKind::shadowing(),
        ] {
            let cfg = SimConfig::paper(range, 30).with_duration(30.0);
            cells.push(
                Scenario::new(format!("range {range} m / {medium}"), cfg)
                    .with_messages(15)
                    .with_medium(medium),
            );
        }
    }
    cells
}

fn run_cell(sc: &Scenario, run: usize) -> RunStats {
    sc.run_nth(run, |_, _| Direct)
}

/// What the experiment harness keeps of a run: its metric row.
fn run_metrics(sc: &Scenario, run: usize) -> RunMetrics {
    RunMetrics::from_stats(&run_cell(sc, run))
}

const RUNS: usize = 2;

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let cells = grid();
    let serial = Sweep::new(RUNS)
        .with_threads(1)
        .execute_serial(&cells, run_cell);
    for threads in [2, 4, 8] {
        let par = Sweep::new(RUNS)
            .with_threads(threads)
            .execute(&cells, run_cell);
        assert_eq!(par, serial, "sweep diverged at {threads} threads");
    }
}

#[test]
fn shard_split_reassembles_exactly() {
    let cells = grid();
    let full = Sweep::new(RUNS).execute(&cells, run_cell);
    let full_cells: Vec<usize> = full.iter().map(|c| c.cell).collect();
    assert_eq!(full_cells, (0..cells.len()).collect::<Vec<_>>());
    for n_shards in [2usize, 3, 4] {
        let mut merged: Vec<CellRuns<RunStats>> = (0..n_shards)
            .flat_map(|i| {
                Sweep::new(RUNS)
                    .with_shard(i, n_shards)
                    .execute(&cells, run_cell)
            })
            .collect();
        merged.sort_by_key(|c| c.cell);
        assert_eq!(merged, full, "{n_shards}-way shard split diverged");
    }
}

#[test]
fn shard_json_merge_matches_unsharded_byte_for_byte() {
    let cells = grid();
    let label = |i: usize| cells[i].label.clone();

    let full = ReportSet::from_sweep(Sweep::new(RUNS).execute(&cells, run_metrics), label);
    let full_json = full.to_json();

    // Two shard "machines" write their JSON files independently...
    let shard_jsons: Vec<String> = (0..2)
        .map(|i| {
            let res = Sweep::new(RUNS)
                .with_shard(i, 2)
                .execute(&cells, run_metrics);
            ReportSet::from_sweep(res, label).to_json()
        })
        .collect();

    // ... and merging the parsed files reproduces the unsharded report
    // exactly, down to the serialised bytes.
    let parts: Vec<ReportSet> = shard_jsons
        .iter()
        .map(|s| ReportSet::from_json(s).expect("shard JSON parses"))
        .collect();
    let merged = ReportSet::merge(parts).expect("disjoint shards merge");
    assert_eq!(merged, full);
    assert_eq!(merged.to_json(), full_json);
}

#[test]
fn kill_and_resume_round_trip_is_byte_identical() {
    let cells = grid();
    let label = |i: usize| cells[i].label.clone();
    let context = "grid=test; runs=2";

    // The uninterrupted reference run.
    let full_json = ReportSet::from_sweep(Sweep::new(RUNS).execute(&cells, run_metrics), label)
        .with_context(context)
        .to_json();

    // A run killed partway: only cells 0, 2 and 5 made it into the
    // report file before the process died.
    let finished = [0usize, 2, 5];
    let killed = Sweep::new(RUNS)
        .skipping((0..cells.len()).filter(|c| !finished.contains(c)))
        .execute(&cells, run_metrics);
    let partial_json = ReportSet::from_sweep(killed, label)
        .with_context(context)
        .to_json();

    // Resume: parse the partial file, skip its completed cells, run the
    // rest, merge — byte-identical to the uninterrupted report.
    let partial = ReportSet::from_json(&partial_json).expect("partial report parses");
    let resumed = Sweep::new(RUNS)
        .skipping(partial.completed_cells())
        .execute(&cells, run_metrics);
    let resumed_report = ReportSet::from_sweep(resumed, label).with_context(context);
    assert_eq!(
        resumed_report.completed_cells(),
        vec![1usize, 3, 4],
        "resume must run exactly the missing cells"
    );
    let merged = ReportSet::merge(vec![partial, resumed_report]).expect("disjoint resume merge");
    assert_eq!(merged.to_json(), full_json);
}

#[test]
fn report_summaries_match_sweep_stats() {
    let cells = grid();
    let results = Sweep::new(RUNS).execute(&cells, run_cell);
    let rows = results
        .iter()
        .map(|cr| CellRuns {
            cell: cr.cell,
            runs: cr.runs.iter().map(RunMetrics::from_stats).collect(),
        })
        .collect();
    let report = ReportSet::from_sweep(rows, |i| cells[i].label.clone());
    for (cr, rep) in results.iter().zip(&report.cells) {
        let mean_ratio =
            cr.runs.iter().map(RunStats::delivery_ratio).sum::<f64>() / cr.runs.len() as f64;
        assert!((rep.delivery_pct().mean - mean_ratio * 100.0).abs() < 1e-9);
        assert_eq!(rep.runs.len(), RUNS);
    }
}
