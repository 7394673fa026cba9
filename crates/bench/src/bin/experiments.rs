//! Regenerates every table and figure of the paper's evaluation section,
//! plus three ablations (`ablation-spanner`, `ablation-copies`,
//! `ablation-perturb`) and the `media-compare` grid — all on the sweep
//! engine. Run the binary without arguments for the job list.
//!
//! ```text
//! cargo run --release -p glr-bench --bin experiments -- all
//! cargo run --release -p glr-bench --bin experiments -- fig4 tab6
//! cargo run --release -p glr-bench --bin experiments -- --full fig7
//! cargo run --release -p glr-bench --bin experiments -- --quick all
//! cargo run --release -p glr-bench --bin experiments -- --quick media-compare
//! ```
//!
//! Every simulation table/figure is expanded into declarative
//! [`Cell`]s (scenario × protocol) and executed in ONE work-queue sweep
//! across all requested experiments, so threads stay busy across table
//! boundaries. Multi-machine runs split the same cell list with
//! `--shard i/n` and write mergeable JSON:
//!
//! ```text
//! experiments --quick --shard 0/2 --json s0.json tab6   # machine A
//! experiments --quick --shard 1/2 --json s1.json tab6   # machine B
//! experiments merge merged.json s0.json s1.json         # anywhere
//! ```
//!
//! The merged file is byte-identical to what `--json` would have written
//! unsharded (asserted by `crates/sim/tests/sweep_shard.rs` and by CI).
//! Run all shards on the same build: grids containing the shadowing
//! medium evaluate libm-rounded `ln`/`cos`/`log10`, so hosts with a
//! different libm may diverge in the last ulp (see
//! `glr_sim::MediumKind::Shadowing`).
//!
//! Effort levels: `--quick` (2 seeds, quarter workloads — CI smoke),
//! default (5 seeds, full workloads), `--full` (10 seeds, full workloads —
//! the paper's protocol). All values print as `mean ± 90 % CI` like the
//! paper's tables.

use glr_bench::{execute_cells, header, plot_data, row, svg_topology, Cell, Effort, Series};
use glr_core::{CopyPolicy, GlrConfig, LocationMode, SpannerMode};
use glr_geometry::{
    euclidean_stretch, extract_dstd_path, k_ldtg, unit_disk_graph, DstdKind, Point2,
};
use glr_sim::{CellReport, MediumKind, ReportSet, Scenario, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Renders one row's `row_span` cell reports into column strings.
type RowRender = Box<dyn Fn(&[CellReport]) -> Vec<String>>;
/// Writes artefact files from a job's full report slice.
type ArtifactFn = Box<dyn Fn(&[CellReport])>;

/// One table/figure: its cells plus how to print a row from each chunk
/// of cell reports.
struct Job {
    title: String,
    columns: Vec<&'static str>,
    /// Row labels; the job owns `rows.len() * row_span` cells, row-major.
    rows: Vec<String>,
    row_span: usize,
    cells: Vec<Cell>,
    render: RowRender,
    note: &'static str,
    artifact: Option<ArtifactFn>,
}

impl Job {
    fn print(&self, reports: &[CellReport]) {
        assert_eq!(reports.len(), self.rows.len() * self.row_span);
        header(&self.title, &self.columns);
        for (i, label) in self.rows.iter().enumerate() {
            let chunk = &reports[i * self.row_span..(i + 1) * self.row_span];
            row(label, &(self.render)(chunk));
        }
        if !self.note.is_empty() {
            println!("{}", self.note);
        }
        if let Some(artifact) = &self.artifact {
            artifact(reports);
        }
    }
}

const USAGE: &str =
    "usage: experiments [--quick|--full] [--threads N] [--shard I/N] [--json PATH] <id>...\n\
     \x20      experiments merge <out.json> <shard.json>...\n\
     \x20 ids: fig1 fig2 fig3 tab2 fig4 fig5 fig6 tab3 fig7 tab4 tab5 tab6\n\
     \x20      ablation-spanner ablation-copies ablation-perturb media-compare all\n\
     \x20 --threads N  worker threads running (cell, run) units in parallel; each run is\n\
     \x20              single-threaded (default: one per core). Results are identical\n\
     \x20              for any N.";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// FNV-1a over every cell's full `Debug` form (scenario config,
/// workload, medium parameters, protocol config) — two shard
/// invocations agree on this iff they expanded the same grid.
fn grid_digest(cells: &[Cell]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        for b in format!("{cell:?}\x1f").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("merge") {
        merge_main(&argv[1..]);
        return;
    }

    let mut effort = Effort::DEFAULT;
    let mut ids: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut shard: Option<(usize, usize)> = None;
    let mut json: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => effort = Effort::FULL,
            "--quick" => effort = Effort::QUICK,
            "--threads" => {
                let v = it.next().unwrap_or_else(|| die(USAGE));
                threads = Some(
                    v.parse()
                        .unwrap_or_else(|_| die("--threads expects a number")),
                );
            }
            "--shard" => {
                let v = it.next().unwrap_or_else(|| die(USAGE));
                let (i, n) = v
                    .split_once('/')
                    .unwrap_or_else(|| die("--shard expects I/N, e.g. 0/2"));
                let i = i.parse().unwrap_or_else(|_| die("--shard expects I/N"));
                let n = n.parse().unwrap_or_else(|_| die("--shard expects I/N"));
                if i >= n {
                    die("--shard index must be < shard count");
                }
                shard = Some((i, n));
            }
            "--json" => json = Some(it.next().unwrap_or_else(|| die(USAGE)).clone()),
            other if other.starts_with("--") => die(USAGE),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        die(USAGE);
    }
    // Catch this before hours of simulation, not after: a sharded run's
    // partial tables are never printed, so without --json every result
    // would be discarded.
    if shard.is_some() && json.is_none() {
        die("--shard without --json would discard all results; add --json PATH");
    }
    let all = ids.iter().any(|i| i == "all");
    let known = [
        "fig1",
        "fig2",
        "fig3",
        "tab2",
        "fig4",
        "fig5",
        "fig6",
        "tab3",
        "fig7",
        "tab4",
        "tab5",
        "tab6",
        "ablation-spanner",
        "ablation-copies",
        "ablation-perturb",
        "media-compare",
    ];
    for id in &ids {
        if id != "all" && !known.contains(&id.as_str()) {
            die(&format!("unknown experiment id {id:?}\n{USAGE}"));
        }
    }
    let want = |id: &str| all || ids.iter().any(|i| i == id);
    println!(
        "GLR reproduction experiments — {} runs/point, workload scale {}/1000",
        effort.runs, effort.scale_pm
    );

    // Static-geometry illustrations (no simulations, nothing to sweep).
    if want("fig1") {
        fig1(effort);
    }
    if want("fig2") {
        fig2();
    }

    // Every simulation experiment becomes a Job; all jobs run as one sweep.
    let mut jobs: Vec<Job> = Vec::new();
    if want("fig3") {
        jobs.push(fig3(effort));
    }
    if want("tab2") {
        jobs.push(tab2(effort));
    }
    if want("fig4") {
        jobs.push(fig45(effort, 50.0, "Figure 4"));
    }
    if want("fig5") {
        jobs.push(fig45(effort, 100.0, "Figure 5"));
    }
    if want("fig6") {
        jobs.push(fig6(effort));
    }
    if want("tab3") {
        jobs.push(tab3(effort));
    }
    if want("fig7") {
        jobs.push(fig7(effort));
    }
    if want("tab4") {
        jobs.push(tab4(effort));
    }
    if want("tab5") {
        jobs.push(tab5(effort));
    }
    if want("tab6") {
        jobs.push(tab6(effort));
    }
    if want("ablation-spanner") {
        jobs.push(ablation_spanner(effort));
    }
    if want("ablation-copies") {
        jobs.push(ablation_copies(effort));
    }
    if want("ablation-perturb") {
        jobs.push(ablation_perturb(effort));
    }
    if want("media-compare") {
        jobs.push(media_compare(effort));
    }
    // Note: no early return when `jobs` is empty — `--json` must still
    // write a (valid, empty) report even for illustration-only runs.
    let cells: Vec<Cell> = jobs.iter().flat_map(|j| j.cells.iter().cloned()).collect();
    // The grid context identifies everything except the shard split, so
    // `merge` can refuse shards from mismatched invocations. The digest
    // covers every cell's full definition (config, workload, medium,
    // protocol), catching grid edits between builds that the id list and
    // cell count alone would miss.
    let sim_ids: Vec<&str> = known
        .iter()
        .copied()
        .filter(|id| !matches!(*id, "fig1" | "fig2") && want(id))
        .collect();
    let context = format!(
        "ids={}; effort={}runs/{}pm; cells={}; grid={:016x}",
        sim_ids.join(","),
        effort.runs,
        effort.scale_pm,
        cells.len(),
        grid_digest(&cells)
    );
    // Resume: a --json file left behind by an interrupted invocation of
    // the *same* grid (matching context) marks its cells as already done;
    // only the missing cells run, and the merged output is byte-identical
    // to an uninterrupted run (runs are pure functions of (cell, seed)).
    let mut existing: Option<ReportSet> = None;
    if let Some(path) = &json {
        if let Ok(text) = std::fs::read_to_string(path) {
            match ReportSet::from_json(&text) {
                Ok(prev) if prev.context == context => {
                    println!(
                        "resuming: {} of {} cells already in {path}",
                        prev.cells.len(),
                        cells.len()
                    );
                    existing = Some(prev);
                }
                Ok(prev) => println!(
                    "not resuming from {path}: it holds a different sweep \
                     (context {:?}); it will be overwritten",
                    prev.context
                ),
                Err(e) => println!("not resuming from {path} (unparseable: {e}); overwriting"),
            }
        }
    }
    let skip: Vec<usize> = existing
        .as_ref()
        .map_or_else(Vec::new, ReportSet::completed_cells);
    let fresh = execute_cells(&cells, effort.runs, threads, shard, &skip).with_context(context);
    let report = match existing {
        Some(prev) => ReportSet::merge(vec![prev, fresh])
            .unwrap_or_else(|e| die(&format!("cannot merge resumed results: {e}"))),
        None => fresh,
    };

    if let Some(path) = &json {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("wrote {} cell reports to {path}", report.cells.len());
    }

    if report.is_complete(cells.len()) {
        let mut offset = 0;
        for job in &jobs {
            let n = job.cells.len();
            job.print(&report.cells[offset..offset + n]);
            offset += n;
        }
    } else {
        println!(
            "(sharded run: executed {} of {} cells; merge the JSON shards with \
             `experiments merge` to assemble the full report)",
            report.cells.len(),
            cells.len()
        );
    }
}

/// `experiments merge <out.json> <shard.json>...` — reassembles shard
/// reports into the file an unsharded `--json` run would have written.
fn merge_main(args: &[String]) {
    if args.len() < 2 {
        die(USAGE);
    }
    let out = &args[0];
    let parts: Vec<ReportSet> = args[1..]
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            ReportSet::from_json(&text)
                .unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
        })
        .collect();
    let merged =
        ReportSet::merge(parts).unwrap_or_else(|e| die(&format!("shards do not merge: {e}")));
    std::fs::write(out, merged.to_json())
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));

    if !merged.context.is_empty() {
        println!("sweep: {}", merged.context);
    }

    header(
        "Merged sweep report",
        &["runs", "delivery %", "hops", "max peak"],
    );
    for cell in &merged.cells {
        row(
            &cell.label,
            &[
                format!("{}", cell.runs.len()),
                cell.delivery_pct().display(1),
                cell.avg_hops().display(2),
                cell.max_peak_storage().display(1),
            ],
        );
    }
    println!("wrote {} merged cell reports to {out}", merged.cells.len());
}

/// Figure 1: connectivity of 50 static nodes in 1000 m x 1000 m at 250 m
/// vs 100 m radius, plus the LDTG spanner built on top. (A static
/// geometry illustration — no simulation runs, so it stays off the
/// sweep engine.)
fn fig1(effort: Effort) {
    header(
        "Figure 1 — topology, 50 nodes in 1000x1000 m",
        &[
            "edges",
            "components",
            "connected %",
            "LDTG edges",
            "LDTG stretch",
        ],
    );
    let _ = std::fs::create_dir_all("artifacts");
    for radius in [250.0, 100.0] {
        let mut edges = Vec::new();
        let mut comps = Vec::new();
        let mut connected = Vec::new();
        let mut ldtg_edges = Vec::new();
        let mut stretch = Vec::new();
        for seed in 0..effort.runs.max(5) as u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let pts: Vec<Point2> = (0..50)
                .map(|_| Point2::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
                .collect();
            let udg = unit_disk_graph(&pts, radius);
            edges.push(udg.edge_count() as f64);
            comps.push(udg.connected_components().len() as f64);
            connected.push(if udg.is_connected() { 100.0 } else { 0.0 });
            let ldtg = k_ldtg(&pts, radius, 2);
            if seed == 0 {
                // Drop the Figure 1 artefacts for the first instance.
                let svg = svg_topology(&pts, &udg, &[], &[], 1000.0, 1000.0);
                let _ = std::fs::write(format!("artifacts/fig1_udg_{radius:.0}m.svg"), svg);
                let svg = svg_topology(&pts, &ldtg, &[], &[], 1000.0, 1000.0);
                let _ = std::fs::write(format!("artifacts/fig1_ldtg_{radius:.0}m.svg"), svg);
            }
            ldtg_edges.push(ldtg.edge_count() as f64);
            let s = euclidean_stretch(&ldtg, &pts);
            if s.max_stretch.is_finite() {
                stretch.push(s.max_stretch);
            }
        }
        row(
            &format!("radius {radius} m"),
            &[
                glr_sim::summarize(&edges).display(1),
                glr_sim::summarize(&comps).display(1),
                glr_sim::summarize(&connected).display(0),
                glr_sim::summarize(&ldtg_edges).display(1),
                glr_sim::summarize(&stretch).display(2),
            ],
        );
    }
    println!(
        "  (paper: at 250 m the graph is connected or nearly so; at 100 m connection is \
         'almost impossible')"
    );
}

/// Figure 2: MaxDSTD vs MinDSTD tree extraction on a static spanner.
/// (Illustration; no simulation runs.)
fn fig2() {
    header("Figure 2 — DSTD tree extraction (illustration)", &["path"]);
    let mut rng = StdRng::seed_from_u64(7);
    let pts: Vec<Point2> = (0..30)
        .map(|_| Point2::new(rng.random_range(0.0..800.0), rng.random_range(0.0..800.0)))
        .collect();
    let g = k_ldtg(&pts, 320.0, 2);
    for kind in [DstdKind::Max, DstdKind::Min, DstdKind::Mid(0)] {
        let path = extract_dstd_path(&g, &pts, 0, 29, kind, 60);
        let hops = path.len() - 1;
        let reached = path.last() == Some(&29);
        row(
            &kind.to_string(),
            &[format!(
                "{hops} hops, reached: {reached}, route {:?}",
                path.iter().take(12).collect::<Vec<_>>()
            )],
        );
    }
    println!("  (paper: Max and Min trees trace different routes from S to T)");
}

/// Figure 3: delivery latency vs route check interval (1980 msgs, 100 m).
fn fig3(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let sim = SimConfig::paper(100.0, 40);
    let penalty = sim.sim_duration;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for interval in [0.6, 0.8, 1.0, 1.2, 1.4, 1.6] {
        let label = format!("check interval {interval:.1} s");
        cells.push(Cell::glr(
            Scenario::new(format!("fig3/{label}"), sim.clone()).with_messages(messages),
            GlrConfig::paper().with_check_interval(interval),
        ));
        rows.push(label);
    }
    Job {
        title: "Figure 3 — latency vs check interval (1980 msgs, 100 m)".into(),
        columns: vec!["latency (s)", "delivery %", "control tx"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].avg_latency(penalty).display(1),
                r[0].delivery_pct().display(1),
                r[0].metric(|m| m.control_tx as f64).display(0),
            ]
        }),
        note: "  (paper: latency 18-25 s; shorter checks => lower latency, more control traffic)",
        artifact: None,
    }
}

/// Table 2: impact of destination-location knowledge (50 m, 3800 s).
fn tab2(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let scenarios: [(&str, LocationMode, CopyPolicy); 4] = [
        (
            "1 copy / all know",
            LocationMode::AllKnow,
            CopyPolicy::Fixed(1),
        ),
        (
            "3 copies / source knows",
            LocationMode::SourceKnows,
            CopyPolicy::Fixed(3),
        ),
        (
            "1 copy / source knows",
            LocationMode::SourceKnows,
            CopyPolicy::Fixed(1),
        ),
        (
            "3 copies / none know",
            LocationMode::NoneKnow,
            CopyPolicy::Fixed(3),
        ),
    ];
    let sim = SimConfig::paper(50.0, 50);
    let penalty = sim.sim_duration;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (label, mode, policy) in scenarios {
        cells.push(Cell::glr(
            Scenario::new(format!("tab2/{label}"), sim.clone()).with_messages(messages),
            GlrConfig::paper()
                .with_location_mode(mode)
                .with_copy_policy(policy),
        ));
        rows.push(label.to_string());
    }
    Job {
        title: "Table 2 — location availability (50 m, 3800 s)".into(),
        columns: vec!["delivery %", "latency (s)", "hops", "avg peak storage"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].delivery_pct().display(1),
                r[0].avg_latency(penalty).display(1),
                r[0].avg_hops().display(1),
                r[0].avg_peak_storage().display(1),
            ]
        }),
        note: "  (paper: 100/100/100/99.9 %; 120.2/149.7/156.1/212.4 s; 14.9/17.3/18/23.1 hops; \
         38.3/43.6/40.3/50.9 stored)",
        artifact: None,
    }
}

/// Figures 4 & 5: latency vs number of messages, GLR vs epidemic.
fn fig45(effort: Effort, radius: f64, tag: &'static str) -> Job {
    let bases = [400usize, 890, 1480, 1980];
    let sim = SimConfig::paper(radius, 60);
    let penalty = sim.sim_duration;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for base in bases {
        let messages = effort.scale(base);
        let label = format!("{base} messages");
        let scenario = Scenario::new(format!("{tag}/{label}"), sim.clone()).with_messages(messages);
        cells.push(Cell::glr(
            Scenario {
                label: format!("{}/glr", scenario.label),
                ..scenario.clone()
            },
            GlrConfig::paper(),
        ));
        cells.push(Cell::epidemic(Scenario {
            label: format!("{}/epidemic", scenario.label),
            ..scenario
        }));
        rows.push(label);
    }
    let artifact: ArtifactFn = Box::new(move |reports| {
        let mut glr_series = Series {
            label: "GLR".into(),
            points: Vec::new(),
        };
        let mut epi_series = Series {
            label: "Epidemic".into(),
            points: Vec::new(),
        };
        for (i, base) in bases.iter().enumerate() {
            let gl = reports[2 * i].avg_latency(penalty);
            let el = reports[2 * i + 1].avg_latency(penalty);
            glr_series.points.push((*base as f64, gl.mean, gl.ci90));
            epi_series.points.push((*base as f64, el.mean, el.ci90));
        }
        let _ = std::fs::create_dir_all("artifacts");
        let _ = std::fs::write(
            format!("artifacts/latency_vs_messages_{radius:.0}m.dat"),
            plot_data(
                &format!("{tag}: latency vs messages at {radius} m"),
                &[glr_series, epi_series],
            ),
        );
    });
    Job {
        title: format!("{tag} — latency vs messages in transit ({radius} m)"),
        columns: vec![
            "GLR latency (s)",
            "GLR delivery %",
            "Epi latency (s)",
            "Epi delivery %",
        ],
        rows,
        row_span: 2,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].avg_latency(penalty).display(1),
                r[0].delivery_pct().display(1),
                r[1].avg_latency(penalty).display(1),
                r[1].delivery_pct().display(1),
            ]
        }),
        note: "  (paper: GLR below epidemic, gap widening as messages increase)",
        artifact: Some(artifact),
    }
}

/// Figure 6: latency vs radius, 1980 messages.
fn fig6(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let penalty = SimConfig::paper(50.0, 70).sim_duration;
    for radius in [50.0, 100.0, 150.0, 200.0, 250.0] {
        let sim = SimConfig::paper(radius, 70);
        let label = format!("radius {radius} m");
        cells.push(Cell::glr(
            Scenario::new(format!("fig6/{label}/glr"), sim.clone()).with_messages(messages),
            GlrConfig::paper(),
        ));
        cells.push(Cell::epidemic(
            Scenario::new(format!("fig6/{label}/epidemic"), sim).with_messages(messages),
        ));
        rows.push(label);
    }
    Job {
        title: "Figure 6 — latency vs radius (1980 msgs)".into(),
        columns: vec![
            "GLR latency (s)",
            "GLR delivery %",
            "Epi latency (s)",
            "Epi delivery %",
        ],
        rows,
        row_span: 2,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].avg_latency(penalty).display(1),
                r[0].delivery_pct().display(1),
                r[1].avg_latency(penalty).display(1),
                r[1].delivery_pct().display(1),
            ]
        }),
        note: "  (paper: both fall with radius; GLR below epidemic throughout)",
        artifact: None,
    }
}

/// Table 3: delivery ratio with and without custody transfer
/// (890 msgs, 50 m, 1200 s).
fn tab3(effort: Effort) -> Job {
    let messages = effort.scale(890);
    let sim = SimConfig::paper(50.0, 80).with_duration(1200.0);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for custody in [false, true] {
        let label = if custody {
            "with custody"
        } else {
            "without custody"
        };
        cells.push(Cell::glr(
            Scenario::new(format!("tab3/{label}"), sim.clone()).with_messages(messages),
            GlrConfig::paper().with_custody(custody),
        ));
        rows.push(label.to_string());
    }
    Job {
        title: "Table 3 — custody transfer (890 msgs, 50 m, 1200 s)".into(),
        columns: vec!["delivery %"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(|r| vec![r[0].delivery_pct().display(1)]),
        note: "  (paper: 84.7 % without, 97.9 % with)",
        artifact: None,
    }
}

/// Figure 7: delivery ratio vs per-node storage limit (50 m, 1980 msgs).
fn fig7(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for limit in [25usize, 50, 100, 150, 200] {
        let sim = SimConfig::paper(50.0, 90).with_storage_limit(limit);
        let label = format!("{limit} msgs/node");
        cells.push(Cell::glr(
            Scenario::new(format!("fig7/{label}/glr"), sim.clone()).with_messages(messages),
            GlrConfig::paper(),
        ));
        cells.push(Cell::epidemic(
            Scenario::new(format!("fig7/{label}/epidemic"), sim).with_messages(messages),
        ));
        rows.push(label);
    }
    Job {
        title: "Figure 7 — delivery ratio vs storage limit (50 m)".into(),
        columns: vec!["GLR delivery %", "Epidemic delivery %"],
        rows,
        row_span: 2,
        cells,
        render: Box::new(|r| {
            vec![
                r[0].delivery_pct().display(1),
                r[1].delivery_pct().display(1),
            ]
        }),
        note: "  (paper: GLR flat near 100 % down to 100 msgs/node; epidemic degrades below 200)",
        artifact: None,
    }
}

/// Table 4: GLR storage vs number of messages (50 m, 3 copies).
fn tab4(effort: Effort) -> Job {
    let sim = SimConfig::paper(50.0, 100);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for base in [400usize, 600, 890, 1180, 1980] {
        let messages = effort.scale(base);
        let label = format!("{base} messages");
        cells.push(Cell::glr(
            Scenario::new(format!("tab4/{label}"), sim.clone()).with_messages(messages),
            GlrConfig::paper(),
        ));
        rows.push(label);
    }
    Job {
        title: "Table 4 — GLR storage vs messages (50 m, 3 copies)".into(),
        columns: vec!["max peak", "avg peak"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(|r| {
            vec![
                r[0].max_peak_storage().display(1),
                r[0].avg_peak_storage().display(2),
            ]
        }),
        note: "  (paper: max peak 39->69, avg peak 21.3->43.6; epidemic stores every message)",
        artifact: None,
    }
}

/// Table 5: GLR storage vs radius (1980 msgs).
fn tab5(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for radius in [250.0, 200.0, 150.0, 100.0, 50.0] {
        let sim = SimConfig::paper(radius, 110);
        let label = format!("radius {radius} m");
        cells.push(Cell::glr(
            Scenario::new(format!("tab5/{label}"), sim).with_messages(messages),
            GlrConfig::paper(),
        ));
        rows.push(label);
    }
    Job {
        title: "Table 5 — GLR storage vs radius (1980 msgs)".into(),
        columns: vec!["max peak", "avg peak"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(|r| {
            vec![
                r[0].max_peak_storage().display(1),
                r[0].avg_peak_storage().display(2),
            ]
        }),
        note: "  (paper: 6.9/14.3/24.3/48.4/69 max peak — storage grows as radius shrinks)",
        artifact: None,
    }
}

/// Table 6: hop counts vs radius, GLR vs epidemic (1980 msgs).
fn tab6(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for radius in [250.0, 200.0, 150.0, 100.0, 50.0] {
        let sim = SimConfig::paper(radius, 120);
        let label = format!("radius {radius} m");
        cells.push(Cell::glr(
            Scenario::new(format!("tab6/{label}/glr"), sim.clone()).with_messages(messages),
            GlrConfig::paper(),
        ));
        cells.push(Cell::epidemic(
            Scenario::new(format!("tab6/{label}/epidemic"), sim).with_messages(messages),
        ));
        rows.push(label);
    }
    Job {
        title: "Table 6 — hop counts (1980 msgs)".into(),
        columns: vec!["GLR hops", "Epidemic hops"],
        rows,
        row_span: 2,
        cells,
        render: Box::new(|r| vec![r[0].avg_hops().display(2), r[1].avg_hops().display(2)]),
        note: "  (paper: GLR 3.4->17.32, epidemic 3.19->3.92 — GLR takes more hops, gap grows)",
        artifact: None,
    }
}

/// Media comparison: Table 6's workload reproduced under all four
/// media — the paper's contention model, the lossless ideal radio,
/// log-distance shadowing, and a 30%-duty-cycled contention radio.
fn media_compare(effort: Effort) -> Job {
    let messages = effort.scale(1980);
    let media = [
        MediumKind::Contention,
        MediumKind::Ideal,
        MediumKind::shadowing(),
        MediumKind::duty_cycled(MediumKind::Contention, 0.3, 1.0),
    ];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for radius in [250.0, 200.0, 150.0, 100.0, 50.0] {
        let sim = SimConfig::paper(radius, 170);
        let label = format!("radius {radius} m");
        for medium in media.clone() {
            cells.push(Cell::glr(
                Scenario::new(format!("media-compare/{label}/{medium}"), sim.clone())
                    .with_messages(messages)
                    .with_medium(medium),
                GlrConfig::paper(),
            ));
        }
        rows.push(label);
    }
    Job {
        title: "Media comparison — GLR under four media (Table 6 workload)".into(),
        columns: vec![
            "cont delv %",
            "cont hops",
            "ideal delv %",
            "ideal hops",
            "shadow delv %",
            "shadow hops",
            "duty30 delv %",
            "duty30 hops",
        ],
        rows,
        row_span: 4,
        cells,
        render: Box::new(|r| {
            vec![
                r[0].delivery_pct().display(1),
                r[0].avg_hops().display(2),
                r[1].delivery_pct().display(1),
                r[1].avg_hops().display(2),
                r[2].delivery_pct().display(1),
                r[2].avg_hops().display(2),
                r[3].delivery_pct().display(1),
                r[3].avg_hops().display(2),
            ]
        }),
        note: "  (ideal bounds the protocol's best case; shadowing softens the range cliff; \
         duty30 sleeps radios 70% of the time and silently drops frames arriving during \
         sleep — expect delivery duty30 <= contention <= shadowing <= ideal at small radii)",
        artifact: None,
    }
}

/// Ablation: spanner construction fidelity (one Delaunay pass vs the full
/// witness-checked k-LDTG rule).
fn ablation_spanner(effort: Effort) -> Job {
    let messages = effort.scale(890);
    let sim = SimConfig::paper(100.0, 130);
    let penalty = sim.sim_duration;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (label, mode) in [
        ("LocalDelaunay (fast)", SpannerMode::LocalDelaunay),
        ("KLocalDelaunay (paper)", SpannerMode::KLocalDelaunay),
    ] {
        cells.push(Cell::glr(
            Scenario::new(format!("ablation-spanner/{label}"), sim.clone()).with_messages(messages),
            GlrConfig::paper().with_spanner(mode),
        ));
        rows.push(label.to_string());
    }
    Job {
        title: "Ablation — local spanner construction (100 m, 890 msgs)".into(),
        columns: vec!["latency (s)", "delivery %", "data tx"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].avg_latency(penalty).display(1),
                r[0].delivery_pct().display(1),
                r[0].metric(|m| m.data_tx as f64).display(0),
            ]
        }),
        note: "",
        artifact: None,
    }
}

/// Ablation: copy-count policy (Algorithm 1 vs fixed).
fn ablation_copies(effort: Effort) -> Job {
    let messages = effort.scale(890);
    let sim100 = SimConfig::paper(100.0, 140);
    let sim200 = SimConfig::paper(200.0, 150);
    let penalty100 = sim100.sim_duration;
    let penalty200 = sim200.sim_duration;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (label, policy) in [
        ("fixed 1 copy", CopyPolicy::Fixed(1)),
        ("fixed 3 copies", CopyPolicy::Fixed(3)),
        ("adaptive (Algorithm 1)", CopyPolicy::PAPER),
    ] {
        let glr = GlrConfig::paper().with_copy_policy(policy);
        cells.push(Cell::glr(
            Scenario::new(format!("ablation-copies/{label}/100m"), sim100.clone())
                .with_messages(messages),
            glr.clone(),
        ));
        cells.push(Cell::glr(
            Scenario::new(format!("ablation-copies/{label}/200m"), sim200.clone())
                .with_messages(messages),
            glr,
        ));
        rows.push(label.to_string());
    }
    Job {
        title: "Ablation — copy policy (890 msgs)".into(),
        columns: vec![
            "latency 100 m (s)",
            "delivery % 100 m",
            "latency 200 m (s)",
            "delivery % 200 m",
        ],
        rows,
        row_span: 2,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].avg_latency(penalty100).display(1),
                r[0].delivery_pct().display(1),
                r[1].avg_latency(penalty200).display(1),
                r[1].delivery_pct().display(1),
            ]
        }),
        note: "",
        artifact: None,
    }
}

/// Ablation: stale-location perturbation variants.
fn ablation_perturb(effort: Effort) -> Job {
    let messages = effort.scale(890);
    let sim = SimConfig::paper(100.0, 160);
    let penalty = sim.sim_duration;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (label, gossip) in [
        ("shared rendezvous (default)", true),
        ("message-local guess", false),
    ] {
        let mut glr = GlrConfig::paper();
        glr.perturb_gossip = gossip;
        cells.push(Cell::glr(
            Scenario::new(format!("ablation-perturb/{label}"), sim.clone()).with_messages(messages),
            glr,
        ));
        rows.push(label.to_string());
    }
    Job {
        title: "Ablation — perturbation gossip (100 m, 890 msgs)".into(),
        columns: vec!["latency (s)", "delivery %", "perturbations"],
        rows,
        row_span: 1,
        cells,
        render: Box::new(move |r| {
            vec![
                r[0].avg_latency(penalty).display(1),
                r[0].delivery_pct().display(1),
                r[0].counter("glr.perturb").display(0),
            ]
        }),
        note: "",
        artifact: None,
    }
}
