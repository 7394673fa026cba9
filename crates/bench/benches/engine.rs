//! Whole-engine benchmarks for the single-run scaling work: the dense
//! 10k-node beacon workload (the regime the flat trajectory arena and
//! the single-probe tables target), the 100k-node paper-density tier,
//! and the random-waypoint deployment's build time and memory footprint.
//!
//! The dense group grows node density with `√n` (region scaled by
//! `(n/50)^0.25`), the regime where every beacon fans out to ~50
//! receivers; the 100k group holds the paper's density (degree ~3.5)
//! and scales the area instead.
//!
//! Regenerate the committed artefact with:
//!
//! ```sh
//! CRITERION_JSON=BENCH_sim.json cargo bench -p glr-bench --bench engine
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glr_mobility::{RandomWaypoint, Region};
use glr_sim::{Ctx, MessageInfo, NodeId, Protocol, SimConfig, Simulation, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Idle;
impl Protocol for Idle {
    type Packet = ();
    fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
    fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
}

/// Region scaled by `(n/50)^exponent`: 0.5 holds paper density, 0.25
/// grows density (and radio degree) with `√n`.
fn config(n: usize, exponent: f64, duration: f64) -> SimConfig {
    let scale = (n as f64 / 50.0).powf(exponent);
    SimConfig::paper(100.0, 42)
        .with_nodes(n)
        .with_region(Region::new(1500.0 * scale, 300.0 * scale))
        .with_duration(duration)
}

/// The acceptance workload: 10k nodes in the dense regime (degree ~48),
/// two full beacon rounds, beacons only — the pure beacon storm.
fn bench_engine_dense10k(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_dense10k_2s");
    g.bench_function(BenchmarkId::new("serial", 10_000), |b| {
        b.iter(|| {
            let cfg = config(10_000, 0.25, 2.0);
            let wl = Workload::paper_style(cfg.n_nodes, 50, 1000);
            Simulation::new(black_box(cfg), wl, |_, _| Idle).run()
        })
    });
    g.finish();
}

/// 100k nodes at the paper's density for one simulated second — the
/// scale the ROADMAP's open item named. One full beacon round from every
/// node plus epidemic-style empty traffic. Also prints the per-node
/// protocol-state footprint (neighbour tables after the run), for the
/// committed artefact's `neighbor_footprint_bytes` row.
fn bench_engine_100k(c: &mut Criterion) {
    {
        let cfg = config(100_000, 0.5, 1.0);
        let n = cfg.n_nodes;
        let wl = Workload::paper_style(n, 100, 1000);
        Simulation::new(cfg, wl, |_, _| Idle).run_inspect(|sim| {
            let fp = sim.neighbor_footprint();
            println!(
                "neighbor_footprint/{n}: tables {} B + snapshots {} B = {} B ({} B/node)",
                fp.table_bytes,
                fp.snapshot_bytes,
                fp.total_bytes(),
                fp.bytes_per_node(),
            );
        });
    }
    let mut g = c.benchmark_group("engine_100k_1s");
    g.bench_function(BenchmarkId::new("serial", 100_000), |b| {
        b.iter(|| {
            let cfg = config(100_000, 0.5, 1.0);
            let wl = Workload::paper_style(cfg.n_nodes, 100, 1000);
            Simulation::new(black_box(cfg), wl, |_, _| Idle).run()
        })
    });
    g.finish();
}

/// Deployment build time and memory footprint: `RandomWaypoint::deployment`
/// at paper duration, timed, with the arena's bytes per node printed for
/// the committed artefact (the criterion shim reports times, not sizes).
fn bench_deployment_footprint(c: &mut Criterion) {
    let mut g = c.benchmark_group("deployment");
    for n in [10_000usize, 100_000] {
        let scale = (n as f64 / 50.0).sqrt();
        let region = Region::new(1500.0 * scale, 300.0 * scale);
        let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
        // Paper-duration trajectories: this is where keyframe counts are
        // realistic.
        let build = || model.deployment(region, n, 3800.0, &mut StdRng::seed_from_u64(7));
        let arena = build();
        println!(
            "deployment_footprint/{n}: arena {} B ({} B/node, {} keyframes)",
            arena.heap_bytes(),
            arena.heap_bytes() / n,
            arena.total_keyframes(),
        );
        g.bench_function(BenchmarkId::new("random_waypoint", n), |b| {
            b.iter(|| black_box(build()).total_keyframes())
        });
    }
    g.finish();
}

criterion_group!(
    engine,
    bench_engine_dense10k,
    bench_engine_100k,
    bench_deployment_footprint
);
criterion_main!(engine);
