//! Criterion benchmarks of the engine's neighbor layers: the uniform-grid
//! spatial index at 50 / 500 / 5000 nodes, a whole-engine run at 500
//! nodes, and the beacon hot path — `Rc`-interned snapshots +
//! incremental two-hop merges in `NeighborTables` — at 500 / 5000 /
//! 10000 nodes.
//!
//! The linear-scan index and clone-and-merge tables these replaced are
//! test-only oracles now and are not benched; the speedups measured
//! against them when they were introduced are recorded in CHANGES.md.
//! The rows keep their `grid` / `shared` labels so they stay comparable
//! with earlier sittings.
//!
//! Node density is held at the paper's (50 nodes per 1500 m × 300 m
//! strip) by scaling the region with √n, so per-query result sizes stay
//! comparable across sizes.
//!
//! Regenerate the committed artefact with:
//!
//! ```sh
//! CRITERION_JSON=BENCH_sim.json cargo bench -p glr-bench --bench neighbors
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glr_mobility::{DeploymentArena, RandomWaypoint, Region};
use glr_sim::{
    NeighborEntry, NeighborTables, NodeId, SimConfig, SimTime, Simulation, SpatialIndex, Workload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const RANGE: f64 = 100.0;
const SIZES: [usize; 3] = [50, 500, 5000];

/// Paper-density deployment: area grows linearly with n.
fn deployment(n: usize, duration: f64, seed: u64) -> (Region, DeploymentArena) {
    let scale = (n as f64 / 50.0).sqrt();
    let region = Region::new(1500.0 * scale, 300.0 * scale);
    let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    (region, model.deployment(region, n, duration, &mut rng))
}

fn index(n: usize, trajs: &DeploymentArena) -> SpatialIndex {
    let mut idx = SpatialIndex::new(n, 20.0, RANGE);
    idx.refresh(SimTime::ZERO, trajs);
    idx
}

/// One query batch: a radius query around each of 64 probe nodes, at a
/// time slightly after the grid snapshot (so the drift path is exercised).
fn query_batch(idx: &SpatialIndex, trajs: &DeploymentArena, n: usize) -> usize {
    let now = SimTime::from_secs(0.5);
    let mut total = 0;
    for k in 0..64usize {
        let u = k * n / 64;
        let center = trajs.position_at(u, now.as_secs());
        total += idx
            .nodes_within(trajs, now, center, RANGE, NodeId(u as u32))
            .len();
    }
    total
}

fn bench_nodes_within(c: &mut Criterion) {
    let mut g = c.benchmark_group("nodes_within_64q");
    for n in SIZES {
        let (_, trajs) = deployment(n, 10.0, 42);
        let idx = index(n, &trajs);
        g.bench_function(BenchmarkId::new("grid", n), |b| {
            b.iter(|| query_batch(black_box(&idx), &trajs, n))
        });
    }
    g.finish();
}

fn bench_engine_end_to_end(c: &mut Criterion) {
    // Whole-engine run at 500 nodes: beacons + contention queries
    // dominate, so the index shows up directly in events/second.
    struct Idle;
    impl glr_sim::Protocol for Idle {
        type Packet = ();
        fn on_message_created(&mut self, _: &mut glr_sim::Ctx<'_, ()>, _: glr_sim::MessageInfo) {}
        fn on_packet(&mut self, _: &mut glr_sim::Ctx<'_, ()>, _: glr_sim::NodeId, _: ()) {}
    }
    let mut g = c.benchmark_group("engine_500n_10s");
    g.bench_function(BenchmarkId::new("grid", 500), |b| {
        b.iter(|| {
            let scale = (500.0f64 / 50.0).sqrt();
            let cfg = SimConfig::paper(RANGE, 7)
                .with_nodes(500)
                .with_region(Region::new(1500.0 * scale, 300.0 * scale))
                .with_duration(10.0);
            Simulation::new(black_box(cfg), Workload::default(), |_, _| Idle).run()
        })
    });
    g.finish();
}

/// The beacon workload: `rounds` full beacon rounds — per
/// beacon one snapshot materialisation, then a `record_beacon` at each
/// radio neighbour — with a `fresh_view` (2-hop) query at 64 probe
/// nodes per round, the mix a beacon interval of protocol activity
/// generates.
fn beacon_rounds(
    n: usize,
    positions: &[glr_geometry::Point2],
    nbrs: &[Vec<NodeId>],
    rounds: usize,
) -> (usize, usize) {
    let mut tables = NeighborTables::new(n, 2.5);
    let mut contacts = 0usize;
    let mut seen = 0usize;
    for round in 0..rounds {
        let now = SimTime::from_secs(round as f64 + 1.0);
        for u in 0..n {
            let sender = NeighborEntry {
                id: NodeId(u as u32),
                pos: positions[u],
                heard_at: now,
            };
            let snap = tables.beacon_snapshot(NodeId(u as u32), now);
            for &v in &nbrs[u] {
                contacts += usize::from(!tables.record_beacon(v, sender, &snap, now));
            }
        }
        for k in 0..64usize {
            let u = NodeId((k * n / 64) as u32);
            seen += tables.fresh_view(u, now).len();
        }
    }
    (contacts, seen)
}

/// Static deployment with the region scaled by `(n/50)^exponent`:
/// exponent 0.5 holds the paper's node density (constant radio degree),
/// 0.25 grows density with `√n` — the dense regime, where a
/// per-reception merge would be quadratic in the degree.
fn tables_fixture(
    n: usize,
    exponent: f64,
    seed: u64,
) -> (Vec<glr_geometry::Point2>, Vec<Vec<NodeId>>) {
    let scale = (n as f64 / 50.0).powf(exponent);
    let region = Region::new(1500.0 * scale, 300.0 * scale);
    let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let trajs = model.deployment(region, n, 10.0, &mut rng);
    let positions: Vec<_> = (0..n).map(|u| trajs.position_at(u, 0.0)).collect();
    let mut idx = SpatialIndex::new(n, 20.0, RANGE);
    idx.refresh(SimTime::ZERO, &trajs);
    let nbrs: Vec<Vec<NodeId>> = (0..n)
        .map(|u| idx.nodes_within(&trajs, SimTime::ZERO, positions[u], RANGE, NodeId(u as u32)))
        .collect();
    (positions, nbrs)
}

/// The beacon hot path at the paper's density (degree stays ~constant
/// as `n` grows). Neighbour lists are precomputed so the measurement is
/// the table layer, not the spatial index.
fn bench_beacon_paper_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("beacon_3rounds_64q");
    for n in [500usize, 5000, 10000] {
        let (positions, nbrs) = tables_fixture(n, 0.5, 42);
        g.bench_function(BenchmarkId::new("shared", n), |b| {
            b.iter(|| black_box(beacon_rounds(n, &positions, &nbrs, 3)))
        });
    }
    g.finish();
}

/// The beacon hot path in the dense regime (density grows with `√n`, so
/// the radio degree grows too — the regime that dominates 10k+-node
/// scenarios whose deployment area does not scale with the swarm). A
/// reception costs O(1) however large the two-hop table grows.
fn bench_beacon_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("beacon_dense_1round_64q");
    for n in [500usize, 5000, 10000] {
        let (positions, nbrs) = tables_fixture(n, 0.25, 42);
        g.bench_function(BenchmarkId::new("shared", n), |b| {
            b.iter(|| black_box(beacon_rounds(n, &positions, &nbrs, 1)))
        });
    }
    g.finish();
}

criterion_group!(
    neighbors,
    bench_nodes_within,
    bench_engine_end_to_end,
    bench_beacon_paper_density,
    bench_beacon_dense
);
criterion_main!(neighbors);
