//! Criterion micro-benchmarks of the computational kernels behind GLR:
//! Delaunay triangulation, k-LDTG construction, node-local spanner
//! derivation and DSTD tree extraction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glr_core::{SpannerMode, SpannerScratch};
use glr_geometry::{dstd_next_hop, k_ldtg, ldtg_local_neighbors, DstdKind, Point2, Triangulation};
use glr_sim::{NeighborEntry, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_points(n: usize, w: f64, h: f64, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point2::new(rng.random_range(0.0..w), rng.random_range(0.0..h)))
        .collect()
}

fn bench_delaunay(c: &mut Criterion) {
    let mut g = c.benchmark_group("delaunay");
    for n in [16usize, 32, 64, 128, 256] {
        let pts = random_points(n, 1000.0, 1000.0, 42);
        g.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| Triangulation::build(black_box(pts)))
        });
    }
    g.finish();
}

fn bench_k_ldtg(c: &mut Criterion) {
    let mut g = c.benchmark_group("k_ldtg");
    for n in [25usize, 50, 100] {
        let pts = random_points(n, 1000.0, 1000.0, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| k_ldtg(black_box(pts), 250.0, 2))
        });
    }
    g.finish();
}

fn bench_local_spanner(c: &mut Criterion) {
    // The per-route-check hot path: a node's local spanner from its view.
    // Paper-scale route checks see views of 3 entries on average, so the
    // small sizes are the ones that matter.
    let mut g = c.benchmark_group("local_spanner");
    for view_size in [2usize, 4, 8, 16, 32] {
        let pts = random_points(view_size + 1, 300.0, 300.0, 11);
        let view: Vec<NeighborEntry> = pts[1..]
            .iter()
            .enumerate()
            .map(|(i, &p)| NeighborEntry {
                id: NodeId(i as u32 + 1),
                pos: p,
                heard_at: SimTime::from_secs(1.0),
            })
            .collect();
        let one_hop: Vec<NodeId> = view.iter().map(|e| e.id).collect();
        for (name, mode) in [
            ("local_delaunay", SpannerMode::LocalDelaunay),
            ("k_local", SpannerMode::KLocalDelaunay),
        ] {
            // Buffers persist across iterations, as in a node's route check.
            let mut scratch = SpannerScratch::default();
            g.bench_function(BenchmarkId::new(name, view_size), |b| {
                b.iter(|| {
                    scratch
                        .neighbors(black_box(pts[0]), black_box(&view), &one_hop, 150.0, mode)
                        .len()
                })
            });
        }
    }
    g.finish();
}

fn bench_ldtg_local_view(c: &mut Criterion) {
    let pts = random_points(30, 300.0, 300.0, 13);
    c.bench_function("ldtg_local_neighbors/30", |b| {
        b.iter(|| ldtg_local_neighbors(black_box(&pts), 0, 150.0, 2))
    });
}

fn bench_dstd(c: &mut Criterion) {
    let pts = random_points(24, 200.0, 200.0, 3);
    let nbrs: Vec<(usize, Point2)> = pts.iter().copied().enumerate().skip(1).collect();
    let me = pts[0];
    let dst = Point2::new(5000.0, 5000.0);
    c.bench_function("dstd_next_hop/24", |b| {
        b.iter(|| {
            (
                dstd_next_hop(black_box(me), dst, &nbrs, DstdKind::Max),
                dstd_next_hop(black_box(me), dst, &nbrs, DstdKind::Min),
                dstd_next_hop(black_box(me), dst, &nbrs, DstdKind::Mid(0)),
            )
        })
    });
}

criterion_group!(
    kernels,
    bench_delaunay,
    bench_k_ldtg,
    bench_local_spanner,
    bench_ldtg_local_view,
    bench_dstd
);
criterion_main!(kernels);
