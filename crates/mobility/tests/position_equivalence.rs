//! Refactor-safety properties for trajectory evaluation: the fast paths
//! in [`DeploymentArena::position_at`] (O(1) 1-/2-keyframe returns and
//! the hint-accelerated segment check) must be *bit-identical* to the
//! plain binary-search reference on every input — the simulator's grid
//! exactness and run determinism both hang on position evaluation being
//! a pure function of `(keyframes, t)`.

use glr_geometry::Point2;
use glr_mobility::{DeploymentArena, RandomWaypoint, Region};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-arena implementation, verbatim: clamp, then binary search,
/// then lerp. The reference every fast path is checked against.
fn reference_position_at(kf: &[(f64, Point2)], t: f64) -> Point2 {
    if t <= kf[0].0 {
        return kf[0].1;
    }
    if t >= kf[kf.len() - 1].0 {
        return kf[kf.len() - 1].1;
    }
    let mut lo = 0;
    let mut hi = kf.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if kf[mid].0 <= t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (t0, p0) = kf[lo];
    let (t1, p1) = kf[hi];
    p0.lerp(p1, (t - t0) / (t1 - t0))
}

fn assert_bits_eq(want: Point2, got: Point2, ctx: &str) {
    assert_eq!(want.x.to_bits(), got.x.to_bits(), "x diverged: {ctx}");
    assert_eq!(want.y.to_bits(), got.y.to_bits(), "y diverged: {ctx}");
}

/// Strictly-increasing keyframe times with arbitrary finite positions.
fn keyframes_strategy(max_len: usize) -> impl Strategy<Value = Vec<(f64, Point2)>> {
    proptest::collection::vec(((0.01f64..10.0), (-1e4f64..1e4, -1e4f64..1e4)), 1..max_len).prop_map(
        |steps| {
            let mut t = 0.0;
            steps
                .into_iter()
                .map(|(dt, (x, y))| {
                    t += dt;
                    (t, Point2::new(x, y))
                })
                .collect()
        },
    )
}

proptest! {
    /// Every query against every trajectory length (1, 2 and n keyframes,
    /// so all three evaluation paths) matches the binary-search reference
    /// bit for bit — including queries at exact keyframe times and
    /// outside the covered interval.
    #[test]
    fn fast_paths_match_binary_search(
        kf in keyframes_strategy(12),
        queries in proptest::collection::vec(0.0f64..130.0, 1..40),
    ) {
        let mut arena = DeploymentArena::new();
        arena.push(&kf);
        for &q in &queries {
            let want = reference_position_at(&kf, q);
            // The arena carries hint state *across* queries; feeding it
            // a non-monotone sequence exercises stale hints.
            assert_bits_eq(want, arena.position_at(0, q), &format!("arena, t={q}"));
        }
        // Exact keyframe times are the boundary the segment choice could
        // get wrong; check every one of them.
        for &(t, p) in &kf {
            assert_bits_eq(p, arena.position_at(0, t), &format!("arena keyframe t={t}"));
        }
    }
}

/// A realistic random-waypoint deployment: the arena must agree with the
/// reference evaluation of each node's keyframes at every node and time,
/// bit for bit.
#[test]
fn arena_matches_deployment_bit_exactly() {
    let model = RandomWaypoint::paper(Region::PAPER_STRIP);
    let mut rng = StdRng::seed_from_u64(2024);
    let arena = model.deployment(300, 900.0, &mut rng);
    for i in 0..arena.len() {
        for step in 0..64 {
            let t = step as f64 * 14.3;
            assert_bits_eq(
                reference_position_at(arena.keyframes(i), t),
                arena.position_at(i, t),
                &format!("node {i} t {t}"),
            );
        }
    }
}
