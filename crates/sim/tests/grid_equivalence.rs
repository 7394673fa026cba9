//! Refactor-safety properties for the spatial index: the grid-backed
//! neighbor queries must return *exactly* the node sets a plain linear
//! scan returns, including queries against a stale grid snapshot. (The
//! full-run equivalence against the linear-scan oracle lives in the
//! crate's test-only `equivalence` module.)

use glr_geometry::Point2;
use glr_mobility::{DeploymentArena, RandomWaypoint, Region};
use glr_sim::{NodeId, SimTime, SpatialIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reference: every node other than `except` whose true position at
/// `t` is within `range` of `center` — the same predicate the index
/// applies to its candidates — in ascending id order.
fn linear_scan(
    arena: &DeploymentArena,
    t: f64,
    center: Point2,
    range: f64,
    except: NodeId,
) -> Vec<NodeId> {
    (0..arena.len() as u32)
        .map(NodeId)
        .filter(|&v| v != except && arena.position_at(v.index(), t).dist(center) <= range)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw query equivalence across random deployments, ranges, and query
    /// times — including queries against a *stale* grid snapshot, which
    /// the drift inflation must keep exact.
    #[test]
    fn grid_nodes_within_matches_linear_scan(
        seed in 0u64..10_000,
        n in 2usize..80,
        w in 50.0..2000.0f64,
        h in 50.0..800.0f64,
        range in 5.0..400.0f64,
        times in prop::collection::vec(0.0..300.0f64, 1..6),
    ) {
        let region = Region::new(w, h);
        let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let trajs = model.deployment(region, n, 300.0, &mut rng);

        let mut grid = SpatialIndex::new(n, 20.0, range);

        let mut times = times;
        times.sort_by(f64::total_cmp);
        // One refresh at the earliest time; later queries hit an ever
        // staler snapshot.
        grid.refresh(SimTime::from_secs(times[0]), &trajs);

        for &t in &times {
            let now = SimTime::from_secs(t);
            for u in [0usize, n / 2, n - 1] {
                let center = trajs.position_at(u, t);
                let except = NodeId(u as u32);
                let got = grid.nodes_within(&trajs, now, center, range, except);
                let want = linear_scan(&trajs, t, center, range, except);
                prop_assert_eq!(
                    got, want,
                    "divergence at t={} range={} n={} u={}", t, range, n, u
                );
            }
        }
    }

}
