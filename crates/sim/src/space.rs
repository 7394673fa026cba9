//! Spatial indexing of node positions for the engine's beacon fan-out.
//!
//! Every beacon needs "who is within `r` of this point right now": its
//! receiver set. A linear scan is `O(n)` per beacon; at paper scale that
//! is tolerable, but it is the dominant cost at larger node counts
//! (beacons alone make the engine `O(n²)` per simulated second).
//! [`SpatialIndex`] answers the same queries from a uniform grid
//! ([`glr_geometry::Grid`]) rebuilt lazily as simulated time advances.
//! The contention medium does not use it: its carrier-sense and
//! interference counts walk the short list of radios on air
//! ([`crate::ContentionMedium`]).
//!
//! **Exactness.** Node positions move continuously, so a grid built at
//! time `t` is stale at `t' > t`. The index exploits the mobility model's
//! bounded speed: a node can have drifted at most
//! `max_speed · (t' - t)` metres from its indexed position. Querying the
//! grid with the radius *inflated by that drift* yields a candidate
//! superset, which is then filtered by each candidate's exact position at
//! `t'` — using the *same* distance predicate as a linear scan over all
//! nodes. The index therefore returns exactly the node sets a linear scan
//! returns. The query-level proptests in `tests/grid_equivalence.rs` check
//! this against a plain scan, and the crate's test-only equivalence suite
//! checks that full simulation runs give bit-identical `RunStats` when a
//! test-only linear-scan oracle replaces the grid.
//!
//! The grid is rebuilt only when the accumulated drift exceeds a fixed
//! fraction of the cell size, amortising the `O(n)` rebuild over many
//! events.

use crate::config::SimConfig;
use crate::ids::NodeId;
use crate::time::SimTime;
use glr_geometry::{Grid, Point2};
use glr_mobility::DeploymentArena;

/// Extra metres added to the drift bound to absorb floating-point
/// accumulation in trajectory interpolation. Candidates are over-included
/// by this margin and discarded by the exact filter, so correctness never
/// depends on it being tight.
const DRIFT_EPSILON: f64 = 1e-6;

/// Fraction of the effective cell size the drift bound may reach before
/// the grid snapshot is rebuilt. Rebuild cadence is unobservable (the
/// drift-inflated query stays exact at any staleness); the trade is pure
/// performance: smaller values rebuild more often but keep the inflated
/// query radius — and with it the candidate set every exact filter must
/// walk — tight. Rebuilds reuse the grid's bucket allocations
/// ([`Grid::rebuild`]), so leaning toward frequent rebuilds is cheap.
const SLACK_FRACTION: f64 = 0.1;

/// A drift-compensated spatial index over the deployment's trajectory
/// arena.
///
/// Queries must follow a [`SpatialIndex::refresh`]: an index that was
/// never refreshed has no grid and answers every query by a full scan
/// over all `n` nodes.
///
/// # Examples
///
/// ```
/// use glr_sim::{NodeId, SimTime, SpatialIndex};
/// use glr_geometry::Point2;
/// use glr_mobility::DeploymentArena;
///
/// let mut arena = DeploymentArena::new();
/// for x in [0.0, 30.0, 500.0] {
///     arena.push(&[(0.0, Point2::new(x, 0.0))]); // stationary
/// }
/// let mut idx = SpatialIndex::new(arena.len(), 0.0, 100.0);
/// let t = SimTime::ZERO;
/// idx.refresh(t, &arena);
/// let near = idx.nodes_within(&arena, t, Point2::new(0.0, 0.0), 50.0, NodeId(0));
/// assert_eq!(near, vec![NodeId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    n: usize,
    /// Preferred cell size (the query radius); widened per rebuild when
    /// the deployment is so spread out that radius-sized cells would
    /// explode the bucket count.
    cell: f64,
    max_speed: f64,
    /// Rebuild once drift exceeds this many metres; derived from the
    /// effective cell size of the last rebuild, and `-∞` until the first
    /// refresh builds the grid.
    slack_limit: f64,
    built_at: SimTime,
    positions: Vec<Point2>,
    grid: Option<Grid>,
}

impl SpatialIndex {
    /// Creates an index over `n` nodes whose speed never exceeds
    /// `max_speed` (m/s), with grid cells of `cell_size` metres.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite or
    /// `max_speed` is negative.
    pub fn new(n: usize, max_speed: f64, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        assert!(
            max_speed.is_finite() && max_speed >= 0.0,
            "max speed must be finite and non-negative, got {max_speed}"
        );
        SpatialIndex {
            n,
            cell: cell_size,
            max_speed,
            slack_limit: f64::NEG_INFINITY,
            built_at: SimTime::ZERO,
            positions: Vec::new(),
            grid: None,
        }
    }

    /// Index configured for a simulation: cell size = radio range, speed
    /// bound from the mobility configuration (floored at
    /// [`glr_mobility::SPEED_FLOOR`], which the mobility models clamp
    /// sampled speeds *up* to — without it a config whose nominal maximum
    /// is below the floor would under-state the drift bound and break
    /// grid exactness).
    pub fn from_config(config: &SimConfig) -> Self {
        let max_speed = config.speed_range.1.max(glr_mobility::SPEED_FLOOR);
        // Half-radius cells: the scanned cell neighbourhood hugs the
        // query circle ~2x tighter than radius-sized cells (fewer
        // candidates for the exact filter), while the CSR grid keeps the
        // larger cell count cheap to rebuild and walk. Purely a
        // performance choice — any cell size returns the same sets.
        SpatialIndex::new(config.n_nodes, max_speed, config.radio_range * 0.5)
    }

    /// The linear-scan reference the grid is checked against: an index
    /// whose refresh never builds a grid, so every query scans all `n`
    /// nodes with the same exact predicate.
    #[cfg(test)]
    pub(crate) fn linear_scan(n: usize) -> Self {
        SpatialIndex {
            slack_limit: f64::INFINITY,
            ..SpatialIndex::new(n, 0.0, 1.0)
        }
    }

    /// Metres any node may have moved since the grid snapshot at `now`.
    fn drift(&self, now: SimTime) -> f64 {
        self.max_speed * (now.as_secs() - self.built_at.as_secs()).max(0.0) + DRIFT_EPSILON
    }

    /// Brings the index up to date for queries at `now`: builds the grid
    /// snapshot on the first call, and rebuilds it when the drift bound
    /// has outgrown its slack.
    pub fn refresh(&mut self, now: SimTime, arena: &DeploymentArena) {
        debug_assert_eq!(arena.len(), self.n, "trajectory count changed");
        if self.drift(now) <= self.slack_limit {
            return;
        }
        let t = now.as_secs();
        self.positions.clear();
        self.positions
            .extend((0..self.n).map(|i| arena.position_at(i, t)));
        // Keep the bucket count O(n): radius-sized cells over a deployment
        // far sparser than the radio range (e.g. a 100 km region with a
        // 1 m radio) would allocate billions of empty buckets. Widening
        // cells only trades query work, never correctness.
        let (min, max) = glr_geometry::bounding_box(&self.positions);
        let side_cap = ((self.n as f64).sqrt().ceil() * 2.0).max(1.0);
        let cell_eff = self
            .cell
            .max((max.x - min.x) / side_cap)
            .max((max.y - min.y) / side_cap);
        match &mut self.grid {
            Some(g) => g.rebuild(&self.positions, cell_eff),
            None => self.grid = Some(Grid::build(&self.positions, cell_eff)),
        }
        self.slack_limit = cell_eff * SLACK_FRACTION;
        self.built_at = now;
    }

    /// Ids of all nodes within `range` of `center` at `now`, excluding
    /// `except`, in ascending id order — exactly the set a linear scan
    /// over true positions returns.
    ///
    /// [`SpatialIndex::refresh`] must have been called at a time `≤ now`
    /// (the engine refreshes at the top of every query; the drift bound
    /// keeps any `now ≥ built_at` correct).
    pub fn nodes_within(
        &self,
        arena: &DeploymentArena,
        now: SimTime,
        center: Point2,
        range: f64,
        except: NodeId,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_within(arena, now, center, range, except, |v| out.push(v));
        out.sort_unstable();
        out
    }

    /// Calls `f` once for every node of [`SpatialIndex::nodes_within`]'s
    /// set, in the grid's visit order rather than id order — the
    /// allocation-free form the engine's beacon fan-out uses.
    ///
    /// The grid cells the drift-inflated radius touches (or every node,
    /// when there is no grid) give a candidate superset, which the exact
    /// distance test then filters.
    pub(crate) fn for_each_within(
        &self,
        arena: &DeploymentArena,
        now: SimTime,
        center: Point2,
        range: f64,
        except: NodeId,
        mut f: impl FnMut(NodeId),
    ) {
        let t = now.as_secs();
        let mut visit = |v: NodeId| {
            if v != except && in_range(arena, t, center, range, v) {
                f(v);
            }
        };
        match &self.grid {
            Some(grid) => {
                grid.for_each_within(&self.positions, center, range + self.drift(now), |i| {
                    visit(NodeId(i as u32))
                });
            }
            None => {
                for i in 0..self.n as u32 {
                    visit(NodeId(i));
                }
            }
        }
    }
}

/// The exact membership predicate — the same test a linear scan applies,
/// so grid and scan can never disagree on boundary cases.
fn in_range(arena: &DeploymentArena, t: f64, center: Point2, range: f64, v: NodeId) -> bool {
    arena.position_at(v.index(), t).dist(center) <= range
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moving(trajs: &[(f64, f64, f64, f64)]) -> DeploymentArena {
        // Each node moves from (x0, y0) to (x1, y1) over 100 s.
        let mut arena = DeploymentArena::new();
        for &(x0, y0, x1, y1) in trajs {
            arena.push(&[(0.0, Point2::new(x0, y0)), (100.0, Point2::new(x1, y1))]);
        }
        arena
    }

    #[test]
    fn grid_matches_linear_while_nodes_move() {
        let trajs = moving(&[
            (0.0, 0.0, 200.0, 0.0),
            (50.0, 0.0, 50.0, 90.0),
            (400.0, 400.0, 0.0, 0.0),
            (90.0, 10.0, 95.0, 15.0),
        ]);
        let max_speed = (0..trajs.len())
            .map(|i| {
                let (a, b) = (trajs.position_at(i, 0.0), trajs.position_at(i, 100.0));
                a.dist(b) / 100.0
            })
            .fold(0.0, f64::max);
        let mut grid = SpatialIndex::new(4, max_speed, 100.0);
        let mut linear = SpatialIndex::linear_scan(4);
        // Refresh once at t=0, then query later times without refreshing:
        // the drift inflation must keep results exact.
        grid.refresh(SimTime::ZERO, &trajs);
        linear.refresh(SimTime::ZERO, &trajs);
        assert!(linear.grid.is_none(), "the linear-scan oracle built a grid");
        for secs in [0.0, 1.0, 3.0, 7.0, 20.0, 55.0, 99.0] {
            let now = SimTime::from_secs(secs);
            for r in [30.0, 100.0, 250.0] {
                for except in 0..4u32 {
                    let c = trajs.position_at(except as usize, secs);
                    let got = grid.nodes_within(&trajs, now, c, r, NodeId(except));
                    let want = linear.nodes_within(&trajs, now, c, r, NodeId(except));
                    assert_eq!(got, want, "t={secs} r={r} except={except}");
                }
            }
        }
    }

    #[test]
    fn refresh_rebuilds_only_after_slack() {
        let trajs = moving(&[(0.0, 0.0, 100.0, 0.0), (10.0, 0.0, 10.0, 0.0)]);
        // 1 m/s, 100 m cells → slack of SLACK_FRACTION·100 m, reached
        // after SLACK_FRACTION·100 seconds.
        let slack_secs = 100.0 * SLACK_FRACTION;
        let mut idx = SpatialIndex::new(2, 1.0, 100.0);
        idx.refresh(SimTime::ZERO, &trajs);
        let built = idx.built_at;
        idx.refresh(SimTime::from_secs(slack_secs * 0.5), &trajs);
        assert_eq!(idx.built_at, built, "rebuilt before slack was exceeded");
        idx.refresh(SimTime::from_secs(slack_secs * 2.0), &trajs);
        assert_eq!(idx.built_at, SimTime::from_secs(slack_secs * 2.0));
    }
}
