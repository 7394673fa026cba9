//! Node-local routing-spanner construction from collected neighbourhood
//! views.
//!
//! At every route check a GLR node rebuilds its local view of the planar
//! spanner from whatever (stale) position information beaconing has
//! gathered. Two constructions are offered:
//!
//! * [`SpannerMode::LocalDelaunay`] — the node's Delaunay neighbours in its
//!   k-hop view, keeping those that are radio links. Only the node's own
//!   edges are needed, so the check runs
//!   [`glr_geometry::delaunay_star`]: a certified walk around the node's
//!   Delaunay fan, `O(|view| · degree)`, with no triangulation of the rest
//!   of the view. Whenever the walk cannot certify a predicate (ties,
//!   duplicates, collinear or cocircular views) it falls back to the full
//!   Bowyer–Watson triangulation, so the result always equals
//!   `Triangulation::build(view).has_edge(self, i)`. This is the fast path
//!   used in the big simulations.
//! * [`SpannerMode::KLocalDelaunay`] — the paper's full k-LDTG acceptance
//!   rule evaluated within the view (every view member's local Delaunay
//!   triangulation is consulted as a witness). More faithful, ~|view|×
//!   more expensive; used by the fidelity ablation.
//!
//! A node keeps one [`SpannerScratch`] and rebuilds into it at every check,
//! so the fast path allocates nothing once the buffers have grown.

use glr_geometry::{delaunay_star, ldtg_local_neighbors, Point2};
use glr_sim::{NeighborEntry, NodeId};

/// Locality parameter `k` of the k-LDTG: the paper's nodes collect
/// distance-2 neighbourhood information.
const K: usize = 2;

/// Which local spanner construction a GLR node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpannerMode {
    /// The node's own Delaunay edges in its view, via the certified star
    /// walk (default).
    #[default]
    LocalDelaunay,
    /// The paper's witness-checked k-LDTG rule within the view.
    KLocalDelaunay,
}

/// This node's spanner neighbours: the subset of its radio neighbours kept
/// by the local planar spanner, with their last-known positions.
///
/// `view` is the merged 1+2-hop table, `one_hop` the fresh radio
/// neighbours; only one-hop nodes can be next hops, but two-hop entries
/// shape the triangulation. Results are sorted by angle around `my_pos`
/// (the rotation order face routing needs).
///
/// Allocates fresh buffers; a caller that checks repeatedly keeps a
/// [`SpannerScratch`] and calls [`SpannerScratch::neighbors`] instead.
///
/// # Examples
///
/// ```
/// use glr_core::{spanner_neighbors, SpannerMode};
/// use glr_geometry::Point2;
/// use glr_sim::{NeighborEntry, NodeId, SimTime};
///
/// let t = SimTime::from_secs(1.0);
/// let mk = |id, x, y| NeighborEntry { id: NodeId(id), pos: Point2::new(x, y), heard_at: t };
/// let view = vec![mk(1, 60.0, 0.0), mk(2, 0.0, 60.0)];
/// let nbrs = spanner_neighbors(
///     Point2::ORIGIN,
///     &view,
///     &[NodeId(1), NodeId(2)],
///     100.0,
///     SpannerMode::LocalDelaunay,
/// );
/// assert_eq!(nbrs.len(), 2);
/// ```
pub fn spanner_neighbors(
    my_pos: Point2,
    view: &[NeighborEntry],
    one_hop: &[NodeId],
    radio_range: f64,
    mode: SpannerMode,
) -> Vec<(NodeId, Point2)> {
    let mut scratch = SpannerScratch::default();
    scratch.neighbors(my_pos, view, one_hop, radio_range, mode);
    scratch.out
}

/// Reusable buffers for [`spanner_neighbors`]: the view's points, the
/// Delaunay star and the result.
#[derive(Debug, Default, Clone)]
pub struct SpannerScratch {
    points: Vec<Point2>,
    star: Vec<usize>,
    out: Vec<(NodeId, Point2)>,
}

impl SpannerScratch {
    /// [`spanner_neighbors`] into this scratch's buffers; the returned
    /// slice lives until the next call.
    pub fn neighbors(
        &mut self,
        my_pos: Point2,
        view: &[NeighborEntry],
        one_hop: &[NodeId],
        radio_range: f64,
        mode: SpannerMode,
    ) -> &[(NodeId, Point2)] {
        self.out.clear();
        if view.is_empty() {
            return &self.out;
        }
        // Index 0 is self; the rest mirror `view`.
        self.points.clear();
        self.points.push(my_pos);
        self.points.extend(view.iter().map(|e| e.pos));

        match mode {
            SpannerMode::LocalDelaunay => {
                delaunay_star(&self.points, &mut self.star);
                let points = &self.points;
                self.star.retain(|&i| points[i].dist(my_pos) <= radio_range);
            }
            SpannerMode::KLocalDelaunay => {
                self.star = ldtg_local_neighbors(&self.points, 0, radio_range, K);
            }
        }
        self.out.extend(
            self.star
                .iter()
                .map(|&i| (view[i - 1].id, view[i - 1].pos))
                .filter(|(id, _)| one_hop.contains(id)),
        );
        self.out.sort_by(|a, b| {
            my_pos
                .angle_to(a.1)
                .partial_cmp(&my_pos.angle_to(b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        &self.out
    }
}

/// The neighbour following `prev` counter-clockwise around this node — the
/// right-hand-rule step of face recovery, evaluated on the node's own
/// (angle-sorted) spanner neighbours.
///
/// Returns `None` when `nbrs` is empty. When `prev` is no longer a
/// neighbour (it moved away), falls back to the first neighbour
/// counter-clockwise from the ray towards `toward`.
pub fn face_next_hop(
    my_pos: Point2,
    nbrs: &[(NodeId, Point2)],
    prev: NodeId,
    toward: Point2,
) -> Option<NodeId> {
    if nbrs.is_empty() {
        return None;
    }
    if let Some(i) = nbrs.iter().position(|&(id, _)| id == prev) {
        return Some(nbrs[(i + 1) % nbrs.len()].0);
    }
    first_ccw_from_direction(my_pos, nbrs, toward)
}

/// First neighbour counter-clockwise from the ray `my_pos -> toward`
/// (perimeter-mode entry edge).
pub fn first_ccw_from_direction(
    my_pos: Point2,
    nbrs: &[(NodeId, Point2)],
    toward: Point2,
) -> Option<NodeId> {
    if nbrs.is_empty() {
        return None;
    }
    let base = my_pos.angle_to(toward);
    nbrs.iter()
        .min_by(|a, b| {
            let oa = offset(base, my_pos.angle_to(a.1));
            let ob = offset(base, my_pos.angle_to(b.1));
            oa.partial_cmp(&ob).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|&(id, _)| id)
}

fn offset(base: f64, angle: f64) -> f64 {
    let mut d = angle - base;
    while d < 0.0 {
        d += std::f64::consts::TAU;
    }
    while d >= std::f64::consts::TAU {
        d -= std::f64::consts::TAU;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use glr_sim::SimTime;

    fn entry(id: u32, x: f64, y: f64) -> NeighborEntry {
        NeighborEntry {
            id: NodeId(id),
            pos: Point2::new(x, y),
            heard_at: SimTime::from_secs(1.0),
        }
    }

    #[test]
    fn keeps_only_radio_one_hop_neighbors() {
        // Node 3 is within Delaunay but beyond radio range; node 2 is a
        // 2-hop entry (not in one_hop).
        let view = vec![
            entry(1, 50.0, 0.0),
            entry(2, 0.0, 50.0),
            entry(3, 300.0, 300.0),
        ];
        let nbrs = spanner_neighbors(
            Point2::ORIGIN,
            &view,
            &[NodeId(1)],
            100.0,
            SpannerMode::LocalDelaunay,
        );
        assert_eq!(nbrs.len(), 1);
        assert_eq!(nbrs[0].0, NodeId(1));
    }

    #[test]
    fn delaunay_prunes_crossing_candidates() {
        // Four close neighbours around self plus one far on the same ray as
        // another: the Delaunay triangulation drops the long "shadowed" edge.
        let view = vec![
            entry(1, 40.0, 0.0),
            entry(2, 90.0, 1.0), // nearly behind node 1
            entry(3, 0.0, 40.0),
            entry(4, -40.0, 0.0),
            entry(5, 0.0, -40.0),
        ];
        let one_hop: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let nbrs = spanner_neighbors(
            Point2::ORIGIN,
            &view,
            &one_hop,
            100.0,
            SpannerMode::LocalDelaunay,
        );
        let ids: Vec<u32> = nbrs.iter().map(|&(id, _)| id.0).collect();
        assert!(ids.contains(&1));
        assert!(
            !ids.contains(&2),
            "shadowed long edge must be pruned: {ids:?}"
        );
    }

    #[test]
    fn modes_agree_on_tiny_symmetric_views() {
        let view = vec![
            entry(1, 60.0, 0.0),
            entry(2, 0.0, 60.0),
            entry(3, -60.0, 0.0),
        ];
        let one_hop: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let a = spanner_neighbors(
            Point2::ORIGIN,
            &view,
            &one_hop,
            100.0,
            SpannerMode::LocalDelaunay,
        );
        let b = spanner_neighbors(
            Point2::ORIGIN,
            &view,
            &one_hop,
            100.0,
            SpannerMode::KLocalDelaunay,
        );
        let ids = |v: &[(NodeId, Point2)]| v.iter().map(|&(i, _)| i).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn results_sorted_by_angle() {
        let view = vec![
            entry(1, 50.0, 1.0),  // ~0 rad
            entry(2, 0.0, 50.0),  // pi/2
            entry(3, -50.0, 1.0), // ~pi
            entry(4, 0.0, -50.0), // -pi/2
        ];
        let one_hop: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let nbrs = spanner_neighbors(
            Point2::ORIGIN,
            &view,
            &one_hop,
            100.0,
            SpannerMode::LocalDelaunay,
        );
        let angles: Vec<f64> = nbrs
            .iter()
            .map(|&(_, p)| Point2::ORIGIN.angle_to(p))
            .collect();
        for w in angles.windows(2) {
            assert!(w[0] <= w[1], "not angle-sorted: {angles:?}");
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_calls() {
        // A large view, then smaller and empty ones: nothing may leak from
        // one call's buffers into the next.
        let big: Vec<NeighborEntry> = (1..=12)
            .map(|i| {
                let a = i as f64 * 0.55;
                entry(
                    i,
                    70.0 * a.cos() + i as f64,
                    70.0 * a.sin() - 2.0 * i as f64,
                )
            })
            .collect();
        let views = [
            big.clone(),
            big[..3].to_vec(),
            Vec::new(),
            big[5..].to_vec(),
            big,
        ];
        let one_hop: Vec<NodeId> = (1..=12).step_by(2).map(NodeId).collect();
        let mut scratch = SpannerScratch::default();
        for mode in [SpannerMode::LocalDelaunay, SpannerMode::KLocalDelaunay] {
            for view in &views {
                let fresh = spanner_neighbors(Point2::ORIGIN, view, &one_hop, 100.0, mode);
                let reused = scratch.neighbors(Point2::ORIGIN, view, &one_hop, 100.0, mode);
                assert_eq!(reused, fresh.as_slice(), "{mode:?}, view of {}", view.len());
            }
        }
    }

    #[test]
    fn empty_view_no_neighbors() {
        assert!(
            spanner_neighbors(Point2::ORIGIN, &[], &[], 100.0, SpannerMode::LocalDelaunay)
                .is_empty()
        );
    }

    #[test]
    fn face_next_hop_rotates_ccw() {
        let nbrs = vec![
            (NodeId(1), Point2::new(10.0, 0.0)),
            (NodeId(2), Point2::new(0.0, 10.0)),
            (NodeId(3), Point2::new(-10.0, 0.0)),
        ]; // already angle-sorted
        assert_eq!(
            face_next_hop(Point2::ORIGIN, &nbrs, NodeId(1), Point2::new(5.0, 5.0)),
            Some(NodeId(2))
        );
        assert_eq!(
            face_next_hop(Point2::ORIGIN, &nbrs, NodeId(3), Point2::new(5.0, 5.0)),
            Some(NodeId(1)),
            "rotation wraps"
        );
        // Unknown prev falls back to direction-based entry.
        let got = face_next_hop(Point2::ORIGIN, &nbrs, NodeId(9), Point2::new(10.0, 1.0));
        assert!(got.is_some());
        assert!(face_next_hop(Point2::ORIGIN, &[], NodeId(1), Point2::ORIGIN).is_none());
    }

    #[test]
    fn first_ccw_entry_edge() {
        let nbrs = vec![
            (NodeId(1), Point2::new(10.0, -1.0)),
            (NodeId(2), Point2::new(0.0, 10.0)),
        ];
        // Heading due east: node 1 sits just clockwise of the ray, so the
        // first *counter-clockwise* edge is node 2.
        assert_eq!(
            first_ccw_from_direction(Point2::ORIGIN, &nbrs, Point2::new(100.0, 0.0)),
            Some(NodeId(2))
        );
    }
}
