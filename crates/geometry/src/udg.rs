//! Unit-disk graphs: the connectivity model of the paper's wireless network.
//!
//! Two nodes are connected iff their Euclidean distance is at most the
//! common transmission radius `r`. The paper's Figure 1 (topology of 50
//! nodes at 250 m vs 100 m in a 1000 m x 1000 m area) is exactly a pair of
//! unit-disk graphs; [`connectivity_probability`] inverts the Georgiou et al.
//! bound the copy-count decision (Algorithm 1) relies on.

use crate::graph::Graph;
use crate::grid::Grid;
use crate::point::Point2;

/// Builds the unit-disk graph of `points` with transmission radius `r`.
///
/// Edges are inclusive: `dist(u, v) <= r` connects.
///
/// # Panics
///
/// Panics if `r` is not strictly positive and finite.
///
/// # Examples
///
/// ```
/// use glr_geometry::{unit_disk_graph, Point2};
///
/// let pts = vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(50.0, 0.0),
///     Point2::new(200.0, 0.0),
/// ];
/// let g = unit_disk_graph(&pts, 100.0);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert!(!g.is_connected());
/// ```
pub fn unit_disk_graph(points: &[Point2], r: f64) -> Graph {
    assert!(r.is_finite() && r > 0.0, "radius must be positive, got {r}");
    let mut g = Graph::new(points.len());
    if points.is_empty() {
        return g;
    }
    let grid = Grid::build(points, r);
    for (u, &p) in points.iter().enumerate() {
        grid.for_each_within(points, p, r, |v| {
            if u < v {
                g.add_edge(u, v);
            }
        });
    }
    g
}

/// Estimated probability that a random `n`-node deployment with radius `r`
/// in a `width x height` region is connected, inverted from the Georgiou
/// bound: `p >= 1 - 1/s` where `ln s = n * pi * (r/sqrt(A))^2 - ln n`.
///
/// Clamped to `[0, 1]`. This is the quantity GLR's Algorithm 1 thresholds.
///
/// # Examples
///
/// ```
/// use glr_geometry::connectivity_probability;
///
/// let dense = connectivity_probability(50, 250.0, 1000.0, 1000.0);
/// let sparse = connectivity_probability(50, 100.0, 1000.0, 1000.0);
/// assert!(dense > 0.9);
/// assert!(sparse < 0.5);
/// ```
pub fn connectivity_probability(n: usize, r: f64, width: f64, height: f64) -> f64 {
    assert!(n >= 2, "need at least two nodes");
    assert!(
        r > 0.0 && width > 0.0 && height > 0.0,
        "dimensions must be positive"
    );
    let rn = r / (width * height).sqrt();
    let ln_s = n as f64 * std::f64::consts::PI * rn * rn - (n as f64).ln();
    if ln_s <= 0.0 {
        return 0.0;
    }
    (1.0 - (-ln_s).exp()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_inclusive_at_radius() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)];
        assert!(unit_disk_graph(&pts, 100.0).has_edge(0, 1));
        assert!(!unit_disk_graph(&pts, 99.999).has_edge(0, 1));
    }

    #[test]
    fn matches_brute_force() {
        let mut pts = Vec::new();
        let mut state = 12345u64;
        for _ in 0..120 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 20) % 1000) as f64;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((state >> 20) % 1000) as f64;
            pts.push(Point2::new(x, y));
        }
        let r = 150.0;
        let g = unit_disk_graph(&pts, r);
        for u in 0..pts.len() {
            for v in (u + 1)..pts.len() {
                assert_eq!(g.has_edge(u, v), pts[u].dist(pts[v]) <= r, "edge ({u},{v})");
            }
        }
    }

    #[test]
    fn empty_input() {
        let g = unit_disk_graph(&[], 10.0);
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn non_positive_radius_panics() {
        unit_disk_graph(&[Point2::ORIGIN], 0.0);
    }

    #[test]
    fn probability_monotone_in_radius() {
        let mut last = 0.0;
        for r in [50.0, 100.0, 150.0, 200.0, 250.0] {
            let p = connectivity_probability(50, r, 1000.0, 1000.0);
            assert!(p >= last, "probability must be non-decreasing in r");
            last = p;
        }
        assert!(connectivity_probability(50, 250.0, 1000.0, 1000.0) > 0.9);
    }

    #[test]
    fn fig1_shape_250_vs_100() {
        // Reproduce Figure 1's qualitative claim on a deterministic sample:
        // 50 nodes in 1000x1000; at 250 m the graph is connected or nearly
        // so, at 100 m it is badly fragmented.
        let mut pts = Vec::new();
        let mut state = 777u64;
        for _ in 0..50 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let x = ((state >> 17) % 1000) as f64;
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let y = ((state >> 17) % 1000) as f64;
            pts.push(Point2::new(x, y));
        }
        let dense = unit_disk_graph(&pts, 250.0);
        let sparse = unit_disk_graph(&pts, 100.0);
        assert!(dense.connected_components().len() <= 3);
        assert!(sparse.connected_components().len() > dense.connected_components().len());
        assert!(dense.edge_count() > 3 * sparse.edge_count());
    }
}
