//! Spanner quality metrics.
//!
//! The paper leans on the local Delaunay triangulation being a *constant
//! stretch* planar spanner (Keil & Gutwin bound the Delaunay stretch by
//! ~2.42). [`euclidean_stretch`] quantifies that for any subgraph: the
//! worst-case and average ratio of graph distance to straight-line distance.

use crate::graph::Graph;
use crate::point::Point2;

/// Summary of a spanner-quality measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchReport {
    /// Maximum over connected pairs of `d_G(u,v) / |uv|`.
    pub max_stretch: f64,
    /// Mean of the same ratio over connected pairs.
    pub mean_stretch: f64,
    /// Number of (ordered-once) pairs measured.
    pub pairs: usize,
}

/// Euclidean stretch of `g` relative to straight-line distance.
///
/// Only connected pairs with distinct positions contribute. Returns a
/// report with `max_stretch = 1` when fewer than two vertices are
/// connected.
///
/// # Panics
///
/// Panics if `positions.len() != g.len()`.
///
/// # Examples
///
/// ```
/// use glr_geometry::{euclidean_stretch, Graph, Point2};
///
/// // A detour: path 0-1-2 where 0-2 would be direct.
/// let pos = vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(1.0, 1.0),
///     Point2::new(2.0, 0.0),
/// ];
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// let r = euclidean_stretch(&g, &pos);
/// assert!((r.max_stretch - 2.0_f64.sqrt()).abs() < 1e-9);
/// ```
pub fn euclidean_stretch(g: &Graph, positions: &[Point2]) -> StretchReport {
    assert_eq!(
        positions.len(),
        g.len(),
        "positions must match vertex count"
    );
    let n = g.len();
    let mut max_s: f64 = 1.0;
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for u in 0..n {
        let d = g.euclidean_shortest_paths(u, positions);
        for v in (u + 1)..n {
            if !d[v].is_finite() {
                continue;
            }
            let direct = positions[u].dist(positions[v]);
            if direct == 0.0 {
                continue;
            }
            let s = d[v] / direct;
            max_s = max_s.max(s);
            sum += s;
            pairs += 1;
        }
    }
    StretchReport {
        max_stretch: max_s,
        mean_stretch: if pairs > 0 { sum / pairs as f64 } else { 1.0 },
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delaunay::Triangulation;
    use crate::ldt::k_ldtg;
    use crate::udg::unit_disk_graph;

    fn pseudo_random_points(n: usize, w: f64, h: f64, seed: u64) -> Vec<Point2> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point2::new(next() * w, next() * h))
            .collect()
    }

    #[test]
    fn complete_graph_stretch_is_one() {
        let pts = pseudo_random_points(12, 100.0, 100.0, 4);
        let mut g = Graph::new(12);
        for u in 0..12 {
            for v in (u + 1)..12 {
                g.add_edge(u, v);
            }
        }
        let r = euclidean_stretch(&g, &pts);
        assert!((r.max_stretch - 1.0).abs() < 1e-12);
        assert!((r.mean_stretch - 1.0).abs() < 1e-12);
        assert_eq!(r.pairs, 12 * 11 / 2);
    }

    #[test]
    fn delaunay_stretch_below_keil_gutwin_bound() {
        // The Delaunay triangulation is a ~2.42-spanner of the complete
        // Euclidean graph; random instances should sit well below that.
        for seed in [2, 6, 18] {
            let pts = pseudo_random_points(60, 1000.0, 1000.0, seed);
            let tri = Triangulation::build(&pts);
            let r = euclidean_stretch(&tri.to_graph(pts.len()), &pts);
            assert!(
                r.max_stretch < 2.42,
                "seed {seed}: stretch {} exceeds Keil-Gutwin bound",
                r.max_stretch
            );
            assert!(r.mean_stretch >= 1.0);
        }
    }

    #[test]
    fn ldtg_constant_stretch_vs_udg() {
        // The k-LDTG should approximate UDG distances within a small
        // constant — the property that makes it a good routing graph.
        for seed in [10, 30] {
            let pts = pseudo_random_points(50, 1000.0, 1000.0, seed);
            let udg = unit_disk_graph(&pts, 280.0);
            let ldtg = k_ldtg(&pts, 280.0, 2);
            let mut max_stretch: f64 = 1.0;
            for u in 0..pts.len() {
                let d_ldtg = ldtg.euclidean_shortest_paths(u, &pts);
                let d_udg = udg.euclidean_shortest_paths(u, &pts);
                for v in (u + 1)..pts.len() {
                    if d_udg[v].is_finite() && d_udg[v] > 0.0 {
                        max_stretch = max_stretch.max(d_ldtg[v] / d_udg[v]);
                    }
                }
            }
            assert!(
                max_stretch.is_finite(),
                "spanner must preserve connectivity"
            );
            assert!(
                max_stretch < 4.0,
                "seed {seed}: LDTG/UDG stretch {max_stretch}"
            );
        }
    }

    #[test]
    fn disconnected_pairs_are_skipped() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(10.0, 0.0),
        ];
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let r = euclidean_stretch(&g, &pts);
        assert_eq!(r.pairs, 1);
        assert!((r.max_stretch - 1.0).abs() < 1e-12);
    }
}
