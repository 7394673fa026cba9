//! Convex hull (Andrew's monotone chain), compiled for tests only.
//!
//! The Delaunay tests use it as an oracle: hull edges must appear in the
//! triangulation, and Euler's formula needs the hull vertex count.

use crate::point::Point2;
use crate::predicates::{orient2d, Sign};

/// Indices of the convex-hull vertices of `points`, in counter-clockwise
/// order starting from the lexicographically smallest point.
///
/// Collinear points on the hull boundary are **excluded** (strict hull).
/// Returns all input indices (sorted) when fewer than 3 points are given.
pub(crate) fn convex_hull(points: &[Point2]) -> Vec<usize> {
    let n = points.len();
    if n < 3 {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| lex_cmp(points[a], points[b]));
        return idx;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| lex_cmp(points[a], points[b]));
    idx.dedup_by(|a, b| points[*a] == points[*b]);
    if idx.len() < 3 {
        return idx;
    }

    let mut hull: Vec<usize> = Vec::with_capacity(idx.len() * 2);
    // Lower hull.
    for &i in &idx {
        while hull.len() >= 2
            && orient2d(
                points[hull[hull.len() - 2]],
                points[hull[hull.len() - 1]],
                points[i],
            ) != Sign::Positive
        {
            hull.pop();
        }
        hull.push(i);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &i in idx.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && orient2d(
                points[hull[hull.len() - 2]],
                points[hull[hull.len() - 1]],
                points[i],
            ) != Sign::Positive
        {
            hull.pop();
        }
        hull.push(i);
    }
    hull.pop(); // last point equals first
    hull
}

fn lex_cmp(a: Point2, b: Point2) -> std::cmp::Ordering {
    a.x.partial_cmp(&b.x)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn square_hull() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5),
        ];
        assert_eq!(convex_hull(&pts), vec![0, 1, 2, 3]);
    }

    #[test]
    fn collinear_points_excluded() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull, vec![0, 2, 3]);
    }

    #[test]
    fn degenerate_small_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[Point2::ORIGIN]), vec![0]);
        assert_eq!(
            convex_hull(&[Point2::new(1.0, 0.0), Point2::new(0.0, 0.0)]),
            vec![1, 0]
        );
    }

    #[test]
    fn hull_is_counter_clockwise() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 1.0),
            Point2::new(3.0, 4.0),
            Point2::new(-1.0, 3.0),
            Point2::new(1.5, 1.5),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        for w in 0..hull.len() {
            let a = pts[hull[w]];
            let b = pts[hull[(w + 1) % hull.len()]];
            let c = pts[hull[(w + 2) % hull.len()]];
            assert_eq!(orient2d(a, b, c), Sign::Positive);
        }
    }

    #[test]
    fn all_identical_points() {
        let pts = vec![Point2::new(1.0, 1.0); 5];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 1);
    }

    fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
        // Simulation-scale coordinates on a 1/64 grid, as in the crate's
        // property tests.
        let coord = || (-1.0e4..1.0e4f64).prop_map(|v| (v * 64.0).round() / 64.0);
        prop::collection::vec((coord(), coord()).prop_map(|(x, y)| Point2::new(x, y)), n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hull_contains_extremes(pts in points(3..40)) {
            let hull = convex_hull(&pts);
            prop_assume!(hull.len() >= 3);
            // The lexicographically smallest and largest points are hull vertices.
            let min = (0..pts.len()).min_by(|&i, &j| {
                pts[i].x.partial_cmp(&pts[j].x).unwrap().then(pts[i].y.partial_cmp(&pts[j].y).unwrap())
            }).unwrap();
            prop_assert!(hull.iter().any(|&h| pts[h] == pts[min]));
        }
    }
}
