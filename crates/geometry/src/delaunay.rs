//! Delaunay triangulation via Bowyer–Watson incremental insertion, and the
//! Delaunay star of a single point.
//!
//! The GLR spanner is built from *local* Delaunay triangulations of k-hop
//! neighbourhoods (at most a few dozen points each), so an `O(n^2)`
//! incremental algorithm with exact predicates is the right trade-off:
//! simple, robust, and fast at the sizes that matter. The implementation
//! still handles thousands of points well enough for the benchmark suite.
//!
//! Degenerate inputs get the standard limit behaviour: fewer than two
//! points yield no edges, two points yield one edge, and fully collinear
//! sets yield the path connecting consecutive points.
//!
//! # The star walk
//!
//! A route check needs only the edges at point 0, so [`delaunay_star`]
//! computes exactly `{i : Triangulation::build(points).has_edge(0, i)}`
//! without triangulating the rest:
//!
//! 1. Start from point 0's nearest point, which is a Delaunay neighbour.
//! 2. Walk the fan of triangles around point 0: from the edge `(0, a)` the
//!    next neighbour is the point left of `0 -> a` whose circle through
//!    `0` and `a` no other left point enters (an `incircle` tournament).
//!    Walk counter-clockwise until the fan closes; if it hits the hull
//!    instead, walk clockwise from the start until the other hull edge.
//! 3. Certify each fan triangle: every view point lies strictly outside
//!    its circumcircle.
//! 4. Keep a fan triangle's two neighbours only if its circumcircle also
//!    excludes all three super vertices Bowyer–Watson inserts first. That
//!    is Bowyer–Watson's "drop super-vertex triangles" rule, which can
//!    remove a hull edge whose triangle is a near-collinear sliver.
//!
//! Every sign the walk uses comes from the filter-only predicates, so it is
//! exact. The walk is `O(n · degree)` with no allocation beyond the output.
//!
//! **Fallback contract.** [`certified_delaunay_star`] refuses (returns
//! `false`) on any uncertain or zero predicate, an exact tie for the
//! nearest point, a duplicate of point 0, a non-finite coordinate, or a
//! walk that does not terminate within `n` steps. Duplicates of other
//! points and all-collinear views show up as zero predicates. On refusal
//! [`delaunay_star`] answers from [`Triangulation::build`], so its result
//! always equals the full triangulation's. Views of fewer than three points
//! are answered directly.

use crate::point::Point2;
use crate::predicates::{incircle, incircle_filtered, orient2d, orient2d_filtered, Sign};
use std::collections::HashSet;

/// A Delaunay triangulation of a point set.
///
/// Construct with [`Triangulation::build`]. Triangle vertices are indices
/// into the original slice and are stored in counter-clockwise order.
///
/// # Examples
///
/// ```
/// use glr_geometry::{Point2, Triangulation};
///
/// let pts = vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(1.0, 0.0),
///     Point2::new(0.0, 1.0),
///     Point2::new(1.0, 1.0),
/// ];
/// let tri = Triangulation::build(&pts);
/// assert_eq!(tri.triangles().len(), 2);
/// assert!(tri.has_edge(0, 1));
/// assert!(tri.has_edge(0, 3) ^ tri.has_edge(1, 2)); // one diagonal
/// ```
#[derive(Debug, Clone)]
pub struct Triangulation {
    triangles: Vec<[usize; 3]>,
    edges: HashSet<(usize, usize)>,
}

impl Triangulation {
    /// Builds the Delaunay triangulation of `points`.
    ///
    /// Duplicate points are tolerated (duplicates after the first are
    /// skipped and end up isolated). Cocircular configurations are resolved
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is non-finite.
    pub fn build(points: &[Point2]) -> Self {
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} has non-finite coordinates");
        }
        let n = points.len();
        if n < 2 {
            return Triangulation {
                triangles: Vec::new(),
                edges: HashSet::new(),
            };
        }
        if n == 2 {
            let mut edges = HashSet::new();
            if points[0] != points[1] {
                edges.insert(ordered(0, 1));
            }
            return Triangulation {
                triangles: Vec::new(),
                edges,
            };
        }

        if let Some(chain) = collinear_chain(points) {
            return Triangulation {
                triangles: Vec::new(),
                edges: chain,
            };
        }

        Self::bowyer_watson(points)
    }

    fn bowyer_watson(points: &[Point2]) -> Self {
        let n = points.len();
        // Working point list: real points then three super-triangle vertices.
        let (min, max) = crate::grid::bounding_box(points);
        let mut pts: Vec<Point2> = points.to_vec();
        pts.extend(super_vertices(min, max));
        let s0 = n;
        let s1 = n + 1;
        let s2 = n + 2;

        let mut tris: Vec<[usize; 3]> = vec![[s0, s1, s2]];
        let mut seen_dup: HashSet<(u64, u64)> = HashSet::new();

        for p in 0..n {
            // Skip exact duplicates: inserting them would create degenerate
            // triangles.
            let key = (pts[p].x.to_bits(), pts[p].y.to_bits());
            if !seen_dup.insert(key) {
                continue;
            }
            // Find all triangles whose circumcircle contains pts[p].
            let mut bad: Vec<usize> = Vec::new();
            for (ti, t) in tris.iter().enumerate() {
                if in_circumcircle(&pts, *t, pts[p]) {
                    bad.push(ti);
                }
            }
            // Boundary of the cavity: edges belonging to exactly one bad
            // triangle.
            let mut boundary: Vec<(usize, usize)> = Vec::new();
            for &ti in &bad {
                let t = tris[ti];
                for e in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                    let shared = bad.iter().any(|&tj| {
                        tj != ti && {
                            let u = tris[tj];
                            let es = [
                                ordered(u[0], u[1]),
                                ordered(u[1], u[2]),
                                ordered(u[2], u[0]),
                            ];
                            es.contains(&ordered(e.0, e.1))
                        }
                    });
                    if !shared {
                        boundary.push(e);
                    }
                }
            }
            // Remove bad triangles (descending order keeps indices valid).
            for &ti in bad.iter().rev() {
                tris.swap_remove(ti);
            }
            // Re-triangulate the cavity.
            for (a, b) in boundary {
                // Ensure counter-clockwise orientation.
                match orient2d(pts[a], pts[b], pts[p]) {
                    Sign::Positive => tris.push([a, b, p]),
                    Sign::Negative => tris.push([b, a, p]),
                    Sign::Zero => {} // degenerate sliver; skip
                }
            }
        }

        // Drop triangles using super vertices.
        let triangles: Vec<[usize; 3]> = tris
            .into_iter()
            .filter(|t| t.iter().all(|&v| v < n))
            .collect();
        let mut edges = HashSet::new();
        for t in &triangles {
            edges.insert(ordered(t[0], t[1]));
            edges.insert(ordered(t[1], t[2]));
            edges.insert(ordered(t[2], t[0]));
        }
        Triangulation { triangles, edges }
    }

    /// The triangles, each a counter-clockwise index triple.
    #[inline]
    pub fn triangles(&self) -> &[[usize; 3]] {
        &self.triangles
    }

    /// `true` when `uv` is a Delaunay edge.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edges.contains(&ordered(u, v))
    }

    /// Iterates over the undirected edge set as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Converts the edge set to a [`crate::Graph`] on the same vertex
    /// indices; `n` is the number of points the triangulation was built
    /// from.
    pub fn to_graph(&self, n: usize) -> crate::Graph {
        let mut g = crate::Graph::new(n);
        for &(u, v) in &self.edges {
            g.add_edge(u, v);
        }
        g
    }
}

/// The super-triangle vertices Bowyer–Watson wraps a point set with
/// bounding box `min..max` in. The star walk tests against the same three
/// points, bit for bit.
fn super_vertices(min: Point2, max: Point2) -> [Point2; 3] {
    let span = (max.x - min.x).max(max.y - min.y).max(1.0);
    let cx = (min.x + max.x) * 0.5;
    let cy = (min.y + max.y) * 0.5;
    // Far enough that no circumcircle of a non-degenerate real triangle
    // reaches the super vertices at simulation scales.
    let big = span * 1.0e6;
    [
        Point2::new(cx - 2.0 * big, cy - big),
        Point2::new(cx + 2.0 * big, cy - big),
        Point2::new(cx, cy + 2.0 * big),
    ]
}

/// Point 0's Delaunay neighbours: writes into `out` (cleared first, sorted
/// ascending) every `i` with `Triangulation::build(points).has_edge(0, i)`.
///
/// Runs the certified star walk (see the module docs) and falls back to
/// the full triangulation when the walk cannot certify its answer. `out`
/// is reused across calls, so a caller that keeps it allocates nothing on
/// the fast path.
///
/// # Panics
///
/// Panics if any coordinate is non-finite, as [`Triangulation::build`]
/// does.
///
/// # Examples
///
/// ```
/// use glr_geometry::{delaunay_star, Point2};
///
/// let pts = vec![
///     Point2::new(0.0, 0.0),   // point 0
///     Point2::new(10.0, 0.0),
///     Point2::new(0.0, 10.0),
///     Point2::new(25.0, 1.0),  // hidden behind point 1
/// ];
/// let mut nbrs = Vec::new();
/// delaunay_star(&pts, &mut nbrs);
/// assert_eq!(nbrs, vec![1, 2]);
/// ```
pub fn delaunay_star(points: &[Point2], out: &mut Vec<usize>) {
    if certified_delaunay_star(points, out) {
        return;
    }
    let tri = Triangulation::build(points);
    out.clear();
    out.extend((1..points.len()).filter(|&i| tri.has_edge(0, i)));
}

/// The fast path of [`delaunay_star`] alone: returns `true` and fills
/// `out` (sorted ascending) when every predicate of the star walk was
/// certified, and `false` (with `out` unspecified) when the caller must
/// fall back to [`Triangulation::build`].
///
/// When it returns `true`, `out` equals the neighbours of point 0 in
/// `Triangulation::build(points)`.
pub(crate) fn certified_delaunay_star(points: &[Point2], out: &mut Vec<usize>) -> bool {
    out.clear();
    star_walk(points, out).is_ok()
}

/// A predicate the filter could not certify, or a degenerate input.
struct Uncertain;

/// Certified sign, or [`Uncertain`].
#[inline]
fn certain(sign: Option<Sign>) -> Result<Sign, Uncertain> {
    sign.ok_or(Uncertain)
}

fn star_walk(points: &[Point2], out: &mut Vec<usize>) -> Result<(), Uncertain> {
    let n = points.len();
    if points.iter().any(|p| !p.is_finite()) {
        return Err(Uncertain);
    }
    if n < 3 {
        if n == 2 && points[0] != points[1] {
            out.push(1);
        }
        return Ok(());
    }
    // The walk starts from the nearest point.
    let p0 = points[0];
    let (mut first, mut nearest, mut tie) = (0, f64::INFINITY, false);
    for (i, &p) in points.iter().enumerate().skip(1) {
        let d = p0.dist_sq(p);
        if d < nearest {
            (first, nearest, tie) = (i, d, false);
        } else if d == nearest {
            tie = true;
        }
    }
    if tie || nearest == 0.0 {
        return Err(Uncertain);
    }
    let (min, max) = crate::grid::bounding_box(points);
    let supers = super_vertices(min, max);

    // Counter-clockwise until the fan closes; if it meets the hull
    // instead, point 0 is a hull vertex and the clockwise walk from the
    // start covers the rest of its fan.
    let mut budget = n;
    if !walk_fan(points, &supers, first, Sign::Positive, &mut budget, out)? {
        walk_fan(points, &supers, first, Sign::Negative, &mut budget, out)?;
    }
    out.sort_unstable();
    out.dedup();
    Ok(())
}

/// Walks point 0's fan from `first` towards `side` (`Positive` =
/// counter-clockwise), keeping each fan triangle's neighbours. Returns
/// whether the walk came back to `first` (point 0 is interior). `budget`
/// caps the total steps, so an inconsistent view cannot loop forever.
fn walk_fan(
    points: &[Point2],
    supers: &[Point2; 3],
    first: usize,
    side: Sign,
    budget: &mut usize,
    out: &mut Vec<usize>,
) -> Result<bool, Uncertain> {
    let mut cur = first;
    while let Some(next) = fan_step(points, cur, side)? {
        *budget = budget.checked_sub(1).ok_or(Uncertain)?;
        if side == Sign::Positive {
            keep_fan_triangle(points, supers, cur, next, out)?;
        } else {
            keep_fan_triangle(points, supers, next, cur, out)?;
        }
        if next == first {
            return Ok(true);
        }
        cur = next;
    }
    Ok(false)
}

/// The next fan neighbour after `cur` on `side` of the ray `0 -> cur`
/// (`Positive` = counter-clockwise), or `None` when no point lies there.
/// Among the points on that side it picks the one whose circle through
/// `0` and `cur` no other point on that side enters.
fn fan_step(points: &[Point2], cur: usize, side: Sign) -> Result<Option<usize>, Uncertain> {
    let (p0, a) = (points[0], points[cur]);
    let mut best: Option<usize> = None;
    for (i, &p) in points.iter().enumerate().skip(1) {
        if i == cur || certain(orient2d_filtered(p0, a, p))? != side {
            continue;
        }
        best = Some(match best {
            None => i,
            Some(b) => {
                // Orient the triangle through 0, cur and the incumbent
                // counter-clockwise; `p` inside its circle displaces it.
                let inside = if side == Sign::Positive {
                    incircle_filtered(p0, a, points[b], p)
                } else {
                    incircle_filtered(p0, points[b], a, p)
                };
                if certain(inside)? == Sign::Positive {
                    i
                } else {
                    b
                }
            }
        });
    }
    Ok(best)
}

/// Certifies the counter-clockwise fan triangle `(0, a, b)` as Delaunay
/// and, when Bowyer–Watson keeps it (no super vertex inside its
/// circumcircle), records `a` and `b` as neighbours of point 0.
fn keep_fan_triangle(
    points: &[Point2],
    supers: &[Point2; 3],
    a: usize,
    b: usize,
    out: &mut Vec<usize>,
) -> Result<(), Uncertain> {
    let (p0, pa, pb) = (points[0], points[a], points[b]);
    for (i, &p) in points.iter().enumerate().skip(1) {
        if i != a && i != b && certain(incircle_filtered(p0, pa, pb, p))? != Sign::Negative {
            return Err(Uncertain);
        }
    }
    for &s in supers {
        // `s` inside the circle of (0, a, b) is `incircle(0, a, b, s) > 0`,
        // i.e. `incircle(s, a, b, 0) < 0`. Differences taken relative to
        // point 0 keep the filter tight next to the far super vertex.
        if certain(incircle_filtered(s, pa, pb, p0))? == Sign::Negative {
            return Ok(());
        }
    }
    out.push(a);
    out.push(b);
    Ok(())
}

/// Circumcircle membership for Bowyer–Watson, robust to the triangle's
/// stored orientation.
fn in_circumcircle(pts: &[Point2], t: [usize; 3], p: Point2) -> bool {
    let (a, b, c) = (pts[t[0]], pts[t[1]], pts[t[2]]);
    match orient2d(a, b, c) {
        Sign::Positive => incircle(a, b, c, p) == Sign::Positive,
        Sign::Negative => incircle(a, c, b, p) == Sign::Positive,
        Sign::Zero => false,
    }
}

#[inline]
fn ordered(u: usize, v: usize) -> (usize, usize) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// When all points are collinear, returns the path edge set connecting
/// consecutive distinct points along the line; `None` otherwise.
fn collinear_chain(points: &[Point2]) -> Option<HashSet<(usize, usize)>> {
    let n = points.len();
    // Find two distinct points to define the line.
    let first = points[0];
    let anchor = (1..n).find(|&i| points[i] != first)?;
    for i in 1..n {
        if orient2d(first, points[anchor], points[i]) != Sign::Zero {
            return None;
        }
    }
    // Sort along the dominant axis and connect consecutive distinct points.
    let mut idx: Vec<usize> = (0..n).collect();
    let dx = (points[anchor].x - first.x).abs();
    let dy = (points[anchor].y - first.y).abs();
    if dx >= dy {
        idx.sort_by(|&a, &b| points[a].x.partial_cmp(&points[b].x).unwrap());
    } else {
        idx.sort_by(|&a, &b| points[a].y.partial_cmp(&points[b].y).unwrap());
    }
    let mut edges = HashSet::new();
    let mut prev = idx[0];
    for &i in &idx[1..] {
        if points[i] != points[prev] {
            edges.insert(ordered(prev, i));
            prev = i;
        }
    }
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exhaustive empty-circumcircle check; cocircular points allowed on the
    /// boundary.
    fn assert_delaunay(points: &[Point2], tri: &Triangulation) {
        for t in tri.triangles() {
            let (a, b, c) = (points[t[0]], points[t[1]], points[t[2]]);
            assert_eq!(orient2d(a, b, c), Sign::Positive, "triangle not ccw");
            for (i, &p) in points.iter().enumerate() {
                if t.contains(&i) {
                    continue;
                }
                assert_ne!(
                    incircle(a, b, c, p),
                    Sign::Positive,
                    "point {i} strictly inside circumcircle of {t:?}"
                );
            }
        }
    }

    fn pseudo_random_points(n: usize, scale: f64, seed: u64) -> Vec<Point2> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point2::new(next() * scale, next() * scale))
            .collect()
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(Triangulation::build(&[]).edge_count(), 0);
        assert_eq!(Triangulation::build(&[Point2::ORIGIN]).edge_count(), 0);
    }

    #[test]
    fn two_points_single_edge() {
        let tri = Triangulation::build(&[Point2::ORIGIN, Point2::new(1.0, 0.0)]);
        assert!(tri.has_edge(0, 1));
        assert_eq!(tri.edge_count(), 1);
        assert!(tri.triangles().is_empty());
    }

    #[test]
    fn duplicate_points_tolerated() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 0.0), // duplicate of index 1
        ];
        let tri = Triangulation::build(&pts);
        assert_eq!(tri.triangles().len(), 1);
    }

    #[test]
    fn single_triangle() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.5, 1.0),
        ];
        let tri = Triangulation::build(&pts);
        assert_eq!(tri.triangles().len(), 1);
        assert_eq!(tri.edge_count(), 3);
        assert_delaunay(&pts, &tri);
    }

    #[test]
    fn collinear_points_form_chain() {
        let pts = vec![
            Point2::new(2.0, 2.0),
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(3.0, 3.0),
        ];
        let tri = Triangulation::build(&pts);
        assert!(tri.triangles().is_empty());
        assert_eq!(tri.edge_count(), 3);
        assert!(tri.has_edge(1, 2));
        assert!(tri.has_edge(2, 0));
        assert!(tri.has_edge(0, 3));
        assert!(!tri.has_edge(1, 3));
    }

    #[test]
    fn vertical_collinear_chain() {
        let pts = vec![
            Point2::new(0.0, 3.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.0, 2.0),
        ];
        let tri = Triangulation::build(&pts);
        assert_eq!(tri.edge_count(), 2);
        assert!(tri.has_edge(1, 2));
        assert!(tri.has_edge(2, 0));
    }

    #[test]
    fn square_has_two_triangles() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let tri = Triangulation::build(&pts);
        assert_eq!(tri.triangles().len(), 2);
        // All four sides present.
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            assert!(tri.has_edge(u, v), "missing side ({u},{v})");
        }
        assert_delaunay(&pts, &tri);
    }

    #[test]
    fn random_points_are_delaunay() {
        for seed in [1, 7, 42] {
            let pts = pseudo_random_points(60, 1000.0, seed);
            let tri = Triangulation::build(&pts);
            assert_delaunay(&pts, &tri);
            // Euler: for a triangulation of a point set with h hull vertices,
            // triangles = 2n - 2 - h and edges = 3n - 3 - h.
            let h = crate::hull::convex_hull(&pts).len();
            let n = pts.len();
            assert_eq!(tri.triangles().len(), 2 * n - 2 - h, "seed {seed}");
            assert_eq!(tri.edge_count(), 3 * n - 3 - h, "seed {seed}");
        }
    }

    #[test]
    fn hull_edges_belong_to_triangulation() {
        let pts = pseudo_random_points(40, 500.0, 123);
        let tri = Triangulation::build(&pts);
        let hull = crate::hull::convex_hull(&pts);
        for w in 0..hull.len() {
            let u = hull[w];
            let v = hull[(w + 1) % hull.len()];
            assert!(tri.has_edge(u, v), "hull edge ({u},{v}) missing");
        }
    }

    #[test]
    fn grid_points_cocircular_ok() {
        // 4x4 grid: every unit square is cocircular — worst case for the
        // incircle tie-breaking.
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                pts.push(Point2::new(i as f64, j as f64));
            }
        }
        let tri = Triangulation::build(&pts);
        assert_delaunay(&pts, &tri);
        // Euler's formula counts *boundary* vertices including collinear
        // ones: the 4x4 grid has 12 of them (strict hull has only 4).
        let h = 12;
        assert_eq!(tri.triangles().len(), 2 * pts.len() - 2 - h);
        assert_eq!(tri.edge_count(), 3 * pts.len() - 3 - h);
    }

    #[test]
    fn to_graph_roundtrip() {
        let pts = pseudo_random_points(25, 100.0, 5);
        let tri = Triangulation::build(&pts);
        let g = tri.to_graph(pts.len());
        assert_eq!(g.edge_count(), tri.edge_count());
        for (u, v) in tri.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn delaunay_edges_do_not_cross() {
        let pts = pseudo_random_points(50, 800.0, 99);
        let tri = Triangulation::build(&pts);
        let edges: Vec<_> = tri.edges().collect();
        for (i, &(a, b)) in edges.iter().enumerate() {
            for &(c, d) in &edges[i + 1..] {
                assert!(
                    !crate::predicates::segments_cross(pts[a], pts[b], pts[c], pts[d]),
                    "edges ({a},{b}) and ({c},{d}) cross"
                );
            }
        }
    }

    /// Simulation-scale coordinates snapped to 1/64 m, as in the crate's
    /// property tests.
    fn coord() -> impl Strategy<Value = f64> {
        (-1.0e4..1.0e4f64).prop_map(|v| (v * 64.0).round() / 64.0)
    }

    fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
        prop::collection::vec((coord(), coord()).prop_map(|(x, y)| Point2::new(x, y)), n)
    }

    /// Views spread over the paper's 1500 m x 300 m deployment strip, with
    /// unrounded coordinates as the simulator produces them.
    fn strip_view(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
        prop::collection::vec(
            (0.0..1500.0f64, 0.0..300.0f64).prop_map(|(x, y)| Point2::new(x, y)),
            n,
        )
    }

    /// Distance-two views as a route check sees them: everything within two
    /// 100 m radio hops of a node somewhere in the strip.
    fn local_view(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
        (
            (0.0..1500.0f64, 0.0..300.0f64),
            prop::collection::vec((-200.0..200.0f64, -200.0..200.0f64), n),
        )
            .prop_map(|((cx, cy), offsets)| {
                offsets
                    .into_iter()
                    .map(|(dx, dy)| Point2::new(cx + dx, cy + dy))
                    .collect()
            })
    }

    /// Point 0's neighbours in the full Bowyer–Watson triangulation.
    fn oracle_star(points: &[Point2]) -> Vec<usize> {
        let tri = Triangulation::build(points);
        (1..points.len()).filter(|&i| tri.has_edge(0, i)).collect()
    }

    /// Whether the certified star walk answers, checking that any answer it
    /// gives equals the oracle and that `delaunay_star` always does.
    fn star_answers(points: &[Point2]) -> bool {
        let oracle = oracle_star(points);
        let mut star = vec![usize::MAX];
        delaunay_star(points, &mut star);
        assert_eq!(
            star, oracle,
            "delaunay_star differs from the oracle on {points:?}"
        );
        let certified = certified_delaunay_star(points, &mut star);
        if certified {
            assert_eq!(
                star, oracle,
                "certified star differs from the oracle on {points:?}"
            );
        }
        certified
    }

    #[test]
    fn star_walk_falls_back_on_duplicates() {
        let p = |x, y| Point2::new(x, y);
        // A duplicate of self.
        assert!(!star_answers(&[
            p(10.0, 10.0),
            p(40.0, 12.0),
            p(10.0, 10.0),
            p(15.0, 50.0)
        ]));
        // A duplicate of one of self's neighbours.
        assert!(!star_answers(&[
            p(10.0, 10.0),
            p(40.0, 12.0),
            p(15.0, 50.0),
            p(40.0, 12.0),
            p(-20.0, 5.0),
        ]));
        // Below three points the answer is direct, duplicate or not.
        let mut star = Vec::new();
        assert!(certified_delaunay_star(
            &[p(3.0, 4.0), p(3.0, 4.0)],
            &mut star
        ));
        assert!(star.is_empty());
    }

    #[test]
    fn star_walk_falls_back_on_collinear_views() {
        let line: Vec<Point2> = [3.0, 0.0, 1.0, 7.5, -2.0]
            .iter()
            .map(|&t| Point2::new(100.0 + 2.0 * t, 50.0 - t))
            .collect();
        assert!(!star_answers(&line));
        let vertical: Vec<Point2> = [5.0, 1.0, 9.0]
            .iter()
            .map(|&y| Point2::new(0.0, y))
            .collect();
        assert!(!star_answers(&vertical));
    }

    #[test]
    fn star_walk_falls_back_on_cocircular_grid() {
        // 4x4 grid: every unit square is cocircular, and every vertex has a
        // nearest-neighbour tie. Put each vertex at index 0 in turn.
        let grid: Vec<Point2> = (0..16)
            .map(|k| Point2::new((k / 4) as f64 * 10.0, (k % 4) as f64 * 10.0))
            .collect();
        for me in 0..grid.len() {
            let mut view = grid.clone();
            view.swap(0, me);
            assert!(!star_answers(&view), "grid vertex {me} was certified");
        }
    }

    #[test]
    fn star_walk_drops_hull_sliver_holding_a_super_vertex() {
        // Self, a far hull neighbour, a point a micrometre inside the hull edge
        // between them, and one point above. The sliver (0, 1, 2) is Delaunay
        // among the real points, but its circumcircle (radius ~1e9 m) holds a
        // Bowyer–Watson super vertex, so the edge 0-1 is not in the
        // triangulation.
        let view = [
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(50.0, 1.0e-6),
            Point2::new(50.0, 60.0),
        ];
        let mut star = Vec::new();
        assert!(certified_delaunay_star(&view, &mut star));
        assert_eq!(star, vec![2, 3]);
        assert!(star_answers(&view));
    }

    #[test]
    fn star_walk_answers_small_views() {
        let mut star = vec![7];
        assert!(certified_delaunay_star(&[], &mut star));
        assert!(star.is_empty());
        assert!(certified_delaunay_star(&[Point2::new(1.0, 2.0)], &mut star));
        assert!(star.is_empty());
        assert!(star_answers(&[
            Point2::new(1.0, 2.0),
            Point2::new(4.0, 6.0)
        ]));
        assert!(star_answers(&[
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 2.0)
        ]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn star_walk_matches_triangulation_on_strip_views(pts in strip_view(1..41)) {
            // Unrounded random coordinates are in general position, so the
            // certified walk must answer, and answer exactly.
            prop_assert!(star_answers(&pts), "fell back on {:?}", pts);
        }

        #[test]
        fn star_walk_matches_triangulation_on_local_views(pts in local_view(1..41)) {
            prop_assert!(star_answers(&pts), "fell back on {:?}", pts);
        }

        #[test]
        fn star_walk_never_disagrees_on_snapped_views(pts in points(1..41)) {
            // 1/64 m snapping makes ties and cocircular quadruples likely; the
            // walk may fall back, but never answers wrongly.
            star_answers(&pts);
        }
    }
}
