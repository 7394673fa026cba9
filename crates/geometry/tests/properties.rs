//! Property-based tests for the geometry substrate.

use glr_geometry::{
    certified_delaunay_star, delaunay_star, dstd_next_hop, euclidean_stretch, incircle,
    is_plane_drawing, k_ldtg, orient2d, segments_cross, unit_disk_graph, DstdKind, Point2, Sign,
    Triangulation,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Simulation-scale coordinates; avoids denormal noise while still
    // exercising the predicates' filters through near-degenerate triples.
    (-1.0e4..1.0e4f64).prop_map(|v| (v * 64.0).round() / 64.0)
}

fn point() -> impl Strategy<Value = Point2> {
    (coord(), coord()).prop_map(|(x, y)| Point2::new(x, y))
}

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(point(), n)
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

    #[test]
    fn orient2d_antisymmetric(a in point(), b in point(), c in point()) {
        let s1 = orient2d(a, b, c);
        let s2 = orient2d(b, a, c);
        match s1 {
            Sign::Zero => prop_assert_eq!(s2, Sign::Zero),
            Sign::Positive => prop_assert_eq!(s2, Sign::Negative),
            Sign::Negative => prop_assert_eq!(s2, Sign::Positive),
        }
    }

    #[test]
    fn orient2d_cyclic(a in point(), b in point(), c in point()) {
        let s = orient2d(a, b, c);
        prop_assert_eq!(s, orient2d(b, c, a));
        prop_assert_eq!(s, orient2d(c, a, b));
    }

    #[test]
    fn incircle_swap_flips(a in point(), b in point(), c in point(), d in point()) {
        // Swapping two of the first three arguments flips the sign.
        let s1 = incircle(a, b, c, d);
        let s2 = incircle(b, a, c, d);
        match s1 {
            Sign::Zero => prop_assert_eq!(s2, Sign::Zero),
            Sign::Positive => prop_assert_eq!(s2, Sign::Negative),
            Sign::Negative => prop_assert_eq!(s2, Sign::Positive),
        }
    }

    #[test]
    fn segments_cross_symmetric(a in point(), b in point(), c in point(), d in point()) {
        prop_assert_eq!(segments_cross(a, b, c, d), segments_cross(c, d, a, b));
        prop_assert_eq!(segments_cross(a, b, c, d), segments_cross(b, a, d, c));
    }

    #[test]
    fn delaunay_empty_circumcircle(pts in points(3..25)) {
        let tri = Triangulation::build(&pts);
        for t in tri.triangles() {
            let (a, b, c) = (pts[t[0]], pts[t[1]], pts[t[2]]);
            for (i, &p) in pts.iter().enumerate() {
                if t.contains(&i) { continue; }
                prop_assert_ne!(incircle(a, b, c, p), Sign::Positive,
                    "point {} inside circumcircle of {:?}", i, t);
            }
        }
    }

    #[test]
    fn delaunay_is_plane(pts in points(3..25)) {
        let tri = Triangulation::build(&pts);
        let g = tri.to_graph();
        prop_assert!(is_plane_drawing(&g, &pts));
    }

    #[test]
    fn ldtg_plane_and_connectivity_preserving(pts in points(5..30), r in 1.0e3..6.0e3f64) {
        let udg = unit_disk_graph(&pts, r);
        let ldtg = k_ldtg(&pts, r, 2);
        prop_assert!(is_plane_drawing(&ldtg, &pts), "k-LDTG must be plane");
        prop_assert_eq!(
            udg.connected_components().len(),
            ldtg.connected_components().len(),
            "k-LDTG must preserve connectivity"
        );
        for (u, v) in ldtg.edges() {
            prop_assert!(udg.has_edge(u, v), "LDTG edge outside UDG");
        }
    }

    #[test]
    fn stretch_at_least_one(pts in points(2..15)) {
        let tri = Triangulation::build(&pts);
        let g = tri.to_graph();
        let r = euclidean_stretch(&g, &pts);
        prop_assert!(r.max_stretch >= 1.0 - 1e-9);
        prop_assert!(r.mean_stretch >= 1.0 - 1e-9);
        prop_assert!(r.mean_stretch <= r.max_stretch + 1e-9);
    }

    #[test]
    fn dstd_always_makes_progress(
        me in point(),
        dst in point(),
        nbr_pts in prop::collection::vec(point(), 0..12),
        mid in 0u8..5,
    ) {
        // Unique ids so reverse lookup below is unambiguous.
        let nbrs: Vec<(usize, Point2)> = nbr_pts.into_iter().enumerate().collect();
        let my_d = me.dist_sq(dst);
        for kind in [DstdKind::Max, DstdKind::Min, DstdKind::Mid(mid)] {
            if let Some(id) = dstd_next_hop(me, dst, &nbrs, kind) {
                let p = nbrs.iter().find(|&&(i, _)| i == id).unwrap().1;
                prop_assert!(p.dist_sq(dst) < my_d, "{kind:?} picked a non-progress hop");
            }
        }
        // Max makes at least as much progress as Min when both exist.
        if let (Some(mx), Some(mn)) = (
            dstd_next_hop(me, dst, &nbrs, DstdKind::Max),
            dstd_next_hop(me, dst, &nbrs, DstdKind::Min),
        ) {
            let pmx = nbrs.iter().find(|&&(i, _)| i == mx).unwrap().1;
            let pmn = nbrs.iter().find(|&&(i, _)| i == mn).unwrap().1;
            prop_assert!(pmx.dist_sq(dst) <= pmn.dist_sq(dst));
        }
    }
}
