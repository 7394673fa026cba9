//! Property-based tests for the geometry substrate.

use glr_geometry::{
    dstd_next_hop, incircle, is_plane_drawing, k_ldtg, orient2d, segments_cross, unit_disk_graph,
    DstdKind, Point2, Sign, Triangulation,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
