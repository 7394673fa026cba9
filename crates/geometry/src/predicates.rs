//! Robust geometric predicates: orientation and in-circle tests.
//!
//! Delaunay triangulation correctness hinges on consistent answers from the
//! `orient2d` and `incircle` predicates. Plain floating-point evaluation can
//! return inconsistent signs for nearly-degenerate inputs, which manifests as
//! crossing edges or infinite loops in Bowyer–Watson. We use the classic
//! *filtered* approach (Shewchuk, 1997):
//!
//! 1. evaluate the determinant in ordinary `f64` arithmetic,
//! 2. compare against a forward error bound,
//! 3. when the result is smaller than the bound, re-evaluate with
//!    double-double ("two-float") expansion arithmetic, which is exact for
//!    the polynomials involved here for all practically occurring inputs.
//!
//! The double-double stage is not a full adaptive-precision implementation,
//! but its ~106-bit mantissa exceeds what is needed for coordinates that fit
//! a simulation region (|x| < 1e8 with metre-scale separations), and a
//! deterministic tie-break keeps the triangulation consistent even in exact
//! ties.
//!
//! Because that second stage is not certified, [`orient2d_filtered`] and
//! [`incircle_filtered`] expose stage 1 alone: they answer only when the
//! error bound proves a non-zero sign, and return `None` otherwise. The
//! Delaunay star walk builds on them and hands every `None` to the full
//! triangulation.

use crate::point::Point2;

/// Sign of a predicate evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative determinant.
    Negative,
    /// Exactly zero (degenerate configuration).
    Zero,
    /// Strictly positive determinant.
    Positive,
}

impl Sign {
    /// Converts a raw float to a sign.
    #[inline]
    fn of(v: f64) -> Sign {
        if v > 0.0 {
            Sign::Positive
        } else if v < 0.0 {
            Sign::Negative
        } else {
            Sign::Zero
        }
    }

    /// `true` when the sign is [`Sign::Zero`].
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Sign::Zero
    }
}

// ---------------------------------------------------------------------------
// Double-double ("two-float") expansion arithmetic.
// ---------------------------------------------------------------------------

/// A number represented as an unevaluated sum `hi + lo` with `|lo| <= ulp(hi)/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };

    /// Exact lift of a double (used by the predicate tests).
    #[cfg(test)]
    #[inline]
    fn from_f64(v: f64) -> Dd {
        Dd { hi: v, lo: 0.0 }
    }

    /// Error-free sum of two doubles (Knuth two-sum).
    #[inline]
    fn two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        let bv = s - a;
        let av = s - bv;
        let err = (a - av) + (b - bv);
        Dd { hi: s, lo: err }
    }

    /// Error-free product of two doubles using FMA.
    #[inline]
    fn two_prod(a: f64, b: f64) -> Dd {
        let p = a * b;
        let err = a.mul_add(b, -p);
        Dd { hi: p, lo: err }
    }

    #[inline]
    fn add(self, other: Dd) -> Dd {
        let s = Dd::two_sum(self.hi, other.hi);
        let lo = s.lo + self.lo + other.lo;
        let r = Dd::two_sum(s.hi, lo);
        Dd { hi: r.hi, lo: r.lo }
    }

    #[inline]
    fn sub(self, other: Dd) -> Dd {
        self.add(Dd {
            hi: -other.hi,
            lo: -other.lo,
        })
    }

    #[inline]
    fn mul(self, other: Dd) -> Dd {
        let p = Dd::two_prod(self.hi, other.hi);
        let lo = p.lo + self.hi * other.lo + self.lo * other.hi;
        let r = Dd::two_sum(p.hi, lo);
        Dd { hi: r.hi, lo: r.lo }
    }

    #[inline]
    fn sign(self) -> Sign {
        if self.hi > 0.0 || (self.hi == 0.0 && self.lo > 0.0) {
            Sign::Positive
        } else if self.hi < 0.0 || (self.hi == 0.0 && self.lo < 0.0) {
            Sign::Negative
        } else {
            Sign::Zero
        }
    }
}

// ---------------------------------------------------------------------------
// orient2d
// ---------------------------------------------------------------------------

/// Error-bound coefficient for the `orient2d` filter (Shewchuk's `ccwerrboundA`).
const ORIENT_ERRBOUND: f64 = (3.0 + 16.0 * f64::EPSILON) * f64::EPSILON;

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Returns [`Sign::Positive`] when the triple winds counter-clockwise,
/// [`Sign::Negative`] when clockwise, and [`Sign::Zero`] when collinear.
///
/// The computation is exact: a floating-point filter falls back to
/// double-double arithmetic near degeneracy.
///
/// # Examples
///
/// ```
/// use glr_geometry::{orient2d, Point2, Sign};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(1.0, 0.0);
/// let c = Point2::new(0.0, 1.0);
/// assert_eq!(orient2d(a, b, c), Sign::Positive);
/// assert_eq!(orient2d(a, c, b), Sign::Negative);
/// assert_eq!(orient2d(a, b, Point2::new(2.0, 0.0)), Sign::Zero);
/// ```
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> Sign {
    orient2d_filter(a, b, c).unwrap_or_else(|| orient2d_dd(a, b, c))
}

/// Filter-only orientation: the sign of `orient2d(a, b, c)` when the
/// floating-point error filter alone certifies it as non-zero, `None`
/// otherwise (near-degenerate or exactly collinear).
///
/// A `Some` answer is the exact sign. The double-double stage behind
/// [`orient2d`] is close to exact but not certified, so callers that must
/// never act on a wrong sign use this and treat `None` as "don't know".
///
/// ```
/// use glr_geometry::{orient2d_filtered, Point2, Sign};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(1.0, 0.0);
/// assert_eq!(orient2d_filtered(a, b, Point2::new(0.0, 1.0)), Some(Sign::Positive));
/// assert_eq!(orient2d_filtered(a, b, Point2::new(2.0, 0.0)), None);
/// ```
#[inline]
pub fn orient2d_filtered(a: Point2, b: Point2, c: Point2) -> Option<Sign> {
    orient2d_filter(a, b, c).filter(|s| !s.is_zero())
}

/// The floating-point stage of [`orient2d`]: `Some` when the filter
/// decides the sign (possibly an exact zero), `None` when it cannot.
#[inline]
fn orient2d_filter(a: Point2, b: Point2, c: Point2) -> Option<Sign> {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return Some(Sign::of(det));
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return Some(Sign::of(det));
        }
        -(detleft + detright)
    } else {
        return Some(Sign::of(det));
    };

    let errbound = ORIENT_ERRBOUND * detsum;
    if det >= errbound || -det >= errbound {
        return Some(Sign::of(det));
    }
    None
}

/// Double-double evaluation of the orientation determinant.
fn orient2d_dd(a: Point2, b: Point2, c: Point2) -> Sign {
    let acx = Dd::two_sum(a.x, -c.x);
    let acy = Dd::two_sum(a.y, -c.y);
    let bcx = Dd::two_sum(b.x, -c.x);
    let bcy = Dd::two_sum(b.y, -c.y);
    let left = acx.mul(bcy);
    let right = acy.mul(bcx);
    left.sub(right).sign()
}

// ---------------------------------------------------------------------------
// incircle
// ---------------------------------------------------------------------------

/// Error-bound coefficient for the `incircle` filter (Shewchuk's `iccerrboundA`).
const INCIRCLE_ERRBOUND: f64 = (10.0 + 96.0 * f64::EPSILON) * f64::EPSILON;

/// In-circle test: position of `d` relative to the circumcircle of `(a, b, c)`.
///
/// With `(a, b, c)` in **counter-clockwise** order, the result is
/// [`Sign::Positive`] when `d` lies strictly inside the circumcircle,
/// [`Sign::Negative`] when strictly outside, and [`Sign::Zero`] when
/// cocircular. For clockwise triangles the sign is flipped; callers should
/// normalise orientation first (the Delaunay code does).
///
/// # Examples
///
/// ```
/// use glr_geometry::{incircle, Point2, Sign};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(2.0, 0.0);
/// let c = Point2::new(0.0, 2.0);
/// assert_eq!(incircle(a, b, c, Point2::new(0.5, 0.5)), Sign::Positive);
/// assert_eq!(incircle(a, b, c, Point2::new(5.0, 5.0)), Sign::Negative);
/// assert_eq!(incircle(a, b, c, Point2::new(2.0, 2.0)), Sign::Zero);
/// ```
pub fn incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> Sign {
    incircle_filtered(a, b, c, d).unwrap_or_else(|| incircle_dd(a, b, c, d))
}

/// Filter-only in-circle test: the sign of `incircle(a, b, c, d)` when the
/// floating-point error filter alone certifies it as non-zero, `None`
/// otherwise (near-cocircular or exactly cocircular).
///
/// As with [`orient2d_filtered`], a `Some` answer is the exact sign. The
/// filter is tightest when `d` is the point closest to the other three:
/// every coordinate difference is taken relative to `d`.
///
/// ```
/// use glr_geometry::{incircle_filtered, Point2, Sign};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(2.0, 0.0);
/// let c = Point2::new(0.0, 2.0);
/// assert_eq!(incircle_filtered(a, b, c, Point2::new(0.5, 0.5)), Some(Sign::Positive));
/// assert_eq!(incircle_filtered(a, b, c, Point2::new(2.0, 2.0)), None);
/// ```
#[inline]
pub fn incircle_filtered(a: Point2, b: Point2, c: Point2, d: Point2) -> Option<Sign> {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = INCIRCLE_ERRBOUND * permanent;
    if det > errbound || -det > errbound {
        return Some(Sign::of(det));
    }
    None
}

/// Double-double evaluation of the in-circle determinant.
fn incircle_dd(a: Point2, b: Point2, c: Point2, d: Point2) -> Sign {
    let adx = Dd::two_sum(a.x, -d.x);
    let ady = Dd::two_sum(a.y, -d.y);
    let bdx = Dd::two_sum(b.x, -d.x);
    let bdy = Dd::two_sum(b.y, -d.y);
    let cdx = Dd::two_sum(c.x, -d.x);
    let cdy = Dd::two_sum(c.y, -d.y);

    let alift = adx.mul(adx).add(ady.mul(ady));
    let blift = bdx.mul(bdx).add(bdy.mul(bdy));
    let clift = cdx.mul(cdx).add(cdy.mul(cdy));

    let bcd = bdx.mul(cdy).sub(cdx.mul(bdy));
    let cad = cdx.mul(ady).sub(adx.mul(cdy));
    let abd = adx.mul(bdy).sub(bdx.mul(ady));

    let det = alift.mul(bcd).add(blift.mul(cad)).add(clift.mul(abd));
    let _ = Dd::ZERO;
    det.sign()
}

/// `true` when segments `ab` and `cd` properly intersect (cross at a point
/// interior to both), or when an endpoint of one lies strictly inside the
/// other. Shared endpoints do **not** count as an intersection, so adjacent
/// edges of a planar graph pass.
///
/// ```
/// use glr_geometry::{segments_cross, Point2};
///
/// let p = |x, y| Point2::new(x, y);
/// assert!(segments_cross(p(0.0, 0.0), p(2.0, 2.0), p(0.0, 2.0), p(2.0, 0.0)));
/// // Sharing an endpoint is fine:
/// assert!(!segments_cross(p(0.0, 0.0), p(1.0, 0.0), p(1.0, 0.0), p(2.0, 1.0)));
/// ```
pub fn segments_cross(a: Point2, b: Point2, c: Point2, d: Point2) -> bool {
    // Shared endpoints never count.
    if a == c || a == d || b == c || b == d {
        return false;
    }
    let d1 = orient2d(c, d, a);
    let d2 = orient2d(c, d, b);
    let d3 = orient2d(a, b, c);
    let d4 = orient2d(a, b, d);

    if ((d1 == Sign::Positive && d2 == Sign::Negative)
        || (d1 == Sign::Negative && d2 == Sign::Positive))
        && ((d3 == Sign::Positive && d4 == Sign::Negative)
            || (d3 == Sign::Negative && d4 == Sign::Positive))
    {
        return true;
    }

    // Degenerate cases: an endpoint of one segment strictly interior to the
    // other (T-junctions and collinear overlap).
    let strictly_inside = |p: Point2, q: Point2, r: Point2| -> bool {
        if orient2d(p, q, r) != Sign::Zero {
            return false;
        }
        // Compare along the dominant axis to tolerate vertical segments.
        if (p.x - q.x).abs() >= (p.y - q.y).abs() {
            r.x > p.x.min(q.x) && r.x < p.x.max(q.x)
        } else {
            r.y > p.y.min(q.y) && r.y < p.y.max(q.y)
        }
    };
    strictly_inside(a, b, c)
        || strictly_inside(a, b, d)
        || strictly_inside(c, d, a)
        || strictly_inside(c, d, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_basic() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        assert_eq!(orient2d(a, b, Point2::new(0.5, 1.0)), Sign::Positive);
        assert_eq!(orient2d(a, b, Point2::new(0.5, -1.0)), Sign::Negative);
        assert_eq!(orient2d(a, b, Point2::new(7.0, 0.0)), Sign::Zero);
    }

    #[test]
    fn orientation_antisymmetry() {
        let a = Point2::new(0.3, 0.7);
        let b = Point2::new(-1.2, 4.4);
        let c = Point2::new(2.9, -3.5);
        let s1 = orient2d(a, b, c);
        let s2 = orient2d(b, a, c);
        assert_ne!(s1, s2);
        assert_eq!(orient2d(a, b, c), orient2d(b, c, a));
        assert_eq!(orient2d(a, b, c), orient2d(c, a, b));
    }

    #[test]
    fn orientation_near_degenerate_is_consistent() {
        // Points almost on a line; the filter must kick in and stay
        // consistent under cyclic permutation.
        let a = Point2::new(0.5, 0.5);
        let b = Point2::new(12.0, 12.0);
        let c = Point2::new(24.0, 24.0 + 1.0e-13);
        let s = orient2d(a, b, c);
        assert_eq!(s, orient2d(b, c, a));
        assert_eq!(s, orient2d(c, a, b));
        assert_ne!(s, Sign::Zero);
    }

    #[test]
    fn orientation_exact_collinear_with_offsets() {
        // Exactly collinear but with coordinates that stress cancellation.
        let a = Point2::new(1.0e7, 1.0e7);
        let b = Point2::new(2.0e7, 2.0e7);
        let c = Point2::new(3.0e7, 3.0e7);
        assert_eq!(orient2d(a, b, c), Sign::Zero);
    }

    #[test]
    fn incircle_basic() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert_eq!(incircle(a, b, c, Point2::new(0.4, 0.4)), Sign::Positive);
        assert_eq!(incircle(a, b, c, Point2::new(3.0, 3.0)), Sign::Negative);
        // (1,1) is cocircular with the right triangle's circumcircle.
        assert_eq!(incircle(a, b, c, Point2::new(1.0, 1.0)), Sign::Zero);
    }

    #[test]
    fn incircle_orientation_flip() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        let inside = Point2::new(0.3, 0.3);
        // Swapping two vertices (cw order) flips the sign.
        assert_eq!(incircle(a, b, c, inside), Sign::Positive);
        assert_eq!(incircle(a, c, b, inside), Sign::Negative);
    }

    #[test]
    fn incircle_near_cocircular() {
        // Four points nearly on a unit circle; tiny radial perturbation decides.
        let eps = 1.0e-13;
        let a = Point2::new(1.0, 0.0);
        let b = Point2::new(0.0, 1.0);
        let c = Point2::new(-1.0, 0.0);
        let just_inside = Point2::new(0.0, -(1.0 - eps));
        let just_outside = Point2::new(0.0, -(1.0 + eps));
        assert_eq!(incircle(a, b, c, just_inside), Sign::Positive);
        assert_eq!(incircle(a, b, c, just_outside), Sign::Negative);
    }

    #[test]
    fn crossing_segments() {
        let p = |x: f64, y: f64| Point2::new(x, y);
        assert!(segments_cross(
            p(0.0, 0.0),
            p(2.0, 2.0),
            p(0.0, 2.0),
            p(2.0, 0.0)
        ));
        assert!(!segments_cross(
            p(0.0, 0.0),
            p(1.0, 1.0),
            p(2.0, 2.0),
            p(3.0, 3.0)
        ));
        // Parallel, non-intersecting.
        assert!(!segments_cross(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.0, 1.0),
            p(1.0, 1.0)
        ));
        // T-junction: endpoint of one strictly inside the other counts.
        assert!(segments_cross(
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0)
        ));
        // Shared endpoint does not count.
        assert!(!segments_cross(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 0.0),
            p(2.0, 0.0)
        ));
    }

    #[test]
    fn dd_arithmetic_sanity() {
        // 1e16 + 1 is not representable in f64; two_sum keeps the lost bit.
        let a = Dd::two_sum(1.0e16, 1.0);
        assert_eq!(a.hi, 1.0e16);
        assert_eq!(a.lo, 1.0);
        // (1e8 + 1)^2 = 1e16 + 2e8 + 1 exceeds 2^53, so the rounded product
        // loses the +1; two_prod recovers it in the error term.
        let x = 1.0e8 + 1.0;
        let p = Dd::two_prod(x, x);
        assert_eq!(p.hi, x * x);
        assert_ne!(p.lo, 0.0);
        // Subtracting the representable part 1e16 + 2e8 leaves exactly 1.
        let rem = Dd::two_sum(p.hi, -(1.0e16 + 2.0e8));
        assert_eq!(rem.hi + p.lo, 1.0);
        // Sign detection honours the low word on cancellation.
        let tiny = Dd {
            hi: 0.0,
            lo: -1e-300,
        };
        assert_eq!(tiny.sign(), Sign::Negative);
        assert_eq!(Dd::ZERO.sign(), Sign::Zero);
        assert_eq!(Dd::from_f64(2.0).sign(), Sign::Positive);
    }
}
