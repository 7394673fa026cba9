//! Two-dimensional points and basic vector arithmetic.
//!
//! All geometry in the GLR stack is planar: node positions live in a
//! rectangular deployment region and distances are Euclidean. [`Point2`] is
//! deliberately a plain `f64` pair (`Copy`, `PartialEq`) so it can flow
//! through the simulator without allocation.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or free vector) in the Euclidean plane.
///
/// # Examples
///
/// ```
/// use glr_geometry::Point2;
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.dist(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point2 {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    ///
    /// ```
    /// # use glr_geometry::Point2;
    /// let p = Point2::new(1.5, -2.0);
    /// assert_eq!(p.x, 1.5);
    /// assert_eq!(p.y, -2.0);
    /// ```
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point2::dist`]; prefer it for comparisons.
    ///
    /// ```
    /// # use glr_geometry::Point2;
    /// let a = Point2::new(0.0, 0.0);
    /// let b = Point2::new(3.0, 4.0);
    /// assert_eq!(a.dist_sq(b), 25.0);
    /// ```
    #[inline]
    pub fn dist_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    ///
    /// `t` is not clamped; values outside `[0, 1]` extrapolate.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Angle of the vector `other - self` in radians, in `(-pi, pi]`.
    ///
    /// Used to sort a planar node's incident edges for face traversal.
    #[inline]
    pub fn angle_to(self, other: Point2) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// `true` when both coordinates are finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Point2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Point2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    #[inline]
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    #[inline]
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn vector_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(a - b, Point2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point2::new(0.5, 1.0));
        assert_eq!(-a, Point2::new(-1.0, -2.0));
    }

    #[test]
    fn assign_ops() {
        let mut p = Point2::new(1.0, 1.0);
        p += Point2::new(2.0, 3.0);
        assert_eq!(p, Point2::new(3.0, 4.0));
        p -= Point2::new(1.0, 1.0);
        assert_eq!(p, Point2::new(2.0, 3.0));
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.5), Point2::new(5.0, 10.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), Point2::new(2.5, 5.0));
        // Extrapolation is allowed.
        assert_eq!(a.lerp(b, 2.0), Point2::new(20.0, 40.0));
    }

    #[test]
    fn angle_to_quadrants() {
        let o = Point2::ORIGIN;
        assert!((o.angle_to(Point2::new(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.angle_to(Point2::new(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((o.angle_to(Point2::new(-1.0, 0.0)) - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        let p: Point2 = (1.0, 2.0).into();
        assert_eq!(p, Point2::new(1.0, 2.0));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Point2::new(1.0, 2.0));
        assert!(s.contains("1.000") && s.contains("2.000"));
    }

    #[test]
    fn finiteness() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
        assert!(!Point2::new(0.0, f64::INFINITY).is_finite());
    }
}
