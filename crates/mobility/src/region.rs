//! Rectangular deployment regions.

use glr_geometry::Point2;
use rand::Rng;

/// An axis-aligned rectangular deployment region with its origin at (0, 0).
///
/// The paper's evaluations use `1500 m x 300 m` (the main simulations) and
/// `1000 m x 1000 m` (the Figure 1 connectivity study).
///
/// # Examples
///
/// ```
/// use glr_mobility::Region;
///
/// let r = Region::new(1500.0, 300.0);
/// assert_eq!(r.area(), 450_000.0);
/// assert!(r.contains(glr_geometry::Point2::new(100.0, 100.0)));
/// assert!(!r.contains(glr_geometry::Point2::new(100.0, 400.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    width: f64,
    height: f64,
}

impl Region {
    /// The paper's main simulation strip: 1500 m x 300 m.
    pub const PAPER_STRIP: Region = Region {
        width: 1500.0,
        height: 300.0,
    };

    /// The paper's Figure 1 square: 1000 m x 1000 m.
    pub const PAPER_SQUARE: Region = Region {
        width: 1000.0,
        height: 1000.0,
    };

    /// Creates a region of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0,
            "region dimensions must be positive and finite, got {width} x {height}"
        );
        Region { width, height }
    }

    /// Region width in metres.
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Region height in metres.
    #[inline]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Region area in square metres.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// `true` when `p` lies inside the region (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= 0.0 && p.x <= self.width && p.y >= 0.0 && p.y <= self.height
    }

    /// Clamps `p` to the region.
    #[inline]
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// Samples a uniformly random point inside the region.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point2 {
        Point2::new(
            rng.random_range(0.0..=self.width),
            rng.random_range(0.0..=self.height),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn contains_and_clamp() {
        let r = Region::new(100.0, 50.0);
        assert!(r.contains(Point2::new(0.0, 0.0)));
        assert!(r.contains(Point2::new(100.0, 50.0)));
        assert!(!r.contains(Point2::new(-0.1, 10.0)));
        assert_eq!(r.clamp(Point2::new(150.0, -3.0)), Point2::new(100.0, 0.0));
    }

    #[test]
    fn deploy_inside_and_deterministic() {
        let r = Region::PAPER_STRIP;
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let a: Vec<Point2> = (0..50).map(|_| r.random_point(&mut rng1)).collect();
        let b: Vec<Point2> = (0..50).map(|_| r.random_point(&mut rng2)).collect();
        assert_eq!(a, b, "deployment must be deterministic per seed");
        assert!(a.iter().all(|&p| r.contains(p)));
        assert_eq!(a.len(), 50);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        Region::new(0.0, 10.0);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(Region::PAPER_STRIP.area(), 450_000.0);
        assert_eq!(Region::PAPER_SQUARE.area(), 1_000_000.0);
    }
}
