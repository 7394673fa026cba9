//! The random waypoint mobility model, the paper's motion pattern.

use crate::region::Region;
use crate::trajectory::Trajectory;
use glr_geometry::Point2;
use rand::Rng;

/// The random waypoint model: repeatedly pick a uniform destination in the
/// region, travel there in a straight line at a uniformly-sampled speed,
/// optionally pause, repeat.
///
/// The paper's configuration is speeds uniform in 0–20 m/s with zero pause
/// time ([`RandomWaypoint::paper`]). Sampled speeds are clamped to a small
/// positive floor so a node can never freeze forever (the classic RWP
/// pathology at speed 0).
///
/// # Examples
///
/// ```
/// use glr_mobility::{RandomWaypoint, Region};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let model = RandomWaypoint::paper(Region::PAPER_STRIP);
/// let mut rng = StdRng::seed_from_u64(7);
/// let traj = model.trajectory(glr_geometry::Point2::new(10.0, 10.0), 100.0, &mut rng);
/// assert!(traj.end_time() >= 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    region: Region,
    speed_min: f64,
    speed_max: f64,
    pause: f64,
}

/// Minimum effective speed (m/s); sampled speeds below this are clamped
/// (the classic random-waypoint freeze-at-zero pathology). Public because
/// it is also the floor of any *speed upper bound* derived from a
/// configuration — e.g. the simulator's spatial index drift bound must
/// use `max(config_speed_max, SPEED_FLOOR)` to stay exact.
pub const SPEED_FLOOR: f64 = 0.01;

impl RandomWaypoint {
    /// Creates a random-waypoint model.
    ///
    /// # Panics
    ///
    /// Panics if `speed_min > speed_max`, `speed_max <= 0`, or `pause < 0`.
    pub fn new(region: Region, speed_min: f64, speed_max: f64, pause: f64) -> Self {
        assert!(
            speed_min >= 0.0 && speed_max > 0.0 && speed_min <= speed_max,
            "invalid speed range [{speed_min}, {speed_max}]"
        );
        assert!(pause >= 0.0, "pause must be non-negative");
        RandomWaypoint {
            region,
            speed_min,
            speed_max,
            pause,
        }
    }

    /// The paper's configuration: uniform 0–20 m/s, zero pause.
    pub fn paper(region: Region) -> Self {
        RandomWaypoint::new(region, 0.0, 20.0, 0.0)
    }

    /// The deployment region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Generates one node's trajectory starting at `start` and covering
    /// `[0, duration]`.
    pub fn trajectory<R: Rng + ?Sized>(
        &self,
        start: Point2,
        duration: f64,
        rng: &mut R,
    ) -> Trajectory {
        let mut keyframes = vec![(0.0, self.region.clamp(start))];
        let mut t = 0.0;
        let mut pos = self.region.clamp(start);
        while t < duration {
            let target = self.region.random_point(rng);
            let speed = rng
                .random_range(self.speed_min..=self.speed_max)
                .max(SPEED_FLOOR);
            let travel = pos.dist(target) / speed;
            if travel > 0.0 {
                t += travel;
                pos = target;
                keyframes.push((t, pos));
            }
            if self.pause > 0.0 {
                t += self.pause;
                keyframes.push((t, pos));
            }
        }
        Trajectory::from_keyframes(keyframes)
    }

    /// Generates trajectories for a whole deployment: nodes start uniformly
    /// at random inside `region`.
    pub fn deployment<R: Rng + ?Sized>(
        &self,
        region: Region,
        n: usize,
        duration: f64,
        rng: &mut R,
    ) -> Vec<Trajectory> {
        (0..n)
            .map(|_| {
                let start = region.random_point(rng);
                self.trajectory(start, duration, rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rwp_stays_in_region_and_covers_duration() {
        let region = Region::PAPER_STRIP;
        let model = RandomWaypoint::paper(region);
        let mut rng = StdRng::seed_from_u64(1);
        let traj = model.trajectory(Point2::new(0.0, 0.0), 500.0, &mut rng);
        assert!(traj.end_time() >= 500.0);
        for i in 0..100 {
            let p = traj.position_at(i as f64 * 5.0);
            assert!(region.contains(p), "escaped region at t={i}");
        }
    }

    #[test]
    fn rwp_deterministic_per_seed() {
        let model = RandomWaypoint::paper(Region::PAPER_SQUARE);
        let t1 = model.trajectory(Point2::new(5.0, 5.0), 200.0, &mut StdRng::seed_from_u64(9));
        let t2 = model.trajectory(Point2::new(5.0, 5.0), 200.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(t1, t2);
    }

    #[test]
    fn rwp_speed_within_range() {
        let model = RandomWaypoint::new(Region::PAPER_SQUARE, 5.0, 10.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let traj = model.trajectory(Point2::new(500.0, 500.0), 300.0, &mut rng);
        for i in 1..60 {
            let s = traj.speed_at(i as f64 * 5.0);
            if s > 0.0 {
                assert!(
                    (5.0 - 1e-9..=10.0 + 1e-9).contains(&s),
                    "speed {s} out of range"
                );
            }
        }
    }

    #[test]
    fn rwp_pause_inserts_zero_speed_intervals() {
        let model = RandomWaypoint::new(Region::PAPER_SQUARE, 10.0, 10.0, 5.0);
        let mut rng = StdRng::seed_from_u64(4);
        let traj = model.trajectory(Point2::new(500.0, 500.0), 400.0, &mut rng);
        // Pauses appear as consecutive keyframes at the same position.
        let has_pause = traj
            .keyframes()
            .windows(2)
            .any(|w| w[0].1 == w[1].1 && w[1].0 > w[0].0);
        assert!(has_pause);
    }

    #[test]
    fn deployment_generates_n_trajectories() {
        let model = RandomWaypoint::paper(Region::PAPER_STRIP);
        let mut rng = StdRng::seed_from_u64(6);
        let trajs = model.deployment(Region::PAPER_STRIP, 50, 100.0, &mut rng);
        assert_eq!(trajs.len(), 50);
        // Starting positions are spread out (not all identical).
        let first = trajs[0].position_at(0.0);
        assert!(trajs.iter().any(|t| t.position_at(0.0) != first));
    }

    #[test]
    #[should_panic(expected = "invalid speed range")]
    fn bad_speed_range_panics() {
        RandomWaypoint::new(Region::PAPER_SQUARE, 10.0, 5.0, 0.0);
    }
}
