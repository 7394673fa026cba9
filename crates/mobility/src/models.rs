//! The random waypoint mobility model, the paper's motion pattern.

use crate::arena::DeploymentArena;
use crate::region::Region;
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
/// let arena = model.deployment(3, 100.0, &mut rng);
/// // Every node's last keyframe lies at or past the requested duration.
/// assert!((0..3).all(|i| arena.keyframes(i).last().unwrap().0 >= 100.0));
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

    /// Writes one node's keyframes, starting at a uniform point of the
    /// region and covering `[0, duration]`, into `keyframes` (cleared
    /// first).
    fn trajectory<R: Rng + ?Sized>(
        &self,
        duration: f64,
        rng: &mut R,
        keyframes: &mut Vec<(f64, Point2)>,
    ) {
        let mut pos = self.region.random_point(rng);
        keyframes.clear();
        keyframes.push((0.0, pos));
        let mut t = 0.0;
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
    }

    /// Generates trajectories for a whole deployment: nodes start uniformly
    /// at random inside the model's region. Node `i` is the arena's `i`-th
    /// entry.
    pub fn deployment<R: Rng + ?Sized>(
        &self,
        n: usize,
        duration: f64,
        rng: &mut R,
    ) -> DeploymentArena {
        let mut arena = DeploymentArena::new();
        let mut keyframes = Vec::new();
        for _ in 0..n {
            self.trajectory(duration, rng, &mut keyframes);
            arena.push(&keyframes);
        }
        arena.shrink_to_fit();
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One node moving by `model` for `duration` seconds.
    fn one_node(model: &RandomWaypoint, duration: f64, seed: u64) -> DeploymentArena {
        let mut rng = StdRng::seed_from_u64(seed);
        model.deployment(1, duration, &mut rng)
    }

    #[test]
    fn rwp_stays_in_region_and_covers_duration() {
        let region = Region::PAPER_STRIP;
        let model = RandomWaypoint::paper(region);
        let mut rng = StdRng::seed_from_u64(1);
        let arena = model.deployment(1, 500.0, &mut rng);
        assert!(arena.keyframes(0).last().unwrap().0 >= 500.0);
        for i in 0..100 {
            let p = arena.position_at(0, i as f64 * 5.0);
            assert!(region.contains(p), "escaped region at t={i}");
        }
    }

    #[test]
    fn rwp_deterministic_per_seed() {
        let model = RandomWaypoint::paper(Region::PAPER_SQUARE);
        let a = one_node(&model, 200.0, 9);
        let b = one_node(&model, 200.0, 9);
        assert_eq!(a.keyframes(0), b.keyframes(0));
    }

    #[test]
    fn rwp_speed_within_range() {
        let model = RandomWaypoint::new(Region::PAPER_SQUARE, 5.0, 10.0, 0.0);
        let arena = one_node(&model, 300.0, 3);
        let kf = arena.keyframes(0);
        assert!(kf.len() > 2);
        for w in kf.windows(2) {
            let s = w[0].1.dist(w[1].1) / (w[1].0 - w[0].0);
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
        let arena = one_node(&model, 400.0, 4);
        // Pauses appear as consecutive keyframes at the same position.
        let has_pause = arena
            .keyframes(0)
            .windows(2)
            .any(|w| w[0].1 == w[1].1 && w[1].0 > w[0].0);
        assert!(has_pause);
    }

    #[test]
    fn deployment_generates_n_trajectories() {
        let model = RandomWaypoint::paper(Region::PAPER_STRIP);
        let mut rng = StdRng::seed_from_u64(6);
        let arena = model.deployment(50, 100.0, &mut rng);
        assert_eq!(arena.len(), 50);
        // Starting positions are spread out (not all identical).
        let first = arena.position_at(0, 0.0);
        assert!((0..arena.len()).any(|i| arena.position_at(i, 0.0) != first));
    }

    #[test]
    #[should_panic(expected = "invalid speed range")]
    fn bad_speed_range_panics() {
        RandomWaypoint::new(Region::PAPER_SQUARE, 10.0, 5.0, 0.0);
    }
}
