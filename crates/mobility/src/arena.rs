//! Flat, cache-friendly storage for a whole deployment's trajectories.
//!
//! A `Vec<Trajectory>` scatters every node's keyframes across its own heap
//! allocation; at 100k+ nodes the simulator's `position_at` hot path (one
//! call per spatial-index candidate, per grid rebuild, per medium range
//! check) pays a pointer chase and a cold cache line per call.
//! [`DeploymentArena`] interns all keyframes into **one contiguous
//! buffer** plus per-node `(offset, len)` spans, and hands out borrowing
//! [`TrajectoryRef`] views that evaluate positions with the exact same
//! arithmetic as [`Trajectory::position_at`] — bit-identical results,
//! O(1) for the stationary/single-leg common case, amortised O(1) for
//! longer trajectories via a per-node last-segment hint.
//!
//! [`Trajectory`] remains the builder API: the mobility model keeps compiling
//! movement into individual trajectories, and the simulator interns the
//! finished deployment once at construction.

use crate::trajectory::{segment_lerp, segment_of, Trajectory};
use glr_geometry::Point2;
use std::sync::atomic::{AtomicU32, Ordering};

/// All trajectories of a deployment, interned into one contiguous
/// keyframe buffer.
///
/// # Examples
///
/// ```
/// use glr_mobility::{DeploymentArena, Trajectory};
/// use glr_geometry::Point2;
///
/// let trajs = vec![
///     Trajectory::stationary(Point2::new(1.0, 2.0)),
///     Trajectory::from_keyframes(vec![
///         (0.0, Point2::new(0.0, 0.0)),
///         (10.0, Point2::new(100.0, 0.0)),
///     ]),
/// ];
/// let arena = DeploymentArena::from_trajectories(&trajs);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.position_at(0, 99.0), Point2::new(1.0, 2.0));
/// assert_eq!(arena.position_at(1, 5.0), Point2::new(50.0, 0.0));
/// ```
#[derive(Debug)]
pub struct DeploymentArena {
    /// Every node's keyframes, back to back.
    keyframes: Vec<(f64, Point2)>,
    /// Node `i`'s keyframes are `keyframes[offsets[i]..offsets[i + 1]]`
    /// — `n + 1` offsets instead of `n` `(offset, len)` pairs, since a
    /// span's end is the next span's start (4 B/node saved at 100k).
    offsets: Vec<u32>,
    /// Per node: index (relative to the span) of the segment the last
    /// `position_at` landed in. A pure search accelerator: results never
    /// depend on its value. It is an atomic (`Relaxed` loads and stores)
    /// so that lookups can update it through a shared `&self`.
    hints: Vec<AtomicU32>,
}

impl DeploymentArena {
    /// Interns `trajectories` into a flat arena.
    ///
    /// # Panics
    ///
    /// Panics if the total keyframe count exceeds `u32::MAX` (a 100
    /// GiB+ deployment; split it into shards first).
    pub fn from_trajectories(trajectories: &[Trajectory]) -> Self {
        let total: usize = trajectories.iter().map(|t| t.keyframes().len()).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "deployment has {total} keyframes; the arena indexes with u32"
        );
        let mut keyframes = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(trajectories.len() + 1);
        offsets.push(0);
        for t in trajectories {
            keyframes.extend_from_slice(t.keyframes());
            offsets.push(keyframes.len() as u32);
        }
        let hints = (0..trajectories.len()).map(|_| AtomicU32::new(0)).collect();
        DeploymentArena {
            keyframes,
            offsets,
            hints,
        }
    }

    /// Number of trajectories (nodes).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowing view of node `i`'s trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> TrajectoryRef<'_> {
        TrajectoryRef {
            keyframes: &self.keyframes[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            hint: &self.hints[i],
        }
    }

    /// Position of node `i` at time `t` — identical to
    /// `trajectories[i].position_at(t)` on the interned slice.
    #[inline]
    pub fn position_at(&self, i: usize, t: f64) -> Point2 {
        self.get(i).position_at(t)
    }

    /// Total number of interned keyframes.
    pub fn total_keyframes(&self) -> usize {
        self.keyframes.len()
    }

    /// Heap footprint of the arena in bytes (keyframe buffer + offsets +
    /// hints) — the number the deployment-memory telemetry reports.
    pub fn heap_bytes(&self) -> usize {
        self.keyframes.capacity() * std::mem::size_of::<(f64, Point2)>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.hints.capacity() * std::mem::size_of::<AtomicU32>()
    }
}

/// A borrowed trajectory inside a [`DeploymentArena`]: the node's
/// keyframe slice plus its last-segment hint.
#[derive(Debug)]
pub struct TrajectoryRef<'a> {
    keyframes: &'a [(f64, Point2)],
    hint: &'a AtomicU32,
}

impl TrajectoryRef<'_> {
    /// The underlying keyframes.
    pub fn keyframes(&self) -> &[(f64, Point2)] {
        self.keyframes
    }

    /// End time of the last keyframe.
    pub fn end_time(&self) -> f64 {
        self.keyframes[self.keyframes.len() - 1].0
    }

    /// Position at time `t` — bit-identical to
    /// [`Trajectory::position_at`] on the same keyframes.
    ///
    /// Fast paths: O(1) for 1- and 2-keyframe trajectories (stationary
    /// nodes and single-leg movers, the overwhelmingly common case in
    /// short runs), and an O(1) hint check against the segment the
    /// previous call landed in before falling back to binary search.
    /// Every path evaluates the same unique segment with the same
    /// interpolation expression, so which path answered is unobservable.
    #[inline]
    pub fn position_at(&self, t: f64) -> Point2 {
        let kf = self.keyframes;
        let n = kf.len();
        if t <= kf[0].0 {
            return kf[0].1;
        }
        if t >= kf[n - 1].0 {
            return kf[n - 1].1;
        }
        // Here n >= 2 and kf[0].0 < t < kf[n-1].0: t lies in the unique
        // segment [lo, lo+1) with kf[lo].0 <= t < kf[lo+1].0.
        if n == 2 {
            return segment_lerp(kf[0], kf[1], t);
        }
        let h = self.hint.load(Ordering::Relaxed) as usize;
        if h + 1 < n && kf[h].0 <= t && t < kf[h + 1].0 {
            return segment_lerp(kf[h], kf[h + 1], t);
        }
        let lo = segment_of(kf, t);
        self.hint.store(lo as u32, Ordering::Relaxed);
        segment_lerp(kf[lo], kf[lo + 1], t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(points: &[(f64, (f64, f64))]) -> Trajectory {
        Trajectory::from_keyframes(
            points
                .iter()
                .map(|&(t, (x, y))| (t, Point2::new(x, y)))
                .collect(),
        )
    }

    #[test]
    fn arena_matches_trajectories_bit_exactly() {
        let trajs = vec![
            Trajectory::stationary(Point2::new(3.0, 4.0)),
            traj(&[(0.0, (0.0, 0.0)), (10.0, (100.0, 50.0))]),
            traj(&[
                (0.0, (0.0, 0.0)),
                (1.0, (3.0, 4.0)),
                (2.5, (3.0, 10.0)),
                (7.0, (-5.0, 10.0)),
            ]),
        ];
        let arena = DeploymentArena::from_trajectories(&trajs);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.total_keyframes(), 1 + 2 + 4);
        for (i, t) in trajs.iter().enumerate() {
            for step in 0..200 {
                let at = step as f64 * 0.05 - 1.0; // covers clamping too
                let want = t.position_at(at.max(0.0));
                let got = arena.position_at(i, at.max(0.0));
                assert_eq!(want.x.to_bits(), got.x.to_bits(), "node {i} t {at}");
                assert_eq!(want.y.to_bits(), got.y.to_bits(), "node {i} t {at}");
            }
        }
    }

    #[test]
    fn hint_survives_non_monotone_queries() {
        let t = traj(&[
            (0.0, (0.0, 0.0)),
            (1.0, (1.0, 0.0)),
            (2.0, (2.0, 0.0)),
            (3.0, (3.0, 0.0)),
            (4.0, (4.0, 0.0)),
        ]);
        let arena = DeploymentArena::from_trajectories(std::slice::from_ref(&t));
        // Ping-pong across segments: the hint must never change answers.
        for &at in &[3.5, 0.5, 2.5, 2.5, 0.1, 3.9, 1.0, 2.0, 0.0, 4.0, 9.0] {
            assert_eq!(arena.position_at(0, at), t.position_at(at), "t={at}");
        }
    }

    #[test]
    fn exact_keyframe_times_hit_keyframe_positions() {
        let t = traj(&[(1.0, (1.0, 1.0)), (2.0, (2.0, 2.0)), (4.0, (0.0, 0.0))]);
        let arena = DeploymentArena::from_trajectories(std::slice::from_ref(&t));
        assert_eq!(arena.position_at(0, 2.0), Point2::new(2.0, 2.0));
        assert_eq!(arena.position_at(0, 1.0), Point2::new(1.0, 1.0));
        assert_eq!(arena.position_at(0, 4.0), Point2::new(0.0, 0.0));
    }

    #[test]
    fn footprint_is_compact() {
        let trajs: Vec<Trajectory> = (0..100)
            .map(|i| traj(&[(0.0, (i as f64, 0.0)), (10.0, (i as f64, 5.0))]))
            .collect();
        let arena = DeploymentArena::from_trajectories(&trajs);
        // One contiguous buffer: the keyframes themselves plus 8 B per
        // node (offset + hint), where a `Vec` per node costs a 24 B header.
        let keyframe_bytes = arena.total_keyframes() * std::mem::size_of::<(f64, Point2)>();
        assert!(arena.heap_bytes() <= keyframe_bytes + 8 * (arena.len() + 1));
    }

    #[test]
    fn empty_arena() {
        let arena = DeploymentArena::from_trajectories(&[]);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }
}
