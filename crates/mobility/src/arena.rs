//! Flat, cache-friendly storage for a whole deployment's trajectories.
//!
//! A node moves along a piecewise-linear trajectory: a list of
//! `(time, position)` keyframes with strictly increasing times, linear
//! interpolation in between and clamping outside. [`DeploymentArena`]
//! keeps every node's keyframes in **one contiguous buffer** plus a
//! shared offsets array, so the simulator's `position_at` hot path (one
//! call per spatial-index candidate, per grid rebuild, per medium range
//! check) walks flat memory instead of chasing one heap allocation per
//! node. Evaluation is O(1) for the stationary/single-leg common case and
//! amortised O(1) for longer trajectories via a per-node last-segment
//! hint.
//!
//! [`crate::RandomWaypoint::deployment`] writes each node's keyframes
//! straight into an arena with [`DeploymentArena::push`].

use glr_geometry::Point2;
use std::sync::atomic::{AtomicU32, Ordering};

/// All trajectories of a deployment in one contiguous keyframe buffer.
///
/// # Examples
///
/// ```
/// use glr_mobility::DeploymentArena;
/// use glr_geometry::Point2;
///
/// let mut arena = DeploymentArena::new();
/// arena.push(&[(0.0, Point2::new(1.0, 2.0))]); // stationary
/// arena.push(&[
///     (0.0, Point2::new(0.0, 0.0)),
///     (10.0, Point2::new(100.0, 0.0)),
/// ]);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.position_at(0, 99.0), Point2::new(1.0, 2.0));
/// assert_eq!(arena.position_at(1, 5.0), Point2::new(50.0, 0.0));
/// assert_eq!(arena.position_at(1, 99.0), Point2::new(100.0, 0.0)); // clamped
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

impl Default for DeploymentArena {
    fn default() -> Self {
        Self::new()
    }
}

impl DeploymentArena {
    /// An arena holding no trajectories.
    pub fn new() -> Self {
        DeploymentArena {
            keyframes: Vec::new(),
            offsets: vec![0],
            hints: Vec::new(),
        }
    }

    /// Appends the next node's trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `keyframes` is empty, times are not strictly increasing,
    /// any value is non-finite, or the arena would hold more than
    /// `u32::MAX` keyframes (a 100 GiB+ deployment; split it into shards
    /// first).
    pub fn push(&mut self, keyframes: &[(f64, Point2)]) {
        assert!(
            !keyframes.is_empty(),
            "a trajectory needs at least one keyframe"
        );
        for w in keyframes.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "keyframe times must be strictly increasing ({} then {})",
                w[0].0,
                w[1].0
            );
        }
        for &(t, p) in keyframes {
            assert!(t.is_finite() && p.is_finite(), "non-finite keyframe");
        }
        let total = self.keyframes.len() + keyframes.len();
        let end = u32::try_from(total).unwrap_or_else(|_| {
            panic!("deployment has {total} keyframes; the arena indexes with u32")
        });
        self.keyframes.extend_from_slice(keyframes);
        self.offsets.push(end);
        self.hints.push(AtomicU32::new(0));
    }

    /// Releases spare buffer capacity once the last node is pushed, so
    /// [`DeploymentArena::heap_bytes`] counts only live keyframes.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keyframes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.hints.shrink_to_fit();
    }

    /// Number of trajectories (nodes).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node `i`'s keyframes, as pushed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn keyframes(&self, i: usize) -> &[(f64, Point2)] {
        &self.keyframes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Position of node `i` at time `t`, clamped to the first/last
    /// keyframe outside the covered interval.
    ///
    /// Fast paths: O(1) for 1- and 2-keyframe trajectories (stationary
    /// nodes and single-leg movers, the overwhelmingly common case in
    /// short runs), and an O(1) hint check against the segment the
    /// previous call landed in before falling back to binary search.
    /// Every path evaluates the same unique segment with the same
    /// interpolation expression, so which path answered is unobservable
    /// (asserted bit for bit by the `fast_paths_match_binary_search`
    /// proptest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn position_at(&self, i: usize, t: f64) -> Point2 {
        let kf = self.keyframes(i);
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
        let hint = &self.hints[i];
        let h = hint.load(Ordering::Relaxed) as usize;
        if h + 1 < n && kf[h].0 <= t && t < kf[h + 1].0 {
            return segment_lerp(kf[h], kf[h + 1], t);
        }
        let lo = kf.partition_point(|&(kt, _)| kt <= t) - 1;
        hint.store(lo as u32, Ordering::Relaxed);
        segment_lerp(kf[lo], kf[lo + 1], t)
    }

    /// Total number of keyframes.
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

/// Interpolation inside one segment — the single definition of the
/// expression every `position_at` path evaluates.
#[inline]
fn segment_lerp(a: (f64, Point2), b: (f64, Point2), t: f64) -> Point2 {
    let (t0, p0) = a;
    let (t1, p1) = b;
    p0.lerp(p1, (t - t0) / (t1 - t0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(nodes: &[&[(f64, (f64, f64))]]) -> DeploymentArena {
        let mut arena = DeploymentArena::new();
        for points in nodes {
            let kf: Vec<(f64, Point2)> = points
                .iter()
                .map(|&(t, (x, y))| (t, Point2::new(x, y)))
                .collect();
            arena.push(&kf);
        }
        arena
    }

    /// Clamp, then a plain linear scan for the segment, then lerp.
    fn reference(kf: &[(f64, Point2)], t: f64) -> Point2 {
        if t <= kf[0].0 {
            return kf[0].1;
        }
        if t >= kf[kf.len() - 1].0 {
            return kf[kf.len() - 1].1;
        }
        let lo = (0..kf.len() - 1).find(|&k| t < kf[k + 1].0).unwrap();
        segment_lerp(kf[lo], kf[lo + 1], t)
    }

    #[test]
    fn arena_matches_trajectories_bit_exactly() {
        let arena = arena(&[
            &[(0.0, (3.0, 4.0))],
            &[(0.0, (0.0, 0.0)), (10.0, (100.0, 50.0))],
            &[
                (0.0, (0.0, 0.0)),
                (1.0, (3.0, 4.0)),
                (2.5, (3.0, 10.0)),
                (7.0, (-5.0, 10.0)),
            ],
        ]);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.total_keyframes(), 1 + 2 + 4);
        for i in 0..arena.len() {
            for step in 0..200 {
                let at = step as f64 * 0.05 - 1.0; // covers clamping too
                let want = reference(arena.keyframes(i), at.max(0.0));
                let got = arena.position_at(i, at.max(0.0));
                assert_eq!(want.x.to_bits(), got.x.to_bits(), "node {i} t {at}");
                assert_eq!(want.y.to_bits(), got.y.to_bits(), "node {i} t {at}");
            }
        }
    }

    #[test]
    fn hint_survives_non_monotone_queries() {
        let arena = arena(&[&[
            (0.0, (0.0, 0.0)),
            (1.0, (1.0, 0.0)),
            (2.0, (2.0, 0.0)),
            (3.0, (3.0, 0.0)),
            (4.0, (4.0, 0.0)),
        ]]);
        // Ping-pong across segments: the hint must never change answers.
        for &at in &[3.5, 0.5, 2.5, 2.5, 0.1, 3.9, 1.0, 2.0, 0.0, 4.0, 9.0] {
            let want = reference(arena.keyframes(0), at);
            assert_eq!(arena.position_at(0, at), want, "t={at}");
        }
    }

    #[test]
    fn exact_keyframe_times_hit_keyframe_positions() {
        let arena = arena(&[&[(1.0, (1.0, 1.0)), (2.0, (2.0, 2.0)), (4.0, (0.0, 0.0))]]);
        assert_eq!(arena.position_at(0, 2.0), Point2::new(2.0, 2.0));
        assert_eq!(arena.position_at(0, 1.0), Point2::new(1.0, 1.0));
        assert_eq!(arena.position_at(0, 4.0), Point2::new(0.0, 0.0));
    }

    #[test]
    fn interpolation_midpoints() {
        let arena = arena(&[&[(0.0, (0.0, 0.0)), (10.0, (10.0, 0.0)), (20.0, (10.0, 10.0))]]);
        assert_eq!(arena.position_at(0, 5.0), Point2::new(5.0, 0.0));
        assert_eq!(arena.position_at(0, 15.0), Point2::new(10.0, 5.0));
        assert_eq!(arena.position_at(0, 10.0), Point2::new(10.0, 0.0));
    }

    #[test]
    fn clamping_before_and_after() {
        let arena = arena(&[&[(5.0, (1.0, 1.0)), (6.0, (2.0, 2.0))]]);
        assert_eq!(arena.position_at(0, 0.0), Point2::new(1.0, 1.0));
        assert_eq!(arena.position_at(0, 100.0), Point2::new(2.0, 2.0));
    }

    #[test]
    fn stationary_everywhere() {
        let arena = arena(&[&[(0.0, (3.0, 4.0))]]);
        for time in [0.0, 1.0, 1e6] {
            assert_eq!(arena.position_at(0, time), Point2::new(3.0, 4.0));
        }
    }

    #[test]
    fn footprint_is_compact() {
        let mut arena = DeploymentArena::new();
        for i in 0..100 {
            let x = i as f64;
            arena.push(&[(0.0, Point2::new(x, 0.0)), (10.0, Point2::new(x, 5.0))]);
        }
        arena.shrink_to_fit();
        // One contiguous buffer: the keyframes themselves plus 8 B per
        // node (offset + hint), where a `Vec` per node costs a 24 B header.
        let keyframe_bytes = arena.total_keyframes() * std::mem::size_of::<(f64, Point2)>();
        assert!(arena.heap_bytes() <= keyframe_bytes + 8 * (arena.len() + 1));
    }

    #[test]
    fn empty_arena() {
        let arena = DeploymentArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_keyframes_panic() {
        DeploymentArena::new().push(&[(1.0, Point2::ORIGIN), (1.0, Point2::new(1.0, 0.0))]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_keyframes_panic() {
        DeploymentArena::new().push(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite keyframe")]
    fn non_finite_keyframe_panics() {
        DeploymentArena::new().push(&[(0.0, Point2::ORIGIN), (1.0, Point2::new(f64::NAN, 0.0))]);
    }
}
