//! Location diffusion (paper §2.3.1).
//!
//! Every node keeps a table of the most recent position it has learned for
//! every other node, with a timestamp. Entries come from beacons (direct
//! contact), from destination-location fields carried in data packets, and
//! from hop acknowledgements that piggy-back fresher estimates back to the
//! message holder. "Fresher timestamp wins" everywhere.
//!
//! [`LocationTable`] is a [`glr_sim::NodeMap`], keyed with
//! [`glr_sim::IdHasher`], the multiplicative id hasher the neighbour tables
//! use. The route check looks up every stored copy's destination, so SipHash
//! was a measurable share of a check. A dense `Vec` indexed by node id would
//! be cheaper still, but a node that learns of one far id would then hold
//! O(n) memory, which does not scale to 100k-node runs.

use glr_geometry::Point2;
use glr_sim::{NodeId, NodeMap, SimTime};
use std::collections::hash_map::Entry;

/// A position estimate with the time it was learned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationEstimate {
    /// Estimated position.
    pub pos: Point2,
    /// When the information was current.
    pub at: SimTime,
    /// `true` for *fabricated* estimates (stale-location perturbation):
    /// they guide the copy that carries them but are never knowledge —
    /// location tables reject them and gossip never spreads them.
    pub guessed: bool,
}

impl LocationEstimate {
    /// Creates a real (observed) estimate.
    pub fn new(pos: Point2, at: SimTime) -> Self {
        LocationEstimate {
            pos,
            at,
            guessed: false,
        }
    }

    /// Creates a fabricated estimate (perturbation output). Its timestamp
    /// marks the perturbation moment: only *observations made after it*
    /// may override the guess, otherwise the copy would snap right back to
    /// the stale attractor it is trying to escape.
    pub fn guess(pos: Point2, at: SimTime) -> Self {
        LocationEstimate {
            pos,
            at,
            guessed: true,
        }
    }

    /// `true` when `self` is strictly fresher than `other`.
    pub fn fresher_than(&self, other: &LocationEstimate) -> bool {
        self.at > other.at
    }
}

/// Per-node table of last-known locations of other nodes.
///
/// # Examples
///
/// ```
/// use glr_core::{LocationEstimate, LocationTable};
/// use glr_geometry::Point2;
/// use glr_sim::{NodeId, SimTime};
///
/// let mut t = LocationTable::default();
/// let a = NodeId(7);
/// t.update(a, LocationEstimate::new(Point2::new(1.0, 2.0), SimTime::from_secs(10.0)));
/// // Staler information never overwrites fresher information:
/// t.update(a, LocationEstimate::new(Point2::new(9.0, 9.0), SimTime::from_secs(5.0)));
/// assert_eq!(t.get(a).unwrap().pos, Point2::new(1.0, 2.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocationTable {
    entries: NodeMap<LocationEstimate>,
}

impl LocationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `est` for `node` if it is fresher than (or equal to) what we
    /// have. Returns `true` when the table changed. Fabricated estimates
    /// ([`LocationEstimate::guess`]) are rejected — tables hold knowledge,
    /// not speculation.
    pub fn update(&mut self, node: NodeId, est: LocationEstimate) -> bool {
        if est.guessed {
            return false;
        }
        match self.entries.entry(node) {
            Entry::Occupied(cur) if cur.get().at > est.at => false,
            Entry::Occupied(mut cur) => {
                cur.insert(est);
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(est);
                true
            }
        }
    }

    /// Last known estimate for `node`.
    pub fn get(&self, node: NodeId) -> Option<LocationEstimate> {
        self.entries.get(&node).copied()
    }

    /// Returns our estimate for `node` only when it is strictly fresher
    /// than `than` — the "notify the message holder" check of the location
    /// diffusion protocol.
    pub fn fresher_for(&self, node: NodeId, than: &LocationEstimate) -> Option<LocationEstimate> {
        self.get(node).filter(|mine| mine.fresher_than(than))
    }

    /// Number of nodes with known locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(x: f64, t: f64) -> LocationEstimate {
        LocationEstimate::new(Point2::new(x, 0.0), SimTime::from_secs(t))
    }

    #[test]
    fn fresher_wins() {
        let mut t = LocationTable::new();
        let n = NodeId(1);
        assert!(t.update(n, est(1.0, 10.0)));
        assert!(!t.update(n, est(2.0, 5.0)), "stale must not overwrite");
        assert_eq!(t.get(n).unwrap().pos.x, 1.0);
        assert!(t.update(n, est(3.0, 20.0)));
        assert_eq!(t.get(n).unwrap().pos.x, 3.0);
    }

    #[test]
    fn equal_timestamp_updates() {
        // Ties refresh (a node re-hearing the same beacon keeps working).
        let mut t = LocationTable::new();
        let n = NodeId(2);
        t.update(n, est(1.0, 10.0));
        assert!(t.update(n, est(5.0, 10.0)));
        assert_eq!(t.get(n).unwrap().pos.x, 5.0);
    }

    #[test]
    fn fresher_for_notification() {
        let mut t = LocationTable::new();
        let n = NodeId(3);
        t.update(n, est(1.0, 50.0));
        // Holder carries an estimate from t=10: we should notify.
        assert!(t.fresher_for(n, &est(0.0, 10.0)).is_some());
        // Holder's estimate from t=90 beats ours: stay silent.
        assert!(t.fresher_for(n, &est(0.0, 90.0)).is_none());
        // Unknown node: nothing to say.
        assert!(t.fresher_for(NodeId(99), &est(0.0, 0.0)).is_none());
    }

    #[test]
    fn size_accounting() {
        let mut t = LocationTable::new();
        assert!(t.is_empty());
        t.update(NodeId(1), est(0.0, 1.0));
        t.update(NodeId(2), est(0.0, 1.0));
        t.update(NodeId(1), est(0.0, 2.0));
        assert_eq!(t.len(), 2);
    }
}
