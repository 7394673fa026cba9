//! GLR's two storage areas (paper §2.3.2).
//!
//! The **Store** holds message copies waiting to be sent; the **Cache**
//! holds copies that have been sent and await the next hop's custody
//! acknowledgement. An acknowledged copy is deleted; an unacknowledged one
//! moves back to the Store after a timeout for another round of transfer
//! scheduling. Under storage pressure, Cache entries are dropped first
//! (they have at least been transmitted once).
//!
//! A route check walks the Store in place with
//! [`MessageStore::route_store`]: each copy gets a [`RouteVerdict`] from the
//! caller and stays, moves to the Cache, or leaves. The pass costs
//! O(copies examined); a [`RouteVerdict::Halt`] (the link queue is full)
//! ends it without touching the copies behind. Its contract:
//!
//! - **Order.** Afterwards the Store holds the kept copies in their old
//!   order, then the halting copy, then every copy after it in its old
//!   order. That is the order draining the Store and pushing unsent copies
//!   back one at a time would give.
//! - **No eviction.** The pass never evicts: every copy it keeps was
//!   already counted against the limit, and a sent copy only moves to the
//!   Cache, so the total never grows.

use crate::location::LocationEstimate;
use glr_geometry::DstdKind;
use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
use std::collections::VecDeque;

/// Face-routing recovery state carried by a message copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceState {
    /// Node where greedy forwarding failed (recovery entry point).
    pub entry: NodeId,
    /// Distance from the entry point to the destination estimate; greedy
    /// resumes when beaten.
    pub entry_dist: f64,
    /// The node the copy came from (right-hand-rule reference).
    pub prev: NodeId,
    /// Remaining face hops before the walk gives up and the copy waits for
    /// mobility instead. In a DTN the "planar graph" is stitched from
    /// stale per-node views, so an unbounded walk can bounce forever on
    /// tree-like sparse topologies; the budget caps that churn.
    pub budget: u8,
}

/// One message copy as held by a GLR node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredMessage {
    /// End-to-end message facts.
    pub info: MessageInfo,
    /// Which DSTD tree this copy follows.
    pub tree: DstdKind,
    /// Distinguishes the copies of one message (the "extracted tree branch
    /// information" in custody acknowledgements).
    pub copy_tag: u8,
    /// Link hops taken so far.
    pub hops: u32,
    /// Current destination-location estimate carried with the copy.
    pub dest_est: LocationEstimate,
    /// Face-routing recovery state, when in recovery mode.
    pub face: Option<FaceState>,
    /// Consecutive route checks that failed to forward this copy.
    pub stuck_checks: u32,
    /// Times the destination estimate has been perturbed (stale-location
    /// escape, paper §3.3).
    pub perturbations: u32,
}

impl StoredMessage {
    /// A fresh copy at the source.
    pub fn new(
        info: MessageInfo,
        tree: DstdKind,
        copy_tag: u8,
        dest_est: LocationEstimate,
    ) -> Self {
        StoredMessage {
            info,
            tree,
            copy_tag,
            hops: 0,
            dest_est,
            face: None,
            stuck_checks: 0,
            perturbations: 0,
        }
    }

    /// The copy's `(message id, copy tag)` key.
    pub fn key(&self) -> (MessageId, u8) {
        (self.info.id, self.copy_tag)
    }
}

/// A sent copy awaiting its custody acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// The copy.
    pub msg: StoredMessage,
    /// Who it was sent to.
    pub sent_to: NodeId,
    /// When to give up waiting and reschedule.
    pub expires: SimTime,
    /// Transmissions attempted to `sent_to` so far (a timed-out entry is
    /// retransmitted to the *same* next hop once before re-routing — a
    /// different next hop would fork custody if the first transfer in fact
    /// succeeded and only its acknowledgement was lost).
    pub attempts: u32,
}

/// What happened when a message was offered to [`MessageStore::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// `true` when the offered message was stored.
    pub stored: bool,
    /// Number of older messages evicted to make room.
    pub evicted: usize,
}

/// What a routing pass decided for one Store copy
/// (see [`MessageStore::route_store`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteVerdict {
    /// Not sent: the copy stays in the Store.
    Keep,
    /// Sent with custody: the copy moves to the Cache to await `to`'s
    /// acknowledgement until `expires`.
    Sent {
        /// The next hop it was sent to.
        to: NodeId,
        /// When to give up waiting for the acknowledgement.
        expires: SimTime,
    },
    /// Sent without custody: the copy is forgotten.
    Forget,
    /// The link queue is full: this copy and every copy after it stay in
    /// the Store untouched, and the pass ends.
    Halt,
}

/// The Store + Cache pair with the paper's eviction policy.
///
/// # Examples
///
/// ```
/// use glr_core::{LocationEstimate, MessageStore, StoredMessage};
/// use glr_geometry::{DstdKind, Point2};
/// use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
///
/// let mut s = MessageStore::new(Some(2));
/// let info = MessageInfo {
///     id: MessageId { src: NodeId(0), seq: 0 },
///     dst: NodeId(1),
///     size: 1000,
///     created: SimTime::ZERO,
/// };
/// let est = LocationEstimate::new(Point2::ORIGIN, SimTime::ZERO);
/// let m = StoredMessage::new(info, DstdKind::Max, 0, est);
/// assert!(s.push(m).stored);
/// assert_eq!(s.total(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MessageStore {
    store: VecDeque<StoredMessage>,
    cache: Vec<CacheEntry>,
    limit: Option<usize>,
}

impl MessageStore {
    /// Creates a store with the given total capacity (Store + Cache), or
    /// unlimited when `None`.
    pub fn new(limit: Option<usize>) -> Self {
        MessageStore {
            store: VecDeque::new(),
            cache: Vec::new(),
            limit,
        }
    }

    /// Messages waiting to be sent.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Messages sent and awaiting acknowledgement.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Total storage occupancy (what Tables 4/5 measure).
    pub fn total(&self) -> usize {
        self.store.len() + self.cache.len()
    }

    /// `true` when both areas are empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty() && self.cache.is_empty()
    }

    /// `true` when the copy `(id, tag)` is in either area.
    pub fn contains(&self, id: MessageId, tag: u8) -> bool {
        self.store.iter().any(|m| m.key() == (id, tag))
            || self.cache.iter().any(|e| e.msg.key() == (id, tag))
    }

    /// Offers a message. Under pressure, evicts the oldest Cache entry
    /// first, then the oldest Store entry; a `limit` of 0 rejects outright.
    pub fn push(&mut self, msg: StoredMessage) -> PushOutcome {
        let mut evicted = 0;
        if let Some(limit) = self.limit {
            if limit == 0 {
                return PushOutcome {
                    stored: false,
                    evicted,
                };
            }
            while self.total() >= limit {
                if !self.cache.is_empty() {
                    self.cache.remove(0);
                } else {
                    self.store.pop_front();
                }
                evicted += 1;
            }
        }
        self.store.push_back(msg);
        PushOutcome {
            stored: true,
            evicted,
        }
    }

    /// Drains the Store for a routing pass (put unsent copies back with
    /// [`MessageStore::push`] — room is guaranteed since they just left).
    pub fn drain_store(&mut self) -> Vec<StoredMessage> {
        self.store.drain(..).collect()
    }

    /// One routing pass over the Store, in place.
    ///
    /// Hands each copy, front to back, to `decide`, which may update it and
    /// returns what became of it. Kept copies are compacted in order; a
    /// [`RouteVerdict::Halt`] keeps that copy and every later one in order
    /// and ends the pass, so those later copies are never visited. Nothing
    /// is evicted (see the module docs).
    pub fn route_store(&mut self, mut decide: impl FnMut(&mut StoredMessage) -> RouteVerdict) {
        // `store[..kept]` holds the kept copies; `store[kept..next]` is the
        // gap left by the ones that went.
        let mut kept = 0;
        let mut next = 0;
        while next < self.store.len() {
            match decide(&mut self.store[next]) {
                RouteVerdict::Keep => {
                    self.store[kept] = self.store[next];
                    kept += 1;
                }
                RouteVerdict::Sent { to, expires } => {
                    self.to_cache(self.store[next], to, expires);
                }
                RouteVerdict::Forget => {}
                RouteVerdict::Halt => {
                    // Close the gap from the front: shift the kept prefix
                    // (copies already examined) right and drop the slots
                    // it vacates, so the unvisited tail is not moved.
                    let gap = next - kept;
                    for i in (0..kept).rev() {
                        self.store[i + gap] = self.store[i];
                    }
                    self.store.drain(..gap);
                    return;
                }
            }
            next += 1;
        }
        self.store.truncate(kept);
    }

    /// Moves a sent copy into the Cache pending acknowledgement.
    pub fn to_cache(&mut self, msg: StoredMessage, sent_to: NodeId, expires: SimTime) {
        self.to_cache_with_attempts(msg, sent_to, expires, 1);
    }

    /// [`MessageStore::to_cache`] with an explicit attempt count (used when
    /// re-caching a retransmission).
    pub fn to_cache_with_attempts(
        &mut self,
        msg: StoredMessage,
        sent_to: NodeId,
        expires: SimTime,
        attempts: u32,
    ) {
        self.cache.push(CacheEntry {
            msg,
            sent_to,
            expires,
            attempts,
        });
    }

    /// Removes and returns the Cache entries whose acknowledgement wait
    /// has expired; the caller decides between retransmission and
    /// re-routing.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<CacheEntry> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.cache.len() {
            if self.cache[i].expires <= now {
                out.push(self.cache.remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Removes (acknowledges) the cached copy `(id, tag)`; returns whether
    /// it was present.
    pub fn ack(&mut self, id: MessageId, tag: u8) -> bool {
        let before = self.cache.len();
        self.cache.retain(|e| e.msg.key() != (id, tag));
        self.cache.len() != before
    }

    /// Applies a fresher destination estimate to every held copy bound for
    /// `dst` (location diffusion touching stored traffic).
    pub fn refresh_destination(&mut self, dst: NodeId, est: LocationEstimate) {
        for m in self.store.iter_mut() {
            if m.info.dst == dst && est.fresher_than(&m.dest_est) {
                m.dest_est = est;
            }
        }
        for e in self.cache.iter_mut() {
            if e.msg.info.dst == dst && est.fresher_than(&e.msg.dest_est) {
                e.msg.dest_est = est;
            }
        }
    }

    /// Iterates over stored (unsent) messages.
    pub fn iter_store(&self) -> impl Iterator<Item = &StoredMessage> {
        self.store.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glr_geometry::Point2;

    fn msg(seq: u32, tag: u8) -> StoredMessage {
        StoredMessage::new(
            MessageInfo {
                id: MessageId {
                    src: NodeId(0),
                    seq,
                },
                dst: NodeId(9),
                size: 1000,
                created: SimTime::ZERO,
            },
            DstdKind::Max,
            tag,
            LocationEstimate::new(Point2::ORIGIN, SimTime::ZERO),
        )
    }

    #[test]
    fn push_and_drain() {
        let mut s = MessageStore::new(None);
        s.push(msg(0, 0));
        s.push(msg(1, 0));
        assert_eq!(s.store_len(), 2);
        let drained = s.drain_store();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn route_store_at_the_limit_never_evicts() {
        // Full store: a push would evict, the routing pass must not.
        let mut s = MessageStore::new(Some(4));
        s.to_cache(msg(0, 0), NodeId(1), SimTime::from_secs(99.0));
        for seq in 1..4 {
            s.push(msg(seq, 0));
        }
        let mut seen = Vec::new();
        s.route_store(|m| {
            seen.push(m.info.id.seq);
            match m.info.id.seq {
                1 => RouteVerdict::Keep,
                2 => RouteVerdict::Sent {
                    to: NodeId(3),
                    expires: SimTime::from_secs(5.0),
                },
                _ => RouteVerdict::Halt,
            }
        });
        assert_eq!(seen, [1, 2, 3]);
        assert_eq!(s.total(), 4, "nothing evicted or lost");
        assert_eq!(s.cache_len(), 2);
        assert!(s.contains(msg(0, 0).info.id, 0), "old cache entry kept");
        let order: Vec<u32> = s.iter_store().map(|m| m.info.id.seq).collect();
        assert_eq!(order, [1, 3]);
    }

    #[test]
    fn cache_ack_lifecycle() {
        let mut s = MessageStore::new(None);
        let m = msg(0, 1);
        s.to_cache(m, NodeId(2), SimTime::from_secs(10.0));
        assert_eq!(s.cache_len(), 1);
        assert!(s.contains(m.info.id, 1));
        assert!(s.ack(m.info.id, 1));
        assert!(!s.ack(m.info.id, 1), "double ack is a no-op");
        assert!(s.is_empty());
    }

    #[test]
    fn ack_matches_copy_tag() {
        let mut s = MessageStore::new(None);
        let m0 = msg(0, 0);
        let m1 = msg(0, 1); // same id, different branch
        s.to_cache(m0, NodeId(2), SimTime::from_secs(10.0));
        s.to_cache(m1, NodeId(3), SimTime::from_secs(10.0));
        assert!(s.ack(m0.info.id, 0));
        assert_eq!(s.cache_len(), 1, "other branch must stay cached");
    }

    #[test]
    fn expiry_moves_back_to_store() {
        let mut s = MessageStore::new(None);
        s.to_cache(msg(0, 0), NodeId(2), SimTime::from_secs(5.0));
        s.to_cache(msg(1, 0), NodeId(2), SimTime::from_secs(50.0));
        s.to_cache(msg(2, 0), NodeId(2), SimTime::from_secs(10.0));
        // Exactly the entries due at or before the cutoff leave the
        // Cache; the caller re-routes them through the Store ("another
        // round of transfer rescheduling"), as GLR's route check does.
        let expired = s.take_expired(SimTime::from_secs(10.0));
        let seqs: Vec<u32> = expired.iter().map(|e| e.msg.info.id.seq).collect();
        assert_eq!(seqs, [0, 2]);
        assert_eq!(s.cache_len(), 1);
        assert!(s.contains(msg(1, 0).info.id, 0), "not yet due");
        for e in expired {
            s.push(e.msg);
        }
        assert_eq!(s.store_len(), 2);
        assert_eq!(s.cache_len(), 1);
    }

    #[test]
    fn eviction_prefers_cache() {
        let mut s = MessageStore::new(Some(2));
        s.to_cache(msg(0, 0), NodeId(1), SimTime::from_secs(99.0));
        s.push(msg(1, 0));
        assert_eq!(s.total(), 2);
        // Full: pushing must evict the cached entry, not the stored one.
        let out = s.push(msg(2, 0));
        assert!(out.stored);
        assert_eq!(out.evicted, 1);
        assert_eq!(s.cache_len(), 0);
        assert!(s.contains(msg(1, 0).info.id, 0));
        assert!(s.contains(msg(2, 0).info.id, 0));
    }

    #[test]
    fn eviction_falls_back_to_store_fifo() {
        let mut s = MessageStore::new(Some(2));
        s.push(msg(0, 0));
        s.push(msg(1, 0));
        let out = s.push(msg(2, 0));
        assert_eq!(out.evicted, 1);
        assert!(!s.contains(msg(0, 0).info.id, 0), "oldest dropped");
        assert!(s.contains(msg(2, 0).info.id, 0));
    }

    #[test]
    fn zero_limit_rejects() {
        let mut s = MessageStore::new(Some(0));
        let out = s.push(msg(0, 0));
        assert!(!out.stored);
        assert!(s.is_empty());
    }

    #[test]
    fn refresh_destination_updates_fresher_only() {
        let mut s = MessageStore::new(None);
        s.push(msg(0, 0));
        s.to_cache(msg(1, 0), NodeId(1), SimTime::from_secs(99.0));
        let fresh = LocationEstimate::new(Point2::new(5.0, 5.0), SimTime::from_secs(10.0));
        s.refresh_destination(NodeId(9), fresh);
        assert_eq!(
            s.iter_store().next().unwrap().dest_est.pos,
            Point2::new(5.0, 5.0)
        );
        // A staler estimate must not override.
        let stale = LocationEstimate::new(Point2::new(7.0, 7.0), SimTime::from_secs(1.0));
        s.refresh_destination(NodeId(9), stale);
        assert_eq!(
            s.iter_store().next().unwrap().dest_est.pos,
            Point2::new(5.0, 5.0)
        );
    }
}
