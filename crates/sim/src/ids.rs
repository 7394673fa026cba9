//! Node and message identifiers.

use crate::time::SimTime;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A node identifier: index into the deployment, `0..n_nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A globally unique end-to-end message identifier: the source node plus a
/// per-source sequence number ("the i-th message generated by the source",
/// as the paper's custody-transfer acknowledgements put it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// The node that created the message.
    pub src: NodeId,
    /// Sequence number at the source (0-based).
    pub seq: u32,
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.src, self.seq)
    }
}

/// Immutable facts about an end-to-end message, handed to the source
/// protocol when the workload creates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageInfo {
    /// Unique id.
    pub id: MessageId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub size: u32,
    /// Creation time.
    pub created: SimTime,
}

/// Multiplicative hasher for id keys on hot paths: [`NodeId`] in neighbour
/// and GLR location tables, [`MessageId`] in epidemic buffers, GLR's
/// duplicate filter and the per-message statistics index.
///
/// Ids are small integers from a trusted source, so SipHash's DoS
/// resistance buys nothing here and costs most of a lookup's budget.
/// Iteration order of the maps this backs is never observable (outputs are
/// sorted or keyed), so the hasher choice cannot affect results.
///
/// Every write folds into the state (`state = (state.rotate_left(5) ^
/// word) * K`), so composite keys such as [`MessageId`] or `(MessageId,
/// u8)` depend on every field; `finish` folds the high half into the low
/// half, which picks the bucket. A single `u32` key therefore hashes to
/// `h ^ (h >> 32)` with `h = v * K`.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// The odd multiplier of [`IdHasher`] (2^64 / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }
}

/// Builds [`IdHasher`]s; the `S` parameter of [`NodeMap`], [`MessageSet`]
/// and [`MessageMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildIdHasher;

impl BuildHasher for BuildIdHasher {
    type Hasher = IdHasher;
    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

/// A `NodeId`-keyed hash map with the cheap [`IdHasher`].
pub type NodeMap<V> = HashMap<NodeId, V, BuildIdHasher>;

/// A set of message ids with the cheap [`IdHasher`].
pub type MessageSet = HashSet<MessageId, BuildIdHasher>;

/// A `MessageId`-keyed hash map with the cheap [`IdHasher`].
pub type MessageMap<V> = HashMap<MessageId, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let id = MessageId {
            src: NodeId(3),
            seq: 17,
        };
        assert_eq!(id.to_string(), "n3#17");
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = MessageId {
            src: NodeId(1),
            seq: 2,
        };
        let b = MessageId {
            src: NodeId(1),
            seq: 3,
        };
        assert!(a < b);
        let set: HashSet<MessageId> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    fn hash_of<T: std::hash::Hash>(key: &T) -> u64 {
        BuildIdHasher.hash_one(key)
    }

    fn mid(src: u32, seq: u32) -> MessageId {
        MessageId {
            src: NodeId(src),
            seq,
        }
    }

    #[test]
    fn node_id_hash_is_pinned() {
        // The single-`u32` multiply-xorshift values `NodeMap` has always
        // used: h = v * K, h ^ (h >> 32).
        for (v, want) in [
            (0u32, 0u64),
            (1, 0x9e37_79b9_e17d_05ac),
            (2, 0x3c6e_f372_c2fa_0b58),
            (49, 0x489e_4c81_15df_8c84),
            (99_999, 0xc7e5_3221_4fae_3d2a),
            (u32::MAX, 0xe113_025b_61a6_81b0),
        ] {
            assert_eq!(hash_of(&NodeId(v)), want, "NodeId({v})");
            let h = u64::from(v).wrapping_mul(K);
            assert_eq!(want, h ^ (h >> 32), "formula for {v}");
        }
    }

    #[test]
    fn message_ids_differing_only_in_src_hash_differently() {
        for seq in [0, 1, 17, u32::MAX] {
            let hashes: HashSet<u64> = (0..64).map(|src| hash_of(&mid(src, seq))).collect();
            assert_eq!(hashes.len(), 64, "seq {seq}");
        }
        assert_ne!(hash_of(&mid(0, 5)), hash_of(&mid(5, 0)));
    }

    #[test]
    fn tagged_keys_differing_only_in_tag_hash_differently() {
        let id = mid(3, 9);
        let hashes: HashSet<u64> = (0..=u8::MAX).map(|tag| hash_of(&(id, tag))).collect();
        assert_eq!(hashes.len(), 256);
        assert_ne!(hash_of(&(id, 0u8)), hash_of(&id));
    }
}
