//! Node and message identifiers.

use crate::time::SimTime;
use std::collections::HashMap;
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

/// Multiply-xorshift hasher for [`NodeId`] keys on hot paths (neighbour
/// tables, GLR location tables).
///
/// Node ids are small dense integers from a trusted source, so SipHash's
/// DoS resistance buys nothing here and costs most of a lookup's budget.
/// Iteration order of the maps this backs is never observable (outputs are
/// sorted or keyed), so the hasher choice cannot affect results.
///
/// `write_u32` *replaces* the state instead of mixing into it, so the
/// hasher is only valid for keys that hash as a single `u32` (such as
/// [`NodeId`]). A composite key would keep only its last `u32` field and
/// collide on all the others.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, v: u32) {
        let h = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Builds [`NodeIdHasher`]s; the `S` parameter of a [`NodeMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildNodeIdHasher;

impl BuildHasher for BuildNodeIdHasher {
    type Hasher = NodeIdHasher;
    fn build_hasher(&self) -> NodeIdHasher {
        NodeIdHasher(0)
    }
}

/// A `NodeId`-keyed hash map with the cheap [`NodeIdHasher`].
pub type NodeMap<V> = HashMap<NodeId, V, BuildNodeIdHasher>;

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
        use std::collections::HashSet;
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
}
