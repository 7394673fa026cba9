//! FIFO message buffer with optional capacity — epidemic routing's storage
//! policy ("old messages are dropped when new messages come in", paper
//! §3.6).

use glr_sim::{MessageId, MessageInfo, MessageSet};
use std::collections::VecDeque;

/// A message held by an epidemic node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferedMessage {
    /// The end-to-end message facts.
    pub info: MessageInfo,
    /// Link hops the carried copy has taken so far.
    pub hops: u32,
}

/// FIFO buffer of carried messages with O(1) membership tests.
///
/// # Examples
///
/// ```
/// use glr_epidemic::{BufferedMessage, FifoBuffer};
/// use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
///
/// let mk = |seq| BufferedMessage {
///     info: MessageInfo {
///         id: MessageId { src: NodeId(0), seq },
///         dst: NodeId(1),
///         size: 100,
///         created: SimTime::ZERO,
///     },
///     hops: 0,
/// };
/// let mut buf = FifoBuffer::new(Some(2));
/// assert!(buf.insert(mk(0)).is_none());
/// assert!(buf.insert(mk(1)).is_none());
/// // Full: inserting evicts the oldest.
/// let evicted = buf.insert(mk(2)).unwrap();
/// assert_eq!(evicted.info.id.seq, 0);
/// assert_eq!(buf.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoBuffer {
    queue: VecDeque<BufferedMessage>,
    ids: MessageSet,
    capacity: Option<usize>,
}

impl FifoBuffer {
    /// Creates a buffer with the given capacity (`None` = unlimited).
    pub fn new(capacity: Option<usize>) -> Self {
        FifoBuffer {
            queue: VecDeque::new(),
            ids: MessageSet::default(),
            capacity,
        }
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` when `id` is buffered.
    pub fn contains(&self, id: MessageId) -> bool {
        self.ids.contains(&id)
    }

    /// Inserts a message; duplicates are ignored. When at capacity, the
    /// oldest message is evicted and returned.
    pub fn insert(&mut self, msg: BufferedMessage) -> Option<BufferedMessage> {
        if self.ids.contains(&msg.info.id) {
            return None;
        }
        let mut evicted = None;
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return Some(msg); // degenerate: nothing fits, "evict" input
            }
            if self.queue.len() >= cap {
                let old = self.queue.pop_front().expect("len >= cap > 0");
                self.ids.remove(&old.info.id);
                evicted = Some(old);
            }
        }
        self.ids.insert(msg.info.id);
        self.queue.push_back(msg);
        evicted
    }

    /// The buffered message ids, oldest first (the *summary vector*).
    pub fn summary_vector(&self) -> Vec<MessageId> {
        self.queue.iter().map(|m| m.info.id).collect()
    }

    /// Looks up a buffered message by id.
    pub fn get(&self, id: MessageId) -> Option<&BufferedMessage> {
        self.queue.iter().find(|m| m.info.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glr_sim::{NodeId, SimTime};

    fn msg(src: u32, seq: u32) -> BufferedMessage {
        BufferedMessage {
            info: MessageInfo {
                id: MessageId {
                    src: NodeId(src),
                    seq,
                },
                dst: NodeId(99),
                size: 1000,
                created: SimTime::ZERO,
            },
            hops: 0,
        }
    }

    #[test]
    fn insert_and_membership() {
        let mut b = FifoBuffer::new(None);
        assert!(b.is_empty());
        b.insert(msg(0, 0));
        b.insert(msg(0, 1));
        assert_eq!(b.len(), 2);
        assert!(b.contains(msg(0, 0).info.id));
        assert!(!b.contains(msg(0, 5).info.id));
    }

    #[test]
    fn duplicates_ignored() {
        let mut b = FifoBuffer::new(Some(2));
        b.insert(msg(0, 0));
        assert!(b.insert(msg(0, 0)).is_none());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut b = FifoBuffer::new(Some(3));
        for seq in 0..3 {
            assert!(b.insert(msg(0, seq)).is_none());
        }
        let ev1 = b.insert(msg(0, 3)).unwrap();
        assert_eq!(ev1.info.id.seq, 0);
        let ev2 = b.insert(msg(0, 4)).unwrap();
        assert_eq!(ev2.info.id.seq, 1);
        assert_eq!(
            b.summary_vector().iter().map(|i| i.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut b = FifoBuffer::new(Some(0));
        let back = b.insert(msg(0, 0)).unwrap();
        assert_eq!(back.info.id.seq, 0);
        assert!(b.is_empty());
    }

    #[test]
    fn get_returns_stored_hops() {
        let mut b = FifoBuffer::new(None);
        let mut m = msg(1, 7);
        m.hops = 4;
        b.insert(m);
        assert_eq!(b.get(m.info.id).unwrap().hops, 4);
        assert!(b.get(msg(1, 8).info.id).is_none());
    }
}
