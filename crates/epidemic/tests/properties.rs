//! Property-based tests for the epidemic buffer.

use glr_epidemic::{BufferedMessage, FifoBuffer};
use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

fn msg(src: u32, seq: u32) -> BufferedMessage {
    BufferedMessage {
        info: MessageInfo {
            id: MessageId {
                src: NodeId(src),
                seq,
            },
            dst: NodeId(99),
            size: 100,
            created: SimTime::ZERO,
        },
        hops: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capacity_is_never_exceeded(cap in 0usize..30, inserts in prop::collection::vec((0u32..5, 0u32..40), 0..120)) {
        let mut b = FifoBuffer::new(Some(cap));
        for &(src, seq) in &inserts {
            b.insert(msg(src, seq));
            prop_assert!(b.len() <= cap);
        }
    }

    #[test]
    fn summary_vector_matches_membership(inserts in prop::collection::vec((0u32..4, 0u32..30), 0..60)) {
        let mut b = FifoBuffer::new(None);
        for &(src, seq) in &inserts {
            b.insert(msg(src, seq));
        }
        let sv = b.summary_vector();
        prop_assert_eq!(sv.len(), b.len());
        for id in &sv {
            prop_assert!(b.contains(*id));
        }
        // No duplicates in the summary vector.
        let set: HashSet<_> = sv.iter().collect();
        prop_assert_eq!(set.len(), sv.len());
    }

    #[test]
    fn eviction_is_strictly_fifo(cap in 1usize..10, n in 0u32..40) {
        let mut b = FifoBuffer::new(Some(cap));
        let mut evicted = Vec::new();
        for seq in 0..n {
            if let Some(old) = b.insert(msg(0, seq)) {
                evicted.push(old.info.id.seq);
            }
        }
        // Evictions come out in insertion order: 0, 1, 2, ...
        for (i, &seq) in evicted.iter().enumerate() {
            prop_assert_eq!(seq as usize, i);
        }
        // The survivors are exactly the newest `min(n, cap)`.
        let sv = b.summary_vector();
        prop_assert_eq!(sv.len(), (n as usize).min(cap));
    }

    #[test]
    fn buffer_matches_vecdeque_model(
        cap_kind in 0u8..4,
        k in 2usize..12,
        ops in prop::collection::vec((0u8..5, 0u32..4, 0u32..10, 0u32..50), 0..150),
    ) {
        let capacity = match cap_kind {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(k),
        };
        let mut b = FifoBuffer::new(capacity);
        let mut queue: VecDeque<BufferedMessage> = VecDeque::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        for &(op, src, seq, hops) in &ops {
            let mut m = msg(src, seq);
            m.hops = hops;
            match op {
                // Insert (ids repeat often in this small space).
                0 | 1 => {
                    let want = if ids.contains(&m.info.id) {
                        None
                    } else if capacity == Some(0) {
                        Some(m)
                    } else {
                        let evicted = if capacity.is_some_and(|c| queue.len() >= c) {
                            let old = queue.pop_front().unwrap();
                            ids.remove(&old.info.id);
                            Some(old)
                        } else {
                            None
                        };
                        ids.insert(m.info.id);
                        queue.push_back(m);
                        evicted
                    };
                    prop_assert_eq!(b.insert(m), want);
                }
                // Re-insert a buffered id with new hops: ignored.
                2 => {
                    if let Some(held) = queue.get(seq as usize % queue.len().max(1)) {
                        let dup = BufferedMessage { hops: hops + 1000, ..*held };
                        prop_assert_eq!(b.insert(dup), None);
                    }
                }
                3 => prop_assert_eq!(b.contains(m.info.id), ids.contains(&m.info.id)),
                _ => prop_assert_eq!(
                    b.get(m.info.id),
                    queue.iter().find(|q| q.info.id == m.info.id)
                ),
            }
            prop_assert_eq!(b.len(), queue.len());
            prop_assert_eq!(b.is_empty(), queue.is_empty());
            prop_assert_eq!(
                b.summary_vector(),
                queue.iter().map(|q| q.info.id).collect::<Vec<_>>()
            );
        }
    }
}
