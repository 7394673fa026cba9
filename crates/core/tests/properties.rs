//! Property-based tests for GLR's storage, location and decision logic.

use glr_core::{
    CacheEntry, CopyPolicy, LocationEstimate, LocationTable, MessageStore, RouteVerdict,
    StoredMessage,
};
use glr_geometry::{DstdKind, Point2};
use glr_mobility::Region;
use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// The routing pass as a drain of the whole Store followed by a push back
/// of every unsent copy, skipping the rest once the link saturates: the
/// reference [`MessageStore::route_store`] must match. Returns the copies
/// `push` evicted.
fn drain_route_push(
    s: &mut MessageStore,
    mut decide: impl FnMut(&mut StoredMessage) -> RouteVerdict,
) -> usize {
    let mut evicted = 0;
    let mut push_back = |s: &mut MessageStore, m: StoredMessage| {
        let out = s.push(m);
        assert!(out.stored, "a pushed-back copy was rejected");
        evicted += out.evicted;
    };
    let mut link_saturated = false;
    for mut m in s.drain_store() {
        if link_saturated {
            push_back(s, m);
            continue;
        }
        match decide(&mut m) {
            RouteVerdict::Keep => push_back(s, m),
            RouteVerdict::Sent { to, expires } => s.to_cache(m, to, expires),
            RouteVerdict::Forget => {}
            RouteVerdict::Halt => {
                link_saturated = true;
                push_back(s, m);
            }
        }
    }
    evicted
}

/// The Store's copies in order, then the Cache's entries in order (read by
/// expiring the whole Cache).
fn contents(mut s: MessageStore) -> (Vec<StoredMessage>, Vec<CacheEntry>) {
    let store = s.iter_store().copied().collect();
    (store, s.take_expired(SimTime::from_secs(f64::MAX)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn route_store_matches_drain_and_push_back(
        kinds in prop::collection::vec(0u8..3, 1..301),
        halt in (0u8..4, 0usize..300),
        cached in 0usize..5,
        custody in 0u8..2,
        slack in 0usize..5,
    ) {
        let n = kinds.len();
        let total = n + cached;
        // `slack` 4 leaves the store unlimited; 0..=3 puts the limit at
        // `total..total+3`, so a full store is covered.
        let limit = (slack < 4).then_some(total + slack);
        let mut s = MessageStore::new(limit);
        for i in 0..cached {
            s.to_cache(msg(10_000 + i as u32, 0), NodeId(1), SimTime::from_secs(i as f64));
        }
        for i in 0..n {
            prop_assert_eq!(s.push(msg(i as u32, (i % 3) as u8)).evicted, 0);
        }
        // No halt, a halt at the first copy, at the last, or anywhere.
        let halt_at = match halt.0 {
            0 => None,
            1 => Some(0),
            2 => Some(n - 1),
            _ => Some(halt.1 % n),
        };
        let decide = |m: &mut StoredMessage| {
            let i = m.info.id.seq as usize;
            // Every visited copy is updated, so the test also sees which
            // copies were visited and that updates persist.
            m.stuck_checks += 1;
            if halt_at == Some(i) {
                return RouteVerdict::Halt;
            }
            match kinds[i] {
                0 => RouteVerdict::Keep,
                _ if custody == 0 => RouteVerdict::Forget,
                1 => RouteVerdict::Sent {
                    to: NodeId(i as u32),
                    expires: SimTime::from_secs(50.0 + i as f64),
                },
                _ => RouteVerdict::Sent {
                    to: NodeId(2),
                    expires: SimTime::from_secs(7.0),
                },
            }
        };
        let mut reference = s.clone();
        prop_assert_eq!(drain_route_push(&mut reference, decide), 0, "reference evicted");
        s.route_store(decide);
        prop_assert_eq!(s.total(), reference.total());
        prop_assert_eq!(s.store_len(), reference.store_len());
        prop_assert!(s.total() <= total, "the pass grew the store");
        prop_assert_eq!(contents(s), contents(reference));
    }

    #[test]
    fn location_table_matches_hash_map_model(
        ops in prop::collection::vec(
            (0u8..4, 0u32..100_001, 0u32..8, 0u8..2, 0u32..40, 0u8..4),
            1..200,
        ),
    ) {
        let mut t = LocationTable::new();
        let mut model: HashMap<NodeId, LocationEstimate> = HashMap::new();
        for &(op, far, near, pick_far, at, guess) in &ops {
            // Half the ops hit a few ids, so updates meet existing entries.
            let node = NodeId(if pick_far == 1 { far } else { near });
            let pos = Point2::new(far as f64, at as f64);
            let at = SimTime::from_secs(at as f64);
            let est = if guess == 0 {
                LocationEstimate::guess(pos, at)
            } else {
                LocationEstimate::new(pos, at)
            };
            match op {
                0 | 1 => {
                    let want = !est.guessed && model.get(&node).is_none_or(|cur| cur.at <= est.at);
                    if want {
                        model.insert(node, est);
                    }
                    prop_assert_eq!(t.update(node, est), want);
                }
                2 => prop_assert_eq!(t.get(node), model.get(&node).copied()),
                _ => prop_assert_eq!(
                    t.fresher_for(node, &est),
                    model.get(&node).copied().filter(|m| m.at > est.at)
                ),
            }
            prop_assert_eq!(t.len(), model.len());
            prop_assert_eq!(t.is_empty(), model.is_empty());
        }
    }

    #[test]
    fn store_never_exceeds_limit(limit in 1usize..20, ops in prop::collection::vec((0u32..50, 0u8..3), 1..80)) {
        let mut s = MessageStore::new(Some(limit));
        for (i, &(seq, tag)) in ops.iter().enumerate() {
            if i % 3 == 2 {
                // Occasionally move the head to cache.
                let drained = s.drain_store();
                for (j, m) in drained.into_iter().enumerate() {
                    if j == 0 {
                        s.to_cache(m, NodeId(1), SimTime::from_secs(10.0));
                    } else {
                        s.push(m);
                    }
                }
            }
            s.push(msg(seq, tag));
            prop_assert!(s.total() <= limit, "total {} > limit {}", s.total(), limit);
        }
    }

    #[test]
    fn ack_is_idempotent_and_precise(tags in prop::collection::vec(0u8..4, 1..10)) {
        let mut s = MessageStore::new(None);
        for (i, &t) in tags.iter().enumerate() {
            s.to_cache(msg(i as u32, t), NodeId(2), SimTime::from_secs(100.0));
        }
        let n = s.cache_len();
        // Acking an absent copy changes nothing.
        let absent = MessageId { src: NodeId(7), seq: 0 };
        let absent_ack = s.ack(absent, 0);
        prop_assert!(!absent_ack);
        prop_assert_eq!(s.cache_len(), n);
        // Acking each exactly once empties the cache.
        for (i, &t) in tags.iter().enumerate() {
            let id = MessageId { src: NodeId(0), seq: i as u32 };
            let acked = s.ack(id, t);
            prop_assert!(acked);
        }
        prop_assert_eq!(s.cache_len(), 0);
    }

    #[test]
    fn expiry_conserves_copies(n in 1usize..15, cutoff in 0.0..20.0f64) {
        let mut s = MessageStore::new(None);
        for i in 0..n {
            s.to_cache(msg(i as u32, 0), NodeId(1), SimTime::from_secs(i as f64));
        }
        let before = s.total();
        let taken = s.take_expired(SimTime::from_secs(cutoff));
        let moved = taken.len();
        prop_assert_eq!(s.total() + moved, before, "expiry must not lose copies");
        prop_assert_eq!(s.cache_len(), before - moved, "the rest stay cached");
        prop_assert!(taken.iter().all(|e| e.expires.as_secs() <= cutoff));
        // Everything with deadline <= cutoff left the Cache.
        let expect = n.min(cutoff.floor() as usize + 1).min(n);
        prop_assert!(moved <= n);
        if cutoff >= (n - 1) as f64 {
            prop_assert_eq!(moved, n);
        } else {
            prop_assert_eq!(moved, expect);
        }
    }

    #[test]
    fn location_table_is_monotone_in_time(updates in prop::collection::vec((0.0..100.0f64, -500.0..500.0f64), 1..40)) {
        let mut t = LocationTable::new();
        let node = NodeId(3);
        let mut freshest = f64::NEG_INFINITY;
        for &(at, x) in &updates {
            t.update(node, LocationEstimate::new(Point2::new(x, 0.0), SimTime::from_secs(at)));
            freshest = freshest.max(at);
            let cur = t.get(node).unwrap();
            prop_assert!((cur.at.as_secs() - freshest).abs() < 1e-12,
                "table regressed to {} when freshest is {}", cur.at.as_secs(), freshest);
        }
    }

    #[test]
    fn guesses_never_enter_tables(at in 0.0..100.0f64) {
        let mut t = LocationTable::new();
        let node = NodeId(5);
        prop_assert!(!t.update(node, LocationEstimate::guess(Point2::ORIGIN, SimTime::from_secs(at))));
        prop_assert!(t.get(node).is_none());
    }

    #[test]
    fn copy_policy_monotone_in_radius(n in 5usize..200) {
        // More range never increases the copy count.
        let policy = CopyPolicy::PAPER;
        let mut last = usize::MAX;
        for r in [30.0, 60.0, 90.0, 120.0, 150.0, 200.0, 300.0] {
            let c = policy.copies(n, r, Region::PAPER_STRIP);
            prop_assert!(c <= last, "copies increased with radius at n={} r={}", n, r);
            prop_assert!(c >= 1);
            last = c;
        }
    }

    #[test]
    fn refresh_destination_never_stales(offsets in prop::collection::vec(0.0..50.0f64, 1..10)) {
        let mut s = MessageStore::new(None);
        s.push(msg(0, 0));
        let mut best = 0.0f64;
        for &dt in &offsets {
            let est = LocationEstimate::new(Point2::new(dt, dt), SimTime::from_secs(dt));
            s.refresh_destination(NodeId(9), est);
            best = best.max(dt);
            let cur = s.iter_store().next().unwrap().dest_est;
            prop_assert!((cur.at.as_secs() - best).abs() < 1e-12);
        }
    }
}
