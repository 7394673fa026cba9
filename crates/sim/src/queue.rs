//! A deterministic timed priority queue: the engine's event-queue
//! backbone, exposed for reuse and isolated benchmarking.
//!
//! [`TimedQueue`] orders items by `(time, insertion sequence)` — time
//! ascending, FIFO within a timestamp — exactly the discipline the
//! simulator's determinism guarantee rests on. It is a hand-rolled
//! **4-ary min-heap** rather than `BinaryHeap<Reverse<…>>`: the flatter
//! tree halves the sift depth, sifts touch adjacent slots (one cache
//! line holds several children), and no `Reverse` wrapper or re-push is
//! needed anywhere. The sift loops compare single packed `u128` keys,
//! pick each level's minimum child by pairwise tournament (two
//! independent first-round compares instead of a serial min scan — the
//! fix for the small-heap regression where the dependent-compare chain,
//! not cache misses, dominated). The engine's run loop peeks
//! [`TimedQueue::next_at`] and pops one event at a time.
//!
//! Every key is unique (the sequence number breaks all ties), so the pop
//! order is the fully sorted order regardless of internal layout: two
//! heaps fed the same schedule always drain identically.
//!
//! # Examples
//!
//! ```
//! use glr_sim::{SimTime, TimedQueue};
//!
//! let mut q = TimedQueue::new();
//! q.schedule(SimTime::from_secs(2.0), "late");
//! q.schedule(SimTime::from_secs(1.0), "first");
//! q.schedule(SimTime::from_secs(1.0), "second");
//!
//! assert_eq!(q.next_at(), Some(SimTime::from_secs(1.0)));
//! assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "first")));
//! assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "second"))); // FIFO within the tick
//! assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
//! ```

use crate::time::SimTime;

/// Branching factor of the heap. Four keeps the tree shallow while a
/// parent's children still share a cache line or two.
const ARITY: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Slot<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Slot<T> {
    /// Comparison key: time bits then sequence number, packed into one
    /// `u128`. `SimTime` guarantees non-negative finite values, whose
    /// IEEE bit patterns order identically to the values — so the sift
    /// loops compare a single integer (which compiles to a branchless
    /// two-word compare) instead of running float `partial_cmp` with
    /// its NaN branch, or a lexicographic tuple compare with its
    /// equality branch, on every step. The min-of-children scan in
    /// [`TimedQueue::pop`] turns into conditional moves this way — the
    /// fix for the small-heap regression where those data-dependent
    /// branches (not cache misses) dominated.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.key_bits()) << 64) | u128::from(self.seq)
    }
}

/// A deterministic min-heap of timed items: pops in time order, FIFO
/// within equal timestamps.
///
/// Items are `Copy` (the engine's event kinds are a few words) so the
/// sift loops can move elements through a register-held hole instead of
/// swapping through memory.
#[derive(Debug, Clone)]
pub struct TimedQueue<T: Copy> {
    slots: Vec<Slot<T>>,
    seq: u64,
}

impl<T: Copy> Default for TimedQueue<T> {
    fn default() -> Self {
        TimedQueue {
            slots: Vec::new(),
            seq: 0,
        }
    }
}

impl<T: Copy> TimedQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        TimedQueue::default()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Schedules `item` at time `at`. Items scheduled at equal times pop
    /// in scheduling order.
    pub fn schedule(&mut self, at: SimTime, item: T) {
        self.seq += 1;
        self.slots.push(Slot {
            at,
            seq: self.seq,
            item,
        });
        self.sift_up(self.slots.len() - 1);
    }

    /// Due time of the next item without removing it.
    #[inline]
    pub fn next_at(&self) -> Option<SimTime> {
        self.slots.first().map(|s| s.at)
    }

    /// Removes and returns the next `(time, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let last = self.slots.pop()?;
        let Some(&top) = self.slots.first() else {
            return Some((last.at, last.item));
        };
        // Bounce the hole from the root to a leaf along minimum
        // children (no comparison against `last` on the way down), then
        // sift `last` back up from there. `last` came from the deepest
        // layer, so the up-pass almost always stops immediately —
        // fewer comparisons than a guarded sink on every level. The
        // min-of-children scan keeps the running minimum's key in a
        // register (one load + one compare per child, no re-reads of
        // the current minimum slot).
        let n = self.slots.len();
        let slots = self.slots.as_mut_slice();
        let mut i = 0;
        // Full levels (all ARITY children present): a pairwise
        // tournament instead of a linear min scan — the two first-round
        // compares are independent, which roughly halves the
        // data-dependent latency chain the linear scan suffered.
        loop {
            let c = i * ARITY + 1;
            if c + ARITY > n {
                break;
            }
            let (k0, k1) = (slots[c].key(), slots[c + 1].key());
            let (k2, k3) = (slots[c + 2].key(), slots[c + 3].key());
            let (ka, ia) = if k1 < k0 { (k1, c + 1) } else { (k0, c) };
            let (kb, ib) = if k3 < k2 { (k3, c + 3) } else { (k2, c + 2) };
            let min = if kb < ka { ib } else { ia };
            slots[i] = slots[min];
            i = min;
        }
        // At most one partial level remains.
        let first_child = i * ARITY + 1;
        if first_child < n {
            let last_child = (first_child + ARITY).min(n);
            let mut min = first_child;
            let mut min_key = slots[first_child].key();
            for (c, slot) in (first_child + 1..).zip(&slots[first_child + 1..last_child]) {
                let key = slot.key();
                if key < min_key {
                    min = c;
                    min_key = key;
                }
            }
            slots[i] = slots[min];
            i = min;
        }
        slots[i] = last;
        self.sift_up(i);
        Some((top.at, top.item))
    }

    /// Moves the element at `i` toward the root until its parent is
    /// smaller, shifting displaced parents down through a hole.
    fn sift_up(&mut self, mut i: usize) {
        let slots = self.slots.as_mut_slice();
        let slot = slots[i];
        let key = slot.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key < slots[parent].key() {
                slots[i] = slots[parent];
                i = parent;
            } else {
                break;
            }
        }
        slots[i] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_sorted_with_fifo_ties() {
        let mut q = TimedQueue::new();
        for (at, v) in [(3.0, 30), (1.0, 10), (2.0, 20), (1.0, 11), (3.0, 31)] {
            q.schedule(SimTime::from_secs(at), v);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![10, 11, 20, 30, 31]);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_reference_sort_on_many_interleaved_ops() {
        // Pseudo-random schedule/pop interleaving vs a sorted reference.
        let mut q = TimedQueue::new();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new(); // (time_key, seq, item)
        let mut state = 0x1234_5678_u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            let t = (state >> 33) % 50;
            seq += 1;
            q.schedule(SimTime::from_secs(t as f64), seq as u32);
            reference.push((t, seq, seq as u32));
            if state.is_multiple_of(3) {
                if let Some((_, v)) = q.pop() {
                    popped.push(v);
                    reference.sort_unstable();
                    expected.push(reference.remove(0).2);
                }
            }
        }
        reference.sort_unstable();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
            expected.push(reference.remove(0).2);
        }
        assert_eq!(popped, expected);
    }
}
