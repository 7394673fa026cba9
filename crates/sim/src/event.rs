//! The discrete-event queue: event kinds over the deterministic
//! time-then-FIFO [`TimedQueue`].
//!
//! Events at equal timestamps pop in scheduling order (the queue's
//! monotone sequence number breaks ties), which is what makes a run a
//! pure function of its inputs: no ordering is ever left to the heap's
//! whim. [`EventQueue::drain_due`] hands the engine everything due at
//! one timestamp as a batch — the unit the batched-delivery loop
//! operates on.

use crate::ids::NodeId;
use crate::queue::TimedQueue;
use crate::time::SimTime;

/// Everything that can happen in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Node broadcasts its IMEP-style neighbour-sensing beacon.
    Beacon(NodeId),
    /// The frame in flight at this node's radio finishes transmitting.
    TxComplete(NodeId),
    /// A protocol timer set through `Ctx::set_timer` fires.
    Timer(NodeId, u64),
    /// The workload injects message `i`.
    Inject(u32),
    /// Periodic storage-occupancy sampling.
    StatsSample,
}

/// The simulation's future: a deterministic min-heap of [`EventKind`]s.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    q: TimedQueue<EventKind>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        self.q.schedule(at, kind);
    }

    /// Due time of the next event without removing it.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.q.next_at()
    }

    /// Removes and returns the next event.
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.q.pop()
    }

    /// Pops every event due exactly at `at` (in FIFO order) onto the end
    /// of `out`. Events a handler schedules *at the same timestamp*
    /// while the batch runs are not in it — they drain on the next loop
    /// turn, after the current batch, exactly where the one-at-a-time
    /// reference loop would process them.
    pub(crate) fn drain_due(&mut self, at: SimTime, out: &mut Vec<EventKind>) {
        self.q.drain_due(at, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), EventKind::StatsSample);
        q.schedule(SimTime::from_secs(1.0), EventKind::Beacon(NodeId(1)));
        q.schedule(SimTime::from_secs(1.0), EventKind::Beacon(NodeId(2)));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.pop().unwrap().1, EventKind::Beacon(NodeId(1)));
        assert_eq!(q.pop().unwrap().1, EventKind::Beacon(NodeId(2)));
        assert_eq!(q.pop().unwrap().1, EventKind::StatsSample);
        assert!(q.pop().is_none());
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn drain_due_batches_one_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.schedule(t, EventKind::Beacon(NodeId(1)));
        q.schedule(SimTime::from_secs(2.0), EventKind::StatsSample);
        q.schedule(t, EventKind::TxComplete(NodeId(3)));
        let mut batch = Vec::new();
        q.drain_due(t, &mut batch);
        assert_eq!(
            batch,
            vec![
                EventKind::Beacon(NodeId(1)),
                EventKind::TxComplete(NodeId(3))
            ]
        );
        assert_eq!(q.next_at(), Some(SimTime::from_secs(2.0)));
    }
}
