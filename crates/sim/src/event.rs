//! The engine's event kinds, queued on the deterministic time-then-FIFO
//! [`crate::TimedQueue`].
//!
//! Events at equal timestamps pop in scheduling order (the queue's
//! monotone sequence number breaks ties), which is what makes a run a
//! pure function of its inputs: no ordering is ever left to the heap's
//! whim.

use crate::ids::NodeId;

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
