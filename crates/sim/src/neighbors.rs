//! IMEP-style neighbour sensing: the per-node 1-hop and 2-hop tables
//! built from periodic beacons and overheard frames.
//!
//! Beacons carry the sender's position and a snapshot of its fresh 1-hop
//! table; receivers merge both with freshest-wins semantics and expire
//! entries after `config.neighbor_ttl` seconds. Protocol views are
//! therefore *stale by design*, exactly as in the paper: positions are
//! as of each neighbour's last beacon, and departures are only noticed
//! when the TTL lapses.
//!
//! # Implementation
//!
//! [`NeighborTables`] has one implementation, built for 10k+-node
//! deployments, and one snapshot type, [`NeighborsView`]: an `Rc` slice
//! of entries. A beacon carries the sender's fresh 1-hop table as a view
//! materialised **once** per beacon event and shared by every receiver;
//! [`NeighborTables::record_beacon`] stores that `Rc` keyed by sender —
//! amortised O(1) per reception — instead of merging the snapshot
//! entry-by-entry into a linearly-scanned 2-hop `Vec`. 1-hop upserts go
//! through a hash index and expiry is swept lazily (amortised, never a
//! per-beacon full-table rebuild). Views are not cached: every
//! [`crate::Ctx::neighbors`] / [`crate::Ctx::local_view`] call builds a
//! fresh one, so a hook that needs a view asks once.
//!
//! The shared allocations are reference-counted without atomics: a run
//! is single-threaded (a [`crate::Sweep`] builds and runs each
//! simulation inside one worker, and only its [`crate::RunStats`] cross
//! threads), so a beacon's per-receiver share is a plain counter bump.
//! [`NeighborTables`] and [`NeighborsView`] are therefore `!Send`.
//!
//! The original clone-and-merge tables (`Vec`-scanned, deep-merged on
//! every reception, expired eagerly) survive only as a test oracle
//! compiled under `#[cfg(test)]`. The crate's tests check that the two
//! are **observably identical**: for a fixed seed a full simulation
//! produces bit-identical [`crate::RunStats`] with either, over every
//! medium. The equivalence hinges on two invariants the engine
//! maintains:
//!
//! 1. *Deterministic entries*: every entry recorded for node `x` with
//!    `heard_at = t` carries `x`'s true position at `t`, so freshest-wins
//!    ties can never disagree on the winning value.
//! 2. *Monotone snapshots*: an id missing from a sender's newer beacon
//!    snapshot was expired from the sender's table, hence (same TTL) is
//!    expired for every receiver too — so keeping only the latest
//!    snapshot per sender loses nothing a fresh query could see.

use crate::ids::{NodeId, NodeMap};
use crate::time::SimTime;
use glr_geometry::Point2;
use std::collections::HashMap;
use std::rc::Rc;

/// A neighbour-table entry: where a node was when we last heard it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour.
    pub id: NodeId,
    /// Its position at the time of the beacon that created this entry.
    pub pos: Point2,
    /// When the information was obtained.
    pub heard_at: SimTime,
}

/// A cheap, immutable, shareable view of neighbour entries: what the
/// protocols read and what a beacon carries.
///
/// Dereferences to `[NeighborEntry]`; cloning is an `Rc` bump. Two
/// words wide, deliberately: every receiver of a beacon keeps the
/// sender's view in its peer map, so each byte here is a byte per
/// `(node, peer)` pair at 100k nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborsView {
    entries: Rc<[NeighborEntry]>,
}

impl NeighborsView {
    /// Iterates the entries by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, NeighborEntry> {
        self.entries.iter()
    }

    /// Whether every entry is older than `horizon` (vacuously true when
    /// empty) — i.e. no fresh query can see anything in this view.
    fn expired(&self, horizon: f64) -> bool {
        self.entries.iter().all(|e| e.heard_at.as_secs() < horizon)
    }
}

impl From<Vec<NeighborEntry>> for NeighborsView {
    fn from(v: Vec<NeighborEntry>) -> Self {
        NeighborsView { entries: v.into() }
    }
}

impl std::ops::Deref for NeighborsView {
    type Target = [NeighborEntry];
    fn deref(&self) -> &[NeighborEntry] {
        &self.entries
    }
}

impl<'a> IntoIterator for &'a NeighborsView {
    type Item = &'a NeighborEntry;
    type IntoIter = std::slice::Iter<'a, NeighborEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

/// All nodes' 1-hop and 2-hop neighbour tables.
///
/// # Examples
///
/// ```
/// use glr_sim::{NeighborEntry, NeighborTables, NeighborsView, NodeId, SimTime};
/// use glr_geometry::Point2;
///
/// let mut t = NeighborTables::new(3, 2.5);
/// let now = SimTime::from_secs(1.0);
/// let sender = NeighborEntry { id: NodeId(0), pos: Point2::new(0.0, 0.0), heard_at: now };
/// let snap = NeighborsView::from(Vec::new());
/// t.record_beacon(NodeId(1), sender, &snap, now);
/// assert_eq!(t.fresh_one_hop(NodeId(1), now).len(), 1);
/// ```
#[derive(Debug)]
pub struct NeighborTables {
    backend: Backend,
}

/// The production tables, plus (in test builds only) the clone-and-merge
/// oracle they are checked against.
#[derive(Debug)]
enum Backend {
    Shared(SharedTables),
    #[cfg(test)]
    CloneMerge(CloneTables),
}

impl NeighborTables {
    /// Creates empty tables for `n_nodes` nodes with the given entry TTL
    /// (seconds).
    pub fn new(n_nodes: usize, ttl: f64) -> Self {
        NeighborTables {
            backend: Backend::Shared(SharedTables::new(n_nodes, ttl)),
        }
    }

    /// The clone-and-merge reference tables the production tables are
    /// checked against.
    #[cfg(test)]
    pub(crate) fn clone_merge(n_nodes: usize, ttl: f64) -> Self {
        NeighborTables {
            backend: Backend::CloneMerge(CloneTables::new(n_nodes, ttl)),
        }
    }

    /// Fresh (non-expired) one-hop entries for `u` at `now`, in table
    /// order. This is also the payload of `u`'s beacon: the engine
    /// materialises it once per beacon and every receiver shares it.
    pub fn fresh_one_hop(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        match &mut self.backend {
            Backend::Shared(t) => t.fresh_one_hop(u, now),
            #[cfg(test)]
            Backend::CloneMerge(t) => t.fresh_one_hop(u, now).into(),
        }
    }

    /// Fresh merged 1- and 2-hop entries for `u` — the "distance two
    /// neighbourhood information" the paper's nodes collect to build the
    /// LDTG. Excludes `u` itself; the freshest entry per id wins; sorted
    /// by id.
    pub fn fresh_view(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        match &mut self.backend {
            Backend::Shared(t) => t.fresh_view(u, now),
            #[cfg(test)]
            Backend::CloneMerge(t) => t.fresh_view(u, now).into(),
        }
    }

    /// Records that `receiver` heard `sender`'s beacon carrying
    /// `snapshot` (the sender's fresh 1-hop table). Merges the sender
    /// into the receiver's 1-hop table and the snapshot into its 2-hop
    /// knowledge, and expires old entries. Returns whether the sender
    /// was already a *fresh* 1-hop neighbour before the beacon (`false`
    /// means this is a new radio contact).
    ///
    /// Entries handed to the tables must be *deterministic*: two entries
    /// for the same `(id, heard_at)` must be identical (the engine
    /// guarantees this — an entry always carries the node's true
    /// position at `heard_at`). The test-only reference tables may
    /// otherwise disagree on freshest-wins ties.
    pub fn record_beacon(
        &mut self,
        receiver: NodeId,
        sender: NeighborEntry,
        snapshot: &NeighborsView,
        now: SimTime,
    ) -> bool {
        match &mut self.backend {
            Backend::Shared(t) => t.record_beacon(receiver, sender, snapshot, now),
            #[cfg(test)]
            Backend::CloneMerge(t) => t.record_beacon(receiver, sender, snapshot, now),
        }
    }

    /// Heap footprint of the tables — the per-node protocol-state
    /// telemetry the 100k-node memory work reports (hash-map sizes are
    /// bucket-count estimates; everything else is exact capacity
    /// arithmetic).
    pub fn footprint(&self) -> TableFootprint {
        match &self.backend {
            Backend::Shared(t) => t.footprint(),
            #[cfg(test)]
            Backend::CloneMerge(t) => t.footprint(),
        }
    }

    /// Records that `receiver` heard a (data or control) frame from the
    /// node described by `entry`: hearing any frame refreshes the
    /// receiver's 1-hop entry for the sender — data exchange doubles as
    /// location exchange, as in the paper's IMEP adaptation.
    pub fn heard_frame(&mut self, receiver: NodeId, entry: NeighborEntry) {
        match &mut self.backend {
            Backend::Shared(t) => t.heard_frame(receiver, entry),
            #[cfg(test)]
            Backend::CloneMerge(t) => t.heard_frame(receiver, entry),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared tables
// ---------------------------------------------------------------------------

/// Sweep a node's table once this many mutations have accumulated (and
/// at least [`SWEEP_SLACK`] × the table's size) — classic amortisation,
/// so no single beacon reception pays for a full-table rebuild.
const MIN_SWEEP_OPS: usize = 32;

/// Mutations per table entry between physical sweeps. Sweeping is
/// unobservable (it drops only entries no fresh query can return), so
/// this trades a bounded amount of zombie/orphan memory for doing the
/// O(table) compaction — with its hash probe per entry — four times
/// less often than the steady-state beacon rate.
const SWEEP_SLACK: usize = 4;

#[derive(Debug)]
struct SharedTables {
    nodes: Vec<NodeTable>,
    ttl: f64,
    /// Reusable freshest-wins merge buffer for [`SharedTables::fresh_view`].
    scratch: NodeMap<NeighborEntry>,
    /// Reusable staging buffer for 1-hop views, so materialising one
    /// costs exactly one allocation (the shared `Rc`).
    snap_scratch: Vec<NeighborEntry>,
}

/// "This peer has no (live or zombie) slot in `order`."
const NO_SLOT: u32 = u32::MAX;

/// Everything a node knows about one peer: where its 1-hop entry sits
/// and the latest beacon snapshot heard from it. Keeping both behind
/// **one** hash lookup is what makes a beacon reception cheap — the
/// previous two-map layout (`id → slot` plus `id → snapshot`) paid two
/// hashed probes into two scattered tables per reception, and those
/// cache misses dominated the dense-regime beacon storm. The layout is
/// deliberately compact (one `u32` + one thin [`NeighborsView`]):
/// peer-map entries are the dominant per-node memory term at 100k
/// nodes, one entry per `(node, peer)` pair.
#[derive(Debug)]
struct PeerState {
    /// Current slot in `order`, or [`NO_SLOT`].
    slot: u32,
    /// Latest beacon snapshot from this peer (the receiving node's 2-hop
    /// knowledge). An `Rc` clone of the sender-side materialisation.
    snap: Option<NeighborsView>,
}

/// One node's table state: everything a beacon reception touches.
#[derive(Debug, Default)]
struct NodeTable {
    /// 1-hop entries in *revival order* (the order the reference backend
    /// keeps physically): live entries plus trailing zombies/orphans
    /// that are swept out lazily and can never surface in a fresh view.
    order: Vec<NeighborEntry>,
    /// id → slot + latest snapshot, one probe per reception.
    peers: NodeMap<PeerState>,
    /// TTL horizon (seconds) of the most recent `record_beacon` — the
    /// moment the reference backend last garbage-collected this node's
    /// tables. Entries older than this are "zombies": physically present
    /// in `order` but observably deleted.
    gc_horizon: f64,
    /// Mutations since the last physical sweep.
    ops: u32,
}

impl NodeTable {
    fn new() -> Self {
        NodeTable {
            gc_horizon: f64::NEG_INFINITY,
            ..NodeTable::default()
        }
    }

    /// Freshest-wins placement of `entry` off a single `peers` probe,
    /// with the reference backend's semantics: live entries update in
    /// place (keeping their slot), zombies — entries the reference
    /// physically removed at the last beacon GC — re-append at the end
    /// like any new contact. Counts one mutation towards the next sweep.
    /// Returns the peer's state and whether its entry was fresh (heard
    /// at or after `horizon`) before this call.
    ///
    /// Forced inline: every beacon reception runs it, and as an
    /// out-of-line call it slowed epidemic-flood's `wall_s` by about 2 %
    /// (perfbench, 60 s runs, 2-vCPU host).
    #[inline(always)]
    fn place(&mut self, entry: NeighborEntry, horizon: f64) -> (&mut PeerState, bool) {
        self.ops += 1;
        let order = &mut self.order;
        let st = self.peers.entry(entry.id).or_insert(PeerState {
            slot: NO_SLOT,
            snap: None,
        });
        let i = st.slot as usize;
        let was_fresh = st.slot != NO_SLOT && order[i].heard_at.as_secs() >= horizon;
        if st.slot != NO_SLOT && order[i].heard_at.as_secs() >= self.gc_horizon {
            // Live: freshest-wins in place, keeping the slot.
            if entry.heard_at >= order[i].heard_at {
                order[i] = entry;
            }
        } else {
            // Zombie or absent: (re-)append at the end; a stale slot
            // stays behind as an orphan until the next sweep (it can
            // never surface — its heard_at is below every future query
            // horizon).
            st.slot = order.len() as u32;
            order.push(entry);
        }
        (st, was_fresh)
    }

    /// The per-receiver beacon merge: freshest-wins placement of the
    /// sender, latest-snapshot-per-sender store, GC-horizon advance and
    /// amortised sweep. Touches only this table.
    fn record_beacon(
        &mut self,
        sender: NeighborEntry,
        snapshot: &NeighborsView,
        horizon: f64,
    ) -> bool {
        let (st, was_fresh) = self.place(sender, horizon);
        st.snap = Some(snapshot.clone());
        // This is the reference backend's GC moment: from here on,
        // anything older than `horizon` is observably deleted.
        self.gc_horizon = self.gc_horizon.max(horizon);
        self.maybe_sweep();
        was_fresh
    }

    /// Physically removes zombies, orphans and expired snapshots once
    /// enough mutations have amortised the cost. Unobservable: it drops
    /// only entries no fresh query could return. (The expiry check
    /// scans each snapshot's entries — the price of the thin snapshot
    /// layout — but runs only here, under the same amortisation.)
    fn maybe_sweep(&mut self) {
        if (self.ops as usize) < MIN_SWEEP_OPS.max(self.order.len() * SWEEP_SLACK) {
            return;
        }
        self.ops = 0;
        let horizon = self.gc_horizon;
        let mut kept = 0;
        for i in 0..self.order.len() {
            let e = self.order[i];
            let Some(st) = self.peers.get_mut(&e.id) else {
                continue;
            };
            if st.slot != i as u32 {
                continue; // orphaned duplicate slot
            }
            if e.heard_at.as_secs() >= horizon {
                self.order[kept] = e;
                st.slot = kept as u32;
                kept += 1;
            } else {
                st.slot = NO_SLOT;
            }
        }
        self.order.truncate(kept);
        self.peers.retain(|_, st| {
            if st.snap.as_ref().is_some_and(|s| s.expired(horizon)) {
                st.snap = None;
            }
            st.slot != NO_SLOT || st.snap.is_some()
        });
    }
}

impl SharedTables {
    fn new(n_nodes: usize, ttl: f64) -> Self {
        SharedTables {
            nodes: (0..n_nodes).map(|_| NodeTable::new()).collect(),
            ttl,
            scratch: NodeMap::default(),
            snap_scratch: Vec::new(),
        }
    }

    fn fresh_one_hop(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        let horizon = now.as_secs() - self.ttl;
        let staged = &mut self.snap_scratch;
        staged.clear();
        staged.extend(
            self.nodes[u.index()]
                .order
                .iter()
                .filter(|e| e.heard_at.as_secs() >= horizon)
                .copied(),
        );
        NeighborsView {
            entries: Rc::from(&staged[..]),
        }
    }

    fn fresh_view(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        let t = &self.nodes[u.index()];
        let horizon = now.as_secs() - self.ttl;
        let best = &mut self.scratch;
        best.clear();
        let mut merge = |e: &NeighborEntry| {
            if e.heard_at.as_secs() < horizon || e.id == u {
                return;
            }
            match best.get(&e.id) {
                Some(cur) if cur.heard_at >= e.heard_at => {}
                _ => {
                    best.insert(e.id, *e);
                }
            }
        };
        for e in &t.order {
            merge(e);
        }
        for st in t.peers.values() {
            let Some(snap) = &st.snap else { continue };
            for e in snap {
                merge(e);
            }
        }
        let mut out: Vec<NeighborEntry> = best.values().copied().collect();
        out.sort_by_key(|e| e.id);
        NeighborsView::from(out)
    }

    fn record_beacon(
        &mut self,
        receiver: NodeId,
        sender: NeighborEntry,
        snapshot: &NeighborsView,
        now: SimTime,
    ) -> bool {
        let horizon = now.as_secs() - self.ttl;
        self.nodes[receiver.index()].record_beacon(sender, snapshot, horizon)
    }

    fn heard_frame(&mut self, receiver: NodeId, entry: NeighborEntry) {
        let t = &mut self.nodes[receiver.index()];
        // A frame is no beacon: no GC moment, so freshness is not asked.
        t.place(entry, f64::INFINITY);
        t.maybe_sweep();
    }

    fn footprint(&self) -> TableFootprint {
        let mut table_bytes = self.nodes.capacity() * std::mem::size_of::<NodeTable>();
        let mut snapshots: HashMap<*const NeighborEntry, usize> = HashMap::new();
        for t in &self.nodes {
            table_bytes += t.order.capacity() * std::mem::size_of::<NeighborEntry>()
                + map_heap_bytes(
                    t.peers.capacity(),
                    std::mem::size_of::<(NodeId, PeerState)>(),
                );
            for snap in t.peers.values().filter_map(|st| st.snap.as_ref()) {
                snapshots.insert(
                    snap.entries.as_ptr(),
                    snap.len() * std::mem::size_of::<NeighborEntry>() + RC_SLICE_HEADER,
                );
            }
        }
        TableFootprint {
            nodes: self.nodes.len(),
            table_bytes,
            snapshot_bytes: snapshots.values().sum(),
        }
    }
}

/// `RcBox` bookkeeping preceding an `Rc<[T]>`'s payload (strong +
/// weak counts).
const RC_SLICE_HEADER: usize = 2 * std::mem::size_of::<usize>();

/// Estimated heap bytes of a `HashMap` with `capacity` usable slots and
/// `entry` bytes per `(K, V)` pair: hashbrown allocates a power-of-two
/// bucket array at 7/8 load factor plus one control byte per bucket.
fn map_heap_bytes(capacity: usize, entry: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two().max(4);
    buckets * (entry + 1) + 16
}

/// Heap-memory telemetry for [`NeighborTables`] — the per-node
/// protocol-state counterpart of
/// [`glr_mobility::DeploymentArena::heap_bytes`], reported by the
/// `neighbor_footprint` bench row at 100k nodes.
#[derive(Debug, Clone, Copy)]
pub struct TableFootprint {
    /// Number of per-node tables.
    pub nodes: usize,
    /// Bytes in per-node structures: the per-node table array, 1-hop
    /// entry buffers and peer maps (map sizes are bucket estimates).
    pub table_bytes: usize,
    /// Bytes in the beacon snapshots the peer maps hold, counted once
    /// per unique `Rc` however many peers share it.
    pub snapshot_bytes: usize,
}

impl TableFootprint {
    /// Total heap bytes.
    pub fn total_bytes(&self) -> usize {
        self.table_bytes + self.snapshot_bytes
    }

    /// Total heap bytes per node.
    pub fn bytes_per_node(&self) -> usize {
        self.total_bytes() / self.nodes.max(1)
    }
}

// ---------------------------------------------------------------------------
// Clone-merge reference (test oracle)
// ---------------------------------------------------------------------------

/// The original clone-and-merge implementation: `Vec`-scanned tables,
/// per-reception entry-by-entry merges and eager expiry.
#[cfg(test)]
#[derive(Debug)]
struct CloneTables {
    one_hop: Vec<Vec<NeighborEntry>>,
    two_hop: Vec<Vec<NeighborEntry>>,
    /// Entries older than this many seconds are considered gone.
    ttl: f64,
}

#[cfg(test)]
impl CloneTables {
    fn new(n_nodes: usize, ttl: f64) -> Self {
        CloneTables {
            one_hop: vec![Vec::new(); n_nodes],
            two_hop: vec![Vec::new(); n_nodes],
            ttl,
        }
    }

    fn horizon(&self, now: SimTime) -> f64 {
        now.as_secs() - self.ttl
    }

    fn upsert(table: &mut Vec<NeighborEntry>, entry: NeighborEntry) {
        match table.iter_mut().find(|e| e.id == entry.id) {
            Some(e) => {
                if entry.heard_at >= e.heard_at {
                    *e = entry;
                }
            }
            None => table.push(entry),
        }
    }

    fn fresh_one_hop(&self, u: NodeId, now: SimTime) -> Vec<NeighborEntry> {
        let horizon = self.horizon(now);
        self.one_hop[u.index()]
            .iter()
            .filter(|e| e.heard_at.as_secs() >= horizon)
            .copied()
            .collect()
    }

    fn fresh_view(&self, u: NodeId, now: SimTime) -> Vec<NeighborEntry> {
        let horizon = self.horizon(now);
        let mut best: HashMap<NodeId, NeighborEntry> = Default::default();
        for e in self.one_hop[u.index()]
            .iter()
            .chain(self.two_hop[u.index()].iter())
        {
            if e.heard_at.as_secs() < horizon || e.id == u {
                continue;
            }
            match best.get(&e.id) {
                Some(cur) if cur.heard_at >= e.heard_at => {}
                _ => {
                    best.insert(e.id, *e);
                }
            }
        }
        let mut out: Vec<NeighborEntry> = best.into_values().collect();
        out.sort_by_key(|e| e.id);
        out
    }

    fn record_beacon(
        &mut self,
        receiver: NodeId,
        sender: NeighborEntry,
        snapshot: &[NeighborEntry],
        now: SimTime,
    ) -> bool {
        let horizon = self.horizon(now);
        let one_hop = &mut self.one_hop[receiver.index()];
        let two_hop = &mut self.two_hop[receiver.index()];
        let was_fresh = one_hop
            .iter()
            .any(|e| e.id == sender.id && e.heard_at.as_secs() >= horizon);
        Self::upsert(one_hop, sender);
        for e in snapshot {
            if e.id != receiver {
                Self::upsert(two_hop, *e);
            }
        }
        // Garbage-collect expired entries to bound memory.
        one_hop.retain(|e| e.heard_at.as_secs() >= horizon);
        two_hop.retain(|e| e.heard_at.as_secs() >= horizon);
        was_fresh
    }

    fn heard_frame(&mut self, receiver: NodeId, entry: NeighborEntry) {
        Self::upsert(&mut self.one_hop[receiver.index()], entry);
    }

    fn footprint(&self) -> TableFootprint {
        let vec_bytes = |tables: &Vec<Vec<NeighborEntry>>| {
            tables.capacity() * std::mem::size_of::<Vec<NeighborEntry>>()
                + tables
                    .iter()
                    .map(|t| t.capacity() * std::mem::size_of::<NeighborEntry>())
                    .sum::<usize>()
        };
        TableFootprint {
            nodes: self.one_hop.len(),
            table_bytes: vec_bytes(&self.one_hop) + vec_bytes(&self.two_hop),
            snapshot_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds empty tables from a node count and an entry TTL.
    type Ctor = fn(usize, f64) -> NeighborTables;

    /// The production tables and the clone-and-merge oracle, by name.
    const BACKENDS: [(&str, Ctor); 2] = [
        ("shared", NeighborTables::new),
        ("clone-merge", NeighborTables::clone_merge),
    ];

    fn entry(id: u32, at: f64) -> NeighborEntry {
        NeighborEntry {
            id: NodeId(id),
            pos: Point2::new(id as f64, at),
            heard_at: SimTime::from_secs(at),
        }
    }

    fn snap(entries: &[NeighborEntry]) -> NeighborsView {
        NeighborsView::from(entries.to_vec())
    }

    /// The 100k-node memory work pinned these layouts; growing them
    /// again is a per-`(node, peer)`-pair regression at deployment
    /// scale (the earliest layout used 24/40/168-byte equivalents).
    #[test]
    fn per_node_state_stays_compact() {
        assert_eq!(std::mem::size_of::<NeighborsView>(), 16);
        assert!(std::mem::size_of::<(NodeId, PeerState)>() <= 32);
        assert!(std::mem::size_of::<NodeTable>() <= 88);
    }

    #[test]
    fn footprint_counts_shared_snapshots_once() {
        let mut t = NeighborTables::new(4, 100.0);
        let now = SimTime::from_secs(5.0);
        t.record_beacon(NodeId(0), entry(2, 4.0), &snap(&[]), now);
        let s = t.fresh_one_hop(NodeId(0), now);
        // Nothing else keeps a view alive, so the baseline already holds
        // the snapshot at one receiver; recording the same snapshot at
        // two more must not count it again.
        t.record_beacon(NodeId(1), entry(0, 5.0), &s, now);
        let before = t.footprint().snapshot_bytes;
        for v in [2u32, 3] {
            t.record_beacon(NodeId(v), entry(0, 5.0), &s, now);
        }
        let after = t.footprint().snapshot_bytes;
        assert_eq!(before, after);
    }

    #[test]
    fn beacons_fill_tables_and_expire() {
        for (backend, new) in BACKENDS {
            let mut t = new(3, 2.5);
            let now = SimTime::from_secs(10.0);
            let fresh = t.record_beacon(NodeId(1), entry(0, 10.0), &snap(&[entry(2, 9.5)]), now);
            assert!(!fresh, "first contact must not be fresh ({backend})");
            assert_eq!(t.fresh_one_hop(NodeId(1), now).len(), 1);
            assert_eq!(t.fresh_view(NodeId(1), now).len(), 2);
            // Second beacon inside the TTL: already fresh.
            let now2 = SimTime::from_secs(11.0);
            assert!(t.record_beacon(NodeId(1), entry(0, 11.0), &snap(&[]), now2));
            // Long silence: entries expire.
            let later = SimTime::from_secs(20.0);
            assert!(t.fresh_one_hop(NodeId(1), later).is_empty());
            assert!(!t.record_beacon(NodeId(1), entry(0, 20.0), &snap(&[]), later));
        }
    }

    #[test]
    fn fresh_view_dedups_freshest_wins() {
        for (backend, new) in BACKENDS {
            let mut t = new(3, 100.0);
            let now = SimTime::from_secs(10.0);
            // Node 2 known both directly (older) and via the snapshot (newer).
            t.record_beacon(NodeId(0), entry(2, 5.0), &snap(&[]), now);
            t.record_beacon(NodeId(0), entry(1, 9.0), &snap(&[entry(2, 8.0)]), now);
            let view = t.fresh_view(NodeId(0), now);
            assert_eq!(view.len(), 2);
            let e2 = view.iter().find(|e| e.id == NodeId(2)).unwrap();
            assert_eq!(e2.heard_at, SimTime::from_secs(8.0), "{backend}");
        }
    }

    #[test]
    fn snapshot_skips_the_receiver_itself() {
        for (backend, new) in BACKENDS {
            let mut t = new(2, 100.0);
            let now = SimTime::from_secs(1.0);
            t.record_beacon(NodeId(1), entry(0, 1.0), &snap(&[entry(1, 0.5)]), now);
            assert!(
                t.fresh_view(NodeId(1), now)
                    .iter()
                    .all(|e| e.id != NodeId(1)),
                "{backend}"
            );
        }
    }

    #[test]
    fn heard_frame_refreshes_without_gc() {
        for (backend, new) in BACKENDS {
            let mut t = new(2, 2.5);
            t.heard_frame(NodeId(1), entry(0, 1.0));
            t.heard_frame(NodeId(1), entry(0, 2.0));
            let got = t.fresh_one_hop(NodeId(1), SimTime::from_secs(2.0));
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].heard_at, SimTime::from_secs(2.0));
            // Stale upsert does not regress the entry.
            t.heard_frame(NodeId(1), entry(0, 1.5));
            let got = t.fresh_one_hop(NodeId(1), SimTime::from_secs(2.0));
            assert_eq!(got[0].heard_at, SimTime::from_secs(2.0), "{backend}");
        }
    }

    #[test]
    fn beacon_view_is_shared_not_copied() {
        let mut t = NeighborTables::new(4, 100.0);
        let now = SimTime::from_secs(5.0);
        t.record_beacon(NodeId(0), entry(2, 4.0), &snap(&[]), now);
        let s = t.fresh_one_hop(NodeId(0), now);
        // Every receiver of the beacon keeps the sender's allocation.
        t.record_beacon(NodeId(1), entry(0, 5.0), &s, now);
        t.record_beacon(NodeId(3), entry(0, 5.0), &s, now);
        let Backend::Shared(shared) = &t.backend else {
            unreachable!("NeighborTables::new builds the shared tables")
        };
        for v in [1, 3] {
            let held = shared.nodes[v].peers[&NodeId(0)].snap.as_ref().unwrap();
            assert!(Rc::ptr_eq(&s.entries, &held.entries), "receiver {v}");
        }
    }

    /// With no view cache, a view asked for after a mutation at the same
    /// timestamp must reflect that mutation.
    #[test]
    fn views_see_mutations_at_the_same_time() {
        for (backend, new) in BACKENDS {
            let mut t = new(3, 100.0);
            let now = SimTime::from_secs(1.0);
            t.record_beacon(NodeId(1), entry(0, 1.0), &snap(&[entry(2, 0.5)]), now);
            let before = t.fresh_view(NodeId(1), now);
            assert_eq!(
                before.iter().find(|e| e.id == NodeId(2)).unwrap().heard_at,
                SimTime::from_secs(0.5),
                "{backend}"
            );
            t.record_beacon(NodeId(1), entry(2, 1.0), &snap(&[]), now);
            let after = t.fresh_view(NodeId(1), now);
            assert_eq!(
                after.iter().find(|e| e.id == NodeId(2)).unwrap().heard_at,
                SimTime::from_secs(1.0),
                "{backend}: fresh_view after record_beacon"
            );

            let one_hop = t.fresh_one_hop(NodeId(0), now);
            assert!(one_hop.is_empty(), "{backend}");
            t.heard_frame(NodeId(0), entry(1, 1.0));
            let ids: Vec<NodeId> = t
                .fresh_one_hop(NodeId(0), now)
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(
                ids,
                vec![NodeId(1)],
                "{backend}: fresh_one_hop after heard_frame"
            );
        }
    }

    /// The lazy sweep must reproduce the reference's *placement* of
    /// revived entries: once an entry has been observably GC'd (a beacon
    /// arrived after it expired), a re-contact appends at the end.
    #[test]
    fn revived_contact_reorders_like_the_reference() {
        for (backend, new) in BACKENDS {
            let mut t = new(4, 2.5);
            // Contacts 1 then 2.
            t.record_beacon(
                NodeId(0),
                entry(1, 1.0),
                &snap(&[]),
                SimTime::from_secs(1.0),
            );
            t.record_beacon(
                NodeId(0),
                entry(2, 2.0),
                &snap(&[]),
                SimTime::from_secs(2.0),
            );
            // Node 1 goes silent; a beacon from 2 at t=5 GCs it (1.0 < 5-2.5).
            t.record_beacon(
                NodeId(0),
                entry(2, 5.0),
                &snap(&[]),
                SimTime::from_secs(5.0),
            );
            // Node 1 returns: it must now list AFTER node 2.
            t.record_beacon(
                NodeId(0),
                entry(1, 6.0),
                &snap(&[]),
                SimTime::from_secs(6.0),
            );
            let ids: Vec<NodeId> = t
                .fresh_one_hop(NodeId(0), SimTime::from_secs(6.0))
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(ids, vec![NodeId(2), NodeId(1)], "{backend}");
        }
    }

    /// Without an intervening beacon GC, a stale entry that refreshes
    /// keeps its original slot — in both backends.
    #[test]
    fn stale_refresh_without_gc_keeps_position() {
        for (backend, new) in BACKENDS {
            let mut t = new(4, 2.5);
            t.record_beacon(
                NodeId(0),
                entry(1, 1.0),
                &snap(&[]),
                SimTime::from_secs(1.0),
            );
            t.record_beacon(
                NodeId(0),
                entry(2, 1.5),
                &snap(&[]),
                SimTime::from_secs(1.5),
            );
            // Node 1's entry is stale at t=6 but no beacon GC'd it;
            // a data frame refreshes it in place.
            t.heard_frame(NodeId(0), entry(1, 6.0));
            t.heard_frame(NodeId(0), entry(2, 6.0));
            let ids: Vec<NodeId> = t
                .fresh_one_hop(NodeId(0), SimTime::from_secs(6.0))
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(ids, vec![NodeId(1), NodeId(2)], "{backend}");
        }
    }

    /// Long random-ish op sequences keep the shared backend's lazily
    /// swept tables identical to the eager reference.
    #[test]
    fn sweeping_is_unobservable_under_churn() {
        let mut shared = NeighborTables::new(8, 2.5);
        let mut reference = NeighborTables::clone_merge(8, 2.5);
        let mut t = 0.0f64;
        for step in 0u32..600 {
            t += 0.1 + (step % 7) as f64 * 0.05;
            let now = SimTime::from_secs(t);
            let sender = step % 5;
            let receiver = (step / 5) % 8;
            if sender == receiver {
                continue;
            }
            // Snapshot comes from the sender's own table, like the engine.
            let ss = shared.fresh_one_hop(NodeId(sender), now);
            let rs = reference.fresh_one_hop(NodeId(sender), now);
            assert_eq!(&*ss, &*rs, "snapshots diverged at step {step}");
            let e = entry(sender, t);
            let a = shared.record_beacon(NodeId(receiver), e, &ss, now);
            let b = reference.record_beacon(NodeId(receiver), e, &rs, now);
            assert_eq!(a, b, "was_fresh diverged at step {step}");
            if step % 3 == 0 {
                shared.heard_frame(NodeId(receiver), e);
                reference.heard_frame(NodeId(receiver), e);
            }
            for u in 0..8u32 {
                assert_eq!(
                    &*shared.fresh_one_hop(NodeId(u), now),
                    &*reference.fresh_one_hop(NodeId(u), now),
                    "one-hop diverged at step {step} node {u}"
                );
                assert_eq!(
                    &*shared.fresh_view(NodeId(u), now),
                    &*reference.fresh_view(NodeId(u), now),
                    "view diverged at step {step} node {u}"
                );
            }
        }
    }
}
